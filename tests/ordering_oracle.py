"""Left-ordered metric Hamiltonian, the control for the sandwich ordering.

The package builds only the sandwich form ``(p - a) g (p - a) / 2``, which
is Hermitian by construction.  The tests contrast it with the naive left
ordering ``g(q) p p / 2`` built here from the same stencil, which is not
Hermitian for a position-dependent metric.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from stochaction import CartesianGrid, MetricPotentialSystem
from stochaction.gridop import GridOperator, _divergence_form


def build_unsymmetrized_hamiltonian(system: MetricPotentialSystem, lambda_mag: float,
                                    grid: CartesianGrid) -> GridOperator:
    """Left-ordered kinetic term ``g(q) p p / 2`` plus the scalar potential."""
    coords = grid.coords()
    g = system.metric_field(coords)
    v = system.scalar_field(coords)
    H = sp.csr_matrix((grid.size, grid.size), dtype=complex)
    for i in range(grid.dimension):
        lap = _divergence_form(np.ones(grid.shape), grid, i)
        H = H + (-0.5 * lambda_mag**2) * sp.diags(g[..., i, i].ravel()) @ lap
    H = H + sp.diags(v.ravel())
    return GridOperator(matrix=H.tocsr(), grid=grid, lambda_mag=lambda_mag)
