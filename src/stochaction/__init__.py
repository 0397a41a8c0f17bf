"""Desk-scale simulator of a stochastic-action model of quantum measurement.

The model assigns an exponential transition law to the deviation of the
action increment from its stationary value.  Carried through a two-particle
pointer coupling it reproduces the standard quantum predictions: discrete
outcomes, Born-rule statistics, expectation-value equality and effective
collapse, all while the configuration follows a definite continuous
trajectory.  The same machinery quantizes a single particle in metric,
vector and scalar potentials, with the action scale exposed as a free
parameter for precision sweeps around the quantum point.
"""

__version__ = "0.1.0"

from .core import (HBAR, DegenerateInputError, DomainOverflowError, FieldErrors, GridSpec,
                   InvalidSystemError, NumericalError, PhysicalConfig)
from .spectral import (AngularBasis, GaussianPacket, LineModes, PlaneWaveModes,
                       SpectralState, evolve_measurement_spectral)
from .stochastic import (ActionIncrement, StochasticParams, check_separability,
                         gaussian_log_weight, sample_deviation, sample_sign_path,
                         transition_log_weight)
from .gridop import (CartesianGrid, GridOperator, MetricPotentialSystem,
                     build_metric_hamiltonian, evolve_grid, quantum_potential,
                     verify_hjm_residual)
from .trajectories import (EnsembleSpec, ModeFlow, equivariance_report,
                           integrate_ensemble)
from .measurement import (EnsembleStats, MeasurementPipeline, MeasurementRecord, StateSpec,
                          actual_observable_prior, average_prior, correlated_eigenstate,
                          prepare_initial_state, run_ensemble, substitute_observable)
from .potentials import (AppendixSpec, LambdaSweep, appendix_velocity, classical_limit_check,
                         run_lambda_sweep, system_from_expressions)
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .experiments import run_experiment
