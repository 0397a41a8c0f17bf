"""The pointer domain, physical parameters and snapshot export."""
import numpy as np
import pytest

from joint_oracle import JointAxes, field_from_binary
from stochaction import GridSpec, InvalidSystemError, PhysicalConfig
from stochaction.core import field_to_binary, field_to_csv


@pytest.fixture
def grid():
    return GridSpec(-10.0, 10.0)


@pytest.fixture
def axes(grid):
    return JointAxes(grid, 128, 512)


class TestGridSpec:
    def test_spacings(self, axes):
        # the test-local joint axes span the pointer domain end to end
        assert axes.dtheta == pytest.approx(2 * np.pi / 128)
        assert axes.dq2 == pytest.approx(20.0 / 512)
        assert len(axes.theta) == 128
        assert len(axes.q2) == 513
        assert (axes.q2[0], axes.q2[-1]) == (-10.0, 10.0)

    @pytest.mark.parametrize("kwargs", [
        dict(q2_min=1.0, q2_max=-1.0),
        dict(q2_min=1.0, q2_max=1.0),
        dict(q2_min=-1.0, q2_max=float("nan")),
    ])
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(InvalidSystemError):
            GridSpec(**kwargs)


class TestPhysicalConfig:
    def test_defaults_valid(self):
        PhysicalConfig()

    def test_small_sep_factor_rejected(self):
        with pytest.raises(InvalidSystemError):
            PhysicalConfig(sep_factor=2.0)

    @pytest.mark.parametrize("kwargs", [
        dict(lambda_mag=0.0), dict(t_M=-1.0), dict(sigma=0.0), dict(g=float("inf")),
        *[{name: float("nan")} for name in ("lambda_mag", "g", "t_M", "sigma", "sep_factor")],
        *[{name: float("inf")} for name in ("lambda_mag", "t_M", "sigma", "sep_factor")],
    ])
    def test_invalid_rejected(self, kwargs):
        # each check is written so that a NaN fails it
        with pytest.raises(InvalidSystemError):
            PhysicalConfig(**kwargs)

    def test_separation_check(self):
        cfg = PhysicalConfig(g=1.0, t_M=1.0, sigma=0.05, sep_factor=8.0)
        cfg.check_separation([-1.0, 0.0, 1.0])
        wide = PhysicalConfig(g=1.0, t_M=1.0, sigma=0.2, sep_factor=8.0)
        with pytest.raises(InvalidSystemError):
            wide.check_separation([-1.0, 0.0, 1.0])
        wide.check_separation([2.0])  # single packet never overlaps


class TestSnapshotExport:
    def test_binary_round_trip(self, axes):
        amp = np.exp(-axes.q2**2) * np.exp(0.5j * axes.q2)
        back, spec = field_from_binary(field_to_binary(amp, [axes.q2]))
        assert np.array_equal(back, amp)
        assert spec == [(513, -10.0, 10.0)]

    def test_csv_shape(self, axes):
        amp = (1 + 0.1 * np.cos(axes.theta)).astype(complex)
        lines = field_to_csv(amp, [axes.theta], ["theta"]).strip().split("\n")
        assert lines[0] == "theta,re,im"
        assert len(lines) == 1 + 128

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            field_from_binary(b"nope" + b"\x00" * 64)
