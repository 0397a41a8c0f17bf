"""The pointer domain, physical parameters, forked workers and snapshot export."""
import multiprocessing
import os

import numpy as np
import pytest

from joint_oracle import JointAxes
from stochaction import (AngularBasis, DomainOverflowError, FieldErrors, GridSpec,
                         InvalidSystemError, PhysicalConfig)
from stochaction.core import csv_text, field_to_csv, fork_map, fork_workers, require_count
from stochaction.gridop import check_schedule


@pytest.fixture
def grid():
    return GridSpec(-10.0, 10.0)


@pytest.fixture
def axes(grid):
    return JointAxes(grid, 128, 512)


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_no_count(flag):
    # Python's bool is an int, but no count: not at least 0, and not as the
    # counts of a Cayley schedule or an angular basis
    with pytest.raises(FieldErrors, match="n: must be an integer at least 0"):
        require_count("n", flag, 0)
    with pytest.raises(FieldErrors) as err:
        check_schedule(0.01, flag, flag)
    assert [name for name, _ in err.value.errors] == ["n_steps", "record_every"]
    with pytest.raises(FieldErrors, match="l_max"):
        AngularBasis(flag)


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
    def test_csv_shape(self, axes):
        amp = (1 + 0.1 * np.cos(axes.theta)).astype(complex)
        lines = field_to_csv(amp, [axes.theta], ["theta"]).strip().split("\n")
        assert lines[0] == "theta,re,im"
        assert len(lines) == 1 + 128

    def test_csv_rows_are_the_shared_writer_rows(self):
        # a 2-D field in C order: first axis slowest, floats by repr
        amp = np.array([[1.0 + 0.5j, 0.0 - 0.25j], [0.1 + 0j, 2.0 - 1.0j]])
        text = field_to_csv(amp, [np.array([0.0, 0.5]), np.array([-1.0, 1.0])], ["x", "y"])
        rows = [[0.0, -1.0, 1.0, 0.5], [0.0, 1.0, 0.0, -0.25],
                [0.5, -1.0, 0.1, 0.0], [0.5, 1.0, 2.0, -1.0]]
        assert text == csv_text(rows, ["x", "y", "re", "im"])
        assert text.splitlines()[3] == "0.5,-1.0,0.1,0.0"
        assert csv_text([[1, 0.1, "a"]], ["n", "f", "s"]) == "n,f,s\n1,0.1,a\n"


class TestForkMap:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # the pool runs whatever the host's CPU count
        monkeypatch.setattr("os.cpu_count", lambda: 2)

    def test_results_in_index_order_from_at_most_two_workers(self):
        out = fork_map(lambda i: (i * i, os.getpid()), 7, 8)
        assert [sq for sq, _ in out] == [i * i for i in range(7)]
        pids = {pid for _, pid in out}
        assert os.getpid() not in pids and 1 <= len(pids) <= 2
        assert multiprocessing.active_children() == []

    def test_one_worker_or_one_task_runs_in_process(self):
        assert fork_map(lambda i: (i, os.getpid()), 3, 1) == [(i, os.getpid()) for i in range(3)]
        assert fork_map(lambda i: os.getpid(), 1, 2) == [os.getpid()]
        assert fork_map(lambda i: i, 0, 2) == []

    def test_worker_count_capped_by_cpus_and_tasks(self, monkeypatch):
        assert [fork_workers(8, 5), fork_workers(8, 1), fork_workers(1, 5),
                fork_workers(2, 0)] == [2, 1, 1, 1]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert fork_workers(2, 5) == 1
        assert fork_map(lambda i: os.getpid(), 2, 2) == [os.getpid()] * 2

    def test_worker_error_keeps_type_message_and_attributes(self):
        def task(i):
            if i == 3:
                raise DomainOverflowError("trial 3 left the pointer grid", trial=3)
            return i

        with pytest.raises(DomainOverflowError) as info:
            fork_map(task, 6, 2)
        assert str(info.value) == "trial 3 left the pointer grid"
        assert info.value.trial == 3
        assert multiprocessing.active_children() == []

    def test_worker_field_errors_keep_their_pairs(self):
        # FieldErrors.__reduce__ rebuilds the error from its (name, message) pairs
        errors = [("n_steps", "must be an integer at least 1, not 0"), ("dt", "must be finite")]

        def task(i):
            if i == 1:
                raise FieldErrors(errors)
            return i

        with pytest.raises(FieldErrors) as info:
            fork_map(task, 2, 2)
        assert info.value.errors == errors
        assert str(info.value) == str(FieldErrors(errors))
        assert multiprocessing.active_children() == []
