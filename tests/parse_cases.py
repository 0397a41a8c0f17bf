"""The invalid-config cases of ``test_config_cli.py``, as plain data.

Each list or ID-keyed dict below holds the rows of one parametrized test
whose configs exit 1, in that test's argument order; ``ENGINE_RULES`` gives
each parameter rule an engine module owns.  ``tools/result_hashes.py``
loads this file too, so every case here is also one of the invalid configs
that ``--against`` parses on both sides.  Nothing here imports the package.
"""

# each parameter rule an engine module owns: (experiment, overrides breaking
# it, the violation's path); the test module holds the engine calls given
# the same value
ENGINE_RULES = {
    "normalization": ("born", {"state": {"weights": [0.0, 0.0, 0.0]}}, "state.weights"),
    "schedule-dt": ("appendix", {"appendix": {"dt": 0}}, "appendix.dt"),
    "schedule-n_steps": ("lambda-sweep", {"appendix": {"n_steps": 0}}, "appendix.n_steps"),
    "schedule-record_every": ("appendix", {"appendix": {"record_every": 0}},
                              "appendix.record_every"),
    "residual-snapshots": ("appendix", {"appendix": {"residual_check": True, "n_steps": 100,
                                                     "record_every": 51}},
                           "appendix.residual_check"),
    # the residuals' stencil margin leaves no point of a closed 8-point grid
    # (periodic false: a wrapped axis has no margin)
    "residual-interior": ("appendix", {"appendix": {"residual_check": True, "n_points": 8,
                                                    "periodic": False, "n_steps": 20,
                                                    "record_every": 5}},
                          "appendix.residual_check"),
    "prior-draws": ("prior-average", {"prior": {"n_mc": 1}}, "prior.n_mc"),
    "trials": ("born", {"ensemble": {"n_trials": 0}}, "ensemble.n_trials"),
    "equivariance-bins": ("born", {"equivariance": {"n_bins": 1, "enabled": True}},
                          "equivariance.n_bins"),
}

# (kind, section, values, every broken key's path)
BAD_SECTION_KEYS = [
    ("lambda-sweep", "appendix", {"n_points": 4, "x_max": -9.0, "dt": 0, "n_steps": 0,
                                  "deltas": [0.0, 0.0]},
     ["appendix.deltas", "appendix.dt", "appendix.n_points", "appendix.n_steps",
      "appendix.x_max"]),
    ("appendix", "appendix", {"scalar": "qq", "deltas": ["0"]},
     ["appendix.deltas", "appendix.scalar"]),
    ("born", "state", {"l_max": 0}, ["state.l_max", "state.modes"]),
    ("born", "state", {"modes": [0, "1"], "phases": [None, 0.0, 0.0]},
     ["state.modes", "state.phases"]),
]

# (kind, overrides, key)
UNPASSABLE_THRESHOLDS = [
    ("born", {"checks": {"chi2_p_min": 1.5}}, "checks.chi2_p_min"),
    ("born", {"checks": {"chi2_p_min": 1}}, "checks.chi2_p_min"),
    ("born", {"checks": {"max_ambiguous_rate": 0}}, "checks.max_ambiguous_rate"),
    ("prior-average", {"prior": {"z_max": -1}}, "prior.z_max"),
    ("stochastic-check", {"checks": {"mean_abs_dev_rtol": -1}},
     "checks.mean_abs_dev_rtol"),
]

# (experiment, appendix, path)
UNRUNNABLE_APPENDIX = [
    ("appendix", {"n_steps": 0}, "appendix.n_steps"),
    ("lambda-sweep", {"dt": 0}, "appendix.dt"),
    ("appendix", {"record_every": 0}, "appendix.record_every"),
    ("lambda-sweep", {"record_every": -5}, "appendix.record_every"),
    ("appendix", {"n_points": 4}, "appendix.n_points"),
    ("lambda-sweep", {"x_min": 2.0, "x_max": 2.0}, "appendix.x_max"),
    ("appendix", {"initial_width": 0}, "appendix.initial_width"),
    ("lambda-sweep", {"deltas": [0.0, -1.0]}, "appendix.deltas"),
    ("lambda-sweep", {"deltas": [0.0, "0.1"]}, "appendix.deltas"),
    ("appendix", {"residual_check": True, "n_steps": 100, "record_every": 51},
     "appendix.residual_check"),
    ("lambda-sweep", {"deltas": [0.0, 0.1, 0.1, -0.0]}, "appendix.deltas"),
    ("appendix", {"deltas": [0.0, -0.0]}, "appendix.deltas"),
    # a closed 8-point grid: no point lies past the residuals' stencil margin
    ("appendix", {"n_points": 8, "scalar": "0.5*q^2", "n_steps": 20, "record_every": 5,
                  "residual_check": True}, "appendix.residual_check"),
]

# a small grid run, to which the scale cases add their lambda_mag and deltas
GRID_RUN = {"n_points": 16, "n_steps": 3, "record_every": 1}

# (experiment, lambda_mag, deltas)
GRID_SCALES_TOO_LARGE = [
    ("appendix", 1e200, [0.0]),
    ("appendix", 1e200, [0.0, -0.5]),   # an appendix run takes delta 0 alone
    ("lambda-sweep", 1e200, [0.0]),
    ("lambda-sweep", 1e150, [0.0, 1e5]),   # only the swept scale is too large
    ("lambda-sweep", 1e300, [0.0, 1e50]),   # a scale beyond float64
]

# ID -> (experiment, appendix, path)
BAD_APPENDIX_FIELDS = {
    "unknown-name": ("appendix", {"scalar": "0.5*qq^2"}, "appendix.scalar"),
    "syntax": ("lambda-sweep", {"scalar": "sin("}, "appendix.scalar"),
    # not positive for q <= 0
    "metric-not-positive": ("appendix", {"metric": "q"}, "appendix.metric"),
    "vector-length": ("lambda-sweep", {"vector": ["q", "1"]}, "appendix.vector"),
    # zero norm
    "packet-off-grid": ("appendix", {"initial_center": 100}, "appendix.initial_center"),
    "zero-division": ("appendix", {"scalar": "0^-1"}, "appendix.scalar"),   # ZeroDivisionError
    "overflow": ("lambda-sweep", {"scalar": "10^400"}, "appendix.scalar"),  # OverflowError
    # complex: TypeError
    "complex-power": ("appendix", {"scalar": "(-8)^0.5"}, "appendix.scalar"),
    # the width's square is 0 in float, so the packet's exponent is x/0 or 0/0
    "width-squared-underflows": ("appendix", {"initial_width": 1e-200},
                                 "appendix.initial_center/initial_width"),
    "width-subnormal": ("lambda-sweep", {"initial_width": 5e-324},
                        "appendix.initial_center/initial_width"),
    # NaN on the grid's negative half, named before the metric and magnitude rules
    "metric-not-finite": ("appendix", {"metric": "q^0.5"},
                          "appendix.metric: values on the grid must be finite"),
    "scalar-not-finite": ("lambda-sweep", {"scalar": "q^0.5"},
                          "appendix.scalar: values on the grid must be finite"),
    "vector-not-finite": ("appendix", {"vector": ["q^0.5"]},
                          "appendix.vector: values on the grid must be finite"),
}

# ID -> (experiment, scalar, message)
ARITHMETIC_FAILURES = {
    "overflow": ("lambda-sweep", "10^400", "appendix.scalar: overflow in '^'"),
    "complex-power": ("appendix", "(-8)^0.5",
                      "appendix.scalar: fractional power of a negative base in '^'"),
    "zero-power": ("appendix", "0^-1", "appendix.scalar: zero to a negative power in '^'"),
    "zero-division": ("lambda-sweep", "q + 1/0", "appendix.scalar: division by zero in '/'"),
}

# (experiment, section, key, value); the test enables an equivariance section
TOO_SMALL_COUNTS = [
    ("born", "equivariance", "n_bins", 1),
    ("prior-average", "prior", "n_mc", 1),
    ("repeatability", "repeat", "n_repeats", 0),
    ("stochastic-check", "checks", "n_draws", 1),
    ("born", "grid", "n_theta", 7),      # inert, but range-checked
    ("born", "grid", "n_q2", 31),
    ("born", "state", "l_max", 0),
    # a trajectory table stores its trials every store_every >= 1 steps
    ("trajectories", "ensemble", "store_every", 0),
    ("trajectories", "ensemble", "store_every", -5),
    ("trajectories", "ensemble", "n_store", -1),
]

# ID -> (state, message) of a Born run
UNRUNNABLE_STATES = {
    "mode-text": ({"modes": [0, "1"]}, "state.modes: every entry must be a number"),
    "weight-null": ({"weights": [0.5, None, 0.2]}, "state.weights: every entry must be a number"),
    "phase-bool": ({"phases": [0.0, True, 0.0]}, "state.phases: every entry must be a number"),
    "mode-fraction": ({"modes": [-1, 0.5, 1]}, "state.modes: every entry must be an integer"),
    "mode-repeated": ({"modes": [1, 0, 1.0]}, "state.modes: must be distinct"),
    "weight-total-overflow": ({"weights": [1e308, 1e308, 0.0]},
                              "state.weights: must be non-negative"),
    "weight-nan": ({"weights": [0.5, float("nan"), 0.2]},
                   "state.weights[1]: must be a finite number"),
    "center-infinite": ({"packet_center": float("inf")},
                        "state.packet_center: must be a finite number"),
    "l_max-zero": ({"modes": [0], "weights": [1.0], "l_max": 0},
                   "state.l_max: must be an integer at least 1, not 0"),
}

# (experiment, seed)
OUT_OF_RANGE_SEEDS = [
    ("born", -1),
    ("born", 2**64),
    ("repeatability", 2**64 - 1),     # its repeats are drawn at seed + 1
]

# (experiment, overrides, violation)
SHAPE_AND_BOUND_RULES = [
    ("born", {"ensemble": [1]}, "ensemble: expected an object"),
    ("born", {"threads": 0}, "threads: must be at least 1"),
    ("born", {"velocity": "drift"}, "velocity: must be effective or actual"),
    ("appendix", {"appendix": {"x_min": 0, "x_max": 1e-48}},
     "appendix.x_max: the grid spacing must be at least 1e-50"),
    # 10,000 times tau_xi / hierarchy_factor = 1e-20: the step bound is relative
    ("born", {"velocity": "actual", "stochastic": {"dt": 1e-20, "tau_xi": 1e-19},
              "physical": {"t_M": 1e-3, "g": 1000}, "ensemble": {"dt_traj": 1e-16}},
     "ensemble.dt_traj: dt_traj = 1e-16 exceeds tau_xi / hierarchy_factor = 1e-20"),
]
