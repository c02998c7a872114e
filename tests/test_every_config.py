"""Every config ends in an exit code: a seeded walk over the scenario schema.

``random_config`` draws one scenario per index from a plain
``random.Random``: grid.n in {4, 8}, at most 40 steps, every initial and
source preset, bootstrap keys left out, set to auto or given, and then a few
keys replaced by an extreme number (0, +-1e-300, +-1e200, inf, nan) or an
invalid one.  The draws lean towards valid values, so that many configs
reach the time loop and the checks, not only the config parser.

The property, under the warning filters of pyproject.toml: ``cli.main``
returns an exit code in 0-3 and raises nothing, and for exit codes 0-2
re-running resolved.cfg reproduces timeseries.csv byte for byte.
"""

import random

import pytest

from toruswave.calibration import calibrate, save_constants
from toruswave.cli import main
from toruswave.fields import GridSpec

CONFIGS = 100
EXTREMES = ("0", "1e-300", "-1e-300", "1e200", "-1e200", "inf", "nan")
FLOAT_KEYS = (
    "params.omega", "params.k_eos", "params.kappa", "params.mu", "source.amplitude",
    "source.sigma_rate", "initial.e_m0", "solver.dt", "solver.t_end", "bootstrap.t1",
    "bootstrap.eps_prime", "bootstrap.c_delta",
)
INVALID_INTS = {
    "grid.n": ("2", "5", "0"),
    "params.m": ("1", "0", "-1", "4"),
    "solver.sample_every": ("0", "-3"),
    "source.seed": ("-1",),
}


def _number(rng, lo, hi):
    return repr(round(rng.uniform(lo, hi), 6))


def _mode(rng, n):
    top = n // 2 - 1
    while True:
        mode = [rng.randint(-top, top) for _ in range(3)]
        if any(mode):
            return mode


def _coeffs(rng, n, extreme=None):
    entries = []
    for _ in range(rng.randint(1, 3)):
        mode = _mode(rng, n) if rng.random() < 0.8 else [0, 0, 0]
        parts = [_number(rng, -0.05, 0.05), _number(rng, -0.05, 0.05)]
        if extreme is not None:
            parts[rng.randint(0, 1)] = extreme
        entries.append(",".join([*map(str, mode), *parts]))
    return "; ".join(entries)


def random_config(index, constants):
    """Scenario entries number ``index``; ``constants`` maps grid.n to a
    calibration file for m = 3."""
    rng = random.Random(index)
    n = rng.choice((4, 8))
    entries = {
        "format": "toruswave-scenario-1",
        "name": f"config-{index}",
        "grid.n": str(n),
        "params.omega": _number(rng, 0.1, 0.9),
        "source.preset": rng.choice(("uniform", "single-mode", "bump", "band")),
        "source.amplitude": rng.choice(
            ("0", "0.001", _number(rng, 0.0, 0.05), "budget:0.25", "budget:1")
        ),
        "source.sigma": rng.choice(("const", "cos")),
        "source.sigma_rate": _number(rng, 0.0, 3.0),
        "source.seed": str(rng.randint(0, 50)),
        "initial.preset": rng.choice(("zero", "single-mode", "bump", "coefficients")),
        "constants.path": str(constants[n]),
    }
    if rng.random() < 0.6:
        entries["params.k_eos"] = _number(rng, 0.4, 0.95)
    else:
        entries["params.kappa"] = _number(rng, 0.1, 1.0)
        entries["params.mu"] = rng.choice(("-0.5", "0.5", "1", "2", "3", "1.25"))
    if rng.random() < 0.3:
        entries["params.m"] = rng.choice(("2", "3"))

    preset = entries["initial.preset"]
    if preset in ("single-mode", "bump"):
        entries["initial.part"] = rng.choice(("velocity", "displacement"))
        entries["initial.e_m0"] = _number(rng, 0.005, 0.1)
        if preset == "single-mode":
            entries["initial.mode"] = ",".join(map(str, _mode(rng, n)))
    elif preset == "coefficients":
        keys = ("initial.u0_coeffs", "initial.u1_coeffs")
        for key in rng.choice((keys[:1], keys[1:], keys)):
            entries[key] = _coeffs(rng, n)
        if rng.random() < 0.3:
            entries["initial.e_m0"] = _number(rng, 0.005, 0.1)

    dt = rng.choice((0.05, 0.1, 0.2))
    entries["solver.dt"] = repr(dt)
    entries["solver.t_end"] = repr(rng.randint(1, 40) * dt)
    entries["solver.sample_every"] = str(rng.randint(1, 5))
    entries["solver.dealias"] = rng.choice(("true", "false"))

    valid_bootstrap = {
        "bootstrap.t1": (0.5, 4.0), "bootstrap.eps_prime": (0.01, 0.3),
        "bootstrap.c_delta": (0.5, 5.0),
    }
    for key, (lo, hi) in valid_bootstrap.items():
        choice = rng.random()
        if choice < 0.2:
            entries[key] = "auto"
        elif choice < 0.4:
            entries[key] = _number(rng, lo, hi)

    # a few keys at an extreme or invalid value; none in about half the configs
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3))):
        kind = rng.random()
        if kind < 0.7:
            key = rng.choice(FLOAT_KEYS)
            value = rng.choice(EXTREMES)
            if key == "source.amplitude" and rng.random() < 0.3:
                value = "budget:" + value
            entries[key] = value
        elif kind < 0.85:
            key = rng.choice(("initial.u0_coeffs", "initial.u1_coeffs"))
            entries["initial.preset"] = "coefficients"
            entries[key] = _coeffs(rng, n, extreme=rng.choice(EXTREMES))
        else:
            key = rng.choice(sorted(INVALID_INTS))
            entries[key] = rng.choice(INVALID_INTS[key])
    return entries


def check_config(index, constants, root):
    """Run config ``index`` under ``root``; assert the property and return the exit code."""
    entries = random_config(index, constants)
    config = root / "config.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    out, rerun = root / "out", root / "rerun"
    code = main(["run", str(config), "--out", str(out)])
    assert code in (0, 1, 2, 3), entries
    if code < 3:
        assert main(["run", str(out / "resolved.cfg"), "--out", str(rerun)]) == code, entries
        timeseries = (out / "timeseries.csv").read_bytes()
        assert (rerun / "timeseries.csv").read_bytes() == timeseries, entries
    return code


@pytest.fixture(scope="module")
def constants(tmp_path_factory):
    """Small m = 3 calibrations for the two grids the configs use."""
    root = tmp_path_factory.mktemp("constants")
    paths = {}
    for n in (4, 8):
        paths[n] = root / f"constants{n}.txt"
        save_constants(calibrate(GridSpec(n), 3, seed=2024, n_fields=6), paths[n])
    return paths


@pytest.mark.parametrize("index", range(CONFIGS))
def test_config_ends_in_an_exit_code(index, constants, tmp_path):
    check_config(index, constants, tmp_path)


# about 1e300 steps: every float that large is an integer, so only the 2**53
# limit on the step count stops such a run before it starts
@pytest.mark.parametrize(
    "solver", [{"solver.t_end": "1e200"}, {"solver.dt": "1e-300", "solver.t_end": "2"}]
)
def test_step_counts_from_2_to_the_53_exit_3(solver, constants, tmp_path, capsys):
    entries = {**random_config(0, constants), **solver}
    config = tmp_path / "config.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "2**53" in capsys.readouterr().err


# the bootstrap bounds ||u||_inf through the embedding of H^m in L^inf, which
# holds for m > 3/2 only
@pytest.mark.parametrize("m", ["0", "1"])
def test_sobolev_order_below_two_exits_3(m, constants, tmp_path, capsys):
    entries = {**random_config(0, constants), "params.m": m}
    config = tmp_path / "config.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        f"config error: params.m: the estimates need m > 3/2 for H^m in L^inf, got {m}\n"
    )
    assert not (tmp_path / "out").exists()
