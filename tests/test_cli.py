"""Config parsing, artifact layout, exit codes, and sweep behavior."""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import pytest

from toruswave import cli
from toruswave.calibration import calibrate, load_constants, save_constants
from toruswave.cli import (
    CHECK_IDS,
    CONSTANTS_ENV,
    ConfigError,
    build_scenario,
    load_config,
    main,
    parse_config,
    run_scenario,
    sweep,
)
from toruswave.estimates import BootstrapParams, epsilon_budgets, h_threshold
from toruswave.fields import GridSpec


@pytest.fixture(scope="module")
def constants_file(tmp_path_factory):
    """Saved 8-cube calibration so scenario tests skip the on-the-fly path."""
    constants = calibrate(GridSpec(8), 3, seed=2024, n_fields=12)
    path = tmp_path_factory.mktemp("calibration") / "constants8.txt"
    save_constants(constants, path)
    return path


BASE_LINES = {
    "format": "format = toruswave-scenario-1",
    "name": "name = cli-test",
    "grid.n": "grid.n = 8",
    "params.omega": "params.omega = 0.5",
    "params.k_eos": "params.k_eos = 0.66666666666666663",
    "source.preset": "source.preset = uniform",
    "source.amplitude": "source.amplitude = 0.001",
    "initial.preset": "initial.preset = single-mode",
    "initial.mode": "initial.mode = 2,2,1",
    "initial.e_m0": "initial.e_m0 = 0.05",
    "solver.dt": "solver.dt = 0.05",
    "solver.t_end": "solver.t_end = 4",
    "solver.sample_every": "solver.sample_every = 4",
}


def make_cfg(tmp_path, constants_file=None, drop=(), **overrides):
    """Write a small forced scenario, overriding or dropping schema lines."""
    lines = dict(BASE_LINES)
    for key, value in overrides.items():
        lines[key] = f"{key} = {value}"
    for key in drop:
        lines.pop(key, None)
    if constants_file is not None:
        lines["constants.path"] = f"constants.path = {constants_file}"
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(lines.values()) + "\n")
    return path


def read_echo(out_dir):
    entries = {}
    for line in (out_dir / "resolved.cfg").read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


class TestParseConfig:
    def test_round_trips_known_keys(self):
        entries = parse_config("format = toruswave-scenario-1\ngrid.n = 8\n")
        assert entries == {"format": "toruswave-scenario-1", "grid.n": "8"}

    def test_skips_blanks_and_comments(self):
        entries = parse_config("\n# a comment\nname = x\n\n")
        assert entries == {"name": "x"}

    def test_lists_every_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("bogus.key = 1\nname = x\nanother = 2\n")
        assert "'bogus.key'" in str(err.value)
        assert "'another'" in str(err.value)
        assert "line 1" in str(err.value)
        assert "line 3" in str(err.value)

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate key 'name'"):
            parse_config("name = a\nname = b\n")

    def test_rejects_lines_without_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("just some words\n")


class TestLoadConfig:
    def test_bundled_scenarios_resolve(self):
        assert load_config("flagship")["name"] == "flagship"
        assert load_config("zero")["name"] == "zero"

    def test_missing_reference_raises(self):
        with pytest.raises(ConfigError, match="no bundled scenario"):
            load_config("does-not-exist")


class TestBuildScenario:
    def test_wrong_format_rejected(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file, format="something-else")
        with pytest.raises(ConfigError, match="format"):
            build_scenario(load_config(str(cfg)))

    def test_zero_mode_rejected(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file, **{"initial.mode": "0,0,0"})
        with pytest.raises(ConfigError, match="zero mode"):
            build_scenario(load_config(str(cfg)))

    @pytest.mark.parametrize("mode", ["4,0,0", "1,-4,2", "0,0,-5"])
    def test_mode_the_grid_aliases_rejected(self, tmp_path, constants_file, mode):
        cfg = make_cfg(tmp_path, constants_file, **{"initial.mode": mode})
        with pytest.raises(ConfigError, match=r"initial\.mode: .*\|n_i\| < 4"):
            build_scenario(load_config(str(cfg)))

    def test_highest_resolved_mode_accepted(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file, **{"initial.mode": "3,-3,3"})
        assert build_scenario(load_config(str(cfg))).echo["initial.mode"] == "3,-3,3"

    @pytest.mark.parametrize("key", ["initial.u0_coeffs", "initial.u1_coeffs"])
    def test_coefficient_the_grid_aliases_rejected(self, tmp_path, constants_file, key):
        cfg = make_cfg(
            tmp_path, constants_file, drop=("initial.mode", "initial.e_m0"),
            **{"initial.preset": "coefficients", key: "1,0,0,0.01,0; 0,-4,1,0.01,0"},
        )
        with pytest.raises(ConfigError, match=rf"{key}: mode 0,-4,1 .*\|n_i\| < 4"):
            build_scenario(load_config(str(cfg)))

    def test_negative_e_m0_rejected(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file, **{"initial.e_m0": "-0.05"})
        with pytest.raises(ConfigError, match="must be positive"):
            build_scenario(load_config(str(cfg)))

    def test_e_m0_on_zero_preset_rejected(self, tmp_path, constants_file):
        cfg = make_cfg(
            tmp_path, constants_file, drop=("initial.mode",),
            **{"initial.preset": "zero", "initial.e_m0": "0.05"},
        )
        with pytest.raises(ConfigError, match="nothing to scale"):
            build_scenario(load_config(str(cfg)))

    def test_exponents_require_kappa_and_mu_without_k_eos(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file, drop=("params.k_eos",))
        with pytest.raises(ConfigError, match="params.kappa"):
            build_scenario(load_config(str(cfg)))

    def test_malformed_budget_fraction_rejected(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file, **{"source.amplitude": "budget:lots"})
        with pytest.raises(ConfigError, match="budget:F"):
            build_scenario(load_config(str(cfg)))

    def test_auto_bootstrap_values(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file)
        scenario = build_scenario(load_config(str(cfg)))
        constants = load_constants(constants_file)
        bp = scenario.bootstrap
        e0 = bp.e_m0
        assert e0 == pytest.approx(0.05, rel=1e-12)
        assert bp.t1 == pytest.approx(2.0)
        assert bp.eps_prime == pytest.approx(0.5 * h_threshold(0.5, bp.t1))
        assert bp.delta == pytest.approx(e0 / 0.5)
        assert bp.delta_prime == pytest.approx(
            constants.c_sobolev * math.sqrt(2.0) * e0
        )

    def test_budget_amplitude_is_fraction_of_min_budget(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file, **{"source.amplitude": "budget:0.5"})
        scenario = build_scenario(load_config(str(cfg)))
        eps1, eps2 = epsilon_budgets(scenario.bootstrap, scenario.params.omega)
        assert scenario.source.amplitude == pytest.approx(
            0.5 * min(eps1, eps2), rel=1e-15
        )
        assert scenario.source.amplitude > 0.0

    def test_explicit_bootstrap_values_win(self, tmp_path, constants_file):
        cfg = make_cfg(
            tmp_path, constants_file,
            **{"bootstrap.t1": "1.5", "bootstrap.c_delta": "2.25"},
        )
        scenario = build_scenario(load_config(str(cfg)))
        assert scenario.bootstrap.t1 == 1.5
        assert scenario.bootstrap.c_delta == 2.25


class TestRunScenario:
    def test_zero_scenario_all_artifacts_and_exit_0(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_scenario("zero", out) == 0
        for artifact in (
            "timeseries.csv", "report.txt", "report.csv", "resolved.cfg", "constants.txt",
        ):
            assert (out / artifact).is_file()
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "# toruswave-timeseries-1"
        assert lines[1].split(",") == [
            "t", "Em", "Em_sq", "E_std_sq", "u_Hm", "ut_Hm", "F_Hm",
            "u_mean", "F_mean", "u_min", "bootstrap_ok",
        ]
        for row in lines[2:]:
            cells = row.split(",")
            assert all(float(c) == 0.0 for c in cells[1:10])
            assert cells[10] == "1"
        assert "all_passed = true" in capsys.readouterr().out

    def test_unknown_key_exits_3_and_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("format = toruswave-scenario-1\nshiny.knob = 7\n")
        assert run_scenario(str(cfg), tmp_path / "out") == 3
        assert "'shiny.knob'" in capsys.readouterr().err

    def test_resolved_echo_reruns_bit_identically(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file)
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert run_scenario(str(cfg), first) == 0
        assert run_scenario(str(first / "resolved.cfg"), again) == 0
        assert (first / "timeseries.csv").read_bytes() == (
            again / "timeseries.csv"
        ).read_bytes()

    def test_overrides_land_in_echo(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file, **{"source.preset": "band"})
        out = tmp_path / "out"
        assert run_scenario(str(cfg), out, seed=9, dt=0.025, grid_n=8) == 0
        echo = read_echo(out)
        assert echo["source.seed"] == "9"
        assert echo["solver.dt"] == "0.025000000000000001"
        assert echo["grid.n"] == "8"

    def test_breakdown_exits_2(self, tmp_path, constants_file):
        cfg = make_cfg(
            tmp_path, constants_file,
            drop=("params.k_eos", "initial.mode", "initial.e_m0"),
            **{
                "params.kappa": "0.25",
                "params.mu": "-0.5",
                "source.amplitude": "0.01",
                "initial.preset": "coefficients",
                "initial.u0_coeffs": "0,0,0,-0.9,0",
                "initial.u1_coeffs": "0,0,0,-0.5,0",
                "bootstrap.c_delta": "2.0",
                "bootstrap.delta_prime": "0.9",
                "solver.t_end": "10",
            },
        )
        out = tmp_path / "out"
        assert run_scenario(str(cfg), out) == 2
        assert "breakdown = t = " in (out / "report.txt").read_text()

    def test_failing_check_exits_1(self, tmp_path, constants_file):
        # forcing far beyond the budget, nothing breaks but the bound is lost
        cfg = make_cfg(
            tmp_path, constants_file,
            drop=("params.k_eos",),
            **{
                "params.kappa": "0.3",
                "params.mu": "1.0",
                "source.amplitude": "50",
                "solver.dt": "0.01",
                "solver.t_end": "2",
                "solver.sample_every": "10",
            },
        )
        out = tmp_path / "out"
        assert run_scenario(str(cfg), out) == 1
        assert "bootstrap: FAIL" in (out / "report.txt").read_text()

    def test_env_var_supplies_constants(self, tmp_path, constants_file, monkeypatch):
        base = load_constants(constants_file)
        tagged = dataclasses.replace(base, c_algebra=0.123456789)
        tagged_path = tmp_path / "tagged.txt"
        save_constants(tagged, tagged_path)
        monkeypatch.setenv(CONSTANTS_ENV, str(tagged_path))
        cfg = make_cfg(tmp_path)  # no constants.path of its own
        out = tmp_path / "out"
        assert run_scenario(str(cfg), out) == 0
        assert load_constants(out / "constants.txt").c_algebra == 0.123456789

    def test_grid_override_that_aliases_the_mode_exits_3(self, tmp_path, capsys):
        # mode 2,2,1 is resolved on the config's 8-grid but not on a 4-grid
        cfg = make_cfg(tmp_path)
        assert run_scenario(str(cfg), tmp_path / "out", grid_n=4) == 3
        assert "initial.mode: mode 2,2,1 needs every |n_i| < 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mismatched_constants_grid_exits_3(self, tmp_path, constants_file, capsys):
        cfg = make_cfg(tmp_path, constants_file, **{"grid.n": "16"})
        assert run_scenario(str(cfg), tmp_path / "out") == 3
        assert "calibrated for n = 8" in capsys.readouterr().err


class TestSweep:
    def test_two_axes_ordered_product(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file)
        out = tmp_path / "sweep"
        code = sweep(
            str(cfg),
            ["params.omega=0.4,0.5", "initial.e_m0=0.05,0.1"],
            out, jobs=1,
        )
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "# toruswave-sweep-1"
        header = lines[1].split(",")
        assert header[:6] == [
            "point", "params.omega", "initial.e_m0",
            "exit_code", "all_passed", "t_max_empirical",
        ]
        assert header[6:] == list(CHECK_IDS)
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == [f"point-{i:03d}" for i in range(4)]
        assert [(r[1], r[2]) for r in rows] == [
            ("0.4", "0.05"), ("0.4", "0.1"), ("0.5", "0.05"), ("0.5", "0.1"),
        ]
        assert all(r[3] == "0" and r[4] == "true" for r in rows)
        for i in range(4):
            assert (out / f"point-{i:03d}" / "timeseries.csv").is_file()

    def test_parallel_matches_serial(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        axes = ["initial.e_m0=0.05,0.1"]
        assert sweep(str(cfg), axes, serial, jobs=1) == 0
        assert sweep(str(cfg), axes, parallel, jobs=2) == 0
        assert (serial / "summary.csv").read_bytes() == (
            parallel / "summary.csv"
        ).read_bytes()

    def test_single_point_matches_plain_run(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file)
        run_out = tmp_path / "run"
        sweep_out = tmp_path / "sweep"
        assert run_scenario(str(cfg), run_out) == 0
        assert sweep(str(cfg), ["params.omega=0.5"], sweep_out, jobs=1) == 0
        assert (run_out / "timeseries.csv").read_bytes() == (
            sweep_out / "point-000" / "timeseries.csv"
        ).read_bytes()

    def test_invalid_axis_exits_3(self, tmp_path, constants_file, capsys):
        cfg = make_cfg(tmp_path, constants_file)
        assert sweep(str(cfg), ["solver.dt=0.1"], tmp_path / "out") == 3
        assert "not sweepable" in capsys.readouterr().err

    def test_grid_override_that_aliases_the_mode_exits_3(self, tmp_path, capsys):
        cfg = make_cfg(tmp_path)
        assert sweep(str(cfg), ["params.omega=0.5"], tmp_path / "out", grid_n=4) == 3
        assert "initial.mode: mode 2,2,1 needs every |n_i| < 2" in capsys.readouterr().err

    def test_three_axes_rejected(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file)
        axes = ["params.omega=0.5", "initial.e_m0=0.05", "source.amplitude=0"]
        assert sweep(str(cfg), axes, tmp_path / "out") == 3

    def test_continues_past_failing_points(self, tmp_path, constants_file):
        cfg = make_cfg(tmp_path, constants_file)
        out = tmp_path / "sweep"
        code = sweep(str(cfg), ["source.amplitude=0.001,50"], out, jobs=1)
        assert code == 1
        lines = (out / "summary.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2
        assert rows[0][2] == "0"
        assert rows[1][2] == "1"
        assert (out / "point-001" / "report.txt").is_file()


class TestMainEntry:
    def test_run_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "zero", "--out", str(out)]) == 0
        assert (out / "report.txt").is_file()

    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "toruswave", "run", "zero",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0
        assert "all_passed = true" in result.stdout

    def test_grid_flag_that_aliases_the_mode_exits_3(self, tmp_path, capsys):
        cfg = make_cfg(tmp_path)
        assert main(["run", str(cfg), "--grid", "4", "--out", str(tmp_path / "out")]) == 3
        assert "initial.mode" in capsys.readouterr().err

    def test_sweep_requires_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "zero"])


# Constants with fixed digits, so the golden echoes below pin the echo and
# not the last bits of a calibration.
GOLDEN_CONSTANTS = """\
format = toruswave-constants-1
grid_n = 8
m = 3
seed = 2024
n_fields = 36
safety = 1.5
c_sobolev = 0.20896518005695008
c_algebra = 0.13098745194911449
c_moser_1 = 1.4847293127201198
c_moser_2 = 1.4847897613650944
c_moser_3 = 1.4850315805808649
"""

GOLDEN_DIR = Path(__file__).parent / "golden"

# case -> (bundled scenario name or config text, extra command-line arguments)
GOLDEN_CASES = {
    "flagship-grid8": ("flagship", ["--grid", "8"]),
    "zero": ("zero", []),
    "coefficients": ("""\
format = toruswave-scenario-1
name = golden-coefficients
grid.n = 8
params.omega = 0.5
params.kappa = 0.3
params.mu = 1
source.preset = single-mode
source.amplitude = 0.001
initial.preset = coefficients
initial.part = displacement
initial.u0_coeffs = 1,0,0,0.01,0;  0,2,-1, 0.005 ,-0.002
initial.u1_coeffs = 0,0,1,0,0.02
initial.e_m0 = 0.04
solver.dt = 0.1
solver.t_end = 1
""", []),
    "k-eos-explicit": ("""\
format = toruswave-scenario-1
name = golden-k-eos
grid.n = 8
params.omega = 0.5
params.k_eos = 0.66666666666666663
params.kappa = 0.25
params.mu = 0.5
params.m = 3
source.kind = analytic-preset
source.preset = band
source.amplitude = budget:0.25
source.sigma = cos
source.sigma_rate = 0.75
source.seed = 11
source.rng = pcg64
initial.preset = single-mode
initial.part = displacement
initial.mode = 1, -2, 0
initial.e_m0 = 0.03
solver.dt = 0.05
solver.t_end = 1
solver.sample_every = 3
""", []),
    "bootstrap-explicit": ("""\
format = toruswave-scenario-1
name = golden-bootstrap
grid.n = 8
params.omega = 0.4
params.k_eos = 0.6
source.preset = bump
source.amplitude = 0.0005
initial.preset = bump
initial.e_m0 = 0.02
solver.dt = 0.1
solver.t_end = 2
solver.dealias = false
bootstrap.t1 = 2.5
bootstrap.eps_prime = 0.1
bootstrap.delta = 0.06
bootstrap.delta_prime = 0.2
bootstrap.c_delta = 3
""", []),
}


def golden_echo(case, tmp_path):
    """resolved.cfg of one golden case, its output directory replaced by <out>.

    The constants come from $TORUSWAVE_CONSTANTS, which the caller points at
    a file holding GOLDEN_CONSTANTS.
    """
    ref, extra = GOLDEN_CASES[case]
    if "\n" in ref:
        config = tmp_path / f"{case}.cfg"
        config.write_text(ref)
        ref = str(config)
    out = tmp_path / f"{case}-out"
    main(["run", ref, "--out", str(out)] + extra)
    text = (out / "resolved.cfg").read_text()
    return text.replace(str((out / "constants.txt").resolve()), "<out>/constants.txt")


@pytest.fixture
def golden_constants(tmp_path, monkeypatch):
    path = tmp_path / "golden-constants.txt"
    path.write_text(GOLDEN_CONSTANTS)
    monkeypatch.setenv(CONSTANTS_ENV, str(path))
    return path


class TestGoldenEcho:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_echo_is_byte_identical(self, tmp_path, golden_constants, case):
        expected = (GOLDEN_DIR / f"{case}.cfg").read_text()
        assert golden_echo(case, tmp_path) == expected


# key -> (malformed value, or None to leave the key out; other lines to set;
# the exact message, pinned as the schema has always worded it).  "{tmp}"
# stands for the test directory.
MALFORMED = {
    "format": ("toruswave-scenario-0", {},
               "format: expected 'toruswave-scenario-1', got 'toruswave-scenario-0'"),
    "name": (None, {}, "missing required key 'name'"),
    "grid.n": ("eight", {}, "grid.n: expected an integer, got 'eight'"),
    "params.omega": ("half", {}, "params.omega: expected a number, got 'half'"),
    "params.k_eos": ("two-thirds", {},
                     "params.k_eos: expected a number, got 'two-thirds'"),
    "params.kappa": ("slow", {}, "params.kappa: expected a number, got 'slow'"),
    "params.mu": ("weak", {"params.kappa": "0.25"},
                  "params.mu: expected a number, got 'weak'"),
    "params.m": ("three", {}, "params.m: expected an integer, got 'three'"),
    "source.kind": ("grid-samples", {},
                    "source.kind: expected one of analytic-preset; got 'grid-samples'"),
    "source.preset": ("vortex", {},
                      "source.preset: expected one of uniform, single-mode, bump, band; "
                      "got 'vortex'"),
    "source.amplitude": ("lots", {}, "source.amplitude: expected a number, got 'lots'"),
    "source.sigma": ("sin", {}, "source.sigma: expected one of const, cos; got 'sin'"),
    "source.sigma_rate": ("fast", {}, "source.sigma_rate: expected a number, got 'fast'"),
    "source.seed": ("1.5", {}, "source.seed: expected an integer, got '1.5'"),
    "source.rng": ("mt19937", {}, "source.rng: expected one of pcg64; got 'mt19937'"),
    "initial.preset": ("random", {},
                       "initial.preset: expected one of zero, single-mode, bump, "
                       "coefficients; got 'random'"),
    "initial.part": ("both", {},
                     "initial.part: expected one of velocity, displacement; got 'both'"),
    "initial.mode": ("1,2", {}, "initial.mode: expected n1,n2,n3, got '1,2'"),
    "initial.e_m0": ("big", {}, "initial.e_m0: expected a number, got 'big'"),
    "initial.u0_coeffs": ("1,0,0,0.01", {"initial.preset": "coefficients"},
                          "initial.u0_coeffs: expected n1,n2,n3,re,im per entry, "
                          "got '1,0,0,0.01'"),
    "initial.u1_coeffs": ("1,0,0,x,0", {"initial.preset": "coefficients"},
                          "initial.u1_coeffs: malformed entry '1,0,0,x,0'"),
    "solver.dt": ("small", {}, "solver.dt: expected a number, got 'small'"),
    "solver.t_end": ("later", {}, "solver.t_end: expected a number, got 'later'"),
    "solver.sample_every": ("often", {},
                            "solver.sample_every: expected an integer, got 'often'"),
    "solver.dealias": ("yes", {}, "solver.dealias: expected true or false, got 'yes'"),
    "bootstrap.t1": ("soon", {}, "bootstrap.t1: expected a number or 'auto', got 'soon'"),
    "bootstrap.eps_prime": ("tiny", {},
                            "bootstrap.eps_prime: expected a number or 'auto', got 'tiny'"),
    "bootstrap.delta": ("wide", {}, "bootstrap.delta: expected a number or 'auto', got 'wide'"),
    "bootstrap.delta_prime": ("low", {},
                              "bootstrap.delta_prime: expected a number or 'auto', got 'low'"),
    "bootstrap.c_delta": ("large", {},
                          "bootstrap.c_delta: expected a number or 'auto', got 'large'"),
    "constants.path": ("{tmp}/missing.txt", {},
                       "constants: [Errno 2] No such file or directory: '{tmp}/missing.txt'"),
}


def malformed_message(tmp_path, constants_path, key):
    """The ConfigError text for BASE_LINES with ``key`` malformed as in MALFORMED."""
    value, others, _ = MALFORMED[key]
    lines = {k: v.split(" = ", 1)[1] for k, v in BASE_LINES.items()}
    lines["constants.path"] = str(constants_path)
    lines.update(others)
    if value is None:
        lines.pop(key)
    else:
        lines[key] = value.replace("{tmp}", str(tmp_path))
    config = tmp_path / "malformed.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    with pytest.raises(ConfigError) as err:
        build_scenario(load_config(str(config)))
    return str(err.value)


class TestKeyTable:
    @pytest.mark.parametrize("key", list(cli._KEYS))
    def test_malformed_value_message(self, tmp_path, golden_constants, key):
        expected = MALFORMED[key][2].replace("{tmp}", str(tmp_path))
        assert malformed_message(tmp_path, golden_constants, key) == expected

    def test_old_resolved_files_rerun(self, tmp_path, golden_constants):
        # source.kind and source.rng stay accepted, so every echo is a config
        for case in GOLDEN_CASES:
            text = (GOLDEN_DIR / f"{case}.cfg").read_text()
            entries = parse_config(text.replace("<out>/constants.txt", str(golden_constants)))
            assert build_scenario(entries).echo["source.kind"] == "analytic-preset"


# flagship at grid.n = 8 and t_end = 2 with some keys set (None drops one):
# a non-finite number, or a run shorter than one step or of no finite step
# count, is a config error
REJECTED_NUMBERS = {
    "amplitude-inf": ({"source.amplitude": "inf"}, [], "source.amplitude: 'inf' is not finite"),
    "amplitude-nan": ({"source.amplitude": "nan"}, [], "source.amplitude: 'nan' is not finite"),
    "budget-inf": ({"source.amplitude": "budget:inf"}, [],
                   "source.amplitude: 'budget:inf' is not finite"),
    "e_m0-inf": ({"initial.e_m0": "inf"}, [], "initial.e_m0: 'inf' is not finite"),
    "sigma-rate-nan": ({"source.sigma": "cos", "source.sigma_rate": "nan"}, [],
                       "source.sigma_rate: 'nan' is not finite"),
    "t1-inf": ({"bootstrap.t1": "inf"}, [], "bootstrap.t1: 'inf' is not finite"),
    "coefficient-inf": (
        {"initial.preset": "coefficients", "initial.u0_coeffs": "1,0,0,inf,0",
         "initial.mode": None, "initial.e_m0": None}, [],
        "initial.u0_coeffs: entry '1,0,0,inf,0' is not finite",
    ),
    "dt-flag-inf": ({}, ["--dt", "inf"], "solver.dt: 'inf' is not finite"),
    "dt-flag-nan": ({}, ["--dt", "nan"], "solver.dt: 'nan' is not finite"),
    "zero-steps": ({"solver.dt": "1e300"}, [],
                   "solver: t_end = 2.0 is shorter than one step of dt = 1e+300"),
    "steps-inf": ({"solver.dt": "1e-310"}, [],
                  "solver: t_end = 2.0 over dt = 1e-310 is not a finite number of steps"),
}


class TestRejectedNumbers:
    @pytest.mark.parametrize("case", sorted(REJECTED_NUMBERS))
    def test_exits_3_naming_key_and_value(self, tmp_path, golden_constants, capsys, case):
        changes, flags, message = REJECTED_NUMBERS[case]
        entries = dict(load_config("flagship"), **{"grid.n": "8", "solver.t_end": "2"})
        entries.update(changes)
        config = tmp_path / "config.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in entries.items() if v is not None))
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)] + flags) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()
