"""Config parsing, artifact layout, exit codes, and sweep behavior."""

import dataclasses
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from toruswave import cli, fields
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
from toruswave.estimates import epsilon_budgets, forcing_constant, h_threshold
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


def with_constant(tmp_path, constants_file, key, value):
    """A copy of ``constants_file`` whose ``key`` line reads ``value``."""
    lines = [
        f"{key} = {value}" if line.startswith(f"{key} =") else line
        for line in constants_file.read_text().splitlines()
    ]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    return bad


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
        assert bp.c_delta == forcing_constant(
            e0, 0.5, scenario.params.mu, 3,
            constants.c_sobolev, constants.c_algebra, constants.c_moser,
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

    @pytest.mark.parametrize(
        "key, value", [("c_moser_2", "nan"), ("c_algebra", "inf"), ("safety", "0"), ("c_sobolev", "-inf")]
    )
    def test_constant_not_finite_and_positive_exits_3(
        self, tmp_path, constants_file, capsys, key, value
    ):
        # a NaN c_moser_2 once passed every check: max() skips it in fractional_constant
        bad = with_constant(tmp_path, constants_file, key, value)
        cfg = make_cfg(tmp_path, bad)
        assert run_scenario(str(cfg), tmp_path / "out") == 3
        assert f"{key} must be a finite number > 0, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, kind",
        [("c_algebra", "abc", "float"), ("grid_n", "8.0", "int"), ("m", "three", "int")],
    )
    def test_constant_that_does_not_parse_names_file_and_key(
        self, tmp_path, constants_file, capsys, key, value, kind
    ):
        # float() and int() errors once reached the user without either
        bad = with_constant(tmp_path, constants_file, key, value)
        cfg = make_cfg(tmp_path, bad)
        assert run_scenario(str(cfg), tmp_path / "out") == 3
        assert f"{bad}: {key} is not a valid {kind}: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_order_above_the_constants_exits_3_before_the_weights(
        self, tmp_path, constants_file, capsys, monkeypatch
    ):
        # the initial energy would build norm_weights(8, 80), about 1 s of
        # work cubic in m; the constants file (m <= 3) refuses the run first
        orders = []
        symbol_weight = fields._symbol_weight

        def recording(n, m, *args, **kwargs):
            orders.append(m)
            return symbol_weight(n, m, *args, **kwargs)

        monkeypatch.setattr(fields, "_symbol_weight", recording)
        cfg = make_cfg(tmp_path, constants_file, **{"params.m": "80"})
        assert run_scenario(str(cfg), tmp_path / "out") == 3
        assert "m <= 3; refusing a run at n = 8, m = 80" in capsys.readouterr().err
        assert 80 not in orders


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
        # one batch of three against batches of two and one: every file of
        # every point is the same, resolved.cfg up to its own constants path
        cfg = make_cfg(tmp_path, constants_file)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        axes = ["initial.e_m0=0.05,0.1,0.2"]
        assert sweep(str(cfg), axes, serial, jobs=1) == 0
        assert sweep(str(cfg), axes, parallel, jobs=2) == 0
        assert (serial / "summary.csv").read_bytes() == (
            parallel / "summary.csv"
        ).read_bytes()
        for i in range(3):
            point = f"point-{i:03d}"
            for name in POINT_FILES:
                assert (serial / point / name).read_bytes() == (
                    parallel / point / name
                ).read_bytes(), (point, name)
            echo = read_echo(serial / point)
            assert echo.pop("constants.path") == str((serial / point / "constants.txt").resolve())
            assert read_echo(parallel / point) == dict(
                echo, **{"constants.path": str((parallel / point / "constants.txt").resolve())}
            )

    @pytest.mark.parametrize("cpus, workers", [({0}, None), ({0, 1}, 2), (None, None)])
    def test_default_jobs_follow_the_affinity(
        self, tmp_path, constants_file, monkeypatch, cpus, workers
    ):
        # the CPUs this process may run on, not the machine's (as under
        # `taskset -c 0`); 1 where the platform has no affinity call
        if cpus is None:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        pools = []

        class InlinePool:
            def __init__(self, processes):
                pools.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, items):
                return [function(item) for item in items]

        monkeypatch.setattr(cli, "Pool", InlinePool)
        cfg = make_cfg(tmp_path, constants_file)
        assert sweep(str(cfg), ["initial.e_m0=0.05,0.1,0.2"], tmp_path / "sweep") == 0
        assert pools == ([] if workers is None else [workers])

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

    def test_overflowing_initial_data_is_a_config_error_of_its_point(
        self, tmp_path, constants_file, capsys
    ):
        # scaling u_t = 1e-150 cos(2 x1 + 2 x2 + x3) to E_m = 1e200 overflows;
        # that point exits 3 and the sweep still writes its summary
        cfg = make_cfg(
            tmp_path, constants_file, drop=("initial.mode",),
            **{"initial.preset": "coefficients", "initial.u1_coeffs": "2,2,1,1e-150,0"},
        )
        out = tmp_path / "sweep"
        assert sweep(str(cfg), ["initial.e_m0=0.05,1e200"], out, jobs=1) == 3
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[2:]]
        assert [(r[1], r[2]) for r in rows] == [("0.05", "0"), ("1e200", "3")]
        assert "point-001: config error: initial.e_m0: the initial data overflow" in (
            capsys.readouterr().err
        )
        assert not (out / "point-001").exists()


POINT_FILES = ("timeseries.csv", "report.txt", "report.csv", "constants.txt")


class TestBatchedSweep:
    """The points of one worker share one batched loop; each must come out as
    its resolved.cfg does when run alone."""

    def test_every_point_matches_its_resolved_cfg(self, tmp_path, constants_file):
        # per-point mu (K) and kappa; e_m0 = 40 breaks down part way, 80 at t = 0
        cfg = make_cfg(
            tmp_path, constants_file, drop=("initial.mode",),
            **{
                "initial.preset": "coefficients",
                "initial.u0_coeffs": "1,0,0,0.3,0",
                "initial.u1_coeffs": "1,0,0,1,0",
                "bootstrap.c_delta": "1",
            },
        )
        out = tmp_path / "sweep"
        axes = ["params.k_eos=0.6,0.8", "initial.e_m0=0.05,40,80"]
        assert sweep(str(cfg), axes, out, jobs=1) == 2
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[2:]]
        assert [r[3] for r in rows] == ["1", "2", "2"] * 2
        for i in range(6):
            point = out / f"point-{i:03d}"
            alone = tmp_path / f"alone-{i}"
            assert run_scenario(str(point / "resolved.cfg"), alone) == int(rows[i][3])
            for name in ("timeseries.csv", "report.txt", "report.csv"):
                assert (point / name).read_bytes() == (alone / name).read_bytes(), (i, name)
        # the breakdowns the batch carries: part way with samples, and at t = 0 without
        for i, at_start in ((1, False), (2, True), (4, False), (5, True)):
            report = (out / f"point-{i:03d}" / "report.txt").read_text()
            assert ("breakdown = t = 0: " in report) == at_start
            samples = (out / f"point-{i:03d}" / "timeseries.csv").read_text().splitlines()[2:]
            assert (samples == []) == at_start


class TestEveryConfigEndsInAnExitCode:
    """Configs that once ended in a traceback or a floating-point warning."""

    def coefficients(self, tmp_path, constants_file, drop=(), **overrides):
        return make_cfg(
            tmp_path, constants_file, drop=("initial.mode", "initial.e_m0", *drop),
            **{"initial.preset": "coefficients", **overrides},
        )

    def test_trajectory_without_samples_skips_every_check(self, tmp_path, constants_file):
        # 1 + 2 cos(x1) < 0 at t = 0: the run breaks down before its first sample
        cfg = self.coefficients(
            tmp_path, constants_file,
            **{"initial.u0_coeffs": "1,0,0,2,0", "bootstrap.c_delta": "1"},
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_scenario(str(cfg), out) == 2
        report = (out / "report.txt").read_text()
        assert "breakdown = t = 0: 1 + u reached" in report
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[c, "SKIP"] for c in CHECK_IDS]
        assert all(row.endswith(",no samples") for row in rows)
        assert (out / "timeseries.csv").read_text().count("\n") == 2  # format and header

    def test_integer_power_overflow_is_a_breakdown(self, tmp_path, constants_file):
        # (1 + 1e110 cos x1)^3 overflows at t = 0
        cfg = self.coefficients(
            tmp_path, constants_file, drop=("params.k_eos",),
            **{"params.kappa": "0.5", "params.mu": "3", "initial.u0_coeffs": "1,0,0,1e110,0",
               "bootstrap.c_delta": "1"},
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_scenario(str(cfg), out) == 2
        assert (
            "breakdown = t = 0: (1 + u)^mu overflows at t = 0: max |1 + u| = 1e+110, mu = 3"
            in (out / "report.txt").read_text()
        )

    def test_overflowing_initial_energy_is_a_config_error(self, tmp_path, constants_file, capsys):
        # finite data whose E_m overflows: squaring 1e200 in the spectral power
        cfg = self.coefficients(tmp_path, constants_file, **{"initial.u0_coeffs": "1,0,0,1e200,0"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_scenario(str(cfg), tmp_path / "out") == 3
        assert "initial.u0_coeffs: the initial energy E_m overflows" in capsys.readouterr().err

    def test_energy_whose_omega_squared_overflows_is_a_config_error(
        self, tmp_path, constants_file, capsys
    ):
        # the Python float omega^2 = 1e400 of the energy density raises OverflowError
        cfg = self.coefficients(
            tmp_path, constants_file,
            **{"params.omega": "1e200", "params.k_eos": "0.5", "source.amplitude": "0",
               "initial.u0_coeffs": "1,0,0,0.5,0", "solver.t_end": "0.55"},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_scenario(str(cfg), tmp_path / "out") == 3
        assert "initial.u0_coeffs: the initial energy E_m overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("k_eos, mu", [("1e-300", "-1e+300"), ("1e-12", "-1e+12")])
    def test_overflowing_auto_c_delta_is_a_config_error(self, tmp_path, capsys, k_eos, mu):
        # mu ~ -1/K: the power (1 - delta')^(mu - 1) of the composition constant overflows
        constants = tmp_path / "constants4.txt"
        save_constants(calibrate(GridSpec(4), 3, seed=2024, n_fields=4), constants)
        cfg = make_cfg(
            tmp_path, constants, drop=("initial.mode", "initial.e_m0"),
            **{"grid.n": "4", "params.k_eos": k_eos, "source.amplitude": "0",
               "initial.preset": "zero", "solver.dt": "0.1", "solver.t_end": "2.8"},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_scenario(str(cfg), tmp_path / "out") == 3
        assert capsys.readouterr().err == (
            f"config error: bootstrap.c_delta: the auto value overflows at mu = {mu}\n"
        )

    def test_force_whose_norm_overflows_is_a_breakdown(self, tmp_path, constants_file):
        # F = 1e200-scale cos(x1) is finite, but its H^m norm squares past float range
        cfg = make_cfg(
            tmp_path, constants_file, drop=("params.k_eos", "initial.mode", "initial.e_m0"),
            **{"params.kappa": "0.3", "params.mu": "2", "source.preset": "single-mode",
               "source.amplitude": "1e200", "initial.preset": "zero", "solver.dt": "0.1",
               "solver.t_end": "0.7"},
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_scenario(str(cfg), out) == 2
        report = (out / "report.txt").read_text()
        assert "breakdown = t = 0: the diagnostics overflow at t = 0: f_hm" in report
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[c, "SKIP"] for c in CHECK_IDS]

    def test_step_that_overflows_is_a_breakdown(self, tmp_path, constants_file):
        # F(0) = a(x) ~ 1e148 cos(x1) is finite and so are its norms; the
        # predictor takes u to about dt^2 F / 2, where (1 + u)^2 is still finite
        # but a (1 + u)^2 overflows, so the first step leaves the state non-finite
        cfg = make_cfg(
            tmp_path, constants_file, drop=("params.k_eos", "initial.mode", "initial.e_m0"),
            **{"params.kappa": "0.3", "params.mu": "2", "source.preset": "single-mode",
               "source.amplitude": "1e150", "initial.preset": "zero", "solver.dt": "0.1",
               "solver.t_end": "0.5", "bootstrap.c_delta": "1"},
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_scenario(str(cfg), out) == 2
        assert (
            "breakdown = t = 0.10000000000000001: state became non-finite at step 1 (t = 0.1)"
            in (out / "report.txt").read_text()
        )


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
        # a command-line error exits 3, as a config error does: 2 is a breakdown
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "zero"])
        assert exc.value.code == 3
        assert "--axis" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_sweep_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "zero", "--axis", "params.omega=0.5", f"--jobs={jobs}",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 3
        assert f"--jobs: expected at least 1 worker process, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["run", "flagship", "--grid", "x"], ["run"]],
                             ids=["grid-not-an-integer", "no-config"])
    def test_run_command_line_error_exits_3(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "usage: toruswave run" in capsys.readouterr().err


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
        # source.kind and source.rng stay accepted, so every echo is a config;
        # an echo that still states the retired bootstrap.delta and
        # bootstrap.delta_prime, as every resolved.cfg once did, resolves alike
        for case in GOLDEN_CASES:
            text = (GOLDEN_DIR / f"{case}.cfg").read_text()
            text = text.replace("<out>/constants.txt", str(golden_constants))
            echo = build_scenario(parse_config(text)).echo
            assert echo["source.kind"] == "analytic-preset"
            retired = "bootstrap.delta = 0.1\nbootstrap.delta_prime = 0.9\nbootstrap.c_delta"
            old = text.replace("bootstrap.c_delta", retired)
            assert old.count("bootstrap.delta_prime = 0.9") == 1
            assert build_scenario(parse_config(old)).echo == echo

    def test_resolved_file_of_the_float_exponent_rule_reruns_its_exponents(
        self, tmp_path, golden_constants
    ):
        # K = 0.66666666666666663 once resolved to (2K - 1)/K and (1 - K) omega/K
        # in floats; such a file keeps its explicit exponents, which pass the
        # cross-check against the exact ones (0.25, 0.5)
        text = (GOLDEN_DIR / "flagship-grid8.cfg").read_text()
        old = text.replace("params.kappa = 0.25\n", "params.kappa = 0.25000000000000006\n")
        old = old.replace("params.mu = 0.5\n", "params.mu = 0.49999999999999989\n")
        assert old.count("0.25000000000000006") == old.count("0.49999999999999989") == 1
        scenario = build_scenario(parse_config(
            old.replace("<out>/constants.txt", str(golden_constants))))
        assert (scenario.params.kappa, scenario.params.mu) == (0.25000000000000006,
                                                               0.49999999999999989)
        assert scenario.echo["params.mu"] == "0.49999999999999989"


# Keys whose value no two runs can differ in, each with its reason.
UNREAD_KEYS = {
    "format": "one accepted value, the file format's name",
    "name": "a label, written to report.txt only",
    "constants.path": "where the constants come from; the same file gives the same run",
    "source.kind": "one accepted value, stated so resolved.cfg names it",
    "source.rng": "one accepted value, stated so resolved.cfg names it",
}

# key -> (the base lines both runs set, None dropping one; the value the second
# run gives the key).  A key that acts only under another setting gets that
# setting in its base.
COEFFICIENTS = {"initial.preset": "coefficients", "initial.mode": None, "initial.e_m0": None,
                "initial.u0_coeffs": "1,0,0,0.01,0", "initial.u1_coeffs": "2,1,0,0.02,0"}
EXPONENTS = {"params.k_eos": None, "params.kappa": "0.25", "params.mu": "0.5"}
BUDGET = {"source.amplitude": "budget:0.5"}
KEY_EFFECTS = {
    "grid.n": ({"constants.path": None}, "10"),  # both calibrate on the fly
    "params.omega": ({}, "0.4"),
    "params.k_eos": ({}, "0.6"),
    "params.kappa": (EXPONENTS, "0.3"),
    "params.mu": (EXPONENTS, "1"),
    "params.m": ({}, "2"),
    "source.preset": ({}, "bump"),
    "source.amplitude": ({}, "0.002"),
    "source.sigma": ({}, "cos"),
    "source.sigma_rate": ({"source.sigma": "cos"}, "2"),
    "source.seed": ({"source.preset": "band"}, "1"),
    "initial.preset": ({}, "bump"),
    "initial.part": ({}, "displacement"),
    "initial.mode": ({}, "1,0,0"),
    "initial.e_m0": ({}, "0.04"),
    "initial.u0_coeffs": (COEFFICIENTS, "1,0,0,0.02,0"),
    "initial.u1_coeffs": (COEFFICIENTS, "2,1,0,0.01,0"),
    "solver.dt": ({}, "0.1"),
    "solver.t_end": ({}, "0.6"),
    "solver.sample_every": ({}, "1"),
    "solver.dealias": ({}, "false"),
    "bootstrap.t1": ({}, "1.5"),
    # the runs end before T1, where the improved-estimates check would read
    # eps' and c_delta, so they act through the budget that scales F
    "bootstrap.eps_prime": (BUDGET, "0.1"),
    "bootstrap.c_delta": (BUDGET, "3"),
}


class TestEveryKeyActs:
    @pytest.mark.parametrize("key", [key for key in cli._KEYS if key not in UNREAD_KEYS])
    def test_changing_the_key_changes_the_outputs(
        self, tmp_path, constants_file, monkeypatch, key
    ):
        # a key that no output reads is surface without a use
        assert key in KEY_EFFECTS, f"{key} has no case that shows what it changes"
        monkeypatch.delenv(CONSTANTS_ENV, raising=False)
        base, value = KEY_EFFECTS[key]
        lines = {k: v.split(" = ", 1)[1] for k, v in BASE_LINES.items()}
        lines.update({"solver.t_end": "0.4", "solver.sample_every": "2",
                      "constants.path": str(constants_file), **base})
        outputs = []
        for run in ({}, {key: value}):
            config = tmp_path / f"run{len(outputs)}.cfg"
            entries = {k: v for k, v in {**lines, **run}.items() if v is not None}
            config.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
            out = tmp_path / f"out{len(outputs)}"
            assert main(["run", str(config), "--out", str(out)]) in (0, 1)
            outputs.append([(out / f).read_bytes() for f in ("timeseries.csv", "report.csv")])
        assert outputs[0] != outputs[1]


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
    # finite entries whose sum overflows at the origin
    "coefficients-overflow": (
        {"initial.preset": "coefficients", "initial.u0_coeffs": "1,0,0,1e308,0; 0,1,0,1e308,0",
         "initial.mode": None, "initial.e_m0": None}, [],
        "initial.u0_coeffs: the initial data overflow: "
        "field has a non-finite value at grid index (0, 0, 0)",
    ),
    "dt-flag-inf": ({}, ["--dt", "inf"], "solver.dt: 'inf' is not finite"),
    "dt-flag-nan": ({}, ["--dt", "nan"], "solver.dt: 'nan' is not finite"),
    "zero-steps": ({"solver.dt": "1e300"}, [],
                   "solver: t_end = 2.0 is shorter than one step of dt = 1e+300"),
    "steps-inf": ({"solver.dt": "1e-310"}, [],
                  "solver: t_end = 2.0 over dt = 1e-310 is not a finite number of steps"),
    # numpy's generators take no negative seed
    "seed-negative": ({"source.preset": "band", "source.seed": "-1"}, [],
                      "source: source seed must be >= 0, got -1"),
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
