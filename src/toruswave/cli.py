"""Scenario runner: parse a config, simulate, verify, write artifacts.

A scenario file is line-based ``key = value`` text.  Blank lines and lines
starting with ``#`` are skipped; section structure lives in dotted key
prefixes, so the format has no nesting and no quoting rules.  The schema:

    format                  toruswave-scenario-1 (required)
    name                    scenario label used in reports (required)
    grid.n                  points per axis, even, >= 4 (required)
    params.omega            damping rate, in (0, 1) for the threshold algebra
    params.k_eos            equation-of-state index in (1/2, 1); sets kappa, mu
    params.kappa            forcing decay rate (give with mu if no k_eos)
    params.mu               nonlinearity exponent
    params.m                Sobolev order (default 3)
    source.kind             analytic-preset (the only kind here; default)
    source.preset           uniform | single-mode | bump | band
    source.amplitude        number >= 0, or budget:F for F * min(eps1, eps2)
    source.sigma            const | cos (default const)
    source.sigma_rate       rate for sigma = cos (default 1.0)
    source.seed             seed for the band preset (default 0)
    source.rng              pcg64 (the only generator; recorded in the echo)
    initial.preset          zero | single-mode | bump | coefficients
    initial.part            velocity | displacement (default velocity)
    initial.mode            n1,n2,n3 integers, not all zero (single-mode)
    initial.e_m0            target E_m(0); required for single-mode and bump
    initial.u0_coeffs       n1,n2,n3,re,im; ... (coefficients preset)
    initial.u1_coeffs       same, for the velocity field
                            (every mode and coefficient needs |n_i| < grid.n/2,
                            which the grid can represent without aliasing)
    solver.dt               time step (required)
    solver.t_end            final time, an integer number of steps (required)
    solver.sample_every     sampling stride in steps (default 1)
    solver.dealias          true | false (default true)
    bootstrap.t1            number, or auto = 1/omega
    bootstrap.eps_prime     number, or auto = h(t1)/2
    bootstrap.delta         number, or auto = E_m(0)/omega
    bootstrap.delta_prime   number, or auto = c_sobolev sqrt(2) E_m(0)
    bootstrap.c_delta       number, or auto from the calibrated constants
    constants.path          calibration file; else $TORUSWAVE_CONSTANTS,
                            else calibrate on the fly for this grid

``run`` writes into the output directory: timeseries.csv (the sampled
diagnostics), report.txt and report.csv (one verdict per check),
constants.txt (the calibration actually used), and resolved.cfg, the config
echoed with every auto value substituted at full precision; re-running
resolved.cfg reproduces timeseries.csv byte for byte.  Exit codes: 0 all
non-skipped checks pass, 1 a check failed, 2 the run broke down, 3 the
config is invalid (the message lists every unknown key).

``sweep`` varies one or two of params.omega, params.k_eos, source.amplitude,
initial.e_m0 over explicit value lists, runs each grid point (in parallel
with --jobs workers), writes per-point artifacts to point-NNN/ directories
and a summary.csv at the root, and exits with the worst per-point code.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .calibration import CalibratedConstants, calibrate, load_constants, save_constants
from .energy import modified_energy
from .estimates import BootstrapParams, epsilon_budgets, forcing_constant, h_threshold
from .fields import Field, GridSpec
from .solver import SolverConfig, Trajectory, simulate
from .source import ModelParams, SourceSpec
from .verify import ABS_TOL, VerificationReport, run_all

CONFIG_FORMAT = "toruswave-scenario-1"
TIMESERIES_FORMAT = "toruswave-timeseries-1"
SWEEP_FORMAT = "toruswave-sweep-1"
CONSTANTS_ENV = "TORUSWAVE_CONSTANTS"
CALIBRATION_SEED = 2024

SWEEP_AXES = ("params.omega", "params.k_eos", "source.amplitude", "initial.e_m0")

# run_all emits the checks in this fixed order; the sweep summary header
# relies on it so rows line up without re-reading report files
CHECK_IDS = (
    "energy_differential",
    "energy_integral",
    "bootstrap",
    "improved_estimates",
    "mean_mode",
    "asymptotics",
    "wirtinger_final",
    "algebra_final",
)

_SOURCE_PRESETS = ("uniform", "single-mode", "bump", "band")
_INITIAL_PRESETS = ("zero", "single-mode", "bump", "coefficients")
_PARTS = ("velocity", "displacement")

_SCHEMA = (
    "format",
    "name",
    "grid.n",
    "params.omega",
    "params.k_eos",
    "params.kappa",
    "params.mu",
    "params.m",
    "source.kind",
    "source.preset",
    "source.amplitude",
    "source.sigma",
    "source.sigma_rate",
    "source.seed",
    "source.rng",
    "initial.preset",
    "initial.part",
    "initial.mode",
    "initial.e_m0",
    "initial.u0_coeffs",
    "initial.u1_coeffs",
    "solver.dt",
    "solver.t_end",
    "solver.sample_every",
    "solver.dealias",
    "bootstrap.t1",
    "bootstrap.eps_prime",
    "bootstrap.delta",
    "bootstrap.delta_prime",
    "bootstrap.c_delta",
    "constants.path",
)


class ConfigError(ValueError):
    """A scenario file that cannot be turned into a runnable scenario."""


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def parse_config(text: str, origin: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings, with unknown and duplicate keys rejected."""
    entries: dict[str, str] = {}
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            problems.append(f"line {lineno}: unknown key {key!r}")
        elif key in entries:
            problems.append(f"line {lineno}: duplicate key {key!r}")
        else:
            entries[key] = value
    if problems:
        raise ConfigError(f"{origin}: " + "; ".join(problems))
    return entries


def load_config(ref: str) -> dict[str, str]:
    """Read a config by path, falling back to the bundled scenarios."""
    path = Path(ref)
    if path.is_file():
        return parse_config(path.read_text(), origin=str(path))
    bundled = resources.files(__package__) / "scenarios" / f"{ref}.cfg"
    if bundled.is_file():
        return parse_config(bundled.read_text(), origin=f"bundled scenario {ref!r}")
    raise ConfigError(f"no config file at {ref!r} and no bundled scenario of that name")


def _require(entries: dict[str, str], key: str) -> str:
    if key not in entries:
        raise ConfigError(f"missing required key {key!r}")
    return entries[key]


def _parse_float(entries: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(entries[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {entries[key]!r}") from None


def _parse_int(entries: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(entries[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {entries[key]!r}") from None


def _parse_bool(entries: dict[str, str], key: str, default: bool) -> bool:
    value = entries.get(key)
    if value is None:
        return default
    if value not in ("true", "false"):
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value == "true"


def _parse_choice(entries: dict[str, str], key: str, choices, default: str) -> str:
    value = entries.get(key, default)
    if value not in choices:
        raise ConfigError(f"{key}: expected one of {', '.join(choices)}; got {value!r}")
    return value


def _parse_auto(entries: dict[str, str], key: str) -> float | None:
    """'auto' (also the default when the key is absent) or an explicit number."""
    value = entries.get(key, "auto")
    if value == "auto":
        return None
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number or 'auto', got {value!r}") from None


def _parse_mode(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"initial.mode: expected n1,n2,n3, got {text!r}")
    try:
        n1, n2, n3 = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"initial.mode: expected integers, got {text!r}") from None
    if (n1, n2, n3) == (0, 0, 0):
        raise ConfigError("initial.mode: the zero mode has no oscillation to scale")
    return n1, n2, n3


def _parse_coeffs(text: str, key: str) -> list[tuple[int, int, int, float, float]]:
    coeffs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 5:
            raise ConfigError(f"{key}: expected n1,n2,n3,re,im per entry, got {chunk!r}")
        try:
            coeffs.append((int(parts[0]), int(parts[1]), int(parts[2]),
                           float(parts[3]), float(parts[4])))
        except ValueError:
            raise ConfigError(f"{key}: malformed entry {chunk!r}") from None
    if not coeffs:
        raise ConfigError(f"{key}: no entries")
    return coeffs


def _check_resolved(key: str, modes, grid: GridSpec) -> None:
    """Reject wavenumbers the grid cannot represent: each |n_i| must stay below n/2."""
    bound = grid.n // 2
    for mode in modes:
        if max(abs(k) for k in mode) >= bound:
            raise ConfigError(
                f"{key}: mode {','.join(str(k) for k in mode)} needs every |n_i| < {bound} "
                f"on grid.n = {grid.n}"
            )


def _coeff_values(grid: GridSpec, coeffs) -> np.ndarray:
    """Each entry adds re cos(n.x) + im sin(n.x); n = 0 gives a constant."""
    x1, x2, x3 = grid.coordinates()
    values = np.zeros(grid.shape)
    for n1, n2, n3, re_part, im_part in coeffs:
        phase = n1 * x1 + n2 * x2 + n3 * x3
        values = values + re_part * np.cos(phase) + im_part * np.sin(phase)
    return values


@dataclass
class Scenario:
    """A fully resolved run: fields built, every auto value substituted."""

    name: str
    grid: GridSpec
    params: ModelParams
    source: SourceSpec
    u0: Field
    u1: Field
    solver: SolverConfig
    bootstrap: BootstrapParams
    constants: CalibratedConstants
    echo: dict[str, str]


def _build_params(entries: dict[str, str]) -> ModelParams:
    omega = _parse_float(entries, "params.omega")
    m = _parse_int(entries, "params.m", 3)
    try:
        if "params.k_eos" in entries:
            k_eos = _parse_float(entries, "params.k_eos")
            if "params.kappa" in entries or "params.mu" in entries:
                # explicit exponents next to k_eos; the constructor cross-checks
                kappa = _parse_float(entries, "params.kappa")
                mu = _parse_float(entries, "params.mu")
                return ModelParams(omega=omega, kappa=kappa, mu=mu, k_eos=k_eos, m=m)
            return ModelParams.from_equation_of_state(k_eos, omega, m=m)
        kappa = _parse_float(entries, "params.kappa")
        mu = _parse_float(entries, "params.mu")
        return ModelParams(omega=omega, kappa=kappa, mu=mu, m=m)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from None


def _build_initial(
    entries: dict[str, str], grid: GridSpec, params: ModelParams
) -> tuple[Field, Field, dict[str, str]]:
    preset = _require(entries, "initial.preset")
    if preset not in _INITIAL_PRESETS:
        raise ConfigError(
            f"initial.preset: expected one of {', '.join(_INITIAL_PRESETS)}; got {preset!r}"
        )
    part = _parse_choice(entries, "initial.part", _PARTS, "velocity")
    zero = np.zeros(grid.shape)
    echo: dict[str, str] = {"initial.preset": preset}

    if preset == "zero":
        if _parse_float(entries, "initial.e_m0", 0.0) != 0.0:
            raise ConfigError("initial.e_m0: the zero preset has nothing to scale")
        return Field(grid, zero), Field(grid, zero.copy()), echo

    if preset == "coefficients":
        if "initial.u0_coeffs" not in entries and "initial.u1_coeffs" not in entries:
            raise ConfigError("coefficients preset needs initial.u0_coeffs or initial.u1_coeffs")
        u0_values, u1_values = zero, zero.copy()
        for key in ("initial.u0_coeffs", "initial.u1_coeffs"):
            if key not in entries:
                continue
            coeffs = _parse_coeffs(entries[key], key)
            _check_resolved(key, [c[:3] for c in coeffs], grid)
            if key.endswith("u0_coeffs"):
                u0_values = _coeff_values(grid, coeffs)
            else:
                u1_values = _coeff_values(grid, coeffs)
            echo[key] = "; ".join(
                f"{a},{b},{c},{_fmt(re_)},{_fmt(im_)}" for a, b, c, re_, im_ in coeffs
            )
        u0, u1 = Field(grid, u0_values), Field(grid, u1_values)
        if "initial.e_m0" in entries:
            target = _parse_float(entries, "initial.e_m0")
            if not target > 0.0:
                raise ConfigError(f"initial.e_m0 must be positive, got {target}")
            current = math.sqrt(modified_energy(u0, u1, params.omega, params.m))
            if current == 0.0:
                raise ConfigError("initial coefficients vanish, cannot scale to initial.e_m0")
            scale = target / current
            u0, u1 = Field(grid, scale * u0.values), Field(grid, scale * u1.values)
            echo["initial.e_m0"] = _fmt(target)
        return u0, u1, echo

    # single-mode and bump carry their size as a target initial energy
    target = _parse_float(entries, "initial.e_m0")
    if not target > 0.0:
        raise ConfigError(f"initial.e_m0 must be positive, got {target}")
    x1, x2, x3 = grid.coordinates()
    if preset == "single-mode":
        n1, n2, n3 = _parse_mode(_require(entries, "initial.mode"))
        _check_resolved("initial.mode", [(n1, n2, n3)], grid)
        shape = np.cos(n1 * x1 + n2 * x2 + n3 * x3) + np.zeros(grid.shape)
        echo["initial.mode"] = f"{n1},{n2},{n3}"
    else:
        bump = np.exp((np.cos(x1) + np.cos(x2) + np.cos(x3) - 3.0) / 0.49)
        shape = bump - bump.mean()  # the smallness hypotheses want zero-mean data
    if part == "velocity":
        u0, u1 = Field(grid, zero), Field(grid, shape)
    else:
        u0, u1 = Field(grid, shape), Field(grid, zero)
    scale = target / math.sqrt(modified_energy(u0, u1, params.omega, params.m))
    u0 = Field(grid, scale * u0.values)
    u1 = Field(grid, scale * u1.values)
    echo["initial.part"] = part
    echo["initial.e_m0"] = _fmt(target)
    return u0, u1, echo


def _resolve_constants(
    entries: dict[str, str], grid: GridSpec, m: int
) -> tuple[CalibratedConstants, str | None]:
    path = entries.get("constants.path") or os.environ.get(CONSTANTS_ENV)
    try:
        if path:
            constants = load_constants(path)
        else:
            constants = calibrate(grid, m, seed=CALIBRATION_SEED)
        constants.require_grid(grid, m)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"constants: {exc}") from None
    return constants, path


def build_scenario(entries: dict[str, str]) -> Scenario:
    """Resolve a parsed config into fields, parameters, and check inputs."""
    if entries.get("format") != CONFIG_FORMAT:
        raise ConfigError(
            f"format: expected {CONFIG_FORMAT!r}, got {entries.get('format')!r}"
        )
    name = _require(entries, "name")
    try:
        grid = GridSpec(_parse_int(entries, "grid.n"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid.n: {exc}") from None
    params = _build_params(entries)

    try:
        solver = SolverConfig(
            grid=grid,
            dt=_parse_float(entries, "solver.dt"),
            t_end=_parse_float(entries, "solver.t_end"),
            sample_every=_parse_int(entries, "solver.sample_every", 1),
            dealias=_parse_bool(entries, "solver.dealias", True),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None

    kind = _parse_choice(entries, "source.kind", ("analytic-preset",), "analytic-preset")
    preset = _parse_choice(entries, "source.preset", _SOURCE_PRESETS, "uniform")
    sigma = _parse_choice(entries, "source.sigma", ("const", "cos"), "const")
    sigma_rate = _parse_float(entries, "source.sigma_rate", 1.0)
    seed = _parse_int(entries, "source.seed", 0)
    rng = _parse_choice(entries, "source.rng", ("pcg64",), "pcg64")

    u0, u1, initial_echo = _build_initial(entries, grid, params)
    constants, constants_path = _resolve_constants(entries, grid, params.m)

    # auto bootstrap values follow the actual initial energy; all-zero data
    # gets a nominal unit energy so the trivial run still has finite bounds
    e_actual = math.sqrt(modified_energy(u0, u1, params.omega, params.m))
    e_check = e_actual if e_actual > 0.0 else 1.0

    t1 = _parse_auto(entries, "bootstrap.t1")
    eps_prime = _parse_auto(entries, "bootstrap.eps_prime")
    delta = _parse_auto(entries, "bootstrap.delta")
    delta_prime = _parse_auto(entries, "bootstrap.delta_prime")
    c_delta = _parse_auto(entries, "bootstrap.c_delta")
    try:
        if t1 is None:
            t1 = 1.0 / params.omega
        if eps_prime is None:
            eps_prime = 0.5 * h_threshold(params.omega, t1)
        if delta is None:
            delta = e_check / params.omega
        if c_delta is None or delta_prime is None:
            auto_c, _, auto_dp = forcing_constant(
                e_check, params.omega, params.mu, params.m,
                constants.c_sobolev, constants.c_algebra, constants.c_moser,
            )
            c_delta = auto_c if c_delta is None else c_delta
            delta_prime = auto_dp if delta_prime is None else delta_prime
        bootstrap = BootstrapParams(
            e_m0=e_check, delta=delta, delta_prime=delta_prime,
            t1=t1, eps_prime=eps_prime, c_delta=c_delta,
        )
    except ValueError as exc:
        raise ConfigError(f"bootstrap: {exc}") from None

    budget_error: str | None = None
    try:
        bootstrap.eps1, bootstrap.eps2 = epsilon_budgets(bootstrap, params.omega)
    except ValueError as exc:
        budget_error = str(exc)  # only fatal if the amplitude needs the budget

    raw_amplitude = entries.get("source.amplitude", "0")
    if raw_amplitude.startswith("budget:"):
        if budget_error is not None:
            raise ConfigError(f"source.amplitude: no budget to scale by ({budget_error})")
        try:
            fraction = float(raw_amplitude[len("budget:"):])
        except ValueError:
            raise ConfigError(
                f"source.amplitude: expected budget:F with F a number, got {raw_amplitude!r}"
            ) from None
        if fraction < 0.0:
            raise ConfigError(f"source.amplitude: budget fraction must be >= 0, got {fraction}")
        amplitude = fraction * min(bootstrap.eps1, bootstrap.eps2)
    else:
        amplitude = _parse_float(entries, "source.amplitude", 0.0)
    try:
        source = SourceSpec(
            kind=kind, amplitude=amplitude, preset=preset,
            sigma=sigma, sigma_rate=sigma_rate, seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from None

    echo: dict[str, str] = {
        "format": CONFIG_FORMAT,
        "name": name,
        "grid.n": str(grid.n),
        "params.omega": _fmt(params.omega),
        "params.kappa": _fmt(params.kappa),
        "params.mu": _fmt(params.mu),
        "params.m": str(params.m),
        "source.kind": kind,
        "source.preset": preset,
        "source.amplitude": _fmt(amplitude),
        "source.sigma": sigma,
        "source.sigma_rate": _fmt(sigma_rate),
        "source.seed": str(seed),
        "source.rng": rng,
        "solver.dt": _fmt(solver.dt),
        "solver.t_end": _fmt(solver.t_end),
        "solver.sample_every": str(solver.sample_every),
        "solver.dealias": "true" if solver.dealias else "false",
        "bootstrap.t1": _fmt(bootstrap.t1),
        "bootstrap.eps_prime": _fmt(bootstrap.eps_prime),
        "bootstrap.delta": _fmt(bootstrap.delta),
        "bootstrap.delta_prime": _fmt(bootstrap.delta_prime),
        "bootstrap.c_delta": _fmt(bootstrap.c_delta),
    }
    if params.k_eos is not None:
        echo["params.k_eos"] = _fmt(params.k_eos)
    echo.update(initial_echo)
    if constants_path:
        echo["constants.path"] = constants_path

    return Scenario(
        name=name, grid=grid, params=params, source=source, u0=u0, u1=u1,
        solver=solver, bootstrap=bootstrap, constants=constants, echo=echo,
    )


def write_echo(path: Path, echo: dict[str, str]) -> None:
    ordered = [f"{key} = {echo[key]}" for key in _SCHEMA if key in echo]
    path.write_text("\n".join(ordered) + "\n")


def write_timeseries(path: Path, trajectory: Trajectory, e_m0: float) -> None:
    buffer = io.StringIO()
    buffer.write(f"# {TIMESERIES_FORMAT}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["t", "Em", "Em_sq", "E_std_sq", "u_Hm", "ut_Hm", "F_Hm",
         "u_mean", "F_mean", "u_min", "bootstrap_ok"]
    )
    # same per-sample condition the bootstrap check scores, margin >= -tol
    threshold = e_m0**2 * (1.0 + ABS_TOL)
    for s in trajectory.samples:
        ok = 1 if 0.5 * s.u_hm**2 <= threshold else 0
        writer.writerow(
            [_fmt(s.t), _fmt(math.sqrt(s.e_m_sq)), _fmt(s.e_m_sq), _fmt(s.e_std_sq),
             _fmt(s.u_hm), _fmt(s.ut_hm), _fmt(s.f_hm), _fmt(s.u_mean),
             _fmt(s.f_mean), _fmt(s.u_min), ok]
        )
    path.write_text(buffer.getvalue())


def _execute(scenario: Scenario, out: Path) -> tuple[int, VerificationReport]:
    """Simulate, verify, and write the full artifact set for one scenario."""
    out.mkdir(parents=True, exist_ok=True)
    trajectory = simulate(
        scenario.u0, scenario.u1, scenario.params, scenario.source, scenario.solver
    )
    report = run_all(trajectory, scenario.bootstrap, scenario.constants, scenario.name)
    constants_file = out / "constants.txt"
    save_constants(scenario.constants, constants_file)
    echo = dict(scenario.echo)
    echo["constants.path"] = str(constants_file.resolve())
    write_echo(out / "resolved.cfg", echo)
    write_timeseries(out / "timeseries.csv", trajectory, scenario.bootstrap.e_m0)
    (out / "report.txt").write_text(report.to_text())
    (out / "report.csv").write_text(report.to_csv())
    if trajectory.breakdown is not None:
        return 2, report
    return (0 if report.all_passed() else 1), report


def _apply_overrides(entries, seed=None, dt=None, grid_n=None) -> dict[str, str]:
    entries = dict(entries)
    if seed is not None:
        entries["source.seed"] = str(seed)
    if dt is not None:
        entries["solver.dt"] = _fmt(dt)
    if grid_n is not None:
        entries["grid.n"] = str(grid_n)
    return entries


def run_scenario(config_ref: str, out_dir=None, *, seed=None, dt=None, grid_n=None) -> int:
    """Run one scenario end to end; returns the process exit code."""
    try:
        entries = _apply_overrides(load_config(config_ref), seed, dt, grid_n)
        scenario = build_scenario(entries)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    out = Path(out_dir) if out_dir else Path.cwd() / f"{scenario.name}-out"
    code, report = _execute(scenario, out)
    print(report.to_text(), end="")
    print(f"artifacts in {out}")
    return code


def _parse_axes(axis_args: list[str]) -> list[tuple[str, list[str]]]:
    axes = []
    for arg in axis_args:
        key, sep, values = arg.partition("=")
        if not sep:
            raise ConfigError(f"--axis: expected KEY=V1,V2,..., got {arg!r}")
        key = key.strip()
        if key not in SWEEP_AXES:
            raise ConfigError(
                f"--axis: {key!r} is not sweepable; pick from {', '.join(SWEEP_AXES)}"
            )
        points = [v.strip() for v in values.split(",") if v.strip()]
        if not points:
            raise ConfigError(f"--axis: no values for {key!r}")
        axes.append((key, points))
    if not 1 <= len(axes) <= 2:
        raise ConfigError(f"--axis: expected one or two axes, got {len(axes)}")
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ConfigError(f"--axis: {axes[0][0]!r} given twice")
    return axes


def _sweep_point(task) -> tuple[int, str | None, list[str]]:
    """Worker for one sweep point; module-level so a Pool can pickle it."""
    entries, out_dir, axis_keys = task
    axis_values = [entries.get(k, "") for k in axis_keys]
    try:
        scenario = build_scenario(entries)
    except ConfigError as exc:
        row = axis_values + ["3", "false", "none"] + [""] * len(CHECK_IDS)
        return 3, str(exc), row
    code, report = _execute(scenario, Path(out_dir))
    t_max = report.t_max_empirical
    row = axis_values + [
        str(code),
        str(report.all_passed()).lower(),
        "none" if t_max is None else _fmt(t_max),
    ]
    row += [r.status for r in report.results]
    return code, None, row


def sweep(
    config_ref: str, axis_args: list[str], out_dir=None,
    *, jobs=None, seed=None, dt=None, grid_n=None,
) -> int:
    """Run the cartesian product of one or two axes; returns the worst code."""
    try:
        axes = _parse_axes(axis_args)
        base = _apply_overrides(load_config(config_ref), seed, dt, grid_n)
        base_scenario = build_scenario(base)  # fail fast on config problems
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    root = Path(out_dir) if out_dir else Path.cwd() / f"{base_scenario.name}-sweep"
    root.mkdir(parents=True, exist_ok=True)
    # calibrate once for the whole sweep; the points load the file instead
    constants_file = root / "constants.txt"
    save_constants(base_scenario.constants, constants_file)

    axis_keys = [key for key, _ in axes]
    combos = itertools.product(*(points for _, points in axes))
    tasks = []
    for index, combo in enumerate(combos):
        entries = dict(base)
        entries["constants.path"] = str(constants_file.resolve())
        for key, value in zip(axis_keys, combo):
            entries[key] = value
        tasks.append((entries, str(root / f"point-{index:03d}"), axis_keys))

    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
        with Pool(processes=min(jobs, len(tasks))) as pool:
            outcomes = pool.map(_sweep_point, tasks)
    else:
        outcomes = [_sweep_point(task) for task in tasks]

    buffer = io.StringIO()
    buffer.write(f"# {SWEEP_FORMAT}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["point"] + axis_keys + ["exit_code", "all_passed", "t_max_empirical"]
        + list(CHECK_IDS)
    )
    worst = 0
    for index, (code, error, row) in enumerate(outcomes):
        worst = max(worst, code)
        point = f"point-{index:03d}"
        writer.writerow([point] + row)
        if error is not None:
            print(f"{point}: config error: {error}", file=sys.stderr)
            continue
        settings = " ".join(f"{k}={v}" for k, v in zip(axis_keys, row))
        print(f"{point}: {settings} exit={code}")
    (root / "summary.csv").write_text(buffer.getvalue())
    print(f"sweep summary in {root / 'summary.csv'}")
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="toruswave",
        description="Simulate damped torus waves and verify the decay estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="scenario file path or bundled scenario name")
        p.add_argument("--out", help="output directory (default: <name>-out)")
        p.add_argument("--seed", type=int, help="override source.seed")
        p.add_argument("--dt", type=float, help="override solver.dt")
        p.add_argument("--grid", type=int, help="override grid.n")

    run_p = sub.add_parser("run", help="run one scenario and verify it")
    common(run_p)

    sweep_p = sub.add_parser("sweep", help="run a one- or two-axis parameter sweep")
    common(sweep_p)
    sweep_p.add_argument(
        "--axis", action="append", required=True, metavar="KEY=V1,V2,...",
        help="sweep axis; give once or twice, keys from " + ", ".join(SWEEP_AXES),
    )
    sweep_p.add_argument(
        "--jobs", type=int, help="worker processes (default: all cores)"
    )

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(
            args.config, args.out, seed=args.seed, dt=args.dt, grid_n=args.grid
        )
    return sweep(
        args.config, args.axis, args.out,
        jobs=args.jobs, seed=args.seed, dt=args.dt, grid_n=args.grid,
    )
