"""Scenario runner: parse a config, simulate, verify, write artifacts.

A scenario file is line-based ``key = value`` text.  Blank lines and lines
starting with ``#`` are skipped; section structure lives in dotted key
prefixes, so the format has no nesting and no quoting rules.  The schema is
the ``_KEYS`` table below: every key with its type, its default and what it
means, in resolved.cfg order.

``run`` writes into the output directory: timeseries.csv (the sampled
diagnostics), report.txt and report.csv (one verdict per check),
constants.txt (the calibration actually used), and resolved.cfg, the config
echoed with every auto value substituted at full precision; re-running
resolved.cfg reproduces timeseries.csv byte for byte.  Exit codes: 0 all
non-skipped checks pass, 1 a check failed, 2 the run broke down, 3 the
config (the message lists every unknown key) or the command line is invalid.

``sweep`` varies one or two of params.omega, params.k_eos, source.amplitude,
initial.e_m0 over explicit value lists, builds every grid point, runs the
valid ones in --jobs contiguous batches (one worker process and one batched
time loop per batch), writes per-point artifacts to point-NNN/ directories
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
from .energy import COLUMNS, modified_energy
from .estimates import BootstrapParams, epsilon_budgets, forcing_constant, h_threshold
from .fields import GridSpec
from .solver import SolverConfig, Trajectory, simulate, simulate_batch
from .source import ModelParams, SourceSpec, bump_profile
from .verify import ABS_TOL, CHECK_IDS, VerificationReport, run_all

CONFIG_FORMAT = "toruswave-scenario-1"
TIMESERIES_FORMAT = "toruswave-timeseries-1"
SWEEP_FORMAT = "toruswave-sweep-1"
CONSTANTS_ENV = "TORUSWAVE_CONSTANTS"

# timeseries.csv columns: t, Em = sqrt(Em_sq), energy.COLUMNS in their order
# under these names, then the bootstrap flag; one row is one % format
_CSV_NAMES = {
    "e_m_sq": "Em_sq", "e_std_sq": "E_std_sq", "u_hm": "u_Hm", "ut_hm": "ut_Hm",
    "f_hm": "F_Hm", "u_mean": "u_mean", "f_mean": "F_mean", "u_min": "u_min",
}
TIMESERIES_COLUMNS = ("t", "Em", *(_CSV_NAMES[name] for name in COLUMNS), "bootstrap_ok")
_TIMESERIES_ROW = ",".join(["%.17g"] * (len(TIMESERIES_COLUMNS) - 1) + ["%d"]) + "\n"

SWEEP_AXES = ("params.omega", "params.k_eos", "source.amplitude", "initial.e_m0")

# The scenario schema, in resolved.cfg order: key -> (type, default).  A type
# is "text", "int", "float" (finite), "bool" (true | false), a tuple of
# choices, "auto" (a finite number, or auto for the value named below) or
# "structured" (build_scenario and its helpers parse the text and format the
# echo).  A default is config text, parsed like a given value; None means no
# default, and the key is required wherever it is read.
_KEYS = {
    "format": ("structured", None),  # toruswave-scenario-1
    "name": ("text", None),  # scenario label used in reports
    "grid.n": ("int", None),  # points per axis, even, >= 4
    "params.omega": ("float", None),  # damping rate, in (0, 1) for the threshold algebra
    "params.k_eos": ("float", None),  # equation-of-state index in (1/2, 1); sets kappa, mu
    "params.kappa": ("float", None),  # forcing decay rate (give with mu if no k_eos)
    "params.mu": ("float", None),  # nonlinearity exponent
    "params.m": ("int", "3"),  # Sobolev order, >= 2: H^m embeds in L^inf for m > 3/2
    "source.kind": (("analytic-preset",), "analytic-preset"),  # the only kind
    "source.preset": (("uniform", "single-mode", "bump", "band"), "uniform"),
    # a number >= 0, or budget:F for F * min(eps1, eps2)
    "source.amplitude": ("structured", "0"),
    "source.sigma": (("const", "cos"), "const"),
    "source.sigma_rate": ("float", "1.0"),  # rate for sigma = cos
    "source.seed": ("int", "0"),  # seed for the band preset
    "source.rng": (("pcg64",), "pcg64"),  # the only generator; recorded in the echo
    "initial.preset": (("zero", "single-mode", "bump", "coefficients"), None),
    "initial.part": (("velocity", "displacement"), "velocity"),  # used by single-mode, bump
    "initial.mode": ("structured", None),  # n1,n2,n3 integers, not all zero (single-mode)
    "initial.e_m0": ("float", None),  # target E_m(0); required for single-mode and bump
    # n1,n2,n3,re,im; ... (coefficients preset); every mode and coefficient
    # needs |n_i| < grid.n/2, which the grid represents without aliasing
    "initial.u0_coeffs": ("structured", None),
    "initial.u1_coeffs": ("structured", None),  # same, for the velocity field
    "solver.dt": ("float", None),  # time step
    "solver.t_end": ("float", None),  # final time, an integer number (>= 1) of steps
    "solver.sample_every": ("int", "1"),  # sampling stride in steps
    "solver.dealias": ("bool", "true"),
    "bootstrap.t1": ("auto", "auto"),  # auto = 1/omega
    "bootstrap.eps_prime": ("auto", "auto"),  # auto = h(t1)/2
    # auto = forcing_constant at the ceiling delta' = c_sobolev sqrt(2) E_m(0)
    "bootstrap.c_delta": ("auto", "auto"),
    # calibration file; else $TORUSWAVE_CONSTANTS, else calibrate on the fly
    "constants.path": ("text", None),
}

# Keys that older resolved.cfg files state and that no run reads any more:
# parse_config accepts and drops them, whatever their value.  The small-data
# radius E_m(0)/omega and the sup-norm ceiling follow from E_m(0).
_RETIRED_KEYS = ("bootstrap.delta", "bootstrap.delta_prime")


class ConfigError(ValueError):
    """A scenario file that cannot be turned into a runnable scenario."""


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _finite(key: str, text: str, expected: str, shown: str | None = None) -> float:
    """``float(text)``, rejecting text that is no number or no finite one."""
    shown = text if shown is None else shown
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {expected}, got {shown!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: {shown!r} is not finite")
    return value


def _parse(key: str, kind, text: str):
    """The value of one key's text, by its table type."""
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    if kind == "float":
        return _finite(key, text, "a number")
    if kind == "auto":
        return None if text == "auto" else _finite(key, text, "a number or 'auto'")
    if kind == "bool":
        if text not in ("true", "false"):
            raise ConfigError(f"{key}: expected true or false, got {text!r}")
        return text == "true"
    if isinstance(kind, tuple) and text not in kind:
        raise ConfigError(f"{key}: expected one of {', '.join(kind)}; got {text!r}")
    return text


class _Reader:
    """Parses keys by their table rows and keeps the values it returns, for the echo."""

    def __init__(self, entries: dict[str, str]):
        self.entries = entries
        self.resolved: dict[str, object] = {}

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def __call__(self, key: str, echo: bool = True):
        kind, default = _KEYS[key]
        text = self.entries.get(key, default)
        if text is None:
            raise ConfigError(f"missing required key {key!r}")
        value = _parse(key, kind, text)
        if echo:
            self.resolved[key] = value
        return value

    def echo(self) -> dict[str, str]:
        """Resolved values as config text: floats at full precision, bools as true/false."""
        out = {}
        for key, (kind, _) in _KEYS.items():
            if key in self.resolved:
                value = self.resolved[key]
                if kind in ("float", "auto"):
                    out[key] = _fmt(value)
                elif kind == "bool":
                    out[key] = "true" if value else "false"
                else:
                    out[key] = str(value)
        return out


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
        if key in _RETIRED_KEYS:
            continue
        if key not in _KEYS:
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
        if not all(math.isfinite(x) for x in coeffs[-1][3:]):
            raise ConfigError(f"{key}: entry {chunk!r} is not finite")
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
    """Each entry adds re cos(n.x) + im sin(n.x); n = 0 gives a constant.
    A sum that overflows is left as inf, for ``_initial_field`` to reject."""
    x1, x2, x3 = grid.coordinates()
    values = np.zeros(grid.shape)
    with np.errstate(over="ignore"):
        for n1, n2, n3, re_part, im_part in coeffs:
            phase = n1 * x1 + n2 * x2 + n3 * x3
            values = values + re_part * np.cos(phase) + im_part * np.sin(phase)
    return values


def _initial_field(key: str, values: np.ndarray) -> np.ndarray:
    """Initial data built from ``key``; a non-finite value is a config error of that key."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise ConfigError(
            f"{key}: the initial data overflow: field has a non-finite value at grid index {index}"
        )
    return values


def _energy(key: str, u0: np.ndarray, u1: np.ndarray, params: ModelParams) -> float:
    """E_m of the initial data; one that overflows is a config error of ``key``."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            e_sq = modified_energy(u0, u1, params.omega, params.m)
    except OverflowError:  # a Python float, such as omega^2, out of range
        e_sq = math.inf
    if not math.isfinite(e_sq):
        raise ConfigError(f"{key}: the initial energy E_m overflows")
    return math.sqrt(e_sq)


def _scaled(u0: np.ndarray, u1: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """scale * (u0, u1); a scale or product that overflows is a config error of initial.e_m0."""
    with np.errstate(over="ignore", invalid="ignore"):
        v0, v1 = scale * u0, scale * u1
    return _initial_field("initial.e_m0", v0), _initial_field("initial.e_m0", v1)


@dataclass
class Scenario:
    """A fully resolved run: fields built, every auto value substituted."""

    name: str
    params: ModelParams
    source: SourceSpec
    u0: np.ndarray
    u1: np.ndarray
    solver: SolverConfig
    bootstrap: BootstrapParams
    constants: CalibratedConstants
    echo: dict[str, str]


def _build_params(read: _Reader) -> ModelParams:
    omega = read("params.omega")
    m = read("params.m")
    if m < 2:  # the bootstrap's sup-norm bound needs the H^m embedding in L^inf
        raise ConfigError(f"params.m: the estimates need m > 3/2 for H^m in L^inf, got {m}")
    k_eos = read("params.k_eos") if "params.k_eos" in read else None
    # explicit exponents, alone or next to k_eos (the constructor cross-checks)
    explicit = k_eos is None or "params.kappa" in read or "params.mu" in read
    if explicit:
        kappa, mu = read("params.kappa"), read("params.mu")
    try:
        if explicit:
            params = ModelParams(omega=omega, kappa=kappa, mu=mu, k_eos=k_eos, m=m)
        else:
            params = ModelParams.from_equation_of_state(k_eos, omega, m=m)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from None
    read.resolved.update({"params.kappa": params.kappa, "params.mu": params.mu})
    return params


def _build_initial(
    read: _Reader, grid: GridSpec, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, float]:
    """The initial data (u0, u1) as grid arrays, and their E_m."""
    preset = read("initial.preset")
    part = read("initial.part", echo=preset in ("single-mode", "bump"))
    zero = np.zeros(grid.shape)

    if preset == "zero":
        if "initial.e_m0" in read and read("initial.e_m0", echo=False) != 0.0:
            raise ConfigError("initial.e_m0: the zero preset has nothing to scale")
        return zero, zero.copy(), 0.0

    if preset == "coefficients":
        if "initial.u0_coeffs" not in read and "initial.u1_coeffs" not in read:
            raise ConfigError("coefficients preset needs initial.u0_coeffs or initial.u1_coeffs")
        values = {}
        given = [key for key in ("initial.u0_coeffs", "initial.u1_coeffs") if key in read]
        for key in ("initial.u0_coeffs", "initial.u1_coeffs"):
            if key not in read:
                values[key] = zero
                continue
            coeffs = _parse_coeffs(read(key), key)
            _check_resolved(key, [c[:3] for c in coeffs], grid)
            values[key] = _coeff_values(grid, coeffs)
            read.resolved[key] = "; ".join(
                f"{a},{b},{c},{_fmt(re_)},{_fmt(im_)}" for a, b, c, re_, im_ in coeffs
            )
        u0, u1 = (_initial_field(key, values[key])
                  for key in ("initial.u0_coeffs", "initial.u1_coeffs"))
        current = _energy(" and ".join(given), u0, u1, params)
        if "initial.e_m0" not in read:
            return u0, u1, current
        target = read("initial.e_m0")
        if not target > 0.0:
            raise ConfigError(f"initial.e_m0 must be positive, got {target}")
        if current == 0.0:
            raise ConfigError("initial coefficients vanish, cannot scale to initial.e_m0")
        u0, u1 = _scaled(u0, u1, target / current)
        return u0, u1, _energy("initial.e_m0", u0, u1, params)

    # single-mode and bump carry their size as a target initial energy
    target = read("initial.e_m0")
    if not target > 0.0:
        raise ConfigError(f"initial.e_m0 must be positive, got {target}")
    if preset == "single-mode":
        x1, x2, x3 = grid.coordinates()
        n1, n2, n3 = _parse_mode(read("initial.mode"))
        _check_resolved("initial.mode", [(n1, n2, n3)], grid)
        shape = np.cos(n1 * x1 + n2 * x2 + n3 * x3) + np.zeros(grid.shape)
        read.resolved["initial.mode"] = f"{n1},{n2},{n3}"
    else:
        bump = bump_profile(grid)
        shape = bump - bump.mean()  # the smallness hypotheses want zero-mean data
    u0, u1 = (zero, shape) if part == "velocity" else (shape, zero)
    scale = target / _energy("params.omega", u0, u1, params)
    u0, u1 = _scaled(u0, u1, scale)
    return u0, u1, _energy("initial.e_m0", u0, u1, params)


def _load_constants(read: _Reader, grid: GridSpec, m: int) -> CalibratedConstants | None:
    """The constants file the config or the environment names, checked against
    the grid and ``m``; None if there is none and the run calibrates."""
    path = read.entries.get("constants.path") or os.environ.get(CONSTANTS_ENV)
    if not path:
        return None
    try:
        constants = load_constants(path)
        constants.require_grid(grid, m)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"constants: {exc}") from None
    read.resolved["constants.path"] = path
    return constants


def build_scenario(entries: dict[str, str]) -> Scenario:
    """Resolve a parsed config into fields, parameters, and check inputs."""
    if entries.get("format") != CONFIG_FORMAT:
        raise ConfigError(
            f"format: expected {CONFIG_FORMAT!r}, got {entries.get('format')!r}"
        )
    read = _Reader(entries)
    read("format")
    name = read("name")
    grid_n = read("grid.n")  # a parse error names its key, so read outside the try
    try:
        grid = GridSpec(grid_n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid.n: {exc}") from None
    params = _build_params(read)

    dt, t_end = read("solver.dt"), read("solver.t_end")
    sample_every, dealias = read("solver.sample_every"), read("solver.dealias")
    try:
        solver = SolverConfig(
            grid=grid, dt=dt, t_end=t_end, sample_every=sample_every, dealias=dealias
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None

    read("source.kind")  # one choice; checked and echoed so resolved.cfg states it
    preset = read("source.preset")
    sigma = read("source.sigma")
    sigma_rate = read("source.sigma_rate")
    seed = read("source.seed")
    read("source.rng")  # likewise

    # a constants file is checked against m before the initial data, whose
    # energy builds the m + 2 rows of norm_weights(n, m) at a cost cubic in m
    constants = _load_constants(read, grid, params.m)
    u0, u1, e_actual = _build_initial(read, grid, params)
    if constants is None:
        constants = calibrate(grid, params.m)

    # auto bootstrap values follow the actual initial energy; all-zero data
    # gets a nominal unit energy so the trivial run still has finite bounds
    e_check = e_actual if e_actual > 0.0 else 1.0

    t1 = read("bootstrap.t1")
    eps_prime = read("bootstrap.eps_prime")
    c_delta = read("bootstrap.c_delta")
    try:
        if t1 is None:
            t1 = 1.0 / params.omega
        if eps_prime is None:
            eps_prime = 0.5 * h_threshold(params.omega, t1)
        if c_delta is None:
            c_delta = forcing_constant(
                e_check, params.omega, params.mu, params.m,
                constants.c_sobolev, constants.c_algebra, constants.c_moser,
            )
        bootstrap = BootstrapParams(e_m0=e_check, t1=t1, eps_prime=eps_prime, c_delta=c_delta)
    except ValueError as exc:
        raise ConfigError(f"bootstrap: {exc}") from None
    except OverflowError:  # only the auto c_delta raises it, in a power (1 -+ delta')^mu
        raise ConfigError(
            f"bootstrap.c_delta: the auto value overflows at mu = {params.mu:g}"
        ) from None
    for field in ("t1", "eps_prime", "c_delta"):
        read.resolved[f"bootstrap.{field}"] = getattr(bootstrap, field)

    budget_error: str | None = None
    try:
        bootstrap.eps1, bootstrap.eps2 = epsilon_budgets(bootstrap, params.omega)
    except ValueError as exc:
        budget_error = str(exc)  # only fatal if the amplitude needs the budget

    raw_amplitude = read("source.amplitude")
    if raw_amplitude.startswith("budget:"):
        if budget_error is not None:
            raise ConfigError(f"source.amplitude: no budget to scale by ({budget_error})")
        fraction = _finite(
            "source.amplitude", raw_amplitude[len("budget:"):],
            "budget:F with F a number", shown=raw_amplitude,
        )
        if fraction < 0.0:
            raise ConfigError(f"source.amplitude: budget fraction must be >= 0, got {fraction}")
        amplitude = fraction * min(bootstrap.eps1, bootstrap.eps2)
    else:
        amplitude = _finite("source.amplitude", raw_amplitude, "a number")
    read.resolved["source.amplitude"] = _fmt(amplitude)
    try:
        source = SourceSpec(
            amplitude=amplitude, preset=preset, sigma=sigma, sigma_rate=sigma_rate, seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from None

    return Scenario(
        name=name, params=params, source=source, u0=u0, u1=u1,
        solver=solver, bootstrap=bootstrap, constants=constants, echo=read.echo(),
    )


def write_echo(path: Path, echo: dict[str, str]) -> None:
    ordered = [f"{key} = {echo[key]}" for key in _KEYS if key in echo]
    path.write_text("\n".join(ordered) + "\n")


def write_timeseries(path: Path, trajectory: Trajectory, e_m0: float) -> None:
    # same per-sample condition the bootstrap check scores, margin >= -tol
    threshold = e_m0**2 * (1.0 + ABS_TOL)
    u_hm = 1 + COLUMNS.index("u_hm")
    with path.open("w") as out:  # row by row: no copy of the whole table or text
        out.write(f"# {TIMESERIES_FORMAT}\n" + ",".join(TIMESERIES_COLUMNS) + "\n")
        for values in trajectory.table:  # t, then COLUMNS
            row = values.tolist()
            # u * u, as numpy squares the column in check_bootstrap: a finite norm
            # past 1.34e154 squares to inf, where ** 2 (C pow) raises OverflowError
            ok = 1 if 0.5 * (row[u_hm] * row[u_hm]) <= threshold else 0
            out.write(_TIMESERIES_ROW % (row[0], math.sqrt(row[1]), *row[1:], ok))


def _finish(
    scenario: Scenario, trajectory: Trajectory, out: Path
) -> tuple[int, VerificationReport]:
    """Verify one simulated scenario and write its full artifact set."""
    out.mkdir(parents=True, exist_ok=True)
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
    trajectory = simulate(
        scenario.u0, scenario.u1, scenario.params, scenario.source, scenario.solver
    )
    code, report = _finish(scenario, trajectory, out)
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


def _sweep_batch(points: list[tuple[Scenario, str]]) -> list[tuple[int, list[str]]]:
    """Worker for one contiguous batch of built sweep points: one batched loop,
    then each point's verdicts and artifacts in point order.  Module-level so a
    Pool can pickle it; sweep axes leave the solver keys alone, so the points
    share the first one's solver config."""
    scenarios = [scenario for scenario, _ in points]
    trajectories = simulate_batch(
        np.stack([s.u0 for s in scenarios]),
        np.stack([s.u1 for s in scenarios]),
        [s.params for s in scenarios],
        [s.source for s in scenarios],
        scenarios[0].solver,
    )
    outcomes = []
    for (scenario, out_dir), trajectory in zip(points, trajectories):
        code, report = _finish(scenario, trajectory, Path(out_dir))
        t_max = report.t_max_empirical
        row = [str(code), str(report.all_passed()).lower()]
        row += ["none" if t_max is None else _fmt(t_max)] + [r.status for r in report.results]
        outcomes.append((code, row))
    return outcomes


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
    combos = list(itertools.product(*(points for _, points in axes)))
    # build every point first; a point whose config fails exits 3 and runs nothing
    errors: dict[int, str] = {}
    valid: list[tuple[int, Scenario]] = []
    for index, combo in enumerate(combos):
        entries = dict(base)
        entries["constants.path"] = str(constants_file.resolve())
        entries.update(zip(axis_keys, combo))
        try:
            valid.append((index, build_scenario(entries)))
        except ConfigError as exc:
            errors[index] = str(exc)

    # one contiguous batch per worker; the Pool is the only fan-out
    tasks = [(scenario, str(root / f"point-{index:03d}")) for index, scenario in valid]
    if jobs is None:  # the CPUs this process may run on
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = max(1, min(jobs, len(tasks)))
    # contiguous batches whose sizes differ by at most one
    bounds = [len(tasks) * part // jobs for part in range(jobs + 1)]
    batches = [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            results = pool.map(_sweep_batch, batches)
    else:
        results = [_sweep_batch(batch) for batch in batches]
    outcomes = dict(zip((index for index, _ in valid), itertools.chain(*results)))

    buffer = io.StringIO()
    buffer.write(f"# {SWEEP_FORMAT}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["point"] + axis_keys + ["exit_code", "all_passed", "t_max_empirical"]
        + list(CHECK_IDS)
    )
    worst = 0
    for index, combo in enumerate(combos):
        point = f"point-{index:03d}"
        if index in errors:
            code, row = 3, ["3", "false", "none"] + [""] * len(CHECK_IDS)
        else:
            code, row = outcomes[index]
        worst = max(worst, code)
        writer.writerow([point, *combo, *row])
        if index in errors:
            print(f"{point}: config error: {errors[index]}", file=sys.stderr)
            continue
        settings = " ".join(f"{k}={v}" for k, v in zip(axis_keys, combo))
        print(f"{point}: {settings} exit={code}")
    (root / "summary.csv").write_text(buffer.getvalue())
    print(f"sweep summary in {root / 'summary.csv'}")
    return worst


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose command-line errors exit 3, as a config
    error does; argparse's own 2 is the code of a breakdown."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
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
        "--jobs", type=int, help="worker processes (default: the CPUs this process may run on)"
    )

    args = parser.parse_args(argv)
    if args.command == "sweep" and args.jobs is not None and args.jobs < 1:
        sweep_p.error(f"--jobs: expected at least 1 worker process, got {args.jobs}")
    if args.command == "run":
        return run_scenario(
            args.config, args.out, seed=args.seed, dt=args.dt, grid_n=args.grid
        )
    return sweep(
        args.config, args.axis, args.out,
        jobs=args.jobs, seed=args.seed, dt=args.dt, grid_n=args.grid,
    )
