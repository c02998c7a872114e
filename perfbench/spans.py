"""Outside-in span tracing of the toruswave layers, and per-layer metrics.

``install`` wraps every public function of each toruswave module, plus a few
methods at layer boundaries, and rebinds the wrapper under every name in
every ``toruswave.*`` module that refers to the original, so calls made
through ``from .fields import transform`` are caught as well.  A span is
(name, start, end, parent) with ``time.perf_counter`` stamps; spans live in
flat arrays until ``dump`` writes them, once, at the end of the process.
Nothing inside the program changes.

``metrics`` turns the dumped spans of one program process into the
per-layer metrics listed in BENCHMARK.json.  Self time is a span's duration
minus the durations of its direct children, so the self times of one process
sum to its root span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "calibration", "solver", "source", "energy", "fields", "verify", "estimates")

# Methods at layer boundaries: span name -> (module, class, attribute).
METHODS = {
    "solver.advance": ("solver", "_Stepper", "advance"),
    "fields.Field.__post_init__": ("fields", "Field", "__post_init__"),
    "fields.Spectrum.__post_init__": ("fields", "Spectrum", "__post_init__"),
    "verify.VerificationReport.to_text": ("verify", "VerificationReport", "to_text"),
    "verify.VerificationReport.to_csv": ("verify", "VerificationReport", "to_csv"),
}

CHECKS = (
    "check_energy_differential", "check_energy_integral", "check_bootstrap",
    "check_improved_estimates", "check_mean_mode", "check_asymptotics",
    "check_wirtinger_final", "check_algebra_final",
)

# Artifact writers summed into cli.write.s.
WRITERS = (
    "cli.write_echo", "cli.write_timeseries", "calibration.save_constants",
    "verify.VerificationReport.to_text", "verify.VerificationReport.to_csv",
)

TRANSFORMS = ("fields.transform", "fields.inverse_transform")


class Tracer:
    """Span store for one process; the wrappers append to its arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def dump(self, path: Path, run_id: str) -> None:
        """Write the spans recorded so far; every span must have ended."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open at dump")
        header = {"run_id": run_id, "pid": os.getpid(), "names": self.names, "count": len(self.name_id)}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for store in (self.name_id, self.parent, self.start, self.end):
                store.tofile(out)


def _targets(package) -> dict[str, object]:
    """Span name -> original callable for every public function of each layer."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{package.__name__}.{layer}")
        if module is None:
            continue
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            targets[f"{layer}.{attr}"] = obj
    return targets


def install(tracer: Tracer, package) -> None:
    """Wrap the layers of an imported ``package`` (toruswave) in place."""
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in _targets(package).items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    for name, (layer, cls_name, attr) in METHODS.items():
        cls = getattr(sys.modules.get(f"{package.__name__}.{layer}"), cls_name, None)
        method = vars(cls).get(attr) if cls is not None else None
        if method is not None:
            setattr(cls, attr, tracer.wrap(name, method))


def load(path: Path):
    """(header, name_id, parent, start, end) of one span file, as numpy arrays."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        count = header["count"]
        name_id = np.fromfile(src, dtype=np.intc, count=count)
        parent = np.fromfile(src, dtype=np.intc, count=count)
        start = np.fromfile(src, dtype=np.float64, count=count)
        end = np.fromfile(src, dtype=np.float64, count=count)
    return header, name_id, parent, start, end


def self_times(parent, duration):
    """Duration minus the durations of direct children, per span."""
    child = np.zeros_like(duration)
    inner = parent >= 0
    np.add.at(child, parent[inner], duration[inner])
    return duration - child


def _under(parent, marked):
    """True for spans that are, or descend from, a marked span."""
    out = marked.copy()
    up = parent.copy()
    while (up >= 0).any():
        live = up >= 0
        out[live] |= marked[up[live]]
        up[live] = parent[up[live]]
    return out


def per_name(paths) -> tuple[dict[str, dict[str, float]], int, int]:
    """(name -> {calls, s, self_s}, FFTs under advance, FFTs under simulate),
    summed over span files."""
    table: dict[str, dict[str, float]] = {}
    ffts_in_step = ffts_in_loop = 0
    for path in paths:
        header, name_id, parent, start, end = load(path)
        names = header["names"]
        duration = end - start
        sums = [np.bincount(name_id, weights=w, minlength=len(names))
                for w in (None, duration, self_times(parent, duration))]
        for nid, name in enumerate(names):
            if sums[0][nid]:
                row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["calls"] += int(sums[0][nid])
                row["s"] += float(sums[1][nid])
                row["self_s"] += float(sums[2][nid])
        ids = {name: nid for nid, name in enumerate(names)}

        def marked(*wanted):
            return np.isin(name_id, [ids[w] for w in wanted if w in ids])

        fft = marked(*TRANSFORMS)
        ffts_in_step += int((fft & _under(parent, marked("solver.advance"))).sum())
        ffts_in_loop += int((fft & _under(parent, marked("solver.simulate"))).sum())
    return table, ffts_in_step, ffts_in_loop


def metrics(paths, *, n_steps: int, n_samples: int, grid_n: int) -> dict[str, float]:
    """Per-layer metrics of one program process (its span files together)."""
    table, ffts_in_step, ffts_in_loop = per_name(paths)

    def get(name, field):
        return table.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(r["self_s"] for n, r in table.items() if n.split(".")[0] == layer)
    for name in ("calibration.calibrate", "calibration.load_constants", "fields.sobolev_norm",
                 "solver.simulate", "verify.run_all", "solver.mean_mode_reference"):
        out[f"{name}.s"] = get(name, "s")
    for name in ("energy.modified_energy", "solver.simulate"):
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in ("fields.spectral_derivative", "fields.transform", "fields.inverse_transform",
                 "source.eval_prepared", "cli.build_scenario", "solver.advance",
                 "energy.sample_energies", "fields.Field.__post_init__",
                 "fields.Spectrum.__post_init__"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name, "s")
    for check in CHECKS:
        out[f"verify.{check}.s"] = get(f"verify.{check}", "s")
    out["cli.write.s"] = sum(get(name, "s") for name in WRITERS)
    advance_calls = get("solver.advance", "calls")
    samples = get("energy.sample_energies", "calls")
    out["solver.step_ms"] = 1e3 * get("solver.advance", "s") / advance_calls if advance_calls else 0.0
    out["energy.sample_ms"] = 1e3 * get("energy.sample_energies", "s") / samples if samples else 0.0
    out["source.evals_per_step"] = get("source.eval_prepared", "calls") / n_steps
    out["fields.ffts_per_step"] = ffts_in_step / n_steps
    out["fields.ffts_per_sample"] = (ffts_in_loop - ffts_in_step) / n_samples
    out["fields.fft_bytes_computed"] = float(ffts_in_loop * grid_n**3 * 16)
    return out
