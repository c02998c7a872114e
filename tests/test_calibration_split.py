"""Calibration over two threads: the split family gives the one-pass constants.

From ``THREAD_MIN_N`` up, and when the affinity allows two CPUs, ``calibrate``
measures the family in two contiguous ranges, the second on one extra
thread.  Each test here picks the path by patching the affinity (and, on the
small grids, the crossover), so the suite means the same on one CPU.
"""

import os
import threading

import numpy as np
import pytest

from toruswave import calibration
from toruswave.calibration import calibrate
from toruswave.fields import GridSpec, hm_norms


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []
    start = threading.Thread.start

    def counting(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return threads


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def bits(constants):
    """Every field of ``constants``, floats as their exact hex form."""
    moser = {k: v.hex() for k, v in constants.c_moser.items()}
    return (
        constants.grid_n, constants.m, constants.seed, constants.n_fields,
        constants.safety.hex(), constants.c_sobolev.hex(), constants.c_algebra.hex(), moser,
    )


def one_and_two_chunks(monkeypatch, started, *args, **kwargs):
    """``calibrate(*args, **kwargs)`` in one chunk and in two; the second must
    have started its thread."""
    monkeypatch.setattr(calibration, "THREAD_MIN_N", 4)
    set_cpus(monkeypatch, 1)
    one = calibrate(*args, **kwargs)
    assert started == []
    set_cpus(monkeypatch, 2)
    two = calibrate(*args, **kwargs)
    assert len(started) == 1
    return one, two


@pytest.mark.parametrize("n", [4, 8, 12, 16])
@pytest.mark.parametrize("m, seed, n_fields", [(3, 2024, 36), (2, 7, 5), (3, 11, 4), (1, 5, 7)])
def test_two_chunks_give_the_one_chunk_constants(n, m, seed, n_fields, monkeypatch, started):
    one, two = one_and_two_chunks(
        monkeypatch, started, GridSpec(n), m, seed=seed, n_fields=n_fields
    )
    assert bits(two) == bits(one)


@pytest.mark.parametrize("n_fields", [4, 5])
def test_two_chunks_take_every_product_pair_once(n_fields, monkeypatch, started):
    # a pair is known by its two H^m norms: (i - 1, i) for every i > 0, and
    # the closing (last, first), whichever chunk or thread takes it
    pairs = []
    product_ratio = calibration._product_ratio

    def recording(u, v, m):
        pairs.append((u[1], v[1]))
        return product_ratio(u, v, m)

    monkeypatch.setattr(calibration, "_product_ratio", recording)
    grid, m = GridSpec(8), 2
    norms = [hm_norms(np.fft.rfftn(u), m)[0] for u in calibration._field_family(grid, m, 3, n_fields)]
    want = sorted(zip(norms, norms[1:] + norms[:1]))
    one_and_two_chunks(monkeypatch, started, grid, m, seed=3, n_fields=n_fields)
    half = len(pairs) // 2
    assert sorted(pairs[:half]) == want
    assert sorted(pairs[half:]) == want


@pytest.mark.parametrize("length", [1, 2, 3])
def test_short_families(length, monkeypatch, started):
    grid, m = GridSpec(8), 3
    members = list(calibration._field_family(grid, m, 2024, 4))[:length]
    monkeypatch.setattr(calibration, "_family_size", lambda n_fields: length)
    monkeypatch.setattr(
        calibration, "_field_family",
        lambda grid, m, seed, n_fields, lo=0, hi=None: iter(members[lo:hi]),
    )
    one, two = one_and_two_chunks(monkeypatch, started, grid, m)
    assert bits(two) == bits(one)
    assert one.c_sobolev > 0.0 and one.c_algebra > 0.0


def in_worker():
    return threading.current_thread() is not threading.main_thread()


def test_worker_exception_reaches_the_caller(monkeypatch, started):
    class Boom(Exception):
        pass

    refine = calibration.refine

    def failing(raw, n):
        if in_worker():
            raise Boom("in the extra thread")
        return refine(raw, n)

    monkeypatch.setattr(calibration, "refine", failing)
    monkeypatch.setattr(calibration, "THREAD_MIN_N", 4)
    set_cpus(monkeypatch, 2)
    with pytest.raises(Boom, match="in the extra thread"):
        calibrate(GridSpec(8), 2)
    assert len(started) == 1 and not started[0].is_alive()


def test_caller_exception_reaches_the_caller_after_the_worker_ends(monkeypatch, started):
    class Boom(Exception):
        pass

    refine = calibration.refine

    def failing(raw, n):
        if not in_worker():
            raise Boom("in the calling thread")
        return refine(raw, n)

    monkeypatch.setattr(calibration, "refine", failing)
    monkeypatch.setattr(calibration, "THREAD_MIN_N", 4)
    set_cpus(monkeypatch, 2)
    with pytest.raises(Boom, match="in the calling thread"):
        calibrate(GridSpec(8), 2)
    assert len(started) == 1 and not started[0].is_alive()
    assert not [t for t in threading.enumerate() if t.name.startswith("toruswave-calibrate")]


def test_worker_runs_under_the_callers_errstate(monkeypatch, started):
    seen = []
    refine = calibration.refine

    def recording(raw, n):
        seen.append((in_worker(), np.geterr()))
        return refine(raw, n)

    monkeypatch.setattr(calibration, "refine", recording)
    monkeypatch.setattr(calibration, "THREAD_MIN_N", 4)
    set_cpus(monkeypatch, 2)
    with np.errstate(all="raise", under="ignore"):
        caller = np.geterr()
        calibrate(GridSpec(8), 2)
    assert caller != np.geterr()  # not numpy's default
    assert {worker for worker, _ in seen} == {False, True}
    assert all(state == caller for _, state in seen)


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
    set_cpus(monkeypatch, 1)
    constants = calibrate(GridSpec(16), 3)
    assert constants.grid_n == 16


def test_small_grids_stay_on_one_thread(monkeypatch, started):
    # the n = 8 runs (sweeps, long horizons) calibrate on the calling thread
    assert 8 < calibration.THREAD_MIN_N <= 16  # and flagship, at n = 16, on two
    set_cpus(monkeypatch, 2)
    calibrate(GridSpec(8), 3)
    assert started == []
