"""The draw-ahead thread: the same bytes whatever the thread timing, and a clean thread.

A Monte Carlo estimate of two or more blocks fills block b + 1's Gaussian
on one helper thread while the calling thread reduces block b.  The
reference for each estimate is the same estimate with its sampler drawing
every block itself, on the calling thread.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
from functools import partial

import pytest

from berezin_lab import berezin, cli, integrals
from berezin_lab.compact import REAL, _gaussian, _haar_so_batch, _haar_sp_batch, _haar_u_batch
from berezin_lab.integrals import BLOCK, corner_power_mc

from test_perfbench_bindings import _bindings

N = 3 * BLOCK + 17  # three whole blocks and a short one
HELPER = "berezin-draw-ahead"

_PROBE = berezin._restriction_exponents(3, 6, 1, 1.0)

# (estimate, the same estimate with every block drawn by its sampler on the calling thread)
ESTIMATES = {
    "so": (lambda: integrals.so_integral_mc(8, [1.0, 0.5, 0, 0, 0, 0, 0, 0], N, rng=11),
           lambda: corner_power_mc(partial(_haar_so_batch, 8), [1.0, 0.5, 0, 0, 0, 0, 0], N, rng=11)),
    "u": (lambda: integrals.u_integral_mc(3, [1.0, 0.5, 0.0], [0.5, 0.0, 0.0], N, rng=12),
          lambda: corner_power_mc(partial(_haar_u_batch, 3), [1.0, 0.5, 0.0], N, rng=12,
                                  b=[0.5, 0.0, 0.0])),
    "sp": (lambda: integrals.sp_integral_mc(3, [1.0, 0.5, 0.0], N, rng=13),
           lambda: corner_power_mc(partial(_haar_sp_batch, 3), [0.5, 0.5, 0.25, 0.25, 0.0, 0.0], N,
                                   rng=13)),
    "probe": (lambda: berezin.restriction_probe(3, 6, 1, 1.0, N, rng=14),
              lambda: corner_power_mc(partial(_haar_so_batch, 7), (_PROBE - _PROBE[-1])[:-1], N,
                                      rng=14)),
}


def _fill_threads(monkeypatch, delay: float = 0.0) -> list[int]:
    """The thread of every fill handed to the draw-ahead thread, each fill first sleeping ``delay``."""
    threads, draw_ahead = [], integrals._draw_ahead

    def spy(fill, gen):
        def recorded(g):
            threads.append(threading.get_ident())
            time.sleep(delay)
            return fill(g)

        return draw_ahead(recorded, gen)

    monkeypatch.setattr(integrals, "_draw_ahead", spy)
    return threads


@pytest.mark.parametrize("timing", ["as-is", "slow-helper", "slow-caller"])
@pytest.mark.parametrize("kind", sorted(ESTIMATES))
def test_estimates_equal_drawing_every_block_on_the_calling_thread(monkeypatch, kind, timing):
    estimate, drawn_here = ESTIMATES[kind]
    want = drawn_here()
    threads = _fill_threads(monkeypatch, 0.003 if timing == "slow-helper" else 0.0)
    if timing == "slow-caller":  # the helper is then always a block ahead
        pivots = integrals.corner_pivots
        monkeypatch.setattr(integrals, "corner_pivots",
                            lambda mats, k: time.sleep(0.003) or pivots(mats, k))
    assert estimate() == want
    # blocks 1 to 3 were drawn ahead, on one other thread
    assert len(threads) == 3 and len(set(threads)) == 1 and threads[0] != threading.get_ident()


def test_a_redraw_reads_its_block_generator_after_the_draw_made_ahead():
    # every second sample of each block's first draw gets g_11 = -1, so its
    # first pivot is 0; the redraws come from the block's own generator
    def degenerate(count, gen, cols=None):
        mats = _haar_so_batch(5, count, gen, cols=cols)
        if count in (BLOCK, N % BLOCK):
            mats[::2, 0, 0] = -1.0
        return mats

    ahead = corner_power_mc(degenerate, [1.0, 0.5], N, rng=5, gaussian=partial(_gaussian, REAL, 5))
    here = corner_power_mc(degenerate, [1.0, 0.5], N, rng=5)
    assert ahead == here
    assert ahead.n_resamples == 3 * BLOCK // 2 + 9


def test_a_single_block_starts_no_draw_ahead(monkeypatch):
    threads = _fill_threads(monkeypatch)
    integrals.sp_integral_mc(3, [1.0, 0.5, 0.0], BLOCK, rng=1)
    assert threads == []


def test_a_failed_fill_raises_from_the_estimate_and_the_next_estimate_is_right(monkeypatch):
    estimate, drawn_here = ESTIMATES["so"]
    want = drawn_here()
    boom, raised_on, gaussian = RuntimeError("fill failed"), [], integrals._gaussian

    def failing(field, n, size, cols=None):
        storage, draw = gaussian(field, n, size, cols)

        def fail(gen):
            raised_on.append(threading.get_ident())
            raise boom

        return storage, fail if size == N % BLOCK else draw  # the short last block fails

    with monkeypatch.context() as m:
        m.setattr(integrals, "_gaussian", failing)
        with pytest.raises(RuntimeError) as caught:
            estimate()
    assert caught.value is boom
    assert len(raised_on) == 1 and raised_on[0] != threading.get_ident()
    assert estimate() == want
    assert [t.name for t in threading.enumerate()].count(HELPER) == 1


# Four threads start multi-block estimates at once in a fresh interpreter,
# then the main thread runs them again; prints whether the estimates agree,
# the names of the threads started and of those alive at the end.
_CONCURRENT = """
import json, threading
from berezin_lab import integrals
started, start = [], threading.Thread.start
threading.Thread.start = lambda self: started.append(self.name) or start(self)
est = lambda seed: integrals.so_integral_mc(4, [1.0, 0.5, 0.2, 0.0], 20000, rng=seed)
out = {}
threads = [threading.Thread(target=lambda s=s: out.__setitem__(s, est(s))) for s in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
again = all(est(s) == out[s] for s in range(4))
print(json.dumps([again, started, [t.name for t in threading.enumerate()]]))
"""


def test_concurrent_estimates_share_one_draw_ahead_thread():
    again, started, alive = json.loads(_run_fresh(_CONCURRENT))
    assert again
    assert started.count(HELPER) == 1 and len(started) == 5
    assert sorted(alive) == sorted(["MainThread", HELPER])


# A fresh interpreter starts the draw-ahead thread, forks, and the child,
# which inherits no thread, runs the estimate again; prints the child's exit
# code, or "hung" (and kills it) when it has not finished within 30 s.
_FORK = """
import os, signal, time
from berezin_lab import integrals
est = lambda: integrals.so_integral_mc(4, [1.0, 0.5, 0.2, 0.0], 20000, rng=3)
first = est()
pid = os.fork()
if pid == 0:
    os._exit(0 if est() == first else 1)
for _ in range(300):
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print(os.waitstatus_to_exitcode(status))
        break
    time.sleep(0.1)
else:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    print("hung")
"""


def _run_fresh(script: str) -> str:
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_forked_child_starts_its_own_draw_ahead_thread():
    assert _run_fresh(_FORK).strip() == "0"


def test_every_traced_binding_runs_on_the_calling_thread(monkeypatch, capsys):
    # the benchmark's tracer keeps one span stack, which is not thread-safe
    calls = []
    for module_name, attr, _layer, _span in _bindings():
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def record(*args, _name=f"{module_name}.{attr}", _original=original, **kwargs):
            calls.append((_name, threading.get_ident()))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, record)
    fills = _fill_threads(monkeypatch)
    code = cli.main(["integral", "sp", "--n", "3", "--lambda", "1,0.5,0", "--samples", str(N)])
    assert code == cli.EXIT_PASS
    assert len(fills) == 3 and threading.get_ident() not in fills
    names = {name for name, _ in calls}
    assert {"berezin_lab.integrals.sp_integral_mc", "berezin_lab.integrals._haar_sp_batch",
            "berezin_lab.integrals.block_rng"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}
