"""Benchmark of berezin-lab verification campaigns.

Usage, from the repository root:

    python3 perfbench/run.py --workload haar_mc --seed 1 --seconds 30 --trace 0

The workload's checks (see ``workloads.py``) run in this one process
through ``berezin_lab.cli.main``, imported from ``src/`` next to this
directory.  After one untimed warm-up pass, passes repeat until
``--seconds`` have gone by; every check of every pass is judged.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh CLI
process, median and tail pass time, and peak resident memory.  Pass times
are reported at a reference machine speed: a fixed probe that does not use
the library runs before and after every timed pass, and each pass time is
scaled by the reference probe time over the mean of its two probes.  On a
shared machine whose speed drifts by a quarter within minutes this keeps
run-to-run spread at a few percent; raw wall times are printed and
recorded beside the scaled ones.  Set-up time is raw wall time: process
start-up did not follow the probe's drift (see README.md).
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones, plus the tracing overhead.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it state the same numbers for a reader,
with the machine they were measured on.  A fuller record, including the
spans of the last traced pass, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

from campaign import Tally, run_pass
from layers import Tracer, layer_metrics
from workloads import WORKLOADS, instantiate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# Pass times are scaled to a reference speed: the probe below took
# PROBE_REF_S on the reference machine (2-core Xeon VM, Python 3.11.7,
# numpy 2.4.6).  See README.md for why raw wall time is not used.
PROBE_REF_S = 0.030
PROBE_LOOPS = 200_000
PROBE_CALLS = 400
SETUP_CODE = "import sys\nfrom berezin_lab.cli import main\nsys.exit(main(['--version']))\n"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_cli():
    """Import ``berezin_lab.cli`` from this checkout's ``src``, nowhere else."""
    package = SRC / "berezin_lab"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no berezin_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import berezin_lab.cli as cli

    if Path(cli.__file__).resolve().parent != package:
        raise BenchError(f"berezin_lab was imported from {cli.__file__}, not {package}")
    return cli


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    seconds = perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.startswith("berezin-lab "):
        raise BenchError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return seconds


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, sample count).  With ``beyond`` samples or
    fewer no such percentile exists; the maximum is returned as p100.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - beyond - 1 if n > beyond else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, asked from the library itself."""
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*blas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info() -> dict:
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "commit": _git_commit(),
    }


def probe() -> float:
    """Time a fixed slice of interpreter and small-numpy work.

    The probe does not touch berezin_lab, so no change to the library can
    move it; only the speed the machine gives this process does.
    """
    mat = numpy.eye(4) * 0.5
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_LOOPS):
        table[i & 1023] = acc
        acc = (acc + i * 7) % 1000003
    for _ in range(PROBE_CALLS):
        numpy.linalg.det(mat)
    return perf_counter() - t0


def timed_between_probes(fn, before: float):
    """Run ``fn``; return (its result, the probe after it, the scale to reference speed).

    The scale is the reference probe time over the mean of the probes
    taken just before and just after, so a stretch of slow machine
    inflates both the measurement and its probes and cancels out.
    """
    out = fn()
    after = probe()
    return out, after, PROBE_REF_S / ((before + after) / 2.0)


def untraced_run(cli, instances, references, tally, seconds: float) -> tuple[dict, dict]:
    setups = [measure_setup() for _ in range(SETUP_REPEATS)]
    run_pass(cli.main, instances, references, tally)  # warm-up: lazy imports, caches
    before = probe()
    passes, passes_cal, mc_times, check_times = [], [], [], []
    t_end = perf_counter() + seconds
    while perf_counter() < t_end:
        (times, mc_s), before, scale = timed_between_probes(
            lambda: run_pass(cli.main, instances, references, tally), before)
        passes.append(sum(times))
        passes_cal.append(sum(times) * scale)
        mc_times.append(mc_s)
        check_times.append(times)
    tail_s, pct, n = tail(passes_cal)
    metrics = {
        "setup_s": statistics.median(setups),
        "campaign_s": statistics.median(passes_cal),
        "campaign_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "campaign_s": f"median of {n} passes, at reference speed; "
                      f"raw wall median {statistics.median(passes):.6g} s",
        "campaign_tail_s": f"p{pct:.1f} of {n} passes, at reference speed; "
                           f"raw wall {tail(passes)[0]:.6g} s",
        "setup_s": f"median of {len(setups)} fresh processes, raw wall time",
        "mc_time_to_1e-3_s": f"median of {n} passes; 0 when the workload has no Monte Carlo check",
    }
    per_check = {" ".join(argv): statistics.median(times)
                 for (argv, _), times in zip(instances, zip(*check_times))}
    extra = {"mc_time_to_1e-3_s": statistics.median(mc_times), "passes_wall": passes,
             "passes_ref": passes_cal, "check_medians_s": per_check, "setups_wall": setups,
             "notes": notes}
    return metrics, extra


def traced_run(cli, instances, references, tally, seconds: float) -> tuple[dict, dict]:
    run_pass(cli.main, instances, references, tally)  # warm-up: lazy imports, caches
    tracer = Tracer()
    plain, traced, mc_times, layers = [], [], [], []
    t_end = perf_counter() + seconds
    while perf_counter() < t_end or not traced:
        times, mc_s = run_pass(cli.main, instances, references, tally)
        plain.append(sum(times))
        mc_times.append(mc_s)
        tracer.reset()
        tracer.install()
        try:
            times, _ = run_pass(cli.main, instances, references, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(times))
        layers.append(layer_metrics(tracer.spans, tracer.counts, traced[-1]))
    metrics = {name: statistics.median(sample[name] for sample in layers) for name in layers[0]}
    metrics["mc_time_to_1e-3_s"] = statistics.median(mc_times)
    metrics["check_fail_frac"] = tally.fail_frac
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    notes = {"trace.overhead_frac": f"median of {len(traced)} traced passes over median of "
                                    f"{len(plain)} untraced ones, alternating"}
    extra = {"plain_passes": plain, "traced_passes": traced, "absent_bindings": tracer.absent,
             "notes": notes, "spans_of_last_pass": tracer.spans}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        cli = load_cli()
        workload = WORKLOADS[args.workload]
        instances = instantiate(workload, args.seed)
        references = [check.reference() if check.is_mc else None for _, check in instances]
        machine = machine_info()
        tally = Tally()
        run = traced_run if args.trace else untraced_run
        metrics, extra = run(cli, instances, references, tally, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    label = f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    print(f"# workload {label}: {workload.why}")
    print(f"# machine {json.dumps(machine)}")
    shown = dict(metrics)
    shown.setdefault("check_fail_frac", tally.fail_frac)
    shown.setdefault("mc_time_to_1e-3_s", extra.get("mc_time_to_1e-3_s"))
    for name, value in shown.items():
        note = extra["notes"].get(name, "")
        print(f"# {name} = {value:.6g} {unit_of(name)}" + (f" ({note})" if note else ""))
    print(f"# checks: {tally.failed} failed of {tally.attempted} attempted")
    for message in tally.messages:
        print(f"# FAILED {message}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "metrics": shown,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.messages, **extra}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n", encoding="utf-8")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    """A metric's unit, read off its name."""
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us_per_block"):
        return "us"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
