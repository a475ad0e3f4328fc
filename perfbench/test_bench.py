"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from campaign import Tally, run_pass  # noqa: E402
from layers import BINDINGS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Check, Workload, instantiate  # noqa: E402

cli = run.load_cli()

WITNESS_EARLY = ("kernel", "witness", "--p", "2", "--q", "3", "--alpha", "0.5")


def _run_once(workload: Workload, seed: int = run.DEFAULT_SEED, tracer=None) -> Tally:
    instances = instantiate(workload, seed)
    references = [check.reference() if check.is_mc else None for _, check in instances]
    tally = Tally()
    run_pass(cli.main, instances, references, tally, tracer)
    return tally


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_check_is_accepted_and_passes_at_the_default_seed(name):
    tally = _run_once(WORKLOADS[name])
    assert tally.attempted == len(WORKLOADS[name].checks)
    assert tally.failed == 0, tally.messages


def test_check_seeds_follow_the_workload_seed():
    first = instantiate(WORKLOADS["haar_mc"], 5)
    assert first == instantiate(WORKLOADS["haar_mc"], 5)
    assert first != instantiate(WORKLOADS["haar_mc"], 6)
    seeds = [argv[argv.index("--seed") + 1] for argv, _ in first]
    assert len(set(seeds)) == len(seeds)


def test_wrong_verdict_raises_check_fail_frac():
    workload = Workload("injected", "one good and one wrong expectation", (
        Check(WITNESS_EARLY, "expects the real verdict"),
        Check(WITNESS_EARLY, "expects a verdict the program does not give", verdict="fail"),
    ))
    tally = _run_once(workload)
    assert (tally.attempted, tally.failed, tally.fail_frac) == (2, 1, 0.5)
    assert "verdict 'pass', expected 'fail'" in tally.messages[0]


def test_monte_carlo_expected_must_match_the_closed_form():
    argv = ("integral", "so", "--n", "3", "--lambda", "1,0.5,0", "--samples", "2000")
    workload = Workload("injected", "a wrong closed form", (
        Check(argv, "reference off by a factor two", reference=lambda: 2.0 * _so3()),
        Check(argv, "the right reference", reference=_so3),
    ))
    tally = _run_once(workload)
    assert tally.failed == 1
    assert "differs from the closed form" in tally.messages[0]


def _so3() -> float:
    from berezin_lab import integrals

    return integrals.so_integral_closed_form(3, [1, 0.5, 0])


def test_exit_code_and_unparsable_output_fail():
    workload = Workload("injected", "usage error and wrong format", (
        Check(("kernel", "witness", "--p", "2"), "missing required options"),
        Check(("catalog", "--format", "csv"), "a table judged as a report", seeded=False),
    ))
    tally = _run_once(workload)
    assert tally.failed == 2
    assert "exit code 3, expected 0" in tally.messages[0]


def test_self_time_of_nested_spans():
    # kernel [0, 10] holds a ball call [1, 4] (which holds a sampler call
    # [2, 3]) and a nested kernel call [5, 9]; the pass took 12 s.
    spans = [
        ["berezin.kernel.gram_spectrum", 0.0, 10.0, -1, 0],
        ["ball.random_ball_point", 1.0, 4.0, 0, 0],
        ["compact._haar_orthogonal_batch", 2.0, 3.0, 1, 0],
        ["berezin.kernel.berezin_kernel", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    metrics = layer_metrics(spans, Counter({"compact.matrices": 4}), pass_seconds=12.0)
    assert metrics["berezin.kernel_self_s"] == pytest.approx(7.0)
    assert metrics["ball.self_s"] == pytest.approx(2.0)
    assert metrics["compact.sample_s"] == pytest.approx(1.0)
    assert metrics["compact.matrices_per_s"] == pytest.approx(4.0)
    assert metrics["berezin.kernel_calls"] == 1
    assert metrics["cli.self_s"] == pytest.approx(2.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, n = run.tail([float(i) for i in range(50, 0, -1)])
    assert (value, percentile, n) == (40.0, 80.0, 50)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_carries_the_declared_metrics(trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "haar_mc", "--seed", "3",
         "--seconds", "0.01", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 14
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_tracer_records_spans_skips_absent_bindings_and_restores():
    from berezin_lab import berezin

    original = berezin.pd_witness_search
    tracer = Tracer()
    tracer.install(BINDINGS + [("berezin_lab.berezin", "no_such_function", "berezin.kernel", True)])
    try:
        assert berezin.pd_witness_search is not original
        tally = _run_once(Workload("traced", "", (Check(WITNESS_EARLY, ""),)), tracer=tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    assert berezin.pd_witness_search is original
    assert tracer.absent == ["berezin_lab.berezin.no_such_function"]
    names = {span[0] for span in tracer.spans}
    assert "berezin.kernel.pd_witness_search" in names
    assert tracer.counts["berezin.witness_configs"] >= 1
