import argparse
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from berezin_lab import berezin, cli, integrals
from berezin_lab.ball import random_ball_point, random_pseudo_orthogonal
from berezin_lab.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, ledger_rows, main
from berezin_lab.reporting import in_interval


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# haar
# ---------------------------------------------------------------------------


def test_haar_so_report_shape(capsys):
    code, out = run_cli(capsys, "haar", "so", "--n", "3", "--samples", "2", "--seed", "5")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["command"] == "haar so"
    assert doc["inputs"]["realization"] == "real"
    assert doc["verdict"] == "pass"
    assert doc["seed"] == 5
    # a report without duration, then the matrices themselves
    assert list(doc) == ["command", "inputs", "expected", "observed", "stderr", "z_score",
                         "verdict", "seed", "version", "samples"]
    assert len(doc["samples"]) == 2
    assert len(doc["samples"][0]) == 3


def test_haar_realization_labels(capsys):
    _, out = run_cli(capsys, "haar", "u", "--n", "2", "--samples", "1", "--seed", "5")
    assert json.loads(out)["inputs"]["realization"] == "complex"
    _, out = run_cli(capsys, "haar", "sp", "--n", "1", "--samples", "1", "--seed", "5")
    doc = json.loads(out)
    assert doc["inputs"]["realization"] == "complex2n"
    # complex entries serialize as [re, im] pairs
    entry = doc["samples"][0][0][0]
    assert isinstance(entry, list) and len(entry) == 2


def test_haar_reports_are_byte_identical(capsys):
    _, a = run_cli(capsys, "haar", "so", "--n", "4", "--samples", "3", "--seed", "9")
    _, b = run_cli(capsys, "haar", "so", "--n", "4", "--samples", "3", "--seed", "9")
    assert a == b


def test_haar_csv_rows(capsys):
    _, out = run_cli(capsys, "haar", "so", "--n", "2", "--samples", "1", "--seed", "5",
                     "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4  # one row per matrix entry
    assert {r["realization"] for r in rows} == {"real"}
    # 3 complex 2 x 2 matrices: 12 rows under the header, each of 8 cells
    _, out = run_cli(capsys, "haar", "u", "--n", "2", "--samples", "3", "--seed", "7",
                     "--format", "csv")
    lines = out.splitlines()
    assert len(lines) == 1 + 3 * 2 * 2
    assert all(len(row) == 8 for row in csv.reader(lines))


def test_seed_environment_fallback(capsys, monkeypatch):
    monkeypatch.setenv("BEREZIN_SEED", "9")
    _, env_out = run_cli(capsys, "haar", "so", "--n", "4", "--samples", "3")
    monkeypatch.delenv("BEREZIN_SEED")
    _, flag_out = run_cli(capsys, "haar", "so", "--n", "4", "--samples", "3", "--seed", "9")
    assert env_out == flag_out
    # an explicit --seed beats the environment
    monkeypatch.setenv("BEREZIN_SEED", "1234")
    _, forced = run_cli(capsys, "haar", "so", "--n", "4", "--samples", "3", "--seed", "9")
    assert forced == flag_out


def _refused(capsys, *argv):
    """The one-line message of a call that must exit 3 and print nothing to stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == "", argv
    assert captured.err.startswith("berezin-lab") and captured.err.count("\n") == 1, argv
    return captured.err


_SEEDED = [
    ["haar", "so", "--n", "2", "--samples", "1"],
    ["integral", "so", "--n", "3", "--lambda", "1,0.5,0", "--samples", "200"],
    ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "2"],
]


@pytest.mark.parametrize("argv", _SEEDED, ids=lambda argv: " ".join(argv[:2]))
def test_a_seed_outside_zero_to_two_to_the_63_exits_three(capsys, argv):
    # numpy refuses a negative seed, and the Monte Carlo streams would take
    # -1 as 2**63 - 1 while the report recorded -1
    for seed in ("-1", str(2**63), "1.5", "abc"):
        assert "--seed" in _refused(capsys, *argv, "--seed", seed)
    code, out = run_cli(capsys, *argv, "--seed", str(2**63 - 1))
    assert code != EXIT_USAGE and json.loads(out)["seed"] == 2**63 - 1


def test_a_bad_seed_environment_variable_exits_three(capsys, monkeypatch):
    argv = ["haar", "so", "--n", "2", "--samples", "1"]
    for value in ("abc", "-1", str(2**63), ""):
        monkeypatch.setenv("BEREZIN_SEED", value)
        assert "InvalidParams: BEREZIN_SEED expects" in _refused(capsys, *argv)
    # a seedless command does not read the variable, and its report records no seed
    assert main(["ledger"]) == EXIT_PASS and capsys.readouterr().err == ""
    code, out = run_cli(capsys, "plancherel", "degeneration", "--p", "3", "--q", "7",
                        "--alpha", "-2")
    assert code == EXIT_PASS and json.loads(out)["seed"] is None
    # --seed is checked instead, and the variable is not read
    code, out = run_cli(capsys, *argv, "--seed", "3")
    assert code == EXIT_PASS and json.loads(out)["seed"] == 3


# ---------------------------------------------------------------------------
# integral
# ---------------------------------------------------------------------------


def test_integral_so_discriminates_variants(capsys):
    code, out = run_cli(capsys, "integral", "so", "--n", "2", "--lambda", "1,0",
                        "--samples", "30000", "--seed", "2")
    assert code == EXIT_PASS
    doc = json.loads(out)
    ev = doc["inputs"]["evaluations"]
    assert ev["closed_form_corrected"] == pytest.approx(1.0)
    assert ev["closed_form_as_printed"] == pytest.approx(0.5)
    assert ev["quadrature"] == pytest.approx(1.0, rel=1e-9)
    assert doc["verdict"] == "pass"
    assert abs(doc["z_score"]) <= 3.0


def test_integral_exponents_may_omit_the_trailing_zero(capsys):
    # the harness shifts the vector so only differences matter; n = 3 is the README's
    def judged(n, lam, samples, seed):
        _, out = run_cli(capsys, "integral", "so", "--n", n, "--lambda", lam,
                         "--samples", samples, "--seed", seed)
        doc = json.loads(out)
        return doc["expected"], doc["observed"], doc["stderr"]

    assert judged("2", "3,2", "20000", "3") == judged("2", "1,0", "20000", "3")
    assert judged("3", "1.5,1,0.5", "2000", "7") == judged("3", "1,0.5,0", "2000", "7")


def test_integral_u_and_sp(capsys):
    code, out = run_cli(capsys, "integral", "u", "--n", "1", "--lambda", "1",
                        "--mu", "1", "--samples", "40000", "--seed", "2")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["expected"] == pytest.approx(2.0)
    # E f^2 = E |p|^4 = 6, so the variance is 6 - 2^2
    assert doc["inputs"]["diagnostics"] == {"max_abs": pytest.approx(4.0), "n_resamples": 0,
                                            "stderr_expected": pytest.approx((2 / 40000) ** 0.5)}
    code, out = run_cli(capsys, "integral", "sp", "--n", "1", "--lambda", "2",
                        "--samples", "40000", "--seed", "2")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["expected"] == pytest.approx(2.0)
    assert set(doc["inputs"]["diagnostics"]) == {"max_abs", "n_resamples", "stderr_expected"}
    assert 0 < doc["inputs"]["diagnostics"]["max_abs"] <= 4.0 + 1e-12


def test_integral_report_is_deterministic_excluding_duration(capsys):
    _, a = run_cli(capsys, "integral", "so", "--n", "3", "--lambda", "1,1,0",
                   "--samples", "20000", "--seed", "5")
    _, b = run_cli(capsys, "integral", "so", "--n", "3", "--lambda", "1,1,0",
                   "--samples", "20000", "--seed", "5")
    da, db = json.loads(a), json.loads(b)
    da.pop("duration"), db.pop("duration")
    assert da == db


@pytest.mark.parametrize("spaced,joined", [
    (("integral", "so", "--n", "3", "--lambda", "-0.5,0.3,0", "--samples", "2000", "--seed", "7"),
     ("integral", "so", "--n", "3", "--lambda=-0.5,0.3,0", "--samples", "2000", "--seed", "7")),
    (("integral", "u", "--n", "2", "--lambda", "-0.4,0.2", "--mu", "-0.3,0.1", "--samples", "2000",
      "--seed", "7"),
     ("integral", "u", "--n", "2", "--lambda=-0.4,0.2", "--mu=-0.3,0.1", "--samples", "2000",
      "--seed", "7")),
    # argparse reads only a plain negative number as a value: "-1e-1" would look like an option
    (("plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "-1e-1"),
     ("plancherel", "blocks", "--p", "2", "--q", "5", "--alpha=-1e-1")),
    (("plancherel", "degeneration", "--p", "2", "--q", "5", "--alpha", "-2.5e0"),
     ("plancherel", "degeneration", "--p", "2", "--q", "5", "--alpha=-2.5")),
])
def test_negative_leading_vector_entries_may_follow_their_flag(capsys, spaced, joined):
    outs = []
    for argv in (spaced, joined):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_PASS
        outs.append(out)
    # the duration is the one field that differs between two runs
    assert len({re.sub(r'"duration": [^,\n]*', "", out) for out in outs}) == 1
    doc = json.loads(outs[0])
    if isinstance(doc, dict):  # a report records the negative value it parsed
        assert np.min(doc["inputs"].get("lambda", doc["inputs"].get("alpha"))) < 0


def test_a_spaced_value_is_refused_by_its_options_type(capsys):
    code = main(["plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "-inf"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "expects a finite real, got '-inf'" in captured.err


def test_collapsed_stderr_is_not_a_free_pass(capsys):
    # draws differ only at 1e-9: a sum-of-squares variance cancels to 0
    code, out = run_cli(capsys, "integral", "so", "--n", "3", "--lambda", "1e-9,0,0",
                        "--samples", "200000", "--seed", "1")
    doc = json.loads(out)
    assert doc["stderr"] > 0
    assert doc["z_score"] != 0.0
    assert abs(doc["observed"] - doc["expected"]) <= 3 * doc["stderr"]
    assert code == EXIT_PASS and doc["verdict"] == "pass"


def test_zero_stderr_falls_back_to_relative_tolerance(capsys):
    # every draw equals 1: no z-score, the mean must match to --tol rel
    code, out = run_cli(capsys, "integral", "u", "--n", "2", "--lambda", "0,0",
                        "--samples", "2000", "--seed", "1")
    doc = json.loads(out)
    assert doc["stderr"] == 0.0
    assert doc["z_score"] is None
    assert code == EXIT_PASS and doc["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ("kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "0"),
    ("kernel", "domination", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "-3"),
])
def test_nonpositive_sample_count_is_a_usage_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""


def test_forced_failure_exit_code(capsys):
    code, out = run_cli(capsys, "integral", "so", "--n", "2", "--lambda", "1,0",
                        "--samples", "20000", "--seed", "2", "--tol", "z=1e-6")
    assert code == EXIT_FAIL
    assert json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize("argv, log_value", [
    # the closed form at lambda = 600 is e^409.5, the second moment at 1200 is not
    (["integral", "so", "--n", "3", "--lambda", "600,0,0"], "824.686"),
    (["integral", "so", "--n", "3", "--lambda", "1100,0,0"], "755.458"),
    (["integral", "so", "--n", "3", "--lambda", "1,0.5,-600"], "822.645"),
    (["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "-600"], "819.384"),
])
def test_a_gamma_product_past_the_float_range_exits_three_naming_its_log(capsys, argv,
                                                                          log_value):
    # refused before any draw: the Monte Carlo squares would overflow as well
    err = _refused(capsys, *argv, "--samples", "100")
    assert err == (f"berezin-lab: InvalidParams: the Gamma product is e^{log_value}, "
                   "past the float range\n")
    # inside the range the 2^lambda power joins the log sum: 2^600 / 601
    value = integrals.so_integral_closed_form(3, [600.0, 0.0, 0.0])
    assert math.log(value) == pytest.approx(600 * math.log(2.0) - math.log(601.0), rel=1e-14)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_gram_pass(capsys):
    code, out = run_cli(capsys, "kernel", "gram", "--p", "1", "--q", "2",
                        "--alpha", "1.0", "--seed", "4")
    assert code == EXIT_PASS
    assert json.loads(out)["verdict"] == "pass"


def test_kernel_gram_is_inconclusive_off_the_wallach_set(capsys):
    code, out = run_cli(capsys, "kernel", "gram", "--p", "2", "--q", "3",
                        "--alpha", "0.5", "--seed", "7")
    doc = json.loads(out)
    assert code == EXIT_PASS and doc["verdict"] == "inconclusive"
    assert doc["inputs"]["wallach_admissible"] is False
    code, out = run_cli(capsys, "kernel", "gram", "--p", "2", "--q", "3",
                        "--alpha", "1.5", "--seed", "7")
    doc = json.loads(out)
    assert code == EXIT_PASS and doc["verdict"] == "pass"
    assert doc["inputs"]["wallach_admissible"] is True


def test_kernel_witness_agrees_with_admissibility(capsys):
    code, out = run_cli(capsys, "kernel", "witness", "--p", "2", "--q", "3",
                        "--alpha", "0.5", "--seed", "4")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["observed"] == 1.0  # violation found
    assert doc["verdict"] == "pass"
    code, out = run_cli(capsys, "kernel", "witness", "--p", "2", "--q", "3",
                        "--alpha", "1.0", "--samples", "200", "--seed", "4")
    doc = json.loads(out)
    assert doc["observed"] == 0.0
    assert doc["verdict"] == "pass"


def test_kernel_covariance_and_domination(capsys):
    code, out = run_cli(capsys, "kernel", "covariance", "--p", "2", "--q", "3",
                        "--alpha", "1.0", "--samples", "60", "--seed", "4")
    assert code == EXIT_PASS
    assert json.loads(out)["observed"] < 1e-10
    code, out = run_cli(capsys, "kernel", "domination", "--p", "1", "--q", "2",
                        "--alpha", "1.0", "--samples", "2000", "--seed", "4")
    assert code == EXIT_PASS
    assert json.loads(out)["observed"] == 0.0


KERNEL_ARGV = {
    "gram": ("--samples", "40"),
    "witness": ("--alpha", "0.5"),
    "covariance": ("--samples", "60"),
    "domination": ("--samples", "300"),
}


@pytest.mark.parametrize("sub", sorted(KERNEL_ARGV))
def test_kernel_reports_repeat_under_a_seed(capsys, sub):
    argv = ("kernel", sub, "--p", "2", "--q", "3", "--alpha", "1.5", *KERNEL_ARGV[sub],
            "--seed", "11")
    docs = []
    for _ in range(2):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_PASS
        doc = json.loads(out)
        doc.pop("duration")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["verdict"] == "pass"


def _recording(monkeypatch, name):
    """Wrap berezin.<name> so each call's arguments are kept."""
    calls, original = [], getattr(berezin, name)
    monkeypatch.setattr(berezin, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_kernel_checks_evaluate_the_seeded_stacks(capsys, monkeypatch):
    # each check draws whole stacks, in the order g, z, u (covariance),
    # z, u, c (domination) or one (n, 12) stack (gram)
    argv = ("--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "30", "--seed", "9")
    gen = np.random.default_rng(9)
    g = random_pseudo_orthogonal(2, 3, gen, size=30)
    z, u = random_ball_point(2, 3, gen, size=30), random_ball_point(2, 3, gen, size=30)
    calls = _recording(monkeypatch, "covariance_residual")
    _, out = run_cli(capsys, "kernel", "covariance", *argv)
    (g_seen, z_seen, u_seen, _), = calls
    assert np.array_equal(g_seen, g)
    assert np.array_equal(z_seen, z) and np.array_equal(u_seen, u)
    assert json.loads(out)["observed"] == np.max(berezin.covariance_residual(g, z, u, 1.5))

    gen = np.random.default_rng(9)
    z, u = random_ball_point(2, 3, gen, size=30), random_ball_point(2, 3, gen, size=30)
    c = gen.uniform(0.0, 1.0, 30)
    c[:4] = (0.999, 0.5, 0.999, 0.5)  # the tight end of the bound comes first
    calls = _recording(monkeypatch, "domination_residual")
    run_cli(capsys, "kernel", "domination", *argv)
    (z_seen, u_seen, c_seen, _), = calls
    assert np.array_equal(z_seen, z) and np.array_equal(u_seen, u)
    assert np.array_equal(c_seen, c)

    configs = random_ball_point(2, 3, 9, size=(30, 12))
    calls = _recording(monkeypatch, "gram_spectrum")
    _, out = run_cli(capsys, "kernel", "gram", *argv)
    assert np.array_equal(calls[0][0], configs)
    assert json.loads(out)["observed"] == np.min(berezin.gram_spectrum(configs, 1.5).ratio)


def _one_nan(n, fill):
    """``fill`` everywhere except one NaN, which a NaN-dropping reduction would skip."""
    out = np.full(n, fill)
    out[n // 2] = np.nan
    return out


def _nan_gram(points, alpha):
    n = len(points)
    return berezin.GramReport(_one_nan(n, 1.0), np.ones(n))


@pytest.mark.parametrize("sub,name,fake", [
    ("gram", "gram_spectrum", _nan_gram),
    ("covariance", "covariance_residual", lambda g, z, u, alpha: _one_nan(len(z), 0.0)),
    ("domination", "domination_residual", lambda z, u, c, alpha: _one_nan(len(z), 0.0)),
])
def test_nan_kernel_evidence_fails(capsys, monkeypatch, sub, name, fake):
    monkeypatch.setattr(berezin, name, fake)
    code, out = run_cli(capsys, "kernel", sub, "--p", "2", "--q", "3", "--alpha", "1.5",
                        "--samples", "20", "--seed", "4")
    doc = json.loads(out)
    assert doc["observed"] == "nan"
    assert code == EXIT_FAIL and doc["verdict"] == "fail"


@pytest.mark.parametrize("sub,alpha,samples,verdict", [
    # K, and for domination 2^(p alpha) K, is past the float range
    ("gram", "400", "50", "pass"),
    ("gram", "1000", "50", "pass"),
    ("witness", "200", "50", "pass"),
    ("witness", "1000", "1000", "pass"),
    ("covariance", "200", "200", "pass"),
    ("covariance", "100000", "200", "pass"),
    ("domination", "400", "10000", "pass"),
    ("domination", "1000", "10000", "pass"),
    # off the Wallach set: the Gram is indefinite and the witness search finds so
    ("gram", "-100000", "50", "inconclusive"),
    ("witness", "-100000", "1000", "pass"),
])
def test_a_kernel_check_past_the_float_range_is_judged(capsys, sub, alpha, samples, verdict):
    # the checks work from log det(1 - z u^t), so each is judged as at alpha = 50
    code, out = run_cli(capsys, "kernel", sub, "--p", "2", "--q", "3", f"--alpha={alpha}",
                        "--samples", samples, "--seed", "7")
    doc = json.loads(out)
    assert code == EXIT_PASS and doc["verdict"] == verdict
    assert math.isfinite(doc["observed"])


@pytest.mark.parametrize("alpha", ["12", "100", "1000"])
def test_kernel_gram_at_large_alpha_passes_on_a_measured_margin(capsys, alpha):
    # the raw Gram read -1.0e-18 and -4.3e-16 at alpha = 12 and 100: roundoff
    code, out = run_cli(capsys, "kernel", "gram", "--p", "2", "--q", "3", "--alpha", alpha,
                        "--seed", "1")
    doc = json.loads(out)
    assert code == EXIT_PASS and doc["verdict"] == "pass"
    assert doc["observed"] >= 1e-6


def test_the_covariance_bound_grows_with_alpha(capsys):
    # log K = -alpha L carries alpha times the roundoff of L
    for alpha, bound in (("0.5", 1e-10), ("1e5", 1e-5)):
        _, out = run_cli(capsys, "kernel", "covariance", "--p", "2", "--q", "3",
                         "--alpha", alpha, "--samples", "20")
        assert json.loads(out)["expected"] == [0.0, bound]


@pytest.mark.parametrize("sub", sorted(KERNEL_ARGV))
def test_kernel_checks_at_alpha_50_stay_in_range_and_pass(capsys, sub):
    code, out = run_cli(capsys, "kernel", sub, "--p", "2", "--q", "3", "--alpha", "50",
                        "--seed", "7")
    doc = json.loads(out)
    assert code == EXIT_PASS and doc["verdict"] == "pass"
    assert math.isfinite(doc["observed"])


@pytest.mark.parametrize("sub", ["gram", "witness"])
def test_a_gram_matrix_past_the_float_range_exits_three(capsys, sub):
    # alpha log det(1 - z u^t) overflows: gram_spectrum refuses the Gram
    # matrix, so no NaN ratio reaches the witness search or a verdict
    err = _refused(capsys, "kernel", sub, "--p", "2", "--q", "3", "--alpha", "1e308",
                   "--samples", "50", "--seed", "4")
    assert err.startswith("berezin-lab: InvalidParams: the Gram matrix at alpha = 1e+308 "
                          "is not finite"), err


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def test_boundary_probe_below_threshold(capsys):
    code, out = run_cli(capsys, "boundary", "probe", "--p", "2", "--q", "4", "--r", "1",
                        "--alpha", "1.0", "--samples", "30000", "--seed", "1729")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["inputs"]["threshold"] == pytest.approx(2.0)
    assert doc["expected"] == pytest.approx(1.5)
    # on the edge 2 alpha = threshold the variance diverges logarithmically
    assert doc["inputs"]["diagnostics"]["variance"] == "infinite"


def test_boundary_probe_above_threshold_is_inconclusive(capsys):
    code, out = run_cli(capsys, "boundary", "probe", "--p", "2", "--q", "4", "--r", "1",
                        "--alpha", "2.5", "--samples", "10000", "--seed", "1729")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["verdict"] == "inconclusive"
    assert doc["expected"] is None and doc["z_score"] is None
    assert doc["inputs"]["diagnostics"] == {"max_abs": doc["inputs"]["diagnostics"]["max_abs"],
                                            "n_resamples": 0, "stderr_expected": None}


# The square of an SO integrand is the integrand at doubled exponents, so the
# variance is infinite where the closed form refuses them (2 alpha >= threshold
# for a probe).  The observed stderr is then biased low, z reads -12.9 and -6.0
# at these seeds, and the quadrature decides instead.
_INFINITE_VARIANCE = {
    "boundary": (("boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1.8",
                  "--samples", "20000", "--seed", "4"), berezin, "restriction_quadrature"),
    "integral": (("integral", "so", "--n", "3", "--lambda", "-0.8,0.3,0",
                  "--samples", "20000", "--seed", "7"), integrals, "so_integral_quadrature"),
}


@pytest.mark.parametrize("name", sorted(_INFINITE_VARIANCE))
def test_infinite_variance_is_decided_by_the_quadrature(capsys, name):
    argv, _, _ = _INFINITE_VARIANCE[name]
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code == EXIT_PASS and doc["verdict"] == "pass"
    assert doc["inputs"]["diagnostics"]["variance"] == "infinite"
    assert abs(doc["z_score"]) > 3  # still computed and reported


@pytest.mark.parametrize("name", sorted(_INFINITE_VARIANCE))
def test_a_wrong_quadrature_fails_where_the_variance_is_infinite(capsys, monkeypatch, name):
    argv, module, attr = _INFINITE_VARIANCE[name]
    right = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: 1.01 * right(*args))
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_FAIL and json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize("argv", [
    ("integral", "sp", "--n", "1", "--lambda", "-2", "--samples", "20000", "--seed", "6"),
    ("integral", "u", "--n", "1", "--lambda", "-0.8", "--mu", "0", "--samples", "20000",
     "--seed", "6"),
], ids=lambda argv: argv[1])
def test_infinite_variance_without_a_quadrature_is_inconclusive(capsys, argv):
    # U and Sp have no quadrature: where the closed form refuses the doubled
    # exponents, z (-3.24 and -6.57 at these seeds) is reported and nothing judged
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code == EXIT_PASS and doc["verdict"] == "inconclusive"
    assert doc["inputs"]["diagnostics"]["variance"] == "infinite"
    assert abs(doc["z_score"]) > 3


_MC = {
    "so": ("integral", "so", "--n", "3", "--lambda", "1,0.5,0", "--samples", "200000",
           "--seed", "7"),
    "so-infinite": ("integral", "so", "--n", "3", "--lambda", "-0.5,0.3,0",
                    "--samples", "200000", "--seed", "7"),
    "probe-edge": ("boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1.0",
                   "--samples", "100000"),
    "u-bounded": ("integral", "u", "--n", "1", "--lambda", "-0.8", "--mu", "0.8",
                  "--samples", "20000", "--seed", "6"),
    "u": ("integral", "u", "--n", "3", "--lambda", "1,0.5,0", "--mu", "0.5,0,0",
          "--samples", "20000", "--seed", "7"),
    "sp": ("integral", "sp", "--n", "3", "--lambda", "1,0.5,0", "--samples", "20000",
           "--seed", "7"),
    "sp-infinite": ("integral", "sp", "--n", "1", "--lambda", "-2", "--samples", "20000",
                    "--seed", "6"),
}


@pytest.mark.parametrize("name", ["so", "u-bounded", "u", "sp"])
def test_the_observed_stderr_matches_the_one_the_second_moment_predicts(capsys, name):
    # the README's finite-variance integral, and a bounded U integrand, per field
    code, out = run_cli(capsys, *_MC[name])
    doc = json.loads(out)
    assert code == EXIT_PASS
    assert doc["stderr"] == pytest.approx(doc["inputs"]["diagnostics"]["stderr_expected"],
                                          rel=0.1)


@pytest.mark.parametrize("name", ["so-infinite", "probe-edge", "sp-infinite"])
def test_no_stderr_is_predicted_at_infinite_variance(capsys, monkeypatch, name):
    monkeypatch.delenv("BEREZIN_SEED", raising=False)
    _, out = run_cli(capsys, *_MC[name])
    diagnostics = json.loads(out)["inputs"]["diagnostics"]
    assert diagnostics["variance"] == "infinite" and diagnostics["stderr_expected"] is None


def test_a_finite_variance_probe_is_decided_by_the_z_test(capsys):
    # 2 alpha = 2 < threshold 2.5: no quadrature, and the seeded report is as before
    code, out = run_cli(capsys, "boundary", "probe", "--p", "3", "--q", "6", "--r", "1",
                        "--alpha", "1.0", "--samples", "20000", "--seed", "7")
    doc = json.loads(out)
    assert code == EXIT_PASS
    assert doc["inputs"] == {
        "p": 3, "q": 6, "r": 1, "alpha": 1.0, "samples": 20000, "threshold": 2.5,
        "diagnostics": {"max_abs": 59.768396555528376, "n_resamples": 0,
                        "stderr_expected": 0.019002923751652297},
    }
    assert (doc["expected"], doc["observed"], doc["stderr"], doc["z_score"], doc["verdict"]) == (
        1.6666666666666696, 1.658416690799243, 0.014306829746072856, -0.5766459805458416, "pass")


_FINITE = ["max_abs", "n_resamples", "stderr_expected"]
_INFINITE = [*_FINITE, "variance"]
# name: ((mean, stderr, expected, second moment, oracle_rel), (z_score, verdict, diagnostics))
_MC_FIELDS_TABLE = {
    "finite, z passes": ((1.25, 0.125, 1.0, 2.0, None), (2.0, "pass", _FINITE)),
    "finite, z fails": ((1.5, 0.125, 1.0, 2.0, None), (4.0, "fail", _FINITE)),
    "finite, oracle fails": ((1.25, 0.125, 1.0, 2.0, 1e-6), (2.0, "fail", _FINITE)),
    "zero stderr, rel passes": ((1.0, 0.0, 1.0, 1.0, None), (None, "pass", _FINITE)),
    "zero stderr, rel fails": ((1.0 + 1e-6, 0.0, 1.0, 1.0, None), (None, "fail", _FINITE)),
    "infinite, no oracle": ((1.5, 0.125, 1.0, math.inf, None), (4.0, "inconclusive", _INFINITE)),
    "infinite, oracle passes": ((1.5, 0.125, 1.0, math.inf, 1e-12), (4.0, "pass", _INFINITE)),
    "infinite, oracle fails": ((1.0, 0.125, 1.0, math.inf, 1e-6), (0.0, "fail", _INFINITE)),
    "nothing expected": ((1.5, 0.125, None, math.inf, None), (None, "inconclusive", _FINITE)),
}


@pytest.mark.parametrize("name", list(_MC_FIELDS_TABLE))
def test_mc_fields_judges_every_monte_carlo_case(name):
    (mean, stderr, expected, second_moment, oracle_rel), (z, verdict, keys) = (
        _MC_FIELDS_TABLE[name])
    args = argparse.Namespace(tol={"z": 3.0, "rel": 1e-8})
    mc = integrals.MCEstimate(mean=mean, stderr=stderr, n_samples=100, seed=0, n_resamples=2,
                              max_abs=3.0)
    inputs = {"n": 3}
    fields = cli._mc_fields(args, inputs, mc, expected, second_moment, oracle_rel)
    assert fields["inputs"] is inputs and list(inputs) == ["n", "diagnostics"]
    assert (fields["expected"], fields["observed"], fields["stderr"]) == (expected, mean, stderr)
    assert (fields.get("z_score"), fields["verdict"]) == (z, verdict)
    diagnostics = inputs["diagnostics"]
    assert list(diagnostics) == keys
    assert (diagnostics["max_abs"], diagnostics["n_resamples"]) == (3.0, 2)
    if keys == _INFINITE:
        assert diagnostics["variance"] == "infinite" and diagnostics["stderr_expected"] is None
    elif expected is None:
        assert diagnostics["stderr_expected"] is None
    else:  # sqrt((E f^2 - expected^2) / N)
        assert diagnostics["stderr_expected"] == math.sqrt((second_moment - 1.0) / 100)


# ---------------------------------------------------------------------------
# plancherel
# ---------------------------------------------------------------------------


def test_plancherel_blocks_table(capsys):
    code, out = run_cli(capsys, "plancherel", "blocks", "--p", "2", "--q", "5",
                        "--alpha", "0.5")
    assert code == EXIT_PASS
    rows = json.loads(out)
    assert {(r["r"], tuple(r["u"])) for r in rows} == {
        (0, ()), (1, (0,)), (1, (1,)), (2, (0, 0)),
    }


def test_plancherel_blocks_over_budget_is_a_usage_error(capsys):
    for sub in ("blocks", "degeneration"):
        code, out = run_cli(capsys, "plancherel", sub, "--p", "8", "--q", "20",
                            "--alpha", "-40")
        assert code == EXIT_USAGE
        assert out == ""


def test_plancherel_weight_grid(capsys):
    code, out = run_cli(capsys, "plancherel", "weight", "--p", "2", "--q", "5",
                        "--alpha", "2.5", "--samples", "30")
    assert code == EXIT_PASS
    assert json.loads(out)["verdict"] == "pass"


def test_plancherel_weight_judges_overflowed_weights_by_their_sign(capsys):
    # W overflows at (20, 20, 400) where s_1 = 0, and s_1 = 5, 10 meet a fixed coordinate,
    # whose zero pair factor makes W an exact zero however large the Gamma factors are
    argv = ("plancherel", "weight", "--p", "20", "--q", "20", "--alpha", "400", "--samples", "3")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == EXIT_PASS
        assert out.splitlines() == ["s,weight", "0.0,inf", "5.0,0.0", "10.0,0.0"]
        code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code == EXIT_PASS
    assert (doc["verdict"], doc["observed"]) == ("pass", 0.0)


@pytest.mark.parametrize("weights,observed,verdict", [
    ([np.inf, 0.0, 2.0], 0.0, "pass"),
    ([np.inf, -np.inf, 2.0], "-inf", "fail"),
    ([np.inf, np.nan, 2.0], "nan", "fail"),
])
def test_plancherel_weight_judges_infinities_by_sign_and_fails_nan(
        capsys, monkeypatch, weights, observed, verdict):
    from berezin_lab import plancherel

    monkeypatch.setattr(plancherel, "continuous_weight_o", lambda params, s: np.array(weights))
    code, out = run_cli(capsys, "plancherel", "weight", "--p", "2", "--q", "5", "--alpha", "2.5",
                        "--samples", "3")
    doc = json.loads(out)
    assert (doc["verdict"], doc["observed"]) == (verdict, observed)
    assert code == (EXIT_PASS if verdict == "pass" else EXIT_FAIL)


def test_plancherel_degeneration(capsys):
    for alpha in ("-1", "-2", "1.3"):
        code, out = run_cli(capsys, "plancherel", "degeneration", "--p", "2", "--q", "5",
                            "--alpha", alpha)
        assert code == EXIT_PASS
        assert json.loads(out)["verdict"] == "pass"


def test_plancherel_degeneration_past_the_lgamma_range_passes(capsys):
    # Gamma arguments near 1e306, past the ~2.5e305 where math.lgamma overflows
    code, out = run_cli(capsys, "plancherel", "degeneration", "--p", "2", "--q", "3",
                        "--alpha", "1e306")
    assert code == EXIT_PASS and json.loads(out)["verdict"] == "pass"


def test_degeneration_blocks_match_per_block_rows_at_scale(capsys):
    # 4837 blocks over ranks 0-5: more blocks and higher ranks than any pin
    from berezin_lab import plancherel

    p, q, alpha = 5, 12, -6.0
    code, out = run_cli(capsys, "plancherel", "degeneration", "--p", str(p), "--q", str(q),
                        "--alpha", str(alpha))
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    rows = []
    blocks = plancherel.surviving_blocks(plancherel.PlancherelParams(p, q, alpha))
    for r, labels in plancherel.label_stacks(blocks):
        value = plancherel.coeff_C(labels, p) * plancherel.coeff_V_o(alpha, labels, p, q)
        for u, pole, zero in zip(labels, value.is_pole, value.is_zero):
            status = "pole" if pole else "zero" if zero else "finite"
            rows.append({"r": r, "u": [int(k) for k in u], "status": status})
    assert len(rows) == 4837 and {row["r"] for row in rows} == set(range(p + 1))
    assert json.dumps(doc["inputs"]["blocks"], indent=2) == json.dumps(rows, indent=2)


def test_plancherel_rank1(capsys):
    code, out = run_cli(capsys, "plancherel", "rank1", "--q", "3", "--alpha", "4",
                        "--seed", "11")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["observed"] < 1e-8
    assert set(doc["inputs"]) == {"q", "alpha", "t_grid", "nodes", "oracle_error",
                                  "s_step_error"}


@pytest.mark.parametrize("q, alpha", [("3", "1.2"), ("3", "1.01"), ("2", "0.6")])
def test_plancherel_rank1_near_threshold_is_inconclusive(capsys, q, alpha):
    # the Simpson step in s, not the formula, sets the residual here: its
    # estimate exceeds the 1e-3 tolerance, so no verdict can be given
    code, out = run_cli(capsys, "plancherel", "rank1", "--q", q, "--alpha", alpha)
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["verdict"] == "inconclusive"
    assert doc["expected"] == [0.0, 1e-3]
    assert doc["inputs"]["s_step_error"] > 1e-3


def test_plancherel_rank1_ignores_samples_and_seed(capsys):
    _, a = run_cli(capsys, "plancherel", "rank1", "--q", "3", "--alpha", "2",
                   "--samples", "40000", "--seed", "1")
    _, b = run_cli(capsys, "plancherel", "rank1", "--q", "3", "--alpha", "2", "--seed", "2")
    da, db = json.loads(a), json.loads(b)
    assert da["verdict"] == "pass"
    for key in ("inputs", "expected", "observed"):
        assert da[key] == db[key]


# ---------------------------------------------------------------------------
# catalog and ledger
# ---------------------------------------------------------------------------


def test_catalog_sweep(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == EXIT_PASS
    doc = json.loads(out)
    rows = doc["inputs"]["rows"]
    assert len(rows) == 12
    assert all(r["sweep_ok"] for r in rows)
    assert doc["verdict"] == "pass"


def test_catalog_corrupt_self_test(capsys):
    code, out = run_cli(capsys, "catalog", "--self-test-corrupt")
    assert code == EXIT_PASS
    doc = json.loads(out)
    flagged = [r["index"] for r in doc["inputs"]["rows"] if not r["sweep_ok"]]
    assert flagged == [8]
    assert doc["verdict"] == "pass"


def test_ledger_lists_adjudications(capsys):
    code, out = run_cli(capsys, "ledger")
    assert code == EXIT_PASS
    rows = json.loads(out)
    assert len(rows) >= 10
    assert {"identity", "status", "evidence"} <= set(rows[0])
    statuses = {r["status"] for r in rows}
    assert "two-power-corrected" in statuses
    text = out.lower()
    for banned in ("paper", "spec", "eq (", "theorem", "lemma"):
        assert banned not in text


def test_ledger_rows_callable():
    rows = ledger_rows()
    assert all(isinstance(r, dict) for r in rows)


def test_ledger_cited_tests_exist():
    root = pathlib.Path(__file__).resolve().parent.parent
    cited = [
        m.groups()
        for row in ledger_rows()
        for m in re.finditer(r"(tests/\w+\.py)::(\w+)", row["evidence"])
    ]
    assert all(re.search(r"tests/\w+\.py::\w+", row["evidence"]) for row in ledger_rows())
    for path, name in cited:
        source = (root / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {name}\(", source, re.M), f"{path}::{name}"


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "integral", "sp", "--n", "1", "--lambda", "2",
                        "--samples", "8192", "--seed", "5", "--out", str(target))
    assert code == EXIT_PASS
    assert out == ""
    assert json.loads(target.read_text())["verdict"] == "pass"


def test_out_to_a_missing_directory_exits_three(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    err = _refused(capsys, "haar", "so", "--n", "2", "--samples", "1", "--out", str(target))
    assert f"cannot write --out {str(target)!r}: No such file or directory" in err
    assert not target.parent.exists()


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BEREZIN_SEED", raising=False)
    seen = []
    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda args: seen.append(args) or resolve(args))
    target = tmp_path / "probe.csv"
    probe = ["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1",
             "--samples", "200", "--seed", "1"]
    code, out = run_cli(capsys, *probe, "--tol", "z=5", "--format", "csv", "--out", str(target))
    assert code == EXIT_PASS and out == ""
    assert target.read_text().startswith("command,inputs")
    code, out = run_cli(capsys, "plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "0.4")
    assert code == EXIT_PASS
    assert len(json.loads(out)) == 6
    assert (seen[0].tol, seen[0].format, seen[0].out) == (
        {"z": 5.0, "rel": 1e-8}, "csv", str(target))
    assert (seen[1].tol, seen[1].format, seen[1].out) == ({}, "json", None)
    # the seed is resolved only for a command that takes --seed
    assert seen[0].seed == 1 and "seed" not in seen[1]
    code, _ = run_cli(capsys, *probe[:-2])
    assert code == EXIT_PASS and seen[2].seed == cli.DEFAULT_SEED
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv,reads", [
    (["haar", "sp", "--n", "2", "--samples", "2"], ("res",)),
    (["integral", "so", "--n", "3", "--lambda", "1,0.5,0", "--samples", "200"], ("z", "rel")),
    (["integral", "u", "--n", "2", "--lambda", "1,0", "--samples", "200"], ("z", "rel")),
    (["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1",
      "--samples", "200"], ("z", "rel")),
    (["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "5"], ("pd",)),
    (["kernel", "witness", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "5"], ()),
    (["kernel", "covariance", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "5"],
     ("res",)),
    (["kernel", "domination", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "5"], ()),
    (["plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "0.4"], ()),
    (["plancherel", "weight", "--p", "2", "--q", "5", "--alpha", "3", "--samples", "5"], ()),
    (["plancherel", "degeneration", "--p", "2", "--q", "5", "--alpha", "-2"], ()),
    (["plancherel", "rank1", "--q", "3", "--alpha", "2"], ("res",)),
    (["catalog"], ()),
    (["ledger"], ()),
])
def test_a_tol_name_the_command_does_not_read_exits_three(capsys, argv, reads):
    # a misspelt or misplaced --tol would otherwise leave the default in force
    for name in ("z", "rel", "res", "pd", "zz"):
        code = main([*argv, "--tol", f"{name}=0.5"])
        captured = capsys.readouterr()
        if name in reads:
            assert code != EXIT_USAGE, (argv, name)
        else:
            assert code == EXIT_USAGE and captured.out == "", (argv, name)
            assert captured.err.rstrip().endswith(f"accepted names: {', '.join(reads) or 'none'}")


def test_usage_errors_exit_three(capsys):
    blocks = ["plancherel", "blocks", "--p", "2", "--q", "3", "--alpha"]
    cases = [
        ["nosuchcommand"],
        ["integral", "so", "--n", "2"],  # missing --lambda
        ["integral", "so", "--n", "0", "--lambda", "1,0"],
        ["integral", "so", "--n", "2", "--lambda", "1,0,0"],
        ["integral", "so", "--n", "2", "--lambda", "abc"],
        ["kernel", "gram", "--p", "3", "--q", "2", "--alpha", "1"],
        ["boundary", "probe", "--p", "2", "--q", "4", "--r", "5", "--alpha", "1"],
        ["integral", "so", "--n", "2", "--lambda", "1,0", "--tol", "z=-1"],
        ["integral", "so", "--n", "2", "--lambda", "1,0", "--tol", "zzz"],
        # a tolerance must be finite: inf would let any observation pass
        ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1", "--tol", "pd=inf"],
        ["integral", "so", "--n", "2", "--lambda", "1,0", "--tol", "z=inf"],
        ["integral", "so", "--n", "2", "--lambda", "1,0", "--tol", "rel=inf"],
        # malformed values are refused before any command runs
        ["integral", "so", "--n", "2", "--lambda", ","],
        # every CSV field is parsed: an empty one is refused, not dropped
        ["integral", "so", "--n", "2", "--lambda", "1,,0"],
        ["integral", "so", "--n", "2", "--lambda", "1,0,"],
        ["integral", "so", "--n", "2", "--lambda", "1, ,0"],
        ["integral", "u", "--n", "2", "--lambda", "1,0", "--mu", "0,,1"],
        ["kernel", "gram", "--p", "0", "--q", "3", "--alpha", "1"],
        ["kernel", "covariance", "--p", "0", "--q", "3", "--alpha", "1"],
        ["kernel", "domination", "--p", "0", "--q", "3", "--alpha", "1"],
        ["kernel", "covariance", "--p", "3", "--q", "2", "--alpha", "1"],
        [*blocks, "nan"],
        ["plancherel", "weight", "--p", "2", "--q", "3", "--alpha", "nan"],
        ["plancherel", "degeneration", "--p", "2", "--q", "3", "--alpha", "inf"],
        ["plancherel", "rank1", "--q", "3", "--alpha", "nan"],
        ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "nan"],
        ["integral", "so", "--n", "2", "--lambda", "1,0", "--tol", "z=abc"],
        ["integral", "so", "--n", "2", "--lambda", "1,0", "--tol", "z=0"],
        ["integral", "so", "--n", "2", "--lambda", "1,0", "--tol", "z=nan"],
        ["integral", "so", "--n", "2", "--lambda", "1,0", "--samples", "0"],
        ["integral", "so", "--n", "2", "--lambda", "1,0", "--format", "xml"],
        ["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "nan"],
        ["boundary", "probe", "--p", "2", "--q", "4", "--r", "-1", "--alpha", "1"],
        ["integral", "so", "--n", "2", "--lambda", "nan,0"],
        ["integral", "u", "--n", "1", "--lambda", "1", "--mu", "x"],
        # a CSV flag without its value, at the end or before another option
        ["integral", "so", "--n", "2", "--lambda"],
        ["integral", "u", "--n", "1", "--lambda", "1", "--mu", "--seed", "3"],
        # commands that draw nothing take neither --samples nor --seed
        [*blocks, "0.4", "--samples", "5"],
        ["plancherel", "degeneration", "--p", "2", "--q", "5", "--alpha", "-2", "--seed", "1"],
        ["catalog", "--samples", "5"],
        ["ledger", "--seed", "1"],
        ["plancherel", "weight", "--p", "2", "--q", "3", "--alpha", "1", "--seed", "1"],
    ]
    for argv in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE, argv
        assert captured.out == "", argv
        # one line, never a traceback
        assert captured.err.startswith("berezin-lab") and captured.err.count("\n") == 1, argv


# A tiny budget for every command of the table; commands that draw take a seed.
_RUNNER_CASES = {
    ("haar", "so"): ["--n", "2", "--samples", "2", "--seed", "3"],
    ("haar", "u"): ["--n", "2", "--samples", "2", "--seed", "3"],
    ("haar", "sp"): ["--n", "1", "--samples", "2", "--seed", "3"],
    ("integral", "so"): ["--n", "2", "--lambda", "1,0", "--samples", "300", "--seed", "3"],
    ("integral", "u"): ["--n", "2", "--lambda", "1,0", "--mu", "0,1", "--samples", "300",
                        "--seed", "3"],
    ("integral", "sp"): ["--n", "1", "--lambda", "2", "--samples", "300", "--seed", "3"],
    ("kernel", "gram"): ["--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "4",
                         "--seed", "3"],
    ("kernel", "witness"): ["--p", "2", "--q", "3", "--alpha", "0.5", "--samples", "20",
                            "--seed", "3"],
    ("kernel", "covariance"): ["--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "8",
                               "--seed", "3"],
    ("kernel", "domination"): ["--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "20",
                               "--seed", "3"],
    ("boundary", "probe"): ["--p", "2", "--q", "4", "--r", "1", "--alpha", "1.0", "--samples",
                            "500", "--seed", "3"],
    ("plancherel", "blocks"): ["--p", "2", "--q", "5", "--alpha", "0.4"],
    ("plancherel", "weight"): ["--p", "2", "--q", "5", "--alpha", "2.5", "--samples", "5"],
    ("plancherel", "degeneration"): ["--p", "3", "--q", "3", "--alpha", "-4"],
    ("plancherel", "rank1"): ["--q", "3", "--alpha", "2", "--samples", "10", "--seed", "3"],
    ("catalog",): ["--self-test-corrupt"],
    ("ledger",): [],
}


def _parser_commands():
    """Every (command, subcommand) path of the CLI's parser."""
    def paths(parser, prefix):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return [prefix]
        return [p for name, sub in subs[0].choices.items() for p in paths(sub, (*prefix, name))]

    return paths(cli._build_parser(), ())


def test_runner_cases_cover_the_parser():
    assert sorted(_parser_commands()) == sorted(_RUNNER_CASES)


@pytest.mark.parametrize("path", sorted(_RUNNER_CASES), ids=" ".join)
def test_runner_renders_every_command_in_both_formats(capsys, path):
    argv = [*path, *_RUNNER_CASES[path]]
    code, out = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    if isinstance(doc, dict):  # a report: the exit code follows its verdict
        assert code == (EXIT_FAIL if doc["verdict"] == "fail" else EXIT_PASS)
    else:  # a table without a report
        assert code == EXIT_PASS and doc
    csv_code, csv_out = run_cli(capsys, *argv, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert rows and csv_code == code
    # an object or array cell is written compact
    for cell in (c for row in rows for c in row.values() if c[:1] in ("[", "{")):
        assert cell == json.dumps(json.loads(cell), separators=(",", ":")), cell
    if path[0] in ("haar", "catalog", "ledger") or path[-1] in ("blocks", "weight"):
        assert "verdict" not in rows[0]  # the command's own rows
    else:  # the report, flattened to one row
        assert list(rows[0]) == list(doc) and len(rows) == 1
        assert rows[0]["verdict"] == doc["verdict"]


def test_an_open_verdict_is_judged_by_the_interval_rule(capsys):
    # every report whose command leaves the verdict open passes exactly
    # when its observation lies in its expected interval
    degeneration = ["plancherel", "degeneration", "--p", "4", "--q", "12", "--alpha", "-2.5"]
    cases = [(path, [*path, *argv]) for path, argv in _RUNNER_CASES.items()]
    cases.append((("plancherel", "degeneration"), degeneration))
    judged = set()
    for path, argv in cases:
        args = cli._build_parser().parse_args(argv)
        cli._resolve(args)
        fields, _ = args.run(args)
        if fields is None or fields.get("verdict") is not None:
            continue
        judged.add(path)
        code, out = run_cli(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        inside = in_interval(float(doc["observed"]), doc["expected"])
        assert (doc["verdict"] == "pass") == inside, argv
        assert code == (EXIT_PASS if inside else EXIT_FAIL), argv
        if argv == degeneration:  # at a non-integer alpha it counts the pole blocks
            assert doc["observed"] == 0.0 and doc["verdict"] == "pass"
    # the Monte Carlo commands judge themselves, and tables carry no report
    assert judged == set(_RUNNER_CASES) - {("integral", "so"), ("integral", "u"),
                                           ("integral", "sp"), ("boundary", "probe"),
                                           ("plancherel", "blocks"), ("ledger",)}


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "berezin_lab.cli", "catalog"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


# Runs each argv through main in order in one fresh interpreter and prints,
# after each, its exit code and the scipy modules and the Gamma module loaded
# so far.  Modules only accumulate, so a module absent after a command was
# loaded by none of the commands before it.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from berezin_lab.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    runs.append([code, sorted(m for m in sys.modules
                              if m.partition(".")[0] == "scipy" or m == "berezin_lab.gammaval")])
print(json.dumps(runs))
"""


def test_commands_import_only_the_library_modules_they_run():
    no_gamma = [
        ["--version"],
        ["haar", "so", "--n", "2", "--samples", "1"],
        ["catalog"],
        ["ledger"],
    ]
    # the first command that needs a Gamma function, so the positive control:
    # it loads berezin_lab.gammaval, which the commands before it do not
    gamma = [["integral", "so", "--n", "2", "--lambda", "1,0", "--samples", "100"]]
    more = [
        ["kernel", "witness", "--p", "2", "--q", "3", "--alpha", "0.5", "--samples", "50"],
        ["boundary", "probe", "--p", "2", "--q", "3", "--r", "1", "--alpha", "0.5",
         "--samples", "100"],
        # 2 alpha = threshold 2: infinite variance, so the SO oracle runs as well
        ["boundary", "probe", "--p", "2", "--q", "4", "--r", "1", "--alpha", "1.0",
         "--samples", "100"],
        ["plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "0.4"],
        ["plancherel", "rank1", "--q", "3", "--alpha", "2"],
        ["integral", "u", "--n", "3", "--lambda", "1,0.5,0", "--mu", "0.5,0,0",
         "--samples", "2000"],
        ["integral", "sp", "--n", "3", "--lambda", "1,0.5,0", "--samples", "2000"],
        ["kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1.5"],
        ["plancherel", "degeneration", "--p", "4", "--q", "12", "--alpha", "-3"],
        ["plancherel", "weight", "--p", "5", "--q", "12", "--alpha", "3", "--samples", "20"],
    ]
    argvs = no_gamma + gamma + more
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {name: value for name, value in os.environ.items() if name != "BEREZIN_SEED"}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    for argv, (code, loaded) in zip(argvs, json.loads(proc.stdout), strict=True):
        assert code == EXIT_PASS, argv
        if argv in no_gamma:
            assert loaded == [], argv
        else:  # the positive control: the probe does see what a command loads
            assert loaded == ["berezin_lab.gammaval"], argv
