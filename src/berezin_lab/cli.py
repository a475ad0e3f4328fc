"""Command-line harness: seeded verification campaigns and report emission.

Exit codes: 0 for pass or inconclusive, 2 for a verification failure, 3
for usage or domain errors.  Commands are deterministic under a fixed
seed, an integer in [0, 2**63); a command that takes ``--seed`` draws from
it, or from ``DEFAULT_SEED`` when the flag is absent, and from nothing else.

A command only computes: it returns its report's fields and its table
rows.  ``main`` stamps the report with the command's name, the seed (None
for a seedless command) and the call's duration, and judges a verdict the
command left open by one rule: pass iff ``observed`` lies in the
``expected`` interval.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

# Each command imports the library module it runs inside its own body:
# `berezin`, `plancherel` and `hermitization` each take milliseconds to
# import, and start-up and the commands that do not run them skip that cost.
from . import __version__, compact
from .ball import random_ball_point, random_pseudo_orthogonal
from .errors import BerezinLabError, InvalidParams
from .reporting import (
    FAIL,
    FORMATS,
    INCONCLUSIVE,
    PASS,
    Table,
    VerificationReport,
    in_interval,
    render_report,
    render_table,
)
from .rngs import _SEED_BOUND, as_generator

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_USAGE = 3

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 200_000

_FIELD_BY_GROUP = {"so": compact.REAL, "u": compact.COMPLEX, "sp": compact.QUATERNION}
_REALIZATION = {"so": "real", "u": "complex", "sp": "complex2n"}
# Points per configuration of the Gram check.
_GRAM_POINTS = 12
# Block labels per C*V evaluation of the degeneration check: both spectral
# workload inventories take one, and a large inventory's temporaries stay bounded.
_CV_ROWS = 4096
# The first shrink factors of a domination run: near 1, where the bound is
# tightest, and 1/2, alternately; the rest are uniform on [0, 1).
_FIRST_SHRINKS = (1.0 - 1e-3, 0.5, 1.0 - 1e-3, 0.5)


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code moved from 2 to 3."""

    def error(self, message):  # noqa: A002 - argparse API
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(cast, ok, what: str):
    """An argparse type: ``cast`` of the text, refused unless ``ok`` holds."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expects {what}, got {text!r}")
        return value

    return parse


def _name_value(text: str) -> tuple[str, float]:
    name, _, value = text.partition("=")
    return name, float(value)


_POSITIVE_INT = _number(int, lambda v: v > 0, "a positive integer")
# a seed is recorded as the draws' root seed, which rngs keeps below 2**63
_SEED = _number(int, lambda v: 0 <= v < _SEED_BOUND, "an integer in [0, 2**63)")
# NaN and inf would let every observation pass
_TOLERANCE = _number(_name_value, lambda v: 0 < v[1] < math.inf, "NAME=REAL, REAL finite and > 0")
_VECTOR = _number(lambda text: [float(x) for x in text.split(",")],
                  lambda v: all(map(math.isfinite, v)), "a CSV of finite reals")
_OPTIONS = {
    "n": {"type": _POSITIVE_INT, "required": True},
    "p": {"type": _POSITIVE_INT, "required": True},
    "q": {"type": _POSITIVE_INT, "required": True},
    "r": {"type": _number(int, lambda v: v >= 0, "a nonnegative integer"), "required": True},
    "alpha": {"type": _number(float, math.isfinite, "a finite real"), "required": True},
    "lambda": {"dest": "lam", "type": _VECTOR, "required": True, "help": "exponent vector, CSV"},
    "mu": {"type": _VECTOR, "default": None, "help": "conjugate exponents, CSV"},
    "seed": {"type": _SEED, "default": DEFAULT_SEED},
    "self-test-corrupt": {"action": "store_true",
                          "help": "sweep a deliberately corrupted row; must detect the mismatch"},
}


def _join_option_values(argv: list[str]) -> list[str]:
    """``--flag -X`` as ``--flag=-X`` for every option, the rest unchanged.

    argparse takes a separate value that starts with ``-`` for an option
    unless it reads as a plain negative number, so ``-0.5,0.3,0`` or
    ``-1e-1`` would be refused.  No option here has a single dash but
    ``-h``, so any other ``-X`` after a ``--flag`` is that flag's value,
    joined to it and refused, if at all, by the option's own type.  A
    flag already holding ``=`` or followed by another ``--`` option is
    left alone, so argparse still refuses a missing value.
    """
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and arg.startswith("-") and not arg.startswith("--") and arg != "-h"):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def _resolve(args: argparse.Namespace) -> None:
    """Settle what parsing leaves open, once, before the command runs.

    Parsing settles the seed: ``--seed`` or, when absent, ``DEFAULT_SEED``
    is the only source of one.  ``args.tol`` becomes the row's
    {name: default} with every ``--tol`` applied; a name the row does not
    list is refused.
    """
    tol = dict(args.tols)
    for name, value in args.tol:
        if name not in tol:
            accepted = ", ".join(tol) or "none"
            raise InvalidParams(f"--tol {name!r} is not read here; accepted names: {accepted}")
        tol[name] = value
    args.tol = tol


def _mc_fields(args, inputs: dict, mc, expected: float | None, second_moment: float,
               oracle_rel: float | None = None) -> dict:
    """A Monte Carlo check's report fields, its diagnostics written into ``inputs``.

    The diagnostics are max |value|, the redraws and ``stderr_expected``,
    sqrt((E f^2 - expected^2) / N) from the second moment E f^2: the
    standard error the estimate should show, None where nothing is
    expected or the variance is infinite, which ``variance`` then says.

    With nothing expected the verdict is inconclusive.  Where the variance
    is finite, z decides: |z| <= ``z``.  A zero standard error (every draw
    equal) carries no scale for a z-score, so the mean must then match to
    ``rel`` and the z-score is None.  The relative difference ``oracle_rel``
    of a deterministic oracle, when one was computed, must also be <=
    ``rel``.  Where the variance is infinite the observed standard error is
    biased low, so z is only reported: the oracle decides alone, and
    without one the verdict is inconclusive.
    """
    diagnostics = {"max_abs": mc.max_abs, "n_resamples": mc.n_resamples, "stderr_expected": None}
    inputs["diagnostics"] = diagnostics
    fields = {"inputs": inputs, "expected": expected, "observed": mc.mean, "stderr": mc.stderr}
    if expected is None:
        return {**fields, "verdict": INCONCLUSIVE}
    finite_variance = math.isfinite(second_moment)
    if finite_variance:
        var = max(0.0, second_moment - expected * expected)
        diagnostics["stderr_expected"] = math.sqrt(var / mc.n_samples)
    else:
        diagnostics["variance"] = "infinite"
    rel = args.tol["rel"]
    if mc.stderr > 0:
        z = (mc.mean - expected) / mc.stderr
        mc_ok = abs(z) <= args.tol["z"]
    else:
        z, mc_ok = None, abs(mc.mean - expected) <= rel * abs(expected)
    if not finite_variance:
        if oracle_rel is None:
            return {**fields, "z_score": z, "verdict": INCONCLUSIVE}
        mc_ok = True
    ok = mc_ok and (oracle_rel is None or oracle_rel <= rel)
    return {**fields, "z_score": z, "verdict": PASS if ok else FAIL}


# ---------------------------------------------------------------------------
# Commands: each takes args and returns (report fields or None, rows or None)
# ---------------------------------------------------------------------------


def cmd_haar(args):
    """``--samples`` Haar matrices and their worst unitarity residual.

    The report carries no duration so equal seeds reproduce it byte for
    byte.  Only what the format emits is built: the matrices as the
    report's ``samples`` for JSON, a table of one row per matrix entry,
    built as columns, for CSV.
    """
    group, n, seed = args.subcommand, args.n, args.seed
    mats = compact.haar_sample_batch(_FIELD_BY_GROUP[group], n, args.samples, seed)
    gram = np.conj(np.swapaxes(mats, 1, 2)) @ mats
    worst = float(np.max(np.abs(gram - np.eye(mats.shape[1]))))
    rows = samples = None
    if args.format == "csv":
        head = [[value] * mats.size for value in (_REALIZATION[group], n, seed)]
        entries = [a.ravel() for a in (*np.indices(mats.shape), mats.real, mats.imag)]
        rows = Table(["realization", "n", "seed", "sample", "row", "col", "re", "im"],
                     head + entries)
    else:  # complex entries as [re, im] pairs
        samples = np.stack((mats.real, mats.imag), -1) if np.iscomplexobj(mats) else mats
    inputs = {"n": n, "count": args.samples, "realization": _REALIZATION[group]}
    return {"inputs": inputs, "expected": [0.0, args.tol["res"]], "observed": worst,
            "duration": None, "samples": samples}, rows


def cmd_integral(args):
    """Closed form(s) against Monte Carlo, and against the corner-law oracle for SO.

    Where the integrand's variance is infinite the z-score is reported but
    does not decide: the SO oracle does, and U and Sp, which have no
    oracle, read inconclusive.  The closed forms, the second moment
    included, come before the draws, so a Gamma product past the float
    range is refused (exit 3) before any sample is drawn.
    """
    from . import integrals

    group, n, lam, count, seed = args.subcommand, args.n, args.lam, args.samples, args.seed
    inputs: dict = {"group": group, "n": n, "lambda": list(lam), "samples": count}
    evaluations: dict = {}
    rel = None
    if group == "so":
        expected = integrals.so_integral_closed_form(n, lam, integrals.VARIANT_CORRECTED)
        evaluations["closed_form_corrected"] = expected
        evaluations["closed_form_as_printed"] = integrals.so_integral_closed_form(
            n, lam, integrals.VARIANT_AS_PRINTED
        )
        evaluations["quadrature"] = integrals.so_integral_quadrature(n, lam)
        rel = abs(evaluations["quadrature"] - expected) / abs(expected)
        evaluations["quadrature_rel_diff"] = rel
        second_moment = integrals.so_second_moment(n, lam)
        mc = integrals.so_integral_mc(n, lam, count, seed)
    elif group == "u":
        mu = [0.0] * n if args.mu is None else args.mu
        inputs["mu"] = list(mu)
        expected = integrals.u_integral_closed_form(n, lam, mu)
        second_moment = integrals.u_second_moment(n, lam, mu)
        mc = integrals.u_integral_mc(n, lam, mu, count, seed)
    else:
        expected = integrals.sp_integral_closed_form(n, lam)
        second_moment = integrals.sp_second_moment(n, lam)
        mc = integrals.sp_integral_mc(n, lam, count, seed)
    inputs["evaluations"] = evaluations
    return _mc_fields(args, inputs, mc, expected, second_moment, rel), None


def cmd_kernel(args):
    """One kernel check over ``--samples`` samples drawn as stacks; NaN evidence fails."""
    from . import berezin

    sub, p, q, alpha, n = args.subcommand, args.p, args.q, args.alpha, args.samples
    inputs = {"p": p, "q": q, "alpha": alpha, "samples": n}
    gen = as_generator(args.seed)
    verdict = None
    if sub in ("gram", "witness"):
        inputs["wallach_admissible"] = admissible = berezin.wallach_admissible(alpha, p)
    if sub == "gram":
        expected = [-args.tol["pd"], None]
        configs = random_ball_point(p, q, gen, size=(n, _GRAM_POINTS))
        observed = float(np.min(berezin.gram_spectrum(configs, alpha).ratio))
        if not admissible:
            # off the Wallach set positivity is not expected: nothing to confirm
            verdict = INCONCLUSIVE
    elif sub == "witness":
        rep = berezin.pd_witness_search(p, q, alpha, budget=n, rng=args.seed)
        inputs["best_ratio"] = rep.best_ratio
        expected = [0.0, 0.0] if admissible else [1.0, 1.0]
        observed = float(rep.found)
    elif sub == "covariance":
        # log K = -alpha L carries alpha times the roundoff of L
        expected = [0.0, args.tol["res"] * max(1.0, abs(alpha))]
        g = random_pseudo_orthogonal(p, q, gen, size=n)
        z = random_ball_point(p, q, gen, size=n)
        u = random_ball_point(p, q, gen, size=n)
        observed = float(np.max(berezin.covariance_residual(g, z, u, alpha)))
    else:
        expected = [0.0, 0.0]
        z = random_ball_point(p, q, gen, size=n)
        u = random_ball_point(p, q, gen, size=n)
        c = gen.uniform(0.0, 1.0, size=n)
        c[: len(_FIRST_SHRINKS)] = _FIRST_SHRINKS[:n]
        observed = float(np.max(berezin.domination_residual(z, u, c, alpha)))
    return {"inputs": inputs, "expected": expected, "observed": observed,
            "verdict": verdict}, None


def cmd_boundary_probe(args):
    """The probe against its closed form: by z where 2 alpha < threshold, else by the SO oracle.

    As in ``cmd_integral``, the closed forms and the oracle come before the draws.
    """
    from . import berezin

    p, q, r, alpha = args.p, args.q, args.r, args.alpha
    threshold = berezin.restriction_threshold(p, q, r)
    # above the integrability threshold there is nothing to converge to
    expected = berezin.restriction_closed_form(p, q, r, alpha) if alpha < threshold else None
    # E f^2 is the closed form at 2 alpha
    second_moment = (berezin.restriction_closed_form(p, q, r, 2 * alpha)
                     if 2 * alpha < threshold else math.inf)
    rel = None
    if expected is not None and second_moment == math.inf:
        rel = abs(berezin.restriction_quadrature(p, q, r, alpha) - expected) / abs(expected)
    mc = berezin.restriction_probe(p, q, r, alpha, args.samples, args.seed)
    inputs = {"p": p, "q": q, "r": r, "alpha": alpha, "samples": args.samples,
              "threshold": threshold}
    fields = _mc_fields(args, inputs, mc, expected, second_moment, rel)
    if rel is not None:
        inputs["diagnostics"]["quadrature_rel_diff"] = rel
    return fields, None


def cmd_plancherel_blocks(args):
    from . import plancherel

    blocks = plancherel.surviving_blocks(plancherel.PlancherelParams(args.p, args.q, args.alpha))
    ranks = np.count_nonzero(blocks >= 0, axis=1).tolist()
    # a pad sits at a row's tail, so the partial sums before it are the label's own
    labels = _unpadded(blocks.tolist(), ranks)
    sums = _unpadded(plancherel.partial_sums(blocks).tolist(), ranks)
    return None, Table(["r", "u", "w"], [ranks, labels, sums])


def _unpadded(rows: list, ranks: list) -> list:
    """Each row cut to its rank: a block label without its -1 pads, or what is computed from it."""
    return [row[:r] for row, r in zip(rows, ranks)]


def cmd_plancherel_weight(args):
    """The continuous weight on ``--samples`` points of s_1; each must be >= 0.

    A weight past the float range is +-inf with W's sign, and judged by it;
    a NaN weight makes ``observed`` NaN, which fails.  The grid's rows are
    built only for CSV, the one format that emits them.
    """
    from . import plancherel

    p, q, alpha, count = args.p, args.q, args.alpha, args.samples
    params = plancherel.PlancherelParams(p, q, alpha)
    grid = np.linspace(0.0, 10.0, count)
    rest = [float(j) for j in range(2, p + 1)]
    points = np.column_stack([grid, np.broadcast_to(rest, (grid.size, p - 1))])
    weights = plancherel.continuous_weight_o(params, points)
    rows = Table(["s", "weight"], [grid, weights]) if args.format == "csv" else None
    worst = float("nan") if np.isnan(weights).any() else min(0.0, float(np.min(weights)))
    inputs = {"p": p, "q": q, "alpha": alpha, "grid_points": count, "s_rest": rest}
    return {"inputs": inputs, "expected": [-1e-12, None], "observed": worst}, rows


def cmd_plancherel_degeneration(args):
    """Zero-flag bookkeeping over the surviving blocks, C*V taken of ``_CV_ROWS`` rows at once.

    Each block's rank, label and status go out as a ``Table``, built as
    columns from the padded label rows and the net orders of C*V.

    At a negative integer alpha every block of rank < p must vanish and
    some full-rank block must stay finite: ``observed`` counts the live
    low-rank blocks, NaN when no full-rank block is finite.  At any other
    alpha no block may be a pole: ``observed`` counts the pole blocks.
    """
    from . import plancherel

    p, q, alpha = args.p, args.q, args.alpha
    params = plancherel.PlancherelParams(p, q, alpha)
    blocks = plancherel.surviving_blocks(params)
    orders = []
    for at in range(0, len(blocks), _CV_ROWS):
        labels = blocks[at:at + _CV_ROWS]
        value = plancherel.coeff_C(labels, p) * plancherel.coeff_V_o(alpha, labels, p, q)
        orders.append(value.order)
    order = np.concatenate(orders)
    ranks = np.count_nonzero(blocks >= 0, axis=1)
    status = np.where(order > 0, "pole", np.where(order < 0, "zero", "finite"))
    if alpha <= -0.5 and abs(alpha - round(alpha)) < 1e-9:
        low_rank_alive = np.count_nonzero((ranks < p) & (order >= 0))
        full_rank_finite = np.any((ranks == p) & (order == 0))
        observed = float(low_rank_alive) if full_rank_finite else math.nan
    else:
        observed = float(np.count_nonzero(order > 0))
    ranks = ranks.tolist()
    inputs = {"p": p, "q": q, "alpha": alpha,
              "blocks": Table(["r", "u", "status"],
                              [ranks, _unpadded(blocks.tolist(), ranks), status.tolist()])}
    return {"inputs": inputs, "expected": [0.0, 0.0], "observed": observed}, None


def cmd_plancherel_rank1(args):
    """Rank-1 resynthesis by deterministic quadrature: --samples and --seed do not enter."""
    from . import plancherel

    rep = plancherel.rank1_plancherel_probe(args.q, args.alpha)
    tol = args.tol["res"]
    inputs = {"q": args.q, "alpha": args.alpha, "t_grid": rep.t_grid, "nodes": rep.nodes,
              "oracle_error": rep.oracle_error, "s_step_error": rep.s_step_error}
    # no residual can be judged below the s-grid's own step error
    verdict = INCONCLUSIVE if rep.s_step_error > tol else None
    return {"inputs": inputs, "expected": [0.0, tol], "observed": rep.max_residual,
            "verdict": verdict}, None


def cmd_catalog(args):
    from . import hermitization

    corrupt = args.self_test_corrupt
    pairs = hermitization.catalog()
    if corrupt:
        pairs = pairs[:7] + [hermitization.corrupted_pair()] + pairs[8:]
    rows = []
    for pair in pairs:
        at_2 = dict.fromkeys(pair.params, 2)
        rows.append({"index": pair.index, "pair": pair.name, "params": ",".join(pair.params),
                     "dim_real_at_2": pair.dim_real(**at_2),
                     "dim_cplx_at_2": pair.dim_cplx(**at_2),
                     "sweep_ok": hermitization.sweep_ok(pair)})
    mismatches = sum(not row["sweep_ok"] for row in rows)
    inputs = {"sweep": f"1..{hermitization.SWEEP_MAX}", "self_test_corrupt": corrupt,
              "rows": rows}
    # the negative control passes exactly when the corruption is caught
    expected = [1.0, None] if corrupt else [0.0, 0.0]
    return {"inputs": inputs, "expected": expected, "observed": float(mismatches)}, rows


def cmd_ledger(args):
    return None, ledger_rows()


# (identity, status, evidence): every row cites the test that backs it.
_LEDGER = [
    ("so_integral_closed_form", "two-power-corrected",
     "n=2, lambda=(1,0): exact value 1; as-printed gives 1/2; "
     "tests/test_integrals.py::test_so_variant_discriminator"),
    ("so exponent convention", "convention",
     "the integrand only sees differences, so every SO evaluation shifts the "
     "vector to a trailing zero, lambda - lambda_n; "
     "tests/test_integrals.py::test_so_evaluations_shift_to_a_trailing_zero"),
    ("u_integral_closed_form", "as-printed",
     "n=1 exact checks (2 and 1) and n=2 MC agreement; "
     "tests/test_integrals.py::test_u_closed_form_n1_exact"),
    ("sp_integral_closed_form", "as-printed",
     "n=1, lambda=(2): Beta-integral value 2; "
     "tests/test_integrals.py::test_sp_closed_form_n1_exact"),
    ("kernel covariance multiplier", "u-cocycle-corrected",
     "scalar enumeration leaves (u-cocycle, +, +) as the only "
     "machine-zero convention; "
     "tests/test_berezin.py::test_covariance_convention_enumeration_has_unique_winner"),
    ("restriction exponent vector", "corrected",
     "leading p-r exponents equal -alpha (telescoping produces "
     "det(1+corner)^-alpha); verified against restriction_probe; "
     "tests/test_berezin.py::test_restriction_probe_matches_closed_form_below_threshold"),
    ("coefficient V prefactor index", "corrected",
     "prefactor runs over 1/Gamma(alpha-m+1), m=1..p; forced by the "
     "r=0 match with the continuous weight's prefactor; "
     "tests/test_plancherel.py::test_r0_product_reproduces_continuous_weight"),
    ("coefficient Q corner shift and ratio factor", "corrected",
     "shift uses w_r and the Gamma-ratio factor is included, so Q at "
     "r=0 equals the continuous weight; "
     "tests/test_plancherel.py::test_r0_product_reproduces_continuous_weight"),
    ("unitary-case degeneration", "convention",
     "the squared prefactor degenerates only at even negative alpha; "
     "checked at alpha=-2; "
     "tests/test_plancherel.py::test_unitary_degeneration_only_at_even_negatives"),
    ("hermitization row 8", "corrected",
     "GL(n,H) pairs with SO*(4n); dimension equality "
     "n(2n-1) = 2n(2n-1)/2 fails for SO*(2n); "
     "tests/test_cli.py::test_catalog_corrupt_self_test"),
    ("quadrature oracle weights", "convention",
     "corner-law Beta moments: Haar pivot k has density proportional to "
     "(1-x^2)^e with e=(n-k-2)/2, so factor k is 2^lambda_k B(e+lambda_k+1, e+1) "
     "/ B(e+1, e+1), its Gamma arguments written from e; "
     "tests/test_integrals.py::test_quadrature_matches_corrected_closed_form"),
]


def ledger_rows() -> list[dict]:
    """Adjudication status of every implemented identity with the test that backs it."""
    return [{"identity": i, "status": s, "evidence": e} for i, s, e in _LEDGER]


# ---------------------------------------------------------------------------
# Command table and runner
# ---------------------------------------------------------------------------

_HELP = {
    "haar": "sample Haar matrices",
    "integral": "verify Haar integral identities",
    "kernel": "Berezin kernel checks",
    "boundary": "boundary-orbit restriction probes",
    "plancherel": "spectral density structure",
    "catalog": "hermitization dimension table",
    "ledger": "formula adjudication table",
}
# (command, subcommand, run, options, default --samples, {--tol name: default}).
# Only a command with a default takes --samples, only one that lists "seed"
# takes --seed, and a --tol name the command does not read is refused.
_MC_TOLS = {"z": 3.0, "rel": 1e-8}
_COMMANDS = [
    ("haar", "so", cmd_haar, ("n", "seed"), 5, {"res": 1e-12}),
    ("haar", "u", cmd_haar, ("n", "seed"), 5, {"res": 1e-12}),
    ("haar", "sp", cmd_haar, ("n", "seed"), 5, {"res": 1e-12}),
    ("integral", "so", cmd_integral, ("n", "lambda", "seed"), DEFAULT_SAMPLES, _MC_TOLS),
    ("integral", "u", cmd_integral, ("n", "lambda", "mu", "seed"), DEFAULT_SAMPLES, _MC_TOLS),
    ("integral", "sp", cmd_integral, ("n", "lambda", "seed"), DEFAULT_SAMPLES, _MC_TOLS),
    ("kernel", "gram", cmd_kernel, ("p", "q", "alpha", "seed"), 50, {"pd": 1e-8}),
    ("kernel", "witness", cmd_kernel, ("p", "q", "alpha", "seed"), 1000, {}),
    ("kernel", "covariance", cmd_kernel, ("p", "q", "alpha", "seed"), 200, {"res": 1e-10}),
    ("kernel", "domination", cmd_kernel, ("p", "q", "alpha", "seed"), 10_000, {}),
    ("boundary", "probe", cmd_boundary_probe, ("p", "q", "r", "alpha", "seed"), DEFAULT_SAMPLES,
     _MC_TOLS),
    ("plancherel", "blocks", cmd_plancherel_blocks, ("p", "q", "alpha"), None, {}),
    ("plancherel", "weight", cmd_plancherel_weight, ("p", "q", "alpha"), 101, {}),
    ("plancherel", "degeneration", cmd_plancherel_degeneration, ("p", "q", "alpha"), None, {}),
    ("plancherel", "rank1", cmd_plancherel_rank1, ("q", "alpha", "seed"), DEFAULT_SAMPLES,
     {"res": 1e-3}),
    ("catalog", None, cmd_catalog, ("self-test-corrupt",), None, {}),
    ("ledger", None, cmd_ledger, (), None, {}),
]


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree of ``_COMMANDS``, built once per process for every ``main`` call."""
    parser = _Parser(prog="berezin-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"berezin-lab {__version__}")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command, sub, run, options, samples, tols in _COMMANDS:
        if command not in groups:
            sp = top.add_parser(command, help=_HELP[command])
            groups[command] = sp.add_subparsers(dest="subcommand", required=True) if sub else sp
        if sub is not None:
            sp = groups[command].add_parser(sub)
        for name in options:
            sp.add_argument(f"--{name}", **_OPTIONS[name])
        if samples is not None:
            sp.add_argument("--samples", type=_POSITIVE_INT, default=samples)
        sp.add_argument("--format", choices=FORMATS, default="json")
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--tol", action="append", type=_TOLERANCE, default=[], metavar="NAME=REAL")
        sp.set_defaults(run=run, name=" ".join(filter(None, (command, sub))), tols=tols)
    return parser


def main(argv=None) -> int:
    """Run one command, judge and write what it returns and give the exit code.

    A report whose verdict the command left as None passes iff its
    observation lies in its expected interval.  Rows go out as CSV under
    ``--format csv`` or, without a report, as a JSON array; otherwise the
    report does.  Exit 2 on a failed verdict, 3 on a usage or domain
    error or an ``--out`` that cannot be written, and 0 otherwise.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_option_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _resolve(args)
        t0 = time.perf_counter()
        fields, rows = args.run(args)
        duration = time.perf_counter() - t0
    except BerezinLabError as exc:
        print(f"berezin-lab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = None
    if fields is not None:
        report = VerificationReport(args.name, seed=getattr(args, "seed", None),
                                    **{"duration": duration, **fields})
        if report.verdict is None:
            report.verdict = PASS if in_interval(report.observed, report.expected) else FAIL
    if rows is not None and (args.format == "csv" or report is None):
        text = render_table(rows, args.format)
    else:
        text = render_report(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"berezin-lab: cannot write --out {args.out!r}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_FAIL if report is not None and report.verdict == FAIL else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
