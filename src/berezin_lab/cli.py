"""Command-line harness: seeded verification campaigns and report emission.

Exit codes: 0 for pass or inconclusive, 2 for a verification failure, 3
for usage or domain errors.  Commands are deterministic under a fixed
seed; ``BEREZIN_SEED`` supplies the seed when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

# Each command imports the library module it runs inside its own body, so
# start-up and the commands that need no Gamma function load no SciPy.
from . import __version__, compact
from .ball import random_ball_point, random_pseudo_orthogonal
from .errors import BerezinLabError, InvalidParams
from .reporting import (
    DEFAULT_SEED,
    FAIL,
    INCONCLUSIVE,
    PASS,
    RunConfig,
    VerificationReport,
    in_interval,
    jsonable,
    render_report,
    render_table,
)
from .rngs import as_generator

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_USAGE = 3

_FIELD_BY_GROUP = {"so": compact.REAL, "u": compact.COMPLEX, "sp": compact.QUATERNION}
_REALIZATION = {"so": "real", "u": "complex", "sp": "complex2n"}


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code moved from 2 to 3."""

    def error(self, message):  # noqa: A002 - argparse API
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process and shared by every ``main`` call."""
    parser = _Parser(prog="berezin-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"berezin-lab {__version__}")
    top = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    haar = top.add_parser("haar", help="sample Haar matrices").add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    for group in ("so", "u", "sp"):
        sp = haar.add_parser(group)
        _common(sp, "n", default_samples=5)

    integral = top.add_parser("integral", help="verify Haar integral identities").add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    for group in ("so", "u", "sp"):
        sp = integral.add_parser(group)
        _common(sp, "n", "lambda")
        if group == "u":
            sp.add_argument("--mu", type=str, default=None, help="conjugate exponents, CSV")

    kernel = top.add_parser("kernel", help="Berezin kernel checks").add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    for sub in ("gram", "witness", "covariance", "domination"):
        sp = kernel.add_parser(sub)
        _common(sp, "p", "q", "alpha", default_samples=_KERNEL_SAMPLES[sub])

    boundary = top.add_parser("boundary", help="boundary-orbit restriction probes").add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    sp = boundary.add_parser("probe")
    _common(sp, "p", "q", "r", "alpha")

    plan = top.add_parser("plancherel", help="spectral density structure").add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    for sub in ("blocks", "weight", "degeneration"):
        sp = plan.add_parser(sub)
        _common(sp, "p", "q", "alpha", default_samples=101)
    sp = plan.add_parser("rank1")
    _common(sp, "q", "alpha", default_samples=200_000)

    sp = top.add_parser("catalog", help="hermitization dimension table")
    _common(sp)
    sp.add_argument("--self-test-corrupt", action="store_true",
                    help="sweep a deliberately corrupted row; must detect the mismatch")

    sp = top.add_parser("ledger", help="formula adjudication table")
    _common(sp)
    return parser


_KERNEL_SAMPLES = {"gram": 50, "witness": 1000, "covariance": 200, "domination": 10_000}
# Points per configuration of the Gram check.
_GRAM_POINTS = 12
# The first shrink factors of a domination run: near 1, where the bound is
# tightest, and 1/2, alternately; the rest are uniform on [0, 1).
_FIRST_SHRINKS = (1.0 - 1e-3, 0.5, 1.0 - 1e-3, 0.5)


def _common(sp: argparse.ArgumentParser, *names: str, default_samples: int = 200_000) -> None:
    for name in names:
        if name in ("p", "q", "n", "r"):
            sp.add_argument(f"--{name}", type=int, required=True)
        elif name == "alpha":
            sp.add_argument("--alpha", type=float, required=True)
        elif name == "lambda":
            sp.add_argument("--lambda", dest="lam", type=str, required=True,
                            help="exponent vector, CSV")
    sp.add_argument("--samples", type=int, default=default_samples)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--tol", action="append", default=[], metavar="NAME=REAL")


def _config(args: argparse.Namespace) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("BEREZIN_SEED", DEFAULT_SEED))
    tols = {}
    for item in args.tol:
        if "=" not in item:
            raise InvalidParams(f"--tol expects NAME=REAL, got {item!r}")
        name, _, val = item.partition("=")
        tols[name] = float(val)
    return RunConfig(
        seed=seed,
        n_samples=args.samples,
        tolerances=tols,
        out=args.out,
        format=args.format,
    )


def _parse_csv_vector(text: str, name: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InvalidParams(f"--{name} must be a CSV of reals, got {text!r}") from exc


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(cfg: RunConfig, command: str, inputs: dict, expected, observed,
            stderr, z_score, verdict, t0: float) -> VerificationReport:
    return VerificationReport(
        command=command,
        inputs=inputs,
        expected=expected,
        observed=observed,
        stderr=stderr,
        z_score=z_score,
        verdict=verdict,
        duration=time.perf_counter() - t0,
        seed=cfg.seed,
    )


def _mc_agreement(cfg: RunConfig, mc, expected: float) -> tuple[float | None, bool]:
    """(z-score, agrees) of a Monte Carlo mean against its closed form.

    A zero standard error (every draw equal) carries no scale for a
    z-score, so the mean must then match to the relative tolerance
    ``rel`` and the z-score is reported as None.
    """
    if mc.stderr > 0:
        z = (mc.mean - expected) / mc.stderr
        return z, abs(z) <= cfg.tol("z", 3.0)
    return None, abs(mc.mean - expected) <= cfg.tol("rel", 1e-8) * abs(expected)


def _finish(report: VerificationReport, cfg: RunConfig) -> int:
    _emit(render_report(report, cfg.format), cfg)
    return EXIT_FAIL if report.verdict == FAIL else EXIT_PASS


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_haar_sample(cfg: RunConfig, group: str, n: int) -> int:
    """Emit ``cfg.n_samples`` Haar matrices plus a unitarity-residual summary.

    The emitted document carries no duration so equal seeds reproduce it
    byte for byte.
    """
    field = _FIELD_BY_GROUP[group]
    mats = compact.haar_sample_batch(field, n, cfg.n_samples, cfg.seed)
    residuals = [
        compact.CompactGroupElement(field, n, m).unitarity_residual() for m in mats
    ]
    worst = max(residuals) if residuals else 0.0
    tol = cfg.tol("res", 1e-12)
    verdict = PASS if worst <= tol else FAIL
    if cfg.format == "json":
        doc = {
            "command": f"haar {group}",
            "inputs": {"n": n, "count": cfg.n_samples, "realization": _REALIZATION[group]},
            "expected": [0.0, tol],
            "observed": worst,
            "stderr": None,
            "z_score": None,
            "verdict": verdict,
            "seed": cfg.seed,
            "version": __version__,
            "samples": [_matrix_entries(m) for m in mats],
        }
        _emit(json.dumps(jsonable(doc), indent=2) + "\n", cfg)
    else:
        rows = []
        for idx, m in enumerate(mats):
            for (i, j), val in np.ndenumerate(m):
                rows.append(
                    {
                        "realization": _REALIZATION[group],
                        "n": n,
                        "seed": cfg.seed,
                        "sample": idx,
                        "row": i,
                        "col": j,
                        "re": float(np.real(val)),
                        "im": float(np.imag(val)),
                    }
                )
        _emit(render_table(rows), cfg)
    return EXIT_PASS if verdict == PASS else EXIT_FAIL


def _matrix_entries(m: np.ndarray) -> list:
    if np.iscomplexobj(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]
    return [[float(v) for v in row] for row in m]


def cmd_verify_integral(cfg: RunConfig, group: str, n: int, lam, mu=None) -> int:
    """Closed form(s) against Monte Carlo, and quadrature where available."""
    from . import integrals

    t0 = time.perf_counter()
    inputs: dict = {"group": group, "n": n, "lambda": list(lam), "samples": cfg.n_samples}
    evaluations: dict = {}
    if group == "so":
        lam = np.asarray(lam, dtype=float)
        shifted = lam - lam[-1]  # the identity normalizes the last exponent to zero
        expected = integrals.so_integral_closed_form(n, shifted, integrals.VARIANT_CORRECTED)
        evaluations["closed_form_corrected"] = expected
        evaluations["closed_form_as_printed"] = integrals.so_integral_closed_form(
            n, shifted, integrals.VARIANT_AS_PRINTED
        )
        evaluations["quadrature"] = integrals.so_integral_quadrature(n, shifted)
        mc = integrals.so_integral_mc(n, shifted, cfg.n_samples, cfg.seed)
        rel = abs(evaluations["quadrature"] - expected) / abs(expected)
        deterministic_ok = rel <= cfg.tol("rel", 1e-8)
        evaluations["quadrature_rel_diff"] = rel
    elif group == "u":
        if mu is None:
            mu = [0.0] * n
        inputs["mu"] = list(mu)
        expected = integrals.u_integral_closed_form(n, lam, mu)
        mc = integrals.u_integral_mc(n, lam, mu, cfg.n_samples, cfg.seed)
        deterministic_ok = True
    else:
        expected = integrals.sp_integral_closed_form(n, lam)
        mc = integrals.sp_integral_mc(n, lam, cfg.n_samples, cfg.seed)
        deterministic_ok = True
    inputs["evaluations"] = evaluations
    inputs["diagnostics"] = {"max_abs": mc.max_abs, "n_resamples": mc.n_resamples}
    z, mc_ok = _mc_agreement(cfg, mc, expected)
    verdict = PASS if mc_ok and deterministic_ok else FAIL
    report = _report(cfg, f"integral {group}", inputs, expected, mc.mean, mc.stderr, z, verdict, t0)
    return _finish(report, cfg)


def cmd_kernel(cfg: RunConfig, sub: str, p: int, q: int, alpha: float) -> int:
    """One kernel check over ``cfg.n_samples`` samples drawn as stacks; NaN evidence fails."""
    from . import berezin

    t0 = time.perf_counter()
    inputs = {"p": p, "q": q, "alpha": alpha, "samples": cfg.n_samples}
    gen = as_generator(cfg.seed)
    n = cfg.n_samples
    if sub == "gram":
        expected = [-cfg.tol("pd", 1e-8), None]
        configs = random_ball_point(p, q, gen, size=(n, _GRAM_POINTS))
        observed = float(np.min(berezin.gram_spectrum(configs, alpha).ratio))
    elif sub == "witness":
        admissible = berezin.wallach_admissible(alpha, p)
        rep = berezin.pd_witness_search(p, q, alpha, budget=n, rng=cfg.seed)
        inputs["wallach_admissible"] = admissible
        inputs["best_ratio"] = rep.best_ratio
        expected = [0.0, 0.0] if admissible else [1.0, 1.0]
        observed = float("nan") if np.isnan(rep.best_ratio) else float(rep.found)
    elif sub == "covariance":
        expected = [0.0, cfg.tol("res", 1e-10)]
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
    verdict = PASS if in_interval(observed, expected) else FAIL
    report = _report(cfg, f"kernel {sub}", inputs, expected, observed, None, None, verdict, t0)
    return _finish(report, cfg)


def cmd_boundary_probe(cfg: RunConfig, p: int, q: int, r: int, alpha: float) -> int:
    from . import berezin

    t0 = time.perf_counter()
    threshold = berezin.restriction_threshold(p, q, r)
    mc = berezin.restriction_probe(p, q, r, alpha, cfg.n_samples, cfg.seed)
    inputs = {
        "p": p,
        "q": q,
        "r": r,
        "alpha": alpha,
        "samples": cfg.n_samples,
        "threshold": threshold,
        "diagnostics": {"max_abs": mc.max_abs, "n_resamples": mc.n_resamples},
    }
    if alpha < threshold:
        expected = berezin.restriction_closed_form(p, q, r, alpha)
        z, mc_ok = _mc_agreement(cfg, mc, expected)
        verdict = PASS if mc_ok else FAIL
        report = _report(cfg, "boundary probe", inputs, expected, mc.mean, mc.stderr, z, verdict, t0)
    else:
        # above the integrability threshold there is nothing to converge to
        report = _report(
            cfg, "boundary probe", inputs, None, mc.mean, mc.stderr, None, INCONCLUSIVE, t0
        )
    return _finish(report, cfg)


def cmd_plancherel(cfg: RunConfig, sub: str, p: int | None, q: int, alpha: float) -> int:
    from . import plancherel

    t0 = time.perf_counter()
    if sub == "rank1":
        # deterministic quadrature: --samples and --seed do not enter.  A
        # residual cannot be judged below the s-grid's own step error.
        rep = plancherel.rank1_plancherel_probe(q, alpha)
        tol = cfg.tol("res", 1e-3)
        expected = [0.0, tol]
        if rep.s_step_error > tol:
            verdict = INCONCLUSIVE
        else:
            verdict = PASS if in_interval(rep.max_residual, expected) else FAIL
        inputs = {
            "q": q,
            "alpha": alpha,
            "t_grid": rep.t_grid,
            "nodes": rep.nodes,
            "oracle_error": rep.oracle_error,
            "s_step_error": rep.s_step_error,
        }
        report = _report(
            cfg, "plancherel rank1", inputs, expected, rep.max_residual, None, None, verdict, t0
        )
        return _finish(report, cfg)

    params = plancherel.PlancherelParams(p, q, alpha)
    if sub == "blocks":
        rows = [
            {"r": b.r, "u": list(b.u), "w": list(b.w)}
            for b in plancherel.surviving_blocks(params)
        ]
        _emit(render_table(rows, cfg.format), cfg)
        return EXIT_PASS
    if sub == "weight":
        grid = np.linspace(0.0, 10.0, cfg.n_samples)
        rest = [float(j) for j in range(2, p + 1)]
        points = np.column_stack([grid, np.broadcast_to(rest, (grid.size, p - 1))])
        weights = plancherel.continuous_weight_o(params, points)
        rows = [{"s": s1, "weight": w} for s1, w in zip(grid.tolist(), weights.tolist())]
        floor = -1e-12
        worst = min(0.0, float(np.min(weights)))
        if cfg.format == "csv":
            _emit(render_table(rows), cfg)
            return EXIT_PASS if worst >= floor else EXIT_FAIL
        verdict = PASS if worst >= floor else FAIL
        inputs = {"p": p, "q": q, "alpha": alpha, "grid_points": cfg.n_samples, "s_rest": rest}
        report = _report(cfg, "plancherel weight", inputs, [0.0, None], worst, None, None, verdict, t0)
        return _finish(report, cfg)

    # degeneration: zero-flag bookkeeping over the surviving blocks, one stack per rank
    statuses = []
    low_rank_alive = 0
    full_rank_finite = 0
    any_pole = False
    for r, labels in plancherel.label_stacks(plancherel.surviving_blocks(params)):
        value = plancherel.coeff_C(labels, p) * plancherel.coeff_V_o(alpha, labels, p, q)
        status = np.where(value.is_pole, "pole", np.where(value.is_zero, "zero", "finite"))
        statuses += [
            {"r": r, "u": u, "status": st} for u, st in zip(labels.tolist(), status.tolist())
        ]
        any_pole |= bool(value.is_pole.any())
        if r < p:
            low_rank_alive += int(np.count_nonzero(~value.is_zero))
        else:
            full_rank_finite += int(np.count_nonzero(status == "finite"))
    negative_integer = alpha <= -0.5 and abs(alpha - round(alpha)) < 1e-9
    if negative_integer:
        ok = low_rank_alive == 0 and full_rank_finite > 0
    else:
        ok = not any_pole
    inputs = {"p": p, "q": q, "alpha": alpha, "blocks": statuses}
    report = _report(
        cfg,
        "plancherel degeneration",
        inputs,
        [0.0, 0.0],
        float(low_rank_alive),
        None,
        None,
        PASS if ok else FAIL,
        t0,
    )
    return _finish(report, cfg)


def cmd_catalog(cfg: RunConfig, self_test_corrupt: bool = False) -> int:
    from . import hermitization

    t0 = time.perf_counter()
    rows = []
    pairs = hermitization.catalog()
    if self_test_corrupt:
        pairs = pairs[:7] + [hermitization.corrupted_pair()] + pairs[8:]
    mismatches = 0
    for pair in pairs:
        ok_all = hermitization.sweep_ok(pair, upto=8)
        mismatches += 0 if ok_all else 1
        example = {name: 2 for name in pair.params}
        rows.append(
            {
                "index": pair.index,
                "pair": pair.name,
                "params": ",".join(pair.params),
                "dim_real_at_2": pair.dim_real(**example),
                "dim_cplx_at_2": pair.dim_cplx(**example),
                "sweep_ok": ok_all,
            }
        )
    if self_test_corrupt:
        # the negative control passes exactly when the corruption is caught
        verdict = PASS if mismatches >= 1 else FAIL
    else:
        verdict = PASS if mismatches == 0 else FAIL
    if cfg.format == "csv":
        _emit(render_table(rows), cfg)
        return EXIT_PASS if verdict == PASS else EXIT_FAIL
    inputs = {"sweep": "1..8", "self_test_corrupt": self_test_corrupt, "rows": rows}
    report = _report(
        cfg, "catalog", inputs, [0.0, 0.0] if not self_test_corrupt else [1.0, None],
        float(mismatches), None, None, verdict, t0
    )
    return _finish(report, cfg)


def cmd_ledger(cfg: RunConfig) -> int:
    rows = ledger_rows()
    _emit(render_table(rows, cfg.format), cfg)
    return EXIT_PASS


def ledger_rows() -> list[dict]:
    """Adjudication status of every implemented identity with its evidence."""
    return [
        {
            "identity": "so_integral_closed_form",
            "status": "two-power-corrected",
            "evidence": "n=2, lambda=(1,0): exact value 1; as-printed gives 1/2; "
            "tests/test_integrals.py::test_so_variant_discriminator",
        },
        {
            "identity": "so exponent convention",
            "status": "convention",
            "evidence": "closed form and quadrature require a trailing zero exponent; "
            "the integrand only sees differences, so vectors are shifted first",
        },
        {
            "identity": "u_integral_closed_form",
            "status": "as-printed",
            "evidence": "n=1 exact checks (2 and 1) and n=2 MC agreement; "
            "tests/test_integrals.py::test_u_closed_form_n1_exact",
        },
        {
            "identity": "sp_integral_closed_form",
            "status": "as-printed",
            "evidence": "n=1, lambda=(2): Beta-integral value 2; "
            "tests/test_integrals.py::test_sp_closed_form_n1_exact",
        },
        {
            "identity": "kernel covariance multiplier",
            "status": "u-cocycle-corrected",
            "evidence": "scalar enumeration leaves (u-cocycle, +, +) as the only "
            "machine-zero convention; "
            "tests/test_berezin.py::test_covariance_convention_enumeration_has_unique_winner",
        },
        {
            "identity": "restriction exponent vector",
            "status": "corrected",
            "evidence": "leading p-r exponents equal -alpha (telescoping produces "
            "det(1+corner)^-alpha); verified against restriction_probe",
        },
        {
            "identity": "coefficient V prefactor index",
            "status": "corrected",
            "evidence": "prefactor runs over 1/Gamma(alpha-m+1), m=1..p; forced by the "
            "r=0 match with the continuous weight's prefactor",
        },
        {
            "identity": "coefficient Q corner shift and ratio factor",
            "status": "corrected",
            "evidence": "shift uses w_r and the Gamma-ratio factor is included, so Q at "
            "r=0 equals the continuous weight; "
            "tests/test_plancherel.py::test_r0_product_reproduces_continuous_weight",
        },
        {
            "identity": "unitary-case degeneration",
            "status": "convention",
            "evidence": "the squared prefactor degenerates only at even negative alpha; "
            "checked at alpha=-2",
        },
        {
            "identity": "hermitization row 8",
            "status": "corrected",
            "evidence": "GL(n,H) pairs with SO*(4n); dimension equality "
            "n(2n-1) = 2n(2n-1)/2 fails for SO*(2n); cmd_catalog --self-test-corrupt",
        },
        {
            "identity": "quadrature oracle weights",
            "status": "convention",
            "evidence": "endpoint singularities handled by the algebraic-weight rule "
            "with exponents (e+lambda, e), valid on the whole convergence domain",
        },
    ]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args)
        command = args.command
        if command == "haar":
            return cmd_haar_sample(cfg, args.subcommand, args.n)
        if command == "integral":
            lam = _parse_csv_vector(args.lam, "lambda")
            mu = _parse_csv_vector(args.mu, "mu") if getattr(args, "mu", None) else None
            return cmd_verify_integral(cfg, args.subcommand, args.n, lam, mu)
        if command == "kernel":
            return cmd_kernel(cfg, args.subcommand, args.p, args.q, args.alpha)
        if command == "boundary":
            return cmd_boundary_probe(cfg, args.p, args.q, args.r, args.alpha)
        if command == "plancherel":
            p = getattr(args, "p", None)
            return cmd_plancherel(cfg, args.subcommand, p, args.q, args.alpha)
        if command == "catalog":
            return cmd_catalog(cfg, args.self_test_corrupt)
        if command == "ledger":
            return cmd_ledger(cfg)
        raise InvalidParams(f"unknown command {command!r}")
    except BerezinLabError as exc:
        print(f"berezin-lab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
