"""The benchmark's workloads: fixed campaigns of ``berezin-lab`` CLI checks.

A workload is a list of checks.  Each check is one CLI invocation with the
exit code and verdict it must produce, and the reason it is in the list.
``instantiate`` turns a workload and a workload seed into concrete argv
lists: every randomized check gets its own ``--seed``, derived from the
workload seed and the check's position, so the program only ever sees the
generated argv.

Sample budgets are a tenth of the README examples (20k instead of 200k for
Monte Carlo) so that one pass takes 0.6 to 1.5 s.  A timed run then holds
enough passes for a tail percentile with ten passes beyond it; the layer
mix of each pass is the same as at full size.

Monte Carlo checks run with ``--tol z=5``.  The CLI's default 3-sigma
criterion failed 5 to 8 in 1000 honest seeds of the boundary probes, and
the benchmark runs thousands of seeded checks, so at 3 sigma some runs
would report a failure that is only sampling noise.  At 5 sigma the
family-wise rate over a full set of runs stays below 1e-3.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

PASS = "pass"
INCONCLUSIVE = "inconclusive"

MC_TOL = ("--tol", "z=5")


@dataclass(frozen=True)
class Check:
    """One CLI invocation and what its output must show.

    ``verdict`` is the expected report verdict, or None for commands that
    emit a table (CSV rows or a JSON array) instead of a report.  ``rows``
    is the exact number of table rows (or of a report's ``samples``)
    expected, ``min_rows`` a lower bound for tables whose length may grow.
    ``reference`` recomputes the closed form a Monte Carlo report must
    quote as ``expected``.
    """

    argv: tuple[str, ...]
    why: str
    exit_code: int = 0
    verdict: str | None = PASS
    seeded: bool = True
    rows: int | None = None
    min_rows: int = 0
    reference: Callable[[], float] | None = field(default=None, compare=False)

    @property
    def is_mc(self) -> bool:
        return self.reference is not None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    checks: tuple[Check, ...]


def check_seed(workload_seed: int, index: int) -> int:
    """The ``--seed`` of check ``index``, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def instantiate(workload: Workload, seed: int) -> list[tuple[list[str], Check]]:
    """Concrete argv for every check of ``workload`` under workload seed ``seed``."""
    out = []
    for i, check in enumerate(workload.checks):
        argv = list(check.argv)
        if check.seeded:
            argv += ["--seed", str(check_seed(seed, i))]
        out.append((argv, check))
    return out


# ---------------------------------------------------------------------------
# Closed forms the Monte Carlo reports must quote
# ---------------------------------------------------------------------------


def _so_ref(n: int, lam: list[float]) -> Callable[[], float]:
    def ref() -> float:
        from berezin_lab import integrals

        # the CLI normalizes the last exponent to zero before the closed form
        return integrals.so_integral_closed_form(n, [x - lam[-1] for x in lam])

    return ref


def _u_ref(n: int, lam: list[float], mu: list[float]) -> Callable[[], float]:
    def ref() -> float:
        from berezin_lab import integrals

        return integrals.u_integral_closed_form(n, lam, mu)

    return ref


def _sp_ref(n: int, lam: list[float]) -> Callable[[], float]:
    def ref() -> float:
        from berezin_lab import integrals

        return integrals.sp_integral_closed_form(n, lam)

    return ref


def _restriction_ref(p: int, q: int, r: int, alpha: float) -> Callable[[], float]:
    def ref() -> float:
        from berezin_lab import berezin

        return berezin.restriction_closed_form(p, q, r, alpha)

    return ref


def _csv(values: list[float]) -> str:
    return ",".join(f"{v:g}" for v in values)


def _integral(group: str, n: int, lam: list[float], why: str, mu: list[float] | None = None) -> Check:
    argv = ["integral", group, "--n", str(n), "--lambda", _csv(lam)]
    if mu is not None:
        argv += ["--mu", _csv(mu)]
        ref = _u_ref(n, lam, mu)
    else:
        ref = _so_ref(n, lam) if group == "so" else _sp_ref(n, lam)
    return Check((*argv, "--samples", "20000", *MC_TOL), why, reference=ref)


def _boundary(p: int, q: int, r: int, alpha: float, why: str, below: bool = True) -> Check:
    argv = ("boundary", "probe", "--p", str(p), "--q", str(q), "--r", str(r),
            "--alpha", f"{alpha:g}", "--samples", "20000", *MC_TOL)
    if below:
        return Check(argv, why, reference=_restriction_ref(p, q, r, alpha))
    return Check(argv, why, verdict=INCONCLUSIVE)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

HAAR_MC = Workload(
    "haar_mc",
    "Monte Carlo Haar integrals and boundary probes: compact QR sampling and "
    "integrals corner determinants do the work, plancherel and gammaval do none",
    (
        _integral("so", 3, [1, 0.5, 0],
                  "README example: SO(3) sampling, two corner determinants and the quadrature oracle"),
        _integral("so", 8, [1, 0.5, 0, 0, 0, 0, 0, 0],
                  "largest real case: QR and seven batched corner determinants per sample dominate"),
        _integral("u", 3, [1, 0.5, 0], "complex Haar sampling and complex corner powers",
                  mu=[0.5, 0, 0]),
        _integral("sp", 3, [1, 0.5, 0],
                  "quaternionic sampler, the slowest per matrix, and slogdet corners"),
        _boundary(2, 4, 1, 1.0,
                  "README example below the threshold 2: a heavy-tailed estimate that must still agree"),
        _boundary(3, 6, 1, 1.0, "a larger orbit (SO(7) samples) with finite variance"),
        _boundary(2, 4, 1, 2.5,
                  "above the integrability threshold: the verdict must be inconclusive, never pass",
                  below=False),
    ),
)

SPECTRAL = Workload(
    "spectral",
    "Plancherel block enumeration, C*V Gamma-value bookkeeping and rank-1 "
    "resynthesis: plancherel and gammaval do all the work, compact does none",
    (
        Check(("plancherel", "blocks", "--p", "2", "--q", "5", "--alpha", "0.4"),
              "README example: the smallest block inventory, mostly CLI overhead",
              verdict=None, seeded=False, rows=6),
        Check(("plancherel", "degeneration", "--p", "4", "--q", "12", "--alpha", "-3"),
              "negative-integer degeneration over 551 blocks: C*V bookkeeping and a large JSON report",
              seeded=False),
        Check(("plancherel", "degeneration", "--p", "4", "--q", "12", "--alpha", "-2.5"),
              "half-integer alpha over 505 blocks: the no-pole branch of the same bookkeeping",
              seeded=False),
        Check(("plancherel", "weight", "--p", "5", "--q", "12", "--alpha", "3",
               "--samples", "2000"),
              "continuous weight over a 2000-point grid: loggamma calls one point at a time",
              seeded=False),
        Check(("plancherel", "rank1", "--q", "3", "--alpha", "2", "--samples", "40000"),
              "rank-1 resynthesis, the largest share of the pass; 40k draws keep the residual "
              "well inside its 5e-2 tolerance"),
    ),
)

GEOMETRY_IO = Workload(
    "geometry_io",
    "kernel, witness and transformation-law checks plus report emission: one small "
    "matrix at a time, so Python per-call overhead in ball, berezin and reporting dominates",
    (
        Check(("kernel", "gram", "--p", "2", "--q", "3", "--alpha", "1.5", "--samples", "500"),
              "500 Gram configurations of 12 points: one SVD per random ball point"),
        Check(("kernel", "witness", "--p", "2", "--q", "3", "--alpha", "0.5"),
              "README example at an inadmissible alpha: the search exits early with a witness"),
        Check(("kernel", "witness", "--p", "2", "--q", "3", "--alpha", "1.5"),
              "admissible alpha: the full 1000-trial budget runs and must find nothing"),
        Check(("kernel", "covariance", "--p", "2", "--q", "3", "--alpha", "1.5"),
              "transformation law: one-matrix pseudo-orthogonal samples and Moebius actions"),
        Check(("kernel", "domination", "--p", "2", "--q", "3", "--alpha", "1.5",
               "--samples", "1000"),
              "domination bound: two kernel evaluations per pair of random points"),
        Check(("haar", "sp", "--n", "3", "--samples", "50", "--format", "csv"),
              "quaternionic samples written as CSV, one row per matrix entry",
              verdict=None, rows=50 * 6 * 6),
        Check(("haar", "so", "--n", "4", "--samples", "200"),
              "orthogonal samples written as one JSON document", rows=200),
        Check(("catalog", "--format", "csv"), "the 12-row dimension table as CSV",
              verdict=None, seeded=False, rows=12),
        Check(("ledger",), "the adjudication ledger as a JSON array",
              verdict=None, seeded=False, min_rows=1),
    ),
)

WORKLOADS = {w.name: w for w in (HAAR_MC, SPECTRAL, GEOMETRY_IO)}
