"""Shared helpers for the test suite."""

import numpy as np
from scipy import stats

from berezin_lab.compact import _haar_so_batch
from berezin_lab.integrals import BLOCK
from berezin_lab.rngs import block_rng


def corner_entry_cdf(n: int):
    """CDF of the top-left entry of a Haar SO(n) matrix.

    The entry is distributed like 2 B - 1 with B ~ Beta((n-1)/2, (n-1)/2),
    i.e. with density proportional to (1 - x^2)^((n-3)/2) on [-1, 1].
    """
    return stats.beta((n - 1) / 2.0, (n - 1) / 2.0, loc=-1.0, scale=2.0).cdf


def ks_pvalue(samples: np.ndarray, cdf) -> float:
    return float(stats.kstest(samples, cdf).pvalue)


def boundary_points(p: int, q: int, r: int, size: int, rng) -> np.ndarray:
    """``size`` uniform points of the rank-r boundary orbit of the p x q ball, shape (size, p, q).

    The upper-left p x q block of a Haar SO(q + r) matrix lands on the
    orbit where 1 - z z^t has rank r (its complement block supplies a rank
    r factorization almost surely); only the first q columns are drawn.
    """
    return _haar_so_batch(q + r, size, np.random.default_rng(rng), cols=q)[:, :p]


def one_pass_draws(draw, n_samples: int, root: int) -> np.ndarray:
    """``draw(gen, count)`` on every block stream block_rng(root, b), concatenated.

    Blocks hold BLOCK samples except a short last one, as in the Monte
    Carlo engine, so a plain reduction of the result is what the engine's
    merged estimate must equal.
    """
    counts = [min(BLOCK, n_samples - start) for start in range(0, n_samples, BLOCK)]
    return np.concatenate([draw(block_rng(root, b), count) for b, count in enumerate(counts)])


def assert_matches_one_pass(est, values: np.ndarray, rel: float = 1e-12) -> None:
    """Mean, standard error and max |value| of an estimate against one numpy pass.

    The mean and standard error are those of the real part; complex values
    also fix the mean of the imaginary part, on the scale of the mean |value|.
    """
    n = values.size
    re = values.real
    assert est.n_samples == n
    assert abs(est.mean - re.mean()) <= rel * abs(re.mean())
    stderr = re.std(ddof=1) / np.sqrt(n)
    assert abs(est.stderr - stderr) <= rel * stderr
    assert abs(est.max_abs - np.abs(values).max()) <= rel * np.abs(values).max()
    assert abs(est.imag_mean - values.imag.mean()) <= rel * np.abs(values).mean()


def label_tuples(blocks) -> list[tuple[int, ...]]:
    """The padded label rows of ``plancherel.surviving_blocks`` as label tuples, pads dropped.

    A row's label is its entries before the first -1, and every entry after
    that must be a -1 too.
    """
    labels = []
    for row in np.asarray(blocks).tolist():
        r = row.index(-1) if -1 in row else len(row)
        assert row[r:] == [-1] * (len(row) - r), f"an entry after a pad in {row}"
        labels.append(tuple(row[:r]))
    return labels
