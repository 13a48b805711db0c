"""Kernel machinery: kernels, mean embeddings, MMD and HSIC permutation
tests, conditional-independence tests, and the VC bound.

Permutation p-values use (1 + #{perm >= observed}) / (1 + B), which is
never zero and is super-uniform under the null. Permutation index sets
are drawn from the seed one block at a time, always in the same order,
and each block's statistics are evaluated together, so a p-value depends
only on the seed.

No test builds a Gram matrix. HSIC, MMD and kernel-ridge residuals run
on one low-rank factor R per sample, R^T R ~ the Gram, built by pivoted
incomplete Cholesky from one kernel row per pivot (Fine & Scheinberg
2001; Bach & Jordan 2002); ridge residuals by the Woodbury identity.
KERNEL_BYTES_CAP bounds a factor's rows and a multi-column median
heuristic's distances, checked before allocating. Partial correlations
come from one triangular factor of a dataset's centred columns
(CiTester), with no pass over the rows per test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import PreconditionError, UsageError

DEFAULT_PERMUTATIONS = 500
DEFAULT_RIDGE_SCALE = 1e-3  # regularizer = scale * m
# bytes for one kernel array that grows faster than its sample: the
# distances of a median heuristic pooling two 5,000-row samples, so also
# any factor, or dense Gram, of 5,000 rows
KERNEL_BYTES_CAP = 8 * 10_000**2 // 2
# working set of one block of permutations or kernel rows; blocks this
# small stay in cache and reuse heap memory, and measured faster than 8 MiB
BLOCK_BYTES = 1 << 18
# the largest float whose square rounds to zero
_SQUARE_UNDERFLOW = float.fromhex("0x1.6a09e667f3bccp-538")


def _pairwise_sum(xs: np.ndarray, ys: np.ndarray, term) -> np.ndarray:
    """sum_k term(x_k, y_k) for every pair of rows of xs and ys.

    Columns are added one at a time in index order, the same summation
    order as a per-pair loop, so the result does not depend on blocking,
    and equal rows give bitwise-equal results.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[1] != ys.shape[1]:
        raise UsageError("points must share dimensionality")
    if xs.shape[1] == 0:
        return np.zeros((len(xs), len(ys)))
    out = term(xs[:, 0, None], ys[None, :, 0])
    for k in range(1, xs.shape[1]):
        out += term(xs[:, k, None], ys[None, :, k])
    return out


def _sq_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of xs and ys."""
    return _pairwise_sum(xs, ys, lambda a, b: np.square(a - b))


# ---------------------------------------------------------------------------
# Kernels


class Kernel:
    """Kernels must be positive semidefinite: every test factors them."""

    __slots__ = ()


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """k(x, y) = exp(-||x - y||^2 / (2 bandwidth^2))."""

    bandwidth: float

    def __post_init__(self):
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth * self.bandwidth)):
            raise UsageError("bandwidth must be > 0 with a finite square")

    def __call__(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.exp(-_sq_distances(xs, ys) / (2.0 * self.bandwidth**2))


@dataclass(frozen=True)
class PolynomialKernel(Kernel):
    """k(x, y) = (<x, y> + offset)^degree, PSD for offset >= 0."""

    degree: int
    offset: float = 1.0

    def __post_init__(self):
        if self.degree < 1:
            raise UsageError("degree must be >= 1")
        if not self.offset >= 0:
            raise UsageError("offset must be >= 0")

    def __call__(self, xs, ys):
        return (_pairwise_sum(xs, ys, np.multiply) + self.offset) ** self.degree


@dataclass(frozen=True)
class LinearKernel(Kernel):
    def __call__(self, xs, ys):
        return _pairwise_sum(xs, ys, np.multiply)


def _as_matrix(xs) -> np.ndarray:
    arr = np.asarray(xs, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise UsageError("sample must be a nonempty 1-d or 2-d array")
    return arr


def _check_bytes(nbytes: int, what: str) -> None:
    """Refuse, before allocating it, a kernel array over KERNEL_BYTES_CAP."""
    if nbytes > KERNEL_BYTES_CAP:
        raise UsageError(f"{what} needs {nbytes} bytes, over the cap of {KERNEL_BYTES_CAP}")


def gram(k: Kernel, xs) -> np.ndarray:
    """G[i][j] = k(x_i, x_j); symmetric and PSD up to jitter."""
    xs = _as_matrix(xs)
    _check_bytes(8 * len(xs) ** 2, f"a dense Gram of {len(xs)} rows")
    g = k(xs, xs)
    return (g + g.T) / 2.0


def _row_blocks(k: Kernel, xs: np.ndarray, ys: np.ndarray, reduce) -> np.ndarray:
    """reduce(k(block, ys)) over blocks of xs's rows of about BLOCK_BYTES,
    concatenated: no len(xs) x len(ys) matrix is held."""
    step = max(1, BLOCK_BYTES // (8 * len(ys)))
    return np.concatenate([reduce(k(xs[i : i + step], ys)) for i in range(0, len(xs), step)])


CHOLESKY_TOL = 1e-12  # pivoting stops at this fraction of the largest diagonal


def _kernel_factor(k: Kernel, xs: np.ndarray) -> np.ndarray:
    """R (r x m) with R^T R ~ gram(k, xs), by pivoted incomplete Cholesky
    from k's diagonal and one kernel row per pivot; the Gram is never built.

    It stops at a largest residual diagonal of CHOLESKY_TOL times the
    largest diagonal, which bounds every residual entry of a PSD kernel.
    Kernel rows are the Gram's rows bitwise, and entrywise updates, not
    BLAS, give equal sample points bitwise-equal columns of R.
    """
    m = len(xs)
    step = max(1, math.isqrt(BLOCK_BYTES // 8))
    residual = np.concatenate(
        [np.diag(k(xs[i : i + step], xs[i : i + step])) for i in range(0, m, step)]
    )
    stop = CHOLESKY_TOL * residual.max()
    rows = []
    for _ in range(m):
        pivot = int(np.argmax(residual))
        if residual[pivot] <= stop:
            break
        _check_bytes(8 * m * (len(rows) + 1), f"a kernel factor of {m} rows")
        row = k(xs[pivot : pivot + 1], xs)[0]
        for r in rows:
            row -= r * r[pivot]
        row /= math.sqrt(residual[pivot])
        residual -= row * row
        rows.append(row)
    return np.array(rows).reshape(len(rows), m)


def _first_above(s: np.ndarray, t: float) -> np.ndarray:
    """For each i, the first j with fl(s[j] - s[i]) > t, for sorted s.

    fl(s[j] - s[i]) is nondecreasing in j. searchsorted on fl(s[i] + t)
    can be off only at values within rounding of s[i] + t, and is moved
    past one run of equal values at a time until the test holds.
    """
    m = len(s)
    b = np.searchsorted(s, s + t, side="right")
    while True:
        ahead, behind = np.minimum(b, m - 1), np.maximum(b - 1, 0)
        up = (b < m) & (s[ahead] - s <= t)
        down = (b > 0) & (s[behind] - s > t)
        if not (up.any() or down.any()):
            return b
        b = np.where(up, np.searchsorted(s, s[ahead], side="right"), b)
        b = np.where(down, np.searchsorted(s, s[behind], side="left"), b)


def _pairs_below(first: np.ndarray) -> int:
    """The number of pairs i < j before first[i], given first[i] > i."""
    m = len(first)
    return int(first.sum()) - m * (m + 1) // 2


def _kth_difference(s: np.ndarray, k: int) -> float:
    """The k-th smallest (1-based) of fl(s[j] - s[i]) over pairs i < j of
    the sorted sample s, given fewer than k pairs at most _SQUARE_UNDERFLOW
    apart. It bisects on the value's bit pattern, one O(m log m) count a
    step, until at most m pairs lie between the bounds, and selects there.
    """
    m = len(s)
    bits = np.array([_SQUARE_UNDERFLOW, s[-1] - s[0]]).view(np.int64)
    lo, hi = _first_above(s, _SQUARE_UNDERFLOW), _first_above(s, s[-1] - s[0])
    while bits[1] - bits[0] > 1 and _pairs_below(hi) - _pairs_below(lo) > m:
        mid = bits[0] + (bits[1] - bits[0]) // 2
        first = _first_above(s, float(mid.view(np.float64)))
        if _pairs_below(first) < k:
            bits[0], lo = mid, first
        else:
            bits[1], hi = mid, first
    if bits[1] - bits[0] == 1:
        return float(bits[1:].view(np.float64)[0])
    # the pairs (i, j) with lo[i] <= j < hi[i], and their differences
    widths = hi - lo
    i = np.repeat(np.arange(m), widths)
    j = np.arange(widths.sum()) + np.repeat(lo - np.cumsum(widths) + widths, widths)
    rank = k - _pairs_below(lo) - 1
    return float(np.partition(s[j] - s[i], rank)[rank])


def median_heuristic(xs, ys=None) -> float:
    """Median pairwise Euclidean distance of the (pooled) sample.

    No bandwidth is canonical; this is the documented default, computed
    on the pooled sample so it is invariant to permutations. Falls back
    to 1.0 when all points coincide. A distance is sqrt(fl(d^2)), so one
    whose square underflows counts as zero. A median whose square
    overflows (a spread of about 1e154 or more) raises PreconditionError.
    One-column samples select the median from the sorted sample; wider
    ones hold all m(m-1)/2 distances, within KERNEL_BYTES_CAP.
    """
    xs = _as_matrix(xs)
    bandwidth = _median_distance(xs if ys is None else np.vstack([xs, _as_matrix(ys)]))
    if not math.isfinite(bandwidth * bandwidth):
        raise PreconditionError(
            f"median heuristic bandwidth {bandwidth!r} has no finite square: "
            "the sample's spread is too large"
        )
    return bandwidth


def _median_distance(pool: np.ndarray) -> float:
    m = len(pool)
    if pool.shape[1] == 1:
        s = np.sort(pool[:, 0])
        zeros = _pairs_below(_first_above(s, _SQUARE_UNDERFLOW))
        positive = m * (m - 1) // 2 - zeros
        if positive == 0:
            return 1.0

        def distance(k):  # the k-th smallest positive one
            d = _kth_difference(s, zeros + k)
            return math.sqrt(d * d)

        half = positive // 2
        if positive % 2:
            return distance(half + 1)
        return (distance(half) + distance(half + 1)) / 2.0
    _check_bytes(8 * (m * (m - 1) // 2), f"the median heuristic of {m} rows")
    # the strict upper triangle in row-major order, a block of rows at a
    # time, so no m x m matrix is ever held
    upper = np.empty(m * (m - 1) // 2)
    step = max(1, BLOCK_BYTES // (8 * m))
    pos = 0
    for i in range(0, m - 1, step):
        block = _sq_distances(pool[i : min(i + step, m - 1)], pool[i + 1 :])
        later = block[np.arange(block.shape[1]) >= np.arange(len(block))[:, None]]
        upper[pos : pos + len(later)] = np.sqrt(later)
        pos += len(later)
    positive = upper[upper > 0]
    if positive.size == 0:
        return 1.0
    half, odd = divmod(positive.size, 2)  # np.median's value, without its numpy.ma import
    positive.partition((half - 1 + odd, half))  # in place: a copy would add to peak memory
    return float((positive[half - 1 + odd] + positive[half]) / 2.0)  # x + x halves exactly


def mean_map_apply(k: Kernel, xs, anchors, coeffs) -> float:
    """<mu(X), f> for f = sum_j c_j k(a_j, .): the mean of f on the sample."""
    xs = _as_matrix(xs)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        return 0.0
    anchors = _as_matrix(anchors)
    if anchors.shape[0] != coeffs.shape[0]:
        raise UsageError("one coefficient per anchor point required")
    return float(_row_blocks(k, anchors, xs, lambda g: g.mean(axis=1)) @ coeffs)


# ---------------------------------------------------------------------------
# Permutation machinery


def _permutation_pvalue(observed: float, perm_stats: np.ndarray) -> float:
    b = len(perm_stats)
    return float((1 + int((perm_stats >= observed).sum())) / (1 + b))


def _check_perms(perms: int) -> None:
    """Callers run this before any Gram or fit, so a bad count fails fast."""
    if perms < 1:
        raise UsageError(f"perms must be >= 1, got {perms}")


def _check_alpha(alpha: float) -> None:
    """A significance level lies strictly between 0 and 1; NaN does not."""
    if not 0.0 < alpha < 1.0:
        raise UsageError("alpha must lie in (0, 1)")


def _run_permutations(
    block_stats, perms: int, seed: int, n: int, row_bytes: int
) -> np.ndarray:
    """block_stats of seeded permutations of range(n), drawn and evaluated
    in (b, n) blocks of about BLOCK_BYTES / row_bytes rows."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    per_block = max(1, BLOCK_BYTES // row_bytes)
    stats = []
    for start in range(0, perms, per_block):
        block = [rng.permutation(n) for _ in range(min(per_block, perms - start))]
        stats.append(block_stats(np.array(block)))
    return np.concatenate(stats)


# ---------------------------------------------------------------------------
# MMD two-sample test


@dataclass(frozen=True)
class EmbeddingDistance:
    """Squared RKHS distance between empirical mean maps, with its test."""

    statistic: float
    unbiased: float
    p_value: float
    n_permutations: int
    seed: int


def _mmd_permuted(R: np.ndarray, m: int, perms: int, seed: int):
    """Biased MMD^2 of the split of R's columns into the first m and the
    rest, and of seeded permutations of it. A split's statistic is
    ||R w||^2 for w = 1/m on its x-set and -1/n elsewhere. Each x-set's
    column sum is taken over its sorted indices, so splits with the same
    x-set give bitwise-equal statistics."""
    n = R.shape[1] - m
    Rt = np.ascontiguousarray(R.T)
    total = Rt.sum(axis=0)

    def statistics(block):
        sums = Rt[np.sort(block[:, :m], axis=1)].sum(axis=1)
        return np.square(sums * (1.0 / m + 1.0 / n) - total / n).sum(axis=1)

    observed = float(statistics(np.arange(m + n)[None])[0])
    row_bytes = 8 * (m + n) * (Rt.shape[1] + 1)
    return observed, _run_permutations(statistics, perms, seed, m + n, row_bytes)


def mmd(
    k: Kernel | None,
    xs,
    ys,
    perms: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> EmbeddingDistance:
    """Biased (>= 0) and unbiased squared MMD with a permutation p-value,
    from one factor of the pooled sample's Gram.

    With k=None a Gaussian kernel with the pooled median-heuristic
    bandwidth is used, so the kernel is identical across permutations.
    """
    _check_perms(perms)
    xs, ys = _as_matrix(xs), _as_matrix(ys)
    if xs.shape[1] != ys.shape[1]:
        raise UsageError("samples must share dimensionality")
    if k is None:
        k = GaussianKernel(median_heuristic(xs, ys))
    m, n = len(xs), len(ys)
    R = _kernel_factor(k, np.vstack([xs, ys]))
    observed, perm_stats = _mmd_permuted(R, m, perms, seed)
    # K ~ R^T R: block sums are products of column sums, traces squared norms
    sx, sy = R[:, :m].sum(axis=1), R[:, m:].sum(axis=1)
    unbiased = (
        (float(sx @ sx) - float(np.square(R[:, :m]).sum())) / (m * (m - 1)) if m > 1 else 0.0
    ) + (
        (float(sy @ sy) - float(np.square(R[:, m:]).sum())) / (n * (n - 1)) if n > 1 else 0.0
    ) - 2.0 * float(sx @ sy) / (m * n)
    return EmbeddingDistance(
        statistic=max(observed, 0.0),
        unbiased=unbiased,
        p_value=_permutation_pvalue(observed, perm_stats),
        n_permutations=perms,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# HSIC independence test


@dataclass(frozen=True)
class CiTestResult:
    method: str
    statistic: float
    p_value: float
    cond_set_size: int = 0


MIN_HSIC_SAMPLES = 20
# permuted HSIC statistics this fraction of their bound below the observed
# one may be ties: above the rounding error of a tie
TIE_RTOL = 1e-11


def _centred(R: np.ndarray) -> np.ndarray:
    """R H for the centering matrix H, in place."""
    R -= R.mean(axis=1, keepdims=True)
    return R


def hsic_statistic(kx: Kernel, ky: Kernel, xs, ys) -> float:
    """(1/m^2) trace(K H L H) with the centering matrix H, as
    ||A B^T||_F^2 / m^2 for the centred factors A of K and B of L."""
    xs, ys = _as_matrix(xs), _as_matrix(ys)
    if len(xs) != len(ys):
        raise UsageError("paired samples must have equal length")
    A, B = _centred(_kernel_factor(kx, xs)), _centred(_kernel_factor(ky, ys))
    return float(np.square(A @ B.T).sum()) / len(xs) ** 2


def _column_labels(R: np.ndarray) -> np.ndarray:
    """One integer per column of R, equal for bitwise-equal columns."""
    return np.unique(R.T, axis=0, return_inverse=True)[1].reshape(-1)


def _exact_tie_test(A: np.ndarray, B: np.ndarray):
    """Whether pairing column i of A with column order[i] of B gives the
    identity pairing's HSIC in exact arithmetic.

    With N the contingency table of the groups of equal columns of A and
    of B, and r, c its margins, A B[:, order]^T is linear in m N - r c^T,
    so the statistic is a quadratic form in it: a table N' ties N when
    m N' - r c^T = +-(m N - r c^T). The minus sign needs
    m (N + N') = 2 r c^T > 0 in every cell, so with more than 2m cells
    only N' = N can tie, and sorted pair codes decide it.
    """
    gx, gy = _column_labels(A), _column_labels(B)
    m, y_groups = len(gx), int(gy.max()) + 1
    cells = (int(gx.max()) + 1) * y_groups
    x_code = gx * y_groups
    if cells > 2 * m:
        observed = np.sort(x_code + gy)
        return lambda order: np.array_equal(np.sort(x_code + gy[order]), observed)
    observed = np.bincount(x_code + gy, minlength=cells)
    flipped = 2 * np.outer(np.bincount(gx), np.bincount(gy)).ravel() - m * observed

    def ties(order) -> bool:
        table = np.bincount(x_code + gy[order], minlength=cells)
        return np.array_equal(table, observed) or np.array_equal(m * table, flipped)

    return ties


def _hsic_permuted(A: np.ndarray, B: np.ndarray, perms: int, seed: int):
    """HSIC at the identity order and at seeded permutations of the second
    sample, all by one formula, ||A B[:, p]^T||_F^2 / m^2 for the centred
    factors A = F H of K ~ F^T F and B = G H of L ~ G^T G, with one matmul
    per block of permutations.

    A permuted statistic that rounding puts just below the observed one,
    within TIE_RTOL of their bound, is returned equal to it when it ties
    in exact arithmetic (_exact_tie_test), as with a constant sample or
    two discrete ones. Continuous samples make near-ties that are not ties.
    """
    m = A.shape[1]
    Bt = np.ascontiguousarray(B.T)

    def statistics(block):
        prod = np.square(np.matmul(A, Bt[block]))
        return prod.reshape(len(block), -1).sum(axis=1) / m**2

    observed = float(statistics(np.arange(m)[None])[0])
    # every statistic is at most ||A||_F^2 ||B||_F^2 / m^2
    slack = TIE_RTOL * float(np.square(A).sum() * np.square(B).sum()) / m**2
    tie_test = functools.cache(lambda: _exact_tie_test(A, B))

    def block_stats(block):
        stats = statistics(block)
        for i in np.flatnonzero((stats < observed) & (stats >= observed - slack)):
            if tie_test()(block[i]):
                stats[i] = observed
        return stats

    row_bytes = 8 * m * (Bt.shape[1] + 1)
    return observed, _run_permutations(block_stats, perms, seed, m, row_bytes)


def hsic_test(
    kx: Kernel | None,
    ky: Kernel | None,
    xs,
    ys,
    perms: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> CiTestResult:
    """Paired-sample independence test; the second sample is permuted."""
    _check_perms(perms)
    xs, ys = _as_matrix(xs), _as_matrix(ys)
    if len(xs) != len(ys):
        raise UsageError("paired samples must have equal length")
    if len(xs) < MIN_HSIC_SAMPLES:
        raise UsageError(f"need at least {MIN_HSIC_SAMPLES} paired samples")
    if kx is None:
        kx = GaussianKernel(median_heuristic(xs))
    if ky is None:
        ky = GaussianKernel(median_heuristic(ys))
    A, B = _centred(_kernel_factor(kx, xs)), _centred(_kernel_factor(ky, ys))
    observed, perm_stats = _hsic_permuted(A, B, perms, seed)
    return CiTestResult(
        method="hsic",
        statistic=observed,
        p_value=_permutation_pvalue(observed, perm_stats),
        cond_set_size=0,
    )


# ---------------------------------------------------------------------------
# Kernel ridge regression (plumbing for residual-based CI tests and ANMs)


@dataclass(frozen=True, eq=False)
class KernelRidgeFit:
    kernel: Kernel
    anchors: np.ndarray
    alpha: np.ndarray
    residuals: np.ndarray  # y - K alpha at the anchors

    def predict(self, xs) -> np.ndarray:
        xs = _as_matrix(xs)
        return _row_blocks(self.kernel, xs, self.anchors, lambda g: g @ self.alpha)


def _ridge_residuals(R: np.ndarray, ys: np.ndarray, lam: float) -> np.ndarray:
    """In-sample kernel-ridge residuals y - K alpha = lam alpha for
    (K + lam I) alpha = y and K ~ R^T R, by the Woodbury identity:
    lam (R^T R + lam I)^{-1} y = y - R^T (lam I + R R^T)^{-1} R y.
    ys may hold one response per column."""
    inner = R @ R.T
    inner[np.diag_indices_from(inner)] += lam
    return ys - R.T @ np.linalg.solve(inner, R @ ys)


def kernel_ridge_fit(
    xs, ys, kernel: Kernel | None = None, ridge_scale: float = DEFAULT_RIDGE_SCALE
) -> KernelRidgeFit:
    """Solve (K + scale*m*I) alpha = y on a factor of K; bandwidth defaults
    to the median heuristic."""
    xs = _as_matrix(xs)
    ys = np.asarray(ys, dtype=float).ravel()
    if len(xs) != len(ys):
        raise UsageError("x and y must have equal length")
    if kernel is None:
        kernel = GaussianKernel(median_heuristic(xs))
    lam = ridge_scale * len(xs)
    residuals = _ridge_residuals(_kernel_factor(kernel, xs), ys, lam)
    return KernelRidgeFit(kernel=kernel, anchors=xs, alpha=residuals / lam, residuals=residuals)


# ---------------------------------------------------------------------------
# Conditional-independence tests


MAX_COND_SET = 4
# a residual variance at most this fraction of the variable's own is
# rounding error: the variable is a linear function of the conditioning set
RESIDUAL_RTOL = 1e-10


def _centre(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xs's columns less their means, each mean as m + c: c, the mean of x - m, restores
    what m's rounding loses at x's spread, and q - mean is (q - m) - c. A constant column
    centres to zero. Reductions run along axis 0, fast on a C array's transpose."""
    m = xs.sum(axis=0) / max(len(xs), 1)  # the mean, bitwise, and 0 over no rows
    xc = xs - m
    c = xc.sum(axis=0) / max(len(xs), 1)
    xc -= c
    xc[:, xs.min(axis=0, initial=np.inf) == xs.max(axis=0, initial=-np.inf)] = 0.0
    return xc, m, c


def _lstsq(a: np.ndarray, b: np.ndarray) -> tuple:
    """Least squares of b on a's k columns by one SVD of them at unit norm, singular values
    <= s0 max(n, k) eps dropped (a zero column adds no rank): the coefficients, their
    covariance at unit residual variance, the rank and the residuals."""
    n, k = a.shape
    scale = np.abs(a).max(axis=0, initial=0.0)
    scale[scale == 0] = np.inf
    scale *= np.maximum(np.linalg.norm(a / scale, axis=0), 1.0)  # no overflow
    u, s, vt = np.linalg.svd(a / scale, full_matrices=False)
    r = int((s > s.max(initial=0.0) * max(n, k) * np.finfo(float).eps).sum())  # s descends
    u, s, vt = u[:, :r], s[:r], vt[:r]
    proj = u.T @ b
    cov = (vt.T / s**2) @ vt / np.outer(scale, scale)
    return vt.T @ (proj / s) / scale, cov, r, b - u @ proj


def _linear_fit(xs, y: np.ndarray) -> tuple:
    """Least squares of y on [1, X] for X's k columns xs: _lstsq on the centred columns, a
    column with max|x - mean| <= n eps max|x| taken as constant. Returns the slopes, their
    covariance, the rank of [1, X], the residuals and the centres (m, c), y's last."""
    cols = np.vstack([*xs, y])  # a row per column, so reductions run along rows
    k, n = len(cols) - 1, len(y)
    xc, m, c = _centre(cols.T)
    if not np.isfinite(xc).all():
        raise PreconditionError("a column's mean or spread overflows in a linear fit")
    x = xc[:, :k]
    x[:, np.abs(x).max(axis=0, initial=0.0)
      <= n * np.finfo(float).eps * np.abs(cols[:k]).max(axis=1, initial=0.0)] = 0.0
    beta, cov, r, resid = _lstsq(x, xc[:, k])
    return beta, cov * (resid @ resid) / max(n - 1 - r, 1), 1 + r, resid, (m, c)


class CiTester:
    """Conditional-independence tests on one dataset.

    Partial correlations come from one centred cross-product matrix
    S = Xc^T Xc = R^T R of the dataset's columns, held as the triangular
    factor R of Xc and computed on the first such test: each test takes
    the residual covariance of (a, b) given z, the Schur complement of z
    in S (Kalisch & Bühlmann 2007), from R's columns, so its cost does not
    grow with the number of rows.
    """

    def __init__(self, data: Dataset):
        self.data = data
        self._index = {name: k for k, name in enumerate(data.columns)}
        self._factor = None

    def test(
        self,
        method: str,
        a: str,
        b: str,
        z: tuple[str, ...] | list[str] = (),
        perms: int = DEFAULT_PERMUTATIONS,
        seed: int = 0,
        max_cond: int = MAX_COND_SET,
    ) -> CiTestResult:
        """Test a ⫫ b | z, as ci_test does."""
        zcols = tuple(z)
        if len(zcols) > max_cond:
            raise UsageError(f"conditioning set of {len(zcols)} exceeds max {max_cond}")
        for name in (a, b, *zcols):
            self.data.column(name)  # an unknown name is a usage error
        if method == "partial-correlation":
            return self._partial_correlation(a, b, zcols)
        if method == "kernel-residual":
            return _kernel_residual_test(self.data, a, b, zcols, perms, seed)
        raise UsageError(f"unknown CI test method {method!r}")

    def _partial_correlation(self, a: str, b: str, zcols: tuple[str, ...]) -> CiTestResult:
        n, k = self.data.n, len(zcols)
        if n - k - 3 <= 0:
            raise UsageError(f"need more than {k + 3} rows for |z| = {k}")
        if self._factor is None:
            xc, _, _ = _centre(self.data.matrix(self.data.columns))
            self._factor = np.linalg.qr(xc, mode="r")
        idx = [self._index[name] for name in (a, b, *zcols)]
        return _partial_correlation_test(self._factor.T[idx], n, k)


def ci_test(
    method: str,
    data: Dataset,
    a: str,
    b: str,
    z: tuple[str, ...] | list[str] = (),
    perms: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    max_cond: int = MAX_COND_SET,
) -> CiTestResult:
    """Test a ⫫ b | z on numeric columns.

    "partial-correlation": Fisher-z test on the partial correlation.
    "kernel-residual": HSIC between kernel-ridge residuals of a and b
    after regressing each on z (plain HSIC when z is empty). The
    residual construction is this library's documented choice; it is
    validated empirically, not prescribed by theory.

    One test reads only the columns it names; a CiTester answers many
    tests on one dataset.
    """
    named = data.subset(tuple(dict.fromkeys((a, b, *z))))
    return CiTester(named).test(method, a, b, z, perms, seed, max_cond)


def _kernel_residual_test(
    data: Dataset, a: str, b: str, zcols: tuple[str, ...], perms: int, seed: int
) -> CiTestResult:
    _check_perms(perms)
    xa = data.column(a).astype(float)
    xb = data.column(b).astype(float)
    if zcols:
        # one factor of the conditioning set's Gram serves both fits
        zmat = _as_matrix(data.matrix(zcols))
        lam = DEFAULT_RIDGE_SCALE * len(zmat)
        factor = _kernel_factor(GaussianKernel(median_heuristic(zmat)), zmat)
        xa, xb = _ridge_residuals(factor, np.column_stack([xa, xb]), lam).T
    res = hsic_test(None, None, xa, xb, perms=perms, seed=seed)
    return CiTestResult(
        method="kernel-residual",
        statistic=res.statistic,
        p_value=res.p_value,
        cond_set_size=len(zcols),
    )


def _partial_correlation_test(vs: np.ndarray, n: int, k: int) -> CiTestResult:
    """Fisher-z test of the partial correlation of variables 0 and 1 given
    the rest, over n rows, from rows vs whose inner products are their
    centred cross-products; k is the conditioning set's size as named.

    Modified Gram-Schmidt takes each conditioning variable's component out
    of the rows, one variable at a time, which leaves the Schur complement
    of the conditioning set as the inner products of the first two rows.
    It works on the rows, not on their products, so the conditioning set's
    condition number is not squared. A variable whose residual variance is
    rounding is spanned by the earlier ones and adds nothing, as in a
    least-squares fit on a rank-deficient design.
    """
    own = np.einsum("ij,ij->i", vs, vs)
    for z in range(2, len(vs)):
        proj = vs @ vs[z]
        norm = float(proj[z])
        if norm > RESIDUAL_RTOL * own[z]:
            proj /= norm
            vs = vs - proj[:, None] * vs[z]
    va, vb = vs[0], vs[1]
    var_a, var_b = float(va @ va), float(vb @ vb)
    if not (var_a > RESIDUAL_RTOL * own[0] and var_b > RESIDUAL_RTOL * own[1]):
        raise PreconditionError("degenerate residuals: singular covariance")
    r = float(va @ vb) / math.sqrt(var_a * var_b)
    r = max(min(r, 1.0), -1.0)
    if abs(r) >= 1.0:
        return CiTestResult("partial-correlation", float("inf"), 0.0, k)
    fisher = 0.5 * math.log((1 + r) / (1 - r))
    stat = math.sqrt(n - k - 3) * abs(fisher)
    p = math.erfc(stat / math.sqrt(2.0))
    return CiTestResult("partial-correlation", stat, p, k)


# ---------------------------------------------------------------------------
# VC bound


def vc_bound(r_emp: float, h: int, m: int, delta: float) -> float:
    """Risk bound: empirical risk plus the capacity confidence term.

    r_emp + sqrt((h (log(2m/h) + 1) + log(4/delta)) / m), valid with
    probability at least 1 - delta for a class of VC dimension h. For
    linear separators in R^d the canonical input is h = d + 1 (h = 3 in
    the plane).
    """
    if not 0.0 <= r_emp <= 1.0:
        raise UsageError("empirical risk must lie in [0, 1]")
    if h < 1:
        raise UsageError("VC dimension must be >= 1")
    if m <= h:
        raise UsageError("need more samples than the VC dimension")
    if not 0.0 < delta < 1.0:
        raise UsageError("delta must lie in (0, 1)")
    capacity = h * (math.log(2.0 * m / h) + 1.0) + math.log(4.0 / delta)
    return r_emp + math.sqrt(capacity / m)
