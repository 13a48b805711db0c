"""Kernel machinery: Gram matrices, mean embeddings, MMD and HSIC
permutation tests, conditional-independence tests, and the VC bound.

Permutation p-values use (1 + #{perm >= observed}) / (1 + B), which is
never zero and is super-uniform under the null. Permutation index sets
are drawn from the seed one block at a time, always in the same order,
and each block's statistics are evaluated together, so a p-value depends
only on the seed. HSIC evaluates its permuted statistics from pivoted
incomplete Cholesky factors of its two Grams (Bach & Jordan 2002;
Gretton et al. 2007), and counts those that rounding puts just below the
observed one as ties when they tie it in exact arithmetic.
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
GRAM_SIZE_CAP = 5000  # dense O(m^2) Grams only; documented practical cap
# working set of one block of permutations or distance rows; blocks this
# small stay in cache and reuse heap memory, and measured faster than 8 MiB
BLOCK_BYTES = 1 << 18


def _sq_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of xs and ys.

    Columns are added one at a time in index order, the same summation
    order as a per-pair loop, so the result does not depend on blocking.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[1] != ys.shape[1]:
        raise UsageError("points must share dimensionality")
    if xs.shape[1] == 0:
        return np.zeros((len(xs), len(ys)))
    out = np.square(xs[:, 0, None] - ys[None, :, 0])
    for k in range(1, xs.shape[1]):
        diff = xs[:, k, None] - ys[None, :, k]
        diff *= diff
        out += diff
    return out


# ---------------------------------------------------------------------------
# Kernels


class Kernel:
    """Kernels must be positive semidefinite: HSIC factors their Grams."""

    __slots__ = ()


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """k(x, y) = exp(-||x - y||^2 / (2 bandwidth^2))."""

    bandwidth: float

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise UsageError("bandwidth must be > 0")

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
        return (np.atleast_2d(xs) @ np.atleast_2d(ys).T + self.offset) ** self.degree


@dataclass(frozen=True)
class LinearKernel(Kernel):
    def __call__(self, xs, ys):
        return np.atleast_2d(xs) @ np.atleast_2d(ys).T


def _as_matrix(xs) -> np.ndarray:
    arr = np.asarray(xs, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise UsageError("sample must be a nonempty 1-d or 2-d array")
    if arr.shape[0] > GRAM_SIZE_CAP:
        raise UsageError(
            f"sample of {arr.shape[0]} rows exceeds the dense Gram cap {GRAM_SIZE_CAP}"
        )
    return arr


def gram(k: Kernel, xs) -> np.ndarray:
    """G[i][j] = k(x_i, x_j); symmetric and PSD up to jitter."""
    xs = _as_matrix(xs)
    g = k(xs, xs)
    return (g + g.T) / 2.0


def median_heuristic(xs, ys=None) -> float:
    """Median pairwise Euclidean distance of the (pooled) sample.

    No bandwidth is canonical; this is the documented default, computed
    on the pooled sample so it is invariant to permutations. Falls back
    to 1.0 when all points coincide.
    """
    xs = _as_matrix(xs)
    pool = xs if ys is None else np.vstack([xs, _as_matrix(ys)])
    m = len(pool)
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
    return float(np.median(positive, overwrite_input=True))


def mean_map_apply(k: Kernel, xs, anchors, coeffs) -> float:
    """<mu(X), f> for f = sum_j c_j k(a_j, .): the mean of f on the sample."""
    xs = _as_matrix(xs)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0:
        return 0.0
    anchors = _as_matrix(anchors)
    if anchors.shape[0] != coeffs.shape[0]:
        raise UsageError("one coefficient per anchor point required")
    return float(k(anchors, xs).mean(axis=1) @ coeffs)


# ---------------------------------------------------------------------------
# Permutation machinery


def _permutation_pvalue(observed: float, perm_stats: np.ndarray) -> float:
    b = len(perm_stats)
    return float((1 + int((perm_stats >= observed).sum())) / (1 + b))


def _check_perms(perms: int) -> None:
    """Callers run this before any Gram or fit, so a bad count fails fast."""
    if perms < 1:
        raise UsageError(f"perms must be >= 1, got {perms}")


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


def mmd(
    k: Kernel | None,
    xs,
    ys,
    perms: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> EmbeddingDistance:
    """Biased (>= 0) and unbiased squared MMD with a permutation p-value.

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
    pooled = np.vstack([xs, ys])
    big = gram(k, pooled)
    row_sums = big.sum(axis=1)
    total = float(big.sum())

    def stat(order: np.ndarray) -> float:
        # biased MMD^2 via quadratic forms with the x-membership vector
        v = np.zeros(m + n)
        v[order[:m]] = 1.0
        kv = big @ v
        sxx = float(v @ kv)
        sx_all = float(row_sums @ v)
        sxy = sx_all - sxx
        syy = total - 2.0 * sx_all + sxx
        return sxx / (m * m) - 2.0 * sxy / (m * n) + syy / (n * n)

    identity = np.arange(m + n)
    observed = stat(identity)
    kxx = big[:m, :m]
    kyy = big[m:, m:]
    kxy = big[:m, m:]
    unbiased = float(
        (kxx.sum() - np.trace(kxx)) / (m * (m - 1)) if m > 1 else 0.0
    ) + float(
        (kyy.sum() - np.trace(kyy)) / (n * (n - 1)) if n > 1 else 0.0
    ) - 2.0 * float(kxy.mean())
    perm_stats = _run_permutations(
        lambda block: [stat(order) for order in block], perms, seed, m + n, 8 * (m + n)
    )
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
CHOLESKY_TOL = 1e-12  # pivoting stops at this fraction of the largest diagonal
# permuted HSIC statistics this fraction of their bound below the observed
# one may be ties: above the rounding error of a tie
TIE_RTOL = 1e-11


def _hsic_dense(K: np.ndarray, L: np.ndarray) -> float:
    """(1/m^2) trace(K H L H) with the centering matrix H."""
    Kc = K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()
    return float((Kc * L).sum() / len(L) ** 2)


def hsic_statistic(kx: Kernel, ky: Kernel, xs, ys) -> float:
    """(1/m^2) trace(K H L H) with the centering matrix H."""
    xs, ys = _as_matrix(xs), _as_matrix(ys)
    return _hsic_dense(gram(kx, xs), gram(ky, ys))


def _pivoted_cholesky(g: np.ndarray) -> np.ndarray:
    """R with R^T R ~ g by pivoted incomplete Cholesky. It stops at a
    largest residual diagonal of CHOLESKY_TOL times g's, which bounds every
    residual entry of a PSD g. Entrywise updates, not BLAS, give equal
    columns of g bitwise-equal columns of R.
    """
    residual = np.diag(g).copy()
    stop = CHOLESKY_TOL * residual.max()
    rows = []
    for _ in range(len(g)):
        pivot = int(np.argmax(residual))
        if residual[pivot] <= stop:
            break
        row = g[pivot].copy()
        for r in rows:
            row -= r * r[pivot]
        row /= math.sqrt(residual[pivot])
        residual -= row * row
        rows.append(row)
    return np.array(rows).reshape(len(rows), len(g))


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


def _hsic_permuted(K: np.ndarray, L: np.ndarray, perms: int, seed: int):
    """HSIC at the identity order and at seeded permutations of L's rows,
    all by one formula, ||A B[:, p]^T||_F^2 / m^2 for K ~ F^T F, L ~ G^T G,
    A = F H and B = G H, with one matmul per block of permutations.

    A permuted statistic that rounding puts just below the observed one,
    within TIE_RTOL of their bound, is returned equal to it when it ties
    in exact arithmetic (_exact_tie_test), as with a constant sample or
    two discrete ones. Continuous samples make near-ties that are not ties.
    """
    m = len(L)
    A, B = _pivoted_cholesky(K), _pivoted_cholesky(L)
    for R in (A, B):
        R -= R.mean(axis=1, keepdims=True)
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
    K, L = gram(kx, xs), gram(ky, ys)
    observed, perm_stats = _hsic_permuted(K, L, perms, seed)
    return CiTestResult(
        method="hsic",
        statistic=_hsic_dense(K, L),
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

    def predict(self, xs) -> np.ndarray:
        xs = _as_matrix(xs)
        return self.kernel(xs, self.anchors) @ self.alpha


def kernel_ridge_fit(
    xs, ys, kernel: Kernel | None = None, ridge_scale: float = DEFAULT_RIDGE_SCALE
) -> KernelRidgeFit:
    """Solve (K + scale*m*I) alpha = y; bandwidth defaults to the median heuristic."""
    xs = _as_matrix(xs)
    ys = np.asarray(ys, dtype=float).ravel()
    if len(xs) != len(ys):
        raise UsageError("x and y must have equal length")
    if kernel is None:
        kernel = GaussianKernel(median_heuristic(xs))
    K = gram(kernel, xs)
    lam = ridge_scale * len(xs)
    alpha = np.linalg.solve(K + lam * np.eye(len(xs)), ys)
    return KernelRidgeFit(kernel=kernel, anchors=xs, alpha=alpha)


# ---------------------------------------------------------------------------
# Conditional-independence tests


MAX_COND_SET = 4


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
    """
    zcols = tuple(z)
    if len(zcols) > max_cond:
        raise UsageError(f"conditioning set of {len(zcols)} exceeds max {max_cond}")
    xa = data.column(a).astype(float)
    xb = data.column(b).astype(float)
    if method == "partial-correlation":
        return _partial_correlation_test(xa, xb, data.matrix(zcols), len(zcols))
    if method == "kernel-residual":
        _check_perms(perms)
        if zcols:
            zmat = data.matrix(zcols)
            ra = xa - kernel_ridge_fit(zmat, xa).predict(zmat)
            rb = xb - kernel_ridge_fit(zmat, xb).predict(zmat)
        else:
            ra, rb = xa, xb
        res = hsic_test(None, None, ra, rb, perms=perms, seed=seed)
        return CiTestResult(
            method="kernel-residual",
            statistic=res.statistic,
            p_value=res.p_value,
            cond_set_size=len(zcols),
        )
    raise UsageError(f"unknown CI test method {method!r}")


def _partial_correlation_test(
    xa: np.ndarray, xb: np.ndarray, zmat: np.ndarray, k: int
) -> CiTestResult:
    n = len(xa)
    if n - k - 3 <= 0:
        raise UsageError(f"need more than {k + 3} rows for |z| = {k}")
    design = np.column_stack([np.ones(n), zmat]) if k else np.ones((n, 1))
    beta_a, *_ = np.linalg.lstsq(design, xa, rcond=None)
    beta_b, *_ = np.linalg.lstsq(design, xb, rcond=None)
    ra = xa - design @ beta_a
    rb = xb - design @ beta_b
    denom = math.sqrt(float(ra @ ra) * float(rb @ rb))
    if denom == 0.0:
        raise PreconditionError("degenerate residuals: singular covariance")
    r = float(ra @ rb) / denom
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
