"""Treatment-effect estimation from observational data.

All estimators take a Dataset with a binary treatment column (except the
score-based discontinuity design) and return an EffectEstimate carrying
the point estimate plus diagnostics. Everything is deterministic given
the data. Linear fits run on centred columns, so no estimate depends on
where a covariate's zero is; covariates are standardized before matching
and propensity fitting since no metric is canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    OverlapError,
    PreconditionError,
    SeparationError,
    UsageError,
    WeakInstrumentError,
)
from .kernels import _centre, _linear_fit, _sq_distances, kernel_ridge_fit

DEFAULT_CLIP = 0.01
WEAK_INSTRUMENT_TSTAT = 3.0


@dataclass(frozen=True)
class EffectEstimate:
    estimator: str
    ate: float
    stderr: float | None
    diagnostics: dict
    cate: dict | None = None
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Logistic model of p(T=1 | Z); coefficients act on raw covariates."""

    coef: np.ndarray
    intercept: float
    iterations: int
    converged: bool
    _means: tuple[np.ndarray, np.ndarray] = field(repr=False)  # each as m + c
    _scale: np.ndarray = field(repr=False)

    def predict(self, zmat: np.ndarray) -> np.ndarray:
        zmat = np.atleast_2d(np.asarray(zmat, dtype=float))
        zstd = ((zmat - self._means[0]) - self._means[1]) / self._scale
        logits = self.intercept + zstd @ self.coef
        return 1.0 / (1.0 + np.exp(-logits))


def _binary_treatment(data: Dataset, t: str) -> np.ndarray:
    arr = data.column(t)
    if not np.all(np.isin(arr, (0.0, 1.0))):
        raise UsageError(f"treatment column {t!r} is not binary")
    return arr


def _split(data: Dataset, y: str, t: str) -> tuple[np.ndarray, np.ndarray]:
    tv = _binary_treatment(data, t)
    yv = data.column(y).astype(float)
    if not (tv == 1).any() or not (tv == 0).any():
        raise PreconditionError("both treatment groups must be nonempty")
    return yv, tv


def _standardize(zmat: np.ndarray) -> tuple[np.ndarray, tuple, np.ndarray]:
    zc, m, c = _centre(zmat)
    scale = zc.std(axis=0) if len(zc) else np.ones(zc.shape[1])
    if not np.isfinite(scale).all():
        raise PreconditionError("a covariate's standard deviation overflows")
    scale = np.where(scale > 0, scale, 1.0)
    return zc / scale, (m, c), scale


def ate_rct(data: Dataset, y: str, t: str) -> EffectEstimate:
    """Difference of group means; unbiased only under randomization."""
    yv, tv = _split(data, y, t)
    treated, control = yv[tv == 1], yv[tv == 0]
    m1, m0 = len(treated), len(control)
    stderr = math.sqrt(
        (treated.var(ddof=1) / m1 if m1 > 1 else 0.0)
        + (control.var(ddof=1) / m0 if m0 > 1 else 0.0)
    )
    return EffectEstimate(
        estimator="rct",
        ate=float(treated.mean() - control.mean()),
        stderr=stderr,
        diagnostics={"m1": m1, "m0": m0},
    )


def _fit_outcome_model(zmat, yv, regressor):
    if regressor == "linear":
        beta, _, rank, _, (m, c) = _linear_fit(zmat.T, yv)
        if rank < len(beta) + 1:
            raise PreconditionError("singular design in outcome regression")
        return lambda q: (m[-1] + c[-1]) + ((q - m[:-1]) - c[:-1]) @ beta
    if regressor == "kernel-ridge":
        return kernel_ridge_fit(zmat, yv).predict
    raise UsageError(f"unknown regressor {regressor!r}")


def ate_regression_adjustment(
    data: Dataset,
    y: str,
    t: str,
    z: Sequence[str],
    regressor: str = "linear",
) -> EffectEstimate:
    """Fit f(z, t) per arm and impute each unit's counterfactual outcome.

    The two group contrasts (observed-minus-imputed over the treated,
    imputed-minus-observed over the controls) are averaged; each one
    alone estimates the effect on its own subpopulation.
    """
    yv, tv = _split(data, y, t)
    zmat = data.matrix(z)
    z1, z0 = zmat[tv == 1], zmat[tv == 0]
    y1, y0 = yv[tv == 1], yv[tv == 0]
    f1 = _fit_outcome_model(z1, y1, regressor)
    f0 = _fit_outcome_model(z0, y0, regressor)
    m1, m0 = len(y1), len(y0)
    ate = 0.5 * float((y1 - f0(z1)).mean() + (f1(z0) - y0).mean())
    cate = None
    if z and all(data.kinds[c] in ("binary", "categorical") for c in z):
        patterns = np.unique(zmat, axis=0)
        effects = f1(patterns) - f0(patterns)
        cate = {tuple(map(float, p)): float(e) for p, e in zip(patterns, effects)}
    return EffectEstimate(
        estimator="regression-adjustment",
        ate=ate,
        stderr=None,
        diagnostics={"m1": m1, "m0": m0, "regressor": regressor},
        cate=cate,
    )


def ate_nn_matching(data: Dataset, y: str, t: str, z: Sequence[str]) -> EffectEstimate:
    """Nearest opposite-group neighbor on standardized covariates.

    Distance ties break toward the lowest row index, so duplicated data
    match deterministically. The treated-side and control-side matched
    contrasts are averaged, as in the regression-adjustment estimator.
    """
    yv, tv = _split(data, y, t)
    zstd, _, _ = _standardize(data.matrix(z))
    idx1 = np.flatnonzero(tv == 1)
    idx0 = np.flatnonzero(tv == 0)

    def nearest(from_idx, to_idx):
        out = np.empty(len(from_idx), dtype=int)
        block = max(1, int(1e7 // max(1, len(to_idx))))
        target = zstd[to_idx]
        for start in range(0, len(from_idx), block):
            chunk = from_idx[start : start + block]
            d = np.sqrt(_sq_distances(zstd[chunk], target))
            out[start : start + block] = to_idx[np.argmin(d, axis=1)]
        return out

    match1 = nearest(idx1, idx0)  # controls matched to each treated unit
    match0 = nearest(idx0, idx1)
    ate = 0.5 * float(
        (yv[idx1] - yv[match1]).mean() + (yv[match0] - yv[idx0]).mean()
    )
    return EffectEstimate(
        estimator="nn-matching",
        ate=ate,
        stderr=None,
        diagnostics={"m1": len(idx1), "m0": len(idx0)},
    )


def ate_stratified(
    data: Dataset,
    y: str,
    t: str,
    strata: Sequence[str] | np.ndarray,
) -> EffectEstimate:
    """Within-stratum group contrasts, weighted by stratum size.

    `strata` is either a list of (discrete) columns defining covariate
    patterns or a precomputed per-row label array (e.g. propensity
    bins). Strata lacking a treatment group are dropped and counted.
    """
    yv, tv = _split(data, y, t)
    if isinstance(strata, (list, tuple)) and all(isinstance(s, str) for s in strata):
        pattern = data.matrix(strata)
        _, labels = np.unique(pattern, axis=0, return_inverse=True)
    else:
        labels = np.asarray(strata)
        if labels.shape[0] != data.n:
            raise UsageError("stratum labels must align with rows")
        _, labels = np.unique(labels, return_inverse=True)
    total = 0
    acc = 0.0
    var_acc = 0.0
    dropped = 0
    kept = 0
    for k in np.unique(labels):
        sel = labels == k
        tk, yk = tv[sel], yv[sel]
        if not (tk == 1).any() or not (tk == 0).any():
            dropped += 1
            continue
        kept += 1
        mk = int(sel.sum())
        y1, y0 = yk[tk == 1], yk[tk == 0]
        acc += mk * float(y1.mean() - y0.mean())
        se2 = (y1.var(ddof=1) / len(y1) if len(y1) > 1 else 0.0) + (
            y0.var(ddof=1) / len(y0) if len(y0) > 1 else 0.0
        )
        var_acc += (mk * mk) * se2
        total += mk
    if total == 0:
        raise PreconditionError("every stratum lacks a treatment group")
    return EffectEstimate(
        estimator="stratified",
        ate=acc / total,
        stderr=math.sqrt(var_acc) / total,
        diagnostics={
            "m1": int((tv == 1).sum()),
            "m0": int((tv == 0).sum()),
            "strata_kept": kept,
            "strata_dropped": dropped,
            "rows_kept": total,
        },
    )


def propensity_bins(scores: np.ndarray, bins: int = 5) -> np.ndarray:
    """Quantile-bin labels of a propensity score, for stratification."""
    edges = np.quantile(scores, np.linspace(0, 1, bins + 1)[1:-1])
    return np.searchsorted(edges, scores, side="right")


def _resolve_propensity(
    data: Dataset, t: str, z: Sequence[str], propensity
) -> np.ndarray:
    zmat = data.matrix(z)
    if isinstance(propensity, PropensityModel):
        return propensity.predict(zmat)
    if isinstance(propensity, Mapping):
        out = np.empty(data.n)
        for row in range(data.n):
            key = tuple(float(v) for v in zmat[row])
            if key not in propensity:
                raise UsageError(f"no propensity entry for covariate pattern {key}")
            out[row] = propensity[key]
        return out
    arr = np.asarray(propensity, dtype=float)
    if arr.shape != (data.n,):
        raise UsageError("per-row propensities must match the number of rows")
    return arr


def ate_ipw(
    data: Dataset,
    y: str,
    t: str,
    z: Sequence[str],
    propensity,
    clip: float = DEFAULT_CLIP,
) -> EffectEstimate:
    """Inverse probability weighting with clipped scores.

    The reweighted sums are self-normalized by the realized weight
    totals, which keeps the estimator an exact contrast (translation
    equivariant) and consistent for the ATE. Normalizing the two sums by
    the group sizes instead would estimate E[Y(1)]/p(T=1) - E[Y(0)]/p(T=0);
    with a constant score of 1/2 the self-normalized form coincides with
    the plain group-mean contrast. The unnormalized (1/m) variant is
    reported in the diagnostics.
    """
    if not 0 <= clip < 0.5:
        raise UsageError(f"clip must lie in [0, 0.5), got {clip}")
    yv, tv = _split(data, y, t)
    scores = _resolve_propensity(data, t, z, propensity)
    clipped = int(((scores < clip) | (scores > 1 - clip)).sum())
    s = np.clip(scores, clip, 1 - clip)
    m = data.n
    w1 = tv / s
    w0 = (1 - tv) / (1 - s)
    ate = float((w1 * yv).sum() / w1.sum() - (w0 * yv).sum() / w0.sum())
    summand = tv * yv / s - (1 - tv) * yv / (1 - s)
    return EffectEstimate(
        estimator="ipw",
        ate=ate,
        stderr=float(summand.std(ddof=1) / math.sqrt(m)) if m > 1 else None,
        diagnostics={
            "m1": int((tv == 1).sum()),
            "m0": int((tv == 0).sum()),
            "min_propensity": float(scores.min()),
            "max_propensity": float(scores.max()),
            "clipped": clipped,
            "clip": clip,
            "unnormalized_ate": float(summand.mean()),
        },
    )


def fit_propensity(
    data: Dataset,
    t: str,
    z: Sequence[str],
    max_iter: int = 100,
    tol: float = 1e-10,
) -> PropensityModel:
    """Logistic MLE by damped Newton iterations on standardized covariates.

    Raises SeparationError when the groups are perfectly separable (the
    MLE diverges).
    """
    tv = _binary_treatment(data, t)
    zmat = data.matrix(z)
    zstd, means, scale = _standardize(zmat)
    design = np.column_stack([np.ones(data.n), zstd])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise PreconditionError("covariate design is rank-deficient")
    beta = np.zeros(design.shape[1])
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        logits = design @ beta
        p = 1.0 / (1.0 + np.exp(-logits))
        grad = design.T @ (tv - p)
        w = p * (1 - p)
        hess = design.T @ (design * w[:, None]) + 1e-12 * np.eye(design.shape[1])
        step = np.linalg.solve(hess, grad)
        # damping: halve until the log-likelihood does not decrease
        ll_old = float(tv @ logits - np.logaddexp(0.0, logits).sum())
        lam = 1.0
        for _ in range(30):
            candidate = beta + lam * step
            logits_new = design @ candidate
            ll_new = float(tv @ logits_new - np.logaddexp(0.0, logits_new).sum())
            if ll_new >= ll_old - 1e-12:
                break
            lam *= 0.5
        beta = beta + lam * step
        margins = (2 * tv - 1) * (design @ beta)
        if np.linalg.norm(beta[1:], ord=np.inf) > 10.0 and margins.min() > 0:
            raise SeparationError(
                "treatment groups are perfectly separated; propensity MLE diverges"
            )
        if np.linalg.norm(grad, ord=np.inf) < tol:
            converged = True
            break
    return PropensityModel(
        coef=beta[1:],
        intercept=float(beta[0]),
        iterations=iteration,
        converged=converged,
        _means=means,
        _scale=scale,
    )


def ate_front_door(data: Dataset, y: str, t: str, mdtr: str) -> EffectEstimate:
    """Plug-in mediator formula from empirical (t, mediator, y) frequencies.

    E[Y | do(t)] = sum_m p(m|t) sum_t' p(t') E[Y | m, t']; requires every
    (t, m) cell to be populated.
    """
    tv = data.column(t)
    mv = data.column(mdtr)
    yv = data.column(y).astype(float)
    t_vals = np.unique(tv)
    m_vals = np.unique(mv)
    if len(t_vals) < 2:
        raise PreconditionError("treatment takes a single value")
    n = data.n
    p_t = np.array([(tv == a).mean() for a in t_vals])
    cell_mean = np.empty((len(m_vals), len(t_vals)))
    p_m_given_t = np.empty((len(t_vals), len(m_vals)))
    for i, a in enumerate(t_vals):
        sel_t = tv == a
        for j, b in enumerate(m_vals):
            sel = sel_t & (mv == b)
            if not sel.any():
                raise OverlapError(
                    f"empty cell ({t}={float(a)!r}, {mdtr}={float(b)!r})",
                    stratum={t: float(a), mdtr: float(b)},
                )
            cell_mean[j, i] = yv[sel].mean()
            p_m_given_t[i, j] = sel.sum() / sel_t.sum()
    do_mean = {
        float(a): float(p_m_given_t[i] @ (cell_mean @ p_t)) for i, a in enumerate(t_vals)
    }
    if set(do_mean) == {0.0, 1.0}:
        ate = do_mean[1.0] - do_mean[0.0]
        naive = float(yv[tv == 1].mean() - yv[tv == 0].mean())
    else:
        hi, lo = max(do_mean), min(do_mean)
        ate = do_mean[hi] - do_mean[lo]
        naive = float(yv[tv == hi].mean() - yv[tv == lo].mean())
    return EffectEstimate(
        estimator="front-door",
        ate=ate,
        stderr=None,
        diagnostics={
            "m1": int((tv == t_vals[-1]).sum()),
            "m0": int((tv == t_vals[0]).sum()),
            "do_means": {str(k): v for k, v in sorted(do_mean.items())},
            "naive_contrast": naive,
        },
    )


def _ols(x: np.ndarray, yv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (intercept, slope) of y ~ 1 + x and their covariance, from the
    centred fit: with d = -mean(x), the intercept is mean(y) + d slope, of variance
    σ²/n + d² var(slope). A constant x is a singular fit."""
    (slope,), ((var,),), rank, resid, (m, c) = _linear_fit([x], yv)
    if rank < 2:
        raise PreconditionError("constant regressor: the least-squares fit is singular")
    d, sigma2 = -m[0] - c[0], float(resid @ resid) / max(len(x) - 2, 1)
    cov = [[sigma2 / len(x) + d * d * var, d * var], [d * var, var]]
    return np.array([m[1] + c[1] + d * slope, slope]), np.array(cov)


def ate_iv_2sls(
    data: Dataset,
    y: str,
    t: str,
    instrument: str,
    relevance_tstat: float = WEAK_INSTRUMENT_TSTAT,
) -> EffectEstimate:
    """Two-stage least squares with a single instrument.

    Stage 1 regresses treatment on the instrument (relevance enforced by
    a t-statistic threshold). Stage 2's slope of the outcome on the fitted
    treatment, the causal effect β, is the ratio of the outcome's and the
    treatment's slopes on the instrument. Its standard error takes σ from
    the structural residuals y - ȳ - β(t - t̄), not from stage 2's, which
    hold the part of t the instrument does not explain:
    σ √Σ(z - z̄)² / |Σ(z - z̄)(t - t̄)|.
    """
    iv = data.column(instrument).astype(float)
    tv = data.column(t).astype(float)
    yv = data.column(y).astype(float)
    beta1, cov1 = _ols(iv, tv)
    slope1, se1 = float(beta1[1]), math.sqrt(cov1[1, 1])
    tstat = abs(slope1) / se1 if se1 > 0 else (math.inf if slope1 else 0.0)
    if tstat < relevance_tstat:
        raise WeakInstrumentError(
            f"first-stage t-statistic {tstat:.2f} below threshold {relevance_tstat}"
        )
    reduced, _ = _ols(iv, yv)
    naive, _ = _ols(tv, yv)
    ate = float(reduced[1]) / slope1
    zc, tc, yc = _centre(np.column_stack([iv, tv, yv]))[0].T
    resid = yc - ate * tc
    sigma = math.sqrt(float(resid @ resid) / max(data.n - 2, 1))
    return EffectEstimate(
        estimator="2sls",
        ate=ate,
        stderr=sigma * math.sqrt(float(zc @ zc)) / abs(float(zc @ tc)),
        diagnostics={
            "first_stage_slope": slope1,
            "first_stage_tstat": tstat,
            "naive_ols_slope": float(naive[1]),
            "n": data.n,
        },
    )


def ate_rdd(
    data: Dataset,
    y: str,
    score: str,
    cutoff: float,
    epsilon: float,
) -> EffectEstimate:
    """Boundary jump of local linear fits on either side of the cutoff."""
    if epsilon <= 0:
        raise UsageError("epsilon must be > 0")
    sv = data.column(score).astype(float)
    yv = data.column(y).astype(float)
    below = (sv >= cutoff - epsilon) & (sv < cutoff)
    above = (sv >= cutoff) & (sv <= cutoff + epsilon)
    if below.sum() < 3 or above.sum() < 3:
        raise PreconditionError(
            f"too few observations inside the window ({int(below.sum())} below, "
            f"{int(above.sum())} above)"
        )

    # each side's intercept is its fit at the cutoff
    (fit_above, cov_above), (fit_below, cov_below) = (
        _ols(sv[sel] - cutoff, yv[sel]) for sel in (above, below)
    )
    return EffectEstimate(
        estimator="rdd",
        ate=float(fit_above[0] - fit_below[0]),
        stderr=math.sqrt(cov_above[0, 0] + cov_below[0, 0]),
        diagnostics={
            "epsilon": epsilon,
            "cutoff": cutoff,
            "n_below": int(below.sum()),
            "n_above": int(above.sum()),
        },
    )


def half_sibling_regress(
    target: np.ndarray,
    siblings: np.ndarray,
    regressor: str = "linear",
) -> np.ndarray:
    """Reconstruct a signal by removing what co-observed series predict.

    Returns target - E[target | siblings]; under an additive corruption
    shared with the siblings this recovers the clean signal up to a
    constant offset.
    """
    target = np.asarray(target, dtype=float).ravel()
    siblings = np.atleast_2d(np.asarray(siblings, dtype=float))
    if siblings.shape[0] != len(target):
        siblings = siblings.T
    if siblings.shape[0] != len(target):
        raise UsageError("siblings matrix must align with the target series")
    return target - _fit_outcome_model(siblings, target, regressor)(siblings)
