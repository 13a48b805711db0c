import math
from fractions import Fraction

import numpy as np
import pytest

from causelab.cgm import adjustment_formula, sample_cgm
from causelab.data import Dataset
from causelab.errors import (
    OverlapError,
    PreconditionError,
    SeparationError,
    UsageError,
    WeakInstrumentError,
)
from causelab.estimation import (
    ate_front_door,
    ate_ipw,
    ate_iv_2sls,
    ate_nn_matching,
    ate_rct,
    ate_rdd,
    ate_regression_adjustment,
    ate_stratified,
    fit_propensity,
    half_sibling_regress,
    propensity_bins,
)
from causelab.scenarios import get_scenario

from test_cgm import frontdoor_cgm

TRUE_ATE = 1.0
# naive contrast: 1 + 2*(E[Z|T=1] - E[Z|T=0]) = 1 + 2.4*sqrt(2/pi)
NAIVE_CONFOUNDED = 1.0 + 2.4 * math.sqrt(2.0 / math.pi)


def confounded(n, seed, effect=1.0, randomized=False):
    """Continuous confounder Z ~ N(0,1) whose sign W drives treatment:
    p(T=1|Z) = 0.2 + 0.6*W (or 1/2 if randomized); Y = effect*T + 2Z + N(0,1).

    True ATE = effect. W is a valid adjustment set (T depends on Z only
    through W), so stratifying on W, matching/regressing on Z, or
    weighting by the exact propensity all identify the effect.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    w = (z > 0).astype(float)
    p = np.full(n, 0.5) if randomized else 0.2 + 0.6 * w
    t = (rng.random(n) < p).astype(float)
    y = effect * t + 2.0 * z + rng.normal(size=n)
    return Dataset.from_columns({"Z": z, "W": w, "T": t, "Y": y}), p


class TestRct:
    def test_constant_groups(self):
        data = Dataset.from_columns(
            {"T": [1, 1, 0, 0], "Y": [5.0, 5.0, 2.0, 2.0]}
        )
        est = ate_rct(data, "Y", "T")
        assert est.ate == 3.0
        assert est.diagnostics == {"m1": 2, "m0": 2}

    def test_randomized_recovers_truth(self):
        data, _ = confounded(10000, 0, randomized=True)
        est = ate_rct(data, "Y", "T")
        assert abs(est.ate - TRUE_ATE) < 0.05

    def test_confounded_bias_matches_closed_form(self):
        data, _ = confounded(100000, 1)
        est = ate_rct(data, "Y", "T")
        assert abs(est.ate - NAIVE_CONFOUNDED) < 0.05

    def test_empty_group_rejected(self):
        data = Dataset.from_columns({"T": [1, 1], "Y": [1.0, 2.0]})
        with pytest.raises(PreconditionError):
            ate_rct(data, "Y", "T")


class TestRegressionAdjustment:
    def test_confounded_recovers_truth(self):
        data, _ = confounded(10000, 2)
        est = ate_regression_adjustment(data, "Y", "T", ["Z"])
        assert abs(est.ate - TRUE_ATE) < 0.05

    def test_zero_effect(self):
        data, _ = confounded(10000, 3, effect=0.0)
        est = ate_regression_adjustment(data, "Y", "T", ["Z"])
        assert abs(est.ate) < 0.05

    def test_kernel_ridge_variant(self):
        data, _ = confounded(2000, 4)
        est = ate_regression_adjustment(data, "Y", "T", ["Z"], regressor="kernel-ridge")
        assert abs(est.ate - TRUE_ATE) < 0.15

    def test_simpson_reversal_scenario(self):
        data, truth = get_scenario("simpson-reversal").generate(20000, 5)
        naive = ate_rct(data, "Y", "T")
        adjusted = ate_regression_adjustment(data, "Y", "T", ["Z"])
        assert naive.ate < 0  # aggregate trend reversed
        assert abs(adjusted.ate - truth["true_ate"]) < 0.05

    def test_cate_table_for_binary_covariate(self):
        data, _ = confounded(20000, 6)
        est = ate_regression_adjustment(data, "Y", "T", ["W"])
        assert set(est.cate) == {(0.0,), (1.0,)}
        for value in est.cate.values():
            assert abs(value - TRUE_ATE) < 0.1


class TestMatching:
    def test_identical_covariates_constant_outcomes(self):
        data = Dataset.from_columns(
            {"Z": [0.0] * 6, "T": [1, 1, 1, 0, 0, 0], "Y": [4.0] * 3 + [1.0] * 3}
        )
        est = ate_nn_matching(data, "Y", "T", ["Z"])
        assert est.ate == 3.0

    def test_confounded_recovers_truth(self):
        data, _ = confounded(10000, 7)
        est = ate_nn_matching(data, "Y", "T", ["Z"])
        assert abs(est.ate - TRUE_ATE) < 0.1

    def test_duplicated_dataset_identical(self):
        data, _ = confounded(500, 8)
        doubled = Dataset.from_columns(
            {c: np.concatenate([data.column(c), data.column(c)]) for c in data.columns}
        )
        est1 = ate_nn_matching(data, "Y", "T", ["Z"])
        est2 = ate_nn_matching(doubled, "Y", "T", ["Z"])
        assert est1.ate == est2.ate

    def test_covariate_whose_standard_deviation_overflows_rejected(self):
        """A scale of inf would standardize every covariate to 0, and match
        each unit to the first of the other group."""
        data, _ = confounded(200, 9)
        huge = Dataset.from_columns(
            {"Z": 1e200 * data.column("Z"), "T": data.column("T"), "Y": data.column("Y")}
        )
        with np.errstate(over="ignore"), pytest.raises(
            PreconditionError, match="standard deviation overflows"
        ):
            ate_nn_matching(huge, "Y", "T", ["Z"])


class TestStratified:
    def test_single_stratum_equals_rct(self):
        data, _ = confounded(2000, 9)
        est = ate_stratified(data, "Y", "T", np.zeros(data.n))
        assert est.ate == ate_rct(data, "Y", "T").ate

    def test_binary_strata_recover_truth(self):
        data, _ = confounded(10000, 10)
        est = ate_stratified(data, "Y", "T", ["W"])
        assert abs(est.ate - TRUE_ATE) < 0.05
        assert est.diagnostics["strata_kept"] == 2

    def test_converges_to_exact_adjustment_contrast(self):
        m = frontdoor_cgm()  # H observed here; adjust for H
        data = sample_cgm(m, 60000, 11)
        out = adjustment_formula(m, "T", "Y", {"H"})
        exact = float(out[1][1] - out[0][1])  # E[Y|do(1)] - E[Y|do(0)], binary Y
        est = ate_stratified(data, "Y", "T", ["H"])
        assert abs(est.ate - exact) < 3 * est.stderr

    def test_degenerate_strata_dropped(self):
        data = Dataset.from_columns(
            {
                "S": [0, 0, 0, 0, 1, 1],
                "T": [1, 1, 0, 0, 1, 1],
                "Y": [3.0, 3.0, 1.0, 1.0, 9.0, 9.0],
            }
        )
        est = ate_stratified(data, "Y", "T", ["S"])
        assert est.ate == 2.0
        assert est.diagnostics["strata_dropped"] == 1

    def test_all_degenerate_rejected(self):
        data = Dataset.from_columns({"S": [0, 1], "T": [1, 0], "Y": [1.0, 2.0]})
        with pytest.raises(PreconditionError):
            ate_stratified(data, "Y", "T", ["S"])

    def test_propensity_bin_strata(self):
        data, _ = confounded(10000, 34)
        model = fit_propensity(data, "T", ["W"])
        labels = propensity_bins(model.predict(data.matrix(["W"])), bins=5)
        est = ate_stratified(data, "Y", "T", labels)
        assert abs(est.ate - TRUE_ATE) < 0.05


class TestIpw:
    def test_true_propensities_recover_truth(self):
        data, p = confounded(10000, 12)
        est = ate_ipw(data, "Y", "T", ["Z"], p)
        assert abs(est.ate - TRUE_ATE) < 0.05

    def test_constant_half_propensity_relation_to_rct(self):
        data, _ = confounded(5000, 13, randomized=True)
        est = ate_ipw(data, "Y", "T", ["Z"], np.full(data.n, 0.5))
        rct = ate_rct(data, "Y", "T")
        # self-normalized weights collapse to the group-mean contrast
        assert abs(est.ate - rct.ate) < 1e-10
        t, y = data.column("T"), data.column("Y")
        m, m1, m0 = data.n, int(t.sum()), int((1 - t).sum())
        # the documented unnormalized variant differs by the group shares
        expected = 2 * m1 / m * y[t == 1].mean() - 2 * m0 / m * y[t == 0].mean()
        assert abs(est.diagnostics["unnormalized_ate"] - expected) < 1e-10

    def test_fitted_close_to_true(self):
        data, p = confounded(10000, 14)
        model = fit_propensity(data, "T", ["W"])
        est_fit = ate_ipw(data, "Y", "T", ["W"], model)
        est_true = ate_ipw(data, "Y", "T", ["W"], p)
        assert abs(est_fit.ate - est_true.ate) < 0.1

    def test_exact_table_mode(self):
        data, _ = confounded(10000, 15)
        table = {(0.0,): 0.2, (1.0,): 0.8}
        est = ate_ipw(data, "Y", "T", ["W"], table)
        assert abs(est.ate - TRUE_ATE) < 0.05

    def test_clipping_reported(self):
        data, p = confounded(1000, 16)
        extreme = np.where(p > 0.5, 0.999, 0.001)
        est = ate_ipw(data, "Y", "T", ["Z"], extreme, clip=0.05)
        assert est.diagnostics["clipped"] == data.n

    def test_balance_property(self):
        # weighting by 1/s makes the treated covariate mean match the population
        data, p = confounded(50000, 17)
        t, z = data.column("T"), data.column("Z")
        weighted_mean = float((t * z / p).sum() / data.n)
        assert abs(weighted_mean - z.mean()) < 0.02


class TestPropensityFit:
    def test_null_model(self):
        rng = np.random.default_rng(18)
        z = rng.normal(size=20000)
        t = (rng.random(20000) < 0.3).astype(float)
        data = Dataset.from_columns({"Z": z, "T": t})
        model = fit_propensity(data, "T", ["Z"])
        assert model.converged
        assert abs(model.coef[0]) < 0.05
        rate = t.mean()
        assert abs(model.intercept - math.log(rate / (1 - rate))) < 0.05

    def test_logistic_coefficient_recovery(self):
        rng = np.random.default_rng(19)
        z = rng.normal(size=20000)
        t = (rng.random(20000) < 1 / (1 + np.exp(-2 * z))).astype(float)
        data = Dataset.from_columns({"Z": z, "T": t})
        model = fit_propensity(data, "T", ["Z"])
        # coefficient reported on the standardized scale; z has unit variance
        assert abs(model.coef[0] / np.std(z) * 1.0 - 2.0) < 0.1
        preds = model.predict(z[:, None])
        assert np.all((preds > 0) & (preds < 1))

    def test_separation_detected(self):
        z = np.concatenate([np.full(50, -1.0), np.full(50, 1.0)])
        t = np.concatenate([np.zeros(50), np.ones(50)])
        data = Dataset.from_columns({"Z": z, "T": t})
        with pytest.raises(SeparationError):
            fit_propensity(data, "T", ["Z"])

    def test_propensity_bins(self):
        scores = np.linspace(0.01, 0.99, 100)
        labels = propensity_bins(scores, bins=5)
        assert len(np.unique(labels)) == 5


class TestFrontDoorEstimator:
    def test_matches_latent_visible_truth(self):
        scenario = get_scenario("frontdoor")
        data, truth = scenario.generate(50000, 20)
        est = ate_front_door(data, "Y", "T", "M")
        assert abs(est.ate - truth["true_ate"]) < 0.05
        assert abs(est.diagnostics["naive_contrast"] - est.ate) > 0.01  # confounded

    def test_inert_mediator_gives_zero(self):
        rng = np.random.default_rng(21)
        n = 40000
        h = (rng.random(n) < 0.5).astype(float)
        t = (rng.random(n) < np.where(h == 1, 0.8, 0.3)).astype(float)
        m = (rng.random(n) < 0.6).astype(float)  # ignores t
        y = (rng.random(n) < 0.2 + 0.5 * m * h).astype(float)
        data = Dataset.from_columns({"T": t, "M": m, "Y": y})
        est = ate_front_door(data, "Y", "T", "M")
        assert abs(est.ate) < 0.02

    def test_empty_cell_rejected(self):
        data = Dataset.from_columns(
            {"T": [0, 0, 1, 1], "M": [0, 0, 1, 1], "Y": [0.0, 1.0, 0.0, 1.0]}
        )
        with pytest.raises(OverlapError):
            ate_front_door(data, "Y", "T", "M")

    def test_empty_cell_message_has_plain_floats(self):
        data = Dataset.from_columns(
            {"T": [0, 0, 1, 1], "M": [0, 0, 2, 2], "Y": [0.0, 1.0, 0.0, 1.0]}
        )
        with pytest.raises(OverlapError) as info:
            ate_front_door(data, "Y", "T", "M")
        assert str(info.value) == "empty cell (T=0.0, M=2.0)"


class TestIv2sls:
    def test_example_parameters_recovered(self):
        data, truth = get_scenario("iv-linear").generate(10000, 22)
        est = ate_iv_2sls(data, "Y", "T", "I")
        assert abs(est.ate - 2.0) < 0.05
        assert abs(est.diagnostics["naive_ols_slope"] - 7.0 / 3.0) < 0.05

    def test_stderr_matches_the_spread_of_the_estimate(self):
        """The structural residuals' stderr tracks the ATE's spread over
        seeds; stage 2's residuals overstated it about 2.6 times."""
        ates, stderrs = [], []
        for seed in range(48):
            data, _ = get_scenario("iv-linear").generate(2000, 300 + seed)
            est = ate_iv_2sls(data, "Y", "T", "I")
            ates.append(est.ate)
            stderrs.append(est.stderr)
        spread = float(np.std(ates, ddof=1))
        assert abs(float(np.median(stderrs)) / spread - 1.0) < 0.25

    def test_weak_instrument_rejected(self):
        rng = np.random.default_rng(23)
        n = 2000
        i = rng.normal(size=n)
        h = rng.normal(size=n)
        t = h + rng.normal(size=n)  # instrument irrelevant
        y = h + 2 * t + rng.normal(size=n)
        data = Dataset.from_columns({"I": i, "T": t, "Y": y})
        with pytest.raises(WeakInstrumentError):
            ate_iv_2sls(data, "Y", "T", "I")

    @pytest.mark.parametrize("ulps", [1, 19, 20, 100])
    def test_instrument_a_few_ulps_apart(self, ulps):
        """XᵀX squares the design's condition number: rounding can leave it
        singular or indefinite at full rank. Either is a singular fit, never
        a LinAlgError or the square root of a negative variance."""
        from causelab.estimation import _ols

        x = np.tile([1.0, 1.0 + ulps * np.spacing(1.0)], 2)
        try:
            _, cov = _ols(x, np.arange(4.0))
        except PreconditionError as exc:
            assert str(exc) == "constant regressor: the least-squares fit is singular"
        else:
            assert (cov.diagonal() > 0).all()
        iv = np.tile([1.0, 1.0 + ulps * np.spacing(1.0)], 50)
        data = Dataset.from_columns({"I": iv, "T": iv, "Y": np.arange(100.0)})
        with pytest.raises(PreconditionError):
            ate_iv_2sls(data, "Y", "T", "I")

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_is_a_singular_fit(self, n):
        from causelab.estimation import _ols

        with pytest.raises(PreconditionError, match="constant regressor"):
            _ols(np.arange(float(n)), np.arange(float(n)))

    def test_covariance_of_an_ill_conditioned_design_matches_exact_arithmetic(self):
        """XᵀX squares the design's condition number; at x's spread of 100
        ulps its inverse put the slope's variance factor at 2.8e13, against
        4.06e25 in exact arithmetic."""
        from causelab.estimation import _ols

        x = 10 * np.array([1.0, 1 + 100 * np.spacing(1.0), 1 + 50 * np.spacing(1.0)])
        y = np.array([0.0, 1.0, 0.0])
        beta, cov = _ols(x, y)
        xs, ys = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
        xbar, ybar = sum(xs) / 3, sum(ys) / 3
        sxx = sum((v - xbar) ** 2 for v in xs)
        slope = sum((a - xbar) * (b - ybar) for a, b in zip(xs, ys)) / sxx
        intercept = ybar - slope * xbar
        sigma2 = sum((b - intercept - slope * a) ** 2 for a, b in zip(xs, ys))  # n - 2 = 1
        exact = {
            "slope": slope,
            "intercept": intercept,
            "var slope": sigma2 / sxx,
            "var intercept": sigma2 * (Fraction(1, 3) + xbar**2 / sxx),
        }
        got = {
            "slope": beta[1],
            "intercept": beta[0],
            "var slope": cov[1, 1],
            "var intercept": cov[0, 0],
        }
        for name, want in exact.items():
            assert abs(got[name] / float(want) - 1) < 0.1, name


class TestRdd:
    @staticmethod
    def _rdd_data(n, seed, jump=2.0):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1, 1, size=n)
        y = jump * (s >= 0) + s + 0.3 * rng.normal(size=n)
        return Dataset.from_columns({"S": s, "Y": y})

    def test_recovers_jump(self):
        data = self._rdd_data(20000, 24)
        est = ate_rdd(data, "Y", "S", cutoff=0.0, epsilon=0.1)
        assert abs(est.ate - 2.0) < 0.1

    def test_no_jump_gives_zero(self):
        data = self._rdd_data(20000, 25, jump=0.0)
        est = ate_rdd(data, "Y", "S", cutoff=0.0, epsilon=0.1)
        assert abs(est.ate) < 0.1

    def test_window_sensitivity_within_stderr(self):
        data = self._rdd_data(40000, 26)
        wide = ate_rdd(data, "Y", "S", cutoff=0.0, epsilon=0.2)
        narrow = ate_rdd(data, "Y", "S", cutoff=0.0, epsilon=0.1)
        assert abs(wide.ate - narrow.ate) < wide.stderr + narrow.stderr

    def test_empty_side_rejected(self):
        data = self._rdd_data(100, 27)
        with pytest.raises(PreconditionError):
            ate_rdd(data, "Y", "S", cutoff=5.0, epsilon=0.1)


class TestHalfSibling:
    @staticmethod
    def _generator(n, seed, nonlinear=False, corruption=1.0):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=n)
        signal = rng.normal(size=n)
        f = np.tanh(2.0 * q) * 3.0 if nonlinear else 2.0 * q
        target = signal + corruption * f
        siblings = np.column_stack(
            [(0.5 + 0.1 * j) * q + 0.1 * rng.normal(size=n) for j in range(10)]
        )
        return target, siblings, signal

    def test_linear_recovery(self):
        target, siblings, signal = self._generator(2000, 28)
        rec = half_sibling_regress(target, siblings)
        corr = np.corrcoef(rec - rec.mean(), signal - signal.mean())[0, 1]
        assert corr >= 0.95

    def test_zero_corruption_recovers_centered_signal(self):
        target, siblings, signal = self._generator(2000, 29, corruption=0.0)
        rec = half_sibling_regress(target, siblings)
        assert np.abs(rec - (signal - signal.mean())).max() < 0.2

    def test_kernel_ridge_beats_linear_on_nonlinear_noise(self):
        target, siblings, signal = self._generator(1500, 30, nonlinear=True)
        q_proxy = siblings[:, :1]  # single strong sibling carries the nonlinearity
        lin = half_sibling_regress(target, q_proxy, regressor="linear")
        krr = half_sibling_regress(target, q_proxy, regressor="kernel-ridge")

        def corr(a):
            return np.corrcoef(a - a.mean(), signal - signal.mean())[0, 1]

        assert corr(krr) > corr(lin)

    def test_invariant_to_added_sibling_function(self):
        target, siblings, _ = self._generator(2000, 31)
        shifted = target + siblings @ np.arange(1.0, 11.0)
        rec1 = half_sibling_regress(target, siblings)
        rec2 = half_sibling_regress(shifted, siblings)
        assert np.abs(rec1 - rec2).max() < 1e-8

    def test_rank_deficient_rejected(self):
        target = np.arange(10.0)
        siblings = np.ones((10, 2))
        with pytest.raises(PreconditionError):
            half_sibling_regress(target, siblings)


class TestEquivariance:
    def test_translation_and_scale(self):
        data, p = confounded(4000, 32)
        variants = {
            "rct": lambda d: ate_rct(d, "Y", "T"),
            "reg": lambda d: ate_regression_adjustment(d, "Y", "T", ["Z"]),
            "match": lambda d: ate_nn_matching(d, "Y", "T", ["Z"]),
            "strat": lambda d: ate_stratified(d, "Y", "T", ["W"]),
            "ipw": lambda d: ate_ipw(d, "Y", "T", ["Z"], p),
        }
        def with_y(y):
            return Dataset.from_columns(
                {"Z": data.column("Z"), "W": data.column("W"),
                 "T": data.column("T"), "Y": y}
            )
        shifted = with_y(data.column("Y") + 7.0)
        scaled = with_y(data.column("Y") * -3.0)
        for name, fn in variants.items():
            base = fn(data).ate
            assert abs(fn(shifted).ate - base) < 1e-9, name
            assert abs(fn(scaled).ate - (-3.0 * base)) < 1e-9, name

    def test_estimators_agree_on_randomized_data(self):
        data, _ = confounded(20000, 33, randomized=True)
        rct = ate_rct(data, "Y", "T")
        others = [
            ate_regression_adjustment(data, "Y", "T", ["Z"]).ate,
            ate_nn_matching(data, "Y", "T", ["Z"]).ate,
            ate_stratified(data, "Y", "T", ["W"]).ate,
            ate_ipw(data, "Y", "T", ["Z"], np.full(data.n, 0.5)).ate,
        ]
        for ate in others:
            assert abs(ate - rct.ate) < 2 * rct.stderr + 0.02
