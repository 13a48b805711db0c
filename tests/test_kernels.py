import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from causelab import discovery, kernels
from causelab.data import Dataset
from causelab.errors import PreconditionError, UsageError
from causelab.kernels import (
    CiTestResult,
    GaussianKernel,
    LinearKernel,
    PolynomialKernel,
    ci_test,
    gram,
    hsic_statistic,
    hsic_test,
    kernel_ridge_fit,
    mean_map_apply,
    median_heuristic,
    mmd,
    vc_bound,
)

from oracles import partial_correlation_lstsq

KINDS = [GaussianKernel(1.0), GaussianKernel(0.2), PolynomialKernel(2), PolynomialKernel(3, 0.5), LinearKernel()]


class TestGram:
    def test_gaussian_diag_is_one(self, rng):
        xs = rng.normal(size=(30, 2))
        g = gram(GaussianKernel(0.7), xs)
        assert np.allclose(np.diag(g), 1.0)

    def test_linear_is_outer_product(self, rng):
        xs = rng.normal(size=(15, 3))
        assert np.allclose(gram(LinearKernel(), xs), xs @ xs.T, atol=1e-12)

    def test_quadratic_form_nonnegative(self, rng):
        xs = rng.normal(size=(25, 2))
        g = gram(GaussianKernel(1.0), xs)
        for _ in range(50):
            a = rng.normal(size=25)
            assert a @ g @ a >= -1e-10

    def test_psd_all_kinds(self, rng):
        for k in KINDS:
            for _ in range(20):
                xs = rng.normal(size=(rng.integers(5, 40), rng.integers(1, 4)))
                eig = np.linalg.eigvalsh(gram(k, xs))
                assert eig.min() >= -1e-8, k

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            gram(LinearKernel(), np.empty((0, 2)))

    def test_polynomial_kernel_rejects_negative_offset(self):
        # (<x, y> + c)^d is PSD only for c >= 0
        with pytest.raises(UsageError, match="offset must be >= 0"):
            PolynomialKernel(2, -3.0)
        assert PolynomialKernel(2, 0.0).offset == 0.0


class TestMedianHeuristic:
    def test_two_points(self):
        assert median_heuristic(np.array([[0.0], [3.0]])) == 3.0

    def test_degenerate_falls_back(self):
        assert median_heuristic(np.zeros((5, 1))) == 1.0

    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e308])
    def test_spread_whose_square_overflows_rejected(self, rng, columns, scale):
        """An infinite bandwidth, or one whose square is, would turn every
        kernel value and HSIC statistic to NaN."""
        xs = scale * rng.uniform(-1, 1, size=(40, columns))
        with np.errstate(over="ignore"), pytest.raises(
            PreconditionError, match="has no finite square"
        ):
            median_heuristic(xs)
        assert median_heuristic(xs / scale * 1e150) < 1e151

    @pytest.mark.parametrize("bandwidth", [math.inf, 1e160, math.nan, 0.0])
    def test_gaussian_kernel_rejects_bandwidth_without_finite_square(self, bandwidth):
        with pytest.raises(UsageError, match="bandwidth must be > 0 with a finite square"):
            GaussianKernel(bandwidth)


class TestMeanMap:
    def test_reproducing_single_anchor(self, rng):
        k = GaussianKernel(0.8)
        xs = rng.normal(size=(40, 2))
        x0 = rng.normal(size=(1, 2))
        got = mean_map_apply(k, xs, x0, [1.0])
        expected = float(k(x0, xs).mean())
        assert abs(got - expected) < 1e-12

    def test_random_expansion_matches_direct_mean(self, rng):
        for k in KINDS:
            xs = rng.normal(size=(30, 2))
            anchors = rng.normal(size=(7, 2))
            coeffs = rng.normal(size=7)
            got = mean_map_apply(k, xs, anchors, coeffs)
            direct = np.mean(
                [
                    sum(
                        c * float(k(a[None], x[None])[0, 0])
                        for c, a in zip(coeffs, anchors)
                    )
                    for x in xs
                ]
            )
            assert abs(got - direct) < 1e-10

    def test_zero_function(self, rng):
        xs = rng.normal(size=(10, 1))
        assert mean_map_apply(GaussianKernel(1.0), xs, np.empty((0, 1)), []) == 0.0


class TestMmd:
    def test_identical_samples_zero(self, rng):
        xs = rng.normal(size=(40, 1))
        res = mmd(GaussianKernel(1.0), xs, xs, perms=20, seed=0)
        assert abs(res.statistic) < 1e-12

    def test_symmetric_in_arguments(self, rng):
        xs, ys = rng.normal(size=(30, 1)), rng.normal(1.0, 1.0, size=(25, 1))
        a = mmd(GaussianKernel(1.0), xs, ys, perms=50, seed=1)
        b = mmd(GaussianKernel(1.0), ys, xs, perms=50, seed=1)
        assert abs(a.statistic - b.statistic) < 1e-12

    def test_unbiased_close_to_biased_at_scale(self, rng):
        xs, ys = rng.normal(size=(200, 1)), rng.normal(size=(200, 1))
        res = mmd(None, xs, ys, perms=10, seed=0)
        assert abs(res.statistic - res.unbiased) < 0.05
        assert res.unbiased >= -1e-2  # may dip slightly negative

    def test_statistic_matches_direct_formula(self, rng):
        xs, ys = rng.normal(size=(20, 2)), rng.normal(size=(30, 2))
        k = GaussianKernel(1.3)
        res = mmd(k, xs, ys, perms=5, seed=0)
        direct = float(
            k(xs, xs).mean() - 2 * k(xs, ys).mean() + k(ys, ys).mean()
        )
        assert abs(res.statistic - direct) < 1e-10

    def test_power_on_shifted_normals(self):
        hits = 0
        trials = 30
        for t in range(trials):
            rng = np.random.default_rng(1000 + t)
            xs = rng.normal(size=(500, 1))
            ys = rng.normal(1.0, 1.0, size=(500, 1))
            res = mmd(None, xs, ys, perms=199, seed=t)
            hits += res.p_value < 0.01
        assert hits >= math.ceil(0.95 * trials)

    def test_pvalue_in_unit_interval(self, rng):
        xs, ys = rng.normal(size=(25, 1)), rng.normal(size=(25, 1))
        res = mmd(None, xs, ys, perms=99, seed=4)
        assert 0.0 < res.p_value <= 1.0


class TestHsic:
    def test_constant_y_zero_statistic(self, rng):
        xs = rng.normal(size=50)
        ys = np.full(50, 2.0)
        assert abs(hsic_statistic(GaussianKernel(1.0), GaussianKernel(1.0), xs, ys)) < 1e-12

    def test_detects_quadratic_dependence(self):
        hits = 0
        for t in range(10):
            rng = np.random.default_rng(500 + t)
            x = rng.uniform(-1, 1, size=500)
            y = x**2 + 0.05 * rng.normal(size=500)
            res = hsic_test(None, None, x, y, perms=199, seed=t)
            # near-zero linear correlation, strong dependence
            assert abs(np.corrcoef(x, y)[0, 1]) < 0.25
            hits += res.p_value < 0.01
        assert hits >= 9

    def test_calibrated_on_independent_binary_columns(self):
        # contingency-table-preserving permutations tie the observed
        # statistic; counting them keeps the test super-uniform
        p = []
        for t in range(300):
            rng = np.random.default_rng(900 + t)
            m = int(rng.integers(20, 61))
            x, y = rng.integers(0, 2, size=(2, m)).astype(float)
            p.append(hsic_test(None, None, x, y, perms=99, seed=t).p_value)
        p = np.array(p)
        for alpha in (0.05, 0.1, 0.25, 0.5):
            assert (p <= alpha).mean() <= alpha + 3 * math.sqrt(alpha / len(p))

    def test_statistic_invariant_under_joint_shuffle(self, rng):
        x = rng.normal(size=80)
        y = x + rng.normal(size=80)
        perm = rng.permutation(80)
        s1 = hsic_statistic(GaussianKernel(1.0), GaussianKernel(1.0), x, y)
        s2 = hsic_statistic(GaussianKernel(1.0), GaussianKernel(1.0), x[perm], y[perm])
        assert abs(s1 - s2) < 1e-12

    def test_small_sample_rejected(self, rng):
        with pytest.raises(UsageError):
            hsic_test(None, None, rng.normal(size=10), rng.normal(size=10))

    def test_unequal_lengths_rejected(self, rng):
        with pytest.raises(UsageError):
            hsic_test(None, None, rng.normal(size=30), rng.normal(size=29))

    def test_deterministic_given_seed(self, rng):
        x, y = rng.normal(size=60), rng.normal(size=60)
        a = hsic_test(None, None, x, y, perms=99, seed=7)
        b = hsic_test(None, None, x, y, perms=99, seed=7)
        assert a == b

    def test_permutations_never_copy_a_gram(self, rng):
        m = 1500
        x = rng.normal(size=m)
        y = x + rng.normal(size=m)
        A, B = (
            kernels._centred(kernels._kernel_factor(GaussianKernel(median_heuristic(v)), v))
            for v in (x[:, None], y[:, None])
        )
        tracemalloc.start()
        try:
            kernels._hsic_permuted(A, B, 100, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m

    def test_schedule_independent_under_thread_cap(self, rng, monkeypatch):
        x, y = rng.normal(size=60), rng.normal(size=60)
        base = hsic_test(None, None, x, y, perms=99, seed=7)
        monkeypatch.setenv("CAUSELAB_THREADS", "4")
        threaded = hsic_test(None, None, x, y, perms=99, seed=7)
        assert threaded == base


def _five_thousand_row_calls():
    m = 5000
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, m)
    y = x**3 + x + rng.uniform(-0.5, 0.5, m)
    data = Dataset.from_columns({"X": x, "Y": y, "Z": rng.normal(size=m)})
    return {
        "hsic_test": lambda: hsic_test(None, None, x, y, perms=20),
        "ci_test": lambda: ci_test("kernel-residual", data, "X", "Y", ("Z",), perms=20),
        "mmd": lambda: mmd(None, x[:2500], y[2500:], perms=20),
        "anm_direction": lambda: discovery.anm_direction(
            data, "X", "Y", discovery.DiscoveryConfig(perms=20)
        ),
    }


@pytest.mark.parametrize("name", sorted(_five_thousand_row_calls()))
def test_kernel_paths_hold_no_gram_at_5000_rows(name):
    """One-column tests at 5,000 rows run on low-rank factors: a dense Gram
    alone would be 191 MiB."""
    call = _five_thousand_row_calls()[name]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_byte_cap_refuses_before_allocating(monkeypatch):
    # every input the old 5,000-row cap took fits: the distances of two
    # pooled 5,000-row samples, and a full-rank 5,000-row factor or Gram
    assert 8 * (10_000 * 9_999 // 2) <= kernels.KERNEL_BYTES_CAP
    assert 8 * 5_000**2 <= kernels.KERNEL_BYTES_CAP
    with pytest.raises(UsageError, match="dense Gram of 7072 rows needs 400105472 bytes"):
        gram(LinearKernel(), np.zeros((7072, 1)))
    with pytest.raises(UsageError, match="median heuristic of 10001 rows"):
        median_heuristic(np.zeros((5001, 2)), np.zeros((5000, 2)))
    monkeypatch.setattr(kernels, "KERNEL_BYTES_CAP", 8 * 100 * 10)
    xs = np.arange(100.0)[:, None]
    assert kernels._kernel_factor(GaussianKernel(0.01), xs[:10]).shape == (10, 10)
    with pytest.raises(UsageError, match="kernel factor of 100 rows needs 8800 bytes"):
        kernels._kernel_factor(GaussianKernel(0.01), xs)


def test_gaussian_kernel_without_coordinates_is_one():
    k = GaussianKernel(0.5)(np.empty((2, 0)), np.empty((3, 0)))
    assert k.tolist() == [[1.0] * 3] * 2


def test_mismatched_dimensions_rejected():
    with pytest.raises(UsageError):
        GaussianKernel(1.0)(np.zeros((2, 2)), np.zeros((2, 3)))


def test_cli_and_estimation_import_without_scipy():
    import causelab

    src = str(Path(causelab.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, causelab.cli, causelab.estimation; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def chain_dataset(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 1.2 * x + rng.normal(size=n)
    z = -0.9 * y + rng.normal(size=n)
    return Dataset.from_columns({"X": x, "Y": y, "Z": z})


def _perms_zero_calls():
    rng = np.random.default_rng(3)
    x, y, z = rng.normal(size=(3, 200))
    data = Dataset.from_columns({"A": x, "B": y + x, "C": z})
    return {
        "hsic_test": lambda: hsic_test(None, None, x, y, perms=0),
        "mmd": lambda: mmd(None, x, y, perms=0),
        "ci_test": lambda: ci_test("kernel-residual", data, "A", "B", ("C",), perms=0),
        "anm_direction": lambda: discovery.anm_direction(
            data, "A", "B", discovery.DiscoveryConfig(perms=0)
        ),
    }


@pytest.mark.parametrize("name", sorted(_perms_zero_calls()))
def test_perms_checked_before_any_gram_or_fit(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Gram or fit built before the perms check")

    for module, attr in [
        (kernels, "gram"),
        (kernels, "median_heuristic"),
        (kernels, "kernel_ridge_fit"),
        (discovery, "kernel_ridge_fit"),  # bound by name at import
        (kernels, "_kernel_factor"),
    ]:
        monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(UsageError, match="perms must be >= 1, got 0"):
        _perms_zero_calls()[name]()


class TestCiTest:
    def test_partial_correlation_chain(self):
        passed_cond, rejected_marg = 0, 0
        for seed in range(10):
            data = chain_dataset(5000, seed)
            cond = ci_test("partial-correlation", data, "X", "Z", ("Y",))
            marg = ci_test("partial-correlation", data, "X", "Z")
            passed_cond += cond.p_value > 0.05
            rejected_marg += marg.p_value < 0.01
        assert passed_cond >= 9
        assert rejected_marg == 10

    def test_kernel_residual_chain(self):
        data = chain_dataset(400, 3)
        cond = ci_test("kernel-residual", data, "X", "Z", ("Y",), perms=199, seed=0)
        marg = ci_test("kernel-residual", data, "X", "Z", perms=199, seed=0)
        assert cond.p_value > 0.05
        assert marg.p_value < 0.01
        assert cond.cond_set_size == 1

    def test_self_test_always_rejects(self):
        data = chain_dataset(200, 1)
        res = ci_test("partial-correlation", data, "X", "X")
        assert res.p_value == 0.0

    def test_cond_limit(self):
        data = chain_dataset(100, 2)
        with pytest.raises(UsageError):
            ci_test("partial-correlation", data, "X", "Z", ("Y",) * 5)

    def test_degenerate_residuals_error(self):
        data = Dataset.from_columns({"A": np.ones(50), "B": np.ones(50)})
        with pytest.raises(PreconditionError):
            ci_test("partial-correlation", data, "A", "B")

    @staticmethod
    def collinear_dataset():
        data = chain_dataset(500, 4)
        x = data.column("X")
        return Dataset.from_columns({
            **{c: data.column(c) for c in data.columns},
            "X2": x.copy(), "X3": 3.0 * x + 1.0, "C": np.full(500, 0.1),
        })

    @pytest.mark.parametrize("a, z", [
        ("X2", ("X",)), ("X3", ("X",)), ("X", ("X3", "Y")), ("C", ()), ("C", ("Y",)),
    ])
    def test_variable_spanned_by_z_is_degenerate(self, a, z):
        """A residual variance of rounding size raises, whatever its sign."""
        data = self.collinear_dataset()
        for b in ("Y", "Z"):
            with pytest.raises(PreconditionError, match="degenerate residuals"):
                ci_test("partial-correlation", data, a, b, z)
            with pytest.raises(PreconditionError, match="degenerate residuals"):
                ci_test("partial-correlation", data, b, a, z)

    def test_rank_deficient_z_adds_nothing(self):
        data = self.collinear_dataset()
        once = ci_test("partial-correlation", data, "Y", "Z", ("X",))
        for z in (("X", "X2"), ("X", "X3"), ("X3", "X2", "X"), ("X", "C")):
            res = ci_test("partial-correlation", data, "Y", "Z", z)
            dual = partial_correlation_lstsq(data, "Y", "Z", z)
            assert res.cond_set_size == len(z)
            assert res.statistic == pytest.approx(dual.statistic, rel=1e-12)
            # only the degrees of freedom, n - |z| - 3, tell z from ("X",)
            scale = math.sqrt((500 - len(z) - 3) / (500 - 1 - 3))
            assert res.statistic == pytest.approx(once.statistic * scale, rel=1e-12)

    def test_affine_images_in_z_add_nothing(self):
        """Eliminating x leaves its affine image a residual of rounding
        size; eliminating that too would divide by rounding error."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 60))
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4) + rng.choice([0.0, 5.0, -100.0])
            y = x + rng.normal(size=n)
            data = Dataset.from_columns(
                {"X": x, "X3": rng.uniform(-5, 5) * x + 1.0, "Y": y, "Z": y + rng.normal(size=n)}
            )
            res = ci_test("partial-correlation", data, "Y", "Z", ("X", "X3"))
            once = partial_correlation_lstsq(data, "Y", "Z", ("X",))
            scale = math.sqrt((n - 2 - 3) / (n - 1 - 3))
            assert res.statistic == pytest.approx(once.statistic * scale, rel=1e-9), seed

    def test_precision_survives_a_nearly_explained_variable(self):
        """Y given X with R^2 = 1 - 1e-8: products of the columns would
        lose 8 digits of Y's residual variance, the rows themselves do not."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=300)
            y = x + 1e-4 * rng.normal(size=300)
            data = Dataset.from_columns({"X": x, "Y": y, "Z": y + 1e-4 * rng.normal(size=300)})
            res = ci_test("partial-correlation", data, "Y", "Z", ("X",))
            dual = partial_correlation_lstsq(data, "Y", "Z", ("X",))
            assert res.statistic == pytest.approx(dual.statistic, rel=1e-9), seed

    def test_self_test_given_z_rejects(self):
        data = self.collinear_dataset()
        for z in ((), ("X",), ("Z", "C")):
            res = ci_test("partial-correlation", data, "Y", "Y", z)
            assert res.p_value == 0.0 and math.isinf(res.statistic)

    def test_tester_matches_single_tests(self):
        """PC's tester, over every column, and ci_test, over the named
        ones, agree, and the factor is built once."""
        data = self.collinear_dataset()
        tester = kernels.CiTester(data)
        for a, b, z in [("X", "Z", ("Y",)), ("Z", "X", ()), ("Y", "Z", ("X2", "C"))]:
            res = tester.test("partial-correlation", a, b, z)
            assert res.statistic == pytest.approx(
                ci_test("partial-correlation", data, a, b, z).statistic, rel=1e-12
            )
        factor = tester._factor
        tester.test("partial-correlation", "X", "Y")
        assert tester._factor is factor and factor.shape == (6, 6)
        with pytest.raises(UsageError, match="unknown column 'W'"):
            tester.test("partial-correlation", "X", "Y", ("W",))


class TestKernelRidge:
    def test_interpolates_smooth_function(self, rng):
        x = np.linspace(-2, 2, 200)
        y = np.tanh(x)
        fit = kernel_ridge_fit(x, y)
        pred = fit.predict(x)
        assert np.abs(pred - y).max() < 0.05


VC_FROZEN = 0.16397834353138158  # mpmath 50-digit evaluation, r=0, h=3, m=1000, d=0.05


class TestVcBound:
    def test_frozen_high_precision_value(self):
        assert abs(vc_bound(0.0, 3, 1000, 0.05) - VC_FROZEN) < 1e-12

    def test_matches_mpmath_on_random_tuples(self, rng):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for _ in range(20):
            r = float(rng.uniform(0, 1))
            h = int(rng.integers(1, 50))
            m = int(rng.integers(h + 1, 100000))
            delta = float(rng.uniform(0.001, 0.999))
            expected = float(
                mp.mpf(r)
                + mp.sqrt(
                    (h * (mp.log(2 * mp.mpf(m) / h) + 1) + mp.log(4 / mp.mpf(delta)))
                    / m
                )
            )
            assert abs(vc_bound(r, h, m, delta) - expected) < 1e-12

    def test_monotone_decreasing_in_m(self):
        assert vc_bound(0.1, 3, 10000, 0.05) < vc_bound(0.1, 3, 1000, 0.05)

    def test_domain_errors(self):
        with pytest.raises(UsageError):
            vc_bound(-0.1, 3, 100, 0.05)
        with pytest.raises(UsageError):
            vc_bound(0.1, 0, 100, 0.05)
        with pytest.raises(UsageError):
            vc_bound(0.1, 101, 100, 0.05)
        with pytest.raises(UsageError):
            vc_bound(0.1, 3, 100, 1.5)
