import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causelab.cgm import cgm_from_scm, interventional_marginal, joint
from causelab.errors import (
    InconsistentEvidenceError,
    NonAbducibleError,
    UsageError,
)
from causelab.graph import Dag
from causelab.scm import (
    BinOp,
    Const,
    CounterfactualDistribution,
    DiracNoise,
    FiniteNoise,
    GaussianNoise,
    IndicatorGe,
    Intervention,
    Mechanism,
    NoiseRef,
    Scm,
    Table,
    Unary,
    UniformNoise,
    Var,
    counterfactual,
    induced_graph,
    intervene,
    interventional_mean,
    is_additive_noise,
    ite,
    replace_noise,
    sample,
    scm_from_json,
    scm_to_json,
)

from oracles import counterfactual_by_enumeration, reduced_form_sample


def linear_gaussian_pair():
    """X := U_X, Y := 3X + U_Y with standard normal noise."""
    return Scm(
        variables=("X", "Y"),
        mechanisms={
            "X": Mechanism((), NoiseRef()),
            "Y": Mechanism(
                ("X",), BinOp("+", BinOp("*", Const(3.0), Var("X")), NoiseRef())
            ),
        },
        noises={"X": GaussianNoise(0.0, 1.0), "Y": GaussianNoise(0.0, 1.0)},
    )


def triangle_scm():
    """f1(U1); f2(X1, U2); f3(X1, X2, U3) over binary tables."""
    mech_x1 = Mechanism((), Table((NoiseRef(),), ((0.0, 1.0),), (0.0, 1.0)))
    mech_x2 = Mechanism(
        ("X1",),
        Table(
            (Var("X1"), NoiseRef()),
            ((0.0, 1.0), (0.0, 1.0)),
            (0.0, 1.0, 1.0, 1.0),
        ),
    )
    mech_x3 = Mechanism(
        ("X1", "X2"),
        Table(
            (Var("X1"), Var("X2"), NoiseRef()),
            ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
            (0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0),
        ),
    )
    return Scm(
        variables=("X1", "X2", "X3"),
        mechanisms={"X1": mech_x1, "X2": mech_x2, "X3": mech_x3},
        noises={
            "X1": FiniteNoise((0.0, 1.0), (0.45, 0.55)),
            "X2": FiniteNoise((0.0, 1.0), (0.7, 0.3)),
            "X3": FiniteNoise((0.0, 1.0), (0.8, 0.2)),
        },
    )


class TestConstruction:
    def test_cycle_rejected(self):
        with pytest.raises(UsageError):
            Scm(
                variables=("A", "B"),
                mechanisms={
                    "A": Mechanism(("B",), Var("B")),
                    "B": Mechanism(("A",), Var("A")),
                },
                noises={"A": DiracNoise(0), "B": DiracNoise(0)},
            )

    def test_undeclared_parent_rejected(self):
        with pytest.raises(UsageError):
            Scm(
                variables=("A", "B"),
                mechanisms={
                    "A": Mechanism((), NoiseRef()),
                    "B": Mechanism((), Var("A")),
                },
                noises={"A": GaussianNoise(), "B": GaussianNoise()},
            )

    def test_noise_spec_validation(self):
        with pytest.raises(UsageError):
            FiniteNoise((0.0, 1.0), (0.5, 0.6))
        with pytest.raises(UsageError):
            GaussianNoise(0.0, -1.0)
        with pytest.raises(UsageError):
            UniformNoise(2.0, 1.0)

    def test_additive_detection(self):
        m = linear_gaussian_pair()
        assert is_additive_noise(m.mechanisms["Y"].expr)
        assert is_additive_noise(NoiseRef())
        assert not is_additive_noise(BinOp("*", Var("X"), NoiseRef()))


class TestInducedGraph:
    def test_triangle_structure(self):
        g = induced_graph(triangle_scm())
        assert g == Dag(["X1", "X2", "X3"], [("X1", "X2"), ("X1", "X3"), ("X2", "X3")])

    def test_constant_mechanisms_edgeless(self):
        m = Scm(
            variables=("A", "B"),
            mechanisms={"A": Mechanism((), Const(1.0)), "B": Mechanism((), Const(2.0))},
            noises={"A": DiracNoise(0), "B": DiracNoise(0)},
        )
        assert induced_graph(m).edges == frozenset()

    def test_structural_readback(self):
        m = triangle_scm()
        g = induced_graph(m)
        for name in m.variables:
            declared = set(m.mechanisms[name].parents)
            got = {m.variables[p] for p in g.parents(name)}
            assert declared == got


class TestSampling:
    def test_linear_slope(self):
        data = sample(linear_gaussian_pair(), 10000, 123)
        x, y = data.column("X"), data.column("Y")
        slope = float((x * y).mean() / (x * x).mean())
        assert abs(slope - 3.0) < 0.05

    def test_dirac_rows_identical(self):
        m = Scm(
            variables=("A", "B"),
            mechanisms={
                "A": Mechanism((), NoiseRef()),
                "B": Mechanism(("A",), BinOp("+", Var("A"), NoiseRef())),
            },
            noises={"A": DiracNoise(2.0), "B": DiracNoise(-1.0)},
        )
        data = sample(m, 50, 3)
        assert np.all(data.column("A") == 2.0)
        assert np.all(data.column("B") == 1.0)

    def test_discrete_scm_matches_exact_joint(self):
        m = triangle_scm()
        cg = cgm_from_scm(m)
        exact = joint(cg).values
        data = sample(m, 50000, 17)
        emp = np.zeros_like(exact)
        x1, x2, x3 = (data.column(v) for v in ("X1", "X2", "X3"))
        for i in range(data.n):
            emp[int(x1[i]), int(x2[i]), int(x3[i])] += 1
        emp /= data.n
        assert 0.5 * np.abs(emp - exact).sum() < 0.02

    def test_determinism(self):
        m = linear_gaussian_pair()
        d1 = sample(m, 100, 9)
        d2 = sample(m, 100, 9)
        assert np.array_equal(d1.column("Y"), d2.column("Y"))
        d3 = sample(m, 100, 10)
        assert not np.array_equal(d1.column("Y"), d3.column("Y"))

    def test_n_zero(self):
        assert sample(linear_gaussian_pair(), 0, 1).n == 0


class TestIntervene:
    def test_surgery_removes_incoming(self):
        m = triangle_scm()
        g2 = induced_graph(intervene(m, Intervention({"X2": 1.0})))
        assert g2.edges == frozenset({(0, 2), (1, 2)})  # X1->X3, X2->X3 remain

    def test_root_intervention_leaves_graph(self):
        m = triangle_scm()
        g2 = induced_graph(intervene(m, Intervention({"X1": 1.0})))
        assert g2.edges == induced_graph(m).edges

    def test_surgery_commutes_with_graph(self):
        m = triangle_scm()
        iv = Intervention({"X2": 0.0})
        left = induced_graph(intervene(m, iv))
        g = induced_graph(m)
        right = g.remove_edges(
            [(g.nodes[p], "X2") for p in g.parents("X2")]
        )
        assert left == right

    def test_double_intervention_constant_columns(self):
        m = triangle_scm()
        iv = Intervention({"X1": 1.0, "X2": 0.0})
        data = sample(intervene(m, iv), 200, 5)
        assert np.all(data.column("X1") == 1.0)
        assert np.all(data.column("X2") == 0.0)

    def test_unknown_variable_rejected(self):
        with pytest.raises(UsageError):
            intervene(triangle_scm(), Intervention({"Q": 1.0}))

    def test_out_of_domain_rejected(self):
        with pytest.raises(UsageError):
            intervene(triangle_scm(), Intervention({"X2": 3.0}))

    def test_soft_intervention_replaces_noise(self):
        m = triangle_scm()
        m2 = replace_noise(m, "X1", FiniteNoise((0.0, 1.0), (0.0, 1.0)))
        data = sample(m2, 100, 1)
        assert np.all(data.column("X1") == 1.0)
        assert induced_graph(m2) == induced_graph(m)


class TestInterventionalMean:
    def test_unit_shift_interventional_mean(self):
        mc = interventional_mean(
            linear_gaussian_pair(), Intervention({"X": 1.0}), "Y", 10000, 77
        )
        assert abs(mc.value - 3.0) < 0.05
        assert mc.stderr < 0.02

    def test_self_intervention_exact(self):
        mc = interventional_mean(
            linear_gaussian_pair(), Intervention({"X": 2.5}), "X", 100, 0
        )
        assert mc.value == 2.5 and mc.stderr == 0.0

    def test_matches_gformula_oracle(self):
        m = triangle_scm()
        cg = cgm_from_scm(m)
        exact = float(
            interventional_marginal(cg, "X3", {"X2": 1.0})[1]
        )  # binary mean = p(X3=1)
        mc = interventional_mean(m, Intervention({"X2": 1.0}), "X3", 50000, 4)
        assert abs(mc.value - exact) < 4 * max(mc.stderr, 1e-4)


class TestCounterfactual:
    def test_worked_example_exact(self):
        m = linear_gaussian_pair()
        dist = counterfactual(m, {"X": 2.0, "Y": 6.5}, Intervention({"X": 1.0}), "Y")
        assert dist.is_point_mass
        assert dist.point == 3.5

    def test_differs_from_intervention_by_half(self):
        m = linear_gaussian_pair()
        cf = counterfactual(m, {"X": 2.0, "Y": 6.5}, Intervention({"X": 1.0}), "Y").mean
        mc = interventional_mean(m, Intervention({"X": 1.0}), "Y", 200000, 12)
        assert abs((cf - mc.value) - 0.5) < 0.05

    def test_factual_intervention_returns_evidence(self):
        m = linear_gaussian_pair()
        dist = counterfactual(m, {"X": 2.0, "Y": 6.5}, Intervention({"X": 2.0}), "Y")
        assert dist.point == 6.5

    def test_finite_noise_matches_enumeration_oracle(self):
        m = triangle_scm()
        evidence = {"X1": 1.0, "X2": 1.0, "X3": 1.0}
        iv = Intervention({"X2": 0.0})
        got = counterfactual(m, evidence, iv, "X3")
        expected = counterfactual_by_enumeration(m, evidence, iv, "X3")
        assert set(got.values) == set(expected)
        for v, w in zip(got.values, got.weights):
            assert abs(w - expected[v]) < 1e-12

    def test_incomplete_evidence_rejected(self):
        with pytest.raises(UsageError):
            counterfactual(
                linear_gaussian_pair(), {"X": 1.0}, Intervention({"X": 0.0}), "Y"
            )

    def test_inconsistent_evidence_rejected(self):
        # at (X1=0, X2=0) the X3 table returns 0 for every noise value
        m = triangle_scm()
        with pytest.raises(InconsistentEvidenceError):
            counterfactual(
                m, {"X1": 0.0, "X2": 0.0, "X3": 1.0}, Intervention({"X1": 1.0}), "X3"
            )

    def test_non_abducible_mechanism_rejected(self):
        m = Scm(
            variables=("X", "Y"),
            mechanisms={
                "X": Mechanism((), NoiseRef()),
                "Y": Mechanism(("X",), BinOp("+", Var("X"), Unary("sign", NoiseRef()))),
            },
            noises={"X": GaussianNoise(), "Y": GaussianNoise()},
        )
        with pytest.raises(NonAbducibleError):
            counterfactual(m, {"X": 1.0, "Y": 2.0}, Intervention({"X": 0.0}), "Y")

    def test_invertible_noise_chain(self):
        # Y = X + tanh(U): abduction must invert the tanh
        m = Scm(
            variables=("X", "Y"),
            mechanisms={
                "X": Mechanism((), NoiseRef()),
                "Y": Mechanism(("X",), BinOp("+", Var("X"), Unary("tanh", NoiseRef()))),
            },
            noises={"X": GaussianNoise(), "Y": GaussianNoise()},
        )
        dist = counterfactual(m, {"X": 1.0, "Y": 1.5}, Intervention({"X": 0.0}), "Y")
        assert abs(dist.point - 0.5) < 1e-12

    def test_scaled_noise_inverted(self):
        # Y = 2X + 0.5 U
        m = Scm(
            variables=("X", "Y"),
            mechanisms={
                "X": Mechanism((), NoiseRef()),
                "Y": Mechanism(
                    ("X",),
                    BinOp(
                        "+",
                        BinOp("*", Const(2.0), Var("X")),
                        BinOp("*", Const(0.5), NoiseRef()),
                    ),
                ),
            },
            noises={"X": GaussianNoise(), "Y": GaussianNoise()},
        )
        dist = counterfactual(m, {"X": 1.0, "Y": 3.0}, Intervention({"X": 0.0}), "Y")
        # abduced U_Y = (3 - 2)/0.5 = 2; counterfactual Y = 0 + 0.5*2 = 1
        assert dist.point == 1.0


class TestReducedForm:
    def test_row_identity(self):
        m = triangle_scm()
        d1 = sample(m, 500, 21)
        d2 = reduced_form_sample(m, 500, 21)
        for v in m.variables:
            assert np.array_equal(d1.column(v), d2.column(v))

    def test_row_identity_continuous(self):
        m = linear_gaussian_pair()
        d1 = sample(m, 1000, 8)
        d2 = reduced_form_sample(m, 1000, 8)
        assert np.array_equal(d1.column("Y"), d2.column("Y"))

    def test_chain_depth5_composed_slope(self):
        coefs = [1.5, -0.8, 2.0, 0.5]
        variables = tuple(f"X{i}" for i in range(5))
        mechanisms = {"X0": Mechanism((), NoiseRef())}
        noises = {"X0": GaussianNoise(0.0, 1.0)}
        for i, c in enumerate(coefs, start=1):
            mechanisms[f"X{i}"] = Mechanism(
                (f"X{i-1}",),
                BinOp(
                    "+",
                    BinOp("*", Const(c), Var(f"X{i-1}")),
                    BinOp("*", Const(1e-6), NoiseRef()),
                ),
            )
            noises[f"X{i}"] = GaussianNoise(0.0, 1.0)
        m = Scm(variables=variables, mechanisms=mechanisms, noises=noises)
        data = reduced_form_sample(m, 4000, 2)
        x0, x4 = data.column("X0"), data.column("X4")
        slope = float((x0 * x4).mean() / (x0 * x0).mean())
        assert abs(slope - math.prod(coefs)) < 1e-3


class TestIte:
    def test_additive_treatment_constant_ite(self):
        m = Scm(
            variables=("T", "Z", "Y"),
            mechanisms={
                "T": Mechanism((), IndicatorGe(NoiseRef(), 0.5)),
                "Z": Mechanism((), NoiseRef()),
                "Y": Mechanism(
                    ("T", "Z"), BinOp("+", BinOp("+", Var("T"), Var("Z")), NoiseRef())
                ),
            },
            noises={
                "T": UniformNoise(0.0, 1.0),
                "Z": GaussianNoise(),
                "Y": GaussianNoise(),
            },
        )
        for uz in (-1.0, 0.0, 2.0):
            assert ite(m, {"T": 0.3, "Z": uz, "Y": 0.1}, "T", "Y") == 1.0

    def test_interactive_treatment(self):
        m = Scm(
            variables=("T", "Z", "Y"),
            mechanisms={
                "T": Mechanism((), IndicatorGe(NoiseRef(), 0.5)),
                "Z": Mechanism((), NoiseRef()),
                "Y": Mechanism(
                    ("T", "Z"), BinOp("+", BinOp("*", Var("T"), Var("Z")), NoiseRef())
                ),
            },
            noises={
                "T": UniformNoise(0.0, 1.0),
                "Z": GaussianNoise(),
                "Y": GaussianNoise(),
            },
        )
        assert ite(m, {"T": 0.9, "Z": 2.0, "Y": 0.0}, "T", "Y") == 2.0

    def test_mean_ite_equals_ate(self):
        m = Scm(
            variables=("T", "Z", "Y"),
            mechanisms={
                "T": Mechanism((), IndicatorGe(NoiseRef(), 0.5)),
                "Z": Mechanism((), NoiseRef()),
                "Y": Mechanism(
                    ("T", "Z"),
                    BinOp(
                        "+",
                        BinOp("+", BinOp("*", Var("T"), Var("Z")), Var("T")),
                        NoiseRef(),
                    ),
                ),
            },
            noises={
                "T": UniformNoise(0.0, 1.0),
                "Z": GaussianNoise(1.0, 1.0),
                "Y": GaussianNoise(),
            },
        )
        rng = np.random.default_rng(3)
        ites = [
            ite(
                m,
                {"T": rng.uniform(), "Z": rng.normal(1.0, 1.0), "Y": rng.normal()},
                "T",
                "Y",
            )
            for _ in range(4000)
        ]
        mc1 = interventional_mean(m, Intervention({"T": 1.0}), "Y", 50000, 1)
        mc0 = interventional_mean(m, Intervention({"T": 0.0}), "Y", 50000, 2)
        ate = mc1.value - mc0.value
        se = np.std(ites, ddof=1) / math.sqrt(len(ites))
        assert abs(np.mean(ites) - ate) < 4 * (se + mc1.stderr + mc0.stderr)


class TestJson:
    def test_round_trip_and_stream_identity(self):
        for m in (linear_gaussian_pair(), triangle_scm()):
            text = scm_to_json(m)
            m2 = scm_from_json(text)
            assert scm_to_json(m2) == text
            d1, d2 = sample(m, 200, 6), sample(m2, 200, 6)
            for v in m.variables:
                assert np.array_equal(d1.column(v), d2.column(v))

    def test_bad_json_rejected(self):
        with pytest.raises(UsageError):
            scm_from_json("{")
        with pytest.raises(UsageError):
            scm_from_json('{"variables": [{"name": "X"}]}')


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_counterfactual_factual_consistency_dyadic(seed):
    """Factual intervention reproduces the evidence exactly on dyadic values."""
    rng = np.random.default_rng(seed)
    x = float(np.round(rng.uniform(-4, 4) * 8) / 8)
    y = float(np.round(rng.uniform(-8, 8) * 8) / 8)
    m = linear_gaussian_pair()
    dist = counterfactual(m, {"X": x, "Y": y}, Intervention({"X": x}), "Y")
    assert dist.point == y
