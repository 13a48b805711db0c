import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causelab.cgm import (
    Cpt,
    DiscreteCgm,
    adjustment_formula,
    cgm_from_json,
    cgm_from_scm,
    cgm_to_json,
    cmi,
    condition,
    front_door_formula,
    interventional_marginal,
    joint,
    random_cgm,
    sample_cgm,
    truncated_factorization,
)
from causelab.errors import OverlapError, PreconditionError, UsageError
from causelab.graph import Dag, enumerate_dags, implied_independences
from causelab.scm import (
    BinOp,
    Const,
    FiniteNoise,
    Intervention,
    Mechanism,
    NoiseRef,
    Scm,
    Var,
)

from conftest import covariate_web_graph, random_dag
from oracles import enumerate_joint_from_cpts

TRIANGLE = Dag(["X1", "X2", "X3"], [("X1", "X2"), ("X1", "X3"), ("X2", "X3")])


def single_binary(p1=0.7):
    dag = Dag(["X"], [])
    return DiscreteCgm(
        dag=dag,
        domains={"X": (0, 1)},
        cpts={"X": Cpt("X", (), np.array([1 - p1, p1]))},
    )


class TestConstruction:
    def test_row_sum_enforced(self):
        with pytest.raises(UsageError):
            Cpt("X", (), np.array([0.5, 0.6]))

    def test_negative_rejected(self):
        with pytest.raises(UsageError):
            Cpt("X", (), np.array([-0.1, 1.1]))

    def test_parent_mismatch_rejected(self, rng):
        dag = Dag(["A", "B"], [("A", "B")])
        cpts = {
            "A": Cpt("A", (), np.array([0.5, 0.5])),
            "B": Cpt("B", (), np.array([0.5, 0.5])),  # should list parent A
        }
        with pytest.raises(UsageError):
            DiscreteCgm(dag=dag, domains={"A": (0, 1), "B": (0, 1)}, cpts=cpts)


class TestJoint:
    def test_single_binary_node(self):
        f = joint(single_binary(0.7))
        assert np.allclose(f.values, [0.3, 0.7])

    def test_sums_to_one(self, rng):
        m = random_cgm(covariate_web_graph(), rng)
        assert abs(joint(m).total() - 1.0) < 1e-10

    def test_matches_atomwise_oracle(self, rng):
        m = random_cgm(random_dag(4, rng), rng)
        nodes, table = enumerate_joint_from_cpts(m)
        f = joint(m)
        assert f.scope == nodes
        for assignment, p in table.items():
            idx = tuple(m.domains[v].index(a) for v, a in zip(nodes, assignment))
            assert abs(f.values[idx] - p) < 1e-12

    def test_marginalizing_recovers_cpt_rows(self, rng):
        m = random_cgm(TRIANGLE, rng)
        f = joint(m)
        # p(X3 | X1, X2) from the joint equals the stored CPT
        marg = f.marginal(["X1", "X2", "X3"]).values
        denom = marg.sum(axis=2, keepdims=True)
        cond = marg / denom
        assert np.allclose(cond, m.cpts["X3"].values, atol=1e-12)

    def test_entangled_refactorization_matches(self, rng):
        # reverse-order chain-rule factors multiply back to the same joint
        m = random_cgm(TRIANGLE, rng)
        f = joint(m)
        p = f.values  # axes X1, X2, X3
        p3 = p.sum(axis=(0, 1))
        p23 = p.sum(axis=0)
        entangled = (
            (p / np.where(p23 == 0, 1, p23)[None, :, :])
            * (p23 / np.where(p3 == 0, 1, p3)[None, :])[None, :, :]
            * p3[None, None, :]
        )
        assert np.allclose(entangled, p, atol=1e-12)

    def test_state_space_limit(self, rng):
        m = random_cgm(random_dag(4, rng), rng)
        with pytest.raises(UsageError):
            joint(m, limit=8)

    def test_marginal_of_an_unknown_name_is_a_usage_error(self, rng):
        f = joint(random_cgm(TRIANGLE, rng))
        with pytest.raises(UsageError, match="'Q' is not in the factor's scope"):
            f.marginal(["X1", "Q"])

    def test_marginal_with_a_repeated_name_is_a_usage_error(self, rng):
        f = joint(random_cgm(TRIANGLE, rng))
        with pytest.raises(UsageError, match="'X2' is repeated"):
            f.marginal(["X2", "X1", "X2"])

    def test_marginal_over_no_variables_is_the_total_mass(self, rng):
        f = truncated_factorization(random_cgm(TRIANGLE, rng), {"X2": 0})
        empty = f.marginal([])
        assert empty.scope == () and empty.values.shape == ()
        assert float(empty.values) == f.total()
        assert abs(f.total() - 1.0) < 1e-12
        # no variable at all, and one point mass alone, contract to 1
        assert joint(single_binary()).marginal([]).values.shape == ()
        for f in (joint(single_binary()), truncated_factorization(single_binary(), {"X": 1})):
            assert f.total() == 1.0


class TestCondition:
    def test_conditional_weighted_sum_identity(self, rng):
        # p(X3 | x2) = sum_x1 p(x1 | x2) p(X3 | x1, x2)
        m = random_cgm(TRIANGLE, rng)
        f = joint(m)
        marg12 = f.marginal(["X1", "X2"]).values
        p_x1_given_x2 = marg12[:, 1] / marg12[:, 1].sum()
        expected = np.einsum("a,ab->b", p_x1_given_x2, m.cpts["X3"].values[:, 1, :])
        assert np.allclose(condition(m, "X3", {"X2": 1}), expected, atol=1e-12)

    def test_full_evidence_indicator(self, rng):
        m = random_cgm(TRIANGLE, rng)
        out = condition(m, "X3", {"X1": 0, "X2": 1, "X3": 1})
        assert np.allclose(out, [0.0, 1.0])

    def test_matches_bruteforce_conditioning(self, rng):
        m = random_cgm(random_dag(4, rng), rng)
        nodes, table = enumerate_joint_from_cpts(m)
        query, ev_var = nodes[0], nodes[-1]
        ev = {ev_var: m.domains[ev_var][0]}
        num = np.zeros(len(m.domains[query]))
        for assignment, p in table.items():
            env = dict(zip(nodes, assignment))
            if env[ev_var] == ev[ev_var]:
                num[m.domains[query].index(env[query])] += p
        expected = num / num.sum()
        assert np.allclose(condition(m, query, ev), expected, atol=1e-12)

    def test_zero_probability_evidence_is_error(self):
        dag = Dag(["A", "B"], [("A", "B")])
        cpts = {
            "A": Cpt("A", (), np.array([1.0, 0.0])),
            "B": Cpt("B", ("A",), np.array([[0.5, 0.5], [0.5, 0.5]])),
        }
        m = DiscreteCgm(dag=dag, domains={"A": (0, 1), "B": (0, 1)}, cpts=cpts)
        with pytest.raises(UsageError):
            condition(m, "B", {"A": 1})


class TestTruncatedFactorization:
    def test_intervention_replaces_conditional_with_marginal(self, rng):
        m = random_cgm(TRIANGLE, rng)
        # p(X3 | do(x2)) = sum_x1 p(x1) p(X3 | x1, x2)
        p_x1 = m.cpts["X1"].values
        expected = np.einsum("a,ab->b", p_x1, m.cpts["X3"].values[:, 1, :])
        f = truncated_factorization(m, Intervention({"X2": 1}))
        got = f.marginal(["X3"]).values
        assert np.allclose(got, expected, atol=1e-12)

    def test_intervene_everything_point_mass(self, rng):
        m = random_cgm(TRIANGLE, rng)
        f = truncated_factorization(m, {"X1": 1, "X2": 0, "X3": 1})
        assert abs(f.values[1, 0, 1] - 1.0) < 1e-12
        assert abs(f.total() - 1.0) < 1e-12

    def test_confounded_interventional_differs_from_conditional(self, rng):
        found_difference = False
        for _ in range(20):
            m = random_cgm(TRIANGLE, rng)
            inter = interventional_marginal(m, "X3", {"X2": 1})
            cond = condition(m, "X3", {"X2": 1})
            if np.abs(inter - cond).max() > 1e-3:
                found_difference = True
                break
        assert found_difference

    def test_root_treatment_equals_conditional(self, rng):
        m = random_cgm(TRIANGLE, rng)
        inter = interventional_marginal(m, "X3", {"X1": 1})
        cond = condition(m, "X3", {"X1": 1})
        assert np.allclose(inter, cond, atol=1e-10)

    def test_bad_value_rejected(self, rng):
        m = random_cgm(TRIANGLE, rng)
        with pytest.raises(UsageError):
            truncated_factorization(m, {"X2": 7})


class TestAdjustmentFormula:
    def test_covariate_web_valid_sets_match_gformula(self, rng):
        g = covariate_web_graph()
        for _ in range(10):
            m = random_cgm(g, rng)
            truth = {
                t: truncated_factorization(m, {"T": t}).marginal(["Y"]).values
                for t in (0, 1)
            }
            for z in ({"X1"}, {"X2"}, {"X1", "X2"}):
                out = adjustment_formula(m, "T", "Y", z)
                for t in (0, 1):
                    assert np.abs(out[t] - truth[t]).max() < 1e-10, z

    def test_covariate_web_invalid_set_differs(self, rng):
        g = covariate_web_graph()
        diffs = []
        for _ in range(20):
            m = random_cgm(g, rng)
            truth = truncated_factorization(m, {"T": 1}).marginal(["Y"]).values
            out = adjustment_formula(m, "T", "Y", {"X1", "X3"})
            diffs.append(np.abs(out[1] - truth).max())
        assert sum(d > 1e-3 for d in diffs) >= 18

    def test_empty_set_for_root_treatment(self, rng):
        g = Dag(["T", "Y"], [("T", "Y")])
        m = random_cgm(g, rng)
        out = adjustment_formula(m, "T", "Y", set())
        assert np.allclose(out[1], condition(m, "Y", {"T": 1}), atol=1e-12)

    def test_treatment_equal_to_outcome_is_a_usage_error(self, rng):
        m = random_cgm(Dag(["T", "Y"], [("T", "Y")]), rng)
        with pytest.raises(UsageError, match="treatment and outcome must differ"):
            adjustment_formula(m, "T", "T", [])

    def test_overlap_violation_reports_stratum(self):
        dag = Dag(["Z", "T", "Y"], [("Z", "T"), ("Z", "Y"), ("T", "Y")])
        cpts = {
            "Z": Cpt("Z", (), np.array([0.5, 0.5])),
            # stratum Z=1 never treats
            "T": Cpt("T", ("Z",), np.array([[0.5, 0.5], [1.0, 0.0]])),
            "Y": Cpt(
                "Y",
                ("Z", "T"),
                np.array([[[0.2, 0.8], [0.7, 0.3]], [[0.5, 0.5], [0.4, 0.6]]]),
            ),
        }
        m = DiscreteCgm(
            dag=dag,
            domains={"Z": (0, 1), "T": (0, 1), "Y": (0, 1)},
            cpts=cpts,
        )
        with pytest.raises(OverlapError) as err:
            adjustment_formula(m, "T", "Y", {"Z"})
        assert err.value.stratum["stratum"] == {"Z": 1}


def frontdoor_cgm(rng=None, p=None):
    """Explicit-confounder mediator model over binary H, T, M, Y."""
    dag = Dag(["H", "T", "M", "Y"], [("H", "T"), ("H", "Y"), ("T", "M"), ("M", "Y")])
    if p is None:
        p = {"h": 0.4, "t": (0.2, 0.75), "m": (0.3, 0.85), "y": ((0.1, 0.5), (0.55, 0.9))}
    cpts = {
        "H": Cpt("H", (), np.array([1 - p["h"], p["h"]])),
        "T": Cpt(
            "T",
            ("H",),
            np.array([[1 - p["t"][0], p["t"][0]], [1 - p["t"][1], p["t"][1]]]),
        ),
        "M": Cpt(
            "M",
            ("T",),
            np.array([[1 - p["m"][0], p["m"][0]], [1 - p["m"][1], p["m"][1]]]),
        ),
        "Y": Cpt(
            "Y",
            ("H", "M"),
            np.array(
                [
                    [[1 - p["y"][0][0], p["y"][0][0]], [1 - p["y"][0][1], p["y"][0][1]]],
                    [[1 - p["y"][1][0], p["y"][1][0]], [1 - p["y"][1][1], p["y"][1][1]]],
                ]
            ),
        ),
    }
    return DiscreteCgm(
        dag=dag,
        domains={v: (0, 1) for v in "HTMY"},
        cpts=cpts,
    )


class TestFrontDoor:
    def test_matches_latent_visible_gformula(self):
        m = frontdoor_cgm()
        out = front_door_formula(m, "T", "M", "Y")
        for t in (0, 1):
            truth = truncated_factorization(m, {"T": t}).marginal(["Y"]).values
            assert np.abs(out[t] - truth).max() < 1e-10

    def test_inert_treatment_constant(self):
        m = frontdoor_cgm(p={"h": 0.4, "t": (0.2, 0.75), "m": (0.6, 0.6),
                            "y": ((0.1, 0.5), (0.55, 0.9))})
        out = front_door_formula(m, "T", "M", "Y")
        assert np.abs(out[0] - out[1]).max() < 1e-12

    def test_intermediate_identities(self):
        # the two composition steps hold exactly against the g-formula
        m = frontdoor_cgm()
        f = joint(m)
        # p(m | do(t)) = p(m | t): no backdoor into the mediator
        for t in (0, 1):
            do_m = truncated_factorization(m, {"T": t}).marginal(["M"]).values
            obs_m = condition(m, "M", {"T": t})
            assert np.abs(do_m - obs_m).max() < 1e-12
        # p(y | do(m)) = sum_t' p(t') p(y | m, t')
        pt = f.marginal(["T"]).values
        for mi in (0, 1):
            do_y = truncated_factorization(m, {"M": mi}).marginal(["Y"]).values
            acc = np.zeros(2)
            for ti in (0, 1):
                tmy = f.marginal(["T", "M", "Y"]).values
                acc += pt[ti] * tmy[ti, mi] / tmy[ti, mi].sum()
            assert np.abs(do_y - acc).max() < 1e-12
        # composing the two steps reproduces p(y | do(t))
        for t in (0, 1):
            pm = condition(m, "M", {"T": t})
            acc = np.zeros(2)
            for mi in (0, 1):
                acc += pm[mi] * truncated_factorization(m, {"M": mi}).marginal(["Y"]).values
            truth = truncated_factorization(m, {"T": t}).marginal(["Y"]).values
            assert np.abs(acc - truth).max() < 1e-10

    def test_shape_violation_rejected(self):
        g = Dag(["H", "T", "M", "Y"],
                [("H", "T"), ("H", "Y"), ("T", "M"), ("M", "Y"), ("T", "Y")])
        rng = np.random.default_rng(0)
        m = random_cgm(g, rng)
        with pytest.raises(PreconditionError):
            front_door_formula(m, "T", "M", "Y")

    def test_positivity_violation_rejected(self):
        m = frontdoor_cgm(p={"h": 0.4, "t": (0.0, 0.0), "m": (0.3, 0.85),
                             "y": ((0.1, 0.5), (0.55, 0.9))})
        with pytest.raises(OverlapError):
            front_door_formula(m, "T", "M", "Y")


class TestCmi:
    def test_dsep_implies_zero(self, rng):
        chain = Dag(["A", "B", "C"], [("A", "B"), ("B", "C")])
        m = random_cgm(chain, rng)
        assert cmi(m, "A", "C", {"B"}) < 1e-10

    def test_self_cmi_is_entropy(self):
        m = single_binary(0.7)
        expected = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
        assert abs(cmi(m, "X", "X") - expected) < 1e-12

    def test_exact_cancellation_despite_dconnection(self):
        # discrete analogue of path cancellation: X3 = -0.5 X1 + 0.5 X2 + U3
        # with X2 = X1 + U2 makes X3 = 0.5 U2 + U3, independent of X1
        pm = FiniteNoise((-1.0, 1.0), (0.5, 0.5))
        m = Scm(
            variables=("X1", "X2", "X3"),
            mechanisms={
                "X1": Mechanism((), NoiseRef()),
                "X2": Mechanism(("X1",), BinOp("+", Var("X1"), NoiseRef())),
                "X3": Mechanism(
                    ("X1", "X2"),
                    BinOp(
                        "+",
                        BinOp(
                            "+",
                            BinOp("*", Const(-0.5), Var("X1")),
                            BinOp("*", Const(0.5), Var("X2")),
                        ),
                        NoiseRef(),
                    ),
                ),
            },
            noises={"X1": pm, "X2": pm, "X3": pm},
        )
        cg = cgm_from_scm(m)
        assert cmi(cg, "X1", "X3") < 1e-12  # unfaithful: d-connected yet independent
        assert cmi(cg, "X1", "X2") > 0.1


class TestCausalMarkovInvariant:
    def test_every_dsep_has_zero_cmi_on_small_graphs(self, rng):
        nodes = ["A", "B", "C"]
        for g in enumerate_dags(nodes):
            m = random_cgm(g, rng)
            for a, b, z in implied_independences(g):
                assert cmi(m, a, b, z) < 1e-10, (g.edges, a, b, z)

    def test_every_4node_dag(self, rng):
        for g in enumerate_dags(["A", "B", "C", "D"]):
            m = random_cgm(g, rng)
            for a, b, z in implied_independences(g):
                assert cmi(m, a, b, z) < 1e-10, (g.edges, a, b, z)


class TestIcmAndSms:
    def _replace_cpt(self, m, rng, name):
        new = random_cgm(m.dag, rng, domains=m.domains)
        cpts = dict(m.cpts)
        cpts[name] = new.cpts[name]
        return DiscreteCgm(dag=m.dag, domains=m.domains, cpts=cpts)

    def test_influence_property(self, rng):
        # swapping one conditional leaves every other causal conditional intact
        m = random_cgm(TRIANGLE, rng)
        m2 = self._replace_cpt(m, rng, "X2")
        f2 = joint(m2)
        # recompute conditionals of the new joint by marginalization
        p = f2.values
        p_x1 = p.sum(axis=(1, 2))
        assert np.allclose(p_x1, m.cpts["X1"].values, atol=1e-12)
        p12 = p.sum(axis=2)
        p_x3_given = p / p12[:, :, None]
        assert np.allclose(p_x3_given, m.cpts["X3"].values, atol=1e-12)

    def test_sparse_shift_counts(self, rng):
        # one causal factor changes; generically several entangled factors do
        m = random_cgm(TRIANGLE, rng)
        m2 = self._replace_cpt(m, rng, "X1")

        def causal_factors(model):
            return [model.cpts[v].values for v in ("X1", "X2", "X3")]

        def entangled_factors(model):
            p = joint(model).values  # X1, X2, X3 axes; factor i given later vars
            p23 = p.sum(axis=0)
            p3 = p23.sum(axis=0)
            f1 = p / np.where(p23 == 0, 1, p23)[None, :, :]
            f2 = p23 / np.where(p3 == 0, 1, p3)[None, :]
            return [f1, f2, p3]

        changed_causal = sum(
            not np.allclose(a, b, atol=1e-12)
            for a, b in zip(causal_factors(m), causal_factors(m2))
        )
        changed_entangled = sum(
            not np.allclose(a, b, atol=1e-12)
            for a, b in zip(entangled_factors(m), entangled_factors(m2))
        )
        assert changed_causal == 1
        assert changed_entangled >= 2


class TestSampling:
    def test_sample_matches_exact_marginals(self, rng):
        m = frontdoor_cgm()
        data = sample_cgm(m, 50000, 9)
        f = joint(m).marginal(["T", "M", "Y"]).values
        emp = np.zeros_like(f)
        t, mm, y = data.column("T"), data.column("M"), data.column("Y")
        for i in range(data.n):
            emp[int(t[i]), int(mm[i]), int(y[i])] += 1
        emp /= data.n
        assert 0.5 * np.abs(emp - f).sum() < 0.02  # total variation


class TestJson:
    def test_round_trip(self, rng):
        m = random_cgm(covariate_web_graph(), rng)
        text = cgm_to_json(m)
        m2 = cgm_from_json(text)
        assert cgm_to_json(m2) == text
        assert np.allclose(joint(m).values, joint(m2).values, atol=1e-15)


def _oracle_marginal(m, keep, do=None):
    """p(keep | do) summed atom by atom from the enumerated joint."""
    nodes, table = enumerate_joint_from_cpts(m, do)
    out = np.zeros(tuple(len(m.domains[v]) for v in keep))
    for assignment, p in table.items():
        env = dict(zip(nodes, assignment))
        out[tuple(m.domains[v].index(env[v]) for v in keep)] += p
    return out


def _random_query_setup(seed):
    """A CGM on 2-6 nodes with 1-3 values per variable, a random
    intervention, and a rng for drawing queries; non-ancestors of a
    query are common at this edge density."""
    rng = np.random.default_rng(seed)
    g = random_dag(int(rng.integers(2, 7)), rng, float(rng.uniform(0.2, 0.7)))
    doms = {v: tuple(range(10, 10 + int(rng.integers(1, 4)))) for v in g.nodes}
    m = random_cgm(g, rng, doms, concentration=float(rng.choice([0.3, 1.0])))
    targets = [v for v in g.nodes if rng.random() < 0.3]
    do = {v: doms[v][int(rng.integers(len(doms[v])))] for v in targets}
    return m, do, rng


def _pick(rng, names, k):
    return [str(v) for v in rng.choice(names, size=k, replace=False)]


class TestContractionAgainstEnumeration:
    """Every query, contracted over ancestors only, against the atomwise joint."""

    seeds = given(st.integers(0, 2**32 - 1))
    examples = settings(max_examples=60, deadline=None)

    @examples
    @seeds
    def test_joint_and_truncated_factorization(self, seed):
        m, do, _ = _random_query_setup(seed)
        nodes = list(m.dag.nodes)
        assert np.abs(joint(m).values - _oracle_marginal(m, nodes)).max() < 1e-12
        got = truncated_factorization(m, do).values
        assert np.abs(got - _oracle_marginal(m, nodes, do)).max() < 1e-12

    @examples
    @seeds
    def test_marginal_of_truncated_factorization(self, seed):
        m, do, rng = _random_query_setup(seed)
        keep = _pick(rng, m.dag.nodes, int(rng.integers(0, m.dag.n + 1)))
        f = truncated_factorization(m, do)
        got = f.marginal(keep).values
        assert np.abs(got - _oracle_marginal(m, keep, do)).max() < 1e-12
        y = _pick(rng, m.dag.nodes, 1)[0]
        assert np.array_equal(f.marginal([y]).values, interventional_marginal(m, y, do))

    @examples
    @seeds
    def test_interventional_marginal(self, seed):
        m, do, rng = _random_query_setup(seed)
        target = _pick(rng, m.dag.nodes, 1)[0]
        got = interventional_marginal(m, target, do)
        assert np.abs(got - _oracle_marginal(m, [target], do)).max() < 1e-12

    @examples
    @seeds
    def test_condition(self, seed):
        m, _, rng = _random_query_setup(seed)
        n = m.dag.n
        query, *rest = _pick(rng, m.dag.nodes, int(rng.integers(1, n + 1)))
        evidence = {v: m.domains[v][int(rng.integers(len(m.domains[v])))] for v in rest}
        joint_q = _oracle_marginal(m, [query] + rest)
        sliced = joint_q[(slice(None),) + tuple(m.domains[v].index(evidence[v]) for v in rest)]
        got = condition(m, query, evidence)
        assert np.abs(got - sliced / sliced.sum()).max() < 1e-12

    @examples
    @seeds
    def test_adjustment_formula(self, seed):
        m, _, rng = _random_query_setup(seed)
        n = m.dag.n
        t, y, *z = _pick(rng, m.dag.nodes, int(rng.integers(2, n + 1)))
        z = sorted(z)
        p = _oracle_marginal(m, [t] + z + [y])  # axes: t, *z, y
        pz = p.sum(axis=(0, p.ndim - 1))
        got = adjustment_formula(m, t, y, z)
        for ti, tval in enumerate(m.domains[t]):
            ptzy = p[ti]
            cond = ptzy / ptzy.sum(axis=-1, keepdims=True)
            want = (pz[..., None] * cond).reshape(-1, cond.shape[-1]).sum(axis=0)
            assert np.abs(got[tval] - want).max() < 1e-12

    @examples
    @seeds
    def test_cmi(self, seed):
        m, _, rng = _random_query_setup(seed)
        n = m.dag.n
        a, b, *z = _pick(rng, m.dag.nodes, int(rng.integers(2, n + 1)))
        pabz = _oracle_marginal(m, [a, b] + z).reshape(
            len(m.domains[a]), len(m.domains[b]), -1
        )
        want = 0.0
        for i, j, k in itertools.product(*map(range, pabz.shape)):
            p = pabz[i, j, k]
            if p > 0:
                pz = pabz[:, :, k].sum()
                want += p * np.log(p * pz / (pabz[i, :, k].sum() * pabz[:, j, k].sum()))
        assert abs(cmi(m, a, b, z) - max(want, 0.0)) < 1e-12


class TestAncestralLimit:
    def test_sparse_model_answers_what_its_joint_cannot(self, rng):
        nodes = [f"V{k}" for k in range(30)]
        pairs = [(f"V{k}", f"V{k + 1}") for k in range(3, 29, 2)]
        g = Dag(nodes, [("V0", "V1"), ("V1", "V2")] + pairs)
        m = random_cgm(g, rng)
        got = interventional_marginal(m, "V2", {"V0": 1})
        assert np.allclose(got, m.cpts["V1"].values[1] @ m.cpts["V2"].values, atol=1e-15)
        # the limit bounds the 2^3 ancestral states, not the 2^30 joint ones
        assert np.allclose(interventional_marginal(m, "V2", {}, limit=8).sum(), 1.0)
        with pytest.raises(UsageError, match="state space 8 exceeds limit 4"):
            interventional_marginal(m, "V2", {}, limit=4)
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match=f"state space {2**30} exceeds limit"):
                joint(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_truncated_marginal_builds_no_joint(self):
        # 21 binary nodes, each drawing up to 3 parents among the earlier
        # ones as the benchmark's CGMs do; its dense joint would take 16 MB.
        # Of seeds 0-39, seed 28 has the largest peak for the node with the
        # most ancestors (17 of 21).
        rng = np.random.default_rng(28)
        nodes = [f"V{k}" for k in range(21)]
        edges = [
            (nodes[p], nodes[j])
            for j in range(1, 21)
            for p in sorted(rng.choice(j, min(3, j), replace=False))
        ]
        m = random_cgm(Dag(nodes, edges), rng)
        y = max(nodes, key=lambda v: m.dag._ancestor_masks[m.dag.index(v)].bit_count())
        t = next(v for v in nodes[1:] if v != y and m.dag.descendants_mask(v) >> m.dag.index(y) & 1)
        tracemalloc.start()
        try:
            got = truncated_factorization(m, {t: 1}).marginal([y]).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(got, interventional_marginal(m, y, {t: 1}))

    def test_more_ancestors_than_einsum_subscripts_is_a_usage_error(self):
        nodes = [f"V{k}" for k in range(53)]
        cpts = {
            v: Cpt(v, tuple(nodes[k - 1 : k]), np.ones((1, 1) if k else (1,)))
            for k, v in enumerate(nodes)
        }
        m = DiscreteCgm(
            dag=Dag(nodes, list(zip(nodes, nodes[1:]))),
            domains={v: (0,) for v in nodes},
            cpts=cpts,
        )
        assert interventional_marginal(m, "V51", {}).tolist() == [1.0]
        for query in (
            lambda: interventional_marginal(m, "V52", {}),
            lambda: condition(m, "V52", {}),
            lambda: joint(m),
        ):
            with pytest.raises(UsageError, match="53 ancestral variables exceed 52"):
                query()
