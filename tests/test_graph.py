import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causelab.errors import UsageError
from causelab.graph import (
    Cpdag,
    Dag,
    count_dags,
    cpdag_from_json,
    cpdag_of,
    d_separated,
    dag_from_json,
    dag_to_json,
    enumerate_adjustment_sets,
    enumerate_dags,
    implied_independences,
    is_valid_adjustment_set,
    markov_equivalent,
    skeleton_and_vstructures,
    topological_order,
)

from conftest import covariate_web_graph, random_dag
from oracles import cpdag_by_class_enumeration, dsep_by_paths, valid_adjustment_by_paths

CHAIN = Dag(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
FORK = Dag(["X", "Y", "Z"], [("Y", "X"), ("Y", "Z")])
COLLIDER = Dag(["X", "Y", "Z"], [("X", "Y"), ("Z", "Y")])
COMPLETE3 = Dag(["X1", "X2", "X3"], [("X1", "X2"), ("X1", "X3"), ("X2", "X3")])


class TestDagConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(UsageError):
            Dag(["A", "B"], [("A", "B"), ("B", "A")])

    def test_rejects_self_loop(self):
        with pytest.raises(UsageError):
            Dag(["A"], [("A", "A")])

    def test_rejects_duplicate_names(self):
        with pytest.raises(UsageError):
            Dag(["A", "A"], [])

    def test_duplicate_edges_collapse(self):
        g = Dag(["A", "B"], [("A", "B"), (0, 1)])
        assert len(g.edges) == 1

    def test_non_integral_endpoints_are_refused(self):
        """int() would truncate 0.5 -> 1.7 to the edge A -> B."""
        with pytest.raises(UsageError, match="^node index 0.5 is not an integer$"):
            Dag(["A", "B", "C"], [(0.5, 1.7)])
        with pytest.raises(UsageError, match="^node index 2.2 is not an integer$"):
            Dag(["A", "B", "C"], [(0, 2.2)])
        with pytest.raises(UsageError, match="is not an integer"):
            dag_from_json('{"nodes": ["A", "B", "C"], "edges": [[0.9, 2.2]]}')
        assert Dag(["A", "B", "C"], [(np.int64(0), True)]).edges == {(0, 1)}

    def test_parents_children(self):
        g = covariate_web_graph()
        assert tuple(g.nodes[i] for i in g.parents("Y")) == ("X2", "T", "X3")
        assert tuple(g.nodes[i] for i in g.children("X1")) == ("X2", "T")


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        assert d_separated(CHAIN, ["X"], ["Z"], ["Y"])
        assert not d_separated(CHAIN, ["X"], ["Z"], [])

    def test_collider_marginally_separated(self):
        assert d_separated(COLLIDER, ["X"], ["Z"], [])
        assert not d_separated(COLLIDER, ["X"], ["Z"], ["Y"])

    def test_isolated_nodes(self):
        g = Dag(["A", "B"], [])
        assert d_separated(g, ["A"], ["B"], [])

    def test_collider_descendant_opens(self):
        g = Dag(["X", "Y", "Z", "W"], [("X", "Y"), ("Z", "Y"), ("Y", "W")])
        assert not d_separated(g, ["X"], ["Z"], ["W"])

    def test_rejects_overlap(self):
        overlapping = (
            (["X"], ["X"], []),
            (["X"], ["Z"], ["X"]),
            (["X"], ["Z"], [np.int64(0)]),
            (["X", 2], (v for v in ["Z"]), []),
        )
        for a, b, z in overlapping:
            with pytest.raises(UsageError, match="^a, b, z must be pairwise disjoint$"):
                d_separated(CHAIN, a, b, z)

    def test_rejects_empty_sides(self):
        with pytest.raises(UsageError):
            d_separated(CHAIN, [], ["Z"], [])

    def test_unknown_nodes_keep_their_messages(self):
        with pytest.raises(UsageError, match="^unknown node 'Q'$"):
            d_separated(CHAIN, ["X"], ["Q"], [])
        with pytest.raises(UsageError, match="^node index 3 out of range$"):
            d_separated(CHAIN, [0], [3], [])
        with pytest.raises(UsageError, match="^node index -1 out of range$"):
            d_separated(CHAIN, [np.int64(-1)], ["Z"], [])

    def test_non_integral_indices_are_refused(self):
        for bad in (1.9, 1.0, 0.5):
            with pytest.raises(UsageError, match=f"^node index {bad} is not an integer$"):
                CHAIN.index(bad)
            with pytest.raises(UsageError, match="is not an integer"):
                CHAIN.mask([bad])
        with pytest.raises(UsageError, match="is not an integer"):
            d_separated(CHAIN, [0.5], [2.7], [1.2])
        assert CHAIN.index(np.int64(2)) == 2 and CHAIN.mask([np.uint8(1), True]) == 0b010

    def test_matches_path_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            g = random_dag(5, rng)
            names = list(g.nodes)
            for a, b in itertools.combinations(names, 2):
                rest = [v for v in names if v not in (a, b)]
                for r in range(len(rest) + 1):
                    for z in itertools.combinations(rest, r):
                        assert d_separated(g, [a], [b], z) == dsep_by_paths(
                            g, [a], [b], z
                        ), (dag_to_json(g), a, b, z)

    def test_set_valued_queries_match_oracle(self, rng):
        for _ in range(20):
            g = random_dag(6, rng)
            names = list(g.nodes)
            a, b, z = names[:2], names[2:4], names[4:5]
            assert d_separated(g, a, b, z) == dsep_by_paths(g, a, b, z)


class TestImpliedIndependences:
    def test_complete_graph_has_none(self):
        assert implied_independences(COMPLETE3) == ()

    def test_fork_single_independence(self):
        out = implied_independences(FORK)
        assert out == (("X", "Z", frozenset({"Y"})),)

    def test_limit_enforced(self):
        g = Dag([f"V{i}" for i in range(9)], [])
        with pytest.raises(UsageError):
            implied_independences(g)

    def test_matches_path_oracle(self, rng):
        g = random_dag(5, rng)
        expected = []
        names = sorted(g.nodes)
        for a, b in itertools.combinations(names, 2):
            rest = [v for v in g.nodes if v not in (a, b)]
            for r in range(len(rest) + 1):
                for z in itertools.combinations(rest, r):
                    if dsep_by_paths(g, [a], [b], z):
                        expected.append((a, b, frozenset(z)))
        assert sorted(implied_independences(g)) == sorted(expected)


class TestSkeletonAndVstructures:
    def test_collider(self):
        skel, vs = skeleton_and_vstructures(COLLIDER)
        assert skel == frozenset({("X", "Y"), ("Y", "Z")})
        assert vs == frozenset({("X", "Y", "Z")})

    def test_chain(self):
        skel, vs = skeleton_and_vstructures(CHAIN)
        assert skel == frozenset({("X", "Y"), ("Y", "Z")})
        assert vs == frozenset()

    def test_edgeless(self):
        skel, vs = skeleton_and_vstructures(Dag(["A", "B"], []))
        assert skel == frozenset() and vs == frozenset()

    def test_shielded_collider_not_reported(self):
        skel, vs = skeleton_and_vstructures(COMPLETE3)
        assert vs == frozenset()


class TestMarkovEquivalence:
    def test_chain_fork_equivalent(self):
        assert markov_equivalent(CHAIN, FORK)

    def test_chain_collider_not(self):
        assert not markov_equivalent(CHAIN, COLLIDER)

    def test_node_set_mismatch(self):
        with pytest.raises(UsageError):
            markov_equivalent(CHAIN, Dag(["A", "B", "C"], []))

    def test_theorem_on_all_three_node_dags(self):
        dags = list(enumerate_dags(["A", "B", "C"]))
        indeps = [implied_independences(g) for g in dags]
        for i, g1 in enumerate(dags):
            for j, g2 in enumerate(dags):
                assert markov_equivalent(g1, g2) == (indeps[i] == indeps[j])


class TestCpdag:
    def test_collider_fully_oriented(self):
        c = cpdag_of(COLLIDER)
        assert c.directed == frozenset({("X", "Y"), ("Z", "Y")})
        assert c.undirected == frozenset()

    def test_chain_fully_undirected(self):
        c = cpdag_of(CHAIN)
        assert c.directed == frozenset()
        assert c.undirected == frozenset({("X", "Y"), ("Y", "Z")})

    def test_single_edge_undirected(self):
        c = cpdag_of(Dag(["X", "Y"], [("X", "Y")]))
        assert c.undirected == frozenset({("X", "Y")})

    def test_invariants_enforced(self):
        with pytest.raises(UsageError):
            Cpdag(("A", "B"), frozenset({("A", "B")}), frozenset({("A", "B")}))

    @pytest.mark.parametrize(
        "nodes, directed, message",
        [
            (("A", "B", "C"), {("A", "B"), ("B", "C"), ("C", "A")}, "directed cycle"),
            (("A", "B"), {("A", "A")}, "self-loop at 'A'"),
            (("A", "B"), {("A", "Z")}, "references unknown node"),
            (("A", "A"), set(), "duplicate node names"),
            (("A", "B", "C"), {(0, 2)}, r"^edge \(0, 2\) references unknown node$"),
        ],
    )
    def test_directed_part_must_be_a_dag(self, nodes, directed, message):
        with pytest.raises(UsageError, match=message):
            Cpdag(nodes, frozenset(directed), frozenset())

    @pytest.mark.parametrize("edge", [["A", "Z"], ["B", "B"]])
    def test_undirected_edge_must_join_two_known_nodes(self, edge):
        text = json.dumps({"nodes": ["A", "B"], "undirected_edges": [edge]})
        with pytest.raises(UsageError, match="self-loop or names an unknown node"):
            cpdag_from_json(text)

    def test_matches_class_enumeration_on_all_4node_dags(self):
        nodes = ["A", "B", "C", "D"]
        for g in enumerate_dags(nodes):
            c = cpdag_of(g)
            directed, undirected = cpdag_by_class_enumeration(g)
            assert c.directed == directed, dag_to_json(g)
            assert c.undirected == undirected, dag_to_json(g)

    def test_class_invariance(self):
        nodes = ["A", "B", "C", "D"]
        dags = list(enumerate_dags(nodes))
        by_class = {}
        for g in dags:
            key = skeleton_and_vstructures(g)
            by_class.setdefault(key, []).append(cpdag_of(g))
        for members in by_class.values():
            assert all(c == members[0] for c in members)


class TestAdjustment:
    def test_covariate_web_ground_truth(self):
        g = covariate_web_graph()
        assert is_valid_adjustment_set(g, "T", "Y", ["X1"])
        assert is_valid_adjustment_set(g, "T", "Y", ["X2"])
        assert is_valid_adjustment_set(g, "T", "Y", ["X1", "X2"])
        assert not is_valid_adjustment_set(g, "T", "Y", ["X1", "X3"])

    def test_trivial_two_node(self):
        g = Dag(["T", "Y"], [("T", "Y")])
        assert is_valid_adjustment_set(g, "T", "Y", [])

    def test_mediator_forbidden(self):
        g = Dag(["T", "M", "Y"], [("T", "M"), ("M", "Y")])
        result = enumerate_adjustment_sets(g, "T", "Y")
        assert result.sets == (frozenset(),)

    def test_descendant_of_mediator_forbidden(self):
        g = Dag(["T", "M", "Y", "W"], [("T", "M"), ("M", "Y"), ("M", "W")])
        assert not is_valid_adjustment_set(g, "T", "Y", ["W"])

    def test_errors(self):
        g = covariate_web_graph()
        with pytest.raises(UsageError):
            is_valid_adjustment_set(g, "T", "T", [])
        with pytest.raises(UsageError):
            is_valid_adjustment_set(g, "T", "Y", ["T"])

    def test_covariate_web_enumeration(self):
        result = enumerate_adjustment_sets(covariate_web_graph(), "T", "Y")
        assert result.sets == (
            frozenset({"X1"}),
            frozenset({"X2"}),
            frozenset({"X1", "X2"}),
        )
        assert result.parent_set == frozenset({"X1"})
        assert result.parent_set_valid

    def test_confounder_graph(self):
        g = Dag(["X", "T", "Y"], [("X", "T"), ("X", "Y"), ("T", "Y")])
        result = enumerate_adjustment_sets(g, "T", "Y")
        assert result.sets == (frozenset({"X"}),)

    def test_enumeration_closed_under_membership_check(self, rng):
        for _ in range(25):
            g = random_dag(5, rng)
            t, y = g.nodes[0], g.nodes[-1]
            result = enumerate_adjustment_sets(g, t, y)
            others = [v for v in g.nodes if v not in (t, y)]
            for r in range(len(others) + 1):
                for z in itertools.combinations(others, r):
                    member = frozenset(z) in set(result.sets)
                    assert member == is_valid_adjustment_set(g, t, y, z)
                    assert member == valid_adjustment_by_paths(g, t, y, z), (
                        dag_to_json(g), t, y, z,
                    )

    def test_limit(self):
        g = Dag([f"V{i}" for i in range(13)], [])
        with pytest.raises(UsageError):
            enumerate_adjustment_sets(g, "V0", "V1")


class TestCountDags:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 3), (3, 25), (4, 543), (5, 29281), (10, 4175098976430598143)],
    )
    def test_known_values(self, n, expected):
        assert count_dags(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(UsageError):
            count_dags(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_exhaustive_enumeration(self, n):
        nodes = [f"V{i}" for i in range(n)]
        assert count_dags(n) == sum(1 for _ in enumerate_dags(nodes))

    @pytest.mark.parametrize("n", [3, 4])
    def test_enumeration_keeps_acyclic_pair_states_in_product_order(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        expected = []
        for states in itertools.product((0, 1, 2), repeat=len(pairs)):
            edges = {(i, j) if s == 1 else (j, i) for (i, j), s in zip(pairs, states) if s}
            if any(
                all(order.index(u) < order.index(v) for u, v in edges)
                for order in itertools.permutations(range(n))
            ):
                expected.append(edges)
        assert [set(g.edges) for g in enumerate_dags("ABCD"[:n])] == expected

    def test_enumeration_rejects_duplicate_names(self):
        with pytest.raises(UsageError, match="duplicate"):
            next(enumerate_dags(["A", "B", "A"]))


class TestTopologicalOrder:
    def test_complete3(self):
        assert topological_order(COMPLETE3) == (0, 1, 2)

    def test_edgeless_index_order(self):
        assert topological_order(Dag(["C", "B", "A"], [])) == (0, 1, 2)

    def test_edges_point_forward(self, rng):
        g = random_dag(8, rng)
        order = topological_order(g)
        position = {node: k for k, node in enumerate(order)}
        assert all(position[u] < position[v] for u, v in g.edges)


class TestJson:
    def test_round_trip_byte_stable(self):
        g = covariate_web_graph()
        text = dag_to_json(g)
        assert dag_to_json(dag_from_json(text)) == text
        payload = json.loads(text)
        assert payload["nodes"] == list(g.nodes)

    def test_bad_json_raises(self):
        with pytest.raises(UsageError):
            dag_from_json("{not json")
        with pytest.raises(UsageError):
            dag_from_json('{"nodes": ["A"], "edges": [["A", "B"]]}')


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30 - 1), st.integers(2, 6))
def test_dsep_is_symmetric_in_a_and_b(seed, n):
    g = random_dag(n, np.random.default_rng(seed))
    names = list(g.nodes)
    a, b = names[0], names[1]
    z = names[2 : 2 + (seed % (n - 1)) if n > 2 else 2]
    z = [v for v in z if v not in (a, b)]
    assert d_separated(g, [a], [b], z) == d_separated(g, [b], [a], z)
