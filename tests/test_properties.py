"""Cross-cutting randomized properties (hypothesis-driven)."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causelab.data import Dataset
from causelab.graph import (
    Dag,
    count_dags,
    d_separated,
    markov_equivalent,
    topological_order,
)
from causelab.kernels import (
    GaussianKernel,
    LinearKernel,
    PolynomialKernel,
    _sq_distances,
    gram,
    vc_bound,
)
from causelab.scm import sample

from conftest import random_dag
from oracles import dsep_by_paths, sq_distances_by_loop, topological_order_by_rescan
from test_scm import linear_gaussian_pair


def dags(max_nodes=5):
    return st.builds(
        lambda seed, n, p: random_dag(n, np.random.default_rng(seed), p),
        st.integers(0, 2**32 - 1),
        st.integers(2, max_nodes),
        st.floats(0.1, 0.9),
    )


@settings(max_examples=50, deadline=None)
@given(dags())
def test_topological_order_is_consistent(g):
    order = topological_order(g)
    assert sorted(order) == list(range(g.n))
    position = {v: k for k, v in enumerate(order)}
    assert all(position[u] < position[v] for u, v in g.edges)


@settings(max_examples=50, deadline=None)
@given(dags(max_nodes=7))
def test_topological_order_is_smallest_ready_index_first(g):
    assert topological_order(g) == topological_order_by_rescan(g)


@st.composite
def point_sets(draw):
    d = draw(st.integers(1, 4))
    coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    point = st.lists(coords, min_size=d, max_size=d)
    xs = draw(st.lists(point, min_size=1, max_size=6))
    ys = draw(st.lists(point, min_size=1, max_size=6))
    return np.array(xs), np.array(ys)


@settings(max_examples=60, deadline=None)
@given(point_sets())
def test_sq_distances_match_per_pair_loop_bitwise(pts):
    xs, ys = pts
    fast = _sq_distances(xs, ys)
    slow = np.array(sq_distances_by_loop(xs, ys))
    assert fast.tobytes() == slow.tobytes()


@settings(max_examples=40, deadline=None)
@given(dags(max_nodes=4), st.integers(0, 2**16))
def test_dsep_agrees_with_path_oracle(g, salt):
    rng = np.random.default_rng(salt)
    names = list(g.nodes)
    rng.shuffle(names)
    a, b = names[0], names[1]
    z = names[2 : 2 + int(rng.integers(0, len(names) - 1))]
    assert d_separated(g, [a], [b], z) == dsep_by_paths(g, [a], [b], z)


@settings(max_examples=30, deadline=None)
@given(dags(max_nodes=4))
def test_markov_equivalence_is_reflexive_and_symmetric(g):
    assert markov_equivalent(g, g)
    relabeled = Dag(g.nodes, [(j, i) for i, j in g.edges] and list(g.edges))
    assert markov_equivalent(g, relabeled) == markov_equivalent(relabeled, g)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12))
def test_count_dags_strictly_increasing(n):
    assert count_dags(n + 1) > count_dags(n)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.integers(1, 40),
    st.integers(41, 10**6),
    st.floats(0.001, 0.999),
)
def test_vc_bound_monotonicities(r, h, m, delta):
    base = vc_bound(r, h, m, delta)
    assert base >= r
    assert vc_bound(r, h, 2 * m, delta) < base
    assert vc_bound(r, h, m, min(delta * 1.5, 0.9999)) <= base + 1e-15
    if m > h + 1:
        assert vc_bound(r, h + 1, m, delta) >= base - 1e-12 or h + 1 >= m


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 30),
    st.integers(1, 3),
    st.sampled_from(["gaussian", "poly", "linear"]),
)
def test_gram_matrices_are_psd(seed, n, d, kind):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, d))
    kernel = {
        "gaussian": GaussianKernel(float(rng.uniform(0.1, 3.0))),
        "poly": PolynomialKernel(int(rng.integers(1, 4))),
        "linear": LinearKernel(),
    }[kind]
    eig = np.linalg.eigvalsh(gram(kernel, xs))
    assert eig.min() >= -1e-8


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(-1e6, 1e6).map(lambda v: float(np.float64(v))),
        min_size=1,
        max_size=30,
    )
)
def test_csv_round_trip_preserves_values(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.csv"
        data = Dataset.from_columns({"V": values})
        data.to_csv(path)
        back = Dataset.from_csv(path)
        assert np.array_equal(back.column("V"), data.column("V"))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_sampling_is_reproducible(seed, n):
    m = linear_gaussian_pair()
    d1, d2 = sample(m, n, seed), sample(m, n, seed)
    assert np.array_equal(d1.column("Y"), d2.column("Y"))
