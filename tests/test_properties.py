"""Cross-cutting randomized properties (hypothesis-driven)."""

import csv
import io
import itertools
import math
import logging
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from causelab import data as data_module
from causelab.cgm import _check_front_door_shape
from causelab.data import Dataset
from causelab.discovery import (
    ADD,
    DELETE,
    REVERSE,
    SCORE_TOL,
    DiscoveryConfig,
    SkeletonResult,
    _acyclic_after,
    _apply,
    _family_scorer,
    _moves,
    _rank,
    bic_score,
    orient,
    pc_skeleton,
    sgs_skeleton,
)
from causelab.graph import (
    Dag,
    _separator_constraint,
    count_dags,
    d_separated,
    markov_equivalent,
    meek_closure,
    topological_order,
)
from causelab.errors import PreconditionError, UsageError
from causelab.estimation import (
    ate_iv_2sls,
    ate_rdd,
    ate_regression_adjustment,
    half_sibling_regress,
)
from causelab.kernels import (
    GaussianKernel,
    LinearKernel,
    PolynomialKernel,
    _centred,
    _hsic_permuted,
    _kernel_factor,
    _mmd_permuted,
    _ridge_residuals,
    _sq_distances,
    gram,
    hsic_statistic,
    hsic_test,
    kernel_ridge_fit,
    ci_test,
    median_heuristic,
    mmd,
    vc_bound,
)
from causelab.scm import (
    BinOp,
    Const,
    FiniteNoise,
    GaussianNoise,
    IndicatorGe,
    Mechanism,
    NoiseRef,
    Scm,
    Unary,
    UniformNoise,
    Var,
    draw_noise,
    evaluate_with_noise,
    sample,
)

from conftest import random_dag
from oracles import (
    ancestors_by_parent_bfs,
    csv_text_by_rows,
    dataset_from_csv_by_cells,
    directed_paths,
    dsep_by_moral_ancestral_graph,
    dsep_by_paths,
    hsic_dense,
    hsic_permuted_dense,
    hsic_pvalue_two_valued,
    median_distance_dense,
    meek_closure_by_tuple_scans,
    mmd_permuted_dense,
    partial_correlation_lstsq,
    permutations_by_seed,
    pc_skeleton_by_seen_tuples,
    pivoted_cholesky_of_gram,
    reduced_form_sample,
    reduced_form_values,
    ridge_residuals_dense,
    separator_constraint_by_two_paths,
    sgs_skeleton_by_pairs,
    sq_distances_by_loop,
    topological_order_by_rescan,
)
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


@st.composite
def dsep_queries(draw, max_nodes):
    """A DAG and disjoint node sets a, b (one or several nodes each) and z.
    Half the time a and b hold two parents of one collider and z holds one
    of its descendants, so that the path through the collider is open."""
    g = draw(dags(max_nodes=max_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = [int(k) for k in rng.permutation(g.n)]
    colliders = [v for v in order if len(g.parents(v)) >= 2]
    if colliders and draw(st.booleans()):
        c = colliders[0]
        head = [int(k) for k in rng.choice(g.parents(c), 2, replace=False)]
        head.append(int(rng.choice([v for v in order if g.descendants_mask(c) >> v & 1])))
    else:
        head = order[:2]
    rest = [k for k in order if k not in head]
    ka = draw(st.integers(0, len(rest) // 3))
    kb = draw(st.integers(0, (len(rest) - ka) // 2))
    a, b = [head[0], *rest[:ka]], [head[1], *rest[ka : ka + kb]]
    rate = draw(st.floats(0.0, 0.6))
    z = head[2:] + [k for k in rest[ka + kb :] if rng.random() < rate]
    return g, *([g.nodes[k] for k in s] for s in (a, b, z))


@settings(max_examples=150, deadline=None)
@given(dsep_queries(max_nodes=6))
def test_dsep_agrees_with_path_oracle(query):
    g, a, b, z = query
    by_paths = dsep_by_paths(g, a, b, z)
    assert d_separated(g, a, b, z) == by_paths
    assert dsep_by_moral_ancestral_graph(g, a, b, z) == by_paths


@settings(max_examples=400, deadline=None)
@given(dsep_queries(max_nodes=12))
def test_dsep_agrees_with_moralisation_oracle(query):
    g, a, b, z = query
    assert d_separated(g, a, b, z) == dsep_by_moral_ancestral_graph(g, a, b, z)


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


_ODD_CELLS = (
    " 3 ", "1_0", "nan", "inf", "-inf", "1e400", "-0.0", "5e-324", "+.5", "\u00a04",
    "\x0c2", "3\u2028", "oops", "", "0x1", "1e", '"1.5"', '"2,5"', '"7\n8"', '""', '4"',
)


@st.composite
def csv_texts(draw):
    """CSV texts around the fast reader's edges: quoted names and cells,
    CRLF and CR endings, blank lines, ragged rows, cells float() reads in
    its own way, a missing final newline, a BOM, header-only and empty
    files."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    width = draw(st.integers(1, 4))
    pool = ["A", "B", "C", "x y", "p,q", 'say "hi"', "two\nlines", "é"]
    names = draw(st.lists(st.sampled_from(pool), min_size=width, max_size=width, unique=True))
    if draw(st.integers(0, 9)) == 0:
        names[-1] = draw(st.sampled_from(["", names[0]]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(names)
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-3, 3).map(str),
    )
    odd = draw(st.lists(st.sampled_from(_ODD_CELLS), max_size=3))
    cell = st.one_of(number, number, number, st.sampled_from(odd)) if odd else number
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=30))
    lines = [buf.getvalue()] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2)) if len(lines) > 1 else 0):
        k = draw(st.integers(1, len(lines) - 1))
        lines[k] = draw(st.sampled_from(["", lines[k] + ",1", lines[k].rpartition(",")[0]]))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    return bom + "".join(line + end for line, end in zip(lines, ends))


def _csv_outcome(read, path):
    try:
        data = read(path)
    except UsageError as exc:
        return str(exc)
    return data.columns, data.kinds, [data.column(c).tobytes() for c in data.columns]


@settings(max_examples=400, deadline=None)
@given(csv_texts(), st.sampled_from([1, 40, 200, data_module._READ_HINT]))
@example("A,B\n1\n1,2,3\n", 200)  # ragged rows whose comma counts balance
@example("A,B\n1,0\r,5\n", 200)  # a lone CR ends a line; the next starts empty
def test_block_reader_matches_whole_file_reader(text, hint):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _csv_outcome(dataset_from_csv_by_cells, path)
        with mock.patch.object(data_module, "_READ_HINT", hint):
            assert _csv_outcome(Dataset.from_csv, path) == expected


@pytest.mark.parametrize("hint", [1, 40, data_module._READ_HINT])
@pytest.mark.parametrize(
    "text",
    [
        "A,B\r\n1,2\r\n3,4\r\n",
        "A,B\r\n1,2\n3,4\r\n5,6",  # mixed endings, the last unterminated
        "A,B\r\n1,2\r\n3,4\r",  # a lone CR ends the last line
        "A,B\n1,2\r,3\r\n",  # a lone CR, then a line that starts with a comma
        "A,B\r\n1,2\r\r\n3,4\r\n",  # a CR-only line
    ],
    ids=["crlf", "mixed", "cr-last", "cr-then-comma", "cr-blank"],
)
def test_block_reader_matches_on_carriage_returns(tmp_path, text, hint):
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _csv_outcome(dataset_from_csv_by_cells, path)
    with mock.patch.object(data_module, "_READ_HINT", hint):
        assert _csv_outcome(Dataset.from_csv, path) == expected


@pytest.mark.parametrize(
    "late_line",
    [None, '"1.5",0', "1.5,oops", "1.5", "", "1.5,0\r", " 3 ,1_0"],
    ids=["plain", "quoted", "bad-cell", "ragged", "blank", "cr", "float-only"],
)
def test_block_reader_matches_on_bodies_of_several_blocks(tmp_path, late_line):
    rows = 4 * data_module._READ_HINT // 20
    rng = np.random.default_rng(7)
    lines = [f"{a!r},{int(b)}" for a, b in zip(rng.normal(size=rows).tolist(),
                                               rng.random(rows) < 0.5)]
    if late_line is not None:
        lines[-5] = late_line
    path = tmp_path / "long.csv"
    path.write_bytes(("A,B\n" + "\n".join(lines) + "\n").encode("utf-8"))
    assert path.stat().st_size > 3 * data_module._READ_HINT
    expected = _csv_outcome(dataset_from_csv_by_cells, path)
    assert _csv_outcome(Dataset.from_csv, path) == expected
    if late_line in ("1.5,oops", "1.5", ""):
        assert f"line {rows - 5 + 2}" in expected


_ROW_COUNTS = [0, 1, data_module._BLOCK_ROWS - 1, data_module._BLOCK_ROWS,
               data_module._BLOCK_ROWS + 1]
_EDGE_VALUES = {
    "real": [-0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
             1.7976931348623157e308, 0.1, 1e16, 123456789.0],
    "binary": [0.0, 1.0, -0.0],
    "categorical": [1e300, -1e300, 2.0**63, 2.0**53 + 2, -0.0, 0.0],
}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(_ROW_COUNTS),
    st.lists(st.tuples(st.sampled_from(["A", "b c", "x,y", 'q"t', "é"]),
                       st.sampled_from(sorted(_EDGE_VALUES))),
             min_size=1, max_size=4, unique_by=lambda t: t[0]),
    st.integers(0, 2**32 - 1),
)
def test_block_writer_matches_row_writer(n, spec, seed):
    rng = np.random.default_rng(seed)
    columns, kinds = {}, {}
    for name, kind in spec:
        if kind == "real":
            values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        elif kind == "binary":
            values = (rng.random(n) < 0.5).astype(float)
        else:
            values = rng.integers(-5, 6, size=n).astype(float)
        edges = _EDGE_VALUES[kind]
        at = rng.integers(0, max(n, 1), size=min(n, len(edges)))
        values[at] = rng.choice(edges, size=at.size)
        columns[name], kinds[name] = values, kind
    data = Dataset.from_columns(columns, kinds=kinds)
    expected = csv_text_by_rows(data)
    assert data.to_csv_text() == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.csv"
        data.to_csv(path)
        assert path.read_bytes() == expected.encode("utf-8")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200))
def test_sampling_is_reproducible(seed, n):
    m = linear_gaussian_pair()
    d1, d2 = sample(m, n, seed), sample(m, n, seed)
    assert np.array_equal(d1.column("Y"), d2.column("Y"))


_NOISES = (
    GaussianNoise(),
    UniformNoise(-1.0, 1.0),
    FiniteNoise((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)),
)


@st.composite
def grammar_scms(draw, max_nodes=6):
    """SCMs on random DAGs, listed out of causal order, whose mechanisms are
    drawn from Const, Var, NoiseRef, + - *, tanh, cube and ind_ge."""
    names = [f"V{i}" for i in range(draw(st.integers(1, max_nodes)))]
    order = draw(st.permutations(names))
    mechanisms = {}
    for pos, name in enumerate(order):
        parents = tuple(draw(st.lists(st.sampled_from(order[:pos]), unique=True))) if pos else ()
        leaves = st.one_of(
            st.builds(Const, st.floats(-2.0, 2.0)),
            st.just(NoiseRef()),
            *([st.sampled_from(parents).map(Var)] if parents else []),
        )
        expr = draw(st.recursive(leaves, lambda sub: st.one_of(
            st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
            st.builds(Unary, st.sampled_from(["tanh", "cube"]), sub),
            st.builds(IndicatorGe, sub, st.floats(-1.0, 1.0)),
        ), max_leaves=6))
        mechanisms[name] = Mechanism(parents, expr)
    noises = {name: draw(st.sampled_from(_NOISES)) for name in names}
    return Scm(tuple(names), mechanisms, noises)


@settings(max_examples=200, deadline=None)
@given(grammar_scms(), st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_one_evaluator_matches_the_reduced_form_dual(m, seed, n):
    noise = draw_noise(m, n, seed)
    dual = reduced_form_values(m, noise, n)
    if all(np.isfinite(col).all() for col in dual.values()):
        data, reduced = sample(m, n, seed), reduced_form_sample(m, n, seed)
        for v in m.variables:
            assert data.column(v).tobytes() == reduced.column(v).tobytes(), v
    else:
        with pytest.raises(UsageError, match="missing or infinite"):
            sample(m, n, seed)
    for k in range(n):
        row = evaluate_with_noise(m, {v: noise[v][k] for v in m.variables})
        got = np.array([row[v] for v in m.variables])
        want = np.array([dual[v][k] for v in m.variables])
        assert np.array_equal(got, want, equal_nan=True), k


@settings(max_examples=50, deadline=None)
@given(dags(max_nodes=8))
def test_ancestor_masks_match_parent_bfs(g):
    for v in range(g.n):
        mask = g._ancestor_masks[v]
        assert {i for i in range(g.n) if mask >> i & 1} == ancestors_by_parent_bfs(g, v)


@settings(max_examples=80, deadline=None)
@given(dags(max_nodes=7), st.integers(0, 2**16))
def test_front_door_shape_check_matches_directed_paths(g, salt):
    assume(g.n >= 3 and g.edges)
    rng = np.random.default_rng(salt)
    edges = sorted(g.edges)
    t, mdtr = edges[int(rng.integers(len(edges)))]
    # keep t -> mediator as the mediator's only in-edge; still acyclic
    shaped = Dag(g.nodes, [(u, v) for u, v in edges if v != mdtr] + [(t, mdtr)])
    y = int(rng.choice([k for k in range(g.n) if k not in (t, mdtr)]))
    bypass = any(mdtr not in path for path in directed_paths(shaped, t, y))
    names = shaped.nodes[t], shaped.nodes[mdtr], shaped.nodes[y]
    if bypass:
        with pytest.raises(PreconditionError, match="avoids the mediator"):
            _check_front_door_shape(shaped, *names)
    else:
        _check_front_door_shape(shaped, *names)


# one node pair's edge marks: forward, backward, undirected (either
# orientation), and the conflicting combinations
PAIR_STATES = (
    (), (), (), ("fwd",), ("fwd",), ("back",), ("back",), ("und",), ("und",),
    ("rund",), ("fwd", "back"), ("fwd", "und"), ("back", "rund"),
)


@st.composite
def mixed_graphs(draw, max_nodes=7):
    n = draw(st.integers(2, max_nodes))
    directed, undirected = set(), set()
    for i in range(n):
        for j in range(i + 1, n):
            for mark in draw(st.sampled_from(PAIR_STATES)):
                if mark == "fwd":
                    directed.add((i, j))
                elif mark == "back":
                    directed.add((j, i))
                elif mark == "und":
                    undirected.add((i, j))
                else:
                    undirected.add((j, i))
    return n, directed, undirected


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=300, deadline=None)
@given(mixed_graphs())
def test_meek_closure_matches_tuple_scan_reference(graph):
    n, directed, undirected = graph
    names = [f"X{k}" for k in range(n)]
    handler = _Messages()
    log = logging.getLogger("causelab.graph")
    log.addHandler(handler)
    try:
        got = meek_closure(names, directed, undirected)
    finally:
        log.removeHandler(handler)
    want_dir, want_und, skipped = meek_closure_by_tuple_scans(n, directed, undirected)
    assert got == (want_dir, want_und)
    assert handler.messages == [
        f"skipping orientation {names[i]}->{names[j]}: would close a directed cycle"
        for i, j in skipped
    ]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(1, 3),
    st.sampled_from(["distinct", "rounded", "zeros", "subnormal-squares"]),
    st.booleans(),
)
def test_median_heuristic_matches_dense_bitwise(seed, m, d, ties, pooled):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(m, d))
    if ties == "rounded":
        xs = np.round(xs, 1)
    elif ties == "zeros":
        xs[: m // 2] = 0.0
    elif ties == "subnormal-squares":
        xs = np.round(xs, 1) * 1e-161
    ys = rng.normal(size=(int(rng.integers(1, 200)), d)) if pooled else None
    if ys is not None and ties == "subnormal-squares":
        ys *= 1e-161
    fast = median_heuristic(xs, ys)
    assert np.float64(fast).tobytes() == np.float64(median_distance_dense(xs, ys)).tobytes()


def _kernel_named(name, xs):
    return {
        "gaussian": GaussianKernel(median_heuristic(xs)),
        # high rank, and not near the identity, whose HSIC is the same at
        # every permutation up to rounding
        "narrow": GaussianKernel(0.05),
        "linear": LinearKernel(),
        "poly2": PolynomialKernel(2),
        "poly3": PolynomialKernel(3, 0.5),
    }[name]


KERNEL_NAMES = ["gaussian", "narrow", "linear", "poly2", "poly3"]


@st.composite
def hsic_samples(draw):
    """Paired samples with continuous, rounded (tied), constant or
    duplicated columns. Ties are put on one side only: rounding both
    sides makes distinct pairings with equal contingency tables, whose
    statistics are equal in exact arithmetic but in neither form bitwise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(20, 300))
    xs = rng.normal(size=(m, draw(st.integers(1, 2))))
    ys = rng.uniform(-1, 1) * xs[:, :1] ** 2 + rng.normal(size=(m, 1))
    shape = draw(st.sampled_from(["continuous", "rounded-x", "rounded-y", "constant-x",
                                  "constant-y", "duplicated"]))
    if shape == "rounded-x":
        xs = np.round(xs)
    elif shape == "rounded-y":
        ys = np.round(ys)
    elif shape == "constant-x":
        # a dyadic value keeps the dense dual's centring exact as well
        xs = np.full_like(xs, draw(st.sampled_from([0.0, 2.0, -1.5])))
    elif shape == "constant-y":
        ys = np.full_like(ys, rng.normal())
    elif shape == "duplicated":
        rows = rng.integers(0, int(rng.integers(2, m)), size=m)
        xs, ys = xs[rows], ys[rows]
    return xs, ys, draw(st.sampled_from(KERNEL_NAMES)), draw(st.sampled_from(KERNEL_NAMES))


@settings(max_examples=120, deadline=None)
@given(hsic_samples(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_hsic_permuted_statistics_match_dense(sample, perms, seed):
    xs, ys, kx, ky = sample
    kx, ky = _kernel_named(kx, xs), _kernel_named(ky, ys)
    K, L = gram(kx, xs), gram(ky, ys)
    A, B = _centred(_kernel_factor(kx, xs)), _centred(_kernel_factor(ky, ys))
    observed, stats = _hsic_permuted(A, B, perms, seed)
    dense_observed, dense_stats = hsic_permuted_dense(K, L, perms, seed)
    everything = np.append(dense_stats, dense_observed)
    # a floor on the scale for the rounding-noise statistics of constant columns
    scale = max(np.abs(everything).max(), np.abs(K).max() * np.abs(L).max() * 1e-6)
    assert abs(observed - dense_observed) <= 1e-9 * scale
    assert np.abs(stats - dense_stats).max() <= 1e-9 * scale
    assert (stats >= observed).sum() == (dense_stats >= dense_observed).sum()
    assert abs(hsic_statistic(kx, ky, xs, ys) - hsic_dense(K, L)) <= 1e-9 * scale


def test_hsic_near_ties_of_continuous_samples_do_not_count():
    """Narrow bandwidths put permuted statistics of distinct pairings a few
    1e-12 below the observed one; they are not ties and do not count."""
    rng = np.random.default_rng(22)
    xs, ys = rng.normal(size=(20, 2)), rng.normal(size=(20, 1))
    K, L = (gram(_kernel_named("narrow", v), v) for v in (xs, ys))
    A, B = (_centred(_kernel_factor(_kernel_named("narrow", v), v)) for v in (xs, ys))
    observed, stats = _hsic_permuted(A, B, 20, 0)
    dense_observed, dense_stats = hsic_permuted_dense(K, L, 20, 0)
    gaps = dense_stats - dense_observed
    assert ((gaps < 0) & (gaps > -1e-11)).any()
    assert (stats >= observed).sum() == (dense_stats >= dense_observed).sum()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(20, 150),
    st.sampled_from(["gaussian", "linear", "poly2"]),
    st.integers(1, 99),
    st.integers(0, 2**32 - 1),
)
def test_two_valued_samples_count_exact_ties(data_seed, m, kernel, perms, seed):
    """Both samples discrete: a permutation that keeps the contingency
    table ties the observed statistic in exact arithmetic, and counts."""
    rng = np.random.default_rng(data_seed)
    bits = [(rng.uniform(size=m) < rng.uniform(0.05, 0.95)).astype(float) for _ in "xy"]
    lo, hi = np.sort(rng.choice([-1.5, 0.0, 0.3, 1.0, 2.0], size=2, replace=False))
    xs, ys = (lo + (hi - lo) * b for b in bits)
    k = None if kernel == "gaussian" else _kernel_named(kernel, xs)
    res = hsic_test(k, k, xs, ys, perms=perms, seed=seed)
    assert res.p_value == hsic_pvalue_two_valued(*bits, perms, seed)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 120),
    st.integers(1, 3),
    st.sampled_from(KERNEL_NAMES),
    st.booleans(),
)
def test_pivoted_cholesky_reproduces_gram(seed, m, d, name, duplicated):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(m, d))
    if duplicated:
        xs = xs[rng.integers(0, max(1, m // 3), size=m)]
    kernel = _kernel_named(name, xs)
    g = gram(kernel, xs)
    rows = _kernel_factor(kernel, xs)
    # built from kernel rows, it is the dense Gram's factor bitwise
    dense = pivoted_cholesky_of_gram(g)
    assert rows.shape == dense.shape and rows.tobytes() == dense.tobytes()
    distinct = np.unique(xs, axis=0)
    assert len(rows) <= len(distinct)
    # the stopping bound, plus the rounding of forming R^T R
    bound = (1e-12 + 4 * m * np.finfo(float).eps) * np.diag(g).max()
    assert np.abs(rows.T @ rows - g).max() <= bound
    # bitwise-equal Gram columns get bitwise-equal factor columns
    _, group = np.unique(g, axis=1, return_inverse=True)
    for k in range(group.max() + 1):
        same = rows[:, group.ravel() == k]
        assert (same == same[:, :1]).all()


def test_median_heuristic_keeps_subnormal_squares():
    """A distance is sqrt(fl(d^2)): differences whose square is subnormal
    come out other than |d|, and those whose square underflows count as
    zero. The sorted one-column selection keeps both."""
    xs = np.array([0.0, 1e-162, 3e-162, 7e-162, 2.5e-161, 6e-161, 1.1e-160])
    d = np.abs(np.subtract.outer(xs, xs))[np.triu_indices(len(xs), 1)]
    rounded = np.sqrt(np.square(d))
    assert (rounded != d).any() and (rounded == 0).any() and (d > 0).all()
    fast = median_heuristic(xs)
    assert fast == median_distance_dense(xs) == float(np.median(rounded[rounded > 0]))
    assert fast != float(np.median(d))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 60),
    st.integers(2, 60),
    st.integers(1, 2),
    st.sampled_from(["gaussian", "linear", "poly2"]),
    st.integers(1, 200),
    st.integers(0, 2**32 - 1),
)
def test_mmd_matches_dense_quadratic_forms(data_seed, m, n, d, name, perms, seed):
    """Factor-form MMD against one dense quadratic form per split: equal
    counts, statistics within 1e-9 of their scale, and splits with the
    same x-set bitwise-equal (few points make them common)."""
    assume(m != n)  # with m = n a split and its complement tie in exact arithmetic
    rng = np.random.default_rng(data_seed)
    xs, ys = rng.normal(size=(m, d)), rng.normal(0.5, 1.0, size=(n, d))
    pool = np.vstack([xs, ys])
    kernel = _kernel_named(name, pool)
    K = gram(kernel, pool)
    observed, stats = _mmd_permuted(_kernel_factor(kernel, pool), m, perms, seed)
    dense_observed, dense_stats = mmd_permuted_dense(K, m, perms, seed)
    scale = max(np.abs(np.append(dense_stats, dense_observed)).max(), np.abs(K).max() * 1e-6)
    assert abs(observed - dense_observed) <= 1e-9 * scale
    assert np.abs(stats - dense_stats).max() <= 1e-9 * scale
    assert (stats >= observed).sum() == (dense_stats >= dense_observed).sum()
    by_set = {}
    for order, stat in zip(permutations_by_seed(perms, seed, m + n), stats):
        by_set.setdefault(frozenset(order[:m].tolist()), set()).add(stat)
    by_set.setdefault(frozenset(range(m)), set()).add(observed)
    assert all(len(values) == 1 for values in by_set.values())
    res = mmd(kernel, xs, ys, perms=perms, seed=seed)
    assert res.statistic == max(observed, 0.0)
    unbiased = (
        (K[:m, :m].sum() - np.trace(K[:m, :m])) / (m * (m - 1))
        + (K[m:, m:].sum() - np.trace(K[m:, m:])) / (n * (n - 1))
        - 2 * K[:m, m:].mean()
    )
    assert abs(res.unbiased - unbiased) <= 1e-9 * max(abs(unbiased), np.abs(K).max() * 1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 300),
    st.integers(1, 3),
    st.sampled_from(["gaussian", "narrow", "poly2"]),
    st.sampled_from([1e-3, 1e-1, 1.0]),
)
def test_ridge_residuals_match_dense_solve(seed, m, d, name, scale):
    """Woodbury on the factor against a dense (K + lam I) solve, in-sample
    residuals within 1e-9 of their largest; and the fit's predictions on
    its own points give those residuals."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(m, d))
    ys = np.sin(2 * xs[:, 0]) + 0.3 * rng.normal(size=m)
    kernel = _kernel_named(name, xs)
    lam = scale * m
    dense = ridge_residuals_dense(gram(kernel, xs), ys, lam)
    fast = _ridge_residuals(_kernel_factor(kernel, xs), ys, lam)
    largest = np.abs(dense).max()
    assert np.abs(fast - dense).max() <= 1e-9 * largest
    fit = kernel_ridge_fit(xs, ys, kernel, ridge_scale=scale)
    assert np.abs((ys - fit.predict(xs)) - dense).max() <= 1e-9 * max(largest, np.abs(ys).max())


@st.composite
def linear_datasets(draw):
    """Small linear-Gaussian samples from a random DAG, with a random
    alpha and conditioning-set cap, so that CI decisions err both ways."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_dag(draw(st.integers(2, 6)), rng, draw(st.floats(0.2, 0.8)))
    rows = draw(st.integers(20, 120))
    cols = np.zeros((rows, g.n))
    for v in topological_order(g):
        cols[:, v] = rng.normal(size=rows)
        for p in g.parents(v):
            cols[:, v] += rng.uniform(-1.0, 1.0) * cols[:, p]
    data = Dataset.from_columns({name: cols[:, k] for k, name in enumerate(g.nodes)})
    cfg = DiscoveryConfig(
        alpha=draw(st.floats(0.001, 0.5)), max_cond_size=draw(st.integers(0, 4))
    )
    return data, cfg


@settings(max_examples=300, deadline=None)
@given(dags(max_nodes=8))
def test_oracle_skeletons_match_reference_loops(g):
    cfg = DiscoveryConfig(ci_method="oracle", oracle_graph=g)
    assert pc_skeleton(None, cfg) == pc_skeleton_by_seen_tuples(None, cfg)
    assert sgs_skeleton(None, cfg) == sgs_skeleton_by_pairs(None, cfg)


@settings(max_examples=150, deadline=None)
@given(dags(max_nodes=8))
def test_oracle_skeletons_match_moralisation_driven_loops(g):
    """The reference loops asked the moralisation dual, not the library's
    oracle, so a fault in the library's d-separation cannot reach both sides."""
    cfg = DiscoveryConfig(ci_method="oracle", oracle_graph=g)
    names = g.nodes

    def independent(i, j, zs):
        return dsep_by_moral_ancestral_graph(g, [names[i]], [names[j]], [names[k] for k in zs])

    assert pc_skeleton(None, cfg) == pc_skeleton_by_seen_tuples(None, cfg, independent)
    assert sgs_skeleton(None, cfg) == sgs_skeleton_by_pairs(None, cfg, independent)


@settings(max_examples=100, deadline=None)
@given(dags(max_nodes=8), st.randoms(use_true_random=False), st.integers(0, 6))
def test_oracle_skeletons_over_permuted_columns_match_moralisation_driven_loops(
    g, random, max_cond
):
    """Oracle CI over a dataset whose columns list the graph's nodes in another
    order: the library relabels the graph once, the reference loops ask the
    moralisation dual by name."""
    names = list(g.nodes)
    random.shuffle(names)
    data = Dataset.from_columns({v: np.zeros(3) for v in names})
    cfg = DiscoveryConfig(ci_method="oracle", oracle_graph=g, max_cond_size=max_cond)

    def independent(i, j, zs):
        return dsep_by_moral_ancestral_graph(g, [names[i]], [names[j]], [names[k] for k in zs])

    assert pc_skeleton(data, cfg) == pc_skeleton_by_seen_tuples(data, cfg, independent)
    assert sgs_skeleton(data, cfg) == sgs_skeleton_by_pairs(data, cfg, independent)


@settings(max_examples=150, deadline=None)
@given(dags(max_nodes=8))
def test_separator_constraint_holds_for_every_separator(g):
    """Each pair's (must, forbid) masks are those its 2-paths give, and every
    set that breaks them leaves the pair d-connected by moralisation."""
    for i, j in itertools.combinations(range(g.n), 2):
        must, forbid = _separator_constraint(g, i, j)
        assert (must, forbid) == separator_constraint_by_two_paths(g, i, j)
        rest = [k for k in range(g.n) if k not in (i, j)]
        for size in range(len(rest) + 1):
            for zs in itertools.combinations(rest, size):
                zmask = sum(1 << k for k in zs)
                if must & ~zmask or zmask & forbid:
                    assert not dsep_by_moral_ancestral_graph(g, [i], [j], zs)


@st.composite
def rank_cases(draw):
    """(pool, ref, z): z a subset of a pool of up to 12 of 16 bits, ref the
    pool or a set strictly inside it."""
    pool = draw(st.lists(st.integers(0, 15), unique=True, max_size=12))
    z = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    ref = pool
    if pool and draw(st.booleans()):
        ref = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool) - 1))
    return [sum(1 << b for b in bits) for bits in (pool, ref, z)]


@settings(max_examples=300, deadline=None)
@given(rank_cases())
@example([0b1011, 0b1011, 0])
@example([0b1011, 0b0010, 0])
@example([0b111111111111, 0b010110011101, 0b101000100100])
def test_rank_counts_the_sets_before_z_in_the_pool_family(case):
    """_rank(z, ref) is the number of the pool's |z|-subsets that come before
    z in itertools.combinations order and lie inside ref."""
    pool, ref, z = case
    bits = [b for b in range(16) if pool >> b & 1]
    family = list(itertools.combinations(bits, z.bit_count()))
    before = family[: family.index(tuple(b for b in bits if z >> b & 1))]
    assert _rank(z, ref) == sum(all(ref >> b & 1 for b in zs) for zs in before)


def _earlier_parent_dag(seed: int, n: int, max_parents: int = 3) -> Dag:
    """Each node draws min(max_parents, #earlier) parents among the earlier
    nodes of a random order."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = [
        (int(order[p]), int(order[pos]))
        for pos in range(1, n)
        for p in rng.choice(pos, min(max_parents, pos), replace=False)
    ]
    return Dag([f"V{k}" for k in range(n)], edges)


LARGE_POOL_DAGS = [
    *(pytest.param(_earlier_parent_dag(seed, n), id=f"parents3-{n}")
      for seed, n in enumerate(range(10, 15))),
    *(pytest.param(random_dag(n, np.random.default_rng(100 + n), 0.7), id=f"dense-{n}")
      for n in (9, 10, 11)),
]


@pytest.mark.parametrize("g", LARGE_POOL_DAGS)
def test_oracle_pc_skeleton_on_large_pools_matches_reference_loops(g):
    """Nodes with 7 to 10 neighbours. On the dense DAGs some separators on
    j's side come after subsets inside both pools, which the count leaves
    out."""
    cfg = DiscoveryConfig(ci_method="oracle", oracle_graph=g)
    names = g.nodes

    def independent(i, j, zs):
        return dsep_by_moral_ancestral_graph(g, [names[i]], [names[j]], [names[k] for k in zs])

    result = pc_skeleton(None, cfg)
    assert result == pc_skeleton_by_seen_tuples(None, cfg)
    assert result == pc_skeleton_by_seen_tuples(None, cfg, independent)


@settings(max_examples=150, deadline=None)
@given(dags(max_nodes=7), st.data())
def test_d_separated_argument_forms_agree_with_moralisation(g, data):
    """Names, ints, numpy ints, a mix of them and generators name the same
    nodes, so they give the moralisation dual's verdict."""
    order = data.draw(st.permutations(range(g.n)))
    cut_a = data.draw(st.integers(1, g.n - 1))
    cut_b = data.draw(st.integers(cut_a + 1, g.n))
    a, b, z = order[:cut_a], order[cut_a:cut_b], order[cut_b:]
    expected = dsep_by_moral_ancestral_graph(g, a, b, z)
    forms = (
        lambda ks: [g.nodes[k] for k in ks],
        list,
        lambda ks: [np.int64(k) for k in ks],
        lambda ks: [(g.nodes[k], k, np.int32(k))[k % 3] for k in ks],
        lambda ks: (k for k in ks),
    )
    for form in forms:
        assert d_separated(g, form(a), form(b), form(z)) == expected


@settings(max_examples=150, deadline=None)
@given(linear_datasets())
def test_data_skeletons_match_reference_loops(case):
    data, cfg = case
    assert pc_skeleton(data, cfg) == pc_skeleton_by_seen_tuples(data, cfg)
    assert sgs_skeleton(data, cfg) == sgs_skeleton_by_pairs(data, cfg)


@st.composite
def skeletons_with_sepsets(draw, max_nodes=8):
    n = draw(st.integers(2, max_nodes))
    nodes = tuple(f"V{k}" for k in range(n))
    edges, sepsets = set(), {}
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            edges.add((nodes[i], nodes[j]))
        elif n > 2:
            others = [v for k, v in enumerate(nodes) if k not in (i, j)]
            sepsets[(nodes[i], nodes[j])] = frozenset(
                draw(st.sets(st.sampled_from(others), max_size=2))
            )
    return SkeletonResult(nodes, frozenset(edges), sepsets, 0)


@settings(max_examples=300, deadline=None)
@given(skeletons_with_sepsets())
def test_orient_never_raises_and_keeps_the_directed_part_acyclic(skeleton):
    cpdag = orient(skeleton)
    Dag(cpdag.nodes, cpdag.directed)  # raises on a directed cycle
    pairs = {tuple(sorted(e)) for e in cpdag.directed | cpdag.undirected}
    assert pairs == set(skeleton.edges)


@settings(max_examples=80, deadline=None)
@given(dags(max_nodes=7))
def test_greedy_acyclicity_checks_match_dag_construction(g):
    def builds(edges):
        try:
            Dag(g.nodes, edges)
            return True
        except UsageError:
            return False

    pa = list(g._parent_masks)
    for u, v in itertools.permutations(range(g.n), 2):
        if (u, v) in g.edges:
            turned = g.edges - {(u, v)} | {(v, u)}
            assert _acyclic_after(pa, u, v, reverse=True) == builds(turned)
        elif (v, u) not in g.edges:
            assert _acyclic_after(pa, u, v, reverse=False) == builds(g.edges | {(u, v)})


@settings(max_examples=60, deadline=None)
@given(dags(max_nodes=5), st.integers(0, 2**32 - 1))
def test_greedy_move_gains_are_exactly_undone(g, seed):
    """The undo of every greedy move gains exactly the move's negated gain,
    so a move and its undo never both count as improvements."""
    rng = np.random.default_rng(seed)
    mixed = rng.normal(size=(60, g.n)) @ rng.normal(size=(g.n, g.n))
    data = Dataset.from_columns({name: mixed[:, k] for k, name in enumerate(g.nodes)})
    family = _family_scorer(data, g.nodes, "linear-gaussian")
    logm = math.log(data.n)

    def local(v, pmask):
        ll, k = family(v, pmask)
        return ll - 0.5 * k * logm

    undo_of = {ADD: DELETE, DELETE: ADD, REVERSE: REVERSE}
    for gain, (kind, u, v) in _moves(local, list(g._parent_masks)):
        after = list(g._parent_masks)
        _apply(after, kind, u, v)
        undo = (undo_of[kind], *((v, u) if kind == REVERSE else (u, v)))
        back = {mv: b for b, mv in _moves(local, after)}[undo]
        assert back == -gain
        assert not (gain > SCORE_TOL and back > SCORE_TOL)


@st.composite
def ci_queries(draw):
    """A linear-Gaussian dataset with scaled and shifted columns, plus exact
    copies, affine images (cx + 1) and constants, and a test a ⫫ b | z on
    it whose z may repeat a name or be rank-deficient.

    a and b are never distinct columns from one source: their exact linear
    relation puts r at +-1 up to rounding, whose Fisher z neither route
    computes. a ⫫ a is drawn, and gives r = 1 on both.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, width = draw(st.integers(6, 150)), draw(st.integers(1, 5))
    base = rng.normal(size=(rows, width))
    for k in range(1, width):
        base[:, k] += base[:, :k] @ rng.uniform(-1.0, 1.0, size=k)
    scale = draw(st.lists(st.sampled_from([1e-3, 1.0, 1e3]), min_size=width, max_size=width))
    shift = draw(st.lists(st.sampled_from([0.0, 5.0, -100.0]), min_size=width, max_size=width))
    columns = {f"V{k}": base[:, k] * scale[k] + shift[k] for k in range(width)}
    source = {f"V{k}": k for k in range(width)}
    for kind, k, c in draw(st.lists(
        st.tuples(st.sampled_from(["copy", "affine", "const"]), st.integers(0, width - 1),
                  st.floats(-5.0, 5.0)),
        max_size=3,
    )):
        name = f"D{len(columns)}"
        x = columns[f"V{k}"]
        columns[name] = {"copy": x.copy(), "affine": c * x + 1.0, "const": np.full(rows, 0.1)}[kind]
        source[name] = None if kind == "const" else k
    names = sorted(columns)
    a = draw(st.sampled_from(names))
    b = names[(names.index(a) + draw(st.integers(1, len(names)))) % len(names)]
    assume(a == b or source[a] is None or source[a] != source[b])
    z = draw(st.lists(st.sampled_from(names), max_size=4))
    return Dataset.from_columns(columns), a, b, tuple(z)


def _ci_outcome(fn, *args):
    try:
        return fn(*args)
    except (UsageError, PreconditionError) as exc:
        return type(exc)


def _near_constant_query(seed, c):
    """a ⫫ b | d with d = c a + 1: for tiny c, d's spread is a few units in
    the last place of its mean, and its centring must keep that spread."""
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 15)) * 1e-3
    return Dataset.from_columns({"A": a, "B": b, "D": c * a + 1.0}), "A", "B", ("D",)


@settings(max_examples=400, deadline=None)
@given(ci_queries())
@example(query=_near_constant_query(0, 6e-14))
@example(query=_near_constant_query(1, -3e-12))
@example(query=_near_constant_query(2, -1e-8))
def test_partial_correlation_matches_least_squares(query):
    data, a, b, z = query
    ours = _ci_outcome(ci_test, "partial-correlation", data, a, b, z)
    dual = _ci_outcome(partial_correlation_lstsq, data, a, b, z)
    if isinstance(dual, type):
        assert ours is dual
        return
    assert not isinstance(ours, type), ours
    assert ours.cond_set_size == dual.cond_set_size == len(z)
    if math.isinf(dual.statistic):
        assert math.isinf(ours.statistic) and ours.p_value == 0.0
        return
    assert abs(ours.statistic - dual.statistic) <= 1e-9 * max(1.0, dual.statistic)
    if dual.p_value > 1e-250:
        assert ours.p_value == pytest.approx(dual.p_value, rel=1e-9)


def _on_grid(rng, n):
    """n standard normals on a 1/1024 grid: a (x + k) is exact below for the
    powers of two a and the integers k drawn there."""
    return np.round(rng.normal(size=n) * 1024) / 1024


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-200, 200), st.integers(-(2**40), 2**40))
def test_linear_fits_are_affine_equivariant(seed, log2_scale, shift):
    """x -> a x + b with b = a k, applied to a regressor, leaves the
    regression-adjustment ATE, the 2SLS ATE and stderr, the RDD ATE (cutoff
    and window mapped too), half-sibling residuals and the BIC gain of an
    edge as they were, within 1e-9 relative. Fits on the raw design called
    [1, x] rank-deficient from an offset of about 1e7 times x's spread."""
    rng = np.random.default_rng(seed)
    n, a = 300, 2.0**log2_scale

    def mapped(x):
        out = a * (x + shift)
        assert np.array_equal(out / a - shift, x)  # exact, so only the fits can differ
        return out

    def agree(fn, x):
        """fn(x, m) with m the identity, and fn(m(x), m) with m the map."""
        base, moved = np.asarray(fn(x, lambda v: v)), np.asarray(fn(mapped(x), mapped))
        assert np.abs(moved - base).max() <= 1e-9 * np.abs(base).max(), (base, moved)

    z = _on_grid(rng, n)
    t = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    y = t + 2.0 * z + rng.normal(size=n)
    agree(lambda zz, _: ate_regression_adjustment(
        Dataset.from_columns({"Z": zz, "T": t, "Y": y}), "Y", "T", ["Z"]).ate, z)

    iv, hidden = _on_grid(rng, n), rng.normal(size=n)
    treat = iv + hidden + rng.normal(size=n)
    outcome = 2.0 * treat + hidden + rng.normal(size=n)

    def iv_fit(ii, _):
        est = ate_iv_2sls(Dataset.from_columns({"I": ii, "T": treat, "Y": outcome}), "Y", "T", "I")
        return est.ate, est.stderr

    agree(iv_fit, iv)
    score = _on_grid(rng, n)
    jump = 1.5 * (score >= 0.0) + score + 0.3 * rng.normal(size=n)
    agree(lambda ss, m: ate_rdd(Dataset.from_columns({"S": ss, "Y": jump}), "Y", "S",
                                m(0.0), m(0.5) - m(0.0)).ate, score)

    siblings = np.column_stack([_on_grid(rng, n), _on_grid(rng, n)])
    target = siblings @ np.array([1.0, -0.5]) + rng.normal(size=n)
    agree(lambda sib, _: half_sibling_regress(target, sib), siblings)

    cause = _on_grid(rng, n)
    effect = cause + rng.normal(size=n)

    def gain(cc, _):
        data = Dataset.from_columns({"A": cc, "B": effect})
        edge = bic_score(data, Dag(["A", "B"], [("A", "B")]), "linear-gaussian")
        return edge - bic_score(data, Dag(["A", "B"], []), "linear-gaussian")

    agree(gain, cause)
