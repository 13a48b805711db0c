"""Causal structure learning.

Constraint-based skeletons (exhaustive-subset and neighbor-restricted
variants), v-structure orientation with rule closure, BIC scoring with
exhaustive or greedy search, and bivariate direction inference under an
additive-noise assumption.

Edge-removal sweeps are deterministic: candidate conditioning sets are
enumerated as bitmasks in (size, lexicographic) order against adjacency
sets frozen per sweep, so results do not depend on evaluation order. With
the oracle, only the sets a pair's 2-paths in the oracle graph admit are
tested: no other set d-separates the pair, so skipping them changes no
result, and they are still counted, in closed form.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import PreconditionError, UsageError
from .graph import Cpdag, Dag, enumerate_dags
from .kernels import CiTester, _check_alpha, _check_perms, _linear_fit, hsic_test, kernel_ridge_fit
from . import graph as graph_mod

logger = logging.getLogger(__name__)

MAX_SGS_NODES = 8
MAX_EXHAUSTIVE_NODES = 5


@dataclass(frozen=True)
class DiscoveryConfig:
    ci_method: str = "partial-correlation"  # | "kernel-residual" | "oracle"
    alpha: float = 0.05
    max_cond_size: int = 4
    score: str = "multinomial"  # | "linear-gaussian"
    search: str = "exhaustive"  # | "greedy"
    perms: int = 200
    seed: int = 0
    oracle_graph: Dag | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.max_cond_size < 0:
            raise UsageError(f"max_cond_size must be >= 0, got {self.max_cond_size}")
        if self.ci_method == "oracle" and self.oracle_graph is None:
            raise UsageError("oracle CI mode requires oracle_graph")


@dataclass(frozen=True)
class SkeletonResult:
    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    sepsets: dict
    # CI queries the sweeps ask, those the oracle's constraint skips included
    tests_performed: int


def _decision_fn(data: Dataset | None, cfg: DiscoveryConfig, nodes: tuple[str, ...]):
    """(f(i, j, zmask) -> True iff independent, g(i, j) -> (must, forbid)),
    over node indices: every separating zmask holds must and misses forbid.
    The oracle reads both masks off its graph; for data every set is
    admissible, (0, 0)."""
    if cfg.ci_method == "oracle":
        g = cfg.oracle_graph
        if set(g.nodes) != set(nodes):
            raise UsageError("oracle graph nodes do not match the variables")
        if g.nodes != tuple(nodes):
            g = Dag(nodes, [(g.nodes[u], g.nodes[v]) for u, v in g.edges])
        constraint = functools.partial(graph_mod._separator_constraint, g)
        return (lambda i, j, zmask: graph_mod._dsep_masks(g, 1 << i, 1 << j, zmask)), constraint

    if data is None:
        raise UsageError("data required unless using the oracle CI mode")

    ci = CiTester(data)

    def tester(i, j, zmask):
        res = ci.test(
            cfg.ci_method,
            nodes[i],
            nodes[j],
            tuple(nodes[k] for k in graph_mod._bits(zmask)),
            perms=cfg.perms,
            seed=cfg.seed,
            max_cond=cfg.max_cond_size,
        )
        return res.p_value > cfg.alpha

    return tester, lambda i, j: (0, 0)


def sgs_skeleton(data: Dataset | None, cfg: DiscoveryConfig) -> SkeletonResult:
    """Exhaustive-subset skeleton: drop an edge iff some subset separates."""
    nodes = cfg.oracle_graph.nodes if data is None else data.columns
    n = len(nodes)
    if n > MAX_SGS_NODES:
        raise UsageError(f"{n} variables exceed the exhaustive limit {MAX_SGS_NODES}")
    return _skeleton_search(data, cfg, nodes, adjacent_only=False)


def pc_skeleton(data: Dataset | None, cfg: DiscoveryConfig) -> SkeletonResult:
    """Neighbor-restricted skeleton search with per-sweep frozen adjacencies."""
    nodes = cfg.oracle_graph.nodes if data is None else data.columns
    return _skeleton_search(data, cfg, nodes, adjacent_only=True)


def _rank(z: int, ref: int) -> int:
    """How many |z|-subsets of ref come before z in lexicographic order of
    their ascending elements; z need not lie inside ref. Taking z's elements
    in turn, those subsets agree with z below the current one and are
    smaller at it: C(|ref above the last|, r) - C(|ref from this one|, r)."""
    k = z.bit_count()
    rank = 0
    above = ref  # the elements of ref above z's previous element
    for t, b in enumerate(graph_mod._bits(z)):
        tail = ref >> b << b
        rank += math.comb(above.bit_count(), k - t) - math.comb(tail.bit_count(), k - t)
        if not tail & 1 << b:
            break
        above = tail ^ 1 << b
    return rank


def _first_separator(independent, i, j, size, pi, pj, must, forbid):
    """The first size-subset of pi, then of pj not inside pi, that holds must,
    misses forbid and separates i and j; None if none does. Those sets are
    must | s over the free nodes' subsets s, in lexicographic order, since
    two sets that share must compare as their differences do."""
    free = size - must.bit_count()
    if free < 0:
        return None
    for side, pool in enumerate((pi, pj)):
        if must & ~pool:
            continue
        bits = [1 << k for k in graph_mod._bits(pool & ~must & ~forbid)]
        for z in (must | s for s in map(sum, itertools.combinations(bits, free))):
            if (not side or z & ~pi) and independent(i, j, z):
                return z
    return None


def _skeleton_search(data, cfg: DiscoveryConfig, nodes, adjacent_only: bool):
    """Level-wise edge removal over masks. Sweep k asks after each adjacent
    pair i < j on the k-subsets of i's frozen pool, then on those of j's pool
    not inside i's, each in lexicographic order, until one separates. A pool
    is the node's adjacency at the sweep's start, or every other node.

    Only the sets the pair's (must, forbid) constraint admits are tested:
    with the oracle, any other set leaves open a 2-path between the pair
    (a non-collider middle outside it, or a common child with a descendant
    in it), so the first admissible separator is the first separator.
    tests_performed counts the whole family up to it, from its ranks."""
    n = len(nodes)
    independent, constraint = _decision_fn(data, cfg, nodes)
    pairs = [(i, j, *constraint(i, j)) for i, j in itertools.combinations(range(n), 2)]
    everyone = [(1 << n) - 1 & ~(1 << i) for i in range(n)]
    adj = list(everyone)
    sepsets = {}
    tests = 0
    max_size = cfg.max_cond_size if data is not None else n - 2
    for size in range(max_size + 1):
        pools = list(adj) if adjacent_only else everyone
        if all(pool.bit_count() - 1 < size for pool in pools):
            break
        removals = []
        for i, j, must, forbid in pairs:
            if not adj[i] >> j & 1:
                continue
            pi, pj = pools[i] & ~(1 << j), pools[j] & ~(1 << i)
            zm = _first_separator(independent, i, j, size, pi, pj, must, forbid)
            on_i = math.comb(pi.bit_count(), size)
            if zm is None:
                shared = math.comb((pi & pj).bit_count(), size)
                tests += on_i + math.comb(pj.bit_count(), size) - shared
                continue
            if zm & ~pi:
                tests += on_i + _rank(zm, pj) - _rank(zm, pi & pj) + 1
            else:
                tests += _rank(zm, pi) + 1
            removals.append((i, j, zm))
        for i, j, zm in removals:
            adj[i] &= ~(1 << j)
            adj[j] &= ~(1 << i)
            sepsets[(nodes[i], nodes[j])] = frozenset(nodes[k] for k in graph_mod._bits(zm))
    edges = frozenset(
        (nodes[i], nodes[j]) for i, j in itertools.combinations(range(n), 2) if adj[i] >> j & 1
    )
    return SkeletonResult(
        nodes=tuple(nodes), edges=edges, sepsets=sepsets, tests_performed=tests
    )


def orient(skeleton: SkeletonResult) -> Cpdag:
    """V-structures from separating sets, then rule closure.

    Finite-sample conflicts (a later v-structure trying to flip an
    already-oriented edge) resolve first-found-wins with a warning; an
    orientation that would close a directed cycle is skipped with one.
    """
    nodes = skeleton.nodes
    n = len(nodes)
    index = {name: k for k, name in enumerate(nodes)}
    pairs = [(index[u], index[v]) for u, v in skeleton.edges]
    adj = {i: set() for i in range(n)}
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)

    def sepset(i, j):
        a, b = (nodes[i], nodes[j]) if i < j else (nodes[j], nodes[i])
        return skeleton.sepsets.get((a, b), frozenset())

    out = [0] * n  # out[i] bit j: v-structure orientation i -> j
    for a, b in itertools.combinations(range(n), 2):
        if b in adj[a]:
            continue
        for c in sorted(adj[a] & adj[b]):
            if nodes[c] in sepset(a, b):
                continue
            for tail in (a, b):
                if out[c] >> tail & 1:
                    logger.warning(
                        "orientation conflict at %s->%s<-%s: keeping earlier %s->%s",
                        nodes[a], nodes[c], nodes[b], nodes[c], nodes[tail],
                    )
                elif graph_mod._reaches(out, c, tail):
                    logger.warning(
                        "skipping orientation %s->%s: would close a directed cycle",
                        nodes[tail], nodes[c],
                    )
                else:
                    out[tail] |= 1 << c
    directed = {(i, j) for i in range(n) for j in graph_mod._bits(out[i])}
    return graph_mod._cpdag_from_pattern(nodes, pairs, directed)


# ---------------------------------------------------------------------------
# Score-based search

# Scores within SCORE_TOL tie. Score-equivalent graphs, such as a covered
# edge and its reversal, differ only by rounding, far below the band.
SCORE_TOL = 1e-6


def _family_loglik_multinomial(columns, child, parents):
    """Maximized log-likelihood and parameter count of one conditional."""
    child_vals, child_idx = np.unique(columns[child], return_inverse=True)
    r = len(child_vals)
    if parents:
        pattern = np.column_stack([columns[p] for p in parents])
        pa_vals, pa_idx = np.unique(pattern, axis=0, return_inverse=True)
        q = len(pa_vals)
        q_full = 1
        for p in parents:
            q_full *= len(np.unique(columns[p]))
    else:
        pa_idx = np.zeros(len(child_idx), dtype=int)
        q = q_full = 1
    counts = np.zeros((q, r))
    np.add.at(counts, (pa_idx, child_idx), 1.0)
    row_tot = counts.sum(axis=1, keepdims=True)
    mask = counts > 0
    ll = float((counts[mask] * np.log(counts[mask] / row_tot.repeat(r, 1)[mask])).sum())
    return ll, (r - 1) * q_full


def _family_loglik_gaussian(columns, child, parents):
    _, _, _, resid, _ = _linear_fit([columns[p] for p in parents], columns[child])
    sigma2 = max(float(resid @ resid) / len(resid), 1e-300)
    ll = -0.5 * len(resid) * (math.log(2.0 * math.pi * sigma2) + 1.0)
    return ll, len(parents) + 2


def _family_scorer(data: Dataset, nodes, model: str):
    """Cached f(child index, parent mask) -> (log-likelihood, parameter
    count) of one family of a score model, over the data's columns named
    by nodes; the parents enter the fit in node order."""
    if data.n == 0:
        raise UsageError("empty dataset")
    if model == "multinomial":
        if any(data.kinds[v] == "real" for v in nodes):
            raise UsageError("multinomial score requires discrete columns")
        family = _family_loglik_multinomial
    elif model == "linear-gaussian":
        family = _family_loglik_gaussian
    else:
        raise UsageError(f"unknown score model {model!r}")
    columns = {v: data.column(v).astype(float) for v in nodes}

    @functools.cache
    def scorer(child: int, pmask: int) -> tuple[float, int]:
        parents = tuple(nodes[p] for p in graph_mod._bits(pmask))
        return family(columns, nodes[child], parents)

    return scorer


def _bic(family, g: Dag, logm: float) -> float:
    ll = 0.0
    k = 0
    for v, pmask in enumerate(g._parent_masks):
        fll, fk = family(v, pmask)
        ll += fll
        k += fk
    return ll - 0.5 * k * logm


def bic_score(data: Dataset, g: Dag, model: str = "multinomial") -> float:
    """Penalized maximum likelihood: log p(D | G, MLE) - (k/2) log m."""
    if set(g.nodes) - set(data.columns):
        raise UsageError("graph references columns missing from the data")
    return _bic(_family_scorer(data, g.nodes, model), g, math.log(data.n))


@dataclass(frozen=True)
class ScoreSearchResult:
    dag: Dag
    score: float
    graphs_scored: int


def score_search(data: Dataset, cfg: DiscoveryConfig) -> ScoreSearchResult:
    """Best-scoring DAG, by full enumeration or greedy single-edge moves.

    Enumeration keeps, among the DAGs scoring within SCORE_TOL of the best,
    the one with fewest edges, then the first by sorted edge names.
    """
    nodes = data.columns
    if cfg.search == "greedy":
        return _greedy_search(data, cfg.score)
    if cfg.search != "exhaustive":
        raise UsageError(f"unknown search mode {cfg.search!r}")
    if len(nodes) > MAX_EXHAUSTIVE_NODES:
        raise UsageError(
            f"{len(nodes)} variables exceed the exhaustive limit {MAX_EXHAUSTIVE_NODES}"
        )
    family = _family_scorer(data, nodes, cfg.score)
    logm = math.log(data.n)
    scored = [(_bic(family, g, logm), g) for g in enumerate_dags(nodes)]
    best = max(s for s, _ in scored)
    score, dag = min(
        ((s, g) for s, g in scored if s >= best - SCORE_TOL),
        key=lambda t: (len(t[1].edges), sorted((nodes[i], nodes[j]) for i, j in t[1].edges)),
    )
    return ScoreSearchResult(dag=dag, score=score, graphs_scored=len(scored))


def _acyclic_after(pa: list[int], u: int, v: int, reverse: bool) -> bool:
    """Whether the DAG with parent masks pa stays acyclic after adding u -> v,
    or with reverse, after turning its edge u -> v into v -> u."""
    if reverse:  # u must not be an ancestor of v once u -> v is gone
        pa = [*pa[:v], pa[v] & ~(1 << u), *pa[v + 1 :]]
        return not graph_mod._reaches(pa, v, u)
    return not graph_mod._reaches(pa, u, v)  # nor v one of u


ADD, DELETE, REVERSE = 0, 1, 2  # greedy move kinds, in tie-break order


def _moves(local, pa: list[int]) -> list[tuple[float, tuple[int, int, int]]]:
    """(gain, (kind, u, v)) for each single-edge move that keeps the DAG with
    parent masks pa acyclic; REVERSE turns u -> v into v -> u.

    A move's gain and its undo's subtract the same two sums of cached
    family scores in opposite orders, so they are exact negatives.
    """
    moves = []
    for u, v in itertools.permutations(range(len(pa)), 2):
        now = local(v, pa[v])
        if pa[v] >> u & 1:
            cut = local(v, pa[v] & ~(1 << u))
            moves.append((cut - now, (DELETE, u, v)))
            if _acyclic_after(pa, u, v, reverse=True):
                turned = cut + local(u, pa[u] | 1 << v)
                moves.append((turned - (now + local(u, pa[u])), (REVERSE, u, v)))
        elif not pa[u] >> v & 1 and _acyclic_after(pa, u, v, reverse=False):
            moves.append((local(v, pa[v] | 1 << u) - now, (ADD, u, v)))
    return moves


def _apply(pa: list[int], kind: int, u: int, v: int) -> None:
    pa[v] ^= 1 << u  # a legal move adds u -> v where absent, else removes it
    if kind == REVERSE:
        pa[u] |= 1 << v


def _greedy_search(data: Dataset, model: str) -> ScoreSearchResult:
    """Hill-climb from the empty graph by improving single-edge moves, with
    score-preserving reversals kept only when they unlock an improvement.

    A move improves only when its gain exceeds SCORE_TOL, the band that
    admits plateau reversals, so the undo of a plateau reversal never counts
    as one and rounding noise cannot drive the climb. Nodes are indexed in
    name order, which breaks ties.
    """
    names = sorted(data.columns)
    family = _family_scorer(data, names, model)
    logm = math.log(data.n)

    def local(v, pmask):
        ll, k = family(v, pmask)
        return ll - 0.5 * k * logm

    pa = [0] * len(names)
    scored = 0

    def scan():
        nonlocal scored
        moves = _moves(local, pa)
        scored += len(moves)
        return moves

    def improvement(moves):
        """The first improving move by kind, then names, among those within
        SCORE_TOL of the best gain (score-equivalent orientations)."""
        gains = [(g, mv) for g, mv in moves if g > SCORE_TOL]
        if not gains:
            return None
        best = max(g for g, _ in gains)
        return min(mv for g, mv in gains if g >= best - SCORE_TOL)

    while True:
        move = improvement(scan())
        if move is not None:
            _apply(pa, *move)
            continue
        plateau = sorted(
            (u, v) for g, (kind, u, v) in scan() if kind == REVERSE and abs(g) <= SCORE_TOL
        )
        for u, v in plateau:
            _apply(pa, REVERSE, u, v)
            if improvement(scan()) is not None:
                break
            _apply(pa, REVERSE, v, u)
        else:
            break
    edges = [(names[u], names[v]) for v, pmask in enumerate(pa) for u in graph_mod._bits(pmask)]
    total = sum(local(names.index(v), pa[names.index(v)]) for v in data.columns)
    return ScoreSearchResult(dag=Dag(data.columns, edges), score=total, graphs_scored=scored)


# ---------------------------------------------------------------------------
# Bivariate additive-noise direction inference


@dataclass(frozen=True)
class AnmVerdict:
    direction: str  # "forward" | "backward" | "undecided"
    p_forward: float
    p_backward: float
    margin: float


MIN_ANM_SAMPLES = 100


def _direction_seed(seed: int, cause: str, effect: str) -> int:
    ss = np.random.SeedSequence(
        [seed, zlib.crc32(cause.encode()), zlib.crc32(effect.encode())]
    )
    return int(ss.generate_state(1)[0])


def _residual_independence_p(xv, yv, cfg: DiscoveryConfig, seed: int) -> float:
    resid = kernel_ridge_fit(xv, yv).residuals
    return hsic_test(None, None, xv, resid, perms=cfg.perms, seed=seed).p_value


def anm_direction(
    data: Dataset, x: str, y: str, cfg: DiscoveryConfig
) -> AnmVerdict:
    """Fit y ~ f(x) and x ~ g(y) nonparametrically, and test each fit's
    residuals against its input on every row.

    A direction wins only when its residuals look independent of the
    input while the reverse direction's do not; otherwise the verdict is
    undecided (both fitting, as in the linear-Gaussian exception, or
    neither fitting).
    """
    _check_perms(cfg.perms)
    xv = data.column(x).astype(float)
    yv = data.column(y).astype(float)
    if len(xv) < MIN_ANM_SAMPLES:
        raise UsageError(f"need at least {MIN_ANM_SAMPLES} rows")
    if np.std(xv) == 0 or np.std(yv) == 0:
        raise UsageError("degenerate constant column")
    p_fwd = _residual_independence_p(xv, yv, cfg, _direction_seed(cfg.seed, x, y))
    p_bwd = _residual_independence_p(yv, xv, cfg, _direction_seed(cfg.seed, y, x))
    pass_fwd = p_fwd > cfg.alpha
    pass_bwd = p_bwd > cfg.alpha
    if pass_fwd and not pass_bwd:
        direction = "forward"
    elif pass_bwd and not pass_fwd:
        direction = "backward"
    else:
        direction = "undecided"
    return AnmVerdict(
        direction=direction,
        p_forward=p_fwd,
        p_backward=p_bwd,
        margin=abs(p_fwd - p_bwd),
    )
