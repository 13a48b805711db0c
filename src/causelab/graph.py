"""Directed acyclic graphs over named variables.

Nodes are addressed by name at the API boundary and by integer index
internally (index = position in the node sequence). Node sets cross the
boundary as iterables of names or indices and are packed into integer
bitmasks internally, which keeps the d-separation reachability loop and
the exhaustive enumerations fast enough for the desk-scale sweeps in the
test suite.

All values are immutable after construction and every operation is a
pure function, so concurrent reads are safe.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import UsageError

logger = logging.getLogger(__name__)

DEFAULT_INDEPENDENCE_LIMIT = 8
DEFAULT_ADJUSTMENT_LIMIT = 12
# the largest n whose count stays under Python's 4300-digit int-to-str limit
MAX_COUNT_DAGS_N = 164


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, init=False)
class Dag:
    """A directed acyclic graph; edges are (parent index, child index)."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    _parent_masks: tuple[int, ...] = field(repr=False, compare=False)
    _child_masks: tuple[int, ...] = field(repr=False, compare=False)
    _descendant_masks: tuple[int, ...] = field(repr=False, compare=False)
    _ancestor_masks: tuple[int, ...] = field(repr=False, compare=False)
    _order: tuple[int, ...] = field(repr=False, compare=False)
    _bit: dict = field(repr=False, compare=False)  # {name or index: 1 << index}

    def __init__(self, nodes: Sequence[str], edges: Iterable[tuple] = ()):
        nodes = tuple(nodes)
        norm, pmask, cmask, order = _acyclic_structure(nodes, edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_parent_masks", tuple(pmask))
        object.__setattr__(self, "_child_masks", tuple(cmask))
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_bit", {k: 1 << i for i, v in enumerate(nodes) for k in (v, i)})
        desc = [1 << i for i in range(len(nodes))]
        for i in reversed(order):
            for j in _bits(cmask[i]):
                desc[i] |= desc[j]
        anc = [1 << i for i in range(len(nodes))]
        for j in order:
            for i in _bits(pmask[j]):
                anc[j] |= anc[i]
        object.__setattr__(self, "_descendant_masks", tuple(desc))
        object.__setattr__(self, "_ancestor_masks", tuple(anc))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index(self, node: str | int) -> int:
        return _node_index(self.nodes, node)

    def mask(self, nodes: Iterable[str | int]) -> int:
        m = 0
        bit = self._bit
        for node in nodes:  # exact types only: 3.0 and True hash like ints
            b = bit.get(node) if type(node) is str or type(node) is int else None
            m |= b or 1 << self.index(node)
        return m

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(self.nodes[i] for i in _bits(mask))

    def parents(self, node: str | int) -> tuple[int, ...]:
        return tuple(_bits(self._parent_masks[self.index(node)]))

    def children(self, node: str | int) -> tuple[int, ...]:
        return tuple(_bits(self._child_masks[self.index(node)]))

    def descendants_mask(self, node: str | int, inclusive: bool = True) -> int:
        i = self.index(node)
        m = self._descendant_masks[i]
        return m if inclusive else m & ~(1 << i)

    def has_edge(self, u: str | int, v: str | int) -> bool:
        return (self.index(u), self.index(v)) in self.edges

    def adjacent(self, u: str | int, v: str | int) -> bool:
        i, j = self.index(u), self.index(v)
        return (i, j) in self.edges or (j, i) in self.edges

    def remove_edges(self, edges: Iterable[tuple]) -> "Dag":
        drop = {(self.index(u), self.index(v)) for u, v in edges}
        return Dag(self.nodes, self.edges - drop)


@dataclass(frozen=True)
class Cpdag:
    """Markov equivalence class: shared skeleton with forced orientations."""

    nodes: tuple[str, ...]
    directed: frozenset[tuple[str, str]]
    undirected: frozenset[tuple[str, str]]

    def __post_init__(self):
        und = frozenset(tuple(sorted(e)) for e in self.undirected)
        for u, v in und:
            if u == v or u not in self.nodes or v not in self.nodes:
                raise UsageError(
                    f"undirected edge ({u!r}, {v!r}) is a self-loop or names an unknown node"
                )
        object.__setattr__(self, "undirected", und)
        for u, v in self.directed:  # by name: _acyclic_structure also takes indices
            if u not in self.nodes or v not in self.nodes:
                raise UsageError(f"edge ({u!r}, {v!r}) references unknown node")
        dir_pairs = {tuple(sorted(e)) for e in self.directed}
        if dir_pairs & set(und):
            raise UsageError("directed and undirected edge sets overlap")
        _acyclic_structure(tuple(self.nodes), self.directed)


def _node_index(nodes: tuple[str, ...], node: str | int) -> int:
    """The index of a node given by name or by index; UsageError otherwise."""
    if isinstance(node, str):
        try:
            return nodes.index(node)
        except ValueError:
            raise UsageError(f"unknown node {node!r}") from None
    try:
        i = operator.index(node)
    except TypeError:
        raise UsageError(f"node index {node!r} is not an integer") from None
    if not 0 <= i < len(nodes):
        raise UsageError(f"node index {i} out of range")
    return i


def _acyclic_structure(nodes: tuple[str, ...], edges: Iterable[tuple]) -> tuple:
    """(parent, child) index pairs, parent and child masks and Kahn order of
    the graph whose edges give node names or indices; UsageError on a
    duplicate name, an unknown node, a self-loop or a cycle."""
    if len(set(nodes)) != len(nodes):
        raise UsageError(f"duplicate node names in {nodes!r}")
    n = len(nodes)
    norm = set()
    pmask = [0] * n
    cmask = [0] * n
    for u, v in edges:
        i, j = _node_index(nodes, u), _node_index(nodes, v)
        if i == j:
            raise UsageError(f"self-loop at {nodes[i]!r}")
        norm.add((i, j))
        pmask[j] |= 1 << i
        cmask[i] |= 1 << j
    order = _kahn_order(pmask, cmask)
    if order is None:
        raise UsageError("graph contains a directed cycle")
    return norm, pmask, cmask, order


def _kahn_order(
    parent_masks: Sequence[int], child_masks: Sequence[int]
) -> tuple[int, ...] | None:
    """Kahn's sort taking the smallest ready index first; None on a cycle."""
    indegree = [m.bit_count() for m in parent_masks]
    ready = [i for i, d in enumerate(indegree) if d == 0]  # sorted, so a heap
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in _bits(child_masks[i]):
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
    return tuple(order) if len(order) == len(parent_masks) else None


def _reaches(out_masks: Sequence[int], src: int, dst: int) -> bool:
    """Whether a directed path, possibly empty, leads from src to dst;
    out_masks[i] bit j means i -> j."""
    reach, frontier = 0, 1 << src
    while frontier and not frontier >> dst & 1:
        reach |= frontier
        nxt = 0
        for k in _bits(frontier):
            nxt |= out_masks[k]
        frontier = nxt & ~reach
    return frontier != 0


def topological_order(g: Dag) -> tuple[int, ...]:
    """Parents before children; ties broken by ascending node index."""
    return g._order


def _dsep_masks(g: Dag, amask: int, bmask: int, zmask: int) -> bool:
    """Reachability test: True iff no active path joins amask and bmask.

    Bayes ball (Shachter 1998) over (node, direction of entry) states. Off z,
    entry from a child continues to parents and children, and entry from a
    parent to children; at a node of z, entry from a parent bounces back up
    to its parents, which opens a collider whose descendant is in z. The
    masks must be pairwise disjoint, so reaching b ends the search: b is
    tested when nodes are pushed, not when they are popped.
    """
    visited_up = visited_down = 0
    pend_up, pend_down = amask, 0
    parent_masks, child_masks = g._parent_masks, g._child_masks
    while pend_up or pend_down:
        if pend_up:
            low = pend_up & -pend_up
            pend_up ^= low
            if visited_up & low:
                continue
            visited_up |= low
            i = low.bit_length() - 1
            if not low & zmask:
                up, down = parent_masks[i] & ~visited_up, child_masks[i] & ~visited_down
                if (up | down) & bmask:
                    return False
                pend_up |= up
                pend_down |= down
        else:
            low = pend_down & -pend_down
            pend_down ^= low
            if visited_down & low:
                continue
            visited_down |= low
            i = low.bit_length() - 1
            if not low & zmask:
                down = child_masks[i] & ~visited_down
                if down & bmask:
                    return False
                pend_down |= down
            else:
                up = parent_masks[i] & ~visited_up
                if up & bmask:
                    return False
                pend_up |= up
    return True


def _separator_constraint(g: Dag, i: int, j: int) -> tuple[int, int]:
    """(must, forbid) masks that every z d-separating nodes i and j meets:
    must ⊆ z and z ∩ forbid = ∅. The middle c of a 2-path i–c–j that is not a
    collider (a common parent, or a chain either way) is open unless c ∈ z; a
    common child c is open if z meets De(c). No z separates adjacent nodes,
    so their must is 1 << i, which no z excluding i contains."""
    pa, ch = g._parent_masks, g._child_masks
    if (pa[i] | ch[i]) >> j & 1:
        return 1 << i, 0
    forbid = 0
    for c in _bits(ch[i] & ch[j]):
        forbid |= g._descendant_masks[c]
    return pa[j] & (pa[i] | ch[i]) | pa[i] & ch[j], forbid


def d_separated(
    g: Dag,
    a: Iterable[str | int],
    b: Iterable[str | int],
    z: Iterable[str | int] = (),
) -> bool:
    """True iff every path between a and b is blocked by z."""
    amask, bmask, zmask = g.mask(a), g.mask(b), g.mask(z)
    if not amask or not bmask:
        raise UsageError("a and b must be nonempty")
    if amask & bmask or amask & zmask or bmask & zmask:
        raise UsageError("a, b, z must be pairwise disjoint")
    return _dsep_masks(g, amask, bmask, zmask)


def implied_independences(
    g: Dag, limit: int = DEFAULT_INDEPENDENCE_LIMIT
) -> tuple[tuple[str, str, frozenset[str]], ...]:
    """All (singleton, singleton, conditioning set) d-separations of g.

    Triples are canonical: the two singletons in lexicographic name
    order, conditioning sets ranging over all subsets of the remaining
    nodes, output sorted deterministically.
    """
    if g.n > limit:
        raise UsageError(f"graph has {g.n} nodes, enumeration limit is {limit}")
    out = []
    order = sorted(range(g.n), key=lambda i: g.nodes[i])
    for ai, bi in itertools.combinations(order, 2):
        rest = [k for k in range(g.n) if k not in (ai, bi)]
        amask, bmask = 1 << ai, 1 << bi
        for r in range(len(rest) + 1):
            for zs in itertools.combinations(rest, r):
                zmask = 0
                for k in zs:
                    zmask |= 1 << k
                if _dsep_masks(g, amask, bmask, zmask):
                    out.append((g.nodes[ai], g.nodes[bi], frozenset(g.nodes[k] for k in zs)))
    out.sort(key=lambda t: (t[0], t[1], len(t[2]), sorted(t[2])))
    return tuple(out)


def _colliders(
    nodes: Sequence[str],
    directed: Iterable[tuple[str, str]],
    skeleton: Iterable[tuple[str, str]],
) -> frozenset[tuple[str, str, str]]:
    """Colliders a→c←b among the directed name pairs whose a and b are not
    adjacent in the skeleton, as (a, c, b) with a < b lexicographically."""
    index = {name: k for k, name in enumerate(nodes)}
    parents = [0] * len(nodes)
    adjacent = [0] * len(nodes)
    for u, v in directed:
        parents[index[v]] |= 1 << index[u]
    for u, v in skeleton:
        i, j = index[u], index[v]
        adjacent[i] |= 1 << j
        adjacent[j] |= 1 << i
    out = set()
    for c, pmask in enumerate(parents):
        for ai, bi in itertools.combinations(_bits(pmask), 2):
            if not adjacent[ai] >> bi & 1:
                a, b = sorted((nodes[ai], nodes[bi]))
                out.add((a, nodes[c], b))
    return frozenset(out)


def skeleton_and_vstructures(
    g: Dag,
) -> tuple[frozenset[tuple[str, str]], frozenset[tuple[str, str, str]]]:
    """Undirected edge set plus colliders a→c←b with a, b non-adjacent.

    V-structures are reported as (a, c, b) with a < b lexicographically.
    """
    named = [(g.nodes[i], g.nodes[j]) for i, j in g.edges]
    skel = frozenset(tuple(sorted(e)) for e in named)
    return skel, _colliders(g.nodes, named, named)


def markov_equivalent(g1: Dag, g2: Dag) -> bool:
    """Same skeleton and same v-structures."""
    if set(g1.nodes) != set(g2.nodes):
        raise UsageError("graphs are over different node sets")
    return skeleton_and_vstructures(g1) == skeleton_and_vstructures(g2)


# ---------------------------------------------------------------------------
# Meek orientation rules


def meek_closure(
    nodes: Sequence[str],
    directed: set[tuple[int, int]],
    undirected: set[tuple[int, int]],
) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Close a partially directed graph under the four orientation rules.

    Operates on index pairs into nodes; undirected pairs are returned as
    (min, max). An orientation that would close a directed cycle is
    skipped with a warning that names the nodes (possible only for
    inconsistent finite-sample inputs). Each
    pass applies R1 to R4 in turn, visiting edges in ascending pair order
    as of the start of each rule.
    """
    n = len(nodes)
    out = [0] * n  # out[i] bit j: i -> j
    into = [0] * n  # into[j] bit i: i -> j
    und = [0] * n  # und[i] bit j: i - j
    for i, j in directed:
        out[i] |= 1 << j
        into[j] |= 1 << i
    for i, j in undirected:
        und[i] |= 1 << j
        und[j] |= 1 << i
    # orienting keeps every pair adjacent, so adjacency is fixed
    adj = [out[i] | into[i] | und[i] for i in range(n)]

    def orient(i, j):
        if _reaches(out, j, i):
            logger.warning(
                "skipping orientation %s->%s: would close a directed cycle",
                nodes[i], nodes[j],
            )
            return False
        und[i] &= ~(1 << j)
        und[j] &= ~(1 << i)
        out[i] |= 1 << j
        into[j] |= 1 << i
        return True

    def undirected_pairs():  # ascending (i, j) with i < j
        return [(i, j) for i in range(n) for j in _bits(und[i] >> (i + 1) << (i + 1))]

    changed = True
    while changed:
        changed = False
        # R1: a -> b, b - c, a and c non-adjacent  =>  b -> c
        for a, b in [(a, b) for a in range(n) for b in _bits(out[a])]:
            for c in _bits(und[b] & ~adj[a] & ~(1 << a)):
                changed |= orient(b, c)
        # R2: a -> c -> b, a - b  =>  a -> b
        for pair in undirected_pairs():
            for a, b in (pair, pair[::-1]):
                if out[a] & into[b]:
                    changed |= orient(a, b)
                    break
        # R3: a - b; a - c, a - d; c -> b, d -> b; c, d non-adjacent  =>  a -> b
        for pair in undirected_pairs():
            for a, b in (pair, pair[::-1]):
                cands = und[a] & into[b]
                if any(cands & ~adj[c] & ~(1 << c) for c in _bits(cands)):
                    changed |= orient(a, b)
                    break
        # R4: a - b; a - d; d -> c, c -> b; b, d non-adjacent; a, c adjacent  =>  a -> b
        # (a skipped orientation lets the reverse direction be tried)
        for pair in undirected_pairs():
            for a, b in (pair, pair[::-1]):
                if any(out[d] & into[b] & adj[a] for d in _bits(und[a] & ~adj[b])):
                    if orient(a, b):
                        changed = True
                        break
    directed = {(i, j) for i in range(n) for j in _bits(out[i])}
    return directed, set(undirected_pairs())


def _cpdag_from_pattern(
    nodes: Sequence[str],
    skeleton: Iterable[tuple[int, int]],
    directed: set[tuple[int, int]],
) -> Cpdag:
    """The CPDAG of a pattern: skeleton index pairs not in directed start
    undirected, and the Meek rules close the result."""
    undirected = {
        (i, j) for i, j in skeleton if (i, j) not in directed and (j, i) not in directed
    }
    directed, undirected = meek_closure(nodes, directed, undirected)
    return Cpdag(
        nodes=tuple(nodes),
        directed=frozenset((nodes[i], nodes[j]) for i, j in directed),
        undirected=frozenset((nodes[i], nodes[j]) for i, j in undirected),
    )


def cpdag_of(g: Dag) -> Cpdag:
    """Essential graph of g: v-structure orientations closed under Meek rules."""
    _, vs = skeleton_and_vstructures(g)
    directed = {(g.index(tail), g.index(c)) for a, c, b in vs for tail in (a, b)}
    return _cpdag_from_pattern(g.nodes, g.edges, directed)


# ---------------------------------------------------------------------------
# Covariate adjustment


def _adjustment_context(g: Dag, t: int, y: int) -> tuple[int, Dag]:
    """Forbidden-node mask and the graph with t's causal first edges cut."""
    # nodes other than t on a directed t->y path
    cn = g._descendant_masks[t] & g._ancestor_masks[y] & ~(1 << t)
    forbidden = 0
    for v in _bits(cn):
        forbidden |= g._descendant_masks[v]
    cut = [(t, c) for c in _bits(g._child_masks[t] & cn)]
    return forbidden, g.remove_edges(cut)


def is_valid_adjustment_set(
    g: Dag, t: str | int, y: str | int, z: Iterable[str | int]
) -> bool:
    """Whether summing p(z)p(y|t,z) over z yields the interventional law.

    Two graphical conditions for a singleton treatment: z avoids every
    descendant of a node on a directed t→y path (other than t itself),
    and z blocks every non-directed path from t to y.
    """
    ti, yi = g.index(t), g.index(y)
    if ti == yi:
        raise UsageError("treatment and outcome must differ")
    zmask = g.mask(z)
    if zmask & ((1 << ti) | (1 << yi)):
        raise UsageError("adjustment set must exclude treatment and outcome")
    forbidden, g_cut = _adjustment_context(g, ti, yi)
    if zmask & forbidden:
        return False
    return _dsep_masks(g_cut, 1 << ti, 1 << yi, zmask)


@dataclass(frozen=True)
class AdjustmentSets:
    """All valid adjustment sets, plus whether parent adjustment is one."""

    sets: tuple[frozenset[str], ...]
    parent_set: frozenset[str]
    parent_set_valid: bool


def enumerate_adjustment_sets(
    g: Dag, t: str | int, y: str | int, limit: int = DEFAULT_ADJUSTMENT_LIMIT
) -> AdjustmentSets:
    """Every z ⊆ nodes∖{t,y} passing the adjustment criterion.

    Sorted by size, then lexicographically by node names. The treatment's
    parent set is flagged separately (parent adjustment).
    """
    if g.n > limit:
        raise UsageError(f"graph has {g.n} nodes, enumeration limit is {limit}")
    ti, yi = g.index(t), g.index(y)
    if ti == yi:
        raise UsageError("treatment and outcome must differ")
    forbidden, g_cut = _adjustment_context(g, ti, yi)
    others = [k for k in range(g.n) if k not in (ti, yi)]
    found = []
    for r in range(len(others) + 1):
        for zs in itertools.combinations(others, r):
            zmask = 0
            for k in zs:
                zmask |= 1 << k
            if zmask & forbidden:
                continue
            if _dsep_masks(g_cut, 1 << ti, 1 << yi, zmask):
                found.append(frozenset(g.nodes[k] for k in zs))
    found.sort(key=lambda s: (len(s), sorted(s)))
    parent_set = frozenset(g.nodes[p] for p in g.parents(ti))
    return AdjustmentSets(
        sets=tuple(found),
        parent_set=parent_set,
        parent_set_valid=parent_set in found,
    )


# ---------------------------------------------------------------------------
# Enumeration and counting


def count_dags(n: int) -> int:
    """Number of labeled DAGs on n nodes (alternating sum over root sets)."""
    if not 1 <= n <= MAX_COUNT_DAGS_N:
        raise UsageError(f"n must lie in [1, {MAX_COUNT_DAGS_N}]")
    a = [1]  # a[0] = 1
    binom = [[1]]
    for m in range(1, n + 1):
        row = [1] + [binom[m - 1][k - 1] + binom[m - 1][k] for k in range(1, m)] + [1]
        binom.append(row)
        total = 0
        for k in range(1, m + 1):
            term = binom[m][k] * (1 << (k * (m - k))) * a[m - k]
            total += term if k % 2 == 1 else -term
        a.append(total)
    return a[n]


def enumerate_dags(nodes: Sequence[str]) -> Iterator[Dag]:
    """All labeled DAGs on the given nodes, in a fixed deterministic order.

    Iterates the 3^(n choose 2) orientation assignments per node pair and
    keeps the acyclic ones; intended for desk-scale exhaustive sweeps.
    """
    nodes = tuple(nodes)
    pairs = list(itertools.combinations(range(len(nodes)), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = [(i, j) if s == 1 else (j, i) for (i, j), s in zip(pairs, states) if s]
        try:
            g = Dag(nodes, edges)
        except UsageError:
            if not edges:  # the first candidate fails only on bad node names
                raise
            continue  # a directed cycle
        yield g


# ---------------------------------------------------------------------------
# JSON serialization


def dag_to_json(g: Dag) -> str:
    payload = {
        "nodes": list(g.nodes),
        "edges": sorted([g.nodes[i], g.nodes[j]] for i, j in g.edges),
    }
    return json.dumps(payload, sort_keys=True)


def dag_from_json(text: str) -> Dag:
    try:
        payload = json.loads(text)
        return Dag(payload["nodes"], [tuple(e) for e in payload.get("edges", [])])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"bad graph JSON: {exc}") from exc


def cpdag_to_json(c: Cpdag) -> str:
    payload = {
        "nodes": list(c.nodes),
        "edges": sorted(list(e) for e in c.directed),
        "undirected_edges": sorted(list(e) for e in c.undirected),
    }
    return json.dumps(payload, sort_keys=True)


def cpdag_from_json(text: str) -> Cpdag:
    try:
        payload = json.loads(text)
        return Cpdag(
            nodes=tuple(payload["nodes"]),
            directed=frozenset(tuple(e) for e in payload.get("edges", [])),
            undirected=frozenset(tuple(e) for e in payload.get("undirected_edges", [])),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise UsageError(f"bad CPDAG JSON: {exc}") from exc
