"""Independent brute-force oracles used to validate the fast paths.

These deliberately re-derive results from first principles (path
enumeration, exhaustive DAG enumeration, noise enumeration) rather than
reusing the library's algorithms, so each check is a genuine dual route.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator

import numpy as np

from causelab.graph import Dag


def _simple_paths(g: Dag, start: int, goal: int):
    """All simple undirected paths between two nodes, as index lists."""
    adjacency = {i: set() for i in range(g.n)}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    stack = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == goal:
            yield path
            continue
        for nxt in sorted(adjacency[node]):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))


def _path_active(g: Dag, path: list[int], zset: set[int]) -> bool:
    """Triple rules: chains/forks block on z, colliders open on z-descendants."""
    if len(path) == 2:
        return True
    for k in range(1, len(path) - 1):
        u, v, w = path[k - 1], path[k], path[k + 1]
        into_v_left = (u, v) in g.edges
        into_v_right = (w, v) in g.edges
        if into_v_left and into_v_right:  # collider
            desc = {i for i in range(g.n) if g.descendants_mask(v) >> i & 1}
            if not desc & zset:
                return False
        else:  # chain or fork
            if v in zset:
                return False
    return True


def dsep_by_paths(g: Dag, a, b, z) -> bool:
    """d-separation by enumerating every simple path, the slow way."""
    aidx = [g.index(x) for x in a]
    bidx = [g.index(x) for x in b]
    zset = {g.index(x) for x in z}
    for s in aidx:
        for t in bidx:
            for path in _simple_paths(g, s, t):
                if _path_active(g, path, zset):
                    return False
    return True


def dsep_by_moral_ancestral_graph(g: Dag, a, b, z) -> bool:
    """d-separation by moralisation (Lauritzen et al. 1990): a and b are
    d-separated by z iff z separates them in the moral graph of the
    ancestral set of a, b and z."""
    aidx = {g.index(x) for x in a}
    bidx = {g.index(x) for x in b}
    zset = {g.index(x) for x in z}
    parents = {v: {u for u, w in g.edges if w == v} for v in range(g.n)}
    ancestral, stack = set(), list(aidx | bidx | zset)
    while stack:
        v = stack.pop()
        if v not in ancestral:
            ancestral.add(v)
            stack.extend(parents[v])
    neighbours = {v: set() for v in ancestral}
    for v in ancestral:
        for u in parents[v]:
            neighbours[u].add(v)
            neighbours[v].add(u)
        for u, w in itertools.combinations(parents[v], 2):
            neighbours[u].add(w)
            neighbours[w].add(u)
    reached, stack = set(), list(aidx)
    while stack:
        v = stack.pop()
        if v not in reached and v not in zset:
            reached.add(v)
            stack.extend(neighbours[v])
    return not reached & bidx


def directed_paths(g: Dag, start: int, goal: int):
    """All directed paths start -> ... -> goal."""
    out = []
    stack = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == goal:
            out.append(path)
            continue
        for nxt in sorted(g.children(node)):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))
    return out


def separator_constraint_by_two_paths(g: Dag, i: int, j: int) -> tuple[int, int]:
    """(must, forbid) masks read off the 2-paths i - c - j over edge tuples: a
    middle with an edge out along the path is a non-collider, which every
    separator holds, and a separator misses every node a directed path leads
    to from a common child. Adjacent nodes have no separator: must is {i}."""
    edges = g.edges
    if (i, j) in edges or (j, i) in edges:
        return 1 << i, 0
    must = forbid = 0
    for c in range(g.n):
        from_i, from_j = (i, c) in edges, (j, c) in edges
        if not (from_i or (c, i) in edges) or not (from_j or (c, j) in edges):
            continue
        if from_i and from_j:
            forbid |= sum(1 << d for d in range(g.n) if directed_paths(g, c, d))
        else:
            must |= 1 << c
    return must, forbid


def valid_adjustment_by_paths(g: Dag, t, y, z) -> bool:
    """Literal two-condition adjustment check via explicit path enumeration.

    Forbidden nodes are descendants of the non-treatment nodes lying on
    directed treatment->outcome paths; every non-directed path must then
    be blocked by z under the triple rules.
    """
    ti, yi = g.index(t), g.index(y)
    zset = {g.index(x) for x in z}
    on_causal = set()
    for path in directed_paths(g, ti, yi):
        on_causal.update(path)
    on_causal.discard(ti)
    forbidden = set()
    for node in on_causal:
        forbidden.update(i for i in range(g.n) if g.descendants_mask(node) >> i & 1)
    if zset & forbidden:
        return False
    causal_paths = {tuple(p) for p in directed_paths(g, ti, yi)}
    for path in _simple_paths(g, ti, yi):
        if tuple(path) in causal_paths:
            continue
        if _path_active(g, path, zset):
            return False
    return True


def cpdag_by_class_enumeration(g: Dag):
    """An edge is directed in the class graph iff every Markov-equivalent
    DAG orients it the same way. Returns (directed, undirected) name sets."""
    from causelab.graph import enumerate_dags, markov_equivalent

    members = [h for h in enumerate_dags(g.nodes) if markov_equivalent(g, h)]
    directed = set()
    undirected = set()
    for i, j in g.edges:
        same = all((i, j) in h.edges for h in members)
        if same:
            directed.add((g.nodes[i], g.nodes[j]))
        else:
            undirected.add(tuple(sorted((g.nodes[i], g.nodes[j]))))
    return frozenset(directed), frozenset(undirected)


def enumerate_joint_from_cpts(cgm, do=None):
    """Joint table over full assignments, computed atom by atom; every
    variable in ``do`` (name -> value) gets a point mass in place of its
    conditional."""
    nodes = cgm.dag.nodes
    domains = [cgm.domains[v] for v in nodes]
    do = do or {}
    table = {}
    for assignment in itertools.product(*domains):
        env = dict(zip(nodes, assignment))
        p = 1.0
        for v in nodes:
            if v in do:
                p *= 1.0 if env[v] == do[v] else 0.0
                continue
            cpt = cgm.cpts[v]
            idx = tuple(
                cgm.domains[pname].index(env[pname]) for pname in cpt.parents
            )
            vi = cgm.domains[v].index(env[v])
            p *= float(cpt.values[idx + (vi,)])
        table[assignment] = p
    return nodes, table


def contract_on_fixed_path(cgm, keep, do=None):
    """Sum over all but ``keep`` of the product of the conditionals, with a
    point mass in place of the conditional of every ``do`` variable (name
    -> value), axes following ``keep``: one np.einsum over the conditionals
    of every ancestor of keep and do, on numpy's path machinery along the
    fixed pairwise path in node order. At most 52 ancestors."""
    g = cgm.dag
    do = do or {}
    ancestral = set().union(*(ancestors_by_parent_bfs(g, g.index(v)) for v in (*keep, *do)))
    names = [v for i, v in enumerate(g.nodes) if i in ancestral]
    if not names:
        return np.ones(())
    label = {v: k for k, v in enumerate(names)}
    operands = []
    for v in names:
        if v in do:
            delta = np.zeros(len(cgm.domains[v]))
            delta[cgm.domains[v].index(do[v])] = 1.0
            operands += [delta, [label[v]]]
        else:
            cpt = cgm.cpts[v]
            operands += [cpt.values, [label[u] for u in (*cpt.parents, v)]]
    # numpy returns a lone operand unsummed under an empty path
    path = ["einsum_path"] + ([(0, 1)] * (len(names) - 1) or [(0,)])
    return np.einsum(*operands, [label[v] for v in keep], optimize=path)


def reduced_form_trees(m):
    """Each variable as a noise-only tree, by recursive substitution.

    A parent's tree replaces its Var, and a variable's own NoiseRef becomes
    Var("noise:<variable>"), so no tree refers to another variable's value.
    """
    from causelab.scm import BinOp, IndicatorGe, NoiseRef, Table, Unary, Var

    def substitute(expr, owner):
        if isinstance(expr, Var):
            return reduce(expr.name)
        if isinstance(expr, NoiseRef):
            return Var(f"noise:{owner}")
        if isinstance(expr, BinOp):
            return BinOp(expr.op, substitute(expr.left, owner), substitute(expr.right, owner))
        if isinstance(expr, Unary):
            return Unary(expr.op, substitute(expr.arg, owner))
        if isinstance(expr, IndicatorGe):
            return IndicatorGe(substitute(expr.arg, owner), expr.threshold)
        if isinstance(expr, Table):
            inputs = tuple(substitute(e, owner) for e in expr.inputs)
            return Table(inputs, expr.domains, expr.values)
        return expr

    trees = {}

    def reduce(name):
        if name not in trees:
            trees[name] = substitute(m.mechanisms[name].expr, name)
        return trees[name]

    return {name: reduce(name) for name in m.variables}


def _eval_tree(expr, values):
    """A tree's value on arrays, by an interpreter of its own rather than
    scm._eval, so that a change to one operation there shows up here."""
    from causelab.scm import BinOp, Const, IndicatorGe, Table, Unary, Var

    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return values[expr.name]
    if isinstance(expr, BinOp):
        ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "pow": operator.pow}
        return ops[expr.op](_eval_tree(expr.left, values), _eval_tree(expr.right, values))
    if isinstance(expr, Unary):
        ops = {"tanh": np.tanh, "cube": lambda x: x * x * x, "sign": np.sign}
        return ops[expr.op](_eval_tree(expr.arg, values))
    if isinstance(expr, IndicatorGe):
        return np.where(np.asarray(_eval_tree(expr.arg, values)) >= expr.threshold, 1.0, 0.0)
    if isinstance(expr, Table):
        lookup = dict(zip(itertools.product(*expr.domains), expr.values))
        cols = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(_eval_tree(e, values), dtype=float)) for e in expr.inputs)
        )
        return np.array([lookup[key] for key in zip(*(col.tolist() for col in cols))])
    raise ValueError(f"unknown expression node {type(expr).__name__}")


def reduced_form_values(m, noise, n):
    """Each variable's n values from its noise-only tree on the given noise.

    Re-evaluating a substituted subtree performs the same operations on the
    same values as evaluating the parent once, so the result is bitwise the
    same as the causal-order evaluation.
    """
    named = {f"noise:{name}": np.asarray(noise[name], dtype=float) for name in m.variables}
    with np.errstate(all="ignore"):
        return {
            name: np.broadcast_to(np.asarray(_eval_tree(tree, named), dtype=float), (n,))
            for name, tree in reduced_form_trees(m).items()
        }


def reduced_form_sample(m, n, seed):
    """The dual of scm.sample: the same seed's draws pushed through the
    noise-only trees."""
    from causelab.data import Dataset
    from causelab.scm import draw_noise

    return Dataset.from_columns(reduced_form_values(m, draw_noise(m, n, seed), n))


def counterfactual_by_enumeration(m, evidence, intervention, target):
    """Weighted counterfactual outcomes by enumerating all noise configs,
    each evaluated through the reduced form."""
    from causelab.scm import DiracNoise, FiniteNoise, intervene

    supports = []
    for name in m.variables:
        spec = m.noises[name]
        if isinstance(spec, DiracNoise):
            supports.append([(spec.point, 1.0)])
        elif isinstance(spec, FiniteNoise):
            supports.append(list(zip(spec.values, spec.probs)))
        else:
            raise ValueError("enumeration oracle needs finite noise everywhere")
    combos = list(itertools.product(*supports))
    noise = {
        name: [combo[k][0] for combo in combos] for k, name in enumerate(m.variables)
    }
    factual = reduced_form_values(m, noise, len(combos))
    outcomes = reduced_form_values(intervene(m, intervention), noise, len(combos))[target]
    posterior = {}
    total = 0.0
    for row, combo in enumerate(combos):
        weight = math.prod(w for _, w in combo)
        if weight == 0.0:
            continue
        if any(abs(factual[k][row] - evidence[k]) > 1e-9 for k in m.variables):
            continue
        total += weight
        out = float(outcomes[row])
        posterior[out] = posterior.get(out, 0.0) + weight
    if total == 0.0:
        raise ValueError("evidence has zero probability")
    return {v: w / total for v, w in sorted(posterior.items())}


def topological_order_by_rescan(g: Dag) -> tuple[int, ...]:
    """Repeatedly place the smallest-index node whose parents are all placed."""
    placed: list[int] = []
    while len(placed) < g.n:
        ready = [
            v
            for v in range(g.n)
            if v not in placed and all(u in placed for u, w in g.edges if w == v)
        ]
        placed.append(min(ready))
    return tuple(placed)


def sq_distances_by_loop(xs, ys) -> list[list[float]]:
    """Squared Euclidean distance of every row pair, one float at a time."""
    out = []
    for x in xs:
        row = []
        for y in ys:
            total = 0.0
            for a, b in zip(x, y):
                d = float(a) - float(b)
                total += d * d
            row.append(total)
        out.append(row)
    return out


def ancestors_by_parent_bfs(g: Dag, v: int) -> set[int]:
    """v and every node with a directed path into v, by walking parents."""
    seen = {v}
    frontier = [v]
    while frontier:
        node = frontier.pop()
        for u, w in g.edges:
            if w == node and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def meek_closure_by_tuple_scans(n, directed, undirected):
    """The four orientation rules over sorted tuple sets, rescanning every
    directed edge for each cycle check.

    Returns (directed, undirected, skipped): skipped lists the (i, j)
    orientations refused because they would close a directed cycle, in
    the order they were refused.
    """
    directed = set(directed)
    undirected = {tuple(sorted(e)) for e in undirected}
    skipped = []

    def adjacent(i, j):
        return (
            (i, j) in directed
            or (j, i) in directed
            or tuple(sorted((i, j))) in undirected
        )

    def creates_cycle(i, j):
        # would j -> ... -> i exist in the directed part?
        stack, seen = [j], set()
        while stack:
            k = stack.pop()
            if k == i:
                return True
            if k in seen:
                continue
            seen.add(k)
            stack.extend(c for (p, c) in directed if p == k)
        return False

    def orient(i, j):
        pair = tuple(sorted((i, j)))
        if pair not in undirected:
            return False
        if creates_cycle(i, j):
            skipped.append((i, j))
            return False
        undirected.discard(pair)
        directed.add((i, j))
        return True

    changed = True
    while changed:
        changed = False
        # R1: a -> b, b - c, a and c non-adjacent  =>  b -> c
        for a, b in sorted(directed):
            for pair in sorted(undirected):
                if b in pair:
                    c = pair[0] if pair[1] == b else pair[1]
                    if c != a and not adjacent(a, c):
                        changed |= orient(b, c)
        # R2: a -> c -> b, a - b  =>  a -> b
        for pair in sorted(undirected):
            for a, b in (pair, pair[::-1]):
                if any((a, c) in directed and (c, b) in directed for c in range(n)):
                    changed |= orient(a, b)
                    break
        # R3: a - b; a - c, a - d; c -> b, d -> b; c, d non-adjacent  =>  a -> b
        for pair in sorted(undirected):
            for a, b in (pair, pair[::-1]):
                cands = [
                    c
                    for c in range(n)
                    if tuple(sorted((a, c))) in undirected and (c, b) in directed
                ]
                if any(
                    not adjacent(c, d)
                    for c, d in itertools.combinations(sorted(cands), 2)
                ):
                    changed |= orient(a, b)
                    break
        # R4: a - b; a - d; d -> c, c -> b; b, d non-adjacent; a, c adjacent  =>  a -> b
        for pair in sorted(undirected):
            for a, b in (pair, pair[::-1]):
                hit = False
                for d, c in sorted(directed):
                    if (
                        (c, b) in directed
                        and tuple(sorted((a, d))) in undirected
                        and not adjacent(b, d)
                        and adjacent(a, c)
                    ):
                        hit = orient(a, b)
                        break
                if hit:
                    changed = True
                    break
    return directed, undirected, skipped


def _decision_by_tuples(data, cfg, nodes):
    """f(i, j, zs) -> True iff independent, over index tuples into nodes, one
    query per candidate: the Bayes ball on name masks for the oracle, else
    ``CiTester`` on name tuples. It counts no pair as joined in advance."""
    from causelab.graph import _dsep_masks
    from causelab.kernels import CiTester

    if cfg.ci_method == "oracle":
        g = cfg.oracle_graph
        return lambda i, j, zs: _dsep_masks(
            g, g.mask([nodes[i]]), g.mask([nodes[j]]), g.mask(nodes[k] for k in zs)
        )
    ci = CiTester(data)
    return lambda i, j, zs: ci.test(
        cfg.ci_method, nodes[i], nodes[j], tuple(nodes[k] for k in zs),
        perms=cfg.perms, seed=cfg.seed, max_cond=cfg.max_cond_size,
    ).p_value > cfg.alpha


def sgs_skeleton_by_pairs(data, cfg, independent=None):
    """Exhaustive-subset skeleton, one pair at a time: every subset of the
    other nodes, by size then lexicographically, until one separates.
    ``independent(i, j, zs)`` decides each test; by default, one query per
    candidate set, as ``_decision_by_tuples`` asks it."""
    from causelab.discovery import SkeletonResult

    nodes = cfg.oracle_graph.nodes if data is None else data.columns
    n = len(nodes)
    if independent is None:
        independent = _decision_by_tuples(data, cfg, nodes)
    edges = set()
    sepsets = {}
    tests = 0
    for i, j in itertools.combinations(range(n), 2):
        rest = [k for k in range(n) if k not in (i, j)]
        found = None
        for size in range(min(len(rest), cfg.max_cond_size if data is not None else len(rest)) + 1):
            for zs in itertools.combinations(rest, size):
                tests += 1
                if independent(i, j, zs):
                    found = zs
                    break
            if found is not None:
                break
        if found is None:
            edges.add((nodes[i], nodes[j]))
        else:
            sepsets[(nodes[i], nodes[j])] = frozenset(nodes[k] for k in found)
    return SkeletonResult(
        nodes=tuple(nodes),
        edges=frozenset(edges),
        sepsets=sepsets,
        tests_performed=tests,
    )


def pc_skeleton_by_seen_tuples(data, cfg, independent=None):
    """Neighbor-restricted skeleton over sorted per-sweep adjacency
    snapshots, skipping repeated conditioning sets through a set of seen
    tuples. ``independent`` is as in ``sgs_skeleton_by_pairs``."""
    from causelab.discovery import SkeletonResult

    nodes = cfg.oracle_graph.nodes if data is None else data.columns
    n = len(nodes)
    if independent is None:
        independent = _decision_by_tuples(data, cfg, nodes)
    adj = {i: set(range(n)) - {i} for i in range(n)}
    sepsets = {}
    tests = 0
    size = 0
    max_size = cfg.max_cond_size if data is not None else n - 2
    while size <= max_size:
        snapshot = {i: sorted(adj[i]) for i in range(n)}
        if all(len(snapshot[i]) - 1 < size for i in range(n)):
            break
        removals = []
        for i, j in itertools.combinations(range(n), 2):
            if j not in adj[i]:
                continue
            found = None
            candidate_pools = []
            if len(snapshot[i]) - 1 >= size:
                candidate_pools.append([k for k in snapshot[i] if k != j])
            if len(snapshot[j]) - 1 >= size:
                candidate_pools.append([k for k in snapshot[j] if k != i])
            seen = set()
            for pool in candidate_pools:
                for zs in itertools.combinations(pool, size):
                    if zs in seen:
                        continue
                    seen.add(zs)
                    tests += 1
                    if independent(i, j, zs):
                        found = zs
                        break
                if found is not None:
                    break
            if found is not None:
                removals.append((i, j, found))
        for i, j, zs in removals:
            adj[i].discard(j)
            adj[j].discard(i)
            sepsets[(nodes[i], nodes[j])] = frozenset(nodes[k] for k in zs)
        size += 1
    edges = frozenset(
        (nodes[i], nodes[j]) for i, j in itertools.combinations(range(n), 2) if j in adj[i]
    )
    return SkeletonResult(
        nodes=tuple(nodes), edges=edges, sepsets=sepsets, tests_performed=tests
    )


def median_distance_dense(xs, ys=None) -> float:
    """Median positive pairwise distance from the full pooled m x m matrix."""
    from causelab.kernels import _as_matrix, _sq_distances

    xs = _as_matrix(xs)
    pool = xs if ys is None else np.vstack([xs, _as_matrix(ys)])
    d = np.sqrt(_sq_distances(pool, pool))
    upper = d[np.triu_indices(len(pool), k=1)]
    positive = upper[upper > 0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def pivoted_cholesky_of_gram(g):
    """R with R^T R ~ g by pivoted incomplete Cholesky on the dense Gram g,
    with the library's stopping rule and entrywise updates."""
    from causelab.kernels import CHOLESKY_TOL

    residual = np.diag(g).copy()
    stop = CHOLESKY_TOL * residual.max()
    rows = []
    for _ in range(len(g)):
        pivot = int(np.argmax(residual))
        if residual[pivot] <= stop:
            break
        row = g[pivot].copy()
        for r in rows:
            row -= r * r[pivot]
        row /= math.sqrt(residual[pivot])
        residual -= row * row
        rows.append(row)
    return np.array(rows).reshape(len(rows), len(g))


def hsic_dense(K, L) -> float:
    """(1/m^2) trace(K H L H) with the centering matrix H."""
    Kc = K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()
    return float((Kc * L).sum() / len(L) ** 2)


def ridge_residuals_dense(K, ys, lam):
    """y - K alpha for (K + lam I) alpha = y, by a dense solve."""
    alpha = np.linalg.solve(K + lam * np.eye(len(K)), ys)
    return ys - K @ alpha


def mmd_permuted_dense(K, m: int, perms: int, seed: int):
    """Biased MMD^2 w^T K w of the split of K's rows into the first m and
    the rest, and at `perms` seeded index sets, w being 1/m on the x-set
    and -1/n elsewhere; one dense quadratic form per split."""
    size = len(K)

    def stat(order) -> float:
        w = np.full(size, -1.0 / (size - m))
        w[order[:m]] = 1.0 / m
        return float(w @ (K @ w))

    return stat(np.arange(size)), np.array(
        [stat(p) for p in permutations_by_seed(perms, seed, size)]
    )


def hsic_by_order(K, L):
    """(1/m^2) trace(K H L H) with the centering matrix H, as a function of
    the order in which the rows of L are paired with those of K: one
    permuted m x m copy of L per order."""
    Kc = K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()

    def stat(order) -> float:
        return float((Kc * L[np.ix_(order, order)]).sum() / len(L) ** 2)

    return stat


def permutations_by_seed(perms: int, seed: int, m: int) -> list:
    """`perms` index sets of range(m), drawn one at a time from the seeded
    Philox stream."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return [rng.permutation(m) for _ in range(perms)]


def hsic_permuted_dense(K, L, perms: int, seed: int):
    """The identity-order statistic and the statistics at `perms` seeded
    index sets."""
    stat = hsic_by_order(K, L)
    return stat(np.arange(len(L))), np.array(
        [stat(p) for p in permutations_by_seed(perms, seed, len(L))]
    )


def hsic_pvalue_two_valued(x_bits, y_bits, perms: int, seed: int) -> float:
    """The tie-counting HSIC permutation p-value for two samples that each
    take two values, given as 0/1 indicators. Every kernel's HSIC is then
    c (m n11 - r1 c1)^2 for a constant c >= 0, with n11 the count of rows
    where both indicators are 1 and r1, c1 the counts of each, so the
    comparison is exact in integers. c = 0 (a constant sample) ties all."""
    x, y = np.asarray(x_bits, dtype=int), np.asarray(y_bits, dtype=int)
    m = len(x)
    r1c1 = int(x.sum()) * int(y.sum())
    observed = abs(m * int(x @ y) - r1c1)
    hits = sum(
        abs(m * int(x @ y[p]) - r1c1) >= observed
        for p in permutations_by_seed(perms, seed, m)
    )
    return (1 + hits) / (1 + perms)


def csv_text_by_rows(data) -> str:
    """A dataset's CSV text, one csv.writer row and one repr or int per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(data.columns)
    integral = {name: data.kinds[name] in ("binary", "categorical") for name in data.columns}
    cols = [data.column(name) for name in data.columns]
    for row in range(data.n):
        writer.writerow(
            [
                str(int(col[row])) if integral[name] else repr(float(col[row]))
                for name, col in zip(data.columns, cols)
            ]
        )
    return buf.getvalue()


def infer_kind_by_unique(values) -> str:
    """A column's kind from its sorted distinct values (np.unique): binary
    within {0, 1}, categorical for at most 20 integral levels, else real."""
    uniq = np.unique(values)
    if uniq.size <= 2 and np.all(np.isin(uniq, (0.0, 1.0))):
        return "binary"
    if np.all(uniq == np.round(uniq)) and uniq.size <= 20:
        return "categorical"
    return "real"


def dataset_from_csv_by_cells(path):
    """A CSV file read whole by csv.reader, then one float() per cell, with
    the library's line and column error messages; a csv.Error, such as a
    field over csv.field_size_limit(), names its line."""
    from causelab.data import Dataset
    from causelab.errors import UsageError

    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise UsageError(f"{path!r}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise UsageError(f"{path!r}: empty file, header row required")
    header = rows[0]
    if len(set(header)) != len(header) or any(not h for h in header):
        raise UsageError(f"{path!r}: malformed header {header!r}")
    body = rows[1:]
    parsed = np.empty((len(body), len(header)))
    for r, row in enumerate(body):
        if len(row) != len(header):
            raise UsageError(
                f"{path!r}: line {r + 2}: expected {len(header)} fields, got {len(row)}"
            )
        for c, cell in enumerate(row):
            try:
                parsed[r, c] = float(cell)
            except ValueError:
                raise UsageError(
                    f"{path!r}: line {r + 2}, column {c + 1}: not a number: {cell!r}"
                ) from None
    return Dataset.from_columns({name: parsed[:, c] for c, name in enumerate(header)})


def partial_correlation_lstsq(data, a, b, z=()):
    """Fisher-z test of the partial correlation of a and b given z, from
    least-squares residuals of each on the design [1, z] over all rows.
    Every column is centred first, which keeps a shifted column's fit as
    accurate as an unshifted one's. The design's columns are scaled to unit
    norm, and a direction of relative singular value below
    sqrt(RESIDUAL_RTOL) is rank deficiency: z = (x, 3x + 1) spans what x
    spans, however fl(3x + 1) rounds.

    A variable whose residuals are rounding of it (a constant, or a linear
    function of z) is degenerate, by the library's RESIDUAL_RTOL.
    """
    from causelab.errors import PreconditionError, UsageError
    from causelab.kernels import RESIDUAL_RTOL, CiTestResult

    def centred(x):
        return x - x.mean(axis=0)

    xa, xb = data.column(a), data.column(b)
    n, k = len(xa), len(z)
    if n - k - 3 <= 0:
        raise UsageError(f"need more than {k + 3} rows for |z| = {k}")
    design = np.column_stack([np.ones(n), centred(data.matrix(z))])
    norms = np.linalg.norm(design, axis=0)
    design /= np.where(norms > 0, norms, 1.0)
    residuals = []
    for x in (xa, xb):
        xc = centred(x)
        beta, *_ = np.linalg.lstsq(design, xc, rcond=math.sqrt(RESIDUAL_RTOL))
        r = xc - design @ beta
        if np.ptp(x) == 0 or float(r @ r) <= RESIDUAL_RTOL * float(xc @ xc):
            raise PreconditionError("degenerate residuals: singular covariance")
        residuals.append(r)
    ra, rb = residuals
    r = float(ra @ rb) / math.sqrt(float(ra @ ra) * float(rb @ rb))
    r = max(min(r, 1.0), -1.0)
    if abs(r) >= 1.0:
        return CiTestResult("partial-correlation", float("inf"), 0.0, k)
    stat = math.sqrt(n - k - 3) * abs(math.atanh(r))
    return CiTestResult("partial-correlation", stat, math.erfc(stat / math.sqrt(2.0)), k)


def separated_by_linear_program(zmat, t) -> bool:
    """Whether the classes of t are (quasi-completely) separated on [1, z]: some
    d != 0 has s x d >= 0 on every row, s = +1 treated and -1 control, and > 0 on
    one (Albert & Anderson 1984), so the logistic MLE does not exist. Decided as
    a linear program (Konis 2007): maximise the sum of s x d over |d| <= 1 subject
    to s x d >= 0, and call the optimum positive beyond rounding."""
    from scipy.optimize import linprog

    zmat = np.asarray(zmat, dtype=float).reshape(len(t), -1)
    signed = (2.0 * np.asarray(t) - 1.0)[:, None] * np.column_stack([np.ones(len(t)), zmat])
    res = linprog(-signed.sum(axis=0), A_ub=-signed, b_ub=np.zeros(len(t)),
                  bounds=[(-1.0, 1.0)] * signed.shape[1], method="highs")
    assert res.status == 0, res.message
    return -res.fun > 1e-9 * max(1.0, np.abs(signed).sum())


def logistic_mle_by_newton(zmat, t, iterations: int = 60):
    """Intercept and slopes of the logistic MLE of t on [1, z], with z's columns
    standardized to mean 0 and population standard deviation 1 as the library's
    propensity model reports them. Newton steps, each np.linalg.lstsq's solution
    of the normal equations X'WX d = X'(t - p), w = p(1 - p), so a row fitted at
    p = 0 or 1 drops out: a fixed number halved while the log-likelihood falls,
    then five full ones, as near the optimum the gain is below the
    log-likelihood's rounding."""
    zmat = np.asarray(zmat, dtype=float).reshape(len(t), -1)
    sd = zmat.std(axis=0)
    zstd = (zmat - zmat.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
    design = np.column_stack([np.ones(len(t)), zstd])

    def loglik(beta):
        return -float(np.logaddexp(0.0, (1.0 - 2.0 * t) * (design @ beta)).sum())

    beta = np.zeros(design.shape[1])
    for damped in [True] * iterations + [False] * 5:
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-(design @ beta)))
        hess = design.T @ (design * (p * (1.0 - p))[:, None])
        step = np.linalg.lstsq(hess, design.T @ (t - p), rcond=None)[0]
        while damped and loglik(beta + step) < loglik(beta) and np.abs(step).max() > 0:
            step = step / 2
        beta = beta + step
    return float(beta[0]), beta[1:]
