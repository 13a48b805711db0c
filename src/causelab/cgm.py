"""Exact inference in discrete causal graphical models.

Every query is one exact contraction by variable elimination over the
conditionals of the queried variables' ancestors, with point masses at
intervened variables. A symbolic pass on bitmasks orders the variables by
min-fill and sizes every step; ``limit`` bounds the largest joint state
space that one step, or the result, spans, and is checked before anything
is allocated. Each step is then one np.einsum call over the factors that
mention the variable it sums out. A `Factor` contracts on demand, so only
a full-scope factor's `values` builds the full joint.
This module doubles as the oracle layer for the rest of the repository:
interventional truths, adjustment identities and conditional mutual
information are all computed to float precision, not approximated.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import OverlapError, PreconditionError, UsageError
from .graph import Dag, _bits, topological_order
from .scm import (
    DiracNoise,
    Intervention,
    Scm,
    Table,
    _eval_scalar,
    _variable_streams,
    induced_graph,
)

# cells of the largest joint state space one elimination step or result spans
DEFAULT_STATE_LIMIT = 1 << 22
_ROW_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Cpt:
    """p(child | parents) as an array of shape (*parent sizes, child size)."""

    child: str
    parents: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", arr)
        rows = arr.reshape(-1, arr.shape[-1])
        if (rows < 0).any():
            raise UsageError(f"CPT for {self.child!r} has negative entries")
        bad = np.abs(rows.sum(axis=1) - 1.0) > _ROW_TOL
        if bad.any():
            raise UsageError(
                f"CPT for {self.child!r}: {int(bad.sum())} rows do not sum to 1"
            )
        arr.setflags(write=False)

    @classmethod
    def from_rows(
        cls,
        child: str,
        parents: Sequence[str],
        parent_domains: Sequence[Sequence],
        child_domain: Sequence,
        rows: Mapping[tuple, Sequence[float]],
    ) -> "Cpt":
        """Build from a map: parent value tuple -> distribution over child."""
        sizes = [len(d) for d in parent_domains]
        arr = np.empty((*sizes, len(child_domain)))
        for config in itertools.product(*(range(s) for s in sizes)):
            key = tuple(parent_domains[k][i] for k, i in enumerate(config))
            if key not in rows:
                raise UsageError(f"CPT for {child!r} missing row for parents {key!r}")
            arr[config] = rows[key]
        return cls(child=child, parents=tuple(parents), values=arr)


@dataclass(frozen=True, eq=False)
class DiscreteCgm:
    dag: Dag
    domains: Mapping[str, tuple]
    cpts: Mapping[str, Cpt]

    def __post_init__(self):
        object.__setattr__(
            self, "domains", {k: tuple(v) for k, v in self.domains.items()}
        )
        names = set(self.dag.nodes)
        if set(self.domains) != names or set(self.cpts) != names:
            raise UsageError("domains/cpts must cover exactly the graph nodes")
        for name in self.dag.nodes:
            cpt = self.cpts[name]
            want = tuple(self.dag.nodes[p] for p in self.dag.parents(name))
            if cpt.parents != want:
                raise UsageError(
                    f"CPT for {name!r} lists parents {cpt.parents}, graph says {want}"
                )
            shape = tuple(len(self.domains[p]) for p in want) + (
                len(self.domains[name]),
            )
            if cpt.values.shape != shape:
                raise UsageError(
                    f"CPT for {name!r} has shape {cpt.values.shape}, expected {shape}"
                )

    def domain(self, name: str) -> tuple:
        if name not in self.domains:
            raise UsageError(f"unknown variable {name!r}")
        return self.domains[name]

    def value_index(self, name: str, value) -> int:
        dom = self.domain(name)
        for i, v in enumerate(dom):
            if v == value or (
                isinstance(v, (int, float))
                and isinstance(value, (int, float))
                and float(v) == float(value)
            ):
                return i
        raise UsageError(f"value {value!r} not in domain of {name!r}: {dom}")

    def state_space_size(self) -> int:
        return math.prod(len(self.domains[v]) for v in self.dag.nodes)

    @cached_property
    def _layout(self) -> tuple:
        """What the contraction reads per node index: the CPT array with the
        node indices of its axes (its parents in index order, then the
        node), and the domain size; then the mask of nodes whose domain
        size is not 2."""
        g = self.dag
        factors = tuple(
            (self.cpts[v].values, (*_bits(g._parent_masks[i]), i))
            for i, v in enumerate(g.nodes)
        )
        card = tuple(len(self.domains[v]) for v in g.nodes)
        return factors, card, g.mask(i for i, k in enumerate(card) if k != 2)


@dataclass(frozen=True, eq=False)
class Factor:
    """p(scope | do(do)) of a model, contracted on demand: ``values`` is one
    variable elimination over the ancestors of scope, run on first use and
    kept; ``marginal`` and ``total`` contract only what they need.
    """

    model: DiscreteCgm = field(repr=False)
    do: Mapping
    limit: int
    scope: tuple[str, ...]

    @property
    def domains(self) -> tuple[tuple, ...]:
        return tuple(self.model.domains[v] for v in self.scope)

    @cached_property
    def values(self) -> np.ndarray:
        arr = np.asarray(_eliminate(self.model, self.scope, self.do, self.limit))
        if arr.shape != tuple(map(len, self.domains)):
            raise UsageError("factor shape does not match its domains")
        if (arr < -1e-15).any():
            raise UsageError("factor has negative entries")
        arr.setflags(write=False)
        return arr

    def marginal(self, keep: Sequence[str]) -> "Factor":
        keep = tuple(keep)
        for k, v in enumerate(keep):
            if v not in self.scope:
                raise UsageError(f"{v!r} is not in the factor's scope {self.scope}")
            if v in keep[:k]:
                raise UsageError(f"{v!r} is repeated in the marginal's scope")
        return Factor(self.model, self.do, self.limit, keep)

    def total(self) -> float:
        return float(self.marginal(()).values)


# np.einsum names each axis by one of 52 sublist labels, so one call spans at
# most 52 variables; under numpy 1.x a call takes at most 31 operands
_MAX_SUBSCRIPTS = 52
_MAX_OPERANDS = 31


def _plan(m: DiscreteCgm, keep: Sequence[str], do: Mapping, limit: int):
    """The symbolic pass of `_eliminate`, on int masks: the order, every
    step's scope and every check made before anything is allocated.

    Only the ancestors of keep enter, in the graph with the edges into do
    cut: a point mass does not depend on its parents, and every other
    conditional sums to 1. Factor k is the conditional, or the point mass, of
    members[k]. Each step sums one variable out of the factors that
    mention it: the one whose neighbours in the factors' interaction graph
    lack the fewest edges among themselves (min-fill), ties going to the
    smaller step, then to the lower node index. Returns the keep and do
    indices, the members, the steps as (consumed factor ids, the new
    factor's variables) and the ids of the factors left over keep.
    """
    g = m.dag
    parents, bit = g._parent_masks, g._bit
    # g.mask resolves every name, so each is then a key of g._bit
    keep_mask = g.mask(keep)
    out = [bit[v].bit_length() - 1 for v in keep]
    points = {g.index(v): m.value_index(v, value) for v, value in do.items()}
    cut = g.mask(points)
    _, card, wide = m._layout
    live = frontier = keep_mask
    while frontier:
        up = 0
        for i in _bits(frontier & ~cut):
            up |= parents[i]
        frontier = up & ~live
        live |= frontier
    members = list(_bits(live))
    scopes = [1 << i if i in points else parents[i] | 1 << i for i in members]
    rest = [i for i in members if not keep_mask >> i & 1]
    largest, widest = _cells(card, wide, keep_mask), len(out)
    steps, alive = [], list(range(len(members)))
    # adj[u]: u and every variable that shares a live factor with it
    adj = [0] * g.n
    for scope in scopes if rest else ():
        for u in _bits(scope):
            adj[u] |= scope
    while rest:
        best_fill = best_cells = math.inf
        for v in rest:
            near = adj[v]
            cells = _cells(card, wide, near) if near & wide else 1 << near.bit_count()
            cap = best_fill if cells < best_cells else best_fill - 1
            if cap < 0:
                continue
            # each neighbour counts the others it is not joined to; v is in
            # the neighbour's adj, so near may keep v's own bit
            fill, bits = 0, near ^ 1 << v
            while bits:
                low = bits & -bits
                fill += (near & ~adj[low.bit_length() - 1]).bit_count()
                if fill > cap:
                    break
                bits ^= low
            else:
                best, best_fill, best_cells = v, fill, cells
        drop = 1 << best
        scope = adj[best] ^ drop
        axes = [u for u in members if scope >> u & 1]
        steps.append(([k for k in alive if scopes[k] & drop], axes))
        alive = [k for k in alive if not scopes[k] & drop]
        alive.append(len(scopes))
        scopes.append(scope)
        if best_cells > largest:
            largest = best_cells
        if len(axes) >= widest:
            widest = len(axes) + 1
        rest.remove(best)
        for u in axes:
            adj[u] = (adj[u] | scope) ^ drop
    if largest > limit:
        raise UsageError(f"state space {largest} exceeds limit {limit}")
    if widest > _MAX_SUBSCRIPTS:
        raise UsageError(
            f"{widest} variables in one contraction exceed {_MAX_SUBSCRIPTS} einsum subscripts"
        )
    return out, points, members, steps, alive


def _cells(card: Sequence[int], wide: int, mask: int) -> int:
    """The joint state count of the variables in mask; wide marks those
    whose domain size is not 2."""
    cells = 1 << (mask & ~wide).bit_count()
    for i in _bits(mask & wide):
        cells *= card[i]
    return cells


def _eliminate(
    m: DiscreteCgm, keep: Sequence[str], do: Mapping, limit: int
) -> np.ndarray:
    """Sum over all but ``keep`` of the product of the conditionals, with a
    point mass in place of the conditional of every ``do`` variable; the
    result's axes follow ``keep``.

    Variable elimination: `_plan` orders the variables and bounds every
    table it builds, the result included, by ``limit`` before anything is
    allocated; then each step is one np.einsum call.
    """
    out, points, members, steps, final = _plan(m, keep, do, limit)
    factors, card, _ = m._layout
    tables = [factors[i] for i in members]
    for k, i in enumerate(members):
        if i in points:
            delta = np.zeros(card[i])
            delta[points[i]] = 1.0
            tables[k] = delta, (i,)
    for ids, axes in steps:
        tables.append((_product([tables[k] for k in ids], axes), axes))
        for k in ids:
            tables[k] = None
    # the factors left over keep two at a time: one call over many of them
    # runs numpy's generic loop over every operand for each output cell
    return _product([tables[k] for k in final], out, 2)


def _product(tables: list, axes: Sequence[int], most: int = _MAX_OPERANDS) -> np.ndarray:
    """The product of (array, variables) tables summed onto axes, by one
    np.einsum call per `most` tables, with labels numbered per call."""
    if not tables:
        return np.ones(())
    while len(tables) > most:
        head, tables = tables[:most], tables[most:]
        union = sorted({v for _, names in head for v in names})
        tables.append((_product(head, union), union))
    label: dict[int, int] = {}
    operands = []
    for arr, names in tables:
        operands += arr, [label.setdefault(v, len(label)) for v in names]
    return np.einsum(*operands, [label[v] for v in axes])


def joint(m: DiscreteCgm, limit: int = DEFAULT_STATE_LIMIT) -> Factor:
    """Exact product of the per-variable conditionals, over all variables."""
    return truncated_factorization(m, {}, limit)


def truncated_factorization(
    m: DiscreteCgm, i: Intervention | Mapping, limit: int = DEFAULT_STATE_LIMIT
) -> Factor:
    """Interventional joint: deltas at targets times untouched conditionals,
    checked here over all variables and contracted on demand."""
    do = dict(i.assignments if isinstance(i, Intervention) else i)
    _plan(m, m.dag.nodes, do, limit)
    return Factor(m, do, limit, m.dag.nodes)


def condition(
    m: DiscreteCgm,
    query: str,
    given: Mapping,
    limit: int = DEFAULT_STATE_LIMIT,
) -> np.ndarray:
    """Exact p(query | given) as a vector over the query domain.

    The query may itself appear in the evidence; the result is then an
    indicator vector (provided the evidence has positive probability).
    """
    keep = [query] + [v for v in m.dag.nodes if v in given and v != query]
    index = [slice(None)] + [
        m.value_index(v, given[v]) for v in keep[1:]
    ]
    slice_vals = _eliminate(m, keep, {}, limit)[tuple(index)]
    if query in given:
        qi = m.value_index(query, given[query])
        if slice_vals[qi] <= 0:
            raise UsageError(f"evidence {dict(given)!r} has probability zero")
        out = np.zeros_like(slice_vals)
        out[qi] = 1.0
        return out
    total = slice_vals.sum()
    if total <= 0:
        raise UsageError(f"evidence {dict(given)!r} has probability zero")
    return slice_vals / total


def interventional_marginal(
    m: DiscreteCgm, target: str, i: Intervention | Mapping, limit: int = DEFAULT_STATE_LIMIT
) -> np.ndarray:
    """p(target | do(i)) over the target domain, by the truncated factorization."""
    do = i.assignments if isinstance(i, Intervention) else i
    return _eliminate(m, [target], do, limit)


def adjustment_formula(
    m: DiscreteCgm,
    t: str,
    y: str,
    z: Iterable[str],
    limit: int = DEFAULT_STATE_LIMIT,
) -> dict:
    """Sum over z of p(z) p(y | t, z), exactly, for each treatment value.

    Raises OverlapError (with the offending stratum) when a positive-mass
    z stratum never receives some treatment value.
    """
    z = sorted(set(z))
    if t == y:
        raise UsageError("treatment and outcome must differ")
    if t in z or y in z:
        raise UsageError("adjustment set must exclude treatment and outcome")
    marg = _eliminate(m, [t] + z + [y], {}, limit)  # axes: t, *z, y
    pz = marg.sum(axis=(0, -1))  # over z axes
    positive = (pz > 0)[..., None]
    out = {}
    for ti, tval in enumerate(m.domain(t)):
        tyz = marg[ti]  # axes: *z, y
        ptz = tyz.sum(axis=-1, keepdims=True)
        lacking = positive & (ptz <= 0)
        if lacking.any():
            config = np.argwhere(lacking)[0]
            stratum = {var: m.domain(var)[k] for var, k in zip(z, config)}
            where = f" in stratum {stratum!r}" if z else ""
            raise OverlapError(
                f"no mass for {t}={tval!r}{where}",
                stratum={"treatment_value": tval, "stratum": stratum},
            )
        cond = np.divide(tyz, ptz, out=np.zeros_like(tyz), where=positive)
        out[tval] = np.tensordot(pz, cond, axes=len(z))
    return out


def front_door_formula(
    m: DiscreteCgm, t: str, mdtr: str, y: str, limit: int = DEFAULT_STATE_LIMIT
) -> dict:
    """Mediator-based identification from the (t, mediator, y) margin only.

    Requires the mediator shape: every directed t->y path passes through
    the mediator, the mediator's only parent is t, and p(t, mediator) is
    strictly positive.
    """
    _check_front_door_shape(m.dag, t, mdtr, y)
    marg = _eliminate(m, [t, mdtr, y], {}, limit)  # axes: t, m, y
    ptm = marg.sum(axis=2)
    if (ptm <= 0).any():
        bad = np.argwhere(ptm <= 0)[0]
        raise OverlapError(
            f"p({t}, {mdtr}) = 0 at ({m.domain(t)[bad[0]]!r}, {m.domain(mdtr)[bad[1]]!r})",
            stratum={
                t: m.domain(t)[bad[0]],
                mdtr: m.domain(mdtr)[bad[1]],
            },
        )
    pt = ptm.sum(axis=1)
    p_m_given_t = ptm / pt[:, None]
    p_y_given_mt = marg / ptm[:, :, None]
    # inner sum over t': p(t') p(y | m, t')
    inner = np.einsum("t,tmy->my", pt, p_y_given_mt)
    out = {}
    for ti, tval in enumerate(m.domain(t)):
        out[tval] = np.einsum("m,my->y", p_m_given_t[ti], inner)
    return out


def _check_front_door_shape(g: Dag, t: str, mdtr: str, y: str) -> None:
    ti, mi, yi = g.index(t), g.index(mdtr), g.index(y)
    if len({ti, mi, yi}) != 3:
        raise UsageError("treatment, mediator, outcome must be distinct")
    if set(g.parents(mi)) != {ti}:
        raise PreconditionError(
            f"mediator {mdtr!r} must have exactly the treatment as parent"
        )
    # every directed t->y path passes through the mediator: cutting t->M,
    # the mediator's only in-edge, must leave y out of t's descendants
    if g.remove_edges([(ti, mi)]).descendants_mask(ti) >> yi & 1:
        raise PreconditionError(
            f"directed path from {t!r} to {y!r} avoids the mediator {mdtr!r}"
        )


def cmi(
    m: DiscreteCgm,
    a: str,
    b: str,
    z: Iterable[str] = (),
    limit: int = DEFAULT_STATE_LIMIT,
) -> float:
    """Exact conditional mutual information I(a; b | z) in nats (>= 0)."""
    z = sorted(set(z))
    if a in z or b in z:
        raise UsageError("conditioning set must exclude the tested variables")
    if a == b:
        # I(A; A | Z) is the conditional entropy H(A | Z)
        paz = _eliminate(m, [a] + z, {}, limit)
        pz = paz.sum(axis=0) if z else paz.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(paz > 0, paz / pz, 1.0)
        val = -float(np.sum(paz * np.log(ratio), where=paz > 0))
        return max(val, 0.0)
    pabz = _eliminate(m, [a, b] + z, {}, limit)
    paz = pabz.sum(axis=1)
    pbz = pabz.sum(axis=0)
    pz = pabz.sum(axis=(0, 1)) if z else np.asarray(pabz.sum())
    num = pabz * pz[None, None, ...] if z else pabz * pz
    den = paz[:, None, ...] * pbz[None, :, ...]
    mask = pabz > 0
    val = float(np.sum(pabz[mask] * np.log(num[mask] / den[mask])))
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# Builders


def random_cgm(
    dag: Dag,
    rng: np.random.Generator,
    domains: Mapping[str, Sequence] | None = None,
    concentration: float = 1.0,
) -> DiscreteCgm:
    """Random CPTs (Dirichlet rows) on a given graph; binary by default."""
    doms = {
        v: tuple(domains[v]) if domains and v in domains else (0, 1)
        for v in dag.nodes
    }
    cpts = {}
    for v in dag.nodes:
        parent_names = tuple(dag.nodes[p] for p in dag.parents(v))
        sizes = tuple(len(doms[p]) for p in parent_names)
        k = len(doms[v])
        rows = rng.dirichlet(np.full(k, concentration), size=sizes or (1,))
        values = rows.reshape((*sizes, k)) if sizes else rows[0]
        cpts[v] = Cpt(child=v, parents=parent_names, values=values)
    return DiscreteCgm(dag=dag, domains=doms, cpts=cpts)


def cgm_from_scm(m: Scm) -> DiscreteCgm:
    """Exact CPTs for a discrete SCM (tabular/constant mechanisms, finite noise).

    In topological order, each variable's mechanism is evaluated at every
    parent configuration and noise value; the outputs give its support,
    and their noise probabilities accumulate into p(x | parents).
    """
    g = induced_graph(m)
    support: dict[str, tuple] = {}
    cpts = {}
    for idx in topological_order(g):
        name = m.variables[idx]
        expr = m.mechanisms[name].expr
        spec = m.noises[name]
        if not spec.enumerable():
            raise UsageError(f"{name!r}: noise is not finitely supported")
        pairs = (
            [(spec.point, 1.0)]
            if isinstance(spec, DiracNoise)
            else list(zip(spec.values, spec.probs))
        )
        parent_names = tuple(m.variables[p] for p in g.parents(idx))
        parent_doms = [support[p] for p in parent_names]
        outcomes = {}  # parent value indices -> [(output, probability)]
        for config in itertools.product(*(range(len(d)) for d in parent_doms)):
            pa = {p: dom[i] for p, dom, i in zip(parent_names, parent_doms, config)}
            outcomes[config] = [(_eval_scalar(expr, pa, u), prob) for u, prob in pairs]
        support[name] = tuple(sorted({x for outs in outcomes.values() for x, _ in outs}))
        out_index = {x: i for i, x in enumerate(support[name])}
        arr = np.zeros((*map(len, parent_doms), len(support[name])))
        for config, outs in outcomes.items():
            for x, prob in outs:
                arr[config + (out_index[x],)] += prob
        cpts[name] = Cpt(child=name, parents=parent_names, values=arr)
    return DiscreteCgm(dag=g, domains=support, cpts=cpts)


def sample_cgm(m: DiscreteCgm, n: int, seed: int) -> Dataset:
    """Ancestral sampling from the CPTs; one stream per variable."""
    streams = _variable_streams(m.dag.nodes, seed)
    idx: dict[str, np.ndarray] = {}
    for i in topological_order(m.dag):
        name = m.dag.nodes[i]
        cpt = m.cpts[name]
        k = len(m.domains[name])
        u = streams[name].random(n)
        if cpt.parents:
            parent_idx = tuple(idx[p] for p in cpt.parents)
            probs = cpt.values[parent_idx]  # (n, k)
        else:
            probs = np.broadcast_to(cpt.values, (n, k))
        cum = np.cumsum(probs, axis=1)
        idx[name] = (u[:, None] > cum).sum(axis=1).clip(0, k - 1)
    cols = {}
    for name in m.dag.nodes:
        dom = np.asarray(m.domains[name], dtype=float)
        cols[name] = dom[idx[name]]
    return Dataset.from_columns(cols)


# ---------------------------------------------------------------------------
# JSON serialization


def cgm_to_json(m: DiscreteCgm) -> str:
    variables = {}
    for name in m.dag.nodes:
        cpt = m.cpts[name]
        parent_doms = [m.domains[p] for p in cpt.parents]
        rows = {}
        sizes = [len(d) for d in parent_doms]
        for config in itertools.product(*(range(s) for s in sizes)):
            key = ",".join(str(parent_doms[k][i]) for k, i in enumerate(config))
            rows[key] = [float(v) for v in cpt.values[config]]
        variables[name] = {"domain": list(m.domains[name]), "cpt": rows}
    payload = {
        "nodes": list(m.dag.nodes),
        "edges": sorted(
            [m.dag.nodes[i], m.dag.nodes[j]] for i, j in m.dag.edges
        ),
        "variables": variables,
    }
    return json.dumps(payload, sort_keys=True)


def cgm_from_json(text: str) -> DiscreteCgm:
    try:
        payload = json.loads(text)
        dag = Dag(payload["nodes"], [tuple(e) for e in payload.get("edges", [])])
        domains = {}
        cpts = {}
        for name in dag.nodes:
            entry = payload["variables"][name]
            domains[name] = tuple(entry["domain"])
        for name in dag.nodes:
            entry = payload["variables"][name]
            parent_names = tuple(dag.nodes[p] for p in dag.parents(name))
            parent_doms = [domains[p] for p in parent_names]
            rows = {}
            for key, dist in entry["cpt"].items():
                parts = tuple(key.split(",")) if key else ()
                config = tuple(
                    _coerce(parts[k], parent_doms[k]) for k in range(len(parent_names))
                )
                rows[config] = [float(v) for v in dist]
            cpts[name] = Cpt.from_rows(
                name, parent_names, parent_doms, domains[name], rows
            )
    except (
        json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError, RecursionError
    ) as exc:
        raise UsageError(f"bad CGM JSON: {exc}") from exc
    return DiscreteCgm(dag=dag, domains=domains, cpts=cpts)


def _coerce(text: str, domain: Sequence):
    for v in domain:
        if str(v) == text:
            return v
    raise UsageError(f"CPT row key part {text!r} not in domain {domain}")
