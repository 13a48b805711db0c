"""Exact inference in discrete causal graphical models.

Every query is one exact factor contraction (variable elimination by
np.einsum on a fixed pairwise path) over the conditionals of the queried
variables' ancestors, with point masses at intervened variables; the
state space of that ancestral set is capped. A `Factor` contracts on
demand, so only a full-scope factor's `values` builds the full joint.
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


@dataclass(frozen=True, eq=False)
class Factor:
    """p(scope | do(do)) of a model, contracted on demand: ``values`` is one
    contraction over the ancestors of scope and do, run on first use and
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
        arr = np.asarray(_contract(self.model, self.scope, self.do, self.limit))
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


# np.einsum names each axis by a letter, so one contraction spans at most
# 52 variables
_MAX_SUBSCRIPTS = 52


def _ancestral_set(m: DiscreteCgm, keep: Sequence[str], do: Mapping, limit: int):
    """The ancestors of keep and do in node order, and the value index of
    each do variable, after every check their contraction makes up front."""
    g = m.dag
    points = {v: m.value_index(v, value) for v, value in do.items()}
    mask = 0
    for v in (*keep, *points):
        mask |= g._ancestor_masks[g.index(v)]
    names = [g.nodes[i] for i in _bits(mask)]
    size = math.prod(len(m.domains[v]) for v in names)
    if size > limit:
        raise UsageError(f"state space {size} exceeds limit {limit}")
    if len(names) > _MAX_SUBSCRIPTS:
        raise UsageError(
            f"{len(names)} ancestral variables exceed {_MAX_SUBSCRIPTS} einsum subscripts"
        )
    return names, points


def _contract(
    m: DiscreteCgm, keep: Sequence[str], do: Mapping, limit: int
) -> np.ndarray:
    """Sum over all but ``keep`` of the product of the conditionals, with a
    point mass in place of the conditional of every ``do`` variable; the
    result's axes follow ``keep``.

    Only the ancestors of keep and do enter, since every other conditional
    sums to 1. Each intermediate of the fixed pairwise path spans a subset
    of them, so ``limit`` bounds their joint state space up front.
    """
    names, points = _ancestral_set(m, keep, do, limit)
    if not names:
        return np.ones(())
    label = {v: k for k, v in enumerate(names)}
    operands = []
    for v in names:
        if v in points:
            delta = np.zeros(len(m.domains[v]))
            delta[points[v]] = 1.0
            operands += [delta, [label[v]]]
        else:
            cpt = m.cpts[v]
            operands += [cpt.values, [label[u] for u in (*cpt.parents, v)]]
    # numpy returns a lone operand unsummed under an empty path
    path = ["einsum_path"] + ([(0, 1)] * (len(names) - 1) or [(0,)])
    return np.einsum(*operands, [label[v] for v in keep], optimize=path)


def joint(m: DiscreteCgm, limit: int = DEFAULT_STATE_LIMIT) -> Factor:
    """Exact product of the per-variable conditionals, over all variables."""
    return truncated_factorization(m, {}, limit)


def truncated_factorization(
    m: DiscreteCgm, i: Intervention | Mapping, limit: int = DEFAULT_STATE_LIMIT
) -> Factor:
    """Interventional joint: deltas at targets times untouched conditionals,
    checked here over all variables and contracted on demand."""
    do = dict(i.assignments if isinstance(i, Intervention) else i)
    _ancestral_set(m, m.dag.nodes, do, limit)
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
    slice_vals = _contract(m, keep, {}, limit)[tuple(index)]
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
    return _contract(m, [target], do, limit)


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
    marg = _contract(m, [t] + z + [y], {}, limit)  # axes: t, *z, y
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
    marg = _contract(m, [t, mdtr, y], {}, limit)  # axes: t, m, y
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
        paz = _contract(m, [a] + z, {}, limit)
        pz = paz.sum(axis=0) if z else paz.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(paz > 0, paz / pz, 1.0)
        val = -float(np.sum(paz * np.log(ratio), where=paz > 0))
        return max(val, 0.0)
    pabz = _contract(m, [a, b] + z, {}, limit)
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
