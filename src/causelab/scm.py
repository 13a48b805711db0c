"""Structural causal models: mechanisms plus exogenous noise.

Mechanisms are expression trees (serializable, see the grammar in the
README) rather than opaque callables. Sampling draws one independent
noise stream per variable from a counter-based generator, so the same
seed gives the same draws per variable, whatever is intervened on.

Counterfactuals follow the abduction / action / prediction recipe.
Abduction is exact and restricted to mechanism classes where it can be:
additive or otherwise invertible in the noise (point posterior), or
finite noise support (exact Bayes restriction). Anything else raises
NonAbducibleError.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    InconsistentEvidenceError,
    NonAbducibleError,
    UsageError,
)
from .graph import Dag, topological_order

_ABDUCTION_TOL = 1e-9


# ---------------------------------------------------------------------------
# Expression trees


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class NoiseRef(Expr):
    """The owning variable's own exogenous noise."""


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # '+', '-', '*', 'pow'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'tanh', 'cube', 'sign'
    arg: Expr


@dataclass(frozen=True)
class IndicatorGe(Expr):
    arg: Expr
    threshold: float


@dataclass(frozen=True)
class Table(Expr):
    """Total lookup over finite input domains; values flattened C-order."""

    inputs: tuple[Expr, ...]
    domains: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]

    def __post_init__(self):
        sizes = [len(d) for d in self.domains]
        if len(self.inputs) != len(self.domains):
            raise UsageError("table inputs and domains differ in length")
        if math.prod(sizes) != len(self.values):
            raise UsageError(
                f"table has {len(self.values)} values, expected {math.prod(sizes)}"
            )


def _expr_refs(expr: Expr) -> tuple[set[str], bool]:
    """(referenced parent names, whether the own noise appears)."""
    names: set[str] = set()
    uses_noise = False
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            names.add(e.name)
        elif isinstance(e, NoiseRef):
            uses_noise = True
        elif isinstance(e, BinOp):
            stack += [e.left, e.right]
        elif isinstance(e, Unary):
            stack.append(e.arg)
        elif isinstance(e, IndicatorGe):
            stack.append(e.arg)
        elif isinstance(e, Table):
            stack += list(e.inputs)
    return names, uses_noise


def _eval(expr, values, noise):
    """Vectorized evaluation; `values` maps parent names to arrays."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return values[expr.name]
    if isinstance(expr, NoiseRef):
        return noise
    if isinstance(expr, BinOp):
        left = _eval(expr.left, values, noise)
        right = _eval(expr.right, values, noise)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "pow":
            return left ** right
        raise UsageError(f"unknown operator {expr.op!r}")
    if isinstance(expr, Unary):
        arg = _eval(expr.arg, values, noise)
        if expr.op == "tanh":
            return np.tanh(arg)
        if expr.op == "cube":
            return arg * arg * arg
        if expr.op == "sign":
            return np.sign(arg)
        raise UsageError(f"unknown unary {expr.op!r}")
    if isinstance(expr, IndicatorGe):
        arg = _eval(expr.arg, values, noise)
        return (np.asarray(arg) >= expr.threshold).astype(float)
    if isinstance(expr, Table):
        cols = np.broadcast_arrays(
            *(
                np.atleast_1d(np.asarray(_eval(e, values, noise), dtype=float))
                for e in expr.inputs
            )
        )
        sizes = tuple(len(d) for d in expr.domains)
        idx = []
        for col, dom in zip(cols, expr.domains):
            dom_arr = np.asarray(dom, dtype=float)
            hits = col[:, None] == dom_arr[None, :]
            if not hits.any(axis=1).all():
                bad = col[~hits.any(axis=1)][0]
                raise UsageError(f"value {bad!r} outside declared table domain {dom}")
            idx.append(hits.argmax(axis=1))
        flat = np.ravel_multi_index(tuple(idx), sizes)
        return np.asarray(expr.values, dtype=float)[flat]
    raise UsageError(f"unknown expression node {type(expr).__name__}")


def is_additive_noise(expr: Expr) -> bool:
    """True iff the tree has the shape g(parents) + noise (either order)."""
    if isinstance(expr, NoiseRef):
        return True
    if isinstance(expr, BinOp) and expr.op == "+":
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(side, NoiseRef) and not _expr_refs(other)[1]:
                return True
            if (
                isinstance(side, BinOp)
                and side.op == "+"
                and is_additive_noise(side)
                and not _expr_refs(other)[1]
            ):
                return True
    return False


# ---------------------------------------------------------------------------
# Noise specifications


class NoiseSpec:
    __slots__ = ()

    def enumerable(self) -> bool:
        return False


def _require_finite(*params: float) -> None:
    if not all(map(math.isfinite, params)):
        raise UsageError(f"noise parameters must be finite, got {list(params)}")


@dataclass(frozen=True)
class FiniteNoise(NoiseSpec):
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise UsageError("finite noise needs aligned nonempty values/probs")
        _require_finite(*self.values, *self.probs)
        if any(p < 0 for p in self.probs):
            raise UsageError("negative probability")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise UsageError(f"probabilities sum to {sum(self.probs)}, not 1")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(self.values), size=n, p=np.asarray(self.probs))
        return np.asarray(self.values, dtype=float)[idx]

    def enumerable(self) -> bool:
        return True


@dataclass(frozen=True)
class GaussianNoise(NoiseSpec):
    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        _require_finite(self.mean, self.var)
        if self.var < 0:
            raise UsageError("variance must be >= 0")

    def sample(self, rng, n):
        return self.mean + math.sqrt(self.var) * rng.standard_normal(n)


@dataclass(frozen=True)
class UniformNoise(NoiseSpec):
    lo: float
    hi: float

    def __post_init__(self):
        _require_finite(self.lo, self.hi)
        if not self.lo < self.hi:
            raise UsageError("uniform noise needs lo < hi")

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=n)


@dataclass(frozen=True)
class DiracNoise(NoiseSpec):
    point: float

    def __post_init__(self):
        _require_finite(self.point)

    def sample(self, rng, n):
        return np.full(n, float(self.point))

    def enumerable(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# The model


@dataclass(frozen=True)
class Mechanism:
    parents: tuple[str, ...]
    expr: Expr


@dataclass(frozen=True, eq=False)
class Scm:
    variables: tuple[str, ...]
    mechanisms: Mapping[str, Mechanism]
    noises: Mapping[str, NoiseSpec]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = set(self.variables)
        if len(names) != len(self.variables):
            raise UsageError("duplicate variable names")
        if set(self.mechanisms) != names or set(self.noises) != names:
            raise UsageError("mechanisms/noises must cover exactly the variables")
        for name, mech in self.mechanisms.items():
            refs, _ = _expr_refs(mech.expr)
            if not refs <= set(mech.parents):
                raise UsageError(
                    f"{name!r}: expression references non-parents {refs - set(mech.parents)}"
                )
            if name in mech.parents:
                raise UsageError(f"{name!r} cannot be its own parent")
        induced_graph(self)  # raises on cycles

    def mechanism(self, name: str) -> Mechanism:
        if name not in self.mechanisms:
            raise UsageError(f"unknown variable {name!r}")
        return self.mechanisms[name]


@dataclass(frozen=True, eq=False)
class Intervention:
    """Atomic do-interventions: variable name -> constant value."""

    assignments: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "assignments", dict(self.assignments))
        if not self.assignments:
            raise UsageError("empty intervention")


def induced_graph(m: Scm) -> Dag:
    edges = [
        (p, name) for name in m.variables for p in m.mechanisms[name].parents
    ]
    return Dag(m.variables, edges)


def _validate_intervention(m: Scm, i: Intervention) -> None:
    for name, value in i.assignments.items():
        mech = m.mechanism(name)
        if isinstance(mech.expr, Table):
            outputs = set(mech.expr.values)
            if float(value) not in outputs:
                raise UsageError(
                    f"do({name}:={value}) outside the variable's value set {sorted(outputs)}"
                )


def intervene(m: Scm, i: Intervention) -> Scm:
    """Graph surgery: targeted mechanisms become parentless constants."""
    _validate_intervention(m, i)
    mechanisms = dict(m.mechanisms)
    for name, value in i.assignments.items():
        mechanisms[name] = Mechanism(parents=(), expr=Const(float(value)))
    return Scm(m.variables, mechanisms, dict(m.noises))


def replace_noise(m: Scm, var: str, spec: NoiseSpec) -> Scm:
    """Soft intervention: swap one variable's noise distribution."""
    m.mechanism(var)
    noises = dict(m.noises)
    noises[var] = spec
    return Scm(m.variables, dict(m.mechanisms), noises)


def _variable_streams(names: Sequence[str], seed: int) -> dict[str, np.random.Generator]:
    """One Philox stream per name: child i of SeedSequence(seed) for name i."""
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.Generator(np.random.Philox(c)) for name, c in zip(names, children)}


def draw_noise(m: Scm, n: int, seed: int) -> dict[str, np.ndarray]:
    """n draws of each variable's noise from that variable's stream.

    A variable's stream depends only on its position, never on which
    mechanisms get evaluated, so the same seed gives the same draws per
    variable, whatever is intervened on.
    """
    streams = _variable_streams(m.variables, seed)
    return {name: m.noises[name].sample(streams[name], n) for name in m.variables}


def _evaluate(m: Scm, noise: Mapping[str, np.ndarray], n: int) -> dict[str, np.ndarray]:
    """Each variable's n values: the assignments evaluated once in causal order."""
    values: dict[str, np.ndarray] = {}
    # a non-finite value is reported by the caller's check, not as a warning
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for idx in topological_order(induced_graph(m)):
            name = m.variables[idx]
            out = _eval(m.mechanisms[name].expr, values, noise[name])
            values[name] = np.broadcast_to(np.asarray(out, dtype=float), (n,)).copy()
    return {name: values[name] for name in m.variables}


def sample(m: Scm, n: int, seed: int) -> Dataset:
    """Ancestral sampling: draw all noise, evaluate in topological order."""
    if n < 0:
        raise UsageError("n must be >= 0")
    return Dataset.from_columns(_evaluate(m, draw_noise(m, n, seed), n))


def evaluate_with_noise(m: Scm, noise_row: Mapping[str, float]) -> dict[str, float]:
    """Deterministic single-row evaluation under fully specified noise."""
    missing = set(m.variables) - set(noise_row)
    if missing:
        raise UsageError(f"noise row missing variables {sorted(missing)}")
    noise = {name: np.asarray([float(noise_row[name])]) for name in m.variables}
    return {name: float(col[0]) for name, col in _evaluate(m, noise, 1).items()}


@dataclass(frozen=True)
class MonteCarloMean:
    value: float
    stderr: float | None  # None for a single draw, which has no spread
    n: int
    seed: int


def interventional_mean(
    m: Scm, i: Intervention, target: str, n: int, seed: int
) -> MonteCarloMean:
    """Monte-Carlo mean of target after the intervention, with its s.e."""
    if n < 1:
        raise UsageError("n must be >= 1")
    if target not in m.variables:
        raise UsageError(f"unknown variable {target!r}")
    data = sample(intervene(m, i), n, seed)
    col = data.column(target)
    stderr = float(col.std(ddof=1) / math.sqrt(n)) if n > 1 else None
    return MonteCarloMean(value=float(col.mean()), stderr=stderr, n=n, seed=seed)


# ---------------------------------------------------------------------------
# Counterfactuals


class _NoiseIgnored:
    """Marker: mechanism value does not depend on the noise."""


_IGNORED = _NoiseIgnored()


def _eval_scalar(expr: Expr, pa: Mapping[str, float], u: float | None = None) -> float:
    """The mechanism's value at one parent configuration and noise value u."""
    arrays = {k: np.asarray([v], dtype=float) for k, v in pa.items()}
    noise = None if u is None else np.asarray([float(u)])
    return float(np.broadcast_to(np.asarray(_eval(expr, arrays, noise)), (1,))[0])


def _affine_in_noise(expr: Expr, pa: Mapping[str, float]) -> tuple[float, float] | None:
    """Return (a, b) with value = a + b*U, or None if not affine in U."""
    if isinstance(expr, Const):
        return float(expr.value), 0.0
    if isinstance(expr, Var):
        return float(pa[expr.name]), 0.0
    if isinstance(expr, NoiseRef):
        return 0.0, 1.0
    if isinstance(expr, BinOp):
        lhs = _affine_in_noise(expr.left, pa)
        rhs = _affine_in_noise(expr.right, pa)
        if lhs is None or rhs is None:
            return None
        la, lb = lhs
        ra, rb = rhs
        if expr.op == "+":
            return la + ra, lb + rb
        if expr.op == "-":
            return la - ra, lb - rb
        if expr.op == "*":
            if lb == 0.0:
                return la * ra, la * rb
            if rb == 0.0:
                return la * ra, lb * ra
            return None
        if expr.op == "pow":
            if lb == 0.0 and rb == 0.0:
                return la ** ra, 0.0
            if rb == 0.0 and ra == 1.0:
                return la, lb
            return None
    if isinstance(expr, (Unary, IndicatorGe, Table)):
        if not _expr_refs(expr)[1]:
            return _eval_scalar(expr, pa), 0.0
        return None
    return None


def _invert_in_noise(expr: Expr, pa: Mapping[str, float], x: float):
    """Solve expr(pa, U) = x for U; float, _IGNORED, or None (not invertible)."""
    affine = _affine_in_noise(expr, pa)
    if affine is not None:
        a, b = affine
        if b == 0.0:
            if abs(a - x) > _ABDUCTION_TOL * max(1.0, abs(x)):
                raise InconsistentEvidenceError(
                    f"evidence {x} impossible for noise-free value {a}"
                )
            return _IGNORED
        return (x - a) / b
    if isinstance(expr, BinOp):
        l_noise = _expr_refs(expr.left)[1]
        r_noise = _expr_refs(expr.right)[1]
        if l_noise and r_noise:
            return None
        carrier, other = (
            (expr.left, expr.right) if l_noise else (expr.right, expr.left)
        )
        c = _eval_scalar(other, pa)
        if expr.op == "+":
            return _invert_in_noise(carrier, pa, x - c)
        if expr.op == "-":
            target = x + c if l_noise else c - x
            return _invert_in_noise(carrier, pa, target)
        if expr.op == "*":
            if c == 0.0:
                if abs(x) > _ABDUCTION_TOL:
                    raise InconsistentEvidenceError(
                        f"evidence {x} impossible: mechanism multiplies noise term by 0"
                    )
                return _IGNORED
            return _invert_in_noise(carrier, pa, x / c)
        if expr.op == "pow":
            if not l_noise and r_noise:
                return None
            if c == 1.0:
                return _invert_in_noise(carrier, pa, x)
            return None
    if isinstance(expr, Unary):
        if expr.op == "tanh":
            if not -1.0 < x < 1.0:
                raise InconsistentEvidenceError(f"evidence {x} outside tanh range")
            return _invert_in_noise(expr.arg, pa, math.atanh(x))
        if expr.op == "cube":
            return _invert_in_noise(expr.arg, pa, math.copysign(abs(x) ** (1.0 / 3.0), x))
        return None
    return None


def _abduct_variable(
    mech: Mechanism, spec: NoiseSpec, pa: Mapping[str, float], observed: float
) -> list[tuple[float, float]]:
    """Posterior over one noise as (value, weight) pairs summing to 1."""
    if isinstance(spec, DiracNoise):
        got = _eval_scalar(mech.expr, pa, spec.point)
        if abs(got - observed) > _ABDUCTION_TOL * max(1.0, abs(observed)):
            raise InconsistentEvidenceError(
                f"evidence {observed} impossible under point-mass noise (implies {got})"
            )
        return [(float(spec.point), 1.0)]
    if isinstance(spec, FiniteNoise):
        matches = [
            (float(u), p)
            for u, p in zip(spec.values, spec.probs)
            if p > 0
            and abs(_eval_scalar(mech.expr, pa, u) - observed)
            <= _ABDUCTION_TOL * max(1.0, abs(observed))
        ]
        total = sum(p for _, p in matches)
        if total <= 0:
            raise InconsistentEvidenceError(
                f"evidence {observed} has zero probability under the finite noise"
            )
        return [(u, p / total) for u, p in matches]
    u = _invert_in_noise(mech.expr, pa, observed)
    if u is None:
        raise NonAbducibleError(
            "mechanism is neither additive, invertible in its noise, "
            "nor finitely supported"
        )
    if u is _IGNORED:
        return [(0.0, 1.0)]
    if isinstance(spec, UniformNoise) and not spec.lo <= u <= spec.hi:
        raise InconsistentEvidenceError(
            f"abduced noise {u} outside uniform support [{spec.lo}, {spec.hi}]"
        )
    return [(float(u), 1.0)]


@dataclass(frozen=True)
class CounterfactualDistribution:
    """Finite distribution over the counterfactual target value."""

    values: tuple[float, ...]
    weights: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(sum(v * w for v, w in zip(self.values, self.weights)))

    @property
    def is_point_mass(self) -> bool:
        return len(self.values) == 1

    @property
    def point(self) -> float:
        if not self.is_point_mass:
            raise UsageError("distribution is not degenerate")
        return self.values[0]


def counterfactual(
    m: Scm, evidence: Mapping[str, float], i: Intervention, target: str
) -> CounterfactualDistribution:
    """Abduction, action, prediction, with exact per-variable posteriors.

    Evidence must cover every variable, which makes each noise posterior
    a single-variable update (the noises stay independent given a full
    observation row).
    """
    if set(evidence) != set(m.variables):
        raise UsageError("evidence must assign a value to every variable")
    if target not in m.variables:
        raise UsageError(f"unknown variable {target!r}")
    posteriors: dict[str, list[tuple[float, float]]] = {}
    for name in m.variables:
        mech = m.mechanisms[name]
        pa = {p: float(evidence[p]) for p in mech.parents}
        posteriors[name] = _abduct_variable(
            mech, m.noises[name], pa, float(evidence[name])
        )
    modified = intervene(m, i)
    stochastic = [name for name in m.variables if len(posteriors[name]) > 1]
    outcome: dict[float, float] = {}
    for combo in itertools.product(*(posteriors[name] for name in stochastic)):
        weight = math.prod(w for _, w in combo)
        noise_row = {
            name: posteriors[name][0][0] for name in m.variables if name not in stochastic
        }
        noise_row.update({name: u for name, (u, _) in zip(stochastic, combo)})
        value = evaluate_with_noise(modified, noise_row)[target]
        outcome[value] = outcome.get(value, 0.0) + weight
    items = sorted(outcome.items())
    return CounterfactualDistribution(
        values=tuple(v for v, _ in items), weights=tuple(w for _, w in items)
    )


def ite(
    m: Scm, noise_row: Mapping[str, float], t_var: str, target: str
) -> float:
    """Unit-level effect Y(1) - Y(0) under fixed noise, binary treatment."""
    mech = m.mechanism(t_var)
    if isinstance(mech.expr, Table) and not set(mech.expr.values) <= {0.0, 1.0}:
        raise UsageError(f"treatment {t_var!r} is not binary-valued")
    if target not in m.variables:
        raise UsageError(f"unknown variable {target!r}")
    y1 = evaluate_with_noise(intervene(m, Intervention({t_var: 1.0})), noise_row)[target]
    y0 = evaluate_with_noise(intervene(m, Intervention({t_var: 0.0})), noise_row)[target]
    return y1 - y0


# ---------------------------------------------------------------------------
# JSON serialization

_UNARY_OPS = ("tanh", "cube", "sign")


def _expr_to_obj(expr: Expr):
    if isinstance(expr, Const):
        return _round17(expr.value)
    if isinstance(expr, Var):
        return ["var", expr.name]
    if isinstance(expr, NoiseRef):
        return ["noise"]
    if isinstance(expr, BinOp):
        return [expr.op, _expr_to_obj(expr.left), _expr_to_obj(expr.right)]
    if isinstance(expr, Unary):
        return [expr.op, _expr_to_obj(expr.arg)]
    if isinstance(expr, IndicatorGe):
        return ["ind_ge", _expr_to_obj(expr.arg), _round17(expr.threshold)]
    if isinstance(expr, Table):
        return [
            "table",
            {
                "inputs": [_expr_to_obj(e) for e in expr.inputs],
                "domains": [[_round17(v) for v in d] for d in expr.domains],
                "values": [_round17(v) for v in expr.values],
            },
        ]
    raise UsageError(f"cannot serialize {type(expr).__name__}")


def _round17(x: float) -> float:
    return float(f"{float(x):.17g}")


def _expr_from_obj(obj) -> Expr:
    if isinstance(obj, (int, float)):
        return Const(float(obj))
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"bad expression node: {obj!r}")
    head = obj[0]
    if head == "var":
        return Var(str(obj[1]))
    if head == "noise":
        return NoiseRef()
    if head in ("+", "-", "*", "pow"):
        return BinOp(head, _expr_from_obj(obj[1]), _expr_from_obj(obj[2]))
    if head in _UNARY_OPS:
        return Unary(head, _expr_from_obj(obj[1]))
    if head == "ind_ge":
        return IndicatorGe(_expr_from_obj(obj[1]), float(obj[2]))
    if head == "table":
        spec = obj[1]
        return Table(
            inputs=tuple(_expr_from_obj(e) for e in spec["inputs"]),
            domains=tuple(tuple(float(v) for v in d) for d in spec["domains"]),
            values=tuple(float(v) for v in spec["values"]),
        )
    raise UsageError(f"unknown expression head {head!r}")


def _noise_to_obj(spec: NoiseSpec):
    if isinstance(spec, FiniteNoise):
        return {
            "kind": "finite",
            "values": [_round17(v) for v in spec.values],
            "probs": [_round17(p) for p in spec.probs],
        }
    if isinstance(spec, GaussianNoise):
        return {"kind": "gaussian", "mean": _round17(spec.mean), "var": _round17(spec.var)}
    if isinstance(spec, UniformNoise):
        return {"kind": "uniform", "lo": _round17(spec.lo), "hi": _round17(spec.hi)}
    if isinstance(spec, DiracNoise):
        return {"kind": "dirac", "point": _round17(spec.point)}
    raise UsageError(f"cannot serialize noise {type(spec).__name__}")


def _noise_from_obj(obj) -> NoiseSpec:
    kind = obj.get("kind")
    if kind == "finite":
        return FiniteNoise(tuple(map(float, obj["values"])), tuple(map(float, obj["probs"])))
    if kind == "gaussian":
        return GaussianNoise(float(obj["mean"]), float(obj["var"]))
    if kind == "uniform":
        return UniformNoise(float(obj["lo"]), float(obj["hi"]))
    if kind == "dirac":
        return DiracNoise(float(obj["point"]))
    raise UsageError(f"unknown noise kind {kind!r}")


def scm_to_json(m: Scm) -> str:
    payload = {
        "variables": [
            {
                "name": name,
                "parents": list(m.mechanisms[name].parents),
                "expr": _expr_to_obj(m.mechanisms[name].expr),
                "noise": _noise_to_obj(m.noises[name]),
            }
            for name in m.variables
        ]
    }
    return json.dumps(payload, sort_keys=True)


def scm_from_json(text: str) -> Scm:
    try:
        payload = json.loads(text)
        entries = payload["variables"]
        variables = tuple(e["name"] for e in entries)
        mechanisms = {
            e["name"]: Mechanism(tuple(e["parents"]), _expr_from_obj(e["expr"]))
            for e in entries
        }
        noises = {e["name"]: _noise_from_obj(e["noise"]) for e in entries}
    except (
        json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError, AttributeError,
        RecursionError,
    ) as exc:
        raise UsageError(f"bad SCM JSON: {exc}") from exc
    return Scm(variables, mechanisms, noises)
