"""Checks of every job's output against the benchmark's own computations.

Each ``check_*`` function returns a list of problems; an empty list
means the output is correct. Nothing here imports the program: the
references are recomputed with numpy from the inputs in ``inputs.py``,
or are properties the method must have (a permutation p-value is
k/(B+1), conditional mutual information is >= 0).
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import jsonschema
import numpy as np

from inputs import parent_lists

ATE_RTOL = 1e-9
STAT_RTOL = 1e-9
RIDGE_RTOL = 1e-7  # residuals pass through a linear solve first
PROB_ATOL = 1e-12
CMI_ZERO_ATOL = 1e-10
SE_SPAN = 5.0


class JsonError(ValueError):
    pass


def _reject_constant(name):
    raise JsonError(f"non-standard JSON constant {name}")


def strict_json(text: str | bytes):
    """Parse strict JSON: NaN, Infinity and -Infinity are errors."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise JsonError(str(exc)) from None


class Schemas:
    """The schemas shipped with the program, loaded from its source tree."""

    def __init__(self, root: Path):
        self._validators = {
            p.stem: jsonschema.Draft7Validator(json.loads(p.read_text()))
            for p in sorted((root / "src" / "causelab" / "schemas").glob("*.json"))
        }

    def problems(self, name: str, payload) -> list:
        return [f"schema {name}: {e.message}" for e in self._validators[name].iter_errors(payload)]


def parse_output(stdout: bytes, schema: str, schemas: Schemas):
    """(payload, problems) for one CLI job's stdout."""
    try:
        payload = strict_json(stdout)
    except JsonError as exc:
        return None, [f"stdout is not strict JSON: {exc}"]
    return payload, schemas.problems(schema, payload)


def _close(value, ref, rtol, atol=1e-12) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value - ref) <= rtol * abs(ref) + atol)


# ---------------------------------------------------------------------------
# small exact references


def count_dags(n: int) -> int:
    """Robinson's recurrence for labelled DAGs."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum((-1) ** (k + 1) * math.comb(m, k) * 2 ** (k * (m - k)) * a[m - k]
                     for k in range(1, m + 1)))
    return a[n]


def check_count_dags(payload, n: int) -> list:
    return [] if payload.get("count") == count_dags(n) else [f"count-dags {n}: {payload.get('count')}"]


# ---------------------------------------------------------------------------
# estimate


def ate_reference(estimator: str, cols: dict) -> tuple[float, float | None]:
    """(ATE, standard error or None) by plain numpy, per estimator."""
    y, t = cols["Y"], cols["T"]
    if estimator == "2sls":
        ic = cols["I"] - cols["I"].mean()
        return float(ic @ y) / float(ic @ t), None
    if estimator == "rct":
        return float(y[t == 1].mean() - y[t == 0].mean()), None
    if estimator == "regression":
        z = np.column_stack([np.ones(len(y)), cols["Z1"], cols["Z2"]])
        on, off = t == 1, t == 0
        b1 = np.linalg.lstsq(z[on], y[on], rcond=None)[0]
        b0 = np.linalg.lstsq(z[off], y[off], rcond=None)[0]
        ate = 0.5 * float((y[on] - z[on] @ b0).mean() + (z[off] @ b1 - y[off]).mean())
        resid = np.concatenate([y[on] - z[on] @ b1, y[off] - z[off] @ b0])
        return ate, float(resid.std() * math.sqrt(1 / on.sum() + 1 / off.sum()))
    if estimator == "ipw":
        s = np.clip(cols["P"], 0.01, 0.99)
        w1, w0 = t / s, (1 - t) / (1 - s)
        return float((w1 * y).sum() / w1.sum() - (w0 * y).sum() / w0.sum()), None
    raise ValueError(estimator)


def check_estimate(payload, estimator: str, table: dict) -> list:
    ref, own_se = ate_reference(estimator, table["columns"])
    ate = payload.get("ate")
    problems = []
    if not _close(ate, ref, ATE_RTOL):
        return [f"{estimator}: ate {ate!r} != reference {ref!r}"]
    se = payload.get("stderr", own_se)
    if se is None or not se > 0:
        problems.append(f"{estimator}: no usable standard error ({se!r})")
    elif abs(ate - table["effect"]) > SE_SPAN * se:
        problems.append(f"{estimator}: ate {ate} is over {SE_SPAN} SE from {table['effect']}")
    return problems


# ---------------------------------------------------------------------------
# generate


def iv_2sls(i, t, y) -> tuple[float, float]:
    ic = i - i.mean()
    beta = float(ic @ y) / float(ic @ t)
    u = y - beta * t
    u = u - u.mean()
    se = math.sqrt(float(u @ u) / len(y) * float(ic @ ic) / float(ic @ t) ** 2)
    return beta, se


def check_generated(payload, scenario: str, rows: int, csv_path: Path, truth_path: Path) -> list:
    want = {"iv-linear": ["I", "T", "Y"], "anm-nonlinear": ["X", "Y"]}[scenario]
    problems = []
    if payload.get("rows") != rows or payload.get("columns") != want:
        problems.append(f"generate {scenario}: rows/columns {payload.get('rows')} {payload.get('columns')}")
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    if header != want:
        return problems + [f"generate {scenario}: header {header}"]
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (rows, len(want)):
        return problems + [f"generate {scenario}: table shape {table.shape}"]
    cols = dict(zip(want, table.T))
    truth = strict_json(truth_path.read_text())
    if scenario == "iv-linear":
        beta, se = iv_2sls(cols["I"], cols["T"], cols["Y"])
        if abs(beta - truth["true_ate"]) > SE_SPAN * se:
            problems.append(f"iv-linear: own 2SLS {beta} is over {SE_SPAN} SE from {truth['true_ate']}")
    else:
        x, y = cols["X"], cols["Y"]
        if np.abs(x).max() > 1 or np.abs(y - x**3 - x).max() > 0.2 + 1e-9:
            problems.append("anm-nonlinear: rows break Y = X^3 + X + U(-0.2, 0.2)")
    return problems


# ---------------------------------------------------------------------------
# kernel statistics


def _sqdist(a, b):
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return sum(np.subtract.outer(a[:, k], b[:, k]) ** 2 for k in range(a.shape[1]))


def _col(x):
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def median_heuristic(x) -> float:
    d = np.sqrt(_sqdist(x, x))
    upper = d[np.triu_indices(len(x), k=1)]
    positive = upper[upper > 0]
    return float(np.median(positive)) if positive.size else 1.0


def gauss_gram(x, bandwidth):
    return np.exp(-_sqdist(x, x) / (2.0 * bandwidth**2))


def hsic(x, y) -> float:
    x, y = _col(x), _col(y)
    k = gauss_gram(x, median_heuristic(x))
    l = gauss_gram(y, median_heuristic(y))
    kc = k - k.mean(axis=0, keepdims=True) - k.mean(axis=1, keepdims=True) + k.mean()
    return float((kc * l).sum() / len(x) ** 2)


def mmd(x, y) -> tuple[float, float]:
    """(biased, unbiased) squared MMD with the pooled median-heuristic kernel."""
    pool = np.vstack([x, y])
    big = gauss_gram(pool, median_heuristic(pool))
    m, n = len(x), len(y)
    kxx, kyy, kxy = big[:m, :m], big[m:, m:], big[:m, m:]
    biased = kxx.mean() - 2 * kxy.mean() + kyy.mean()
    unbiased = ((kxx.sum() - np.trace(kxx)) / (m * (m - 1))
                + (kyy.sum() - np.trace(kyy)) / (n * (n - 1)) - 2 * kxy.mean())
    return float(max(biased, 0.0)), float(unbiased)


def ridge_residual(z, v, scale=1e-3):
    z = _col(z)
    k = gauss_gram(z, median_heuristic(z))
    alpha = np.linalg.solve(k + scale * len(z) * np.eye(len(z)), v)
    return v - k @ alpha


def pvalue_problems(p, perms: int, must_reject: bool) -> list:
    k = p * (perms + 1) if isinstance(p, (int, float)) else float("nan")
    if not (abs(k - round(k)) < 1e-6 and 1 <= round(k) <= perms + 1):
        return [f"p-value {p!r} is not k/(B+1) with B={perms}"]
    if must_reject and round(k) != 1:
        return [f"p-value {p!r} on strongly dependent data, expected 1/{perms + 1}"]
    return []


def check_hsic(payload, cols: dict, perms: int) -> list:
    ref = hsic(cols["X"], cols["Y"])
    problems = pvalue_problems(payload.get("p_value"), perms, must_reject=True)
    if not _close(payload.get("statistic"), ref, STAT_RTOL):
        problems.append(f"hsic statistic {payload.get('statistic')!r} != {ref!r}")
    return problems


def check_ci(payload, cols: dict, perms: int) -> list:
    ra = ridge_residual(cols["Z"], cols["A"])
    rb = ridge_residual(cols["Z"], cols["B"])
    ref = hsic(ra, rb)
    problems = pvalue_problems(payload.get("p_value"), perms, must_reject=True)
    if not _close(payload.get("statistic"), ref, RIDGE_RTOL):
        problems.append(f"kernel-residual statistic {payload.get('statistic')!r} != {ref!r}")
    if payload.get("reject") is not True:
        problems.append("kernel-residual test did not reject on dependent data")
    return problems


def check_mmd(payload, x, y, perms: int) -> list:
    biased, unbiased = mmd(x, y)
    problems = pvalue_problems(payload.get("p_value"), perms, must_reject=True)
    for key, ref in (("statistic", biased), ("unbiased", unbiased)):
        if not _close(payload.get(key), ref, STAT_RTOL):
            problems.append(f"mmd {key} {payload.get(key)!r} != {ref!r}")
    return problems


def check_anm(payload) -> list:
    d = payload.get("direction")
    return [] if d == "forward" else [f"anm direction {d!r}, data are X -> Y"]


# ---------------------------------------------------------------------------
# PC on data


def fisher_z_p(corr, a: int, b: int, s: list, n: int) -> float:
    idx = [a, b] + list(s)
    prec = np.linalg.inv(corr[np.ix_(idx, idx)])
    r = -prec[0, 1] / math.sqrt(prec[0, 0] * prec[1, 1])
    r = max(min(r, 1.0), -1.0)
    if abs(r) >= 1.0:
        return 0.0
    return math.erfc(math.sqrt(n - len(s) - 3) * abs(math.atanh(r)) / math.sqrt(2.0))


def check_pc(payload, cols: dict, required: set, alpha: float) -> list:
    names = list(cols)
    index = {v: k for k, v in enumerate(names)}
    n = len(cols[names[0]])
    corr = np.corrcoef(np.vstack([cols[v] for v in names]))
    skeleton = {tuple(sorted(e)) for e in payload.get("skeleton", [])}
    problems = [f"pc dropped required edge {e}" for e in sorted(required - skeleton)]
    separated = set()
    for key, sepset in payload.get("separating_sets", {}).items():
        a, b = key.split(",")
        separated.add(tuple(sorted((a, b))))
        p = fisher_z_p(corr, index[a], index[b], [index[v] for v in sepset], n)
        if not p > alpha:
            problems.append(f"pc sepset {key} | {sepset} fails Fisher-z (p={p:.3g})")
    every = {tuple(sorted(e)) for e in itertools.combinations(names, 2)}
    if every - skeleton != separated:
        problems.append("pc: removed edges and separating sets disagree")
    return problems


# ---------------------------------------------------------------------------
# structure-lib


def dsep_reference(parents: list, a: int, b: int, z) -> bool:
    """a _||_ b | z by separation in the moralised ancestral graph."""
    z = set(z)
    anc, stack = {a, b} | z, [a, b, *z]
    while stack:
        for p in parents[stack.pop()]:
            if p not in anc:
                anc.add(p)
                stack.append(p)
    adj = {v: set() for v in anc}
    for v in anc:
        for p in parents[v]:
            adj[v].add(p)
            adj[p].add(v)
        for p, q in itertools.combinations(parents[v], 2):
            adj[p].add(q)
            adj[q].add(p)
    seen, stack = {a}, [a]
    while stack:
        for w in adj[stack.pop()] - z:
            if w == b:
                return False
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def skeleton_and_vstructures(dag) -> tuple[set, set]:
    names = dag["nodes"]
    skel = {tuple(sorted((names[i], names[j]))) for i, j in dag["edges"]}
    vs = set()
    for c, ps in enumerate(parent_lists(dag)):
        for p, q in itertools.combinations(ps, 2):
            if tuple(sorted((names[p], names[q]))) not in skel:
                vs.add((*sorted((names[p], names[q])), names[c]))
    return skel, vs


def check_pc_oracle(result: dict, dag: dict) -> list:
    skel, vs = skeleton_and_vstructures(dag)
    directed = {tuple(e) for e in result["directed"]}
    got_skel = {tuple(sorted(e)) for e in result["directed"] + result["undirected"]}
    got_vs = set()
    for (p, c), (q, c2) in itertools.combinations(sorted(directed), 2):
        if c == c2 and tuple(sorted((p, q))) not in got_skel:
            got_vs.add((*sorted((p, q)), c))
    problems = []
    if got_skel != skel:
        problems.append(f"pc-oracle skeleton differs on {len(skel ^ got_skel)} pairs")
    if got_vs != vs:
        problems.append(f"pc-oracle v-structures differ on {len(vs ^ got_vs)}")
    if (result["directed"], result["undirected"]) != (result["cpdag_of"]["directed"],
                                                       result["cpdag_of"]["undirected"]):
        problems.append("pc-oracle CPDAG != cpdag_of")
    return problems


def check_dsep(answers: list, dags: list, queries: list) -> list:
    if len(answers) != len(queries):
        return [f"dsep: {len(answers)} answers to {len(queries)} queries"]
    parents = [parent_lists(d) for d in dags]
    bad = sum(
        answer is not dsep_reference(parents[g], a, b, z)
        for answer, (g, a, b, z) in zip(answers, queries)
    )
    return [f"dsep: {bad} of {len(queries)} answers wrong"] if bad else []


def do_marginal(cgm: dict, value: int) -> np.ndarray:
    """p(y | do(t = value)) by one einsum over the CPTs."""
    parents = parent_lists(cgm["dag"])
    t, y = cgm["t"], cgm["y"]
    operands = []
    for v, cpt in enumerate(cgm["cpts"]):
        if v == t:
            operands += [np.eye(2)[value], [v]]
        else:
            operands += [np.asarray(cpt), parents[v] + [v]]
    return np.einsum(*operands, [y], optimize="greedy")


def check_cgm(adjust, truncated, cmis, cgm: dict) -> list:
    problems = []
    adjust, truncated = np.asarray(adjust), np.asarray(truncated)
    if np.abs(adjust - truncated).max() > PROB_ATOL:
        problems.append("cgm: adjustment formula != truncated factorization")
    ref = np.stack([do_marginal(cgm, 0), do_marginal(cgm, 1)])
    if np.abs(adjust - ref).max() > PROB_ATOL:
        problems.append("cgm: adjustment formula != einsum over the CPTs")
    parents = parent_lists(cgm["dag"])
    for value, (a, b, z) in zip(cmis, cgm["cmi"]):
        if not (isinstance(value, float) and value >= 0.0 and math.isfinite(value)):
            problems.append(f"cgm: cmi {value!r} is not a finite value >= 0")
        elif dsep_reference(parents, a, b, z) and value > CMI_ZERO_ATOL:
            problems.append(f"cgm: cmi {value!r} of a d-separated triple")
    return problems
