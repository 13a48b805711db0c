"""Seeded inputs for the three workloads, made with numpy alone.

Every input carries the truth it was made from (an effect size, a
dependence that must be detected, a DAG), so the checks in
``checks.py`` never compare against a stored copy of the program's
output. The same seed gives the same inputs.
"""

from __future__ import annotations

import numpy as np

# tabular-cli
TAB_ROWS = 200_000
GEN_SCENARIOS = ("iv-linear", "anm-nonlinear")
ESTIMATORS = ("2sls", "rct", "regression", "ipw")

# citest-cli
HSIC_ROWS, HSIC_PERMS = 1500, 100
CI_ROWS, CI_PERMS = 1000, 100
ANM_ROWS, ANM_PERMS, ANM_ALPHA = 2000, 500, 0.002
MMD_ROWS, MMD_PERMS = 700, 200
PC_ROWS, PC_SIBLINGS, PC_ALPHA = 2000, 8, 0.05

# structure-lib
DAG_SIZES = tuple(range(6, 15))
DAG_INDEGREE = 3
DSEP_QUERIES = 12_000
CGM_SIZES = tuple(range(16, 22))
CGM_INDEGREE = 3
PER_SIZE = 2  # DAGs and CGMs of each size


def write_csv(path, columns: dict) -> None:
    """Header plus rows; %.17g round-trips every float64 exactly."""
    names = list(columns)
    table = np.column_stack([np.asarray(columns[k], dtype=float) for k in names])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(names), comments="")


def _binary(rng, p):
    return (rng.random(np.shape(p)) < p).astype(float)


# ---------------------------------------------------------------------------
# tabular-cli: one CSV per estimator, each with its known effect


def tabular_tables(seed: int, rows: int = TAB_ROWS) -> dict:
    """Estimator -> {"columns", "effect", "args"} for `estimate`."""
    rng = np.random.default_rng([seed, 1])
    out = {}

    effect = rng.uniform(1.0, 3.0)
    inst, hidden = rng.normal(size=(2, rows))
    t = inst + hidden + rng.normal(size=rows)
    y = effect * t + hidden + rng.normal(size=rows)
    out["2sls"] = {
        "columns": {"I": inst, "T": t, "Y": y},
        "effect": effect,
        "args": ["--y", "Y", "--t", "T", "--instrument", "I"],
    }

    effect = rng.uniform(0.5, 1.5)
    t = _binary(rng, np.full(rows, 0.5))
    y = effect * t + rng.normal(size=rows)
    out["rct"] = {"columns": {"Y": y, "T": t}, "effect": effect, "args": ["--y", "Y", "--t", "T"]}

    effect = rng.uniform(0.5, 1.5)
    z1, z2 = rng.normal(size=(2, rows))
    t = _binary(rng, 1.0 / (1.0 + np.exp(-z1)))
    y = effect * t + 1.5 * z1 - z2 + rng.normal(size=rows)
    out["regression"] = {
        "columns": {"Z1": z1, "Z2": z2, "T": t, "Y": y},
        "effect": effect,
        "args": ["--y", "Y", "--t", "T", "--z", "Z1", "Z2"],
    }

    effect = rng.uniform(0.5, 1.5)
    z = rng.normal(size=rows)
    prop = 0.1 + 0.8 / (1.0 + np.exp(-z))
    t = _binary(rng, prop)
    y = effect * t + z + rng.normal(size=rows)
    out["ipw"] = {
        "columns": {"Z": z, "P": prop, "T": t, "Y": y},
        "effect": effect,
        "args": ["--y", "Y", "--t", "T", "--propensity-column", "P"],
    }
    return out


def generate_seed(seed: int) -> int:
    """Seed handed to `generate`; fixed for a run, so rounds must match bytes."""
    return int(np.random.default_rng([seed, 2]).integers(1, 2**31 - 1))


# ---------------------------------------------------------------------------
# citest-cli


def citest_tables(seed: int) -> dict:
    """File stem -> columns, for the five kernel / discovery jobs."""
    rng = np.random.default_rng([seed, 4])
    out = {}
    x = rng.uniform(-1.0, 1.0, HSIC_ROWS)
    out["hsic"] = {"X": x, "Y": np.sin(3.0 * x) + 0.3 * rng.normal(size=HSIC_ROWS)}

    # A and B share the noise E, so they stay dependent given Z
    z, e = rng.normal(size=(2, CI_ROWS))
    out["ci"] = {
        "A": z + e + 0.3 * rng.normal(size=CI_ROWS),
        "B": np.tanh(z) + e + 0.3 * rng.normal(size=CI_ROWS),
        "Z": z,
    }

    # nonlinear additive-noise model with uniform noise: X causes Y
    x = rng.uniform(-1.0, 1.0, ANM_ROWS)
    out["anm"] = {"X": x, "Y": x**3 + x + rng.uniform(-0.5, 0.5, ANM_ROWS)}

    out["mmd1"] = {"U": rng.normal(size=MMD_ROWS), "V": rng.normal(size=MMD_ROWS)}
    out["mmd2"] = {"U": rng.normal(size=MMD_ROWS) + 0.5, "V": rng.normal(size=MMD_ROWS)}

    out["pc"] = pc_table(rng)
    return out


def pc_table(rng, rows: int = PC_ROWS) -> dict:
    """Linear-Gaussian table: siblings X1..Xk of a latent Q, plus X1 -> A -> B.

    The latent makes the siblings a clique no observed set separates, so
    PC runs thousands of tests; A and B give separating sets to check.
    """
    q = rng.normal(size=rows)
    cols = {f"X{j}": 0.8 * q + rng.normal(size=rows) for j in range(1, PC_SIBLINGS + 1)}
    cols["A"] = 0.8 * cols["X1"] + rng.normal(size=rows)
    cols["B"] = 0.8 * cols["A"] + rng.normal(size=rows)
    return cols


def pc_required_edges() -> set:
    """Adjacencies no observed set can separate in `pc_table`."""
    sib = [f"X{j}" for j in range(1, PC_SIBLINGS + 1)]
    edges = {tuple(sorted((a, b))) for i, a in enumerate(sib) for b in sib[i + 1:]}
    return edges | {("A", "X1"), ("A", "B")}


# ---------------------------------------------------------------------------
# structure-lib: random DAGs and binary CGMs, as plain data


def _names(n):
    return [f"V{k}" for k in range(n)]


def random_dag(rng, n: int, indegree: int) -> dict:
    """Each node draws min(indegree, #earlier) parents among earlier nodes of a
    random order; a fixed in-degree keeps PC's work per graph steady."""
    order = rng.permutation(n)
    edges = []
    for pos in range(1, n):
        for p in sorted(rng.choice(pos, min(indegree, pos), replace=False)):
            edges.append((int(order[p]), int(order[pos])))
    return {"nodes": _names(n), "edges": sorted(edges)}


def parent_lists(dag: dict) -> list:
    parents = [[] for _ in dag["nodes"]]
    for i, j in dag["edges"]:
        parents[j].append(i)
    return [sorted(p) for p in parents]


def descendants(dag: dict, i: int) -> set:
    children = [[] for _ in dag["nodes"]]
    for a, b in dag["edges"]:
        children[a].append(b)
    seen, stack = {i}, [i]
    while stack:
        for c in children[stack.pop()]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def random_cgm(rng, n: int, separated_cmi: bool) -> dict:
    """Binary CGM in index order; CPT axes are (sorted parents..., child).

    The one cmi query is either a local-Markov triple (t, a non-descendant,
    parents of t), which must give 0, or a random triple (a, b, {c}).
    """
    dag = {"nodes": _names(n), "edges": []}
    for j in range(1, n):
        for p in sorted(rng.choice(j, min(CGM_INDEGREE, j), replace=False)):
            dag["edges"].append((int(p), j))
    parents = parent_lists(dag)
    cpts = [rng.dirichlet([1.0, 1.0], size=(2,) * len(pa)) for pa in parents]
    # treatment: a node with parents and a non-descendant that is not a parent
    cands = [
        k for k in range(n)
        if parents[k] and set(range(n)) - descendants(dag, k) - set(parents[k])
    ]
    t = int(rng.choice(cands))
    desc = sorted(descendants(dag, t) - {t})
    y = int(rng.choice(desc)) if desc else int(
        rng.choice(sorted(set(range(n)) - {t} - set(parents[t])))
    )
    if separated_cmi:
        others = sorted(set(range(n)) - descendants(dag, t) - set(parents[t]))
        query = (t, int(rng.choice(others)), parents[t])
    else:
        a, b, c = (int(v) for v in rng.choice(n, 3, replace=False))
        query = (a, b, [c])
    return {"dag": dag, "cpts": cpts, "t": t, "y": y, "cmi": [query]}


def dsep_queries(rng, dags: list, count: int) -> list:
    """(graph, a, b, z): distinct single nodes a, b; each other node in z w.p. 0.3."""
    sizes = np.array([len(d["nodes"]) for d in dags])
    g = rng.integers(len(dags), size=count)
    n = sizes[g]
    a = (rng.random(count) * n).astype(int)
    b = (a + 1 + (rng.random(count) * (n - 1)).astype(int)) % n
    inz = (rng.random((count, sizes.max())) < 0.3).tolist()
    return [
        (gk, ak, bk, [v for v, f in enumerate(row[:nk]) if f and v != ak and v != bk])
        for gk, nk, ak, bk, row in zip(g.tolist(), n.tolist(), a.tolist(), b.tolist(), inz)
    ]


def structure_models(seed: int) -> dict:
    """The DAGs and CGMs every round queries."""
    rng = np.random.default_rng([seed, 3])
    return {
        "dags": [random_dag(rng, n, DAG_INDEGREE) for n in DAG_SIZES for _ in range(PER_SIZE)],
        "cgms": [random_cgm(rng, n, separated_cmi=k == 0)
                 for n in CGM_SIZES for k in range(PER_SIZE)],
    }


def structure_inputs(seed: int) -> dict:
    """The models plus the d-separation queries on the DAGs."""
    spec = structure_models(seed)
    spec["dsep"] = dsep_queries(np.random.default_rng([seed, 5]), spec["dags"], DSEP_QUERIES)
    return spec
