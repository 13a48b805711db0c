#!/usr/bin/env python3
"""Fingerprints of seeded outputs.

Runs a fixed list of `causelab` commands, one or more of each subcommand
and of each `estimate` and `discover` method, in a temporary directory
and prints `sha256  command [output]` for each command's stdout and each
file it writes, plus the CSV that `sample_cgm` writes for the frontdoor
scenario's discrete model and, as `repr` floats, that model's p(Y | do(T))
for T = 0 and 1 and its (T, M, Y) marginal. It also prints the oracle
`pc_skeleton` and `sgs_skeleton` of a few seeded random DAGs, which no
command reaches: `tests_performed`, the edges and the sorted separating sets.
On seeded binary CGMs of 16-21 nodes with 3 parents per node, it prints the
library's CGM queries as `repr` floats: an adjustment formula, both truncated
marginals and two conditional mutual informations.
The first line names the Python, numpy and BLAS versions that made the
listing. Two checkouts produce byte-identical seeded outputs when their
listings are identical:

    PYTHONPATH=src python scripts/seeded_outputs.py > new.txt
    PYTHONPATH=../old/src python scripts/seeded_outputs.py > old.txt
    diff old.txt new.txt

tests/seeded_outputs.txt holds the listing at `--n 200 --seeds 1`, which
tests/test_seeded_outputs.py regenerates and compares. After a deliberate
output change, rewrite it with

    PYTHONPATH=src python scripts/seeded_outputs.py --n 200 --seeds 1 > tests/seeded_outputs.txt
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = (
    "genes-confounded", "simpson-reversal", "faithfulness-violation", "frontdoor",
    "iv-linear", "halfsibling", "anm-nonlinear",
)

# Listed out of causal order; covers every noise kind and most of the grammar.
MODEL = {"variables": [
    {"name": "Y", "parents": ["X", "W", "Z"], "noise": {"kind": "gaussian", "mean": 0, "var": 1},
     "expr": ["+", ["+", ["cube", ["*", 0.3, ["var", "W"]]], ["-", ["var", "X"], ["var", "Z"]]],
              ["+", ["pow", ["var", "W"], 2], ["noise"]]]},
    {"name": "S", "parents": ["Z", "X"], "noise": {"kind": "dirac", "point": 0},
     "expr": ["table", {"inputs": [["var", "Z"], ["var", "X"]], "domains": [[0, 1], [0, 1]],
                        "values": [0, 1, 1, 2]}]},
    {"name": "X", "parents": ["Z"],
     "noise": {"kind": "finite", "values": [0.0, 0.4, 0.8], "probs": [0.2, 0.5, 0.3]},
     "expr": ["ind_ge", ["+", ["*", 0.5, ["var", "Z"]], ["noise"]], 0.6]},
    {"name": "W", "parents": ["X"], "noise": {"kind": "uniform", "lo": -1, "hi": 1},
     "expr": ["+", ["tanh", ["var", "X"]], ["noise"]]},
    {"name": "Z", "parents": [], "noise": {"kind": "finite", "values": [0, 1], "probs": [0.3, 0.7]},
     "expr": ["noise"]},
]}
EVIDENCE = ["--evidence", "Z=1", "--evidence", "X=1", "--evidence", "W=0.5",
            "--evidence", "S=2", "--evidence", "Y=0.25"]
# M-bias: conditioning on the collider M connects T and Y's other cause B, and
# so does conditioning on the collider Y; {T, B} separates A from Y.
GRAPH = {"nodes": ["A", "B", "M", "T", "Y"],
         "edges": [["A", "T"], ["A", "M"], ["B", "M"], ["B", "Y"], ["T", "Y"]]}
PERMS = ["--perms", "19"]
# (nodes, parents per node) of the oracle skeletons' DAGs; SGS takes at most 8 nodes
ORACLE_SHAPES = ((6, 2), (8, 3), (8, 5), (13, 3))


def commands(n: int, seeds: list[int]) -> list[list[str]]:
    cmds = [
        ["generate", "--scenario", name, "--n", str(n), "--seed", str(seed),
         "--out", f"{name}-{seed}.csv"]
        for seed in seeds for name in SCENARIOS
    ]
    for seed in seeds:
        run = ["--n", str(n), "--seed", str(seed)]
        cmds += [
            ["simulate", "--scm", "model.json", *run, "--out", f"model-{seed}.csv"],
            ["intervene", "--scm", "model.json", "--set", "X=1", *run,
             "--out", f"do-x-{seed}.csv", "--target", "Y"],
            ["discover", "--data", f"frontdoor-{seed}.csv", "--method", "score",
             "--seed", str(seed)],
            ["discover", "--data", f"iv-linear-{seed}.csv", "--method", "score",
             "--score-model", "linear-gaussian", "--search", "greedy", "--seed", str(seed)],
            ["discover", "--data", f"frontdoor-{seed}.csv", "--method", "score",
             "--score-model", "linear-gaussian", "--search", "exhaustive", "--seed", str(seed)],
            *(["discover", "--data", f"faithfulness-violation-{seed}.csv", "--method", method,
               "--seed", str(seed)] for method in ("pc", "sgs")),
            ["discover", "--data", f"anm-nonlinear-{seed}.csv", "--method", "anm",
             "--x", "X", "--y", "Y", *PERMS, "--seed", str(seed)],
            *(["estimate", "--data", f"simpson-reversal-{seed}.csv", "--method", method,
               "--y", "Y", "--t", "T", "--z", "Z"]
              for method in ("rct", "regression", "matching", "stratified", "ipw")),
            ["estimate", "--data", f"frontdoor-{seed}.csv", "--method", "front-door",
             "--y", "Y", "--t", "T", "--mediator", "M"],
            ["estimate", "--data", f"iv-linear-{seed}.csv", "--method", "2sls",
             "--y", "Y", "--t", "T", "--instrument", "I"],
            ["estimate", "--data", f"iv-linear-{seed}.csv", "--method", "rdd",
             "--y", "Y", "--score", "I", "--cutoff", "0"],
            *(["test-ci", "--data", f"iv-linear-{seed}.csv", "--a", "I", "--b", "Y",
               "--given", "T", "--method", method, *PERMS, "--seed", str(seed)]
              for method in ("partial-correlation", "kernel-residual")),
            ["hsic", "--data", f"anm-nonlinear-{seed}.csv", "--x", "X", "--y", "Y", *PERMS,
             "--seed", str(seed)],
            ["mmd", "--data1", f"frontdoor-{seed}.csv", "--data2",
             f"simpson-reversal-{seed}.csv", *PERMS, "--seed", str(seed)],
        ]
    cmds += [
        ["counterfactual", "--scm", "model.json", *EVIDENCE, "--set", "Z=0", "--target", "X"],
        ["counterfactual", "--scm", "model.json", *EVIDENCE, "--set", "X=0", "--target", "Y"],
        ["dsep", "graph.json", "T", "B"],
        ["dsep", "graph.json", "T", "B", "--given", "M"],
        ["dsep", "graph.json", "A", "Y", "--given", "T", "B"],
        ["dsep", "graph.json", "T", "B", "--given", "Y"],
        ["adjust", "--graph", "graph.json", "--treatment", "T", "--outcome", "Y"],
        ["count-dags", "--n", "6"],
        ["vc-bound", "--r-emp", "0.05", "--h", "10", "--m", "5000", "--delta", "0.01"],
    ]
    return cmds


def oracle_dag(seed: int, n: int, max_parents: int):
    """Each node draws min(max_parents, #earlier) parents among the earlier
    nodes of a seeded random order."""
    import numpy as np
    from causelab.graph import Dag

    rng = np.random.default_rng([seed, n, max_parents])
    order = rng.permutation(n)
    edges = [(int(order[p]), int(order[pos])) for pos in range(1, n)
             for p in rng.choice(pos, min(max_parents, pos), replace=False)]
    return Dag([f"V{k}" for k in range(n)], edges)


def oracle_skeletons(seeds: list[int]) -> None:
    from causelab.discovery import MAX_SGS_NODES, DiscoveryConfig, pc_skeleton, sgs_skeleton

    for seed in seeds:
        for n, max_parents in ORACLE_SHAPES:
            cfg = DiscoveryConfig(ci_method="oracle",
                                  oracle_graph=oracle_dag(seed, n, max_parents))
            searches = (pc_skeleton, sgs_skeleton) if n <= MAX_SGS_NODES else (pc_skeleton,)
            for search in searches:
                res = search(None, cfg)
                sepsets = sorted((a, b, sorted(z)) for (a, b), z in res.sepsets.items())
                print(f"{search.__name__}(oracle, seed={seed}, n={n}, "
                      f"parents={max_parents}) tests_performed={res.tests_performed} "
                      f"edges={sorted(res.edges)} sepsets={sepsets}")


def cgm_queries(seeds: list[int]) -> None:
    """On each seeded CGM, with t the first node from the middle on (then
    from the start) that has a child and y its last descendant: the
    adjustment formula for t on y over t's parents; p(y | do(t)) for t = 0
    and 1; I(t; a non-descendant | t's parents), which is 0; and
    I(a; b | c) for three random nodes."""
    import numpy as np
    from causelab.cgm import adjustment_formula, cmi, random_cgm, truncated_factorization
    from causelab.graph import Dag

    for seed in seeds:
        for n in range(16, 22):
            rng = np.random.default_rng([seed, n])
            nodes = [f"V{k}" for k in range(n)]
            edges = [(nodes[p], nodes[j]) for j in range(1, n)
                     for p in rng.choice(j, min(3, j), replace=False)]
            m = random_cgm(Dag(nodes, edges), rng)
            name = f"cgm(seed={seed}, n={n})"
            t = next(v for v in nodes[n // 2:] + nodes[: n // 2] if m.dag.children(v))
            y = nodes[m.dag.descendants_mask(t).bit_length() - 1]
            z = [nodes[p] for p in m.dag.parents(t)]
            effect = adjustment_formula(m, t, y, z)
            print(f"adjustment_formula({name}, {t!r}, {y!r}, {z!r}) "
                  f"{[effect[v].tolist() for v in (0, 1)]!r}")
            for v in (0, 1):
                probs = truncated_factorization(m, {t: v}).marginal([y]).values
                print(f"truncated_factorization({name}, {{{t!r}: {v}}}).marginal([{y!r}]) "
                      f"{probs.tolist()!r}")
            other = next(u for u in nodes if u != t and u not in z
                         and not m.dag.descendants_mask(t) >> m.dag.index(u) & 1)
            a, b, c = (nodes[k] for k in rng.choice(n, 3, replace=False))
            for x, w, given in ((t, other, z), (a, b, [c])):
                print(f"cmi({name}, {x!r}, {w!r}, {given!r}) {cmi(m, x, w, given)!r}")


def versions() -> str:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas['name']} {blas['version']}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, default=3000)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = parser.parse_args()

    import causelab
    from causelab.cgm import cgm_from_scm, joint, sample_cgm, truncated_factorization
    from causelab.scenarios import get_scenario

    print(versions())
    # the commands run in the temporary directory on the causelab imported here
    env = {**os.environ, "PYTHONPATH": str(Path(causelab.__file__).resolve().parents[1])}
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "model.json").write_text(json.dumps(MODEL))
        Path(tmp, "graph.json").write_text(json.dumps(GRAPH))
        for argv in commands(args.n, args.seeds):
            before = set(os.listdir(tmp))
            res = subprocess.run([sys.executable, "-m", "causelab.cli", *argv], cwd=tmp,
                                 env=env, capture_output=True, check=False)
            label = "causelab " + " ".join(argv)
            if res.returncode != 0:
                sys.exit(f"{label}: exit {res.returncode}: {res.stderr.decode().strip()}")
            print(f"{digest(res.stdout)}  {label} [stdout]")
            for name in sorted(set(os.listdir(tmp)) - before):
                print(f"{digest(Path(tmp, name).read_bytes())}  {label} [{name}]")
        cgm = cgm_from_scm(get_scenario("frontdoor").scm)
        for seed in args.seeds:
            path = Path(tmp, f"cgm-{seed}.csv")
            sample_cgm(cgm, args.n, seed).to_csv(path)
            print(f"{digest(path.read_bytes())}  sample_cgm(frontdoor, n={args.n}, "
                  f"seed={seed}) [{path.name}]")
        for t in (0, 1):
            probs = truncated_factorization(cgm, {"T": t}).marginal(["Y"]).values
            print(f"truncated_factorization(frontdoor, {{'T': {t}}}).marginal(['Y']) "
                  f"{probs.tolist()!r}")
        probs = joint(cgm).marginal(["T", "M", "Y"]).values
        print(f"joint(frontdoor).marginal(['T', 'M', 'Y']) {probs.tolist()!r}")
    oracle_skeletons(args.seeds)
    cgm_queries(args.seeds)


if __name__ == "__main__":
    main()
