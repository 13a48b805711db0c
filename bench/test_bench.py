"""Fast tests of the benchmark itself: its checkers catch corrupted
outputs, and a run prints the metrics BENCHMARK.json names. No timing
is asserted."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli_payload(args: list) -> dict:
    from causelab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(args) == 0
    return checks.strict_json(buf.getvalue())


@pytest.fixture(scope="module")
def schemas():
    return checks.Schemas(ROOT)


def test_infinity_in_json_fails_the_job(schemas):
    good = b'{"ate": 1.5, "diagnostics": {}, "estimator": "rct", "seed": null, "stderr": 0.1}'
    assert checks.parse_output(good, "estimate", schemas)[1] == []
    for bad in (good.replace(b"1.5", b"Infinity"), good.replace(b"0.1", b"NaN"),
                good.replace(b"1.5", b"-Infinity")):
        assert checks.parse_output(bad, "estimate", schemas)[1]


@pytest.mark.parametrize("estimator", inputs.ESTIMATORS)
def test_ate_off_by_1e6_relative_fails(tmp_path, estimator):
    table = inputs.tabular_tables(seed=3, rows=4000)[estimator]
    path = tmp_path / "t.csv"
    inputs.write_csv(path, table["columns"])
    payload = cli_payload(["estimate", "--data", str(path), "--method", estimator, *table["args"]])
    assert checks.check_estimate(payload, estimator, table) == []
    payload["ate"] *= 1 + 1e-6
    assert checks.check_estimate(payload, estimator, table)


def test_hsic_statistic_off_fails(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 300)
    cols = {"X": x, "Y": np.sin(3 * x) + 0.3 * rng.normal(size=300)}
    inputs.write_csv(tmp_path / "h.csv", cols)
    payload = cli_payload(["hsic", "--data", str(tmp_path / "h.csv"), "--x", "X", "--y", "Y",
                           "--perms", "50", "--seed", "1"])
    assert checks.check_hsic(payload, cols, 50) == []
    payload["statistic"] *= 1 + 1e-6
    assert checks.check_hsic(payload, cols, 50)
    payload = dict(payload, statistic=checks.hsic(x, cols["Y"]), p_value=0.5)
    assert checks.check_hsic(payload, cols, 50)  # not of the form k/(B+1)


def test_dropped_true_edge_fails_pc_on_data(tmp_path):
    cols = inputs.pc_table(np.random.default_rng(7), rows=1000)
    inputs.write_csv(tmp_path / "pc.csv", cols)
    payload = cli_payload(["discover", "--data", str(tmp_path / "pc.csv"), "--method", "pc",
                           "--seed", "1"])
    required = inputs.pc_required_edges()
    assert checks.check_pc(payload, cols, required, 0.05) == []
    payload["skeleton"] = [e for e in payload["skeleton"] if sorted(e) != ["A", "X1"]]
    assert checks.check_pc(payload, cols, required, 0.05)


def test_dropped_true_edge_fails_pc_oracle():
    from causelab import discovery, graph

    dag = inputs.random_dag(np.random.default_rng(1), 10, 3)
    g = graph.Dag(dag["nodes"], dag["edges"])
    cpdag = discovery.orient(discovery.pc_skeleton(
        None, discovery.DiscoveryConfig(ci_method="oracle", oracle_graph=g)))
    edges = {"directed": sorted(map(list, cpdag.directed)),
             "undirected": sorted(map(list, cpdag.undirected))}
    result = dict(edges, cpdag_of=edges)
    assert checks.check_pc_oracle(result, dag) == []
    kind = "undirected" if edges["undirected"] else "directed"
    dropped = dict(edges, **{kind: edges[kind][1:]})
    assert checks.check_pc_oracle(dict(dropped, cpdag_of=dropped), dag)


def test_dsep_reference_against_wrong_answers():
    spec = inputs.structure_inputs(seed=2)
    parents = [inputs.parent_lists(d) for d in spec["dags"]]
    truth = [checks.dsep_reference(parents[g], a, b, z) for g, a, b, z in spec["dsep"][:200]]
    assert checks.check_dsep(truth, spec["dags"], spec["dsep"][:200]) == []
    flipped = [not truth[0]] + truth[1:]
    assert checks.check_dsep(flipped, spec["dags"], spec["dsep"][:200])


def test_benchmark_json_matches_run_py():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "structure-lib", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in named
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tabular-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
