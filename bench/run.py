"""Benchmark for causelab: one named workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/``. Workloads (see README.md):

- ``tabular-cli``:   ``generate`` and ``estimate`` CLI jobs on 2e5-row CSVs;
- ``citest-cli``:    ``hsic``, ``test-ci``, ``discover`` (anm, pc), ``mmd`` CLI jobs;
- ``structure-lib``: PC-oracle, d-separation and exact CGM queries in-process.

Each workload is a closed loop: one job at a time, in whole rounds of a
fixed job mix, until ``--seconds`` have passed. Every output is checked
(``checks.py``). With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the same jobs are run again inside
one process with spans around the program's public functions, and the
line carries the per-layer metrics. Run files go to ``.bench_runs/``.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_ENV)  # before numpy: the checks run single-threaded too

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import LAYERS  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
RUNS = Path(".bench_runs")
JOB_TIMEOUT_S = 90.0
SETUP_SAMPLES = 5
LIB_SETUP_SAMPLES = 3

END_TO_END = {"work_per_s": "1/s", "job_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "data.from_csv.s": "s", "data.from_csv.rows": "count",
    "data.to_csv.s": "s", "data.to_csv.bytes": "B",
    "scm.sample.s": "s", "scm.sample.rows": "count",
    "estimation.ate.s": "s",
    "kernels.median_heuristic.s": "s", "kernels.gram.s": "s", "kernels.gram.bytes": "B",
    "kernels.hsic_test.s": "s", "kernels.hsic_test.perms": "count",
    "kernels.kernel_ridge_fit.s": "s", "kernels.mmd.s": "s",
    "kernels.ci_test.s": "s", "kernels.ci_test.calls": "count",
    "discovery.pc_skeleton.s": "s", "discovery.ci_tests": "count",
    "discovery.sepset_ratio": "ratio", "discovery.orient.s": "s",
    "discovery.anm_direction.s": "s",
    "graph.meek_closure.s": "s", "graph.meek_closure.calls": "count",
    "graph.cpdag_of.s": "s", "graph.d_separated.s": "s", "graph.d_separated.calls": "count",
    "cgm.joint.s": "s", "cgm.truncated_factorization.s": "s",
    "cgm.adjustment_formula.s": "s", "cgm.cmi.s": "s", "cgm.table_cells": "count",
    "cli.main.s": "s",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


def child_env() -> dict:
    """BLAS pinned to one thread; CAUSELAB_THREADS left at the program default."""
    env = {k: v for k, v in os.environ.items() if k != "CAUSELAB_THREADS"}
    env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONNOUSERSITE="1")
    return env


def run_process(argv: list, log: Path) -> dict:
    """Run one child to completion: wall time, exit code, stdout, max RSS."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env())
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"s": wall, "rc": proc.returncode, "stdout": stdout, "rss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def cli(args: list) -> list:
    return [sys.executable, "-m", "causelab.cli", *args]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# run diagnostics (not metrics): steal time and a fixed reference loop


def steal_ticks() -> int:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def reference_loop_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    return (time.perf_counter() - t0) * 1e3


# ---------------------------------------------------------------------------
# CLI jobs


@dataclass
class Job:
    kind: str
    args: list
    schema: str
    units: int
    check: Callable[[dict], list]
    outputs: list = field(default_factory=list)


@dataclass
class Outcome:
    kind: str
    units: int
    s: float
    problems: list = field(default_factory=list)
    crashed: bool = False
    cpu_s: float | None = None
    rss_mb: float = 0.0
    stdout: bytes = b""
    hashes: list = field(default_factory=list)
    job: Job | None = None


class Run:
    """State of one invocation: run directory, log and check bookkeeping."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log = self.dir / "stderr.log"
        self.schemas = checks.Schemas(ROOT)
        self._verdicts: dict = {}

    def job(self, job: Job) -> Outcome:
        res = run_process(cli(job.args), self.log)
        hashes = [sha256(p) for p in job.outputs] if res["rc"] == 0 else []
        return Outcome(job.kind, job.units, res["s"], crashed=res["rc"] != 0, cpu_s=res["cpu_s"],
                       rss_mb=res["rss_mb"], stdout=res["stdout"], hashes=hashes, job=job)

    def verify(self, out: Outcome) -> None:
        """Check one outcome; identical outputs of a job kind share a verdict."""
        if out.crashed:
            out.problems = [f"{out.kind}: exit code != 0"]
            return
        key = (out.kind, out.stdout, tuple(out.hashes))
        if key not in self._verdicts:
            payload, problems = checks.parse_output(out.stdout, out.job.schema, self.schemas)
            if not problems:
                problems = out.job.check(payload)
            self._verdicts[key] = problems
        out.problems = self._verdicts[key]

    def warm_up(self) -> None:
        """An untimed no-op call: the first call after a checkout compiles .pyc files."""
        self.job(NOOP_JOB)

    def setup_calls(self) -> list:
        """Timed no-op calls: the fixed cost every CLI job pays."""
        self.warm_up()
        outcomes = [self.job(NOOP_JOB) for _ in range(SETUP_SAMPLES)]
        for out in outcomes:
            self.verify(out)
        return outcomes


NOOP_JOB = Job("noop", ["count-dags", "--n", "5"], "count_dags", 0,
               lambda p: checks.check_count_dags(p, 5))


def _data(run: Run, name: str) -> str:
    return str(run.dir / name)


def tabular_prepare(run: Run):
    tables = inputs.tabular_tables(run.seed)
    for est, table in tables.items():
        inputs.write_csv(_data(run, f"est_{est}.csv"), table["columns"])
    return tables


def tabular_round(run: Run, tables) -> list:
    rows, gseed = inputs.TAB_ROWS, str(inputs.generate_seed(run.seed))
    jobs = []
    # write, read, read, write, read, read
    pairs = zip(inputs.GEN_SCENARIOS, (inputs.ESTIMATORS[:2], inputs.ESTIMATORS[2:]))
    for scenario, estimators in pairs:
        out = run.dir / f"gen_{scenario}.csv"
        truth = run.dir / f"gen_{scenario}.truth.json"
        jobs.append(Job(
            f"generate {scenario}",
            ["generate", "--scenario", scenario, "--n", str(rows), "--seed", gseed, "--out", str(out)],
            "generate", rows,
            lambda p, s=scenario, o=out, t=truth: checks.check_generated(p, s, rows, o, t),
            [out, truth],
        ))
        for est in estimators:
            table = tables[est]
            jobs.append(Job(
                f"estimate {est}",
                ["estimate", "--data", _data(run, f"est_{est}.csv"), "--method", est, *table["args"]],
                "estimate", rows,
                lambda p, e=est, t=table: checks.check_estimate(p, e, t),
            ))
    return jobs


def citest_prepare(run: Run):
    tables = inputs.citest_tables(run.seed)
    for stem, cols in tables.items():
        inputs.write_csv(_data(run, f"{stem}.csv"), cols)
    return tables


def citest_round(run: Run, tables) -> list:
    seed = str(inputs.generate_seed(run.seed))
    pc_vars = len(tables["pc"])
    return [
        Job("hsic", ["hsic", "--data", _data(run, "hsic.csv"), "--x", "X", "--y", "Y",
                     "--perms", str(inputs.HSIC_PERMS), "--seed", seed],
            "hsic", 1, lambda p: checks.check_hsic(p, tables["hsic"], inputs.HSIC_PERMS)),
        Job("pc", ["discover", "--data", _data(run, "pc.csv"), "--method", "pc",
                   "--alpha", str(inputs.PC_ALPHA), "--seed", seed],
            "discover_skeleton", pc_vars * (pc_vars - 1) // 2,
            lambda p: checks.check_pc(p, tables["pc"], inputs.pc_required_edges(), inputs.PC_ALPHA)),
        Job("test-ci", ["test-ci", "--data", _data(run, "ci.csv"), "--a", "A", "--b", "B",
                        "--given", "Z", "--method", "kernel-residual",
                        "--perms", str(inputs.CI_PERMS), "--seed", seed],
            "citest", 1, lambda p: checks.check_ci(p, tables["ci"], inputs.CI_PERMS)),
        Job("mmd", ["mmd", "--data1", _data(run, "mmd1.csv"), "--data2", _data(run, "mmd2.csv"),
                    "--perms", str(inputs.MMD_PERMS), "--seed", seed],
            "mmd", 1,
            lambda p: checks.check_mmd(p, np.column_stack(list(tables["mmd1"].values())),
                                       np.column_stack(list(tables["mmd2"].values())),
                                       inputs.MMD_PERMS)),
        Job("anm", ["discover", "--data", _data(run, "anm.csv"), "--method", "anm",
                    "--x", "X", "--y", "Y", "--alpha", str(inputs.ANM_ALPHA),
                    "--perms", str(inputs.ANM_PERMS), "--seed", seed],
            "discover_anm", 1, lambda p: checks.check_anm(p)),
    ]


CLI_WORKLOADS = {
    "tabular-cli": (tabular_prepare, tabular_round),
    "citest-cli": (citest_prepare, citest_round),
}


def _byte_identity(outcomes: list) -> None:
    """Rounds repeat the same jobs on the same inputs: outputs must match."""
    first: dict = {}
    for out in outcomes:
        ref = first.setdefault(out.kind, (out.stdout, out.hashes))
        if not out.crashed and (out.stdout, out.hashes) != ref:
            out.problems = out.problems + [f"{out.kind}: output differs between rounds"]


def run_cli_workload(run: Run) -> dict:
    prepare, make_round = CLI_WORKLOADS[run.workload]
    tables = prepare(run)
    if run.trace:
        return trace_cli_workload(run, tables, make_round)
    setup = run.setup_calls()
    jobs = make_round(run, tables)
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < run.seconds:
        outcomes += [run.job(job) for job in jobs]
    phase_s = time.perf_counter() - start
    for out in outcomes:
        run.verify(out)
    _byte_identity(outcomes)
    done = [o for o in outcomes if not o.problems]
    metrics = {
        "work_per_s": sum(o.units for o in done) / phase_s,
        "job_s.p50": statistics.median(o.s for o in outcomes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "setup_s": statistics.median(o.s for o in setup),
    }
    return summarize(setup + outcomes, metrics)


def trace_cli_workload(run: Run, tables, make_round) -> dict:
    """Each round: the jobs as CLI processes, then in one traced process."""
    run.warm_up()
    jobs = make_round(run, tables)
    outcomes, layers = [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < run.seconds:
        r = len(layers)
        subs = [run.job(job) for job in jobs]
        spec = {
            "mode": "cli",
            "jobs": [{"argv": j.args, "outputs": [str(p) for p in j.outputs]} for j in jobs],
            "spans": str(run.dir / f"spans-round{r}.json"),
            "round": r,
        }
        res = run_worker(run, spec, f"cli-round{r}")
        for sub, inproc in zip(subs, res["result"]["jobs"]):
            run.verify(sub)
            for mode in ("off", "on"):
                same = (inproc[mode]["rc"] == 0 and inproc[mode]["stdout"].encode() == sub.stdout
                        and inproc[mode]["hashes"] == sub.hashes)
                if not same:
                    sub.problems = sub.problems + [f"{sub.kind}: in-process {mode} output differs"]
        outcomes += subs
        layers.append(res["result"]["layers"])
    _byte_identity(outcomes)
    return summarize(outcomes, _mean_layers(layers))


def _mean_layers(rounds: list) -> dict:
    return {k: statistics.fmean(r[k] for r in rounds) for k in PER_LAYER}


def summarize(outcomes: list, metrics: dict) -> dict:
    wrong = [p for o in outcomes if not o.crashed for p in o.problems]
    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print(f"FAILED {o.kind}: {'; '.join(o.problems)[:500]}", file=sys.stderr)
    return {"correct": not wrong, "attempted": len(outcomes), "failed": len(failed),
            "metrics": metrics, "jobs": [[o.kind, o.s, o.cpu_s] for o in outcomes]}


# ---------------------------------------------------------------------------
# structure-lib: the library sweep runs in one worker process


def run_worker(run: Run, spec: dict, name: str) -> dict:
    spec = dict(spec, out=str(run.dir / f"{name}.out.json"))
    spec_path = run.dir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    res = run_process([sys.executable, str(BENCH / "worker.py"), str(spec_path)], run.log)
    if res["rc"] != 0:
        raise RuntimeError(f"worker {name} exited with {res['rc']}; see {run.log}")
    res["result"] = json.loads(Path(spec["out"]).read_text())
    return res


def check_structure(spec: dict, results: dict) -> dict:
    """Job kind -> problems with the results of one round."""
    verdicts = {}
    if "pc-oracle" in results:
        verdicts["pc-oracle"] = [p for res, dag in zip(results["pc-oracle"], spec["dags"])
                                 for p in checks.check_pc_oracle(res, dag)]
    if "dsep" in results:
        verdicts["dsep"] = checks.check_dsep(results["dsep"], spec["dags"], spec["dsep"])
    # the three CGM queries are checked against each other and the einsum
    cgm_kinds = ("adjust", "truncated", "cmi")
    if all(k in results for k in cgm_kinds):
        problems = [p for k, c in enumerate(spec["cgms"]) for p in checks.check_cgm(
            results["adjust"][k], results["truncated"][k], results["cmi"][k], c)]
        verdicts.update(dict.fromkeys(cgm_kinds, problems))
    return verdicts


def run_structure_workload(run: Run) -> dict:
    setup_spec = {"mode": "setup", "seed": run.seed}
    run_worker(run, setup_spec, "warmup")
    setup_s = [run_worker(run, setup_spec, f"setup{k}")["result"]["setup_s"]
               for k in range(LIB_SETUP_SAMPLES - 1)]
    main = run_worker(run, {"mode": "structure", "seed": run.seed, "seconds": run.seconds,
                            "trace": run.trace, "spans": str(run.dir / "spans.json")}, "sweep")
    res = main["result"]
    setup_s.append(res["setup_s"])
    verdicts = check_structure(inputs.structure_inputs(run.seed), res["results"])
    outcomes = []
    for job in res["jobs"]:
        kind = job["kind"]
        if "error" in job:
            problems = [f"{kind}: raised {job['error']}"]
        elif kind not in verdicts:
            problems = [f"{kind}: unchecked, a job it is checked with raised"]
        else:
            problems = [f"{kind}: {p}" for p in verdicts[kind]]
            if not job["same"]:
                problems.append(f"{kind}: result differs from the first round or when traced")
        outcomes.append(Outcome(kind, job["units"], job["s"], problems, crashed="error" in job))
    if run.trace:
        return summarize(outcomes, {k: res["layers"][k] for k in PER_LAYER})
    done = [o for o in outcomes if not o.problems]
    metrics = {
        "work_per_s": sum(o.units for o in done) / res["phase_s"],
        "job_s.p50": statistics.median(o.s for o in outcomes),
        "peak_rss_mb": main["rss_mb"],
        "setup_s": statistics.median(setup_s),
    }
    return summarize(outcomes, metrics)


WORKLOADS = {
    "tabular-cli": run_cli_workload,
    "citest-cli": run_cli_workload,
    "structure-lib": run_structure_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "causelab" / "__init__.py").is_file():
        print("error: run from the root of a causelab checkout (no src/causelab)", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    steal0, loop0, t0 = steal_ticks(), reference_loop_ms(), time.perf_counter()
    result = WORKLOADS[args.workload](run)
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_s": time.perf_counter() - t0,
        "steal_ticks": steal_ticks() - steal0,
        "reference_loop_ms": [loop0, reference_loop_ms()],
        "threads": {**THREAD_ENV, "CAUSELAB_THREADS": "unset (program default)"},
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
    }
    units = PER_LAYER if args.trace else END_TO_END
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": units[k]} for k in units}
    (run.dir / "result.json").write_text(json.dumps({"diagnostics": diagnostics, **result}))
    del result["jobs"]
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
