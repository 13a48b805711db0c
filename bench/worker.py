"""In-process runner for the library sweep and for traced CLI jobs.

Run by ``run.py`` as ``python3 bench/worker.py SPEC.json`` with the
program's ``src`` on PYTHONPATH. The spec names a mode:

- ``setup``: time ``import causelab`` plus building the structure-lib
  graphs and CGMs with the library's constructors, then exit;
- ``structure``: set up as above, then run whole rounds of structure-lib
  jobs until ``seconds`` have passed (each job run untraced, and also
  traced when ``trace`` is set);
- ``cli``: run the given CLI argument lists through ``causelab.cli.main``
  in this process, untraced and then traced, capturing stdout.

Results go to the spec's ``out`` file as JSON; spans to ``spans``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import causelab  # noqa: E402  (the import is part of the timed set-up)
import causelab.discovery  # noqa: E402

T_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

cgm = causelab.cgm
discovery = causelab.discovery
graph = causelab.graph


# ---------------------------------------------------------------------------
# structure-lib


def build_models(spec: dict) -> dict:
    dags = [graph.Dag(d["nodes"], d["edges"]) for d in spec["dags"]]
    models = []
    for c in spec["cgms"]:
        names = c["dag"]["nodes"]
        g = graph.Dag(names, c["dag"]["edges"])
        cpts = {
            v: cgm.Cpt(child=v, parents=tuple(names[p] for p in g.parents(v)), values=c["cpts"][k])
            for k, v in enumerate(names)
        }
        models.append(cgm.DiscreteCgm(dag=g, domains={v: (0, 1) for v in names}, cpts=cpts))
    return {"dags": dags, "cgms": models}


def _edges(cpdag) -> dict:
    return {"directed": sorted(map(list, cpdag.directed)),
            "undirected": sorted(map(list, cpdag.undirected))}


def job_pc(spec, built):
    out = []
    for g in built["dags"]:
        cfg = discovery.DiscoveryConfig(ci_method="oracle", oracle_graph=g)
        found = _edges(discovery.orient(discovery.pc_skeleton(None, cfg)))
        found["cpdag_of"] = _edges(graph.cpdag_of(g))
        out.append(found)
    return out


def job_dsep(spec, built):
    dags = built["dags"]
    return [
        graph.d_separated(dags[g], [a], [b], z) for g, a, b, z in spec["dsep"]
    ]


def _name(m, k):
    return m.dag.nodes[k]


def job_adjust(spec, built):
    out = []
    for c, m in zip(spec["cgms"], built["cgms"]):
        z = [_name(m, p) for p in m.dag.parents(c["t"])]
        res = cgm.adjustment_formula(m, _name(m, c["t"]), _name(m, c["y"]), z)
        out.append([res[0].tolist(), res[1].tolist()])
    return out


def job_truncated(spec, built):
    out = []
    for c, m in zip(spec["cgms"], built["cgms"]):
        t, y = _name(m, c["t"]), _name(m, c["y"])
        out.append([
            cgm.truncated_factorization(m, {t: v}).marginal([y]).values.tolist()
            for v in (0, 1)
        ])
    return out


def job_cmi(spec, built):
    return [
        [cgm.cmi(m, _name(m, a), _name(m, b), [_name(m, k) for k in z]) for a, b, z in c["cmi"]]
        for c, m in zip(spec["cgms"], built["cgms"])
    ]


STRUCTURE_JOBS = (
    ("pc-oracle", job_pc, lambda s: len(s["dags"])),
    ("dsep", job_dsep, lambda s: len(s["dsep"])),
    ("adjust", job_adjust, lambda s: len(s["cgms"])),
    ("truncated", job_truncated, lambda s: 2 * len(s["cgms"])),
    ("cmi", job_cmi, lambda s: sum(len(c["cmi"]) for c in s["cgms"])),
)


def structure_setup(seed: int):
    """Import plus the constructors; drawing the raw inputs is not timed."""
    spec = inputs.structure_models(seed)
    t0 = time.perf_counter()
    built = build_models(spec)
    return built, (T_IMPORTED - T_START) + (time.perf_counter() - t0)


def _timed_traced(tracer, fn, *args):
    with tracer:
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0


def run_structure(cfg: dict) -> dict:
    """Whole rounds of the same jobs on the same models until the deadline.

    Round 0's results are returned for checking; later rounds must match
    them exactly.
    """
    built, setup_s = structure_setup(cfg["seed"])
    spec = inputs.structure_inputs(cfg["seed"])
    tracer = Tracer() if cfg["trace"] else None
    first, jobs = {}, []
    traced_s = untraced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < cfg["seconds"]:
        for k, (kind, fn, units) in enumerate(STRUCTURE_JOBS):
            job = {"kind": kind, "units": units(spec)}
            jobs.append(job)
            # traced runs alternate before and after the untraced one, so the
            # second run's warmer caches do not bias the overhead
            traced_first = tracer is not None and (rounds + k) % 2 == 1
            t0 = time.perf_counter()
            try:
                if traced_first:
                    again, dt_on = _timed_traced(tracer, fn, spec, built)
                    t0 = time.perf_counter()
                result = fn(spec, built)
            except Exception:  # a failed operation is reported, the sweep goes on
                job.update(s=time.perf_counter() - t0, error=traceback.format_exc(limit=3))
                continue
            job["s"] = time.perf_counter() - t0
            dump = json.dumps(result)
            first.setdefault(kind, (result, dump))
            job["same"] = dump == first[kind][1]
            if tracer is not None:
                if not traced_first:
                    again, dt_on = _timed_traced(tracer, fn, spec, built)
                untraced_s += job["s"]
                traced_s += dt_on
                job["same"] = job["same"] and json.dumps(again) == dump
        rounds += 1
    out = {
        "setup_s": setup_s,
        "phase_s": time.perf_counter() - start,
        "jobs": jobs,
        "results": {kind: res for kind, (res, _) in first.items()},
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, tracer.counts, traced_s, untraced_s, rounds)
        _write_spans(cfg["spans"], tracer.spans)
    return out


# ---------------------------------------------------------------------------
# traced CLI jobs


def _run_main(argv: list, outputs: list) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = causelab.cli.main(argv)
    except Exception:  # the CLI process would end in a traceback: report it
        rc = traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    hashes = []
    for path in outputs if rc == 0 else ():
        with open(path, "rb") as fh:
            hashes.append(hashlib.sha256(fh.read()).hexdigest())
    return {"rc": rc, "stdout": buf.getvalue(), "hashes": hashes, "s": dt}


def run_cli(cfg: dict) -> dict:
    import causelab.cli  # noqa: F401

    tracer = Tracer()
    jobs = []
    for k, job in enumerate(cfg["jobs"]):
        runs = {}
        # alternate which run goes first, as in run_structure
        for mode in (("off", "on") if (k + cfg["round"]) % 2 == 0 else ("on", "off")):
            with tracer if mode == "on" else contextlib.nullcontext():
                runs[mode] = _run_main(job["argv"], job["outputs"])
        jobs.append(runs)
    traced_s = sum(j["on"]["s"] for j in jobs)
    untraced_s = sum(j["off"]["s"] for j in jobs)
    _write_spans(cfg["spans"], tracer.spans)
    return {"jobs": jobs, "layers": layer_metrics(tracer.spans, tracer.counts, traced_s, untraced_s, 1)}


def _write_spans(path: str, spans: list) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        cfg = json.load(fh)
    if cfg["mode"] == "setup":
        out = {"setup_s": structure_setup(cfg["seed"])[1]}
    elif cfg["mode"] == "structure":
        out = run_structure(cfg)
    else:
        out = run_cli(cfg)
    with open(cfg["out"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
