"""Batch command-line front end.

Every subcommand reads files, runs one library operation, and emits one
JSON document on stdout (optionally also written with --out). Exit
codes: 0 success, 2 usage or parse error, 3 method precondition failure
(weak instrument, overlap violation, separation, non-abducible model,
a non-finite result). Seeded subcommands are bit-reproducible: identical
invocations produce byte-identical outputs. Each handler imports the
library modules it runs, so a subcommand loads only those.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .data import Dataset, _first_undecodable, write_atomic
from .errors import PreconditionError, UsageError


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError:
        raise UsageError(f"{path!r}: {_first_undecodable(path)}") from None


def _emit(payload: dict, out: str | None) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise PreconditionError(f"non-finite result: {exc}") from None
    if out:
        write_atomic(out, text)
    sys.stdout.write(text)


def _parse_assignments(pairs) -> dict[str, float]:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"expected VAR=VALUE, got {pair!r}")
        name, _, raw = pair.partition("=")
        try:
            out[name] = float(raw)
        except ValueError:
            raise UsageError(f"non-numeric value in {pair!r}") from None
    if not out:
        raise UsageError("at least one VAR=VALUE required")
    return out


def _load_dataset(path: str) -> Dataset:
    data = Dataset.from_csv(path)
    if data.n == 0:
        raise UsageError(f"{path!r} has no data rows")
    return data


# ---------------------------------------------------------------------------
# Handlers


def cmd_dsep(args) -> dict:
    from . import graph

    g = graph.dag_from_json(_read_text(args.graph))
    verdict = graph.d_separated(g, [args.a], [args.b], args.given or [])
    return {
        "d_separated": bool(verdict),
        "a": args.a,
        "b": args.b,
        "given": sorted(args.given or []),
    }


def cmd_adjust(args) -> dict:
    from . import graph

    g = graph.dag_from_json(_read_text(args.graph))
    result = graph.enumerate_adjustment_sets(g, args.treatment, args.outcome)
    return {
        "treatment": args.treatment,
        "outcome": args.outcome,
        "valid_sets": [sorted(s) for s in result.sets],
        "parent_set": sorted(result.parent_set),
        "parent_set_valid": result.parent_set_valid,
    }


def cmd_count_dags(args) -> dict:
    from . import graph

    return {"n": args.n, "count": graph.count_dags(args.n)}


def cmd_simulate(args) -> dict:
    from . import scm

    m = scm.scm_from_json(_read_text(args.scm))
    data = scm.sample(m, args.n, args.seed)
    data.to_csv(args.out)
    return {"rows": data.n, "columns": list(data.columns), "out": args.out, "seed": args.seed}


def cmd_intervene(args) -> dict:
    from . import scm

    m = scm.scm_from_json(_read_text(args.scm))
    iv = scm.Intervention(_parse_assignments(args.set))
    payload: dict = {
        "intervention": {k: v for k, v in sorted(iv.assignments.items())},
        "n": args.n,
        "seed": args.seed,
    }
    if args.out:
        data = scm.sample(scm.intervene(m, iv), args.n, args.seed)
        data.to_csv(args.out)
        payload["out"] = args.out
    if args.target:
        mc = scm.interventional_mean(m, iv, args.target, args.n, args.seed)
        payload.update({"target": args.target, "mean": mc.value, "stderr": mc.stderr})
    if not args.out and not args.target:
        raise UsageError("provide --target and/or --out")
    return payload


def cmd_counterfactual(args) -> dict:
    from . import scm

    m = scm.scm_from_json(_read_text(args.scm))
    evidence = _parse_assignments(args.evidence)
    iv = scm.Intervention(_parse_assignments(args.set))
    dist = scm.counterfactual(m, evidence, iv, args.target)
    return {
        "target": args.target,
        "intervention": {k: v for k, v in sorted(iv.assignments.items())},
        "values": list(dist.values),
        "weights": list(dist.weights),
        "mean": dist.mean,
        "point": dist.point if dist.is_point_mass else None,
    }


def _truth_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}.truth.json" if ext == ".csv" else f"{out}.truth.json"


def cmd_generate(args) -> dict:
    from .scenarios import get_scenario

    scenario = get_scenario(args.scenario)
    data, truth = scenario.generate(args.n, args.seed)
    data.to_csv(args.out)
    truth_path = _truth_path(args.out)
    write_atomic(truth_path, json.dumps(truth, sort_keys=True, indent=2) + "\n")
    return {
        "scenario": args.scenario,
        "rows": data.n,
        "columns": list(data.columns),
        "out": args.out,
        "truth": truth_path,
        "seed": args.seed,
    }


def cmd_discover(args) -> dict:
    from . import discovery, graph

    data = _load_dataset(args.data)
    fields = {f.name for f in dataclasses.fields(discovery.DiscoveryConfig)}
    given = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    cfg = discovery.DiscoveryConfig(**given)  # unset flags keep the config's defaults
    if args.method in ("pc", "sgs"):
        skel = (
            discovery.pc_skeleton(data, cfg)
            if args.method == "pc"
            else discovery.sgs_skeleton(data, cfg)
        )
        cpdag = discovery.orient(skel)
        return {
            "method": args.method,
            "skeleton": sorted(sorted(e) for e in skel.edges),
            "v_structures": sorted(
                list(v) for v in graph._colliders(cpdag.nodes, cpdag.directed, skel.edges)
            ),
            "cpdag": json.loads(graph.cpdag_to_json(cpdag)),
            "separating_sets": {
                f"{a},{b}": sorted(s) for (a, b), s in sorted(skel.sepsets.items())
            },
            "tests_performed": skel.tests_performed,
            "alpha": cfg.alpha,
            "seed": cfg.seed,
        }
    if args.method == "score":
        res = discovery.score_search(data, cfg)
        return {
            "method": "score",
            "dag": {
                "nodes": list(res.dag.nodes),
                "edges": sorted(
                    [res.dag.nodes[i], res.dag.nodes[j]] for i, j in res.dag.edges
                ),
            },
            "score": res.score,
            "graphs_scored": res.graphs_scored,
            "score_model": cfg.score,
            "search": cfg.search,
            "seed": cfg.seed,
        }
    if args.method == "anm":
        if not args.x or not args.y:
            raise UsageError("anm requires --x and --y")
        verdict = discovery.anm_direction(data, args.x, args.y, cfg)
        return {
            "method": "anm",
            "x": args.x,
            "y": args.y,
            "direction": verdict.direction,
            "p_forward": verdict.p_forward,
            "p_backward": verdict.p_backward,
            "margin": verdict.margin,
            "alpha": cfg.alpha,
            "seed": cfg.seed,
        }
    raise UsageError(f"unknown discovery method {args.method!r}")


def cmd_estimate(args) -> dict:
    from . import estimation

    data = _load_dataset(args.data)
    method = args.method
    if method != "rdd" and not args.t:
        raise UsageError(f"method {method!r} requires --t")
    z = args.z or []
    if method == "rct":
        est = estimation.ate_rct(data, args.y, args.t)
    elif method == "regression":
        est = estimation.ate_regression_adjustment(
            data, args.y, args.t, z, regressor=args.regressor
        )
    elif method == "matching":
        est = estimation.ate_nn_matching(data, args.y, args.t, z)
    elif method == "stratified":
        if not z:
            raise UsageError("stratified estimation requires --z")
        est = estimation.ate_stratified(data, args.y, args.t, z)
    elif method == "ipw":
        if args.propensity_column:
            prop = data.column(args.propensity_column)
        else:
            if not z:
                raise UsageError("ipw requires --z (or --propensity-column)")
            prop = estimation.fit_propensity(data, args.t, z)
        clip = estimation.DEFAULT_CLIP if args.clip is None else args.clip
        est = estimation.ate_ipw(data, args.y, args.t, z, prop, clip=clip)
    elif method == "front-door":
        if not args.mediator:
            raise UsageError("front-door requires --mediator")
        est = estimation.ate_front_door(data, args.y, args.t, args.mediator)
    elif method == "2sls":
        if not args.instrument:
            raise UsageError("2sls requires --instrument")
        est = estimation.ate_iv_2sls(data, args.y, args.t, args.instrument)
    elif method == "rdd":
        if args.score is None or args.cutoff is None:
            raise UsageError("rdd requires --score and --cutoff")
        est = estimation.ate_rdd(
            data, args.y, args.score, args.cutoff, args.epsilon
        )
    else:
        raise UsageError(f"unknown estimator {method!r}")
    payload = {
        "estimator": est.estimator,
        "ate": est.ate,
        "diagnostics": est.diagnostics,
        "seed": args.seed,
    }
    if est.stderr is not None:
        payload["stderr"] = est.stderr
    if est.cate is not None:
        payload["cate"] = {
            ",".join(repr(v) for v in k): val for k, val in sorted(est.cate.items())
        }
    return payload


def _perms(args) -> int:
    """--perms, or the kernel tests' default."""
    from . import kernels

    return kernels.DEFAULT_PERMUTATIONS if args.perms is None else args.perms


def cmd_test_ci(args) -> dict:
    from . import kernels

    kernels._check_alpha(args.alpha)
    data = _load_dataset(args.data)
    res = kernels.ci_test(
        args.method,
        data,
        args.a,
        args.b,
        tuple(args.given or ()),
        perms=_perms(args),
        seed=args.seed,
    )
    return {
        "method": res.method,
        "a": args.a,
        "b": args.b,
        "given": sorted(args.given or []),
        "statistic": res.statistic,
        "p_value": res.p_value,
        "cond_set_size": res.cond_set_size,
        "alpha": args.alpha,
        "reject": res.p_value <= args.alpha,
        "seed": args.seed,
    }


def cmd_mmd(args) -> dict:
    from . import kernels

    d1 = _load_dataset(args.data1)
    d2 = _load_dataset(args.data2)
    res = kernels.mmd(
        None,
        d1.matrix(d1.columns),
        d2.matrix(d2.columns),
        perms=_perms(args),
        seed=args.seed,
    )
    return {
        "statistic": res.statistic,
        "unbiased": res.unbiased,
        "p_value": res.p_value,
        "permutations": res.n_permutations,
        "seed": res.seed,
    }


def cmd_hsic(args) -> dict:
    from . import kernels

    data = _load_dataset(args.data)
    perms = _perms(args)
    res = kernels.hsic_test(
        None,
        None,
        data.column(args.x),
        data.column(args.y),
        perms=perms,
        seed=args.seed,
    )
    return {
        "x": args.x,
        "y": args.y,
        "statistic": res.statistic,
        "p_value": res.p_value,
        "permutations": perms,
        "seed": args.seed,
    }


def cmd_vc_bound(args) -> dict:
    from . import kernels

    value = kernels.vc_bound(args.r_emp, args.h, args.m, args.delta)
    return {
        "r_emp": args.r_emp,
        "h": args.h,
        "m": args.m,
        "delta": args.delta,
        "bound": value,
    }


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causelab",
        description="Causal inference batch tool: graphs, SCMs, discovery, estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dsep", help="d-separation query on a graph JSON file")
    p.add_argument("graph")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--given", nargs="*", default=[])
    p.add_argument("--out")
    p.set_defaults(handler=cmd_dsep)

    p = sub.add_parser("adjust", help="enumerate valid adjustment sets")
    p.add_argument("--graph", required=True)
    p.add_argument("--treatment", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_adjust)

    p = sub.add_parser("count-dags", help="number of labeled DAGs on n nodes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_count_dags)

    p = sub.add_parser("simulate", help="ancestral sampling from an SCM JSON file")
    p.add_argument("--scm", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("intervene", help="sample or summarize under do()")
    p.add_argument("--scm", required=True)
    p.add_argument("--set", action="append", metavar="VAR=VALUE", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--target")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_intervene)

    p = sub.add_parser("counterfactual", help="abduction-action-prediction query")
    p.add_argument("--scm", required=True)
    p.add_argument("--evidence", action="append", metavar="VAR=VALUE", required=True)
    p.add_argument("--set", action="append", metavar="VAR=VALUE", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_counterfactual)

    p = sub.add_parser("generate", help="scenario dataset plus ground-truth file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("discover", help="structure learning on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=["pc", "sgs", "score", "anm"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--ci", dest="ci_method", choices=["partial-correlation", "kernel-residual"])
    p.add_argument("--max-cond", dest="max_cond_size", type=int)
    p.add_argument("--score-model", dest="score", choices=["multinomial", "linear-gaussian"])
    p.add_argument("--search", choices=["exhaustive", "greedy"])
    p.add_argument("--perms", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_discover)

    p = sub.add_parser("estimate", help="treatment-effect estimation on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--method",
        required=True,
        choices=["rct", "regression", "matching", "stratified", "ipw",
                 "front-door", "2sls", "rdd"],
    )
    p.add_argument("--y", required=True)
    p.add_argument("--t")
    p.add_argument("--z", nargs="*", default=[])
    p.add_argument("--mediator")
    p.add_argument("--instrument")
    p.add_argument("--score")
    p.add_argument("--cutoff", type=float)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--regressor", default="linear", choices=["linear", "kernel-ridge"])
    p.add_argument("--propensity-column")
    p.add_argument("--clip", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("test-ci", help="conditional independence test")
    p.add_argument("--data", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--given", nargs="*", default=[])
    p.add_argument("--method", default="partial-correlation",
                   choices=["partial-correlation", "kernel-residual"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--perms", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_test_ci)

    p = sub.add_parser("mmd", help="kernel two-sample test between two CSV files")
    p.add_argument("--data1", required=True)
    p.add_argument("--data2", required=True)
    p.add_argument("--perms", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_mmd)

    p = sub.add_parser("hsic", help="kernel independence test between two columns")
    p.add_argument("--data", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--perms", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_hsic)

    p = sub.add_parser("vc-bound", help="capacity risk bound evaluation")
    p.add_argument("--r-emp", type=float, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_vc_bound)

    return parser


_FILE_PRODUCING = {"simulate", "generate", "intervene"}  # --out is a CSV there


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    json_out = None if args.command in _FILE_PRODUCING else getattr(args, "out", None)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError(f"seed must be >= 0, got {args.seed}")
        _emit(args.handler(args), json_out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
