"""Batch command-line front end.

Every subcommand reads files, runs one library operation, and emits one
JSON document on stdout (optionally also written with --out). Exit
codes: 0 success, 2 usage or parse error, 3 method precondition failure
(weak instrument, overlap violation, separation, non-abducible model,
a non-finite result). Seeded subcommands are bit-reproducible: identical
invocations produce byte-identical outputs. Each handler imports the
library modules it runs, so a subcommand loads only those. The methods
of `estimate` and `discover` are declared once, in ESTIMATORS and
DISCOVERERS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

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


def _require(args, method: str, flags) -> None:
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) in (None, "", [])]
    if missing:
        raise UsageError(f"{method} requires {' and '.join(missing)}")


def _fields(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _written(data: Dataset, args, *names) -> dict:
    """The report of a subcommand that wrote `data` to --out."""
    return {"rows": data.n, "columns": list(data.columns), **_fields(args, "out", "seed", *names)}


# ---------------------------------------------------------------------------
# Handlers


def cmd_dsep(args) -> dict:
    from . import graph

    g = graph.dag_from_json(_read_text(args.graph))
    verdict = graph.d_separated(g, [args.a], [args.b], args.given or [])
    return {"d_separated": bool(verdict), **_fields(args, "a", "b"),
            "given": sorted(args.given or [])}


def cmd_adjust(args) -> dict:
    from . import graph

    g = graph.dag_from_json(_read_text(args.graph))
    result = graph.enumerate_adjustment_sets(g, args.treatment, args.outcome)
    return {
        **_fields(args, "treatment", "outcome"),
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
    return _written(data, args)


def cmd_intervene(args) -> dict:
    from . import scm

    m = scm.scm_from_json(_read_text(args.scm))
    iv = scm.Intervention(_parse_assignments(args.set))
    payload = {"intervention": dict(sorted(iv.assignments.items())), **_fields(args, "n", "seed")}
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
        "intervention": dict(sorted(iv.assignments.items())),
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

    data, truth = get_scenario(args.scenario).generate(args.n, args.seed)
    data.to_csv(args.out)
    truth_path = _truth_path(args.out)
    write_atomic(truth_path, json.dumps(truth, sort_keys=True, indent=2) + "\n")
    return {**_written(data, args, "scenario"), "truth": truth_path}


def _skeleton_report(discovery, skel, cfg) -> dict:
    from . import graph

    cpdag = discovery.orient(skel)
    return {
        "skeleton": sorted(sorted(e) for e in skel.edges),
        "v_structures": sorted(
            list(v) for v in graph._colliders(cpdag.nodes, cpdag.directed, skel.edges)
        ),
        "cpdag": json.loads(graph.cpdag_to_json(cpdag)),
        "separating_sets": {f"{a},{b}": sorted(s) for (a, b), s in sorted(skel.sepsets.items())},
        "tests_performed": skel.tests_performed,
        "alpha": cfg.alpha,
    }


def _score_report(res, cfg) -> dict:
    nodes = res.dag.nodes
    return {
        "dag": {"nodes": list(nodes), "edges": sorted([nodes[i], nodes[j]] for i, j in res.dag.edges)},
        **_fields(res, "score", "graphs_scored"),
        "score_model": cfg.score,
        "search": cfg.search,
    }


def _anm_report(discovery, data, cfg, args) -> dict:
    verdict = discovery.anm_direction(data, args.x, args.y, cfg)
    return {**_fields(args, "x", "y"), "alpha": cfg.alpha,
            **_fields(verdict, "direction", "p_forward", "p_backward", "margin")}


# method: (the flags it requires, its report from the discovery module, data, config, args)
DISCOVERERS = {
    "pc": ((), lambda m, d, cfg, a: _skeleton_report(m, m.pc_skeleton(d, cfg), cfg)),
    "sgs": ((), lambda m, d, cfg, a: _skeleton_report(m, m.sgs_skeleton(d, cfg), cfg)),
    "score": ((), lambda m, d, cfg, a: _score_report(m.score_search(d, cfg), cfg)),
    "anm": (("x", "y"), _anm_report),
}


def cmd_discover(args) -> dict:
    from . import discovery

    data = _load_dataset(args.data)
    fields = {f.name for f in dataclasses.fields(discovery.DiscoveryConfig)}
    given = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    cfg = discovery.DiscoveryConfig(**given)  # unset flags keep the config's defaults
    required, report = DISCOVERERS[args.method]
    _require(args, args.method, required)
    return {"method": args.method, "seed": cfg.seed, **report(discovery, data, cfg, args)}


def _ate_ipw(e, data, args):
    if args.propensity_column:
        prop = data.column(args.propensity_column)
    elif args.z:
        prop = e.fit_propensity(data, args.t, args.z)
    else:
        raise UsageError(f"{args.method} requires --z (or --propensity-column)")
    clip = e.DEFAULT_CLIP if args.clip is None else args.clip
    return e.ate_ipw(data, args.y, args.t, args.z, prop, clip=clip)


# method: (the flags it requires, its estimate from the estimation module, data, args)
ESTIMATORS = {
    "rct": (("t",), lambda e, d, a: e.ate_rct(d, a.y, a.t)),
    "regression": (("t",), lambda e, d, a: e.ate_regression_adjustment(
        d, a.y, a.t, a.z, regressor=a.regressor)),
    "matching": (("t",), lambda e, d, a: e.ate_nn_matching(d, a.y, a.t, a.z)),
    "stratified": (("t", "z"), lambda e, d, a: e.ate_stratified(d, a.y, a.t, a.z)),
    "ipw": (("t",), _ate_ipw),
    "front-door": (("t", "mediator"), lambda e, d, a: e.ate_front_door(d, a.y, a.t, a.mediator)),
    "2sls": (("t", "instrument"), lambda e, d, a: e.ate_iv_2sls(d, a.y, a.t, a.instrument)),
    "rdd": (("score", "cutoff"),
            lambda e, d, a: e.ate_rdd(d, a.y, a.score, a.cutoff, a.epsilon)),
}


def cmd_estimate(args) -> dict:
    from . import estimation

    data = _load_dataset(args.data)
    required, estimate = ESTIMATORS[args.method]
    _require(args, args.method, required)
    est = estimate(estimation, data, args)
    payload = {**_fields(est, "estimator", "ate", "diagnostics"), "seed": args.seed}
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
    given = tuple(args.given or ())
    res = kernels.ci_test(args.method, data, args.a, args.b, given, _perms(args), args.seed)
    return {
        **_fields(args, "a", "b", "alpha", "seed"),
        **_fields(res, "method", "statistic", "p_value", "cond_set_size"),
        "given": sorted(given),
        "reject": res.p_value <= args.alpha,
    }


def cmd_mmd(args) -> dict:
    from . import kernels

    d1 = _load_dataset(args.data1)
    d2 = _load_dataset(args.data2)
    res = kernels.mmd(
        None, d1.matrix(d1.columns), d2.matrix(d2.columns), perms=_perms(args), seed=args.seed
    )
    return {**_fields(res, "statistic", "unbiased", "p_value", "seed"),
            "permutations": res.n_permutations}


def cmd_hsic(args) -> dict:
    from . import kernels

    data = _load_dataset(args.data)
    perms = _perms(args)
    res = kernels.hsic_test(
        None, None, data.column(args.x), data.column(args.y), perms=perms, seed=args.seed
    )
    return {**_fields(args, "x", "y", "seed"), **_fields(res, "statistic", "p_value"),
            "permutations": perms}


def cmd_vc_bound(args) -> dict:
    from . import kernels

    value = kernels.vc_bound(args.r_emp, args.h, args.m, args.delta)
    return {**_fields(args, "r_emp", "h", "m", "delta"), "bound": value}


# ---------------------------------------------------------------------------
# Parser


def _arg(*flags, **kwargs):
    return flags, kwargs


def _req(*flags, **kwargs):
    return _arg(*flags, required=True, **kwargs)


# flags that several subcommands declare alike, named by their dest
_COMMON = {
    "data": _req("--data"),
    "n": _req("--n", type=int),
    "seed": _req("--seed", type=int),
    "perms": _arg("--perms", type=int),
    "scm": _req("--scm"),
    "set": _req("--set", action="append", metavar="VAR=VALUE"),
    "given": _arg("--given", nargs="*", default=[]),
}
_CI_METHODS = ["partial-correlation", "kernel-residual"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causelab",
        description="Causal inference batch tool: graphs, SCMs, discovery, estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *specs, out_required=False):
        """A subcommand whose flags, each a _COMMON name or an _arg, come in
        the order given, then --out."""
        p = sub.add_parser(name, help=help)
        for spec in specs:
            flags, kwargs = _COMMON[spec] if isinstance(spec, str) else spec
            p.add_argument(*flags, **kwargs)
        p.add_argument("--out", required=out_required)
        p.set_defaults(handler=handler)

    command("dsep", cmd_dsep, "d-separation query on a graph JSON file",
            _arg("graph"), _arg("a"), _arg("b"), "given")
    command("adjust", cmd_adjust, "enumerate valid adjustment sets",
            _req("--graph"), _req("--treatment"), _req("--outcome"))
    command("count-dags", cmd_count_dags, "number of labeled DAGs on n nodes", "n")
    command("simulate", cmd_simulate, "ancestral sampling from an SCM JSON file",
            "scm", "n", "seed", out_required=True)
    command("intervene", cmd_intervene, "sample or summarize under do()",
            "scm", "set", "n", "seed", _arg("--target"))
    command("counterfactual", cmd_counterfactual, "abduction-action-prediction query",
            "scm", _req("--evidence", action="append", metavar="VAR=VALUE"), "set",
            _req("--target"))
    command("generate", cmd_generate, "scenario dataset plus ground-truth file",
            _req("--scenario"), "n", "seed", out_required=True)
    command("discover", cmd_discover, "structure learning on a CSV dataset",
            "data", _req("--method", choices=list(DISCOVERERS)), _arg("--alpha", type=float),
            _arg("--ci", dest="ci_method", choices=_CI_METHODS),
            _arg("--max-cond", dest="max_cond_size", type=int),
            _arg("--score-model", dest="score", choices=["multinomial", "linear-gaussian"]),
            _arg("--search", choices=["exhaustive", "greedy"]), "perms", "seed",
            _arg("--x"), _arg("--y"))
    command("estimate", cmd_estimate, "treatment-effect estimation on a CSV dataset",
            "data", _req("--method", choices=list(ESTIMATORS)), _req("--y"), _arg("--t"),
            _arg("--z", nargs="*", default=[]), _arg("--mediator"), _arg("--instrument"),
            _arg("--score"), _arg("--cutoff", type=float),
            _arg("--epsilon", type=float, default=0.1),
            _arg("--regressor", default="linear", choices=["linear", "kernel-ridge"]),
            _arg("--propensity-column"), _arg("--clip", type=float), _arg("--seed", type=int))
    command("test-ci", cmd_test_ci, "conditional independence test",
            "data", _req("--a"), _req("--b"), "given",
            _arg("--method", default="partial-correlation", choices=_CI_METHODS),
            _arg("--alpha", type=float, default=0.05), "perms",
            _arg("--seed", type=int, default=0))
    command("mmd", cmd_mmd, "kernel two-sample test between two CSV files",
            _req("--data1"), _req("--data2"), "perms", "seed")
    command("hsic", cmd_hsic, "kernel independence test between two columns",
            "data", _req("--x"), _req("--y"), "perms", "seed")
    command("vc-bound", cmd_vc_bound, "capacity risk bound evaluation",
            _req("--r-emp", type=float), _req("--h", type=int), _req("--m", type=int),
            _req("--delta", type=float))
    return parser


_FILE_PRODUCING = {"simulate", "generate", "intervene"}  # --out is a CSV there


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError(f"seed must be >= 0, got {args.seed}")
        # a non-finite result exits 3 through _emit, not as numpy warnings on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            payload = args.handler(args)
        _emit(payload, None if args.command in _FILE_PRODUCING else args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
