import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from causelab.cli import main
from causelab.graph import dag_to_json, Dag
from causelab.scm import scm_to_json
from causelab.scenarios import get_scenario


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def _subprocess_env():
    """The environment for a child interpreter that imports this tree's causelab."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def check_schema(payload, name):
    schema = json.loads(
        resources.files("causelab").joinpath(f"schemas/{name}.json").read_text()
    )
    jsonschema.validate(payload, schema)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(dag_to_json(Dag(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])))
    return str(path)


@pytest.fixture
def collider_file(tmp_path):
    path = tmp_path / "collider.json"
    path.write_text(dag_to_json(Dag(["X", "Y", "Z"], [("X", "Y"), ("Z", "Y")])))
    return str(path)


@pytest.fixture
def scm_file(tmp_path):
    path = tmp_path / "scm.json"
    path.write_text(scm_to_json(get_scenario("iv-linear").scm))
    return str(path)


class TestDsep:
    def test_chain_true(self, capsys, chain_file):
        code, payload = run(capsys, "dsep", chain_file, "X", "Z", "--given", "Y")
        assert code == 0 and payload["d_separated"] is True
        check_schema(payload, "dsep")

    def test_collider_given_false(self, capsys, collider_file):
        code, payload = run(capsys, "dsep", collider_file, "X", "Z", "--given", "Y")
        assert code == 0 and payload["d_separated"] is False

    def test_malformed_json_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _ = run(capsys, "dsep", str(bad), "X", "Z")
        assert code == 2


class TestAdjust:
    def test_adjustment_sets_cli(self, capsys, tmp_path):
        from conftest import covariate_web_graph

        path = tmp_path / "g.json"
        path.write_text(dag_to_json(covariate_web_graph()))
        code, payload = run(
            capsys, "adjust", "--graph", str(path), "--treatment", "T",
            "--outcome", "Y",
        )
        assert code == 0
        assert payload["valid_sets"] == [["X1"], ["X2"], ["X1", "X2"]]
        assert payload["parent_set_valid"] is True
        check_schema(payload, "adjust")


class TestCountDags:
    def test_value(self, capsys):
        code, payload = run(capsys, "count-dags", "--n", "10")
        assert code == 0 and payload["count"] == 4175098976430598143
        check_schema(payload, "count_dags")

    def test_largest_n_prints(self, capsys):
        code, payload = run(capsys, "count-dags", "--n", "164")
        assert code == 0 and len(str(payload["count"])) == 4290
        check_schema(payload, "count_dags")

    def test_n_beyond_limit_exit2(self, capsys):
        code, payload = run(capsys, "count-dags", "--n", "200")
        assert code == 2 and payload is None


class TestSimulateInterveneCounterfactual:
    def test_simulate_reproducible(self, capsys, scm_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code, payload = run(
            capsys, "simulate", "--scm", scm_file, "--n", "50", "--seed", "3",
            "--out", str(out1),
        )
        assert code == 0
        check_schema(payload, "simulate")
        run(capsys, "simulate", "--scm", scm_file, "--n", "50", "--seed", "3",
            "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_intervene_mean(self, capsys, scm_file):
        code, payload = run(
            capsys, "intervene", "--scm", scm_file, "--set", "T=1", "--n",
            "20000", "--seed", "4", "--target", "Y",
        )
        assert code == 0
        assert abs(payload["mean"] - 2.0) < 0.05  # Y := H + 2T + U, do(T=1)
        check_schema(payload, "intervene")

    def test_intervene_single_draw_has_null_stderr(self, capsys, scm_file):
        code, payload = run(
            capsys, "intervene", "--scm", scm_file, "--set", "T=1", "--n", "1",
            "--seed", "0", "--target", "Y",
        )
        assert code == 0
        assert math.isfinite(payload["mean"]) and payload["stderr"] is None
        check_schema(payload, "intervene")

    def test_intervene_writes_csv(self, capsys, scm_file, tmp_path):
        out = tmp_path / "post.csv"
        code, payload = run(
            capsys, "intervene", "--scm", scm_file, "--set", "T=1", "--n", "30",
            "--seed", "4", "--out", str(out),
        )
        assert code == 0 and payload["out"] == str(out)
        from causelab.data import Dataset

        post = Dataset.from_csv(out)
        assert set(post.column("T")) == {1.0}

    def test_counterfactual_point(self, capsys, tmp_path):
        from causelab.scm import (
            BinOp, Const, GaussianNoise, Mechanism, NoiseRef, Scm, Var,
        )

        m = Scm(
            variables=("X", "Y"),
            mechanisms={
                "X": Mechanism((), NoiseRef()),
                "Y": Mechanism(
                    ("X",), BinOp("+", BinOp("*", Const(3.0), Var("X")), NoiseRef())
                ),
            },
            noises={"X": GaussianNoise(), "Y": GaussianNoise()},
        )
        path = tmp_path / "pair.json"
        path.write_text(scm_to_json(m))
        code, payload = run(
            capsys, "counterfactual", "--scm", str(path), "--evidence", "X=2",
            "--evidence", "Y=6.5", "--set", "X=1", "--target", "Y",
        )
        assert code == 0
        assert payload["point"] == 3.5
        check_schema(payload, "counterfactual")

    def test_bad_assignment_exit2(self, capsys, scm_file):
        code, _ = run(
            capsys, "intervene", "--scm", scm_file, "--set", "T=abc", "--n", "10",
            "--seed", "0", "--target", "Y",
        )
        assert code == 2


class TestGenerate:
    def test_writes_csv_and_truth(self, capsys, tmp_path):
        out = tmp_path / "data.csv"
        code, payload = run(
            capsys, "generate", "--scenario", "simpson-reversal", "--n", "100",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        check_schema(payload, "generate")
        truth = json.loads(Path(payload["truth"]).read_text())
        check_schema(truth, "truth")
        assert truth["true_ate"] == 1.0
        assert out.read_text().splitlines()[0] == "Z,T,Y"

    def test_bit_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(capsys, "generate", "--scenario", "halfsibling", "--n", "40",
                "--seed", "11", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (
            tmp_path / "b.truth.json"
        ).read_bytes()

    def test_n_zero_header_only(self, capsys, tmp_path):
        out = tmp_path / "empty.csv"
        code, _ = run(capsys, "generate", "--scenario", "iv-linear", "--n", "0",
                      "--seed", "1", "--out", str(out))
        assert code == 0
        assert out.read_text() == "I,T,Y\n"

    def test_unknown_scenario_exit2(self, capsys, tmp_path):
        code = main(["generate", "--scenario", "nope", "--n", "5", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scenario 'nope'; known: anm-nonlinear, ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


class TestDiscoverCli:
    @pytest.fixture
    def collider_csv(self, capsys, tmp_path):
        import numpy as np
        from causelab.data import Dataset

        rng = np.random.default_rng(0)
        x, z = rng.normal(size=4000), rng.normal(size=4000)
        y = x + z + 0.8 * rng.normal(size=4000)
        path = tmp_path / "coll.csv"
        Dataset.from_columns({"X": x, "Y": y, "Z": z}).to_csv(path)
        return str(path)

    def test_pc_report(self, capsys, collider_csv):
        code, payload = run(
            capsys, "discover", "--data", collider_csv, "--method", "pc",
            "--seed", "0",
        )
        assert code == 0
        assert payload["cpdag"]["edges"] == [["X", "Y"], ["Z", "Y"]]
        assert payload["v_structures"] == [["X", "Y", "Z"]]
        check_schema(payload, "discover_skeleton")

    def test_score_report(self, capsys, collider_csv):
        code, payload = run(
            capsys, "discover", "--data", collider_csv, "--method", "score",
            "--score-model", "linear-gaussian", "--seed", "0",
        )
        assert code == 0
        check_schema(payload, "discover_score")
        assert payload["graphs_scored"] == 25

    def test_greedy_linear_gaussian_exits(self, tmp_path):
        from conftest import FIVE_CHAIN, five_column_chain
        from causelab.graph import markov_equivalent

        path = tmp_path / "chain5.csv"
        five_column_chain(2000, 0).to_csv(path)
        res = subprocess.run(
            [sys.executable, "-m", "causelab.cli", "discover", "--data", str(path),
             "--method", "score", "--score-model", "linear-gaussian",
             "--search", "greedy", "--seed", "0"],
            capture_output=True, text=True, env=_subprocess_env(), timeout=120,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        check_schema(payload, "discover_score")
        dag = Dag(payload["dag"]["nodes"], payload["dag"]["edges"])
        assert markov_equivalent(dag, FIVE_CHAIN)

    def test_unset_flags_take_discovery_config_defaults(
        self, capsys, monkeypatch, collider_csv
    ):
        import dataclasses
        from causelab import discovery

        @dataclasses.dataclass(frozen=True)
        class Changed(discovery.DiscoveryConfig):
            alpha: float = 0.01
            score: str = "linear-gaussian"
            search: str = "greedy"

        monkeypatch.setattr(discovery, "DiscoveryConfig", Changed)
        code, payload = run(capsys, "discover", "--data", collider_csv,
                            "--method", "pc", "--seed", "0")
        assert code == 0 and payload["alpha"] == 0.01
        code, payload = run(capsys, "discover", "--data", collider_csv,
                            "--method", "score", "--seed", "0")
        assert code == 0
        assert (payload["score_model"], payload["search"]) == ("linear-gaussian", "greedy")

    def test_anm_report(self, capsys, tmp_path):
        out = tmp_path / "anm.csv"
        run(capsys, "generate", "--scenario", "anm-nonlinear", "--n", "800",
            "--seed", "3", "--out", str(out))
        code, payload = run(
            capsys, "discover", "--data", str(out), "--method", "anm",
            "--x", "X", "--y", "Y", "--seed", "0", "--perms", "199",
        )
        assert code == 0 and payload["direction"] == "forward"
        check_schema(payload, "discover_anm")

    def test_empty_csv_exit2(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("A,B\n")
        code, _ = run(capsys, "discover", "--data", str(path), "--method", "pc",
                      "--seed", "0")
        assert code == 2

    @pytest.mark.parametrize("seed", ["3", "5"])
    def test_halfsibling_pc_skips_cycle_closing_v_structures(self, capsys, tmp_path, seed):
        data = tmp_path / "hs.csv"
        run(capsys, "generate", "--scenario", "halfsibling", "--n", "800",
            "--seed", seed, "--out", str(data))
        res = subprocess.run(
            [sys.executable, "-m", "causelab.cli", "discover", "--data", str(data),
             "--method", "pc", "--alpha", "0.01", "--seed", "0"],
            capture_output=True, text=True, env=_subprocess_env(), timeout=300,
        )
        assert res.returncode == 0, res.stderr
        assert re.search(
            r"^skipping orientation X\d+->X\d+: would close a directed cycle$",
            res.stderr, re.M,
        )
        cpdag = json.loads(res.stdout)["cpdag"]
        Dag(cpdag["nodes"], cpdag["edges"])  # raises on a directed cycle


class TestBadFlagValues:
    @pytest.fixture
    def xyz_csv(self, tmp_path):
        import numpy as np
        from causelab.data import Dataset

        rng = np.random.default_rng(4)
        path = tmp_path / "xyz.csv"
        Dataset.from_columns({c: rng.normal(size=120) for c in "XYZ"}).to_csv(path)
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["discover", "--method", "pc", "--max-cond", "-1"],
            ["discover", "--method", "pc", "--ci", "kernel-residual", "--perms", "0"],
            ["discover", "--method", "anm", "--x", "X", "--y", "Y", "--perms", "0"],
            ["hsic", "--x", "X", "--y", "Y", "--perms", "0"],
            ["hsic", "--x", "X", "--y", "Y", "--perms", "-3"],
            ["test-ci", "--a", "X", "--b", "Y", "--given", "Z",
             "--method", "kernel-residual", "--perms", "0"],
        ],
    )
    def test_exit2_with_one_line(self, capsys, xyz_csv, argv):
        seed = [] if argv[0] == "test-ci" else ["--seed", "0"]
        code = main([argv[0], "--data", xyz_csv, *argv[1:], *seed])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--scenario", "iv-linear", "--n", "50", "--out", "{out}"],
            ["simulate", "--scm", "{scm}", "--n", "50", "--out", "{out}"],
            ["hsic", "--data", "{csv}", "--x", "X", "--y", "Y"],
            ["mmd", "--data1", "{csv}", "--data2", "{csv}"],
            ["test-ci", "--data", "{csv}", "--a", "X", "--b", "Y", "--given", "Z",
             "--method", "kernel-residual"],
            ["discover", "--data", "{csv}", "--method", "anm", "--x", "X", "--y", "Y"],
            ["discover", "--data", "{csv}", "--method", "pc", "--ci", "kernel-residual"],
        ],
        ids=lambda argv: " ".join(a for a in argv[:4] if "{" not in a),
    )
    def test_negative_seed_exit2_with_one_line(self, capsys, tmp_path, scm_file,
                                               xyz_csv, argv):
        paths = {"out": str(tmp_path / "out.csv"), "scm": scm_file, "csv": xyz_csv}
        code = main([a.format(**paths) for a in argv] + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("alpha", ["1.5", "-1", "nan", "0", "1"])
    def test_citest_alpha_outside_unit_interval_exit2(self, capsys, xyz_csv, alpha):
        code = main(["test-ci", "--data", xyz_csv, "--a", "X", "--b", "Y", "--alpha", alpha])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: alpha must lie in (0, 1)\n"

    def test_citest_collinear_variable_exit3(self, capsys, tmp_path):
        import numpy as np
        from causelab.data import Dataset

        x = np.random.default_rng(5).normal(size=100)
        path = tmp_path / "dup.csv"
        Dataset.from_columns({"X": x, "X2": x, "Y": -x}).to_csv(path)
        code = main(["test-ci", "--data", str(path), "--a", "X2", "--b", "Y", "--given", "X"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "precondition failed: degenerate residuals: singular covariance\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--method", "rct", "--y", "Y"], "rct requires --t"),
            (["estimate", "--method", "stratified", "--y", "Y", "--t", "X"],
             "stratified requires --z"),
            (["estimate", "--method", "2sls", "--y", "Y"], "2sls requires --t and --instrument"),
            (["estimate", "--method", "rdd", "--y", "Y"], "rdd requires --score and --cutoff"),
            (["estimate", "--method", "rdd", "--y", "Y", "--cutoff", "0"],
             "rdd requires --score"),
            (["estimate", "--method", "ipw", "--y", "Y", "--t", "X"],
             "ipw requires --z (or --propensity-column)"),
            (["discover", "--method", "anm", "--x", "X", "--seed", "0"], "anm requires --y"),
        ],
    )
    def test_missing_method_flags_exit2_naming_them(self, capsys, xyz_csv, argv, message):
        code = main([argv[0], "--data", xyz_csv, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err == f"error: {message}\n"

    def test_mmd_zero_perms_exit2(self, capsys, xyz_csv):
        code = main(["mmd", "--data1", xyz_csv, "--data2", xyz_csv, "--perms", "0",
                     "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: perms must be >= 1, got 0\n"


class TestEstimateCli:
    def test_2sls_on_scenario(self, capsys, tmp_path):
        out = tmp_path / "iv.csv"
        run(capsys, "generate", "--scenario", "iv-linear", "--n", "10000",
            "--seed", "5", "--out", str(out))
        code, payload = run(
            capsys, "estimate", "--data", str(out), "--method", "2sls",
            "--y", "Y", "--t", "T", "--instrument", "I",
        )
        assert code == 0 and abs(payload["ate"] - 2.0) < 0.1
        check_schema(payload, "estimate")

    def test_frontdoor_on_scenario(self, capsys, tmp_path):
        out = tmp_path / "fd.csv"
        run(capsys, "generate", "--scenario", "frontdoor", "--n", "50000",
            "--seed", "6", "--out", str(out))
        truth = json.loads((tmp_path / "fd.truth.json").read_text())
        code, payload = run(
            capsys, "estimate", "--data", str(out), "--method", "front-door",
            "--y", "Y", "--t", "T", "--mediator", "M",
        )
        assert code == 0
        assert abs(payload["ate"] - truth["true_ate"]) < 0.05

    def test_missing_instrument_exit2(self, capsys, tmp_path):
        out = tmp_path / "iv2.csv"
        run(capsys, "generate", "--scenario", "iv-linear", "--n", "500",
            "--seed", "5", "--out", str(out))
        code, _ = run(capsys, "estimate", "--data", str(out), "--method", "2sls",
                      "--y", "Y", "--t", "T")
        assert code == 2

    def test_weak_instrument_exit3(self, capsys, tmp_path):
        import numpy as np
        from causelab.data import Dataset

        rng = np.random.default_rng(1)
        n = 2000
        h = rng.normal(size=n)
        data = Dataset.from_columns(
            {
                "I": rng.normal(size=n),
                "T": h + rng.normal(size=n),
                "Y": h + rng.normal(size=n),
            }
        )
        path = tmp_path / "weak.csv"
        data.to_csv(path)
        code, _ = run(capsys, "estimate", "--data", str(path), "--method", "2sls",
                      "--y", "Y", "--t", "T", "--instrument", "I")
        assert code == 3


class TestFileFaults:
    def one_line_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err

    def test_graph_edge_without_a_child(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"nodes": ["A", "B"], "edges": [["A"]]}')
        err = self.one_line_error(capsys, ["dsep", str(path), "A", "B"])
        assert err.startswith("error: bad graph JSON: ")

    def test_scm_noise_that_is_not_an_object(self, capsys, tmp_path, scm_file):
        payload = json.loads(Path(scm_file).read_text())
        payload["variables"][0]["noise"] = [1]
        path = tmp_path / "scm.json"
        path.write_text(json.dumps(payload))
        err = self.one_line_error(capsys, ["simulate", "--scm", str(path), "--n", "5",
                                           "--seed", "0", "--out", str(tmp_path / "s.csv")])
        assert err.startswith("error: bad SCM JSON: ")

    @pytest.mark.parametrize(
        "noise",
        [
            {"kind": "finite", "values": [0, 1], "probs": [math.nan, math.nan]},
            {"kind": "gaussian", "mean": 0, "var": math.nan},
            {"kind": "uniform", "lo": 0, "hi": math.inf},
            {"kind": "dirac", "point": math.nan},
        ],
        ids=lambda noise: noise["kind"],
    )
    def test_non_finite_noise_parameter(self, capsys, tmp_path, noise):
        path = tmp_path / "scm.json"
        path.write_text(json.dumps(
            {"variables": [{"name": "X", "parents": [], "expr": ["noise"], "noise": noise}]}
        ))
        err = self.one_line_error(capsys, ["simulate", "--scm", str(path), "--n", "5",
                                           "--seed", "0", "--out", str(tmp_path / "s.csv")])
        assert err.startswith("error: noise parameters must be finite, got [")

    def test_deeply_nested_scm_expression(self, capsys, tmp_path):
        path = tmp_path / "scm.json"
        path.write_text(
            '{"variables": [{"name": "X", "parents": [], "noise": {"kind": "dirac", '
            '"point": 0}, "expr": ' + '["tanh", ' * 5000 + '["noise"]' + "]" * 5000 + "}]}"
        )
        err = self.one_line_error(capsys, ["simulate", "--scm", str(path), "--n", "5",
                                           "--seed", "0", "--out", str(tmp_path / "s.csv")])
        assert err.startswith("error: bad SCM JSON: maximum recursion depth exceeded")

    def test_deeply_nested_graph(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"nodes": ["A", "B"], "edges": ' + "[" * 5000 + "]" * 5000 + "}")
        err = self.one_line_error(capsys, ["dsep", str(path), "A", "B"])
        assert err.startswith("error: bad graph JSON: maximum recursion depth exceeded")

    @pytest.mark.parametrize("kind", ["CPDAG", "CGM"])
    def test_deeply_nested_json_in_library_readers(self, kind):
        from causelab.cgm import cgm_from_json
        from causelab.errors import UsageError
        from causelab.graph import cpdag_from_json

        reader = cpdag_from_json if kind == "CPDAG" else cgm_from_json
        with pytest.raises(UsageError, match=f"bad {kind} JSON: maximum recursion depth"):
            reader('{"nodes": ' + "[" * 5000 + "]" * 5000 + "}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["count-dags", "--n", "3", "--out", "{missing}/res.json"],
            ["generate", "--scenario", "iv-linear", "--n", "50", "--seed", "0",
             "--out", "{missing}/iv.csv"],
        ],
        ids=["json", "csv"],
    )
    def test_out_into_a_missing_directory(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing"
        err = self.one_line_error(capsys, [a.format(missing=missing) for a in argv])
        assert err.startswith(f"error: cannot write '{missing}")
        assert not missing.exists()

    def test_out_naming_a_directory(self, capsys, tmp_path):
        err = self.one_line_error(capsys, ["count-dags", "--n", "3", "--out", str(tmp_path)])
        assert err == f"error: cannot write '{tmp_path}': Is a directory\n"
        assert list(tmp_path.iterdir()) == []


class TestEstimatorInputs:
    @pytest.fixture
    def treated_csv(self, tmp_path):
        import numpy as np
        from causelab.data import Dataset

        rng = np.random.default_rng(8)
        t = (rng.random(400) < 0.5).astype(float)
        path = tmp_path / "treated.csv"
        Dataset.from_columns(
            {"T": t, "Z": rng.normal(size=400), "Y": t + rng.normal(size=400)}
        ).to_csv(path)
        return path

    @pytest.mark.parametrize("level", ["1.0", "0.001"])
    def test_2sls_constant_instrument_exit3(self, capsys, tmp_path, treated_csv, level):
        lines = treated_csv.read_text().splitlines()
        path = tmp_path / "iv.csv"
        path.write_text("\n".join([lines[0] + ",I"] + [row + "," + level for row in lines[1:]]))
        code = main(["estimate", "--data", str(path), "--method", "2sls", "--y", "Y",
                     "--t", "T", "--instrument", "I"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            "precondition failed: constant regressor: the least-squares fit is singular\n"
        )

    def test_regression_on_an_epoch_second_covariate(self, tmp_path):
        """A covariate near 1.7e9, like a time in epoch seconds, gives the
        ATE of the same covariate near 0. A fit on the raw design [1, Z]
        called it singular and exited 3."""
        import numpy as np
        from causelab.data import Dataset

        rng = np.random.default_rng(9)
        t = (rng.random(400) < 0.5).astype(float)
        z = np.round(rng.normal(size=400) * 1024) / 1024  # so z + 1.7e9 is exact
        y = t + 2.0 * z + rng.normal(size=400)
        ates = []
        for offset in (0.0, 1.7e9):
            path = tmp_path / f"z-{offset:.0f}.csv"
            Dataset.from_columns({"T": t, "Z": z + offset, "Y": y}).to_csv(path)
            res = subprocess.run(
                [sys.executable, "-m", "causelab.cli", "estimate", "--data", str(path),
                 "--method", "regression", "--y", "Y", "--t", "T", "--z", "Z"],
                capture_output=True, text=True, env=_subprocess_env(), timeout=120,
            )
            assert res.returncode == 0, res.stderr
            ates.append(json.loads(res.stdout)["ate"])
        assert ates[1] == pytest.approx(ates[0], rel=1e-9)

    @pytest.mark.parametrize("clip", ["-1", "0.7", "0.5", "nan"])
    def test_ipw_clip_outside_its_range_exit2(self, capsys, treated_csv, clip):
        code = main(["estimate", "--data", str(treated_csv), "--method", "ipw",
                     "--y", "Y", "--t", "T", "--z", "Z", "--clip", clip])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: clip must lie in [0, 0.5), got {float(clip)}\n"

    @pytest.mark.parametrize("clip", ["0", "0.49"])
    def test_ipw_clip_inside_its_range(self, capsys, treated_csv, clip):
        code, payload = run(capsys, "estimate", "--data", str(treated_csv), "--method",
                            "ipw", "--y", "Y", "--t", "T", "--z", "Z", "--clip", clip)
        assert code == 0 and payload["diagnostics"]["clip"] == float(clip)


class TestNonFinite:
    def test_infinite_cell_exit2(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("Y,T\n1.0,1\ninf,0\n2.0,1\n0.5,0\n")
        code, payload = run(capsys, "estimate", "--data", str(path), "--method", "rct",
                            "--y", "Y", "--t", "T")
        assert code == 2 and payload is None

    def test_overflowing_result_exit3(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("Y,T\n1e308,1\n1e308,1\n0.0,0\n1.0,0\n")
        out = tmp_path / "res.json"
        code = main(["estimate", "--data", str(path), "--method", "rct",
                     "--y", "Y", "--t", "T", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not out.exists()
        assert captured.err.startswith("precondition failed: non-finite result")

    def test_overflowing_result_is_one_line_without_warnings(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("Y,T\n1e308,1\n1e308,1\n0.0,0\n1.0,0\n")
        res = subprocess.run(
            [sys.executable, "-m", "causelab.cli", "estimate", "--data", str(path),
             "--method", "rct", "--y", "Y", "--t", "T"],
            capture_output=True, text=True, env=_subprocess_env(), timeout=120,
        )
        assert res.returncode == 3 and res.stdout == ""
        assert res.stderr.startswith("precondition failed: non-finite result")
        assert res.stderr.count("\n") == 1

    def test_front_door_empty_cell_is_one_line_without_numpy_reprs(self, tmp_path):
        path = tmp_path / "fd.csv"
        path.write_text("T,M,Y\n0,0,0\n0,0,1\n1,2,0\n1,2,1\n")
        res = subprocess.run(
            [sys.executable, "-m", "causelab.cli", "estimate", "--data", str(path),
             "--method", "front-door", "--y", "Y", "--t", "T", "--mediator", "M"],
            capture_output=True, text=True, env=_subprocess_env(), timeout=120,
        )
        assert res.returncode == 3 and res.stdout == ""
        assert res.stderr == "precondition failed: empty cell (T=0.0, M=2.0)\n"

    def test_non_finite_sample_is_one_line_without_warnings(self, tmp_path):
        path = tmp_path / "sqrt.json"
        path.write_text(json.dumps({"variables": [
            {"name": "X", "parents": [], "expr": ["pow", ["noise"], 0.5],
             "noise": {"kind": "gaussian", "mean": 0, "var": 1}},
        ]}))
        res = subprocess.run(
            [sys.executable, "-m", "causelab.cli", "simulate", "--scm", str(path),
             "--n", "50", "--seed", "0", "--out", str(tmp_path / "s.csv")],
            capture_output=True, text=True, env=_subprocess_env(), timeout=120,
        )
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: column 'X' contains missing or infinite values\n"


class TestCsvEncoding:
    @pytest.fixture
    def xyz_bytes(self):
        import numpy as np
        from causelab.data import Dataset

        rng = np.random.default_rng(9)
        data = Dataset.from_columns({c: rng.normal(size=60) for c in "XYZ"})
        return data.to_csv_text().encode("utf-8")

    def test_non_utf8_byte_exit2_with_one_line(self, capsys, tmp_path, xyz_bytes):
        path = tmp_path / "latin1.csv"
        cut = xyz_bytes.index(b"\n", 100)
        path.write_bytes(xyz_bytes[:cut] + b"\xe9" + xyz_bytes[cut:])
        code = main(["test-ci", "--data", str(path), "--a", "X", "--b", "Y"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: {str(path)!r}: not UTF-8: byte 0xe9 at offset {cut}\n"
        )

    def test_non_utf8_graph_file_exit2_with_one_line(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        text = b'{"nodes": ["A", "B", "C\xe9"], "edges": [["A", "B"]]}'
        path.write_bytes(text)
        offset = text.index(b"\xe9")
        code = main(["dsep", str(path), "A", "B"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {str(path)!r}: not UTF-8: byte 0xe9 at offset {offset}\n"

    def test_cell_over_the_csv_field_limit_exit2_naming_its_line(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        cell = '"' + "7" * 140_000 + '"'
        path.write_text(f"T,Y\n1,2.5\n0,{cell}\n1,3.0\n0,1.0\n", encoding="utf-8")
        code = main(["estimate", "--data", str(path), "--method", "rct", "--y", "Y", "--t", "T"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: {str(path)!r}: line 3: field larger than field limit (131072)\n"
        )

    def test_utf8_bom_does_not_rename_the_first_column(self, capsys, tmp_path, xyz_bytes):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(xyz_bytes)
        bom.write_bytes(b"\xef\xbb\xbf" + xyz_bytes)
        argv = ["--a", "X", "--b", "Y", "--given", "Z"]
        code, payload = run(capsys, "test-ci", "--data", str(bom), *argv)
        assert code == 0
        assert payload == run(capsys, "test-ci", "--data", str(plain), *argv)[1]


class TestKernelCli:
    def test_mmd(self, capsys, tmp_path):
        import numpy as np
        from causelab.data import Dataset

        rng = np.random.default_rng(2)
        Dataset.from_columns({"V": rng.normal(size=200)}).to_csv(tmp_path / "a.csv")
        Dataset.from_columns({"V": rng.normal(2.0, 1.0, size=200)}).to_csv(
            tmp_path / "b.csv"
        )
        code, payload = run(
            capsys, "mmd", "--data1", str(tmp_path / "a.csv"), "--data2",
            str(tmp_path / "b.csv"), "--seed", "0", "--perms", "99",
        )
        assert code == 0 and payload["p_value"] < 0.05
        check_schema(payload, "mmd")

    def test_hsic_and_citest(self, capsys, tmp_path):
        import numpy as np
        from causelab.data import Dataset

        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=300)
        y = x**2 + 0.05 * rng.normal(size=300)
        Dataset.from_columns({"X": x, "Y": y}).to_csv(tmp_path / "xy.csv")
        code, payload = run(
            capsys, "hsic", "--data", str(tmp_path / "xy.csv"), "--x", "X",
            "--y", "Y", "--seed", "0", "--perms", "99",
        )
        assert code == 0 and payload["p_value"] < 0.05
        check_schema(payload, "hsic")
        code, payload = run(
            capsys, "test-ci", "--data", str(tmp_path / "xy.csv"), "--a", "X",
            "--b", "Y",
        )
        assert code == 0
        check_schema(payload, "citest")

    def test_vc_bound(self, capsys):
        code, payload = run(capsys, "vc-bound", "--r-emp", "0.0", "--h", "3",
                            "--m", "1000", "--delta", "0.05")
        assert code == 0
        assert abs(payload["bound"] - 0.16397834353138158) < 1e-12
        check_schema(payload, "vc_bound")

    def test_out_flag_writes_json(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        code, payload = run(capsys, "vc-bound", "--r-emp", "0.0", "--h", "3",
                            "--m", "1000", "--delta", "0.05", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == payload


def _fuzz_texts() -> dict[str, str]:
    """Degenerate and extreme CSV files over the columns T (binary), X, Y, Z."""
    import numpy as np

    rng = np.random.default_rng(10)
    n = 120  # ANM needs 100 rows
    t = (np.arange(n) % 2).astype(float)
    x, z = rng.normal(size=n), rng.normal(size=n)
    base = {"T": t, "X": x, "Y": t + x + rng.normal(size=n), "Z": z}

    def csv(cols, end="\n"):
        rows = zip(*([repr(float(v)) for v in col] for col in cols.values()))
        return end.join([",".join(cols), *(",".join(r) for r in rows)]) + end

    return {
        "empty": "",
        "header-only": "T,X,Y,Z\n",
        "three-rows": csv({k: v[:3] for k, v in base.items()}),
        "crlf": csv(base, "\r\n"),
        "blank-line": csv(base).replace("\n", "\n\n", 7),
        "constant": csv({**base, "X": np.full(n, 2.5)}),
        "duplicate": csv({**base, "Z": x}),
        "one-ulp": csv({**base, "X": np.where(t == 1, 1.0, 1.0000000000000002)}),
        "huge": csv({**base, "Y": np.where(t == 1, 1e308, 0.0)}),
        "plus-minus-huge": csv({**base, "X": np.where(x > 0, 1e308, -1e308)}),
        "spread-1e200": csv({k: v if k == "T" else v * 1e200 for k, v in base.items()}),
        "all-treated": csv({**base, "T": np.ones(n)}),
    }


_FUZZ_TEXTS = _fuzz_texts()


def _subparsers():
    import argparse
    from causelab.cli import build_parser

    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _method_choices(command: str) -> list[str]:
    return next(a.choices for a in _subparsers()[command]._actions if a.dest == "method")


def _fuzz_argvs(path: str) -> list[tuple[list[str], bool]]:
    """(argv, whether a one-column kernel reads X or Y) for each method that
    reads a CSV."""
    from causelab.cli import DISCOVERERS, ESTIMATORS

    est = ["--y", "Y", "--t", "T", "--z", "Z", "--mediator", "X", "--instrument", "X",
           "--score", "X", "--cutoff", "0"]
    seed, perms = ["--seed", "0"], ["--perms", "19"]
    return [
        *((["estimate", "--data", path, "--method", m, *est], False) for m in ESTIMATORS),
        (["estimate", "--data", path, "--method", "regression", "--regressor",
          "kernel-ridge", *est], False),
        *((["discover", "--data", path, "--method", m, "--x", "X", "--y", "Y", *perms, *seed],
           m == "anm") for m in DISCOVERERS),
        (["discover", "--data", path, "--method", "pc", "--ci", "kernel-residual", *perms,
          *seed], True),
        (["discover", "--data", path, "--method", "score", "--score-model",
          "linear-gaussian", *seed], False),
        *((["test-ci", "--data", path, "--a", "X", "--b", "Y", "--given", "Z", "--method", m,
            *perms], m == "kernel-residual") for m in _method_choices("test-ci")),
        (["hsic", "--data", path, "--x", "X", "--y", "Y", *perms, *seed], True),
        # MMD's bandwidth is a median over 4-column rows; where it is finite, a
        # pair an infinite distance apart has kernel value 0, not NaN
        (["mmd", "--data1", path, "--data2", path, *perms, *seed], False),
    ]


# Y := X * X + noise, so an extreme X overflows Y.
_SQUARE_SCM = {"variables": [
    {"name": "X", "parents": [], "noise": {"kind": "gaussian", "mean": 0, "var": 1},
     "expr": ["noise"]},
    {"name": "Y", "parents": ["X"], "noise": {"kind": "gaussian", "mean": 0, "var": 1},
     "expr": ["+", ["*", ["var", "X"], ["var", "X"]], ["noise"]]},
]}
_GRAPH = {"nodes": ["A", "B", "M", "T", "Y"],
          "edges": [["A", "T"], ["A", "M"], ["B", "M"], ["B", "Y"], ["T", "Y"]]}
_OTHER_ARGVS = [
    ["dsep", "{graph}", "T", "B", "--given", "M"],
    ["dsep", "{graph}", "T", "T"],
    ["adjust", "--graph", "{graph}", "--treatment", "T", "--outcome", "Y"],
    ["count-dags", "--n", "0"],
    ["count-dags", "--n", "165"],
    ["simulate", "--scm", "{scm}", "--n", "0", "--seed", "0", "--out", "{tmp}/s.csv"],
    ["intervene", "--scm", "{scm}", "--set", "X=1e308", "--n", "10", "--seed", "0",
     "--target", "Y"],
    ["intervene", "--scm", "{scm}", "--set", "X=nan", "--n", "3", "--seed", "0",
     "--out", "{tmp}/i.csv"],
    ["counterfactual", "--scm", "{scm}", "--evidence", "X=1e308", "--evidence", "Y=0",
     "--set", "X=1e200", "--target", "Y"],
    ["generate", "--scenario", "anm-nonlinear", "--n", "1", "--seed", "0",
     "--out", "{tmp}/g.csv"],
    ["vc-bound", "--r-emp", "0", "--h", "1000000000", "--m", "1", "--delta", "1e-300"],
    ["vc-bound", "--r-emp", "nan", "--h", "3", "--m", "1000", "--delta", "0.05"],
]


class TestFuzz:
    """Every subcommand and every estimate, discover and test-ci method, on
    degenerate and extreme input, exits 0, or 2 or 3 with one stderr line.
    None ends in a traceback or a warning, and no one-column kernel exits 0
    on a column whose spread overflows."""

    OVERFLOW = {"huge", "plus-minus-huge", "spread-1e200"}

    @staticmethod
    def fault(capsys, argv, kernel=False) -> str | None:
        """What is wrong with running argv, or None."""
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except Exception as exc:  # a traceback at the command line
                return f"raised {type(exc).__name__}: {exc}"
        captured = capsys.readouterr()
        if caught:
            return f"warned {caught[0].message}"
        if code == 0:
            json.loads(captured.out)
            return "exit 0 on an overflowing spread" if kernel else None
        if code not in (2, 3) or captured.out or captured.err.count("\n") != 1:
            return f"exit {code}, stderr {captured.err!r}"
        return None

    def test_every_subcommand_and_method_is_fuzzed(self):
        from causelab.cli import DISCOVERERS, ESTIMATORS

        argvs = [argv for argv, _ in _fuzz_argvs("f.csv")] + _OTHER_ARGVS
        assert {argv[0] for argv in argvs} == set(_subparsers())
        for command, table in (("estimate", ESTIMATORS), ("discover", DISCOVERERS)):
            methods = {argv[argv.index("--method") + 1] for argv in argvs if argv[0] == command}
            assert methods == set(table) == set(_method_choices(command))

    @pytest.mark.parametrize("name", list(_FUZZ_TEXTS))
    def test_csv_inputs(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(_FUZZ_TEXTS[name].encode())
        faults = []
        for argv, kernel in _fuzz_argvs(str(path)):
            fault = self.fault(capsys, argv, kernel and name in self.OVERFLOW)
            if fault:
                faults.append(f"{' '.join(argv).replace(str(path), name)}: {fault}")
        assert not faults, "\n".join(faults)

    def test_graph_scm_and_flag_inputs(self, capsys, tmp_path):
        paths = {"graph": tmp_path / "g.json", "scm": tmp_path / "scm.json", "tmp": tmp_path}
        paths["graph"].write_text(json.dumps(_GRAPH))
        paths["scm"].write_text(json.dumps(_SQUARE_SCM))
        faults = []
        for argv in _OTHER_ARGVS:
            argv = [a.format(**paths) for a in argv]
            fault = self.fault(capsys, argv)
            if fault:
                faults.append(f"{' '.join(argv)}: {fault}")
        assert not faults, "\n".join(faults)


class TestImports:
    """Each subcommand imports only the library modules it runs."""

    HEAVY = {"scm", "cgm", "scenarios", "estimation", "discovery", "graph"}

    @staticmethod
    def loaded_after(argv):
        code = (
            "import contextlib, io, sys\n"
            "from causelab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(sorted(m[9:] for m in sys.modules if m.startswith('causelab.')))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=_subprocess_env())
        return set(json.loads(out.stdout.replace("'", '"')))

    def test_kernel_subcommands_load_only_data_and_kernels(self, tmp_path):
        import numpy as np
        from causelab.data import Dataset

        rng = np.random.default_rng(6)
        path = str(tmp_path / "xyz.csv")
        Dataset.from_columns({c: rng.normal(size=60) for c in "XYZ"}).to_csv(path)
        for argv in (
            ["hsic", "--data", path, "--x", "X", "--y", "Y", "--perms", "9", "--seed", "0"],
            ["mmd", "--data1", path, "--data2", path, "--perms", "9", "--seed", "0"],
            ["test-ci", "--data", path, "--a", "X", "--b", "Y", "--given", "Z"],
        ):
            loaded = self.loaded_after(argv)
            assert "kernels" in loaded and not loaded & self.HEAVY, (argv[0], loaded)

    def test_count_dags_loads_graph_only(self):
        loaded = self.loaded_after(["count-dags", "--n", "3"])
        assert "graph" in loaded and not loaded & (self.HEAVY - {"graph"})

    def test_late_import_keeps_no_wrapped_function(self, tmp_path):
        """A function wrapped in place while `generate` first imports
        scenarios is not kept once it is unwrapped."""
        out = str(tmp_path / "g.csv")
        code = (
            "import contextlib, io\n"
            "from causelab import cli, scm\n"
            "calls = []\n"
            "original = scm.sample\n"
            "scm.sample = lambda *a, **k: calls.append(1) or original(*a, **k)\n"
            f"argv = ['generate', '--scenario', 'iv-linear', '--n', '20', '--seed', '1', '--out', {out!r}]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(argv)\n"
            "    scm.sample = original\n"
            "    cli.main(argv)\n"
            "print(len(calls))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_subprocess_env())
        assert res.returncode == 0 and res.stdout == "1\n", res.stderr

    def test_package_names_resolve(self):
        code = (
            "import causelab, causelab.discovery\n"
            "cgm = causelab.cgm\n"
            "for name in causelab.__all__: getattr(causelab, name)\n"
            "for name in ['cli', 'data', 'discovery', 'errors', 'estimation', 'graph',\n"
            "             'kernels', 'scenarios', 'scm']:\n"
            "    assert getattr(causelab, name).__name__ == 'causelab.' + name\n"
            "space = {}\n"
            "exec('from causelab import *', space)\n"
            "assert set(causelab.__all__) <= set(space)\n"
            "assert space['Dag'] is causelab.graph.Dag\n"
            "try:\n"
            "    causelab.nope\n"
            "except AttributeError:\n"
            "    print('ok')\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_subprocess_env())
        assert out.returncode == 0 and out.stdout == "ok\n", out.stderr
