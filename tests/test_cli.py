"""Command-line interface: dispatch, envelopes, exit codes."""

import json
import math

import pytest

from infcone import cli
from infcone.cli import main
from infcone.sets import ClosedSet, ProjectionFailure

PROBLEM = {
    "sets": {
        "Half": {"dim": 2, "where": "v1 >= v2", "unbounded": True},
        "Left": {"dim": 2, "where": "v1 <= 0"},
    },
    "functions": {"Square": {"n": 1, "value": "v1^2"}},
    "mappings": {"Id": {"n": 1, "m": 1, "graph": "v2 == v1"}},
    "cones": {"Pos": {"generators": [[1.0]], "interior_point": [1.0]}},
    "config": {"shells": 6, "samples_per_shell": 400,
               "probes_per_level": 60},
}


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "prob.json"
    p.write_text(json.dumps(PROBLEM))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_validate(self, problem_file, capsys):
        code, out, _ = run(capsys, "validate", "--problem", problem_file)
        assert code == 0
        env = json.loads(out)
        assert env["command"] == "validate"
        assert env["result"]["sets"] == ["Half", "Left"]
        assert env["config"]["shells"] == 6  # problem config echoed

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "--problem", "/no/such.json")
        assert code == 2
        assert "error" in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sets": {')
        code, _, err = run(capsys, "validate", "--problem", str(bad))
        assert code == 2
        assert "E_SYNTAX" in err

    def test_unknown_set_exit_2(self, problem_file, capsys):
        code, _, err = run(capsys, "project", "--problem", problem_file,
                           "--set", "Nope", "--point", "1 0")
        assert code == 2

    def test_missing_point_exit_2(self, problem_file, capsys):
        code, _, _ = run(capsys, "normal-cone", "--problem", problem_file,
                         "--set", "Left")
        assert code == 2

    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_total_flag_rejected(self, problem_file, capsys):
        # the total cone is --at-infinity without --ybar; there is no flag
        code, _, err = run(capsys, "normal-cone", "--problem", problem_file,
                           "--set", "Half", "--at-infinity", "--total")
        assert code == 2
        assert "--total" in err

    @pytest.mark.parametrize("flags", [
        ("--r-lo", "1", "--r-hi", "inf"),
        ("--r-lo", "nan", "--r-hi", "2"),
        ("--r-lo", "1", "--r-hi", "2", "--count", "-5"),
        ("--r-lo", "1", "--r-hi", "2", "--count", "0"),
    ])
    def test_bad_shell_or_count_exit_2(self, problem_file, capsys, flags):
        code, out, err = run(capsys, "sample-set", "--problem", problem_file,
                             "--set", "Half", *flags)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "SetError"


class TestCommands:
    def test_project(self, problem_file, capsys):
        code, out, _ = run(capsys, "project", "--problem", problem_file,
                           "--set", "Left", "--point", "3,1")
        assert code == 0
        env = json.loads(out)
        assert env["result"]["dist"] == pytest.approx(3.0, abs=1e-6)

    def test_sample_set_csv(self, problem_file, tmp_path, capsys):
        csv = tmp_path / "pts.csv"
        code, out, _ = run(capsys, "sample-set", "--problem", problem_file,
                           "--set", "Half", "--r-lo", "5", "--r-hi", "10",
                           "--count", "50", "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "idx,coord0,coord1"
        assert len(lines) > 10

    def test_normal_cone_point(self, problem_file, capsys):
        code, out, _ = run(capsys, "normal-cone", "--problem", problem_file,
                           "--set", "Left", "--x", "0 1")
        assert code == 0
        cone = json.loads(out)["result"]["cone"]
        assert cone["status"] == "rays"

    def test_coderivative_point_slice(self, problem_file, capsys):
        code, out, _ = run(capsys, "coderivative", "--problem", problem_file,
                           "--map", "Id", "--x", "1", "--y", "1",
                           "--v", "1")
        assert code == 0
        env = json.loads(out)
        sl = env["result"]["slices"][0]["slice"]
        assert any(abs(p[0] - 1.0) <= 0.05 for p in sl["points"])

    def test_subdiff_point(self, problem_file, capsys):
        code, out, _ = run(capsys, "subdiff", "--problem", problem_file,
                           "--function", "Square", "--x", "1")
        assert code == 0
        env = json.loads(out)
        assert any(abs(p[0] - 2.0) <= 0.05
                   for p in env["result"]["basic"]["points"])

    def test_out_file(self, problem_file, tmp_path, capsys):
        dst = tmp_path / "report.json"
        code, out, _ = run(capsys, "validate", "--problem", problem_file,
                           "--out", str(dst))
        assert code == 0
        assert out == ""
        env = json.loads(dst.read_text())
        assert env["command"] == "validate"

    def test_seed_override(self, problem_file, capsys):
        code, out, _ = run(capsys, "validate", "--problem", problem_file,
                           "--seed", "7")
        assert json.loads(out)["config"]["seed"] == 7

    def test_threads_default_one(self, problem_file, capsys, monkeypatch):
        monkeypatch.delenv("INFCONE_THREADS", raising=False)
        code, out, _ = run(capsys, "validate", "--problem", problem_file)
        assert json.loads(out)["config"]["threads"] == 1
        monkeypatch.setenv("INFCONE_THREADS", "3")
        code, out, _ = run(capsys, "validate", "--problem", problem_file)
        assert json.loads(out)["config"]["threads"] == 3
        code, out, _ = run(capsys, "validate", "--problem", problem_file,
                           "--threads", "2")
        assert json.loads(out)["config"]["threads"] == 2

    def test_project_failure_is_strict_json(self, problem_file, capsys,
                                            monkeypatch):
        def fail(self, q, cfg, starts=None):
            raise ProjectionFailure("no finite SLSQP start", math.inf)

        monkeypatch.setattr(ClosedSet, "project", fail)
        code, out, _ = run(capsys, "project", "--problem", problem_file,
                           "--set", "Left", "--point", "3,1")
        assert code == 3
        env = json.loads(out, parse_constant=reject)
        assert env["result"]["best_residual"] == "inf"

    def test_fermat_single_verdict(self, tmp_path, capsys):
        # F(x) = {exp(-x^2)}: 0 is weakly efficient at infinity, c* = 1
        doc = {"mappings": {"FlatTail": {"n": 1, "m": 1,
                                         "graph": "v2 == exp(-v1^2)"}},
               "cones": {"Pos": {"generators": [[1.0]],
                                 "interior_point": [1.0]}},
               "config": {"shells": 6, "samples_per_shell": 600,
                          "probes_per_level": 80}}
        prob = tmp_path / "fermat.json"
        prob.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "fermat", "--problem", str(prob),
                           "--map", "FlatTail", "--cone", "Pos",
                           "--ybar", "0")
        assert code == 0
        env = json.loads(out)
        verdict = env["result"]["verdict"]
        assert verdict["status"] == "Pass"
        assert verdict["diagnostics"]["c_star"][0] == \
            pytest.approx(1.0, abs=0.05)
        assert env["verdicts"] and set(env["verdicts"]) == {"Pass"}

    @pytest.mark.parametrize("graph", ["v2 == v1 && v3 == 0",
                                       "v1 == 0 && v2 == 0 && v3 == 0"],
                             ids=["values", "empty-shells"])
    def test_fermat_spanning_cone_exit_2(self, tmp_path, capsys, graph):
        # generators 120 degrees apart positively span the plane; the
        # second graph puts no value in any weak-efficiency shell
        doc = {"mappings": {"Pair": {"n": 1, "m": 2, "graph": graph}},
               "cones": {"Tri": {"generators": [[1, 0], [-0.5, 0.866],
                                                [-0.5, -0.866]],
                                 "interior_point": [1, 0]}},
               "config": PROBLEM["config"]}
        prob = tmp_path / "span.json"
        prob.write_text(json.dumps(doc))
        code, out, err = run(capsys, "fermat", "--problem", str(prob),
                             "--map", "Pair", "--cone", "Tri",
                             "--ybar", "0 0")
        assert code == 2
        assert out == ""
        assert "not pointed" in json.loads(err)["message"]


def reject(name):
    raise ValueError("non-JSON constant %s" % name)


class TestConfigValues:
    """Config values no sampling rule can use exit 2 with the key's path."""

    def normal_cone(self, tmp_path, capsys, config, *extra):
        doc = dict(PROBLEM, config=dict(PROBLEM["config"], **config))
        prob = tmp_path / "cfg.json"
        prob.write_text(json.dumps(doc))
        return run(capsys, "normal-cone", "--problem", str(prob),
                   "--set", "Half", "--at-infinity", *extra)

    @pytest.mark.parametrize("config, path", [
        ({"shells": -3}, "config.shells"),
        ({"persistence_window": 0}, "config.persistence_window"),
        ({"shells": 3, "persistence_window": 3}, "config.shells"),
        ({"no_such_key": 1}, "config.no_such_key"),
        ({"radius_factor": 1.0}, "config.radius_factor"),
        ({"ang_tol": 0}, "config.ang_tol"),
        ({"samples_per_shell": 2.5}, "config.samples_per_shell"),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, config, path):
        code, out, err = self.normal_cone(tmp_path, capsys, config)
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith(path + ":")

    def test_bad_threads_exit_2(self, tmp_path, capsys):
        code, _, err = self.normal_cone(tmp_path, capsys, {}, "--threads",
                                        "0")
        assert code == 2
        assert json.loads(err)["message"].startswith("config.threads:")
        code, _, err = run(capsys, "verify", "--case", "ex-halfplane",
                           "--threads", "-1")
        assert code == 2
        assert json.loads(err)["message"].startswith("config.threads:")

    def test_good_values_run(self, tmp_path, capsys):
        code, out, _ = self.normal_cone(tmp_path, capsys,
                                        {"shells": 4, "persistence_window": 3})
        assert code == 0
        res = json.loads(out)["result"]
        assert res["shells_used"] == 4
        assert res["diagnostics"]["samples_per_shell"][0] > 0


class TestPointLength:
    """A point or vector of the wrong length exits 2 with its flag named,
    before any computation (it used to crash in the DSL evaluator)."""

    @pytest.mark.parametrize("argv, flag", [
        (["project", "--set", "Half", "--point", "-3"], "--point"),
        (["normal-cone", "--set", "Half", "--x", "1"], "--x"),
        (["normal-cone", "--set", "Half", "--at-infinity", "--ybar", "0 0"],
         "--ybar"),
        (["coderivative", "--map", "Id", "--x", "1 2", "--y", "1"], "--x"),
        (["coderivative", "--map", "Id", "--x", "1", "--y", "1",
          "--v", "1 1"], "--v"),
        (["coderivative", "--map", "Id", "--at-infinity", "--ybar", ""],
         "--ybar"),
        (["jelonek", "--map", "Id", "--window", "-1"], "--window"),
        (["subdiff", "--function", "Square", "--x", "1 2"], "--x"),
        (["subdiff", "--function", "Square", "--at-infinity",
          "--ybar", "0 0"], "--ybar"),
        (["wellposed", "--map", "Id", "--ybar", "0 0"], "--ybar"),
        (["criterion", "--map", "Id", "--ybar", "0 0"], "--ybar"),
        (["fermat", "--map", "Id", "--cone", "Pos", "--ybar", "0 0"],
         "--ybar"),
    ], ids=["project", "normal-cone", "normal-cone-ybar", "coderivative",
            "coderivative-v", "coderivative-ybar", "jelonek", "subdiff",
            "subdiff-ybar", "wellposed", "criterion", "fermat"])
    def test_wrong_length_exit_2(self, problem_file, capsys, argv, flag):
        code, out, err = run(capsys, *argv, "--problem", problem_file)
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith(flag + " needs ")


class TestBadDocuments:
    """Documents of the wrong shape exit 2 with the offending JSON path."""

    @pytest.mark.parametrize("doc, path", [
        ({"sets": {"A": 5}}, "sets.A"),
        ({"mappings": {"F": {"n": 1, "m": 1,
                             "discrete": {"domain": "naturals"}}}},
         "mappings.F.discrete"),
        ({"sets": {"A": {"dim": 1, "where": 5}}}, "sets.A.where"),
        ({"sets": {"A": {"dim": 1,
                         "where": "(" * 2000 + "v1" + ")" * 2000 + " >= 0"}}},
         "sets.A"),
        ({"config": [1]}, "config"),
        ({"sets": {"A": {"dim": 100000000, "where": "v1 >= 0"}}},
         "sets.A.dim"),
        ({"mappings": {"F": {"n": 1, "m": 65, "graph": "v2 == v1"}}},
         "mappings.F.m"),
    ], ids=["set-not-object", "discrete-without-atom", "where-not-string",
            "deep-parentheses", "config-not-object", "dim-too-large",
            "m-too-large"])
    def test_exit_2_with_path(self, tmp_path, capsys, doc, path):
        prob = tmp_path / "bad.json"
        prob.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--problem", str(prob))
        assert code == 2 and out == ""
        (diag,) = json.loads(err)["diagnostics"]
        assert diag.endswith("(%s)" % path) or "(%s:" % path in diag


class TestStrictJson:
    def test_emit_non_finite(self, problem_file, capsys, monkeypatch):
        def handler(args, prob, cfg):
            return {"x": math.inf, "y": [-math.inf, math.nan, 1.5]}, []

        monkeypatch.setitem(cli._HANDLERS, "validate", handler)
        code, out, _ = run(capsys, "validate", "--problem", problem_file)
        assert code == 0
        env = json.loads(out, parse_constant=reject)
        assert env["result"] == {"x": "inf", "y": ["-inf", "nan", 1.5]}

    def test_verify_summary_non_finite(self, tmp_path, capsys, monkeypatch):
        def suite(filter=None, cfg=None, progress=None):
            return {"cases": [{"name": "c", "distance": math.inf}],
                    "counts": {"fail": 0}}

        monkeypatch.setattr(cli, "run_paper_suite", suite)
        dst = tmp_path / "summary.json"
        code, out, _ = run(capsys, "verify", "--out", str(dst))
        assert code == 0
        for text in (out, dst.read_text()):
            summary = json.loads(text, parse_constant=reject)
            assert summary["cases"][0]["distance"] == "inf"


class TestVerify:
    def test_single_case(self, capsys, monkeypatch):
        monkeypatch.setenv("INFCONE_THREADS", "1")
        code, out, err = run(capsys, "verify", "--case", "ex-halfplane")
        assert code == 0
        summary = json.loads(out)
        assert summary["counts"]["fail"] == 0
        names = [c["name"] for c in summary["cases"]]
        assert names and all(n.startswith("ex-halfplane") for n in names)

    def test_empty_filter_warns(self, capsys):
        code, out, err = run(capsys, "verify", "--case", "zzz-no-match")
        assert code == 0
        assert "no case matches" in err
