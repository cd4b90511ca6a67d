"""The exit-code rule of scripts/seed_sweep.py, on hand-built matrices."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts",
                     "seed_sweep.py")
_SPEC = importlib.util.spec_from_file_location("seed_sweep", _PATH)
seed_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_sweep)


def matrix(status, differs=None):
    out = {"seeds": [0, 2, 10], "status": status}
    if differs is not None:
        out["differs_from"] = differs
    return out


def test_all_pass_is_clean():
    m = matrix({"a": {"0": "Pass", "10": "Pass"}, "b": {"2": "Pass"}},
               {"parent": []})
    assert seed_sweep.gate_failures(m) == []


def test_names_every_case_not_pass_in_seed_order():
    m = matrix({"b": {"10": "Fail", "2": "Inconclusive", "0": "Pass"},
                "a": {"0": "Fail"}})
    assert seed_sweep.gate_failures(m) == [
        "a: Fail at seed 0", "b: Inconclusive at seed 2",
        "b: Fail at seed 10"]


def test_status_differing_from_another_label_fails():
    m = matrix({"a": {"0": "Pass"}}, {"old": ["a"], "parent": []})
    assert seed_sweep.gate_failures(m) == ["a: status differs from old"]


def test_main_writes_the_matrix_then_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(seed_sweep, "sweep", lambda seeds: matrix(
        {"a": {str(s): "Fail" for s in seeds}}))
    out = tmp_path / "m.json"
    code = seed_sweep.main(["--seeds", "0,3", "--label", "x",
                            "--out", str(out)])
    assert code == 1 and out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "a: Fail at seed 0", "a: Fail at seed 3"]
