"""The per-layer baselines in ``tools/`` run and keep their output format.

Each tool runs on two repeats of its smallest case (``bench_cli`` on its
``import`` case only) into a scratch ``BENCH_<name>.json`` that already
holds another label.  That label must survive, and the new entry must have
the section names and row fields of the latest committed entry, so old and
new entries stay comparable.
"""

import importlib
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: per tool, the case constants that shrink it to two repeats of its smallest case
SMALLEST = {
    "scan": {"REPEATS": 2, "CALLS": 1, "CASES": ((3, 3.0),), "SURFACES": ("star",)},
    "kacrice": {"REPEATS": 2, "LAMBDAS": (0.0,), "DIMENSIONS": (20,), "X_STEPS": (60,),
                "SURFACES": ("star",)},
    "simulate": {"BUILD_CASES": ((10, 5),), "BUILD_REPEATS": 2,
                 "REPEATS": 2, "CALLS": 1, "CASES": ((30, 4),), "ROWS": (1,),
                 "RECOVERY_FACTORS": (2.0,), "STARTS": 1, "PASSES": 2,
                 "INVENTORY_COUNTS": (30,), "CALL_NS": (4,), "INVENTORY_REPEATS": 2},
    "cli": {"REPEATS": 2, "SUBCOMMANDS": {}},
}


@pytest.fixture(scope="module")
def harness():
    """The harness module, with ``os.environ`` restored after the module's
    tests: importing it pins the thread variables."""
    saved = dict(os.environ)
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        yield importlib.import_module("harness")
    finally:
        sys.path.remove(str(ROOT / "tools"))
        os.environ.clear()
        os.environ.update(saved)


def fields(value):
    """Section names and row fields of an entry, without the values."""
    if isinstance(value, dict):
        return {key: fields(v) for key, v in value.items()}
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return sorted({json.dumps(fields(v), sort_keys=True) for v in value})
    return None


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_tool_writes_the_committed_fields(name, harness, tmp_path, monkeypatch, capsys):
    tool = importlib.import_module(f"bench_{name}")
    for constant, value in SMALLEST[name].items():
        monkeypatch.setattr(tool, constant, value)  # raises if the tool lost it
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [f"bench_{name}.py", "--label", "smallest",
                                      "--src", str(ROOT / "src")])
    out = tmp_path / f"BENCH_{name}.json"
    out.write_text(json.dumps({"other": {"kept": True}}))

    harness.main(name, tool.__doc__, tool.measure)

    data = json.loads(out.read_text())
    assert list(data) == ["other", "smallest"] and data["other"] == {"kept": True}
    committed = json.loads((ROOT / f"BENCH_{name}.json").read_text())
    latest = committed[list(committed)[-1]]
    if name == "cli":
        latest["processes"] = {"import": latest["processes"]["import"]}
    assert fields(data["smallest"]) == fields(latest)
    assert capsys.readouterr().out.startswith("smallest: ")
