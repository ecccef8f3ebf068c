"""End-to-end tests for the command-line interface."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from ltpal.cli import _build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


@pytest.fixture(scope="module")
def ts_file(tmp_path_factory):
    target = tmp_path_factory.mktemp("cli") / "ts.json"
    code = main([
        "build",
        "--frames", str(DATA / "demo_frames.json"),
        "--output", str(target),
    ])
    assert code == 0
    return str(target)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_build_reports_summary(tmp_path, capsys):
    out = tmp_path / "ts.json"
    code, payload, err = _run(capsys, [
        "build", "--frames", str(DATA / "demo_frames.json"), "--output", str(out),
    ])
    assert code == 0
    assert payload == {
        "frames": 2, "states": 7, "edges": 11, "total_paths": 6,
        "output": str(out),
    }
    assert out.exists()
    assert err == ""


def test_build_notes_renaming(tmp_path, capsys):
    frames = {
        "agents": ["a"],
        "frames": [
            {"worlds": [{"id": "w00", "atoms": []}]},
            {"worlds": [{"id": "q", "atoms": []}]},
        ],
    }
    source = tmp_path / "frames.json"
    source.write_text(json.dumps(frames))
    out = tmp_path / "ts.json"
    code, payload, err = _run(capsys, [
        "build", "--frames", str(source), "--output", str(out),
    ])
    assert code == 0
    assert "prefixed" in err
    data = json.loads(out.read_text())
    real_ids = [w["id"] for layer in data["layers"][1:-1] for w in layer["worlds"]]
    assert real_ids == ["L1_w00", "L2_q"]


def test_build_with_rules(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({
        "rules": [{"class": "Cat", "implies": ["Animal"]}]
    }))
    out = tmp_path / "ts.json"
    code, payload, err = _run(capsys, [
        "build", "--frames", str(DATA / "demo_frames.json"),
        "--rules", str(rules), "--output", str(out),
    ])
    assert code == 0
    worlds = json.loads(out.read_text())["layers"][1]["worlds"]
    assert ["v1", "Animal"] in worlds[0]["atoms"]


def test_paths_lists_in_order(ts_file, capsys):
    code, payload, _ = _run(capsys, ["paths", "--ts", ts_file])
    assert code == 0
    assert payload["count"] == 6
    assert payload["paths"][0] == ["w00", "w10", "w20", "w30"]
    assert payload["truncated"] is False
    code, payload, _ = _run(capsys, ["paths", "--ts", ts_file, "--max", "2"])
    assert len(payload["paths"]) == 2
    assert payload["truncated"] is True


def test_check_all_paths_exit_codes(ts_file, capsys):
    code, payload, _ = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "F (v2:Cat | v2:Dog)",
    ])
    assert code == 0
    assert payload["result"] is True
    assert payload["witness"] is None
    assert payload["paths_checked"] == 6
    code, payload, _ = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "F v2:Cat",
    ])
    assert code == 1
    assert payload["result"] is False
    assert payload["witness"] == ["w00", "w10", "w21", "w30"]


def test_check_single_path(ts_file, capsys):
    code, payload, _ = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "F v2:Dog", "--path-index", "1",
    ])
    assert code == 0
    assert payload["path"] == ["w00", "w10", "w21", "w30"]
    code, _, err = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "true", "--path-index", "9",
    ])
    assert code == 2
    assert "out of range" in err


def test_check_group_alias_expansion(ts_file, capsys):
    code, payload, _ = _run(capsys, [
        "check", "--ts", ts_file, "--skip-dummies",
        "--formula", "D{both} v1:Cat | X v2:Cat",
    ])
    assert code == 1
    assert payload["witness"] == ["w00", "w11", "w21", "w30"]


def test_check_undecided_via_env_cap(ts_file, capsys, monkeypatch):
    monkeypatch.setenv("LTPAL_PATH_CAP", "2")
    code, payload, _ = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "F (v2:Cat | v2:Dog)",
    ])
    assert code == 3
    assert payload["result"] is None
    assert payload["capped"] is True
    assert payload["paths_checked"] == 2
    monkeypatch.setenv("LTPAL_PATH_CAP", "not-a-number")
    code, _, err = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "true",
    ])
    assert code == 2
    assert "LTPAL_PATH_CAP" in err


def test_check_mppe_only(ts_file, capsys):
    code, payload, err = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "F v2:Cat", "--mppe-only",
        "--scores", str(DATA / "demo_scores.json"),
    ])
    assert code == 0
    assert payload["path"] == ["w00", "w10", "w20", "w30"]
    assert payload["score"] == pytest.approx(0.032, abs=1e-9)
    # Without scores the built-in scorer kicks in, with a note.
    code, payload, err = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "true", "--mppe-only",
    ])
    assert code == 0
    assert "overlap scorer" in err


def test_check_usage_errors(ts_file, capsys):
    code, _, err = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "p & &",
    ])
    assert code == 2
    assert "error:" in err
    code, _, err = _run(capsys, [
        "check", "--ts", ts_file, "--formula", "true", "--scores", "x.json",
    ])
    assert code == 2
    assert "--mppe-only" in err
    code, _, err = _run(capsys, [
        "check", "--ts", "/nonexistent.json", "--formula", "true",
    ])
    assert code == 2


def test_classify_verified_and_possible(ts_file, capsys):
    code, payload, _ = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "verified",
        "--template", "F ?1", "--atoms", "v1:Cat",
        "--group", "both", "--skip-dummies",
    ])
    assert code == 1
    assert payload["mode"] == "verified_group"
    assert payload["group"] == ["a", "b"]
    assert payload["witness"] == ["w00", "w11", "w20", "w30"]
    code, payload, _ = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "possible",
        "--template", "F ?1", "--atoms", "v1:Dog",
        "--group", "a,b", "--skip-dummies",
    ])
    assert code == 0
    assert payload["result"] is True


def test_classify_agent_modes(ts_file, capsys):
    code, payload, _ = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "robust",
        "--template", "F ?1", "--atoms", "v1:Cat",
        "--agent", "a", "--skip-dummies",
    ])
    assert code == 1
    code, payload, _ = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "possible-agent",
        "--template", "F ?1", "--atoms", "v1:Dog",
        "--agent", "a", "--skip-dummies",
    ])
    assert code == 0


def test_classify_multi_slot_atoms_split(ts_file, capsys):
    code, payload, _ = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "verified",
        "--template", "G (?1 -> X ?2)",
        "--atoms", "v1:Cat | v1:Dog, v2:Cat | v2:Dog",
        "--group", "both", "--skip-dummies",
    ])
    assert code in (0, 1)
    assert payload["mode"] == "verified_group"


def test_classify_missing_mode(ts_file, tmp_path, capsys):
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps({"candidates": ["true", "false", "v1:Cat"]}))
    code, payload, _ = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "missing-verified",
        "--template", "X ?1", "--atoms", "v1:Cat",
        "--group", "both", "--candidates", str(candidates),
    ])
    assert code == 0
    assert payload["mode"] == "missing_verified"
    assert payload["result"] is True
    assert "false" in payload["qualifying"]
    assert "true" not in payload["qualifying"]


def test_classify_mppe_only_restricts(ts_file, capsys):
    code, payload, err = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "verified",
        "--template", "F ?1", "--atoms", "v1:Cat",
        "--group", "both", "--skip-dummies", "--mppe-only",
        "--scores", str(DATA / "demo_scores.json"),
    ])
    assert code == 0  # the most probable path does satisfy the template
    assert payload["restricted"] is True
    assert payload["paths_checked"] == 1


def test_classify_usage_errors(ts_file, tmp_path, capsys):
    code, _, err = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "missing-verified",
        "--template", "X ?1", "--atoms", "v1:Cat", "--group", "both",
    ])
    assert code == 2
    assert "--candidates" in err
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps({"candidates": ["true"]}))
    code, _, err = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "verified",
        "--template", "X ?1", "--atoms", "v1:Cat", "--group", "both",
        "--candidates", str(candidates),
    ])
    assert code == 2
    code, _, err = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "robust",
        "--template", "X ?1", "--atoms", "v1:Cat", "--group", "both",
    ])
    assert code == 2
    assert "--agent" in err
    code, _, err = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "verified",
        "--template", "X ?1", "--atoms", "v1:Cat, ", "--group", "both",
    ])
    assert code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", "--ts", ts_file, "--mode", "verified",
              "--template", "X ?1", "--atoms", "p",
              "--group", "both", "--agent", "a"])
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_mppe_with_scores_file(ts_file, tmp_path, capsys):
    corrected_file = tmp_path / "corrected.json"
    code, payload, _ = _run(capsys, [
        "mppe", "--ts", ts_file, "--scores", str(DATA / "demo_scores.json"),
        "--emit-corrected", str(corrected_file),
    ])
    assert code == 0
    assert payload["path"] == ["w00", "w10", "w20", "w30"]
    assert payload["score"] == pytest.approx(0.032, abs=1e-9)
    assert payload["corrected"][0] == {
        "frame": 1, "world": "w10", "atoms": [["v1", "Cat"]],
    }
    assert json.loads(corrected_file.read_text())["corrected"] == payload["corrected"]


def test_mppe_with_default_scorer(ts_file, capsys):
    code, payload, err = _run(capsys, ["mppe", "--ts", ts_file])
    assert code == 0
    assert len(payload["path"]) == 4
    assert 0 < payload["score"] <= 1
    assert "overlap scorer" in err


def test_mppe_with_external_scorer(ts_file, capsys):
    import sys
    scorer = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    print(json.dumps({'score': 0.5}), flush=True)\n"
    )
    cmd = f"{sys.executable} -c \"{scorer}\""
    code, payload, _ = _run(capsys, [
        "mppe", "--ts", ts_file, "--scorer-cmd", cmd,
    ])
    assert code == 0
    # All real edges tie at 0.5 and dummy edges pin 1.0, so the
    # lexicographically least path wins with a single scored hop.
    assert payload["path"] == ["w00", "w10", "w20", "w30"]
    assert payload["score"] == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["check", "--formula", "!" * 3000 + "v1:Cat"],
    ["check", "--formula", "X " * 1500 + "v1:Cat"],
    ["classify", "--mode", "verified", "--group", "both", "--atoms", "v1:Cat",
     "--template", "!" * 3000 + "?1"],
], ids=["check-not", "check-next", "classify-not"])
def test_deep_formulas_are_usage_errors(ts_file, capsys, argv):
    # Exit 1 would read as "false"; an input too deep to evaluate is an error.
    code, payload, err = _run(capsys, [argv[0], "--ts", ts_file, *argv[1:]])
    assert code == 2
    assert payload is None
    assert err.startswith("error:")
    assert err.count("\n") == 1


def _readme_sh_block(marker: str) -> list:
    """Lines of the first ```sh block after `marker` in the README."""
    text = (ROOT / "README.md").read_text()
    after = text.split(marker, 1)[1]
    return after.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_readme_describes_the_shipped_cli(tmp_path, capsys, monkeypatch):
    subparsers = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    command = None
    for line in _readme_sh_block("## Command line"):
        if line.startswith("ltpal "):
            command = line.split()[1]
        for option in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line):
            assert option in subparsers[command]._option_string_actions, (command, option)

    monkeypatch.chdir(ROOT)
    ts_path = str(tmp_path / "ts.json")
    results = [
        _run(capsys, [ts_path if w == "/tmp/ts.json" else w for w in shlex.split(line)[1:]])
        for line in _readme_sh_block("Worked example")
        if line.startswith("ltpal ")
    ]
    (build_code, build, _), (check_code, check, _), (mppe_code, mppe, _) = results
    assert build_code == 0
    assert build["total_paths"] == 6
    assert check_code == 1
    assert check["witness"] == ["w00", "w10", "w21", "w30"]
    assert mppe_code == 0
    assert mppe["path"] == ["w00", "w10", "w20", "w30"]
    assert mppe["score"] == pytest.approx(0.032, abs=1e-9)
