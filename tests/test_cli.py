"""End-to-end tests for the command-line interface."""

import argparse
import gc
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ltpal import cli, mppe
from ltpal.cli import _build_parser, main
from ltpal.formulas import Next
from ltpal.serialize import dump_ts, load_scores, load_ts, save_ts
from ltpal.syntax import parse_formula

from generators import ATOM_POOL, listed_atoms, random_ts

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
    worlds = listed_atoms(json.loads(out.read_text()))["layers"][1]["worlds"]
    assert ["v1", "Animal"] in worlds[0]["atoms"]


def test_build_reports_an_empty_world_id_at_its_node(tmp_path, capsys):
    frames = json.loads((DATA / "demo_frames.json").read_text())
    frames["frames"][0]["worlds"][1]["id"] = ""
    source = tmp_path / "frames.json"
    source.write_text(json.dumps(frames))
    out = tmp_path / "ts.json"
    code, payload, err = _run(capsys, [
        "build", "--frames", str(source), "--output", str(out),
    ])
    assert code == 2
    assert payload is None
    assert err == "error: frames[0].worlds[1]: world id must be a non-empty string, got ''\n"
    assert not out.exists()


def test_paths_lists_in_order(ts_file, capsys):
    code, payload, _ = _run(capsys, ["paths", "--ts", ts_file])
    assert code == 0
    assert payload["count"] == 6
    assert payload["paths"][0] == ["w00", "w10", "w20", "w30"]
    assert payload["truncated"] is False
    code, payload, _ = _run(capsys, ["paths", "--ts", ts_file, "--max", "2"])
    assert len(payload["paths"]) == 2
    assert payload["truncated"] is True


def test_paths_max_zero_and_negative(ts_file, capsys):
    code, payload, _ = _run(capsys, ["paths", "--ts", ts_file, "--max", "0"])
    assert code == 0
    assert payload == {"count": 6, "paths": [], "truncated": True}
    code, payload, err = _run(capsys, ["paths", "--ts", ts_file, "--max", "-1"])
    assert code == 2
    assert payload is None
    assert err == "error: --max must not be negative\n"
    for cap in ("6", "7", str(sys.maxsize), str(sys.maxsize + 1), "99999999999999999999"):
        code, payload, _ = _run(capsys, ["paths", "--ts", ts_file, "--max", cap])
        assert code == 0
        assert len(payload["paths"]) == 6 and payload["truncated"] is False


@pytest.mark.parametrize("command", [["paths"], ["check", "--formula", "true"]],
                         ids=["max", "path-index"])
@pytest.mark.parametrize("text", ["1_0", "\u0663", "x"], ids=["underscore", "arabic-indic", "letter"])
def test_max_and_path_index_read_integers_by_the_cap_rule(ts_file, capsys, command, text):
    """--max and --path-index read their text as --cap does, before the system is loaded."""
    flag = "--max" if command == ["paths"] else "--path-index"
    message = f"error: {flag} must be an integer, got {text!r}\n"
    for ts in (ts_file, "no-such-system.json"):
        assert _run(capsys, [*command, "--ts", ts, flag, text]) == (2, None, message)
    code, payload, _ = _run(capsys, [*command, "--ts", ts_file, flag, " +1 "])
    if flag == "--max":
        assert (code, len(payload["paths"])) == (0, 1)
    else:
        assert (code, payload["path_index"]) == (0, 1)


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


def test_check_path_index_decodes_large_indices(tmp_path, capsys):
    # 20 frames of 3 worlds: 3**20 paths, far too many to walk to index K.
    doc = {
        "agents": ["a"],
        "frames": [
            {"worlds": [{"id": f"f{i}x{j}", "atoms": [["v", "Cat"]] if j else []}
                        for j in range(3)]}
            for i in range(1, 21)
        ],
    }
    frames = tmp_path / "frames.json"
    frames.write_text(json.dumps(doc))
    ts = str(tmp_path / "ts.json")
    assert main(["build", "--frames", str(frames), "--output", ts]) == 0
    capsys.readouterr()
    index = 3**19 + 12_345_678  # above 10**7
    digits = [index // 3**(19 - i) % 3 for i in range(20)]  # most significant first
    expected = ["w00", *(f"f{i}x{d}" for i, d in enumerate(digits, 1)), "w210"]
    code, payload, _ = _run(capsys, [
        "check", "--ts", ts, "--formula", "X G (v:Cat | !X true)", "--path-index", str(index),
    ])
    assert payload["path"] == expected
    assert code == (0 if all(digits) else 1)
    for bad in (3**20, -1):
        code, payload, err = _run(capsys, [
            "check", "--ts", ts, "--formula", "true", "--path-index", str(bad),
        ])
        assert code == 2
        assert payload is None
        assert err == (f"error: --path-index {bad} is out of range "
                       f"(the system has {3**20} total paths)\n")


def test_unexpected_errors_exit_2_without_traceback(ts_file, capsys, monkeypatch):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "_cmd_check", broken)
    code, payload, err = _run(capsys, ["check", "--ts", ts_file, "--formula", "true"])
    assert code == 2
    assert payload is None
    assert err == "error: internal error: KeyError: 'lost'\n"


def _internal_error(args):
    raise KeyError("lost")


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, broken, expected", [
    (["check", "--formula", "true"], False, 0),
    (["check", "--formula", "F v2:Cat"], False, 1),
    (["check", "--ts", "no-such-file.json", "--formula", "true"], False, 2),
    (["check", "--formula", "true"], True, 2),
], ids=["exit-0", "exit-1", "input-error", "internal-error"])
def test_main_restores_the_collector_state(ts_file, monkeypatch, collecting, argv, broken,
                                           expected):
    if "--ts" not in argv:
        argv = [argv[0], "--ts", ts_file, *argv[1:]]
    if broken:
        monkeypatch.setattr(cli, "_cmd_check", _internal_error)
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        code = main(argv)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert code == expected


def test_main_pauses_the_collector_while_the_command_runs(ts_file, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_check", lambda args: seen.append(gc.isenabled()) or 0)
    assert gc.isenabled()
    assert main(["check", "--ts", ts_file, "--formula", "true"]) == 0
    assert seen == [False]
    assert gc.isenabled()


def _stream_frames(frames: int) -> dict:
    rng = random.Random(frames)
    doc = {"agents": ["a", "b"], "frames": []}
    for i in range(frames):
        ids = [f"f{i}w{k}" for k in range(3)]
        doc["frames"].append({
            "worlds": [
                {"id": wid, "atoms": [[a.data_id, a.class_id] for a in rng.sample(ATOM_POOL, 2)]}
                for wid in ids
            ],
            "relations": {"a": [ids[:2]]},
        })
    return doc


def test_a_command_leaves_no_more_cyclic_garbage_on_larger_input(tmp_path):
    """The collector may stay paused for a whole command because what a
    command leaves for it does not grow with the input."""

    def garbage_after_build_and_mppe(frames: int) -> int:
        frames_file, ts = tmp_path / f"frames{frames}.json", tmp_path / f"ts{frames}.json"
        frames_file.write_text(json.dumps(_stream_frames(frames)))
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert main(["build", "--frames", str(frames_file), "--rules", str(rules),
                         "--output", str(ts)]) == 0
            assert main(["mppe", "--ts", str(ts)]) == 0
            return gc.collect()
        finally:
            if was:
                gc.enable()

    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [{"class": "Cat", "implies": ["Warm"]}]}))
    small = garbage_after_build_and_mppe(3)
    large = garbage_after_build_and_mppe(300)
    assert large <= small + 50


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


@pytest.mark.parametrize("branch", [["--path-index", "0"], ["--mppe-only"]],
                         ids=["path-index", "mppe-only"])
@pytest.mark.parametrize("flag, env, message", [
    (["--cap", "0"], None, "error: --cap must be at least 1\n"),
    (["--cap", "x"], None, "error: --cap must be an integer, got 'x'\n"),
    (["--cap", "1_000"], None, "error: --cap must be an integer, got '1_000'\n"),
    (["--cap", "\u0663"], None, "error: --cap must be an integer, got '\u0663'\n"),
    ([], "x", "error: LTPAL_PATH_CAP must be an integer, got 'x'\n"),
    ([], "0", "error: LTPAL_PATH_CAP must be at least 1\n"),
    ([], "1_000", "error: LTPAL_PATH_CAP must be an integer, got '1_000'\n"),
], ids=["flag-0", "flag-x", "flag-underscore", "flag-arabic-indic", "env-x", "env-0",
        "env-underscore"])
def test_a_one_path_check_rejects_an_invalid_cap(ts_file, capsys, monkeypatch, branch, flag, env,
                                                  message):
    """The cap is checked as on the all-paths branch, though one path never
    reaches it."""
    if env is None:
        monkeypatch.delenv("LTPAL_PATH_CAP", raising=False)
    else:
        monkeypatch.setenv("LTPAL_PATH_CAP", env)
    argv = ["check", "--ts", ts_file, "--formula", "true", *branch, *flag]
    assert _run(capsys, argv) == (2, None, message)


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


def test_classify_expands_a_group_argument_once_per_agent(ts_file, capsys):
    code, payload, _ = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "verified",
        "--template", "F ?1", "--atoms", "v1:Cat",
        "--group", "b, both,a", "--skip-dummies",
    ])
    assert code == 1
    assert payload["group"] == ["b", "a"]


@pytest.mark.parametrize("flag, env", [(["--cap", "1"], "0"), ([], "1")], ids=["flag", "env"])
def test_a_cap_of_one_is_valid(ts_file, capsys, monkeypatch, flag, env):
    """The flag is read before the variable; a cap of 1 decides a formula
    whose first path decides it."""
    monkeypatch.setenv("LTPAL_PATH_CAP", env)
    code, payload, _ = _run(capsys, ["check", "--ts", ts_file, "--formula", "v1:Cat", *flag])
    assert (code, payload["paths_checked"], payload["capped"]) == (1, 1, False)


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


@pytest.mark.parametrize("branch", [[], ["--path-index", "1"], ["--mppe-only"]],
                         ids=["all-paths", "path-index", "mppe-only"])
@pytest.mark.parametrize("formula", ["G [v1:Fox] K{zz} true", "X [v1:Fox] D{a,zz} true"])
def test_an_unknown_agent_is_reported_before_evaluation(tmp_path, capsys, branch, formula):
    """Every agent a formula names must be in the roster, also inside an
    announcement that holds only at worlds no evaluation reaches: w12 is
    the one Fox, and no relation links it to w10 or w11."""
    frames = {"agents": ["a"], "frames": [{
        "worlds": [{"id": "w10", "atoms": [["v1", "Cat"]]}, {"id": "w11", "atoms": [["v1", "Dog"]]},
                   {"id": "w12", "atoms": [["v1", "Fox"]]}],
        "relations": {"a": [["w10", "w11"]]},
    }]}
    source, target = tmp_path / "frames.json", str(tmp_path / "ts.json")
    source.write_text(json.dumps(frames))
    assert main(["build", "--frames", str(source), "--output", target]) == 0
    capsys.readouterr()
    argvs = [["check", "--ts", target, "--formula", formula, *branch]]
    if "--path-index" not in branch:
        argvs.append(["classify", "--ts", target, "--mode", "robust", "--agent", "a",
                      "--template", formula.replace("true", "?1"), "--atoms", "true", *branch])
    for argv in argvs:
        code, payload, err = _run(capsys, argv)
        assert (code, payload) == (2, None)
        assert err.endswith("error: unknown agent 'zz'\n")


def test_an_unknown_agent_in_a_vacuous_announcement_is_reported(ts_file, capsys):
    """v1:Fox holds at no world of the demo system, so no evaluation reads
    K{zz}; the agent is still checked."""
    argv = ["check", "--ts", ts_file, "--formula", "X [v1:Fox] K{zz} true"]
    assert _run(capsys, argv) == (2, None, "error: unknown agent 'zz'\n")


@pytest.fixture(scope="module")
def random_ts_file(tmp_path_factory):
    target = tmp_path_factory.mktemp("cli") / "random-ts.json"
    save_ts(random_ts(random.Random(5)), target)  # 3x3x2 worlds, agents a0, a1, a2
    return str(target)


# Per system: two formulas, two (template, atoms) pairs, --group and --agent.
_SKIP_CASES = {
    "demo": (["F v2:Cat", "G (D{both} v1:Cat -> X v2:Cat)"],
             [("F ?1", "v1:Cat"), ("(?1 U ?2)", "v1:Cat | v1:Dog, v2:Cat")], "both", "a"),
    "random": (["x:Cat | K{a0} y:Dog", "((x:Cat | y:Dog) U !K{a1} z:Fox)"],
               [("?1", "x:Cat"), ("G (?1 -> X ?2)", "x:Cat, y:Dog")], "a0,a1", "a2"),
}


def _skip_dummies_pairs(system, ts, candidates):
    """(argv with --skip-dummies, argv checking X of the same text) pairs."""
    formulas, templates, group, agent = _SKIP_CASES[system]
    for formula in formulas:
        for branch in ([], ["--path-index", "1"], ["--mppe-only"]):
            base = ["check", "--ts", ts, *branch, "--formula"]
            yield [*base, formula, "--skip-dummies"], [*base, f"X ({formula})"]
    for template, atoms in templates:
        for mode, (who, _, missing) in cli._CLASSIFY_MODES.items():
            for restrict in ([], ["--mppe-only"]):
                base = ["classify", "--ts", ts, "--mode", mode, "--atoms", atoms, *restrict,
                        f"--{who or 'group'}", agent if who == "agent" else group,
                        *(["--candidates", candidates] if missing else []), "--template"]
                yield [*base, template, "--skip-dummies"], [*base, f"X ({template})"]


@pytest.mark.parametrize("system", ["demo", "random"])
def test_skip_dummies_checks_next_on_the_full_paths(ts_file, random_ts_file, tmp_path, capsys,
                                                    system):
    """Every command gives the same stdout and exit code with --skip-dummies
    as with its formula or template wrapped in X, apart from the formula
    that `check` prints."""
    candidates = tmp_path / "candidates.json"
    candidates.write_text(json.dumps({"candidates": ["true", "false", "x:Cat", "v2:Dog"]}))
    ts = ts_file if system == "demo" else random_ts_file
    codes = set()
    for skipping, wrapped in _skip_dummies_pairs(system, ts, str(candidates)):
        code, payload, err = _run(capsys, skipping)
        assert code in (0, 1), err
        expected_code, expected, _ = _run(capsys, wrapped)
        if skipping[0] == "check":  # which prints the formula without the X
            printed = parse_formula(payload.pop("formula"))
            assert parse_formula(expected.pop("formula")) == Next(printed)
        assert (code, payload) == (expected_code, expected), skipping
        codes.add(code)
    assert codes == {0, 1}


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
    assert (code, err) == (2, "error: --atoms must be a comma-separated list of PAL formulas\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", "--ts", ts_file, "--mode", "verified",
              "--template", "X ?1", "--atoms", "p",
              "--group", "both", "--agent", "a"])
    assert exit_info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("template, atoms, message", [
    ("F ?1", "v1:Cat,v2:Dog", "error: template needs 1 argument(s), got 2\n"),
    ("F (?1 & ?2)", "v1:Cat", "error: template needs 2 argument(s), got 1\n"),
])
def test_classify_argument_count_mismatch_is_a_usage_error(ts_file, capsys, template, atoms, message):
    code, payload, err = _run(capsys, [
        "classify", "--ts", ts_file, "--mode", "verified",
        "--template", template, "--atoms", atoms, "--group", "both",
    ])
    assert (code, payload, err) == (2, None, message)


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


@pytest.mark.parametrize("reply", ["1e400", "9" * 400], ids=["inf", "long-int"])
def test_mppe_clamps_an_external_score_beyond_the_float_range(ts_file, capsys, reply):
    scorer = f"import sys\nfor line in sys.stdin:\n    print('{{\"score\": {reply}}}', flush=True)\n"
    code, payload, err = _run(capsys, [
        "mppe", "--ts", ts_file, "--scorer-cmd", shlex.join([sys.executable, "-c", scorer]),
    ])
    assert (code, err) == (0, "")
    assert payload["path"] == ["w00", "w10", "w20", "w30"]
    assert payload["score"] == 1.0


_HUGE = 10 ** 400  # an integer beyond the float range


def test_mppe_reports_a_score_beyond_the_float_range_in_a_scores_file(ts_file, tmp_path, capsys):
    doc = json.loads((DATA / "demo_scores.json").read_text())
    doc["edges"][0]["score"] = _HUGE
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(doc))
    code, payload, err = _run(capsys, ["mppe", "--ts", ts_file, "--scores", str(scores)])
    assert (code, payload) == (2, None)
    assert err == "error: edges[0]: score for edge 'w00' -> 'w10' must be in (0, 1], got inf\n"


def test_a_score_beyond_the_float_range_in_a_system_file_is_out_of_range(ts_file, tmp_path, capsys):
    ts, _ = load_ts(ts_file)
    doc = dump_ts(ts, load_scores(DATA / "demo_scores.json", ts))
    doc["edges"][0]["score"] = _HUGE
    system = tmp_path / "scored.json"
    system.write_text(json.dumps(doc))
    code, payload, err = _run(capsys, ["check", "--ts", str(system), "--formula", "true"])
    assert (code, payload) == (2, None)
    assert err == "error: edges[0]: score for edge 'w00' -> 'w10' must be in (0, 1], got inf\n"


def _document_text(document: str, ts_file: str) -> str:
    """A valid document of the kind `document`, as text."""
    sources = {"frames": DATA / "demo_frames.json", "system": Path(ts_file),
               "scores": DATA / "demo_scores.json"}
    if document in sources:
        return sources[document].read_text()
    if document == "rules":
        return json.dumps({"rules": [{"class": "Cat", "implies": ["Animal"]}]})
    return json.dumps({"candidates": ["v1:Cat"]})


def _argv_reading(document: str, bad: Path, ts_file: str, tmp_path) -> list:
    """A command that reads `bad` as its `document` input."""
    return {
        "frames": ["build", "--frames", str(bad), "--output", str(tmp_path / "out.json")],
        "rules": ["build", "--frames", str(DATA / "demo_frames.json"), "--rules", str(bad),
                  "--output", str(tmp_path / "out.json")],
        "system": ["check", "--ts", str(bad), "--formula", "true"],
        "scores": ["mppe", "--ts", ts_file, "--scores", str(bad)],
        "candidates": ["classify", "--ts", ts_file, "--mode", "missing-verified",
                       "--template", "X ?1", "--atoms", "v1:Cat", "--group", "both",
                       "--candidates", str(bad)],
    }[document]


def _assert_invalid_json(capsys, argv, bad: Path) -> None:
    code, payload, err = _run(capsys, argv)
    assert (code, payload) == (2, None)
    assert err.startswith(f"error: {bad} is not valid JSON: ") and err.count("\n") == 1
    assert "internal error" not in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python reads integers of any length")
@pytest.mark.parametrize("document", ["frames", "system", "scores", "candidates"])
def test_an_integer_too_long_to_read_makes_a_document_invalid_json(ts_file, tmp_path, capsys,
                                                                   document):
    text = _document_text(document, ts_file)
    bad = tmp_path / f"{document}.json"
    bad.write_text(text.rstrip()[:-1] + ', "junk": ' + "1" * 5000 + "}")
    _assert_invalid_json(capsys, _argv_reading(document, bad, ts_file, tmp_path), bad)


def _digits_cap():
    """Python's cap on the digits of an int written as text (0 for none)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _lifted(convert, value):
    """`convert(value)` with the digits cap lifted, as the CLI's output needs."""
    cap = _digits_cap()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _run_long(capsys, argv):
    """`_run` for output that may hold a count longer than the digits cap;
    `main` runs under the cap and must leave it as it was."""
    cap = _digits_cap()
    code = main(argv)
    assert _digits_cap() == cap
    captured = capsys.readouterr()
    payload = _lifted(json.loads, captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture(scope="module")
def huge_frames(tmp_path_factory):
    """A frames document of 4,400 frames of 10 worlds: 10**4400 total paths,
    a count of 4,401 digits, above Python's default cap of 4,300."""
    doc = {"agents": ["a"], "frames": [
        {"worlds": [{"id": f"f{i}w{j}", "atoms": []} for j in range(10)]} for i in range(4400)]}
    path = tmp_path_factory.mktemp("huge") / "frames.json"
    path.write_text(json.dumps(doc))
    return path


def test_a_path_count_longer_than_the_digits_cap_is_printed(huge_frames, tmp_path, capsys):
    """`build`, `paths` and the out-of-range message of `check --path-index`
    print 10**4400 in full; reading input keeps the cap (see the test above)."""
    ts = str(tmp_path / "ts.json")
    code, payload, err = _run_long(capsys, ["build", "--frames", str(huge_frames), "--output", ts])
    assert (code, err) == (0, "")
    assert payload["total_paths"] == 10**4400
    assert payload["frames"] == 4400

    code, payload, err = _run_long(capsys, ["paths", "--ts", ts, "--max", "1"])
    assert (code, err) == (0, "")
    assert payload["count"] == 10**4400 and payload["truncated"] is True
    assert payload["paths"] == [["w00", *(f"f{i}w0" for i in range(4400)), "w44010"]]

    code, payload, err = _run_long(capsys, ["check", "--ts", ts, "--formula", "F v:Cat",
                                            "--path-index", "-1"])
    assert (code, payload) == (2, None)
    count = _lifted(str, 10**4400)
    assert err == f"error: --path-index -1 is out of range (the system has {count} total paths)\n"


@pytest.mark.parametrize("document", ["frames", "rules", "system", "scores", "candidates"])
def test_a_document_that_is_not_utf8_is_invalid_json(ts_file, tmp_path, capsys, document):
    bad = tmp_path / f"{document}.json"
    bad.write_bytes(b"\xff\xfe" + _document_text(document, ts_file).encode())
    _assert_invalid_json(capsys, _argv_reading(document, bad, ts_file, tmp_path), bad)


def test_documents_are_read_as_utf8_under_any_locale(tmp_path):
    """Under the C locale without UTF-8 mode, a UTF-8 document still loads,
    and one that is not UTF-8 is still invalid JSON."""
    doc = json.loads((DATA / "demo_frames.json").read_text())
    doc["frames"][0]["worlds"][0]["atoms"] = [["v1", "Katze\u00e9"]]
    (tmp_path / "f.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe" + json.dumps(doc).encode())
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")

    def run(*argv):
        return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)

    encoding = run("-c", "import locale; print(locale.getpreferredencoding(False))").stdout
    assert "utf" not in encoding.lower().replace("-", "")
    built = run("-m", "ltpal.cli", "build", "--frames", "f.json", "--output", "ts.json")
    assert (built.returncode, built.stderr) == (0, "")
    assert json.loads(built.stdout)["states"] == 7
    layers = listed_atoms(json.loads((tmp_path / "ts.json").read_text()))["layers"]
    assert layers[1]["worlds"][0]["atoms"] == [["v1", "Katze\u00e9"]]
    bad = run("-m", "ltpal.cli", "build", "--frames", "bad.json", "--output", "x.json")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == ("error: bad.json is not valid JSON: 'utf-8' codec can't decode "
                          "byte 0xff in position 0: invalid start byte\n")


def test_mppe_external_scorer_timeout_is_a_usage_error(ts_file, capsys, monkeypatch):
    import sys
    from ltpal import mppe
    monkeypatch.setattr(mppe, "SCORER_REPLY_TIMEOUT_S", 0.2)
    cmd = f"{sys.executable} -c \"import time; time.sleep(60)\""
    code, payload, err = _run(capsys, ["mppe", "--ts", ts_file, "--scorer-cmd", cmd])
    assert code == 2
    assert payload is None
    assert err == "error: external scorer did not reply within 0.2 s\n"


_VERIFIED = ["classify", "--mode", "verified", "--group", "both", "--atoms", "v1:Cat"]


# Deep formula text and a shallow equivalent on the demo system, whose paths
# have four positions: X past the last one is false, and G G f, K{a} K{a} f
# and [p] [p] f say what G f, K{a} f and [p] f say.
@pytest.mark.parametrize("argv, shallow", [
    (["check", "--formula", "!" * 3000 + "v1:Cat"], ["check", "--formula", "v1:Cat"]),
    (["check", "--formula", "X " * 1500 + "v1:Cat"], ["check", "--formula", "X X X X v1:Cat"]),
    ([*_VERIFIED, "--template", "!" * 3000 + "?1"], [*_VERIFIED, "--template", "?1"]),
], ids=["check-not", "check-next", "classify-not"])
def test_deep_formulas_get_the_shallow_verdict(ts_file, capsys, argv, shallow):
    _assert_same_verdict(ts_file, capsys, argv, shallow)


_N = 50_000


# Too long for one argv string on Linux (128 KiB), so only in process.
@pytest.mark.parametrize("argv, shallow", [
    (["check", "--formula", "X " * _N + "v1:Cat"], ["check", "--formula", "X X X X v1:Cat"]),
    (["check", "--formula", "!" * _N + "v1:Cat"], ["check", "--formula", "v1:Cat"]),
    (["check", "--formula", "G (" * _N + "v1:Cat" + ")" * _N], ["check", "--formula", "G v1:Cat"]),
    (["check", "--formula", "(" * _N + "v1:Cat" + ")" * _N], ["check", "--formula", "v1:Cat"]),
    (["check", "--formula", "[v1:Cat] " * _N + "v1:Cat"], ["check", "--formula", "[v1:Cat] v1:Cat"]),
    (["check", "--formula", "K{a} " * _N + "v1:Cat"], ["check", "--formula", "K{a} v1:Cat"]),
    ([*_VERIFIED, "--template", "X " * _N + "?1"], [*_VERIFIED, "--template", "X X X X ?1"]),
    ([*_VERIFIED, "--template", "!" * _N + "?1"], [*_VERIFIED, "--template", "?1"]),
], ids=["check-next", "check-not", "check-globally", "check-parentheses",
        "check-announce", "check-knows", "classify-next", "classify-not"])
def test_formulas_50000_deep_get_the_shallow_verdict(ts_file, capsys, argv, shallow):
    _assert_same_verdict(ts_file, capsys, argv, shallow)


def _assert_same_verdict(ts_file, capsys, argv, shallow):
    code, payload, err = _run(capsys, [argv[0], "--ts", ts_file, *argv[1:]])
    assert err == ""
    shallow_code, shallow_payload, _ = _run(capsys, [shallow[0], "--ts", ts_file, *shallow[1:]])
    assert code == shallow_code
    assert code in (0, 1)
    if argv[0] == "check":
        # The formula is echoed in canonical form: parentheses around
        # unary operators are dropped.
        text = argv[-1].replace("(", "").replace(")", "")
        assert payload.pop("formula") == text
        shallow_payload.pop("formula")
    assert payload == shallow_payload


def test_input_nested_past_the_recursion_limit_is_a_usage_error(tmp_path, capsys):
    # A system file of nested JSON arrays is the one input left that the
    # decoder itself cannot read without recursing.
    ts = tmp_path / "ts.json"
    ts.write_text("[" * 100_000 + "]" * 100_000)
    code, payload, err = _run(capsys, ["check", "--ts", str(ts), "--formula", "p"])
    assert code == 2
    assert payload is None
    assert err == "error: input is nested too deeply to evaluate\n"


def _readme_sh_block(marker: str) -> list:
    """Lines of the first ```sh block after `marker` in the README."""
    text = (ROOT / "README.md").read_text()
    after = text.split(marker, 1)[1]
    return after.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def _subparsers() -> dict:
    return next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def test_readme_describes_the_shipped_cli(tmp_path, capsys, monkeypatch):
    subparsers = _subparsers()
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


def test_readme_synopsis_lists_every_option():
    listed: dict = {}
    command = None
    for line in _readme_sh_block("## Command line"):
        if line.startswith("ltpal "):
            command = line.split()[1]
        listed.setdefault(command, set()).update(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
    for command, subparser in _subparsers().items():
        options = {
            option for action in subparser._actions for option in action.option_strings
        } - {"-h", "--help"}
        assert options - listed.get(command, set()) == set(), command


def test_readme_python_quick_start_runs(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text()
    code = text.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "('w00', 'w10', 'w20', 'w30')" in out


def test_a_lazy_name_is_bound_on_its_first_read():
    """Reading a name of `_LAZY` from the module binds its module's names
    there, as a tool that wraps one does; any other name is an
    AttributeError."""
    names = cli._LAZY["mppe"]
    held = {name: vars(cli).pop(name) for name in names if name in vars(cli)}
    try:
        assert cli.__getattr__("score_edges") is mppe.score_edges
        assert all(vars(cli)[name] is getattr(mppe, name) for name in names)
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            cli.__getattr__("nope")
    finally:
        for name in names:
            vars(cli).pop(name, None)
        vars(cli).update(held)


def test_importing_the_cli_loads_no_scorer_or_dataclass_modules():
    """Start-up stays cheap: `import ltpal.cli` pulls in none of the modules
    only `--scorer-cmd` needs, nor `dataclasses` and what it imports."""
    probe = (
        "import sys; bare = set(sys.modules); import ltpal.cli; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = set(done.stdout.split())
    assert "ltpal.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "subprocess", "select", "shlex"})
