"""Replay the golden CLI corpus (`tests/golden/corpus.json`) in process.

Every recorded command must give the same exit code, stdout, stderr and
written files, byte for byte.  Where argparse itself ends a command (usage
errors and `--help`), its wording changes between Python versions, so only
the exit code and the usage line's presence are compared.  The corpus is
recorded by `tests/golden/record.py`; re-recording it is a visible-output
change.
"""

import json
from pathlib import Path

import pytest

from golden.record import CORPUS, replay_session

_SESSIONS = json.loads(CORPUS.read_text())["sessions"]


def _argparse_view(outcome: dict) -> tuple:
    stream = outcome["stdout"] if outcome["code"] == 0 else outcome["stderr"]
    return outcome["code"], stream.startswith("usage: ltpal"), outcome["written"]


@pytest.mark.parametrize("session", _SESSIONS, ids=[s["name"] for s in _SESSIONS])
def test_the_cli_replays_its_recorded_outputs(session, tmp_path):
    fields = ("code", "stdout", "stderr", "written")
    for recorded, outcome in replay_session(session, tmp_path):
        where = " ".join(recorded["argv"])
        assert outcome.get("argparse", False) == recorded.get("argparse", False), where
        if recorded.get("argparse"):
            assert _argparse_view(outcome) == _argparse_view(recorded), where
        else:
            assert {k: outcome[k] for k in fields} == {k: recorded[k] for k in fields}, where


def test_the_corpus_covers_every_subcommand_flag_and_mode():
    argvs = [c["argv"] for s in _SESSIONS for c in s["commands"]]
    flags = {(argv[0], arg) for argv in argvs if argv for arg in argv if arg.startswith("--")}
    from ltpal.cli import _build_parser

    subparsers = _build_parser()._subparsers._group_actions[0].choices
    wanted = {(name, option) for name, sub in subparsers.items()
              for action in sub._actions for option in action.option_strings
              if option.startswith("--") and option != "--help"}
    assert wanted <= flags
    modes = {argv[argv.index("--mode") + 1] for argv in argvs if "--mode" in argv}
    assert {"verified", "possible", "robust", "possible-agent", "missing-verified",
            "missing-possible"} <= modes
    assert Path(CORPUS).stat().st_size < 1_000_000
