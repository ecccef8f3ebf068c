"""No input crashes the CLI.

A Hypothesis property test through `cli.main`: valid documents and argv are
mutated (keys dropped, types swapped, deep nesting, NaN, huge integers,
unicode, empty ids, duplicates), and whatever comes of it, the exit code is
0, 1, 2 or 3, no stderr line holds a traceback or an internal error, and
exit 0 or 1 comes with exactly one JSON object on stdout.  Stdout and stderr
encode as the interpreter's own streams do: UTF-8, strict on stdout and with
backslash escapes on stderr.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ltpal.cli import main

DATA = Path(__file__).resolve().parent / "data"
SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# The valid inputs: each document kind with the commands that read it.
DOCUMENTS = {
    "frames": json.loads((DATA / "demo_frames.json").read_text()),
    "rules": {"rules": [{"class": "Cat", "implies": ["Animal"]},
                        {"class": "Animal", "implies": ["Thing"]}]},
    "system": json.loads((DATA / "demo_ts_listed_edges.json").read_text()),
    "scores": json.loads((DATA / "demo_scores.json").read_text()),
    "candidates": {"candidates": ["v1:Cat", "K{a} v1:Cat", "!v2:Dog", "D{both} v2:Cat"]},
}
FRAMES, TS = str(DATA / "demo_frames.json"), str(DATA / "demo_ts_listed_edges.json")
COMMANDS = {
    "frames": [["build", "--frames", "DOC", "--output", "out.json"]],
    "rules": [["build", "--frames", FRAMES, "--rules", "DOC", "--output", "out.json"]],
    "system": [
        ["paths", "--ts", "DOC"],
        ["paths", "--ts", "DOC", "--max", "4"],
        ["check", "--ts", "DOC", "--formula", "F v2:Cat", "--path-index", "2"],
        ["check", "--ts", "DOC", "--formula", "G (D{both} v1:Cat -> X v2:Cat)"],
        ["check", "--ts", "DOC", "--formula", "F v2:Cat", "--mppe-only"],
        ["classify", "--ts", "DOC", "--mode", "verified", "--template", "F ?1",
         "--atoms", "v2:Cat", "--group", "both"],
        ["classify", "--ts", "DOC", "--mode", "robust", "--template", "X ?1",
         "--atoms", "K{a} v1:Cat", "--agent", "a", "--skip-dummies"],
        ["mppe", "--ts", "DOC", "--emit-corrected", "out.json"],
        # Malformed shell text: the command is never started.
        ["mppe", "--ts", "DOC", "--scorer-cmd", "python3 'x"],
    ],
    "scores": [
        ["mppe", "--ts", TS, "--scores", "DOC"],
        ["check", "--ts", TS, "--formula", "F v2:Dog", "--mppe-only", "--scores", "DOC"],
    ],
    "candidates": [
        ["classify", "--ts", TS, "--mode", "missing-possible", "--template", "F ?1",
         "--atoms", "v2:Cat", "--agent", "b", "--candidates", "DOC"],
    ],
}
# Every argv and option but `--help` and `--scorer-cmd`, whose mutations could
# start a drawn command.
ARGVS = [argv for commands in COMMANDS.values() for argv in commands
         if "--scorer-cmd" not in argv]
FLAGS = ["--frames", "--rules", "--output", "--ts", "--max", "--formula", "--path-index",
         "--mppe-only", "--scores", "--cap", "--skip-dummies", "--mode", "--template",
         "--atoms", "--group", "--agent", "--candidates", "--scorer", "--emit-corrected"]

# Values that stand in for a JSON value.  Nesting and integers too long to
# write with `json.dumps` are spliced into the text for their marker.
DEEP = {f"\x00deep{depth}": "[" * depth + "0" + "]" * depth for depth in (3, 60, 5000, 200_000)}
LONG = {"\x00long": "9" * 5000}
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 63, -1, 0, *DEEP, *LONG]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.sampled_from(["", "w10", "w00", "a", "both", "Cat", "v1", "é世", "\ud800"]),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                   st.dictionaries(st.text(max_size=4), SCALARS, max_size=2))
# Text a process can receive as an argument: no NUL.  No "/" either, so a
# path drawn here stays inside the test's directory.
ARG_TEXT = st.one_of(
    st.text(st.characters(blacklist_characters="\x00/"), max_size=12),
    st.sampled_from(["", "-1", "0", "99999999999999999999999", "nan", "both", "a,b", "a,,b",
                     "?1", "?2", "F ?1", "K{a} ?1", "v1:Cat", "D{} v1:Cat", "X " * 3000 + "p",
                     "(" * 3000, "out.json", "system.json", "missing.json", "é", "\udcff"]),
)


def _paths(doc, path=()):
    """Every location in `doc`, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, (*path, key))


def _mutate(data, doc):
    """`doc` with one location dropped, replaced, emptied or duplicated."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["drop", "replace", "empty", "duplicate"]))
    if action == "drop":
        del parent[key]
    elif action == "replace":
        parent[key] = data.draw(VALUES)
    elif action == "empty":
        parent[key] = type(parent[key])() if isinstance(parent[key], (dict, list, str)) else ""
    elif isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key + "_"] = parent[key]
    return doc


def _text(doc) -> str:
    text = json.dumps(doc)
    for marker, replacement in {**DEEP, **LONG}.items():
        text = text.replace(json.dumps(marker), replacement)
    return text


def _run(directory: Path, argv: list) -> tuple:
    """Run `argv` in `directory` and check the no-crash property; returns
    the exit code and stderr."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
                ended_by_argparse = False
            except SystemExit as exc:
                code, ended_by_argparse = exc.code, True
    finally:
        os.chdir(cwd)
    stdout, stderr = (stream.detach().getvalue().decode("utf-8") for stream in (out, err))
    event(f"exit {code}" + (" from argparse" if ended_by_argparse else ""))
    assert code in (0, 1, 2, 3), (argv, code, stderr)
    for line in stderr.splitlines():
        assert "Traceback" not in line and "internal error" not in line, (argv, stderr)
    if ended_by_argparse:  # a usage error, or help on stdout
        assert code == 2 or stdout.startswith("usage:"), (argv, code, stdout)
    elif code in (0, 1):
        assert stdout.endswith("\n") and stdout.count("\n") == 1, (argv, stdout)
        assert isinstance(json.loads(stdout), dict), (argv, stdout)
    return code, stderr


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("no-crash")
    (directory / "system.json").write_text(json.dumps(DOCUMENTS["system"]), encoding="utf-8")
    return directory


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(DOCUMENTS)))
def test_no_document_crashes_the_cli(directory, data, kind):
    doc = json.loads(json.dumps(DOCUMENTS[kind]))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    (directory / "doc.json").write_text(_text(doc), encoding="utf-8")
    argv = data.draw(st.sampled_from(COMMANDS[kind]))
    _run(directory, ["doc.json" if arg == "DOC" else arg for arg in argv])


@SETTINGS
@given(data=st.data(), argv=st.sampled_from(ARGVS))
def test_no_argv_crashes_the_cli(directory, data, argv):
    argv = [TS if arg == "DOC" else arg for arg in argv]
    for _ in range(data.draw(st.integers(1, 2))):
        # Mostly a new value for an option, which argparse itself accepts.
        action = data.draw(st.sampled_from(["value", "value", "value", "drop", "insert",
                                            "duplicate"]))
        values = [i for i, arg in enumerate(argv[1:], 1) if not arg.startswith("--")]
        if action == "value" and values:
            argv[data.draw(st.sampled_from(values))] = data.draw(ARG_TEXT)
            continue
        at = data.draw(st.integers(0, len(argv) - 1))
        if action == "drop":
            del argv[at]
        elif action == "duplicate":
            argv.insert(at, argv[at])
        else:
            argv.insert(at, data.draw(st.one_of(ARG_TEXT, st.sampled_from(FLAGS))))
    _run(directory, argv)


# A relation group of 0 to 4 members, each an id of its frame, an id of no
# world of the frame, or a value that is not a string.
MEMBERS = st.one_of(
    st.sampled_from(["w10", "w11", "w12", "w20", "w21"]),
    st.sampled_from(["", "nowhere", "w00", "W10", "w10 "]),
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
              st.just(["w10"]), st.just({"w10": 0})),
)


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(["frames", "system"]),
       group=st.lists(MEMBERS, max_size=4))
def test_a_relation_group_of_any_size_or_member_gives_a_verdict_or_one_error(
        directory, data, kind, group):
    """A drawn group is put into one agent's relation in a frame of a frames
    or system document.  A group that is empty or names anything but an id
    of its frame ends the command with exit 2 and one `error:` line; any
    other group is part of a valid document."""
    doc = json.loads(json.dumps(DOCUMENTS[kind]))
    frames = doc["frames" if kind == "frames" else "layers"]
    i = data.draw(st.integers(0, len(frames) - 1))
    agent = data.draw(st.sampled_from(doc["agents"]))
    groups = frames[i].setdefault("relations", {}).setdefault(agent, [])
    groups.insert(data.draw(st.integers(0, len(groups))), group)
    (directory / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = data.draw(st.sampled_from(COMMANDS[kind]))
    code, stderr = _run(directory, ["doc.json" if arg == "DOC" else arg for arg in argv])
    ids = {w["id"] for w in frames[i]["worlds"]}
    if not group or not all(isinstance(w, str) and w in ids for w in group):
        assert code == 2, (group, code, stderr)
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (group, stderr)
        key = "frames" if kind == "frames" else "layers"
        assert stderr.startswith(f"error: {key}[{i}].relations[{agent!r}]["), (group, stderr)
