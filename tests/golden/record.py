"""Record the golden CLI corpus that `tests/test_golden.py` replays.

    PYTHONPATH=src python tests/golden/record.py

Each session of the corpus is a set of input files and a list of `ltpal`
commands run one after another, in process through `ltpal.cli.main`, in a
fresh directory holding those files.  For every command it keeps the argv,
the environment variables it sets, the exit code, stdout, stderr and every
file the command wrote or changed.  The inputs are the demo data, seeded
random systems from `tests/generators.py` and corrupted documents; all are
stored in `corpus.json`, so replaying needs neither this script nor the
generators.

Re-recording changes what the replay expects, so a change of `corpus.json`
is a change of visible output and must be announced as one.
"""

from __future__ import annotations

import base64
import copy
import io
import json
import os
import random
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
TESTS = HERE.parent
DATA = TESTS / "data"
CORPUS = HERE / "corpus.json"
SEED = 14

# Stands for the running interpreter in a recorded argv.
PYTHON = "{python}"
# Environment variables a command may set; all are unset for the others.
ENV_VARS = ("LTPAL_PATH_CAP",)


def encode(data: bytes) -> dict:
    try:
        return {"text": data.decode("utf-8")}
    except UnicodeDecodeError:
        return {"base64": base64.b64encode(data).decode("ascii")}


def decode(entry: dict) -> bytes:
    if "text" in entry:
        return entry["text"].encode("utf-8")
    return base64.b64decode(entry["base64"])


def run_command(directory: Path, argv: list, env: dict) -> dict:
    """Run one command in `directory` through `ltpal.cli.main`; its outcome.

    `{python}` in an argv entry is replaced by the quoted interpreter path.
    A command that ends in argparse's `SystemExit` is marked `argparse`:
    its wording is argparse's and differs between Python versions.
    """
    from ltpal.cli import main

    argv = [arg.replace(PYTHON, shlex.quote(sys.executable)) for arg in argv]
    # A command writes only new files or files it names.
    present = set(os.listdir(directory))
    named = {arg: (directory / arg).read_bytes() for arg in argv
             if arg in present and (directory / arg).is_file()}
    saved_env = {name: os.environ.pop(name, None) for name in ENV_VARS}
    os.environ.update(env)
    saved_cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    argparse_exit = False
    try:
        os.chdir(directory)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code, argparse_exit = exc.code, True
    finally:
        os.chdir(saved_cwd)
        for name, value in saved_env.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value
    written = {}
    for name in sorted(os.listdir(directory)):
        path = directory / name
        if (name not in present or name in named) and path.is_file():
            data = path.read_bytes()
            if named.get(name) != data:
                written[name] = encode(data)
    outcome = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
               "written": written}
    if argparse_exit:
        outcome["argparse"] = True
    return outcome


def replay_session(session: dict, directory: Path):
    """Write the session's inputs into `directory` and run its commands:
    yields (recorded command, outcome now) pairs."""
    for name, entry in session["files"].items():
        (directory / name).write_bytes(decode(entry))
    for command in session["commands"]:
        yield command, run_command(directory, command["argv"], command.get("env", {}))


# ---------------------------------------------------------------- inputs


def _text(doc) -> dict:
    return {"text": json.dumps(doc)}


def _demo(name: str):
    return json.loads((DATA / name).read_text())


def _scorer(body: str) -> dict:
    """A line-protocol scorer script whose reply line is `body`."""
    return {"text": "import sys\nfor line in sys.stdin:\n"
                    f"    sys.stdout.write({body!r} + '\\n')\n    sys.stdout.flush()\n"}


_OVERLAP_SCORER = {"text": (
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    a, b = set(req['a']), set(req['b'])\n"
    "    print(json.dumps({'score': (len(a & b) + 1) / (len(a | b) + 2)}), flush=True)\n"
)}

_SCORERS = {
    "overlap": _OVERLAP_SCORER,
    "half": _scorer('{"score": 0.5}'),
    "zero": _scorer('{"score": 0}'),
    "seven": _scorer('{"score": 7}'),
    "inf": _scorer('{"score": 1e400}'),
    "huge-int": _scorer('{"score": ' + "9" * 400 + "}"),
    "negative": _scorer('{"score": -0.5}'),
    "nan": _scorer('{"score": NaN}'),
    "string": _scorer('{"score": "0.5"}'),
    "bool": _scorer('{"score": true}'),
    "no-score": _scorer('{"value": 0.5}'),
    "list": _scorer("[0.5]"),
    "not-json": _scorer("half"),
    "closes": {"text": "import sys\nsys.stdin.readline()\n"},
}


# Relations of the demo's two frames as groups of one, two and three ids,
# some of them overlapping.
_GROUPS = [{"a": [["w11"], ["w12", "w10", "w11"]], "b": [["w12", "w11"], ["w11"]]},
           {"a": [["w21"]], "b": [["w20", "w21"], ["w21", "w20"]]}]


def _demo_session() -> dict:
    frames = _demo("demo_frames.json")
    utf8 = copy.deepcopy(frames)
    utf8["frames"][0]["worlds"][0]["atoms"] = [["v1", "Katze\u00e9"]]
    grouped_frames = copy.deepcopy(frames)
    grouped_system = _demo("demo_ts_listed_edges.json")
    for frame, layer, relations in zip(grouped_frames["frames"], grouped_system["layers"][1:],
                                       _GROUPS):
        frame["relations"] = layer["relations"] = relations
    files = {
        "frames.json": _text(frames),
        "scores.json": _text(_demo("demo_scores.json")),
        "listed.json": {"text": (DATA / "demo_ts_listed_edges.json").read_text()},
        "rules.json": _text({"rules": [{"class": "Cat", "implies": ["Animal"]},
                                       {"class": "Dog", "implies": ["Animal", "Pet"]}]}),
        "cands.json": _text({"candidates": ["v1:Cat", "K{a} v1:Cat", "!v2:Dog", "v2:Cat"]}),
        "utf8-frames.json": {"text": json.dumps(utf8, ensure_ascii=False)},
        "groups-frames.json": _text(grouped_frames),
        "groups-system.json": _text(grouped_system),
        "bom-frames.json": {"text": "\ufeff" + json.dumps(frames)},
        "utf16-frames.json": encode(b"\xff\xfe" + json.dumps(frames).encode()),
        "empty.json": {"text": ""},
        "broken.json": {"text": "{nope"},
        "array.json": {"text": "[]"},
    }
    files.update({f"scorer-{name}.py": body for name, body in _SCORERS.items()})

    commands = [
        ["build", "--frames", "frames.json", "--output", "ts.json"],
        ["build", "--frames", "frames.json", "--rules", "rules.json", "--output", "ts-rules.json"],
        ["build", "--frames", "utf8-frames.json", "--output", "ts-utf8.json"],
        ["build", "--frames", "groups-frames.json", "--output", "ts-groups.json"],
        ["build", "--frames", "bom-frames.json", "--output", "x.json"],
        ["build", "--frames", "utf16-frames.json", "--output", "x.json"],
        ["build", "--frames", "empty.json", "--output", "x.json"],
        ["build", "--frames", "broken.json", "--output", "x.json"],
        ["build", "--frames", "array.json", "--output", "x.json"],
        ["build", "--frames", "missing.json", "--output", "x.json"],
        ["build", "--frames", "frames.json", "--rules", "missing.json", "--output", "x.json"],
        ["build", "--frames", "frames.json", "--output", "no-such-dir/ts.json"],
        ["paths", "--ts", "ts.json"],
        ["paths", "--ts", "ts.json", "--max", "0"],
        ["paths", "--ts", "ts.json", "--max", "2"],
        ["paths", "--ts", "ts.json", "--max", "-1"],
        ["paths", "--ts", "listed.json", "--max", "3"],
        ["paths", "--ts", "ts-rules.json"],
        ["paths", "--ts", "ts-utf8.json"],
        ["paths", "--ts", "."],
        ["paths", "--ts", "utf16-frames.json"],
        ["mppe", "--ts", "ts-utf8.json"],
    ]
    formulas = ["F v2:Cat", "F (v2:Cat | v2:Dog)", "G (D{both} v1:Cat -> X v2:Cat)",
                "X K{a} v1:Cat", "true", "false", "(v1:Cat U v2:Dog)", "G !v2:Dog",
                "X [v1:Cat] K{a} v1:Cat", "(v1:Cat R v2:Cat)", "(v1:Dog W false)",
                "X D{a,b} !v1:Dog", "F v1:Animal"]
    for formula in formulas:
        commands.append(["check", "--ts", "ts.json", "--formula", formula])
        commands.append(["check", "--ts", "ts.json", "--formula", formula, "--skip-dummies"])
    commands.append(["check", "--ts", "ts-rules.json", "--formula", "F v1:Animal"])
    for index in ["0", "1", "2", "3", "4", "5", "6", "-1", "99999999999999999999"]:
        commands.append(["check", "--ts", "ts.json", "--formula", "F v2:Cat", "--path-index", index])
    commands += [
        ["check", "--ts", "ts.json", "--formula", "X v1:Cat", "--path-index", "3", "--skip-dummies"],
        ["check", "--ts", "ts.json", "--formula", "F v2:Cat", "--mppe-only"],
        ["check", "--ts", "ts.json", "--formula", "F v2:Cat", "--mppe-only", "--skip-dummies"],
        ["check", "--ts", "ts.json", "--formula", "X v1:Cat", "--mppe-only", "--scores", "scores.json"],
        ["check", "--ts", "ts.json", "--formula", "v1:Cat", "--mppe-only", "--scores", "scores.json",
         "--skip-dummies"],
        ["check", "--ts", "ts.json", "--formula", "F v2:Cat", "--mppe-only", "--path-index", "4"],
        ["check", "--ts", "ts.json", "--formula", "F v2:Cat", "--mppe-only", "--path-index", "9"],
        ["check", "--ts", "ts.json", "--formula", "F v2:Cat", "--scores", "scores.json"],
        ["check", "--ts", "ts.json", "--formula", "F v2:Cat", "--path-index", "2",
         "--scores", "scores.json"],
        ["check", "--ts", "ts.json", "--formula", "F v2:Cat", "--mppe-only", "--scores", "missing.json"],
        ["check", "--ts", "ts.json", "--formula", "true", "--cap", "1"],
        ["check", "--ts", "ts.json", "--formula", "true", "--cap", "6"],
        ["check", "--ts", "ts.json", "--formula", "true", "--cap", "0"],
        ["check", "--ts", "ts.json", "--formula", "F v2:Cat", "--cap", "2"],
        ["check", "--ts", "ts.json", "--formula", "K{a} X v1:Cat"],
        ["check", "--ts", "ts.json", "--formula", "K{zz} v1:Cat"],
        ["check", "--ts", "ts.json", "--formula", "D{zz} v1:Cat"],
        ["check", "--ts", "ts.json", "--formula", "v1:Cat &"],
        ["check", "--ts", "ts.json", "--formula", "?1"],
        ["check", "--ts", "ts.json", "--formula", ""],
        ["check", "--ts", "missing.json", "--formula", "true"],
        ["check", "--ts", "listed.json", "--formula", "F v2:Cat"],
    ]
    for system in ("ts-groups.json", "groups-system.json"):
        for formula in ("X (v1:Cat -> K{b} v1:Cat)", "X D{a,b} !v1:Dog", "X X K{b} v2:Cat",
                        "X X (v2:Cat -> K{a} v2:Cat)", "G (D{both} v1:Cat -> X v2:Cat)"):
            commands.append(["check", "--ts", system, "--formula", formula])
    env_cases = [({"LTPAL_PATH_CAP": "2"}, "true"), ({"LTPAL_PATH_CAP": "100"}, "true"),
                 ({"LTPAL_PATH_CAP": "x"}, "true"), ({"LTPAL_PATH_CAP": "0"}, "true")]
    commands += [{"argv": ["check", "--ts", "ts.json", "--formula", formula], "env": env}
                 for env, formula in env_cases]
    commands.append({"argv": ["check", "--ts", "ts.json", "--formula", "true", "--cap", "9"],
                     "env": {"LTPAL_PATH_CAP": "2"}})

    verdicts = [("verified", ["--group", "both"]), ("possible", ["--group", "both"]),
                ("verified", ["--group", "a"]), ("possible", ["--group", "a,b"]),
                ("robust", ["--agent", "a"]), ("possible-agent", ["--agent", "b"]),
                ("missing-verified", ["--group", "both", "--candidates", "cands.json"]),
                ("missing-possible", ["--group", "both", "--candidates", "cands.json"]),
                ("missing-verified", ["--agent", "a", "--candidates", "cands.json"]),
                ("missing-possible", ["--agent", "b", "--candidates", "cands.json"])]
    templates = [("X ?1", "v1:Cat"), ("F ?1", "v2:Cat"), ("G (?1 -> X ?2)", "v1:Cat, v2:Cat"),
                 ("(?1 U ?2)", "true,v2:Dog"), ("X (?1 | ?2)", "D{a,b} v1:Cat,[v1:Cat] v1:Dog")]
    for mode, who in verdicts:
        for template, atoms in templates:
            base = ["classify", "--ts", "ts.json", "--mode", mode, "--template", template,
                    "--atoms", atoms, *who]
            commands.append(base)
            if template == "X ?1":
                commands += [[*base, "--skip-dummies"], [*base, "--cap", "1"],
                             [*base, "--mppe-only"],
                             [*base, "--mppe-only", "--scores", "scores.json", "--skip-dummies"]]
    classify = ["classify", "--ts", "ts.json", "--template", "F ?1"]
    commands += [
        [*classify, "--mode", "verified", "--atoms", "v1:Cat,v2:Cat", "--group", "both"],
        [*classify, "--mode", "verified", "--atoms", "", "--group", "both"],
        [*classify, "--mode", "verified", "--atoms", "v1:Cat,,v2:Cat", "--group", "both"],
        [*classify, "--mode", "verified", "--atoms", "X v1:Cat", "--group", "both"],
        [*classify, "--mode", "verified", "--atoms", "?1", "--group", "both"],
        [*classify, "--mode", "verified", "--atoms", "v1:Cat", "--group", "zz"],
        [*classify, "--mode", "verified", "--atoms", "v1:Cat", "--group", "a,,b"],
        [*classify, "--mode", "verified", "--atoms", "v1:Cat", "--agent", "a"],
        [*classify, "--mode", "robust", "--atoms", "v1:Cat", "--group", "both"],
        [*classify, "--mode", "robust", "--atoms", "v1:Cat", "--agent", "zz"],
        [*classify, "--mode", "missing-verified", "--atoms", "v1:Cat", "--group", "both"],
        [*classify, "--mode", "verified", "--atoms", "v1:Cat", "--group", "both",
         "--candidates", "cands.json"],
        [*classify, "--mode", "verified", "--atoms", "v1:Cat", "--group", "both",
         "--scores", "scores.json"],
        [*classify, "--mode", "verified", "--atoms", "v1:Cat", "--group", "both", "--cap", "0"],
        ["classify", "--ts", "ts.json", "--template", "F", "--mode", "verified", "--atoms",
         "v1:Cat", "--group", "both"],
        ["classify", "--ts", "ts.json", "--template", "F ?2", "--mode", "verified", "--atoms",
         "v1:Cat", "--group", "both"],
        ["classify", "--ts", "ts.json", "--template", "F (?1 & K{a} X v1:Cat)", "--mode",
         "verified", "--atoms", "v1:Cat", "--group", "both"],
        ["classify", "--ts", "ts.json", "--template", "X ?1", "--mode", "verified", "--atoms",
         "v1:Cat", "--group", "both", "--mppe-only", "--scores", "missing.json"],
    ]

    commands += [
        ["mppe", "--ts", "ts.json"],
        ["mppe", "--ts", "ts.json", "--scores", "scores.json"],
        ["mppe", "--ts", "ts.json", "--scorer", "overlap"],
        ["mppe", "--ts", "ts.json", "--scores", "scores.json", "--emit-corrected", "corrected.json"],
        ["mppe", "--ts", "ts-rules.json", "--emit-corrected", "corrected-rules.json"],
        ["mppe", "--ts", "ts.json", "--emit-corrected", "no-such-dir/c.json"],
        ["mppe", "--ts", "ts.json", "--scores", "missing.json"],
        ["mppe", "--ts", "listed.json"],
        ["mppe", "--ts", "ts.json", "--scorer-cmd", ""],
        ["mppe", "--ts", "ts.json", "--scorer-cmd", "no-such-ltpal-scorer"],
    ]
    for name in _SCORERS:
        commands.append(["mppe", "--ts", "ts.json", "--scorer-cmd", f"{PYTHON} scorer-{name}.py"])
    commands.append(["mppe", "--ts", "ts.json", "--scorer-cmd", f"{PYTHON} scorer-half.py",
                     "--emit-corrected", "corrected-half.json"])

    commands += [
        [], ["--help"], ["build", "--help"], ["check", "--help"], ["classify", "--help"],
        ["frobnicate"], ["build", "--frames", "frames.json"],
        ["paths", "--ts", "ts.json", "--max", "x"],
        ["check", "--ts", "ts.json"],
        ["check", "--ts", "ts.json", "--formula", "true", "--path-index", "one"],
        ["classify", "--ts", "ts.json", "--mode", "nope", "--template", "X ?1", "--atoms",
         "v1:Cat", "--group", "both"],
        ["classify", "--ts", "ts.json", "--mode", "verified", "--template", "X ?1", "--atoms",
         "v1:Cat", "--group", "both", "--agent", "a"],
        ["classify", "--ts", "ts.json", "--mode", "verified", "--template", "X ?1", "--atoms",
         "v1:Cat"],
        ["mppe", "--ts", "ts.json", "--scores", "scores.json", "--scorer", "overlap"],
        ["mppe", "--ts", "ts.json", "--scorer", "jaccard"],
    ]
    return {"name": "demo", "files": files, "commands": commands}


# ------------------------------------------------------- corrupted documents


_DELETE = object()


def _set(path, value):
    """A mutation that sets the node at `path` (keys and indices) to `value`,
    or deletes it when `value` is `_DELETE`."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    return mutate


def _model_corruptions(key: str) -> dict:
    """Corruptions of the frame or layer list `key`; index 1 is the first
    real frame of a system document and the first frame of a frames one."""
    i = 1 if key == "layers" else 0
    return {
        "world-int": _set([key, i, "worlds", 0], 7),
        "world-string": _set([key, i, "worlds", 1], "w10"),
        "world-list": _set([key, i, "worlds", 0], [["v", "C"]]),
        "world-null": _set([key, i, "worlds", 2], None),
        "world-id-missing": _set([key, i, "worlds", 1, "id"], _DELETE),
        "world-id-empty": _set([key, i, "worlds", 0, "id"], ""),
        "world-id-int": _set([key, i, "worlds", 0, "id"], 5),
        "world-id-list": _set([key, i, "worlds", 0, "id"], ["w10"]),
        "atoms-string": _set([key, i, "worlds", 0, "atoms"], "vC"),
        "atoms-object": _set([key, i, "worlds", 1, "atoms"], {"v": "C"}),
        "atoms-int": _set([key, i, "worlds", 2, "atoms"], 3),
        "atoms-strings": _set([key, i, "worlds", 0, "atoms"], ["vC"]),
        "atoms-objects": _set([key, i, "worlds", 0, "atoms"], [{"v": 0, "C": 0}, ["u", "Dog"]]),
        "atom-object": _set([key, i, "worlds", 0, "atoms", 0], {"v": 0, "C": 0}),
        "atom-3-list": _set([key, i, "worlds", 0, "atoms", 0], ["v", "C", "x"]),
        "atom-1-list": _set([key, i, "worlds", 1, "atoms", 0], ["v"]),
        "atom-int-member": _set([key, i, "worlds", 0, "atoms", 0], ["v", 7]),
        "atom-null-member": _set([key, i, "worlds", 0, "atoms", 0], [None, "C"]),
        "atom-list-member": _set([key, i, "worlds", 0, "atoms", 0], [["v"], "C"]),
        "atom-empty-member": _set([key, i, "worlds", 0, "atoms", 0], ["", "C"]),
        "atom-colon": _set([key, i, "worlds", 0, "atoms", 0], ["v", "C:t"]),
        "atom-paren": _set([key, i, "worlds", 1, "atoms", 0], ["v(", "C"]),
        "atom-space": _set([key, i, "worlds", 0, "atoms", 0], ["v", "C t"]),
        "atom-repeated-bad": _set([key, i + 1, "worlds", 0, "atoms"], [["v1", "Cat"], ["v1", 7]]),
        "worlds-missing": _set([key, i, "worlds"], _DELETE),
        "worlds-empty": _set([key, i, "worlds"], []),
        "worlds-object": _set([key, i, "worlds"], {}),
        "frame-not-object": _set([key, i], ["w10"]),
        "duplicate-id-in-frame": _set([key, i, "worlds", 2, "id"], "w10"),
        "duplicate-id-across-frames": lambda doc: (_set([key, i + 1, "worlds", 0, "id"], "w12")(doc),
                                                   _set([key, i + 1, "relations"], {})(doc)),
        "relations-not-object": _set([key, i, "relations"], [["w10", "w11"]]),
        "relation-unknown-agent": _set([key, i, "relations", "zz"], []),
        "relation-unknown-world": _set([key, i, "relations", "a"], [["w10", "nowhere"]]),
        "relation-string-pair": _set([key, i, "relations", "b"], ["w10"]),
        "relation-1-list-pair": _set([key, i, "relations", "a"], [["w10"]]),
        "relation-int-member": _set([key, i, "relations", "a"], [["w10", 5]]),
        "relation-not-list": _set([key, i, "relations", "b"], {"x": "w10"}),
        "relation-empty-group": _set([key, i, "relations", "a"], [["w10", "w11"], []]),
        "duplicate-agent": lambda doc: doc["agents"].append("a"),
        "empty-agent": lambda doc: doc["agents"].append(""),
        "agent-int": _set(["agents", 0], 3),
        "agents-missing": _set(["agents"], _DELETE),
        "agents-string": _set(["agents"], "ab"),
        "agents-empty": _set(["agents"], []),
        "list-missing": _set([key], _DELETE),
        "list-empty": _set([key], []),
        "list-object": _set([key], {}),
        "groups-list": _set(["groups"], [["a", "b"]]),
        "group-members-string": _set(["groups", "both"], "ab"),
        "group-member-int": _set(["groups", "both", 1], 2),
        # The three group faults, each checked where the document is loaded.
        "group-empty": _set(["groups", "g"], []),
        "group-unknown-agent": _set(["groups", "g"], ["a", "zz"]),
        "group-collides": _set(["groups", "a"], ["b"]),
        "group-all-three": _set(["groups"], {"a": ["zz"], "g": []}),
        "group-all-three-reversed": _set(["groups"], {"g": [], "a": ["zz"]}),
    }


def _edge_corruptions() -> dict:
    """Corruptions of an edge list as a scores file or a system file holds it."""
    return {
        "not-object": _set(["edges", 2], ["w10", "w20"]),
        "missing-from": _set(["edges", 2, "from"], _DELETE),
        "missing-to": _set(["edges", 1, "to"], _DELETE),
        "int-to": _set(["edges", 2, "to"], 7),
        "null-from": _set(["edges", 1, "from"], None),
        "bool-score": _set(["edges", 2, "score"], True),
        "string-score": _set(["edges", 2, "score"], "0.5"),
        "null-score": _set(["edges", 2, "score"], None),
        "missing-score": _set(["edges", 4, "score"], _DELETE),
        "zero-score": _set(["edges", 4, "score"], 0),
        "negative-score": _set(["edges", 0, "score"], -0.25),
        "above-one": _set(["edges", 3, "score"], 1.5),
        "huge-int": _set(["edges", 0, "score"], 10 ** 400),
        "huge-negative-int": _set(["edges", 1, "score"], -10 ** 400),
        "int-one": _set(["edges", 1, "score"], 1),
        "duplicate": lambda doc: doc["edges"].insert(3, dict(doc["edges"][1])),
        "missing-edge": lambda doc: doc["edges"].pop(3),
        "not-an-edge": lambda doc: doc["edges"].append({"from": "w10", "to": "w30", "score": 0.5}),
        "backwards": lambda doc: doc["edges"].append({"from": "w20", "to": "w10", "score": 0.5}),
        "unknown-from": lambda doc: doc["edges"].insert(0, {"from": "zz", "to": "w10", "score": 0.5}),
        "range-then-duplicate": lambda doc: (doc["edges"][0].__setitem__("score", 0.0),
                                             doc["edges"].append(dict(doc["edges"][1]))),
        "range-then-bool": lambda doc: (doc["edges"][1].__setitem__("score", 1.5),
                                        doc["edges"][2].__setitem__("score", False)),
        "int-then-zero": lambda doc: (doc["edges"][1].__setitem__("score", 1),
                                      doc["edges"][3].__setitem__("score", 0)),
        "entries-0-and-last": lambda doc: (doc["edges"][0].__setitem__("from", 3),
                                           doc["edges"].append({"from": "w10", "to": "w30"})),
        "range-and-extra": lambda doc: (doc["edges"][0].__setitem__("score", 2.0),
                                        doc["edges"].append({"from": "w10", "to": "w30",
                                                             "score": 0.5})),
        "missing-and-extra": lambda doc: (doc["edges"].pop(3),
                                          doc["edges"].append({"from": "w10", "to": "w30",
                                                               "score": 0.5})),
        "edges-object": _set(["edges"], {}),
        "edges-missing": _set(["edges"], _DELETE),
    }


def _atom_set_corruptions() -> dict:
    """Corruptions of a system document whose worlds index its "atom_sets"."""
    return {
        "index-bool": _set(["layers", 1, "worlds", 1, "atoms"], True),
        "index-negative": _set(["layers", 2, "worlds", 0, "atoms"], -1),
        "index-past-the-end": _set(["layers", 1, "worlds", 2, "atoms"], 5),
        "index-float": _set(["layers", 1, "worlds", 0, "atoms"], 1.0),
        "index-without-atom-sets": _set(["atom_sets"], _DELETE),
        "atom-sets-object": _set(["atom_sets"], {}),
        "atom-sets-entry-string": _set(["atom_sets", 1], "v1Cat"),
        "atom-sets-entry-1-list-atom": _set(["atom_sets", 2, 0], ["v1"]),
        "atom-sets-entry-space": _set(["atom_sets", 3, 0], ["v2", "C t"]),
    }


def _corrupted_session() -> dict:
    from generators import listed_atoms
    from ltpal.mppe import score_edges
    from ltpal.serialize import build_from_files, dump_ts, load_scores

    frames = _demo("demo_frames.json")
    frames["agents"].append("c")  # a third agent, for the roster corruptions
    ts = build_from_files(DATA / "demo_frames.json")
    # The corruptions of layers address each world's atom list, so they are
    # made on the list layout; those of "atom_sets" on the written one.
    indexed = json.loads(json.dumps(dump_ts(ts)))
    system = listed_atoms(indexed)
    system["agents"].append("c")
    for layer in system["layers"]:
        layer["relations"]["c"] = []
    scores = _demo("demo_scores.json")
    scored = listed_atoms(dump_ts(ts, load_scores(DATA / "demo_scores.json", ts)))
    overlap = listed_atoms(dump_ts(ts, score_edges(ts)))

    files = {"frames.json": _text(_demo("demo_frames.json")),
             "scores.json": _text(scores),
             "rules.json": _text({"rules": [{"class": "Cat", "implies": ["Animal"]}]})}
    commands = [["build", "--frames", "frames.json", "--output", "ts.json"]]

    def add(name, doc, argv):
        files[name] = _text(doc)
        commands.append(argv)

    for corruption, mutate in _model_corruptions("frames").items():
        doc = copy.deepcopy(frames)
        mutate(doc)
        name = f"frames-{corruption}.json"
        add(name, doc, ["build", "--frames", name, "--output", "out.json"])
    for corruption, mutate in _model_corruptions("layers").items():
        doc = copy.deepcopy(system)
        mutate(doc)
        name = f"system-{corruption}.json"
        add(name, doc, ["check", "--ts", name, "--formula", "true"])
    for corruption, mutate in _atom_set_corruptions().items():
        doc = copy.deepcopy(indexed)
        mutate(doc)
        name = f"indexed-system-{corruption}.json"
        add(name, doc, ["check", "--ts", name, "--formula", "true"])
    for base, label in ((scores, "scores"), (scored, "scored-system"),
                        (overlap, "overlap-system")):
        for corruption, mutate in _edge_corruptions().items():
            doc = copy.deepcopy(base)
            mutate(doc)
            name = f"{label}-{corruption}.json"
            if label == "scores":
                add(name, doc, ["mppe", "--ts", "ts.json", "--scores", name])
            else:
                add(name, doc, ["mppe", "--ts", name])
    for name, doc in (("scored-system.json", scored), ("overlap-system.json", overlap)):
        add(name, doc, ["mppe", "--ts", name])
        commands.append(["check", "--ts", name, "--formula", "F v2:Cat", "--mppe-only"])
        commands.append(["classify", "--ts", name, "--mode", "possible", "--template", "F ?1",
                         "--atoms", "v2:Dog", "--group", "both", "--mppe-only"])
    unscored = {k: v for k, v in scored.items()}
    unscored["edges"] = [{"from": e["from"], "to": e["to"]} for e in scored["edges"]]
    add("unscored-listed.json", unscored, ["mppe", "--ts", "unscored-listed.json"])
    partial = copy.deepcopy(scored)
    del partial["edges"][2]["score"]
    add("partial-scores.json", partial, ["check", "--ts", "partial-scores.json", "--formula", "true"])
    add("scores-not-object.json", [], ["mppe", "--ts", "ts.json", "--scores",
                                       "scores-not-object.json"])
    add("scores-missing-key.json", {"scores": []}, ["mppe", "--ts", "ts.json", "--scores",
                                                    "scores-missing-key.json"])
    add("system-not-object.json", "layers", ["check", "--ts", "system-not-object.json",
                                             "--formula", "true"])

    candidates = {
        "not-object": ["v1:Cat"],
        "missing-key": {"candidate": ["v1:Cat"]},
        "not-list": {"candidates": "v1:Cat"},
        "empty": {"candidates": []},
        "non-string": {"candidates": ["v1:Cat", 3]},
        "parse-error": {"candidates": ["v1:Cat", "p & &"]},
        "temporal": {"candidates": ["X v1:Cat"]},
        "placeholder": {"candidates": ["?1"]},
        "unknown-agent": {"candidates": ["K{zz} v1:Cat"]},
        "group-alias": {"candidates": ["D{both} v1:Cat", "K{b} v2:Cat"]},
    }
    for corruption, doc in candidates.items():
        name = f"cands-{corruption}.json"
        add(name, doc, ["classify", "--ts", "ts.json", "--mode", "missing-verified",
                        "--template", "X ?1", "--atoms", "v1:Cat", "--group", "both",
                        "--candidates", name])

    rules = {
        "not-object": [],
        "missing-key": {"rule": []},
        "not-list": {"rules": {}},
        "entry-not-object": {"rules": ["Cat"]},
        "class-int": {"rules": [{"class": 3, "implies": []}]},
        "class-missing": {"rules": [{"implies": ["Animal"]}]},
        "implies-int": {"rules": [{"class": "Cat", "implies": ["Animal", 7]}]},
        "implies-missing": {"rules": [{"class": "Cat"}]},
        "bad-class-id": {"rules": [{"class": "Cat", "implies": ["An imal"]}]},
        "empty-class": {"rules": [{"class": "", "implies": ["Animal"]}]},
        "cycle": {"rules": [{"class": "Cat", "implies": ["Pet"]},
                            {"class": "Pet", "implies": ["Cat"]}]},
    }
    for corruption, doc in rules.items():
        name = f"rules-{corruption}.json"
        add(name, doc, ["build", "--frames", "frames.json", "--rules", name, "--output", "out.json"])
    # Frame errors come before rule errors.
    commands.append(["build", "--frames", "frames-world-id-int.json", "--rules",
                     "rules-class-int.json", "--output", "out.json"])
    commands.append(["build", "--frames", "frames-group-empty.json", "--rules", "missing.json",
                     "--output", "out.json"])
    return {"name": "corrupted documents", "files": files, "commands": commands}


# ------------------------------------------------------------ random systems

_TEMPLATES = ["X ?1", "F ?1", "G ?1", "G (?1 -> X ?2)", "(?1 U ?2)", "F (?1 & X ?2)",
              "(?1 R ?2)"]


def _random_session(rng: random.Random, k: int) -> dict:
    from generators import random_frames_document, random_pal_formula, random_temporal_formula
    from ltpal.syntax import pretty

    doc = random_frames_document(rng, max_frames=3, max_worlds=3)
    agents = doc["agents"]
    files = {"frames.json": _text(doc),
             "cands.json": _text({"candidates": [pretty(random_pal_formula(rng, agents, 2))
                                                 for _ in range(rng.randint(1, 3))]})}
    if rng.random() < 0.5:
        files["rules.json"] = _text({"rules": [{"class": "Cat", "implies": ["Warm"]},
                                               {"class": "Fox", "implies": ["Dog"]}]})
        build = ["build", "--frames", "frames.json", "--rules", "rules.json", "--output", "ts.json"]
    else:
        build = ["build", "--frames", "frames.json", "--output", "ts.json"]
    commands = [build, ["paths", "--ts", "ts.json"], ["mppe", "--ts", "ts.json",
                                                      "--emit-corrected", "corrected.json"]]
    for _ in range(4):
        formula = pretty(random_temporal_formula(rng, agents, 3))
        base = ["check", "--ts", "ts.json", "--formula", formula]
        commands += [base, [*base, "--skip-dummies"], [*base, "--cap", str(rng.randint(1, 5))],
                     [*base, "--path-index", str(rng.randrange(30))],
                     [*base, "--path-index", str(rng.randrange(30)), "--skip-dummies"],
                     [*base, "--mppe-only", *(["--skip-dummies"] if rng.random() < 0.5 else [])]]
    modes = ["verified", "possible", "robust", "possible-agent", "missing-verified",
             "missing-possible"]
    for mode in modes:
        template = rng.choice(_TEMPLATES)
        arity = template.count("?2") + 1
        atoms = ",".join(pretty(random_pal_formula(rng, agents, 2)) for _ in range(arity))
        if mode in ("robust", "possible-agent") or rng.random() < 0.3:
            who = ["--agent", rng.choice(agents)]
        else:
            groups = doc.get("groups", {})
            who = ["--group", rng.choice([*groups, ",".join(rng.sample(agents, rng.randint(
                1, len(agents))))])]
        base = ["classify", "--ts", "ts.json", "--mode", mode, "--template", template,
                "--atoms", atoms, *who]
        if mode.startswith("missing"):
            base += ["--candidates", "cands.json"]
        commands += [base, [*base, "--skip-dummies", "--cap", str(rng.randint(1, 9))],
                     [*base, "--mppe-only"]]
    return {"name": f"random system {k}", "files": files, "commands": commands}


# ------------------------------------------------------------------ record


def sessions() -> list:
    rng = random.Random(SEED)
    return [_demo_session(), _corrupted_session(),
            *(_random_session(rng, k) for k in range(16))]


def record() -> dict:
    recorded = []
    for session in sessions():
        commands = [c if isinstance(c, dict) else {"argv": c} for c in session["commands"]]
        session = dict(session, commands=commands)
        with tempfile.TemporaryDirectory() as tmp:
            session["commands"] = [
                {**command, **outcome}
                for command, outcome in replay_session(session, Path(tmp))
            ]
        recorded.append(session)
    return {"seed": SEED, "sessions": recorded}


def main() -> None:
    sys.path.insert(0, str(TESTS))
    corpus = record()
    # One input file or command per line, so that a diff of the corpus reads.
    lines = [f'{{"seed": {corpus["seed"]}, "sessions": [']
    for i, session in enumerate(corpus["sessions"]):
        lines.append(f'{{"name": {json.dumps(session["name"])}, "files": {{')
        lines.append(",\n".join(f"{json.dumps(name)}: {json.dumps(entry)}"
                                for name, entry in session["files"].items()))
        lines.append('}, "commands": [')
        lines.append(",\n".join(json.dumps(command) for command in session["commands"]))
        lines.append("]}" + ("," if i + 1 < len(corpus["sessions"]) else ""))
    lines.append("]}")
    CORPUS.write_text("\n".join(lines) + "\n")
    assert json.loads(CORPUS.read_text()) == corpus
    count = sum(len(s["commands"]) for s in corpus["sessions"])
    print(f"{CORPUS}: {len(corpus['sessions'])} sessions, {count} commands, "
          f"{CORPUS.stat().st_size} bytes")


if __name__ == "__main__":
    main()
