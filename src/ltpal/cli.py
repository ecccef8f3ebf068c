"""Command-line interface.

Subcommands: build, paths, check, classify, mppe.  Results go to stdout as
one JSON object; notes and errors go to stderr.  Exit codes: 0 for true or
plain success, 1 for a false verdict, 2 for usage, input or parse errors
and for internal errors (one `error: internal error: ...` line, no
traceback), 3 for undecided (path cap reached before a decision).
`main` returns the exit code; `run`, the entry point of `python -m
ltpal.cli` and of the `ltpal` script, also ends the process.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
from itertools import islice

from .errors import ConfigurationError, IngestionError, LtpalError
from .serialize import ingest, load_candidates, load_scores, load_ts, save_ts
from .transition import build_ts, enumerate_total_paths, path_at, total_path_count

# Names each command binds here on first use (`_bind`), so that a command
# compiles only the modules it runs: `build`, `paths` and `mppe` never
# parse a formula, and only `mppe` and `--mppe-only` extract a path.
_LAZY = {
    "classify": ("DEFAULT_PATH_CAP", "quantify_paths", "verdict"),
    "formulas": ("Next", "Template", "expand_groups"),
    "syntax": ("parse_formula", "parse_pal_formula", "parse_template", "pretty"),
    "mppe": ("ExternalScorer", "most_probable_path", "project_stream", "score_edges"),
}
_FORMULAS = ("classify", "formulas", "syntax")
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _bind(*modules: str) -> None:
    """Bind the names of `modules` here, keeping any name already bound,
    such as one a tool has wrapped."""
    bound = globals()
    for module in modules:
        names = _LAZY[module]
        source = __import__(f"{__package__}.{module}", fromlist=names)
        for name in names:
            bound.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    """A name of `_LAZY`, bound on first read, such as by a tool that wraps it."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _note(message: str) -> None:
    print(f"note: {message}", file=sys.stderr)


def _resolve_cap(flag) -> int:
    if flag is not None:
        if flag < 1:
            raise ConfigurationError("--cap must be at least 1")
        return flag
    env = os.environ.get("LTPAL_PATH_CAP")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigurationError(
                f"LTPAL_PATH_CAP must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ConfigurationError("LTPAL_PATH_CAP must be at least 1")
        return value
    return DEFAULT_PATH_CAP


def _split_atoms(text: str) -> list:
    """Split --atoms on top-level commas only, so D{a,b} stays intact."""
    parts = []
    depth = 0
    current: list = []
    for ch in text:
        if ch in "{[(":
            depth += 1
        elif ch in "}])":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    parts = [p.strip() for p in parts]
    if not parts or any(not p for p in parts):
        raise IngestionError("--atoms must be a comma-separated list of PAL formulas")
    return parts


def _expand_group_arg(value: str, groups: dict) -> tuple:
    names = [n.strip() for n in value.split(",")]
    if any(not n for n in names):
        raise IngestionError("--group must be a comma-separated list of agent or group names")
    members = []
    for name in names:
        members.extend(groups.get(name, (name,)))
    return tuple(dict.fromkeys(members))


def _mppe_table(ts, embedded, scores_path):
    if scores_path is not None:
        return load_scores(scores_path, ts)
    if embedded is not None:
        return embedded
    _note("no edge scores supplied; using the built-in overlap scorer")
    return score_edges(ts)


def _cmd_build(args) -> int:
    doc = ingest(args.frames, args.rules)
    ts = build_ts(doc.frames, groups=doc.groups or None)
    original = [tuple(w.id for w in frame.worlds) for frame in doc.frames]
    renamed = [tuple(w.id for w in layer.worlds) for layer in ts.real_layers]
    if original != renamed:
        _note("frame world ids were prefixed by layer to keep them unique")
    save_ts(ts, args.output)
    _emit({
        "frames": len(ts.real_layers),
        "states": ts.state_count,
        "edges": ts.edge_count,
        "total_paths": total_path_count(ts),
        "output": args.output,
    })
    return EXIT_TRUE


def _cmd_paths(args) -> int:
    if args.max is not None and args.max < 0:
        raise ConfigurationError("--max must not be negative")
    ts, _ = load_ts(args.ts)
    total = total_path_count(ts)
    # islice takes no stop above sys.maxsize, and no system lists that many.
    limit = min(args.max, sys.maxsize) if args.max is not None else 10_000
    paths = [list(p.worlds) for p in islice(enumerate_total_paths(ts), limit)]
    _emit({"count": total, "paths": paths, "truncated": total > len(paths)})
    return EXIT_TRUE


def _cmd_check(args) -> int:
    _bind(*_FORMULAS)
    ts, embedded = load_ts(args.ts)
    formula = expand_groups(parse_formula(args.formula), ts.groups)
    if args.scores is not None and not args.mppe_only:
        raise ConfigurationError("--scores is only used together with --mppe-only")
    cap = _resolve_cap(args.cap)  # checked on every branch, used by the last
    # φ from the first real frame is X φ from the start world, where every
    # path begins.
    query = Next(formula) if args.skip_dummies else formula

    if args.path_index is not None or args.mppe_only:  # one path; --path-index first
        if args.path_index is not None:
            path = path_at(ts, args.path_index)
            if path is None:
                raise ConfigurationError(
                    f"--path-index {args.path_index} is out of range "
                    f"(the system has {total_path_count(ts)} total paths)"
                )
            mode, before, after = "path", {"path_index": args.path_index}, {}
        else:
            _bind("mppe")
            scored = most_probable_path(ts, _mppe_table(ts, embedded, args.scores))
            path = scored.path
            mode, before, after = "mppe-only", {}, {"score": scored.score}
        value = quantify_paths(ts, query, universal=False, path=path)[0]
        _emit({"mode": mode, "formula": pretty(formula), **before,
               "path": list(path.worlds), **after, "result": value})
        return EXIT_TRUE if value else EXIT_FALSE

    result, witness, checked, capped = quantify_paths(ts, query, universal=True, path_cap=cap)
    _emit({
        "mode": "all",
        "formula": pretty(formula),
        "result": result,
        "witness": list(witness.worlds) if witness is not None else None,
        "paths_checked": checked,
        "capped": capped,
    })
    if result is None:
        return EXIT_UNDECIDED
    return EXIT_TRUE if result else EXIT_FALSE


# CLI mode -> (the option naming who is asked, possible, missing-information).
_CLASSIFY_MODES = {
    "verified": ("group", False, False),
    "possible": ("group", True, False),
    "robust": ("agent", False, False),
    "possible-agent": ("agent", True, False),
    "missing-verified": (None, False, True),
    "missing-possible": (None, True, True),
}


def _cmd_classify(args) -> int:
    _bind(*_FORMULAS)
    ts, embedded = load_ts(args.ts)
    groups = ts.groups
    template = parse_template(args.template)
    skeleton = expand_groups(template.skeleton, groups)
    template = Template(Next(skeleton) if args.skip_dummies else skeleton, template.arity)
    atoms = [
        expand_groups(parse_pal_formula(text), groups)
        for text in _split_atoms(args.atoms)
    ]
    who, possible, missing = _CLASSIFY_MODES[args.mode]
    if args.scores is not None and not args.mppe_only:
        raise ConfigurationError("--scores is only used together with --mppe-only")
    if args.candidates is not None and not missing:
        raise ConfigurationError("--candidates is only used by the missing-* modes")
    if missing and args.candidates is None:
        raise ConfigurationError(f"mode {args.mode!r} needs --candidates")

    group = _expand_group_arg(args.group, groups) if args.group is not None else None
    if who is not None and getattr(args, who) is None:
        raise ConfigurationError(f"mode {args.mode!r} needs --{who}")
    path_cap = _resolve_cap(args.cap)
    path = None
    if args.mppe_only:
        _bind("mppe")
        path = most_probable_path(ts, _mppe_table(ts, embedded, args.scores)).path
    candidates = None
    if missing:
        candidates = [expand_groups(c, groups) for c in load_candidates(args.candidates)]

    report = verdict(
        ts, template, atoms, group=group, agent=args.agent, possible=possible,
        candidates=candidates, path_cap=path_cap, path=path,
    )
    _emit(report.to_json_dict())
    if report.result is None:
        return EXIT_UNDECIDED
    return EXIT_TRUE if report.result else EXIT_FALSE


def _cmd_mppe(args) -> int:
    _bind("mppe")
    ts, embedded = load_ts(args.ts)
    if args.scorer_cmd is not None:
        import shlex  # only --scorer-cmd needs it

        with ExternalScorer(shlex.split(args.scorer_cmd)) as scorer:
            table = score_edges(ts, scorer)
    elif args.scorer is not None:
        table = score_edges(ts)
    else:
        table = _mppe_table(ts, embedded, args.scores)
    scored = most_probable_path(ts, table)
    corrected = [
        {
            "frame": choice.frame,
            "world": choice.world,
            "atoms": [[a.data_id, a.class_id] for a in choice.atoms],
        }
        for choice in project_stream(ts, scored)
    ]
    payload = {
        "path": list(scored.path.worlds),
        "score": scored.score,
        "log_score": scored.log_score,
        "corrected": corrected,
    }
    if args.emit_corrected is not None:
        with open(args.emit_corrected, "w") as handle:
            json.dump({"corrected": corrected}, handle, indent=2)
            handle.write("\n")
    _emit(payload)
    return EXIT_TRUE


def _build_options(build) -> None:
    build.add_argument("--frames", required=True, help="frames JSON file")
    build.add_argument("--rules", help="ontology rules JSON file")
    build.add_argument("--output", required=True, help="where to write the system JSON")
    build.set_defaults(func=_cmd_build)


def _paths_options(paths) -> None:
    paths.add_argument("--ts", required=True, help="system JSON file")
    paths.add_argument("--max", type=int, help="cap on listed paths (default 10000)")
    paths.set_defaults(func=_cmd_paths)


def _check_options(check) -> None:
    check.add_argument("--ts", required=True, help="system JSON file")
    check.add_argument("--formula", required=True, help="temporal formula text")
    check.add_argument("--path-index", type=int,
                       help="evaluate on the n-th total path (0-based) instead of all")
    check.add_argument("--mppe-only", action="store_true",
                       help="evaluate on the most probable path only")
    check.add_argument("--scores", help="edge scores JSON (with --mppe-only)")
    check.add_argument("--cap", type=int, help="path enumeration cap")
    check.add_argument("--skip-dummies", action="store_true",
                       help="evaluate from the first real frame")
    check.set_defaults(func=_cmd_check)


def _classify_options(classify) -> None:
    classify.add_argument("--ts", required=True, help="system JSON file")
    classify.add_argument("--mode", required=True, choices=list(_CLASSIFY_MODES))
    classify.add_argument("--template", required=True,
                          help="temporal template with ?1, ?2, ... slots")
    classify.add_argument("--atoms", required=True,
                          help="comma-separated PAL formulas filling the slots")
    who = classify.add_mutually_exclusive_group(required=True)
    who.add_argument("--group", help="agent group (comma-separated ids or a group alias)")
    who.add_argument("--agent", help="single agent id")
    classify.add_argument("--candidates", help="candidate announcements JSON (missing-* modes)")
    classify.add_argument("--cap", type=int, help="path enumeration cap")
    classify.add_argument("--skip-dummies", action="store_true",
                          help="evaluate from the first real frame")
    classify.add_argument("--mppe-only", action="store_true",
                          help="restrict the verdict to the most probable path")
    classify.add_argument("--scores", help="edge scores JSON (with --mppe-only)")
    classify.set_defaults(func=_cmd_classify)


def _mppe_options(mppe) -> None:
    mppe.add_argument("--ts", required=True, help="system JSON file")
    source = mppe.add_mutually_exclusive_group()
    source.add_argument("--scores", help="edge scores JSON file")
    source.add_argument("--scorer-cmd",
                        help="external scorer command (line-protocol subprocess)")
    source.add_argument("--scorer", choices=["overlap"],
                        help="force the built-in scorer even if scores are embedded")
    mppe.add_argument("--emit-corrected", help="also write the corrected stream JSON here")
    mppe.set_defaults(func=_cmd_mppe)


# Subcommand -> (help, function that adds its options and the command).
_COMMANDS = {
    "build": ("assemble a transition system from frames", _build_options),
    "paths": ("enumerate total paths in lexicographic order", _paths_options),
    "check": ("evaluate a temporal formula", _check_options),
    "classify": ("run a reliability verdict", _classify_options),
    "mppe": ("extract the most probable path", _mppe_options),
}


def _build_parser(with_options=_COMMANDS) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the options of those named in
    `with_options` (by default all).  A command needs only its own."""
    parser = argparse.ArgumentParser(
        prog="ltpal",
        description="Epistemic-temporal model checking over classifier frame streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if name in with_options:
            add_options(command)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused while the command runs.  Loading
    a system builds a large acyclic object graph that the collector would
    walk again and again to find nothing, while a command leaves only its
    argument parser's few hundred cyclic objects, whatever the input size;
    reference counting frees the rest.  The collector's state is restored on
    return, so in-process callers get theirs back.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The first token naming a subcommand is the one argparse runs: the
    # top-level parser has no option that takes a value.
    named = [token for token in argv if token in _COMMANDS][:1]
    args = _build_parser(named).parse_args(argv)
    try:
        return args.func(args)
    except (LtpalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input is nested too deeply to evaluate", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not a verdict: never exit 0 or 1 for it
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run(argv=None) -> int:
    """The process entry point: run `main(argv)` and end the process.

    Once the exit handlers have run and stdout and stderr are flushed, the
    process ends with `os._exit`, skipping the interpreter's teardown of
    every loaded module and its exit-time garbage collection, about 10 ms per
    command.  While a tracer, profiler or debugger watches (coverage,
    cProfile, trace, pdb), or when a flush fails, the code is returned for
    the ordinary exit, which reports such a failure as Python always does:
    a broken pipe is an `Exception ignored` line and status 120.
    """
    code = main(argv)
    if _watched():
        return code
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a closed pipe, a full disk, a closed or missing stream:
        return code    # the ordinary exit meets and reports it again
    os._exit(code)


def _watched() -> bool:
    """Whether a trace or profile function is set, or (Python 3.12 and later,
    where cProfile and coverage may use it) a `sys.monitoring` tool."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))  # tool ids are 0 to 5


if __name__ == "__main__":
    sys.exit(run())
