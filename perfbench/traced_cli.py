"""Run one `ltpal` CLI command in-process, with per-layer spans recorded.

    python3 perfbench/traced_cli.py --trace-out trace.json -- check --ts ts.json --formula "F p"

The package is not edited.  Before `ltpal.cli.main` runs, this script
rebinds the module-level names through which each layer is called (for
example `ltpal.temporal.pal_sat`, the name `tems` uses to reach the PAL
evaluator) to timing wrappers.  Each wrapper keeps a count, its total time
and its self time (total minus the time of wrapped calls made inside it).
Calls that are few per command also keep a span (name, start, end,
parent).  Everything stays in memory and is written to --trace-out as JSON
when the command ends, whatever its exit code.  Stdout, stderr and the exit
code are those of the plain CLI.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.stats: dict = {}    # name -> [calls, total seconds, self seconds]
        self.counts: dict = {}
        self.spans: list = []
        self._stack = [["cli.main", 0.0]]
        self._pal_pairs: set = set()
        self._pal_formulas: dict = {}  # keeps formulas alive so their ids stay unique

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name: str, fn, *, span: bool = False, observe=None):
        """`fn` wrapped to add its calls and times to `name`.

        `observe(args, result)` runs after each call to update counters.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if span:
                    spans.append([name, start, start + elapsed, parent[0]])
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def pal_pair(self, world_id, formula) -> None:
        self._pal_formulas[id(formula)] = formula
        self._pal_pairs.add((world_id, id(formula)))

    def report(self, main_s: float) -> dict:
        counts = dict(self.counts, **{"pal.distinct_pairs": len(self._pal_pairs)})
        return {"main_s": main_s, "stats": self.stats, "counts": counts, "spans": self.spans}


def install(tracer: Tracer) -> None:
    """Rebind the names each caller uses to reach a layer."""
    classify, cli, pal, serialize, temporal = (
        importlib.import_module(f"ltpal.{name}")
        for name in ("classify", "cli", "pal", "serialize", "temporal")
    )

    plain_pal_sat = temporal.pal_sat

    def pal_sat(model, world_id, formula):
        tracer.pal_pair(world_id, formula)
        return plain_pal_sat(model, world_id, formula)

    # Only the temporal layer's leaf calls are rebound; the evaluator's own
    # recursion stays inside ltpal.pal and counts toward these calls' time.
    temporal.pal_sat = tracer.timed("pal.pal_sat", pal_sat)
    pal.announce_update = tracer.timed("pal.announce_update", pal.announce_update)

    tems = tracer.timed("temporal.tems", temporal.tems,
                        observe=lambda args, _: tracer.count("temporal.positions", len(args[1].worlds)))
    classify.tems = cli.tems = tems

    def quantified(_, result):
        tracer.count("classify.paths_checked", result[2])
        tracer.count("classify.capped", int(bool(result[3])))

    quantify = tracer.timed("classify.quantify_paths", classify.quantify_paths,
                            span=True, observe=quantified)
    classify.quantify_paths = cli.quantify_paths = quantify

    plain_enumerate = classify.enumerate_total_paths
    step = tracer.timed("transition.enumerate", next)

    def enumerate_total_paths(ts):
        source = plain_enumerate(ts)
        while True:
            try:
                path = step(source)
            except StopIteration:
                return
            tracer.count("transition.paths_enumerated")
            yield path

    classify.enumerate_total_paths = cli.enumerate_total_paths = enumerate_total_paths

    def file_size(args, _):
        if isinstance(args[0], (str, os.PathLike)):
            tracer.count("serialize.ts_bytes", os.path.getsize(args[0]))

    cli.build_ts = tracer.timed("transition.build_ts", cli.build_ts, span=True)
    cli.load_ts = tracer.timed("serialize.load_ts", cli.load_ts, span=True, observe=file_size)
    cli.save_ts = tracer.timed("serialize.save_ts", cli.save_ts, span=True)
    cli.ingest = tracer.timed("serialize.ingest", cli.ingest, span=True)
    cli.load_scores = tracer.timed("serialize.load_scores", cli.load_scores, span=True)
    serialize.enrich_model = tracer.timed("model.enrich_model", serialize.enrich_model)
    cli.score_edges = tracer.timed(
        "mppe.score_edges", cli.score_edges, span=True,
        observe=lambda _, table: tracer.count("mppe.edges_scored", len(table)),
    )
    cli.most_probable_path = tracer.timed("mppe.most_probable_path", cli.most_probable_path, span=True)
    cli.project_stream = tracer.timed("mppe.project_stream", cli.project_stream, span=True)
    for module, names in ((cli, ("parse_formula", "parse_pal_formula", "parse_template")),
                          (serialize, ("parse_pal_formula",))):
        for attr in names:
            setattr(module, attr, tracer.timed("syntax.parse", getattr(module, attr)))
    classify.substitute = tracer.timed("formulas.substitute", classify.substitute)


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: traced_cli.py --trace-out FILE -- CLI-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    install(tracer)
    from ltpal.cli import main as cli_main

    start = time.perf_counter()
    code = 1
    try:
        code = cli_main(cli_args)
    except SystemExit as exc:  # argparse exits this way on usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        main_s = time.perf_counter() - start
        with open(out_path, "w") as handle:
            json.dump(tracer.report(main_s), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
