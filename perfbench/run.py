"""End-to-end and per-layer benchmark of the `ltpal` CLI.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a source checkout; the package is used from `src/`
and the oracles from `tests/oracles.py`, nothing is installed.

Loop.  One closed-loop client: a session of CLI commands runs one
subprocess at a time (`python -m ltpal.cli ...`, with `src` on
PYTHONPATH); the next command starts when the previous one has exited.
The only other process is the benchmark's own scorer child that
`mppe --scorer-cmd` starts.  Sessions repeat until the next one would end
after `--seconds`; an untraced run makes at least three, a traced run at
least one pair.

Set-up.  The seed drives a generator (perfbench/workloads.py) that writes
the input files and works out every command's expected exit code and
stdout fields with the brute-force oracles or by planting them.  Set-up
runs three times and `setup_s` is the median; the last set-up's files are
used.  ltpal only ever sees the generated files.

Timing.  The benchmark and every process it starts share one CPU.  The
host's speed swings by up to three times within seconds, so a thread of
this process times a fixed sliver of interpreter work every 20 ms (the
`Pacer`), and each span is reported as its wall time multiplied by the
mean sampled speed relative to a reference pace: the span's work in
reference seconds.  Every `_s` metric below is such a scaled time.

Metrics, with `--trace 0`: per session, the time of all its commands
(`session_s`), the time spent in each command kind (`build_s`, `check_s`,
`classify_s`, `mppe_s`) and the largest CLI process (`peak_rss_mb`, from
wait4); each is reported as the median over the run's sessions, next to
`setup_s`.

With `--trace 1`, an untraced session and a traced one alternate.  The
traced one runs every command through perfbench/traced_cli.py, which calls
`ltpal.cli.main` in-process with timing wrappers around each layer.  Layer
metrics are per-session sums, median over traced sessions;
`trace_overhead` is traced over untraced median `session_s`, and
`cli.startup_ms` is the median over commands of wall time minus the time
spent inside `main`.  Traced stdout must equal untraced stdout.

Correctness.  A command fails when its exit code or a checked stdout field
differs from the expected answer, when stderr holds a traceback, or when it
runs past its timeout.  `attempted` counts commands, `failed` the failed
ones; their ratio is printed as `failed_ratio` on the summary line.

Output.  A summary line, then, as the last line of stdout, one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

Reference machine for the bounds in BENCHMARK.json: 2 vCPUs (`nproc` 2),
"Intel(R) Xeon(R) Processor", Python 3.11.7.  The CLI spellings used are
the ones the CLI accepts: `--cap` for the path cap (left at its default
here) and `{"edges": [...]}` for scores files; the README's `--path-cap`
and `{"scores": [...]}` are rejected by the CLI.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# Untraced runs report medians of at least this many sessions, even when
# one session (13 to 17 s on `stream`) leaves no room for a third.
MIN_SESSIONS = 3
COMMAND_TIMEOUT_S = 120.0
KINDS = ("build", "check", "classify", "mppe")
# A pace sample is one `_pace_slice`; PACE_REF_S is its length at the
# reference pace, PACE_EVERY_S the gap between samples while work runs.
PACE_REF_S = 0.0002
PACE_EVERY_S = 0.02
_PACE_PROBE = frozenset((1, 2, 3))


def _pace_slice() -> None:
    """A fixed sliver of interpreter work of the kind ltpal does: small
    tuples, frozensets, dict updates and nested calls."""

    def step(i: int, depth: int) -> int:
        return len(frozenset((i % 7, i % 11, i % 5)) & _PACE_PROBE) + (step(i, depth - 1) if depth else 0)

    table: dict = {}
    for i in range(64):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + step(i, 2)


class Pacer:
    """Samples how fast this CPU runs interpreter work, to scale times by.

    While the main thread waits on a child (`waiting`), a thread times a
    `_pace_slice` every PACE_EVERY_S, about 1% of the CPU.  At other times
    the main thread runs Python itself and holds `_turn`, so that no sample
    is slowed by waiting for the interpreter lock.  `scaled` multiplies a
    span by the mean speed sampled within it (PACE_REF_S over each sample),
    which is the span's work in seconds at the reference pace; a sample
    slowed by preemption adds a speed near 0 rather than an outlier.  Spans
    are also sampled at both ends, so even one with no waiting in it, such
    as set-up, has samples of its own.
    """

    def __init__(self):
        self.samples: list = []  # (start, seconds)
        self._stopping = False
        self._turn = threading.Lock()
        self._turn.acquire()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stopping = True
        self._turn.release()
        self._thread.join()

    def _loop(self) -> None:
        while True:
            time.sleep(PACE_EVERY_S)
            with self._turn:
                if self._stopping:
                    return
                self.sample()

    @contextlib.contextmanager
    def waiting(self):
        """Lets the thread sample while the main thread only waits."""
        self._turn.release()
        try:
            yield
        finally:
            self._turn.acquire()

    def sample(self) -> None:
        start = time.perf_counter()
        _pace_slice()
        self.samples.append((start, time.perf_counter() - start))

    def scaled(self, start: float, end: float) -> float:
        """The span from `start` to `end`, taken after `sample()`, in reference seconds."""
        self.sample()
        taken = []
        for at, seconds in reversed(self.samples):
            if at < start - PACE_EVERY_S:
                break
            taken.append(seconds)
        return (end - start) * statistics.fmean(PACE_REF_S / seconds for seconds in taken)


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs commands one at a time in a work directory and keeps their results."""

    def __init__(self, work: Path, pacer: Pacer):
        self.work = work
        self.pacer = pacer
        self.env = _cli_env()
        self.failures: list = []
        self.attempted = 0

    def run(self, command, tag: str, traced: bool) -> dict:
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        trace_file = self.work / f"{tag}.trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), "--trace-out", trace_file.name, "--", *command.argv]
        else:
            argv = [sys.executable, "-m", "ltpal.cli", *command.argv]
        if command.scorer_counts:
            (self.work / command.scorer_counts).unlink(missing_ok=True)
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            self.pacer.sample()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=stdout, stderr=stderr)
            exited = os.pidfd_open(proc.pid)
            try:
                with self.pacer.waiting():
                    timed_out = not select.select([exited], [], [], COMMAND_TIMEOUT_S)[0]
                    if timed_out:
                        proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    end = time.perf_counter()
            finally:
                os.close(exited)
        wall = end - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {
            "kind": command.kind, "wall": wall, "scaled": self.pacer.scaled(start, end),
            "code": proc.returncode, "timed_out": timed_out,
            "rss_mb": usage.ru_maxrss / 1024.0, "out": out, "err": err,
        }
        if traced:
            result["trace"] = json.loads(trace_file.read_text()) if trace_file.exists() else None
        if command.scorer_counts:
            counts = self.work / command.scorer_counts
            result["scorer"] = json.loads(counts.read_text()) if counts.exists() else None
        return result

    def judge(self, command, result) -> str | None:
        """Check one command's outcome; returns its stdout text."""
        self.attempted += 1
        text = result["out"].read_text()
        lines = [line for line in text.splitlines() if line.strip()]
        problems = []
        if result["timed_out"]:
            problems.append(f"timed out after {COMMAND_TIMEOUT_S:.0f} s")
        if "Traceback" in result["err"].read_text():
            problems.append("traceback on stderr")
        try:
            payload = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            payload = None
        problems += command.problems(result["code"], payload)
        if command.scorer_counts and not result.get("scorer"):
            problems.append("the scorer wrote no counts")
        if "trace" in result and not result["trace"]:
            problems.append("the traced run wrote no trace")
        if problems:
            self.failures.append(f"{' '.join(command.argv[:1])} ({' '.join(command.argv[1:])[:80]}): "
                                 + "; ".join(problems))
        return text

    def session(self, commands: list, label: str, traced: bool) -> dict:
        """Run every command, then check them all, so checking stays out of the timing."""
        results = [self.run(c, f"{label}-{i}", traced) for i, c in enumerate(commands)]
        outputs = [self.judge(c, r) for c, r in zip(commands, results)]
        return {"seconds": sum(r["scaled"] for r in results), "results": results, "outputs": outputs}


def _kind_seconds(record: dict, kind: str) -> float:
    return sum(r["scaled"] for r in record["results"] if r["kind"] == kind)


def _layer_metrics(record: dict) -> dict:
    """Per-session sums of the traced layer counters and times."""
    stats: dict = {}
    counts: dict = {}
    for r in record["results"]:
        trace = r.get("trace") or {"stats": {}, "counts": {}}
        for name, (calls, total, own) in trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        if r.get("scorer"):
            counts["mppe.scorer_calls"] = counts.get("mppe.scorer_calls", 0) + r["scorer"]["calls"]
            counts["mppe.scorer_distinct"] = counts.get("mppe.scorer_distinct", 0) + r["scorer"]["distinct"]
    stat = lambda name, i: stats.get(name, [0, 0.0, 0.0])[i]
    count = lambda name: counts.get(name, 0)
    calls = stat("pal.pal_sat", 0)
    distinct = count("pal.distinct_pairs")
    startups = [(r["wall"] - r["trace"]["main_s"]) * 1000.0 for r in record["results"] if r.get("trace")]
    return {
        "pal.pal_sat.calls": calls,
        "pal.pal_sat.s": stat("pal.pal_sat", 1),
        "pal.distinct_pairs": distinct,
        "pal.sat_redundancy": calls / distinct if distinct else 0.0,
        "pal.announce_update.calls": stat("pal.announce_update", 0),
        "pal.announce_update.s": stat("pal.announce_update", 1),
        "temporal.tems.calls": stat("temporal.tems", 0),
        "temporal.tems.self_s": stat("temporal.tems", 2),
        "temporal.positions": count("temporal.positions"),
        "classify.quantify_paths.calls": stat("classify.quantify_paths", 0),
        "classify.quantify_paths.self_s": stat("classify.quantify_paths", 2),
        "classify.paths_checked": count("classify.paths_checked"),
        "classify.capped": count("classify.capped"),
        "transition.paths_enumerated": count("transition.paths_enumerated"),
        "transition.enumerate.s": stat("transition.enumerate", 1),
        "transition.build_ts.s": stat("transition.build_ts", 1),
        "serialize.load_ts.calls": stat("serialize.load_ts", 0),
        "serialize.load_ts.s": stat("serialize.load_ts", 1),
        "serialize.ts_bytes": count("serialize.ts_bytes"),
        "serialize.save_ts.s": stat("serialize.save_ts", 1),
        "serialize.ingest.s": stat("serialize.ingest", 1),
        "serialize.load_scores.s": stat("serialize.load_scores", 1),
        "model.enrich_model.s": stat("model.enrich_model", 1),
        "mppe.score_edges.s": stat("mppe.score_edges", 1),
        "mppe.edges_scored": count("mppe.edges_scored"),
        "mppe.scorer_calls": count("mppe.scorer_calls"),
        "mppe.scorer_distinct": count("mppe.scorer_distinct"),
        "mppe.most_probable_path.s": stat("mppe.most_probable_path", 1),
        "mppe.project_stream.s": stat("mppe.project_stream", 1),
        "syntax.parse.calls": stat("syntax.parse", 0),
        "syntax.parse.s": stat("syntax.parse", 1),
        "formulas.substitute.s": stat("formulas.substitute", 1),
        "cli.startup_ms": statistics.median(startups) if startups else 0.0,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
            corrupt: bool = False) -> dict:
    """One benchmark run; returns the result object the last stdout line holds."""
    import workloads

    work = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Pacer() as pacer:
            setups = []
            for _ in range(SETUP_REPEATS):
                pacer.sample()
                start = time.perf_counter()
                commands = workloads.make_session(workload, seed, work, tiny)
                setups.append(pacer.scaled(start, time.perf_counter()))
            if corrupt:
                commands[1].fields["paths_checked"] = commands[1].fields.get("paths_checked", 0) + 1
            runner = Runner(work, pacer)
            plain, traced = [], []
            deadline = time.perf_counter() + seconds
            longest = 0.0
            while True:
                begun = time.perf_counter()
                plain.append(runner.session(commands, f"s{len(plain)}", False))
                if trace:
                    traced.append(runner.session(commands, f"t{len(traced)}", True))
                    for a, b, command in zip(plain[-1]["outputs"], traced[-1]["outputs"], commands):
                        if a != b:
                            runner.failures.append(f"{command.argv[0]}: traced stdout differs from untraced")
                longest = max(longest, time.perf_counter() - begun)
                enough = trace or len(plain) >= MIN_SESSIONS
                if enough and time.perf_counter() + longest > deadline:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    median = statistics.median
    if trace:
        layers = [_layer_metrics(r) for r in traced]
        metrics = {name: median([m[name] for m in layers]) for name in layers[0]}
        metrics["trace_overhead"] = (median([r["seconds"] for r in traced])
                                     / median([r["seconds"] for r in plain]))
        units = _metric_specs()["per_layer"]
    else:
        metrics = {
            "setup_s": median(setups),
            "session_s": median([r["seconds"] for r in plain]),
            **{f"{kind}_s": median([_kind_seconds(r, kind) for r in plain]) for kind in KINDS},
            "peak_rss_mb": median([max(x["rss_mb"] for x in r["results"]) for r in plain]),
        }
        units = _metric_specs()["end_to_end"]
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "sessions": len(plain),
    }


def _summary(workload: str, result: dict) -> str:
    ratio = result["failed"] / result["attempted"]
    parts = [f"workload={workload}", f"sessions={result['sessions']}", f"failed_ratio={ratio:.4f}"]
    parts += [f"{name}={m['value']:.6g}{m['unit']}" for name, m in result["metrics"].items()]
    return " ".join(parts)


def self_test() -> int:
    """Tiny sizes: every metric printed with its unit, and a wrong answer is caught."""
    specs = _metric_specs()
    import workloads

    bad = []
    for workload in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(workload, 7, 0, trace, tiny=True)
            print(_summary(workload, result))
            shown = {name: m["unit"] for name, m in result["metrics"].items()}
            if shown != specs[group]:
                bad.append(f"{workload}: {group} metrics or units differ from BENCHMARK.json")
            if result["failed"]:
                bad.append(f"{workload}: {result['failed']} command(s) failed with true answers")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                bad.append(f"{workload}: a metric value is not a number")
        result = measure(workload, 7, 0, False, tiny=True, corrupt=True)
        if not result["failed"] / result["attempted"] > 0:
            bad.append(f"{workload}: a corrupted expected answer left failed_ratio at 0")
    for line in bad:
        print(f"SELF-TEST FAILED: {line}")
    print("self-test " + ("failed" if bad else "passed"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the ltpal CLI on seeded workloads.")
    parser.add_argument("--workload", choices=("verify", "announce", "stream"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny sizes and check the harness itself")
    args = parser.parse_args()
    for needed in (ROOT / "src" / "ltpal" / "cli.py", ROOT / "tests" / "oracles.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from an ltpal source checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for this process and every child.  `mppe --scorer-cmd` makes a
    # round trip per edge between two processes; spread over two virtual
    # CPUs each wake-up crosses CPUs, and that run took anywhere from 6 to
    # 25 s on a 2-vCPU VM, where on one CPU it stays near 6 to 9 s.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_summary(args.workload, result))
    del result["sessions"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
