"""Edge scoring and most-probable-path extraction.

Every adjacent pair of layers is completely connected, so a total path picks
one world per layer and its probability is the product of its edge scores.
The extraction runs a max-product dynamic program in log space, one score
lookup per edge, and breaks ties toward the lexicographically smaller
predecessor id, which makes the reported path deterministic.

A ScoreTable holds one row per source world, `{u: {v: score}}`.  The scores
depend only on the endpoints' class-label sets, so `score_edges` builds one
row per (layer pair, label set of u) and points every world of the lower
layer with that label set at it; the edges out of the first layer and into
the last share one row each in the same way.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Callable, Mapping, Tuple

from .errors import ConfigurationError, IngestionError
from .model import Record
from .transition import TransitionSystem

SCORE_FLOOR = 1e-6
SCORER_REPLY_TIMEOUT_S = 30.0
# select() waits on pipes only on POSIX; elsewhere a reply is read without a time limit.
_SELECT_ON_PIPES = os.name == "posix"

Scorer = Callable[[frozenset, frozenset], float]


def overlap_score(a: frozenset, b: frozenset) -> float:
    """Jaccard overlap of two class-id sets; two empty sets count as equal."""
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def score_range_message(u: str, v: str, score: float) -> str:
    """What is wrong with a score of edge u -> v outside (0, 1]."""
    return f"score for edge {u!r} -> {v!r} must be in (0, 1], got {score!r}"


def float_score(value) -> float:
    """`float(value)`, except that an integer beyond the float range is an
    infinity of its sign, like 1e400, rather than an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class ScoreTable:
    """Immutable edge-to-score mapping with validated score range.

    Scores are stored as one row per source world, `{u: {v: score}}`, so
    `table[(u, v)]` is `rows[u][v]`: no tuple is hashed, and a `v` outside
    `u`'s row is simply absent.  Worlds whose out-edges score alike may share
    one row object; `score_edges` gives every world of a layer with the same
    class-label set the same row.  Rows are never changed once the table
    holds them; `from_checked` takes such rows as they are.
    """

    def __init__(self, scores: Mapping[Tuple[str, str], float]):
        rows: dict = {}
        for edge, value in scores.items():
            u, v = edge
            score = float_score(value)
            if not 0.0 < score <= 1.0:  # also false for NaN
                raise IngestionError(score_range_message(u, v, score))
            u = str(u)
            row = rows.get(u)
            if row is None:
                row = rows[u] = {}
            row[str(v)] = score
        self._rows = rows

    @classmethod
    def from_checked(cls, rows: dict) -> "ScoreTable":
        """A table that takes over `rows`, `{u: {v: score}}`, without checking it again.

        For callers that have built `rows` themselves: str ids, no empty row,
        and float scores, each already checked to lie in (0, 1].  Rows may be
        shared between source worlds.
        """
        table = cls.__new__(cls)
        table._rows = rows
        return table

    def __getitem__(self, edge: Tuple[str, str]) -> float:
        u, v = edge
        try:
            return self._rows[u][v]
        except KeyError:
            raise IngestionError(f"no score for edge {u!r} -> {v!r}") from None

    def items(self) -> list:
        """((u, v), score) pairs, row by row in the order the rows were made."""
        return [((u, v), score) for u, row in self._rows.items() for v, score in row.items()]

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def __contains__(self, edge) -> bool:
        if not (isinstance(edge, tuple) and len(edge) == 2):
            return False
        row = self._rows.get(edge[0])
        return row is not None and edge[1] in row

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return self._rows == other._rows


def _checked_score(raw, u: str, v: str) -> float:
    """A scorer result clamped into [SCORE_FLOOR, 1.0]; the error names edge u -> v."""
    try:
        raw = float_score(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"scorer returned a non-number for edge {u!r} -> {v!r}: {raw!r}"
        ) from None
    if math.isnan(raw):
        raise ConfigurationError(f"scorer returned NaN for edge {u!r} -> {v!r}")
    if raw < 0:
        raise ConfigurationError(
            f"scorer returned a negative score for edge {u!r} -> {v!r}: {raw!r}"
        )
    return min(1.0, max(SCORE_FLOOR, raw))


def score_edges(ts: TransitionSystem, scorer: Scorer = overlap_score) -> ScoreTable:
    """Score every edge with `scorer` over the endpoint class-label sets.

    A scorer must be a pure function of the two sets: it is called once per
    distinct (labels(u), labels(v)) pair, at the first edge in `ts.edges()`
    order that has it, and that result is reused for every later edge with
    the same pair.  Edges touching the synthetic first or last layer always
    score 1.0 so the endpoints never perturb the product, and never reach the
    scorer.  Scorer results are clamped into [SCORE_FLOOR, 1.0]; NaN,
    negative or non-numeric results are configuration errors naming that
    first edge.
    """
    layers = ts.layers
    rows = {ts.s0: dict.fromkeys([v.id for v in layers[1].worlds], 1.0)}
    # Class ids asserted at a world, ignoring which stream they came from.
    classes = {atoms: frozenset(atom.class_id for atom in atoms)
               for atoms in {w.atoms for layer in layers for w in layer.worlds}}
    labelled = [[(w.id, classes[w.atoms]) for w in layer.worlds] for layer in ts.real_layers]
    memo: dict = {}
    for below, above in zip(labelled, labelled[1:]):
        shared: dict = {}  # labels(u) -> the row of every u with those labels
        for u, a in below:
            row = shared.get(a)
            if row is None:
                row = shared[a] = {}
                for v, b in above:
                    score = memo.get((a, b))
                    if score is None:
                        score = memo[(a, b)] = _checked_score(scorer(a, b), u, v)
                    row[v] = score
            rows[u] = row
    rows.update(dict.fromkeys([u.id for u in layers[-2].worlds], {ts.s_minus1: 1.0}))
    return ScoreTable.from_checked(rows)


class ScoredPath(Record):
    """A total path with its score and the score's natural logarithm."""

    __slots__ = _fields = ("path", "score", "log_score")


class FrameChoice(Record):
    """The world selected for one input frame, with its atoms."""

    __slots__ = _fields = ("frame", "world", "atoms")


def most_probable_path(ts: TransitionSystem, table: ScoreTable) -> ScoredPath:
    """Highest-product total path under `table`, by layered max-product DP.

    Each edge's score is looked up exactly once.  Ties between equal-scoring
    predecessors go to the lexicographically smaller world id, so over an
    all-ties table the result is the lexicographically least total path.
    """
    log = math.log
    parent: dict = {}
    lower = [(ts.s0, 0.0)]  # (world id, best log score of a path to it)
    for layer in ts.layers[1:]:
        best = {}
        for v in [w.id for w in layer.worlds]:
            best_log = None
            best_pred = None
            for u, base in lower:
                candidate = base + log(table[(u, v)])
                if (
                    best_pred is None
                    or candidate > best_log
                    or (candidate == best_log and u < best_pred)
                ):
                    best_log = candidate
                    best_pred = u
            best[v] = best_log
            parent[v] = best_pred
        lower = list(best.items())
    ids = [ts.s_minus1]
    while ids[-1] != ts.s0:
        ids.append(parent[ids[-1]])
    ids.reverse()
    log_score = best[ts.s_minus1]
    return ScoredPath(ts.path(ids), math.exp(log_score), log_score)


def project_stream(ts: TransitionSystem, scored: ScoredPath) -> tuple:
    """Corrected per-frame choices along a total path (frames are 1-based)."""
    real = scored.path.worlds[1:-1]
    return tuple(
        FrameChoice(frame, wid, tuple(sorted(ts.label(wid))))
        for frame, wid in enumerate(real, 1)
    )


def correct_stream(ts: TransitionSystem, table: ScoreTable) -> tuple:
    """Most probable per-frame world choice for each input frame."""
    return project_stream(ts, most_probable_path(ts, table))


class ExternalScorer:
    """Similarity scorer backed by a line-protocol subprocess.

    For each call (`score_edges` makes one per distinct pair of class-label
    sets) the scorer writes one JSON object per line to the child's stdin,
    `{"a": [...], "b": [...]}` with sorted class-id lists, and reads one
    JSON reply per line, `{"score": x}`.  A reply that does not arrive within
    SCORER_REPLY_TIMEOUT_S seconds (on POSIX systems; elsewhere the wait has
    no limit), and any other protocol violation, raises ConfigurationError.
    """

    def __init__(self, command):
        self._command = list(command)
        if not self._command:
            raise ConfigurationError("external scorer command must not be empty")
        import subprocess  # only the external scorer starts a process

        try:
            self._proc = subprocess.Popen(
                self._command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise ConfigurationError(
                f"could not start external scorer {self._command[0]!r}: {exc}"
            ) from None
        self._pending = b""  # reply bytes read past the last complete line

    def _send(self, data: bytes) -> None:
        while data:
            data = data[self._proc.stdin.write(data):]

    def _read_line(self) -> bytes:
        """The next reply line (empty at end of output), waiting at most
        SCORER_REPLY_TIMEOUT_S seconds for it where select() can wait on a
        pipe."""
        if not _SELECT_ON_PIPES:
            return self._proc.stdout.readline()
        import select

        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + SCORER_REPLY_TIMEOUT_S
        while b"\n" not in self._pending:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise ConfigurationError(
                    f"external scorer did not reply within {SCORER_REPLY_TIMEOUT_S:g} s"
                )
            chunk = os.read(fd, 65536)
            if not chunk:
                line, self._pending = self._pending, b""
                return line
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line + b"\n"

    def __call__(self, a: frozenset, b: frozenset) -> int | float:
        request = json.dumps({"a": sorted(a), "b": sorted(b)})
        try:
            self._send((request + "\n").encode())
            line = self._read_line().decode("utf-8", "replace")
        except (BrokenPipeError, OSError) as exc:
            raise ConfigurationError(f"external scorer pipe failed: {exc}") from None
        if not line:
            raise ConfigurationError("external scorer closed its output")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"external scorer sent invalid JSON: {exc}"
            ) from None
        if not isinstance(reply, dict) or "score" not in reply:
            raise ConfigurationError(
                f"external scorer reply is missing a 'score' field: {line.strip()!r}"
            )
        value = reply["score"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigurationError(
                f"external scorer score is not a number: {value!r}"
            )
        return value

    def close(self) -> None:
        if self._proc.stdin:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
        self._proc.terminate()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
