"""Reliability verdicts for query templates over all total paths.

A template's slots are filled with the queried atoms, each wrapped in an
epistemic modality, and the resulting formula is quantified over every total
execution path.  Every verdict is one cell of a 2x2 table, run by `verdict`:

* verified (group):   D_A around each slot, all paths must satisfy;
* possible (group):   "group cannot rule out", some path must satisfy;
* robust (agent):     K_i around each slot, all paths;
* possible (agent):   "agent cannot rule out", some path.

The missing-information variants ask whether announcing one of the supplied
candidate formulas would repair a query that currently fails: the base check
must fail in the required way, and the announcement-wrapped template must
then pass with the required quantifier.

Quantification does not enumerate paths: `temporal.decide` finds the
enumeration-least deciding path over the whole layered system at once.  The
cap keeps its meaning as a cap on enumeration: `paths_checked` is the
deciding path's rank in enumeration order plus one, or the total path count
when no path decides, and when that exceeds the cap the report is undecided
(`result` None, `capped` True, `paths_checked` equal to the cap) rather
than a silently truncated answer.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

from .errors import EvaluationError
from .formulas import (
    Announce,
    Dist,
    Knows,
    PNot,
    PalFormula,
    Template,
    TemporalFormula,
    _pal_arguments,
    substitute,
)
from .model import Record
from .syntax import pretty
from .temporal import decide, tems
from .transition import (  # noqa: F401  (enumerate_total_paths kept importable for tools that wrap it)
    ExecPath,
    TransitionSystem,
    enumerate_total_paths,
    path_rank,
    total_path_count,
)

DEFAULT_PATH_CAP = 1_000_000


class VerdictReport(Record):
    """Outcome of one verdict check.

    `path` carries the witness for existential modes and the counterexample
    for failed universal modes.  `result` is None when the path cap was hit
    before a decision; `capped` is then True.  For missing-information modes
    `qualifying` lists the candidate announcements confirmed to repair the
    query.
    """

    __slots__ = _fields = (
        "mode", "result", "path", "paths_checked", "capped",
        "group", "agent", "qualifying", "restricted",
    )
    _defaults = {"group": None, "agent": None, "qualifying": (), "restricted": False}

    def to_json_dict(self) -> dict:
        data: dict = {"mode": self.mode}
        if self.group is not None:
            data["group"] = list(self.group)
        if self.agent is not None:
            data["agent"] = self.agent
        data["result"] = self.result
        data["witness"] = list(self.path.worlds) if self.path is not None else None
        data["paths_checked"] = self.paths_checked
        data["capped"] = self.capped
        if self.mode.startswith("missing_"):
            data["qualifying"] = [pretty(f) for f in self.qualifying]
        if self.restricted:
            data["restricted"] = True
        return data


def quantify_paths(
    ts: TransitionSystem,
    formula: TemporalFormula,
    *,
    universal: bool,
    path_cap: int | None = None,
    paths: Iterable[ExecPath] | None = None,
    skip_dummies: bool = False,
):
    """Evaluate `formula` over paths until decided, exhausted or capped.

    Returns (result, decisive_path, paths_checked, capped).  The decisive
    path is the first failing one (universal) or the first satisfying one
    (existential) in the lexicographic total-path enumeration, or in
    `paths` when that is supplied; `paths_checked` counts the paths up to
    and including it, or all of them.  Hitting the cap first gives
    (None, None, cap, True).  With `skip_dummies` each path is evaluated
    from its second world, but the reported path is the original.
    """
    cap = DEFAULT_PATH_CAP if path_cap is None else int(path_cap)
    if cap < 1:
        raise ValueError("path cap must be at least 1")
    if paths is not None:
        checked = 0
        for path in paths:
            if checked >= cap:
                return None, None, checked, True
            checked += 1
            if tems(ts, path.suffix(1) if skip_dummies else path, formula) != universal:
                return not universal, path, checked, False
        return universal, None, checked, False

    start = 1 if skip_dummies else 0
    columns = [(layer, [w.id for w in layer.worlds]) for layer in ts.layers[start:]]
    picks = decide(columns, formula, not universal)
    if picks is None:
        checked, path = total_path_count(ts), None
    else:
        picks = [0] * start + picks
        checked = path_rank(ts, picks) + 1
        path = ts.path(layer.worlds[pos].id for layer, pos in zip(ts.layers, picks))
    if checked > cap:
        return None, None, cap, True
    return (universal if path is None else not universal), path, checked, False


def _require_agents(ts: TransitionSystem, agents: Iterable[str]) -> None:
    roster = set(ts.agents)
    for agent in agents:
        if agent not in roster:
            raise EvaluationError(f"unknown agent {agent!r}")


_MODES = {
    ("group", False): "verified_group",
    ("group", True): "possible_group",
    ("agent", False): "robust_agent",
    ("agent", True): "possible_agent",
}


def verdict(
    ts: TransitionSystem,
    template: Template,
    atoms,
    *,
    group=None,
    agent: str | None = None,
    possible: bool = False,
    candidates: Sequence[PalFormula] | None = None,
    path_cap: int | None = None,
    paths: Iterable[ExecPath] | None = None,
    skip_dummies: bool = False,
) -> VerdictReport:
    """Run one reliability verdict for a group (D) or a single agent (K).

    Each slot of `template` is wrapped in the modality, or in its
    "cannot rule out" dual when `possible`; the result must then hold on all
    paths, or with `possible` on some path.  With `candidates` the verdict
    is a missing-information check: the base query must fail, and the
    report lists the candidates whose announcement, wrapped around each
    slot, makes the query pass with the same quantifier.
    """
    if (group is None) == (agent is None):
        raise ValueError("exactly one of group or agent must be given")
    if candidates is not None:
        candidates = list(candidates)
        if not candidates:
            raise ValueError("missing-information checks need a non-empty candidate list")
        for pos, candidate in enumerate(candidates, 1):
            if not isinstance(candidate, PalFormula):
                raise ValueError(f"candidate {pos} is not a PAL formula: {candidate!r}")
    if group is not None:
        group = tuple(group)
        if not group:
            raise EvaluationError("group must contain at least one agent")
        _require_agents(ts, group)
        modality = partial(Dist, frozenset(group))
    else:
        _require_agents(ts, [agent])
        modality = partial(Knows, agent)
    wrap = (lambda a: PNot(modality(PNot(a)))) if possible else modality
    args = _pal_arguments(atoms)

    restricted = paths is not None
    if restricted and candidates is not None:
        paths = list(paths)  # walked once per candidate
    report = partial(VerdictReport, group=group, agent=agent, restricted=restricted)

    def run(slots):
        return quantify_paths(
            ts,
            substitute(template, slots),
            universal=not possible,
            path_cap=path_cap,
            paths=paths,
            skip_dummies=skip_dummies,
        )

    result, path, checked, capped = run([wrap(a) for a in args])
    if candidates is None:
        mode = _MODES["group" if group is not None else "agent", possible]
        return report(mode=mode, result=result, path=path, paths_checked=checked, capped=capped)

    # Candidates are tried only while the base query fails: a passing base
    # (no counterexample for verified, a witness for possible) leaves
    # nothing to repair and yields False.
    qualifying = []
    hit_cap = capped
    if not (capped or result):
        for candidate in candidates:
            result, _, sub_checked, capped = run([Announce(candidate, wrap(a)) for a in args])
            checked += sub_checked
            hit_cap = hit_cap or capped
            if result:
                qualifying.append(candidate)
    return report(
        mode="missing_possible" if possible else "missing_verified",
        result=None if hit_cap else bool(qualifying),
        path=None,
        paths_checked=checked,
        capped=hit_cap,
        qualifying=tuple(qualifying),
    )
