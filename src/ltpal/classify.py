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

Every check is one `temporal.decide` call, which does not enumerate paths:
it finds the enumeration-least deciding path over the whole layered system
at once, or, for a verdict restricted to one given path (such as the most
probable one), decides that path alone, with `paths_checked` 1, evaluating
PAL in the path worlds' generated submodels (`model.path_model`) rather
than in their whole layers.  Every agent a formula names, also inside an
announcement that holds nowhere, must be in the roster (`pal.extensions`
checks it before labelling).  The
cap keeps its meaning as a cap on enumeration: `paths_checked` is the
deciding path's rank in enumeration order plus one, or the total path count
when no path decides, and when that exceeds the cap the report is undecided
(`result` None, `capped` True, `paths_checked` equal to the cap) rather
than a silently truncated answer.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from .errors import ConfigurationError, EvaluationError
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
from .model import Record, require_agents
from .syntax import pretty
from .temporal import decide, path_columns
from .transition import (  # noqa: F401  (enumerate_total_paths kept importable for tools that wrap it)
    ExecPath,
    TransitionSystem,
    enumerate_total_paths,
    path_rank,
    read_integer,
    total_path_count,
)

DEFAULT_PATH_CAP = 1_000_000


def check_path_cap(value, source: str = "path cap") -> int:
    """`value` by `read_integer`, as a path cap of at least 1 (None gives
    DEFAULT_PATH_CAP), or ConfigurationError naming the cap by `source`."""
    if value is None:
        return DEFAULT_PATH_CAP
    cap = read_integer(value, source)
    if cap < 1:
        raise ConfigurationError(f"{source} must be at least 1")
    return cap


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
    path: ExecPath | None = None,
):
    """Evaluate `formula` over the total paths until decided, exhausted or
    capped, or on `path` alone when that is given.

    Returns (result, decisive_path, paths_checked, capped).  The decisive
    path is the first failing one (universal) or the first satisfying one
    (existential) in the lexicographic total-path enumeration, or `path`
    itself; `paths_checked` counts the paths up to and including it, or all
    of them, and is 1 with `path`.  Hitting the cap first gives
    (None, None, cap, True).
    """
    cap = check_path_cap(path_cap)
    if path is None:
        columns = [(layer, [w.id for w in layer.worlds]) for layer in ts.layers]
    else:
        columns = path_columns(ts, path.worlds)
    picks = decide(columns, formula, not universal)
    if path is not None:
        checked = 1
    elif picks is None:
        checked = total_path_count(ts)
    else:
        checked = path_rank(ts, picks) + 1
        path = ts.path(layer.worlds[pos].id for layer, pos in zip(ts.layers, picks))
    if checked > cap:
        return None, None, cap, True
    if picks is None:
        return universal, None, checked, False
    return not universal, path, checked, False


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
    path: ExecPath | None = None,
) -> VerdictReport:
    """Run one reliability verdict for a group (D) or a single agent (K).

    Each slot of `template` is wrapped in the modality, or in its
    "cannot rule out" dual when `possible`; the result must then hold on all
    paths, or with `possible` on some path.  Given `path`, the verdict looks
    at that one path alone and the report is marked `restricted`.  With
    `candidates` the verdict is a missing-information check: the base query
    must fail, and the report lists the candidates whose announcement,
    wrapped around each slot, makes the query pass with the same
    quantifier.  The candidates follow the rule of the atoms, checked up
    front whether or not they are tried: PAL formulas without placeholders,
    an Atom read as its `Prop`.
    """
    if (group is None) == (agent is None):
        raise ValueError("exactly one of group or agent must be given")
    if candidates is not None:
        candidates = _pal_arguments(candidates, "candidate")
        if not candidates:
            raise ValueError("missing-information checks need a non-empty candidate list")
    if group is not None:
        group = tuple(group)
        if not group:
            raise EvaluationError("group must contain at least one agent")
        require_agents(group, ts.agents)
        modality = partial(Dist, frozenset(group))
    else:
        require_agents([agent], ts.agents)
        modality = partial(Knows, agent)
    wrap = (lambda a: PNot(modality(PNot(a)))) if possible else modality
    args = _pal_arguments(atoms)

    report = partial(VerdictReport, group=group, agent=agent, restricted=path is not None)

    def run(slots):
        return quantify_paths(ts, substitute(template, slots), universal=not possible,
                              path_cap=path_cap, path=path)

    result, decisive, checked, capped = run([wrap(a) for a in args])
    if candidates is None:
        mode = _MODES["group" if group is not None else "agent", possible]
        return report(mode=mode, result=result, path=decisive, paths_checked=checked,
                      capped=capped)

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
