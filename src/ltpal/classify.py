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
then pass with the required quantifier.  The `check_*` functions name the
cells of the table.

Path enumeration is capped; hitting the cap without a decision yields an
explicit undecided report rather than a silently truncated answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .errors import EvaluationError
from .formulas import (
    Announce,
    Dist,
    Knows,
    PNot,
    PalFormula,
    Prop,
    Template,
    TemporalFormula,
    placeholder_indices,
    substitute,
)
from .model import Atom
from .syntax import pretty
from .temporal import tems
from .transition import ExecPath, TransitionSystem, enumerate_total_paths

DEFAULT_PATH_CAP = 1_000_000


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one verdict check.

    `path` carries the witness for existential modes and the counterexample
    for failed universal modes.  `result` is None when the path cap was hit
    before a decision; `capped` is then True.  For missing-information modes
    `qualifying` lists the candidate announcements confirmed to repair the
    query.
    """

    mode: str
    result: bool | None
    path: ExecPath | None
    paths_checked: int
    capped: bool
    group: tuple | None = None
    agent: str | None = None
    qualifying: tuple = ()
    restricted: bool = False

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

    Returns (result, decisive_path, paths_checked, capped).  Paths come from
    the lexicographic total-path enumeration unless `paths` is supplied, so
    the decisive path is always the enumeration-least one.  With
    `skip_dummies` each path is evaluated from its second world, but the
    reported path is the original.
    """
    cap = DEFAULT_PATH_CAP if path_cap is None else int(path_cap)
    if cap < 1:
        raise ValueError("path cap must be at least 1")
    source = enumerate_total_paths(ts) if paths is None else iter(paths)
    checked = 0
    for path in source:
        if checked >= cap:
            return None, None, checked, True
        checked += 1
        value = tems(ts, path.suffix(1) if skip_dummies else path, formula)
        if universal and not value:
            return False, path, checked, False
        if not universal and value:
            return True, path, checked, False
    if universal:
        return True, None, checked, False
    return False, None, checked, False


def _normalize_args(atoms) -> list:
    args = []
    for pos, value in enumerate(list(atoms), 1):
        if isinstance(value, Atom):
            value = Prop(value)
        if not isinstance(value, PalFormula):
            raise ValueError(f"query argument {pos} is not a PAL formula: {value!r}")
        if placeholder_indices(value):
            raise ValueError(f"query argument {pos} still contains placeholders")
        args.append(value)
    return args


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
    args = _normalize_args(atoms)

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


def check_verified_group(ts, template: Template, atoms, group, **kwargs) -> VerdictReport:
    """All paths must satisfy the template with D_group around each slot."""
    return verdict(ts, template, atoms, group=group, **kwargs)


def check_possible_group(ts, template: Template, atoms, group, **kwargs) -> VerdictReport:
    """Some path must satisfy the template with "group cannot rule out" slots."""
    return verdict(ts, template, atoms, group=group, possible=True, **kwargs)


def check_robust_agent(ts, template: Template, atoms, agent: str, **kwargs) -> VerdictReport:
    """All paths must satisfy the template with K_agent around each slot."""
    return verdict(ts, template, atoms, agent=agent, **kwargs)


def check_possible_agent(ts, template: Template, atoms, agent: str, **kwargs) -> VerdictReport:
    """Some path must satisfy the template with "agent cannot rule out" slots."""
    return verdict(ts, template, atoms, agent=agent, possible=True, **kwargs)


def check_missing_info(
    ts, template: Template, atoms, candidates: Sequence[PalFormula], *,
    kind: str = "verified", **kwargs,
) -> VerdictReport:
    """Which candidate announcements would repair the failing query?

    For kind="verified" the base check (D/K wrapped, universal) must have
    some failing path, and announcing a qualifying candidate must make the
    announcement-wrapped template hold on every path.  For kind="possible"
    the base check (cannot-rule-out wrapped, existential) must fail on all
    paths, and a qualifying announcement must recover some satisfying path.
    Pass exactly one of `group` or `agent`.
    """
    if kind not in ("verified", "possible"):
        raise ValueError(f"kind must be 'verified' or 'possible', got {kind!r}")
    return verdict(
        ts, template, atoms, possible=kind == "possible", candidates=candidates, **kwargs
    )
