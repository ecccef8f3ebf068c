"""JSON loading and saving for frames, rules, systems, scores and candidates.

All loaders accept a file path or an already-parsed dict, validate shape
eagerly, and raise IngestionError with a dotted path into the offending
document node (for example "frames[0].worlds[1].atoms[2]").
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import IngestionError, ParseError
from .model import Atom, PALModel, Record, RuleSet, World, enrich_model, equivalence_closure
from .mppe import ScoreTable, score_range_message
from .syntax import parse_pal_formula
from .transition import TransitionSystem, build_ts


def _load_json(source):
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{path} is not valid JSON: {exc}") from None


def _as_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise IngestionError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise IngestionError(f"{where} must be an array, got {type(value).__name__}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise IngestionError(f"{where} must be a string, got {type(value).__name__}")
    return value


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise IngestionError(f"{where} is missing the {key!r} field")
    return obj[key]


def _atom(value, where: str) -> Atom:
    pair = _as_list(value, where)
    if len(pair) != 2:
        raise IngestionError(f"{where} must be a [data_id, class_id] pair")
    data_id = _as_str(pair[0], f"{where}[0]")
    class_id = _as_str(pair[1], f"{where}[1]")
    try:
        return Atom(data_id, class_id)
    except ValueError as exc:
        raise IngestionError(f"{where}: {exc}") from None


def _atoms(value, where: str, known: dict) -> list:
    """A world's atom list; `known` maps (data_id, class_id) to an Atom
    already validated in this document, so each distinct pair is checked once."""
    atoms = []
    for k, pair in enumerate(_as_list(value, where)):
        try:
            atom = known[pair[0], pair[1]] if isinstance(pair, list) and len(pair) == 2 else None
        except (KeyError, TypeError):
            atom = None
        if atom is None:
            atom = _atom(pair, f"{where}[{k}]")
            known[atom.data_id, atom.class_id] = atom
        atoms.append(atom)
    return atoms


def _pairs(value, where: str) -> list:
    pairs = []
    for k, entry in enumerate(_as_list(value, where)):
        pair = _as_list(entry, f"{where}[{k}]")
        if len(pair) != 2:
            raise IngestionError(f"{where}[{k}] must be a [left, right] world-id pair")
        pairs.append((_as_str(pair[0], f"{where}[{k}][0]"),
                      _as_str(pair[1], f"{where}[{k}][1]")))
    return pairs


def load_rules(source) -> RuleSet:
    """Load ontology rules: {"rules": [{"class": c, "implies": [d, ...]}]}."""
    doc = _as_dict(_load_json(source), "rules document")
    entries = _as_list(_get(doc, "rules", "rules document"), "rules")
    table: dict = {}
    for i, entry in enumerate(entries):
        where = f"rules[{i}]"
        entry = _as_dict(entry, where)
        class_id = _as_str(_get(entry, "class", where), f"{where}.class")
        implied = [
            _as_str(v, f"{where}.implies[{j}]")
            for j, v in enumerate(_as_list(_get(entry, "implies", where), f"{where}.implies"))
        ]
        table.setdefault(class_id, []).extend(implied)
    try:
        return RuleSet(table)
    except ValueError as exc:
        raise IngestionError(f"rules document: {exc}") from None


def _load_model(entry: dict, agents, where: str, known_atoms: dict) -> PALModel:
    worlds_value = _as_list(_get(entry, "worlds", where), f"{where}.worlds")
    if not worlds_value:
        raise IngestionError(f"{where}.worlds must not be empty")
    worlds = []
    for j, world_value in enumerate(worlds_value):
        wwhere = f"{where}.worlds[{j}]"
        world_value = _as_dict(world_value, wwhere)
        wid = _as_str(_get(world_value, "id", wwhere), f"{wwhere}.id")
        if not wid:
            raise IngestionError(f"{wwhere}.id must not be empty")
        atoms = _atoms(world_value.get("atoms", []), f"{wwhere}.atoms", known_atoms)
        worlds.append(World(wid, atoms))
    ids = [w.id for w in worlds]
    relations_value = _as_dict(entry.get("relations", {}), f"{where}.relations")
    partitions = {}
    for agent, pairs_value in relations_value.items():
        if agent not in agents:
            raise IngestionError(
                f"{where}.relations names unknown agent {agent!r}"
            )
        pairs = _pairs(pairs_value, f"{where}.relations[{agent!r}]")
        try:
            partitions[agent] = equivalence_closure(pairs, ids)
        except IngestionError as exc:
            raise IngestionError(f"{where}.relations[{agent!r}]: {exc}") from None
    try:
        return PALModel(worlds, agents, partitions)
    except IngestionError as exc:
        raise IngestionError(f"{where}: {exc}") from None


class FramesDocument(Record):
    """Parsed frames input: the agent roster, group aliases and one model per frame.

    Unlike the other records it can be assigned to, and so is unhashable.
    """

    __slots__ = _fields = ("agents", "frames", "groups")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, agents: tuple, frames: list, groups: dict | None = None):
        self.agents = agents
        self.frames = frames
        self.groups = {} if groups is None else groups


def load_frames(source) -> FramesDocument:
    """Load a frames document:

    {"agents": [...], "groups": {name: [...]}, "frames": [frame, ...]}
    where each frame is {"worlds": [{"id": w, "atoms": [[d, c], ...]}, ...],
    "relations": {agent: [[w, w'], ...], ...}}.

    Missing agents in "relations" (or empty pair lists) mean the agent
    distinguishes all worlds of that frame.
    """
    doc = _as_dict(_load_json(source), "frames document")
    agents_value = _as_list(_get(doc, "agents", "frames document"), "agents")
    if not agents_value:
        raise IngestionError("agents must not be empty")
    agents = tuple(_as_str(a, f"agents[{i}]") for i, a in enumerate(agents_value))
    if len(set(agents)) != len(agents):
        raise IngestionError("agents contains duplicate ids")

    groups = {}
    for name, members_value in _as_dict(doc.get("groups", {}), "groups").items():
        members = [
            _as_str(m, f"groups[{name!r}][{i}]")
            for i, m in enumerate(_as_list(members_value, f"groups[{name!r}]"))
        ]
        if not members:
            raise IngestionError(f"groups[{name!r}] must not be empty")
        unknown = [m for m in members if m not in agents]
        if unknown:
            raise IngestionError(
                f"groups[{name!r}] names unknown agent {unknown[0]!r}"
            )
        if name in agents:
            raise IngestionError(
                f"group name {name!r} collides with an agent id"
            )
        groups[name] = tuple(members)

    frames_value = _as_list(_get(doc, "frames", "frames document"), "frames")
    if not frames_value:
        raise IngestionError("frames must not be empty")
    known_atoms: dict = {}
    frames = [
        _load_model(_as_dict(entry, f"frames[{i}]"), agents, f"frames[{i}]", known_atoms)
        for i, entry in enumerate(frames_value)
    ]
    return FramesDocument(agents=agents, frames=frames, groups=groups)


def ingest(frames_source, rules_source=None) -> FramesDocument:
    """Load frames and apply ontology rules to every world's atom set."""
    doc = load_frames(frames_source)
    rules = load_rules(rules_source) if rules_source is not None else RuleSet({})
    if rules:
        doc.frames = [enrich_model(frame, rules) for frame in doc.frames]
    return doc


def _relation_pairs(model: PALModel, agent: str) -> list:
    pairs = []
    for block in model.partition(agent):
        members = sorted(block)
        pairs.extend([a, b] for a, b in zip(members, members[1:]))
    return pairs


def dump_ts(ts: TransitionSystem, scores: ScoreTable | None = None) -> dict:
    """Serialize a system (and optionally its edge scores) to a JSON dict.

    The edges are listed, each with its score, only when `scores` is given;
    without scores there is no "edges" key, because the layers imply every
    edge.
    """
    doc: dict = {"agents": list(ts.agents)}
    if ts.groups:
        doc["groups"] = {name: list(members) for name, members in ts.groups.items()}
    layers = []
    for model in ts.layers:
        layers.append({
            "worlds": [
                {"id": w.id, "atoms": [[a.data_id, a.class_id] for a in sorted(w.atoms)]}
                for w in model.worlds
            ],
            "relations": {
                agent: _relation_pairs(model, agent) for agent in ts.agents
            },
        })
    doc["layers"] = layers
    if scores is not None:
        doc["edges"] = [{"from": u, "to": v, "score": scores[(u, v)]} for u, v in ts.edges()]
    return doc


def save_ts(ts: TransitionSystem, path, scores: ScoreTable | None = None) -> None:
    """Write `dump_ts(ts, scores)` as compact JSON on one line.

    An unscored system is written without an edge list.  No indentation,
    because `json.dumps` with `indent` falls back to its pure-Python
    encoder; `load_ts` reads indented files all the same.
    """
    Path(path).write_text(json.dumps(dump_ts(ts, scores)) + "\n")


def _edge(entry, i: int) -> tuple:
    """The (from, to) ids of edges[i].

    The checks of `_as_dict`, `_get` and `_as_str`, written out so that the
    location is formatted only in the message of a failing check.
    """
    if not isinstance(entry, dict):
        raise IngestionError(f"edges[{i}] must be an object, got {type(entry).__name__}")
    if "from" not in entry:
        raise IngestionError(f"edges[{i}] is missing the 'from' field")
    u = entry["from"]
    if not isinstance(u, str):
        raise IngestionError(f"edges[{i}].from must be a string, got {type(u).__name__}")
    if "to" not in entry:
        raise IngestionError(f"edges[{i}] is missing the 'to' field")
    v = entry["to"]
    if not isinstance(v, str):
        raise IngestionError(f"edges[{i}].to must be a string, got {type(v).__name__}")
    return u, v


def _score(value, i: int) -> float:
    """The score of edges[i] as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise IngestionError(f"edges[{i}].score must be a number")
    return float(value)


def load_ts(source):
    """Load a serialized system, compact or indented.

    Returns (system, scores).  A document without an "edges" key has every
    edge between adjacent layers and no scores.  A listed edge list, scored
    or (as older versions wrote) not, must hold exactly the complete
    bipartite edges between adjacent layers, each once, in any order;
    scores is a ScoreTable when every entry carries a "score" field and
    None when none does, and a mixture is an error.
    """
    doc = _as_dict(_load_json(source), "system document")
    agents_value = _as_list(_get(doc, "agents", "system document"), "agents")
    agents = tuple(_as_str(a, f"agents[{i}]") for i, a in enumerate(agents_value))

    layers_value = _as_list(_get(doc, "layers", "system document"), "layers")
    known_atoms: dict = {}
    layers = [
        _load_model(_as_dict(entry, f"layers[{i}]"), agents, f"layers[{i}]", known_atoms)
        for i, entry in enumerate(layers_value)
    ]

    groups = {}
    for name, members_value in _as_dict(doc.get("groups", {}), "groups").items():
        members = [
            _as_str(m, f"groups[{name!r}][{i}]")
            for i, m in enumerate(_as_list(members_value, f"groups[{name!r}]"))
        ]
        groups[name] = tuple(members)

    try:
        ts = TransitionSystem(layers, groups=groups or None)
    except IngestionError as exc:
        raise IngestionError(f"system document: {exc}") from None

    if "edges" not in doc:
        return ts, None
    edges_value = _as_list(doc["edges"], "edges")
    seen = {}
    scored = 0
    out_of_range = None  # the first, reported once the entries' shape is known good
    for i, entry in enumerate(edges_value):
        edge = _edge(entry, i)
        if edge in seen:
            raise IngestionError(f"edges[{i}] duplicates edge {edge[0]!r} -> {edge[1]!r}")
        if "score" in entry:
            score = seen[edge] = _score(entry["score"], i)
            if not 0.0 < score <= 1.0 and out_of_range is None:
                out_of_range = score_range_message(*edge, score)
            scored += 1
        else:
            seen[edge] = None
    expected = list(ts.edges())
    if list(seen) != expected:
        missing = [e for e in expected if e not in seen]
        if missing:
            u, v = missing[0]
            raise IngestionError(f"edges is missing {u!r} -> {v!r}")
        expected_set = set(expected)
        extra = [e for e in seen if e not in expected_set]
        if extra:
            u, v = extra[0]
            raise IngestionError(
                f"edges contains {u!r} -> {v!r}, which does not connect adjacent layers"
            )
    if scored == 0:
        return ts, None
    if scored != len(seen):
        raise IngestionError(
            "either every edge must carry a score or none may"
        )
    if out_of_range is not None:
        raise IngestionError(f"edges: {out_of_range}")
    return ts, ScoreTable.from_checked(seen)


def load_scores(source, ts: TransitionSystem) -> ScoreTable:
    """Load a standalone scores file: {"edges": [{"from", "to", "score"}]}.

    Every edge of the system must be covered exactly once, and every score
    must lie in (0, 1].
    """
    doc = _as_dict(_load_json(source), "scores document")
    entries = _as_list(_get(doc, "edges", "scores document"), "edges")
    valid = set(ts.edges())
    table: dict = {}
    out_of_range = None  # the first, reported once the entries' shape is known good
    for i, entry in enumerate(entries):
        u, v = edge = _edge(entry, i)
        if edge not in valid:
            raise IngestionError(f"edges[{i}]: {u!r} -> {v!r} is not an edge of the system")
        if edge in table:
            raise IngestionError(f"edges[{i}] duplicates edge {u!r} -> {v!r}")
        if "score" not in entry:
            raise IngestionError(f"edges[{i}] is missing the 'score' field")
        score = table[edge] = _score(entry["score"], i)
        if not 0.0 < score <= 1.0 and out_of_range is None:
            out_of_range = score_range_message(u, v, score)
    if out_of_range is not None:
        raise IngestionError(f"scores document: {out_of_range}")
    scores = ScoreTable.from_checked(table)
    if len(scores) != len(valid):
        scores.validate_covers(ts)
    return scores


def load_candidates(source) -> list:
    """Load announcement candidates: {"candidates": ["formula", ...]}."""
    doc = _as_dict(_load_json(source), "candidates document")
    entries = _as_list(_get(doc, "candidates", "candidates document"), "candidates")
    if not entries:
        raise IngestionError("candidates must not be empty")
    candidates = []
    for i, text in enumerate(entries):
        text = _as_str(text, f"candidates[{i}]")
        try:
            candidates.append(parse_pal_formula(text))
        except ParseError as exc:
            raise IngestionError(f"candidates[{i}]: {exc}") from None
    return candidates


def build_from_files(frames_source, rules_source=None) -> TransitionSystem:
    """Ingest frames (and rules) and assemble the transition system."""
    doc = ingest(frames_source, rules_source)
    return build_ts(doc.frames, groups=doc.groups or None)
