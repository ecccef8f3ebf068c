"""JSON loading and saving for frames, rules, systems, scores and candidates.

All loaders accept a file path or an already-parsed dict, validate shape
eagerly, and raise IngestionError with a dotted path into the offending
document node (for example "frames[0].worlds[1].atoms[2]").
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import IngestionError, ParseError
from .model import (Atom, PALModel, Record, RuleSet, World, check_relation,
                    check_relation_agents, check_roster, index_worlds, rule_closure)
from .model import enrich_model  # noqa: F401  (kept importable for tools that wrap it)
from .transition import TransitionSystem, build_ts, check_groups

# `mppe` and `syntax` are imported where scores and candidates are read, so
# that loading frames or an unscored system compiles neither.


def _load_json(source):
    if isinstance(source, dict):
        return source
    path = Path(source)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # not UTF-8, JSONDecodeError, or an integer too long to convert
        raise IngestionError(f"{path} is not valid JSON: {exc}") from None


def _wrong_type(value, kind: str, where: str) -> IngestionError:
    return IngestionError(f"{where} must be {kind}, got {type(value).__name__}")


def _missing(key: str, where: str) -> IngestionError:
    return IngestionError(f"{where} is missing the {key!r} field")


def _as_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise _wrong_type(value, "an object", where)
    return value


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise _wrong_type(value, "an array", where)
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise _wrong_type(value, "a string", where)
    return value


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise _missing(key, where)
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


def _seen(value, atom_sets: dict):
    """The set that `atom_sets` holds for the JSON atom list `value`, or None.

    `atom_sets` maps the key ((data_id, class_id), ...) of every list already
    checked in this document to its set, so each distinct list is checked
    and closed once.  A list can match a key only if each of its members is
    a list: tuple("vC") and tuple({"v": 0, "C": 0}) both equal ("v", "C").
    """
    if value.__class__ is list:
        try:
            return atom_sets.get(tuple([tuple(x) if x.__class__ is list else () for x in value]))
        except TypeError:  # an unhashable member
            pass
    return None


def _atom_set(value, atom_sets: dict, where: str, close) -> frozenset:
    """Check the JSON atom list `value` at `where` and keep its set, passed
    through `close` (None leaves it as is), in `atom_sets` (see `_seen`)."""
    atoms = [_atom(pair, f"{where}[{k}]") for k, pair in enumerate(_as_list(value, where))]
    atom_set = atom_sets[tuple([(a.data_id, a.class_id) for a in atoms])] = (
        frozenset(atoms) if close is None else close(atoms)
    )
    return atom_set


def _groups(value, where: str) -> tuple:
    """The entries of `value`, each checked to be an array of world-id
    strings, copied into a tuple of tuples."""
    groups = []
    for k, entry in enumerate(_as_list(value, where)):
        if not isinstance(entry, list):
            raise _wrong_type(entry, "an array", f"{where}[{k}]")
        for m, w in enumerate(entry):
            if not isinstance(w, str):
                raise _wrong_type(w, "a string", f"{where}[{k}][{m}]")
        groups.append(tuple(entry))
    return tuple(groups)


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


def _roster_and_groups(doc: dict, where: str) -> tuple:
    """The "agents" and "groups" of the frames or system document `doc`,
    which `where` names: a roster that is not empty and passes
    `check_roster`, and groups (name -> tuple of members) that pass
    `check_groups`.  Both documents follow these rules, with one message
    for each fault."""
    agents_value = _as_list(_get(doc, "agents", where), "agents")
    if not agents_value:
        raise IngestionError("agents must not be empty")
    agents = tuple(_as_str(a, f"agents[{i}]") for i, a in enumerate(agents_value))
    try:
        check_roster(agents)
    except IngestionError as exc:
        raise IngestionError(f"agents: {exc}") from None
    groups = {
        name: tuple(_as_str(m, f"groups[{name!r}][{i}]")
                    for i, m in enumerate(_as_list(members, f"groups[{name!r}]")))
        for name, members in _as_dict(doc.get("groups", {}), "groups").items()
    }
    try:
        check_groups(groups, agents)
    except IngestionError as exc:
        raise IngestionError(f"groups: {exc}") from None
    return agents, groups


def _load_model(entry: dict, agents: tuple, where: str, atom_sets: dict, close=None,
                indexed=None) -> PALModel:
    """The model of a frame or layer entry at `where`, over the checked
    roster `agents`, built through `PALModel.from_checked`.

    Each world is checked in full before the next, its atoms before its id
    (by `World(...)`, which keeps the frozenset it is given, so equal atom
    lists share one set); then the ids are compared, then each agent's
    relation: the shape of its groups, each copied into a tuple, then
    `check_relation`, whose message gets `where` in front.  `indexed` is
    the list of checked sets of a system document's "atom_sets", or None
    when it has none; only then may a world's "atoms" be an index into it.
    Locations are formatted only for failing checks.
    """
    worlds_value = _as_list(_get(entry, "worlds", where), f"{where}.worlds")
    if not worlds_value:
        raise IngestionError(f"{where}.worlds must not be empty")
    worlds = []
    for j, value in enumerate(worlds_value):
        if not isinstance(value, dict):
            raise _wrong_type(value, "an object", f"{where}.worlds[{j}]")
        if "id" not in value:
            raise _missing("id", f"{where}.worlds[{j}]")
        atoms = value.get("atoms", [])
        if atoms.__class__ is int and indexed is not None and 0 <= atoms < len(indexed):
            atom_set = indexed[atoms]
        elif (atom_set := _seen(atoms, atom_sets)) is None:
            at = f"{where}.worlds[{j}].atoms"
            if indexed is not None and isinstance(atoms, int):  # also a bool
                raise IngestionError(
                    f"{at} must be an index into atom_sets ({len(indexed)} entries), got {atoms!r}"
                )
            atom_set = _atom_set(atoms, atom_sets, at, close)
        try:
            worlds.append(World(value["id"], atom_set))
        except ValueError as exc:
            raise IngestionError(f"{where}.worlds[{j}]: {exc}") from None
    try:
        by_id = index_worlds(worlds)
    except IngestionError as exc:
        raise IngestionError(f"{where}: {exc}") from None
    relations_value = _as_dict(entry.get("relations", {}), f"{where}.relations")
    try:
        check_relation_agents(relations_value, agents)
    except IngestionError as exc:
        raise IngestionError(f"{where}.{exc}") from None
    listed = {}
    for agent, groups_value in relations_value.items():
        listed[agent] = _groups(groups_value, f"{where}.relations[{agent!r}]")
        try:
            check_relation(agent, listed[agent], by_id)
        except IngestionError as exc:
            raise IngestionError(f"{where}.{exc}") from None
    groups = {agent: listed.get(agent, ()) for agent in agents}  # roster order
    return PALModel.from_checked(tuple(worlds), agents, groups, by_id)


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


def ingest(frames_source, rules_source=None) -> FramesDocument:
    """Load a frames document, with the ontology rules of `rules_source`,
    when given, applied to every world's atom set:

    {"agents": [...], "groups": {name: [...]}, "frames": [frame, ...]}
    where each frame is {"worlds": [{"id": w, "atoms": [[d, c], ...]}, ...],
    "relations": {agent: [[w, ...], ...], ...}}.

    An agent's relation is the closure of its groups of world ids, pairs
    or any other size, as in `PALModel`; an agent that "relations" leaves
    out, or whose groups join no two worlds, distinguishes all worlds of
    that frame.  Each distinct atom list is checked and closed under the
    rules once per document, and worlds with equal atom lists share one
    atom set.  For that the rules are loaded first, but an error in them is
    raised only after the frames document has passed every check, as
    though the frames were loaded first.  A frame closes an agent's
    relation when its partition is first read.
    """
    close = error = None
    if rules_source is not None:
        try:
            rules = load_rules(rules_source)
        except Exception as exc:  # any failure, so that the frames' errors come first
            error = exc
        else:
            if rules:
                close = lambda atoms: rule_closure(atoms, rules)

    doc = _as_dict(_load_json(frames_source), "frames document")
    agents, groups = _roster_and_groups(doc, "frames document")
    frames_value = _as_list(_get(doc, "frames", "frames document"), "frames")
    if not frames_value:
        raise IngestionError("frames must not be empty")
    atom_sets: dict = {}
    frames = []
    for i, entry in enumerate(frames_value):
        frames.append(_load_model(_as_dict(entry, f"frames[{i}]"), agents, f"frames[{i}]",
                                  atom_sets, close))
    if error is not None:
        raise error
    return FramesDocument(agents=agents, frames=frames, groups=groups)


def dump_ts(ts: TransitionSystem, scores: ScoreTable | None = None) -> dict:
    """Serialize a system (and optionally its edge scores) to a JSON dict.

    "atom_sets" lists each distinct atom set once, as a sorted
    [[data_id, class_id], ...] list, in order of first use, layer by layer
    and world by world; each world's "atoms" is the index of its set there.
    Each agent's relation in a layer lists each block of two or more worlds
    once, as its sorted ids, in the partition's order.
    The edges are listed, each with its score, only when `scores` is given;
    without scores there is no "edges" key, because the layers imply every
    edge.
    """
    doc: dict = {"agents": list(ts.agents)}
    if ts.groups:
        doc["groups"] = {name: list(members) for name, members in ts.groups.items()}
    index: dict = {}  # atom set -> its position in "atom_sets"
    layers = []
    for model in ts.layers:
        layers.append({
            "worlds": [{"id": w.id, "atoms": index.setdefault(w.atoms, len(index))}
                       for w in model.worlds],
            "relations": {
                agent: [sorted(block) for block in model.partition(agent) if len(block) > 1]
                for agent in ts.agents
            },
        })
    doc["atom_sets"] = [[[a.data_id, a.class_id] for a in sorted(atoms)] for atoms in index]
    doc["layers"] = layers
    if scores is not None:
        doc["edges"] = [{"from": u, "to": v, "score": scores[(u, v)]} for u, v in ts.edges()]
    return doc


def save_ts(ts: TransitionSystem, path, scores: ScoreTable | None = None) -> None:
    """Write `dump_ts(ts, scores)` as compact JSON on one line.

    An unscored system is written without an edge list.  No indentation,
    because `json.dumps` with `indent` falls back to its pure-Python
    encoder; `load_ts` reads indented files all the same.  The document is
    acyclic, so nothing checks for cycles.
    """
    Path(path).write_text(json.dumps(dump_ts(ts, scores), check_circular=False) + "\n")


def _edge(entry, i: int) -> tuple:
    """The (from, to) ids of edges[i]."""
    where = f"edges[{i}]"
    entry = _as_dict(entry, where)
    u = _as_str(_get(entry, "from", where), f"{where}.from")
    v = _as_str(_get(entry, "to", where), f"{where}.to")
    return u, v


def _edge_rows(entries: list, ts: TransitionSystem) -> tuple:
    """Check an edge list against `ts`: every edge once, in any order.

    Each entry in turn: its shape, that it is an edge of `ts`, that it is
    not listed twice, and its score, if it has one, by `mppe.check_score`.
    Returns (rows, unscored): `{u: {v: score or None}}` and the indices of
    the entries without a "score" field, whose meaning is the caller's rule.
    """
    layer_of = ts.layer_of
    rows: dict = {}
    unscored = []
    for i, entry in enumerate(entries):
        # A well-formed entry as JSON decodes it skips `_edge`, which makes
        # the same checks and names what is wrong with any other.
        if not (
            entry.__class__ is dict
            and (u := entry.get("from")).__class__ is str
            and (v := entry.get("to")).__class__ is str
        ):
            u, v = _edge(entry, i)
        # An edge joins adjacent layers; the defaults never match for unknown ids.
        if layer_of.get(v, -1) != layer_of.get(u, -3) + 1:
            raise IngestionError(f"edges[{i}]: {u!r} -> {v!r} is not an edge of the system")
        row = rows.get(u)
        if row is None:
            row = rows[u] = {}
        elif v in row:
            raise IngestionError(f"edges[{i}] duplicates edge {u!r} -> {v!r}")
        # A float in (0, 1], as most are, is kept without the call.
        if (score := entry.get("score")).__class__ is not float or not 0.0 < score <= 1.0:
            if "score" not in entry:
                row[v] = None
                unscored.append(i)
                continue
            from .mppe import check_score

            try:
                score = check_score(score, u, v)
            except IngestionError as exc:
                raise IngestionError(f"edges[{i}]: {exc}") from None
        row[v] = score
    # Every entry is a distinct edge, so the entries cover the system when
    # there are as many as it has edges.
    if len(entries) != ts.edge_count:
        for u, v in ts.edges():
            if v not in rows.get(u, ()):
                raise IngestionError(f"edges is missing {u!r} -> {v!r}")
    return rows, unscored


def load_ts(source):
    """Load a serialized system, compact or indented.

    Returns (system, scores).  A document without an "edges" key has every
    edge between adjacent layers and no scores.  A listed edge list, scored
    or (as older versions wrote) not, follows `_edge_rows`; scores is a
    ScoreTable when every entry carries a "score" field and None when none
    does, and a mixture is an error.

    A world's "atoms" is an atom list, or, when the document has an
    "atom_sets" array of atom lists (as `dump_ts` writes), an index into
    it.  Each distinct atom list is checked once per document, and worlds
    with equal atom lists share one atom set.

    A relation is a list of groups of world ids, as in `ingest`: the blocks
    `dump_ts` writes, and the chains of pairs that older versions wrote,
    load alike.  Every relation is checked here, but a layer closes an
    agent's groups into its partition only when that partition is first
    read, so a command that reads none (such as `mppe`) closes none.  The
    layers keep their own copies of the groups, so changing `source` later
    changes no layer.
    """
    doc = _as_dict(_load_json(source), "system document")
    agents, groups = _roster_and_groups(doc, "system document")
    atom_sets: dict = {}
    indexed = None
    if "atom_sets" in doc:
        indexed = [
            _atom_set(value, atom_sets, f"atom_sets[{k}]", None)
            for k, value in enumerate(_as_list(doc["atom_sets"], "atom_sets"))
        ]
    layers_value = _as_list(_get(doc, "layers", "system document"), "layers")
    layers = [
        _load_model(_as_dict(entry, f"layers[{i}]"), agents, f"layers[{i}]", atom_sets,
                    indexed=indexed)
        for i, entry in enumerate(layers_value)
    ]
    try:
        ts = TransitionSystem(layers, groups=groups or None)
    except IngestionError as exc:
        raise IngestionError(f"system document: {exc}") from None

    if "edges" not in doc:
        return ts, None
    entries = _as_list(doc["edges"], "edges")
    rows, unscored = _edge_rows(entries, ts)
    if len(unscored) == len(entries):
        return ts, None
    if unscored:
        raise IngestionError("either every edge must carry a score or none may")
    from .mppe import ScoreTable

    return ts, ScoreTable.from_checked(rows)


def load_scores(source, ts: TransitionSystem) -> ScoreTable:
    """Load a standalone scores file: {"edges": [{"from", "to", "score"}]}.

    The edge list follows `_edge_rows`, and every entry must carry a score.
    """
    doc = _as_dict(_load_json(source), "scores document")
    entries = _as_list(_get(doc, "edges", "scores document"), "edges")
    rows, unscored = _edge_rows(entries, ts)
    if unscored:
        raise _missing("score", f"edges[{unscored[0]}]")
    from .mppe import ScoreTable

    return ScoreTable.from_checked(rows)


def load_candidates(source) -> list:
    """Load announcement candidates: {"candidates": ["formula", ...]}."""
    doc = _as_dict(_load_json(source), "candidates document")
    entries = _as_list(_get(doc, "candidates", "candidates document"), "candidates")
    if not entries:
        raise IngestionError("candidates must not be empty")
    parse = __getattr__("parse_pal_formula")
    candidates = []
    for i, text in enumerate(entries):
        text = _as_str(text, f"candidates[{i}]")
        try:
            candidates.append(parse(text))
        except ParseError as exc:
            raise IngestionError(f"candidates[{i}]: {exc}") from None
    return candidates


def __getattr__(name: str):
    """`parse_pal_formula`, bound here on first use: of all documents only
    candidates need the formula parser.  A binding already made, such as a
    tool's wrapper, is kept."""
    if name != "parse_pal_formula":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .syntax import parse_pal_formula

    return globals().setdefault(name, parse_pal_formula)


def build_from_files(frames_source, rules_source=None) -> TransitionSystem:
    """Ingest frames (and rules) and assemble the transition system."""
    doc = ingest(frames_source, rules_source)
    return build_ts(doc.frames, groups=doc.groups or None)
