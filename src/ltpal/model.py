"""Kripke-model building blocks for per-frame classifier output.

One frame of multi-classifier output becomes a small Kripke model: a set of
possible worlds (candidate readings of the frame), a valuation assigning the
detected (datum, class) atoms to each world, and one equivalence relation per
classifier grouping the worlds that classifier cannot tell apart.  A model
keeps each relation in one form, as groups of world ids (a file's checked
pairs, a caller's validated blocks): the relation is their closure, which
is computed into a partition the first time it is read and kept.  The block
of one world is found by a scan of its agent's partition.  `path_model`
gathers, for one world per layer, the submodel that world generates, into
one model for a single-path check.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Mapping

from .errors import EvaluationError, IngestionError

_RESERVED = set(":,()[]{}")


def _check_name(value, what: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{what} must be a non-empty string")
    for ch in value:
        if ch in _RESERVED or ch.isspace() or not ch.isprintable():
            raise ValueError(
                f"{what} {value!r} may not contain whitespace, unprintable "
                "characters or any of : , ( ) [ ] { }"
            )


_set = object.__setattr__


def bind(cls, args: tuple, kwargs: dict):
    """The arguments of a call `cls(*args, **kwargs)` in `cls.__slots__`
    order, with `cls._defaults` for those not given."""
    names = cls.__slots__
    if not kwargs and len(args) == len(names):
        return args
    given = dict(zip(names, args))
    unknown = set(kwargs).difference(names[len(given):])
    if len(args) > len(names) or unknown:
        raise TypeError(f"{cls.__name__}() got unexpected arguments: "
                        f"{list(args[len(names):]) or sorted(unknown)}")
    values = {**cls._defaults, **given, **kwargs}
    missing = [name for name in names if name not in values]
    if missing:
        raise TypeError(f"{cls.__name__}() is missing arguments: {missing}")
    return [values[name] for name in names]


class Record:
    """Base of the immutable value classes.

    A subclass lists its constructor arguments in `__slots__` and the fields
    that are compared, hashed and shown in `_fields` (usually the same
    tuple).  Instances compare field by field with instances of the same
    class only, print like dataclasses, refuse assignment, and copy and
    pickle through their constructor.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        for name, value in zip(self.__slots__, bind(type(self), args, kwargs)):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        """Dataclass-style text, written from an explicit stack so that
        nesting depth costs no Python frames: a field whose value prints
        through this method is expanded in place, any other is `repr`'d."""
        parts = []
        stack = [self]
        while stack:
            item = stack.pop()
            if type(item).__repr__ is not Record.__repr__:
                parts.append(item)
                continue
            pieces = [f"{type(item).__qualname__}("]
            for k, name in enumerate(item._fields):
                value = getattr(item, name)
                pieces.append(f"{', ' if k else ''}{name}=")
                pieces.append(value if type(value).__repr__ is Record.__repr__ else repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(parts)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Atom(Record):
    """A single detection: class `class_id` reported for datum `data_id`."""

    __slots__ = _fields = ("data_id", "class_id")

    def __init__(self, data_id: str, class_id: str):
        _check_name(data_id, "atom data id")
        _check_name(class_id, "atom class id")
        _set(self, "data_id", data_id)
        _set(self, "class_id", class_id)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.data_id == other.data_id and self.class_id == other.class_id

    def __hash__(self):
        return hash((self.data_id, self.class_id))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.data_id, self.class_id) < (other.data_id, other.class_id)

    def __str__(self):
        return f"{self.data_id}:{self.class_id}"


class World(Record):
    """A possible reading of one frame: an id plus the atoms true in it."""

    __slots__ = _fields = ("id", "atoms")

    def __init__(self, id: str, atoms: Iterable[Atom] = frozenset()):
        if not isinstance(id, str) or not id:
            raise ValueError(f"world id must be a non-empty string, got {id!r}")
        atoms = frozenset(atoms)
        for atom in atoms:
            if not isinstance(atom, Atom):
                raise ValueError(f"world {id!r} holds a non-atom value {atom!r}")
        _set(self, "id", id)
        _set(self, "atoms", atoms)


class RuleSet:
    """Class-implication rules.

    A rule ``Cat -> Animal`` means any world containing (x, Cat) implicitly
    also contains (x, Animal), for the same datum x.  Rules are generic over
    the datum and may form cycles; closure always terminates because the
    class universe is finite.
    """

    def __init__(self, rules: Mapping[str, Iterable[str]] | None = None):
        merged: dict[str, set[str]] = {}
        for class_id, implied in dict(rules or {}).items():
            _check_name(class_id, "rule class id")
            merged.setdefault(class_id, set())
            for target in implied:
                _check_name(target, "rule implied class id")
                merged[class_id].add(target)
        self._rules = {cls: frozenset(v) for cls, v in merged.items()}

    def implied_by(self, class_id: str) -> frozenset:
        return self._rules.get(class_id, frozenset())

    def items(self):
        return self._rules.items()

    def __bool__(self):
        return bool(self._rules)

    def __eq__(self, other):
        return isinstance(other, RuleSet) and self._rules == other._rules

    def __repr__(self):
        inner = ", ".join(f"{c}->{sorted(v)}" for c, v in sorted(self._rules.items()))
        return f"RuleSet({inner})"


def rule_closure(atoms: Iterable[Atom], rules: RuleSet) -> frozenset:
    """Least superset of `atoms` closed under the implication rules."""
    closed = set(atoms)
    queue = list(closed)
    while queue:
        atom = queue.pop()
        for implied in rules.implied_by(atom.class_id):
            candidate = Atom(atom.data_id, implied)
            if candidate not in closed:
                closed.add(candidate)
                queue.append(candidate)
    return frozenset(closed)


def check_pair_ids(pairs, ids) -> None:
    """Require every id that `pairs` names to be in `ids` (a set, or a
    dict keyed by id).

    Raises IngestionError for the first pair naming an unknown id, at its
    left id when both are unknown.
    """
    for a, b in pairs:
        for w in (a, b):
            if w not in ids:
                raise IngestionError(
                    f"relation pair ({a!r}, {b!r}) references unknown world id {w!r}"
                )


def _merge(groups, ids) -> tuple:
    """The finest partition of `ids` (any iterable of distinct ids) whose
    blocks join the members of each of `groups` (iterables of ids, of any
    size, such as pairs or blocks), once every id they name is known to be
    one of `ids`.  Blocks are frozensets, ordered by their smallest member."""
    block_of: dict = {}  # id -> the set of its block, for ids some group names
    for group in groups:
        block = None
        for w in group:
            other = block_of.get(w) or block_of.setdefault(w, {w})
            if block is None or other is block:
                block = other
                continue
            if len(block) < len(other):  # merge the smaller block into the larger
                block, other = other, block
            block |= other
            for v in other:
                block_of[v] = block
    # A block is emitted at its smallest member, then emptied as a mark.
    blocks = []
    for w in sorted(ids):
        block = block_of.get(w)
        if block is None:
            blocks.append(frozenset((w,)))
        elif block:
            blocks.append(frozenset(block))
            block.clear()
    return tuple(blocks)


def index_worlds(worlds: tuple) -> dict:
    """Map the id of each of `worlds` to its world, requiring the ids to be
    distinct; raises IngestionError naming the first id that repeats."""
    by_id = {w.id: w for w in worlds}
    if len(by_id) != len(worlds):
        seen: set = set()
        repeated = next(w.id for w in worlds if w.id in seen or seen.add(w.id))
        raise IngestionError(f"duplicate world id {repeated!r}")
    return by_id


def check_relation_agents(relations, agents: tuple) -> None:
    """Require each agent that keys `relations` to be in the roster `agents`."""
    for agent in relations:
        if agent not in agents:
            raise IngestionError(f"relations names unknown agent {agent!r}")


def require_agents(names, roster) -> None:
    """Require each of `names` to be an agent of `roster`; raises
    EvaluationError naming the first that is not."""
    for agent in names:
        if agent not in roster:
            raise EvaluationError(f"unknown agent {agent!r}")


def check_roster(agents: tuple) -> None:
    """Require distinct, non-empty string agent names."""
    seen = set()
    for agent in agents:
        if not isinstance(agent, str) or not agent:
            raise IngestionError(f"agent name must be a non-empty string, got {agent!r}")
        if agent in seen:
            raise IngestionError(f"duplicate agent {agent!r} in roster")
        seen.add(agent)


class PALModel:
    """One frame as a Kripke model over a fixed classifier roster.

    Worlds keep their construction order, which later fixes path enumeration
    order, and the model is immutable once built.  `relations` maps an agent
    to a partition (an iterable of world-id blocks); agents without an entry
    get the identity partition, i.e. they can tell every pair of worlds
    apart.  The validated blocks are kept as the agent's groups.
    """

    def __init__(self, worlds: Iterable[World], agents: Iterable[str],
                 relations: Mapping[str, Iterable] | None = None):
        worlds = tuple(worlds)
        for world in worlds:
            if not isinstance(world, World):
                raise ValueError(f"expected World, got {world!r}")
        by_id = index_worlds(worlds)

        agents = tuple(agents)
        check_roster(agents)

        ids = frozenset(by_id)
        relations = dict(relations or {})
        check_relation_agents(relations, agents)

        groups: dict[str, list] = {}
        for agent in agents:
            supplied = relations.get(agent)
            if supplied is None:
                raw = [frozenset((wid,)) for wid in ids]
            else:
                raw = [frozenset(block) for block in supplied]
                covered: set[str] = set()
                for block in raw:
                    if not block:
                        raise IngestionError(f"empty relation block for agent {agent!r}")
                    for wid in block:
                        if wid not in ids:
                            raise IngestionError(
                                f"relation for agent {agent!r} references unknown world id {wid!r}"
                            )
                        if wid in covered:
                            raise IngestionError(
                                f"world id {wid!r} appears in two relation blocks for agent {agent!r}"
                            )
                        covered.add(wid)
                if covered != ids:
                    missing = ", ".join(repr(w) for w in sorted(ids - covered))
                    raise IngestionError(
                        f"relation for agent {agent!r} does not cover world(s) {missing}"
                    )
            groups[agent] = raw
        self._worlds, self._by_id, self._agents = worlds, by_id, agents
        self._relations = groups
        # Validated blocks are their own closure, once ordered.
        self._partitions = {agent: tuple(sorted(raw, key=min)) for agent, raw in groups.items()}

    @classmethod
    def from_checked(cls, worlds: tuple, agents: tuple, relations: dict,
                     by_id: dict | None = None) -> "PALModel":
        """A model that takes its parts as they are, without checking them.

        For callers that have checked them: `worlds` a tuple of Worlds with
        distinct ids, `agents` passes `check_roster`, and `relations` maps
        each agent of the roster to its groups, iterables of ids of
        `worlds` (pairs that pass `check_pair_ids`, or blocks), whose
        closure is the agent's relation.  `by_id` maps each id to its
        world, and is built when not given.
        """
        model = object.__new__(cls)
        model._worlds = worlds
        model._by_id = {w.id: w for w in worlds} if by_id is None else by_id
        model._agents = agents
        model._relations = relations  # agent -> groups whose closure is its relation
        model._partitions = {}  # agent -> that closure, once read
        return model

    @property
    def worlds(self) -> tuple:
        return self._worlds

    @property
    def agents(self) -> tuple:
        return self._agents

    @property
    def world_ids(self) -> frozenset:
        return frozenset(self._by_id)

    @property
    def is_empty(self) -> bool:
        return not self._worlds

    def world(self, world_id: str) -> World:
        try:
            return self._by_id[world_id]
        except KeyError:
            raise EvaluationError(f"unknown world id {world_id!r}") from None

    def labels(self, world_id: str) -> frozenset:
        return self.world(world_id).atoms

    def partition(self, agent: str) -> tuple:
        """The blocks of worlds `agent` cannot tell apart, ordered by their
        smallest member.  The agent's groups are closed on first read;
        threads that race to close them store equal partitions."""
        part = self._partitions.get(agent)
        if part is None:
            groups = self._relations.get(agent)
            if groups is None:
                raise EvaluationError(f"unknown agent {agent!r}")
            part = self._partitions[agent] = _merge(groups, self._by_id)
        return part

    def block(self, agent: str, world_id: str) -> frozenset:
        """Worlds `agent` cannot distinguish from `world_id` (incl. itself)."""
        for block in self.partition(agent):
            if world_id in block:
                return block
        raise EvaluationError(f"unknown world id {world_id!r}")

    def renamed(self, rename) -> "PALModel":
        """Copy of the model with every world id passed through `rename`,
        which must give distinct ids."""
        worlds = tuple(World(rename(w.id), w.atoms) for w in self._worlds)
        relations = {agent: [[rename(wid) for wid in group] for group in groups]
                     for agent, groups in self._relations.items()}
        return PALModel.from_checked(worlds, self._agents, relations, index_worlds(worlds))

    def __eq__(self, other):
        return (
            isinstance(other, PALModel)
            and self._worlds == other._worlds
            and self._agents == other._agents
            and all(self.partition(agent) == other.partition(agent) for agent in self._agents)
        )

    def __repr__(self):
        return f"PALModel(worlds={[w.id for w in self._worlds]}, agents={list(self._agents)})"


def path_model(layers, world_ids) -> PALModel:
    """One model for a path: the disjoint union of the submodels that each
    of `world_ids` generates in its model of `layers`, the worlds that
    some chain of any agents' groups links to it.

    Modal truth at a world depends only on the worlds its relations reach,
    and an announcement restricts each part of a disjoint union alone, so a
    PAL formula holds at a path world here exactly when it holds there in
    its own layer.  The layers share one roster and no world id, as in a
    transition system.  Each relation is passed on as the groups of its
    layer inside the submodel, and closed when first read; no layer's
    relation is closed.
    """
    agents = layers[0].agents if layers else ()
    worlds, relations = [], {agent: [] for agent in agents}
    for layer, world_id in zip(layers, world_ids):
        linked: dict = {}  # id -> the groups that hold it
        for agent in agents:
            for group in layer._relations[agent]:
                for w in group:
                    linked.setdefault(w, []).append(group)
        reached = {world_id}
        todo = [world_id]
        while todo:
            for group in linked.get(todo.pop(), ()):
                for w in group:
                    if w not in reached:
                        reached.add(w)
                        todo.append(w)
        worlds.extend(w for w in layer.worlds if w.id in reached)
        for agent in agents:
            relations[agent].extend(group for group in layer._relations[agent]
                                    if not reached.isdisjoint(group))
    return PALModel.from_checked(tuple(worlds), agents, relations)


def enrich_model(model: PALModel, rules: RuleSet) -> PALModel:
    """Apply rule closure to every world's atom set; structure is unchanged."""
    worlds = tuple(World(w.id, rule_closure(w.atoms, rules)) for w in model.worlds)
    return PALModel.from_checked(worlds, model.agents, model._relations)
