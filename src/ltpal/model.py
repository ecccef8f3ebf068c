"""Kripke-model building blocks for per-frame classifier output.

One frame of multi-classifier output becomes a small Kripke model: a set of
possible worlds (candidate readings of the frame), a valuation assigning the
detected (datum, class) atoms to each world, and one equivalence relation per
classifier grouping the worlds that classifier cannot tell apart.  Relations
are read as partitions of the world set rather than pair lists, and the
block of one world is found by a scan of its agent's partition.  A model
built from parts already checked (`PALModel.from_checked`) takes them as
they are; one given checked pairs (a loaded system's layer) closes each
agent's relation into its partition the first time that partition is read.
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
            raise ValueError("world id must be a non-empty string")
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


def equivalence_closure(pairs, worlds) -> tuple:
    """Finest partition of `worlds` whose blocks join every listed pair.

    `pairs` is any iterable of (id, id) couples; reflexive and symmetric
    completions are implicit.  Returns blocks as frozensets, ordered by their
    smallest member so the result is deterministic.
    """
    pairs = tuple(pairs)
    ids = set(worlds)
    check_pair_ids(pairs, ids)
    return _merge(pairs, ids)


def _merge(pairs, ids) -> tuple:
    """`equivalence_closure` of `pairs` over the ids `ids` (any iterable
    of distinct ids), once `check_pair_ids` has passed."""
    block_of: dict = {}  # id -> the set of its block, for ids some pair names
    for a, b in pairs:
        x = block_of.get(a) or block_of.setdefault(a, {a})
        y = block_of.get(b) or block_of.setdefault(b, {b})
        if x is not y:  # merge the smaller block into the larger
            if len(x) < len(y):
                x, y = y, x
            x |= y
            for w in y:
                block_of[w] = x
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
    apart.
    """

    def __init__(self, worlds: Iterable[World], agents: Iterable[str],
                 relations: Mapping[str, Iterable] | None = None):
        worlds = tuple(worlds)
        by_id: dict[str, World] = {}
        for world in worlds:
            if not isinstance(world, World):
                raise ValueError(f"expected World, got {world!r}")
            if world.id in by_id:
                raise IngestionError(f"duplicate world id {world.id!r}")
            by_id[world.id] = world

        agents = tuple(agents)
        check_roster(agents)

        ids = frozenset(by_id)
        relations = dict(relations or {})
        for agent in relations:
            if agent not in agents:
                raise IngestionError(f"relation listed for unknown agent {agent!r}")

        partitions: dict[str, tuple] = {}
        for agent in agents:
            supplied = relations.get(agent)
            if supplied is None:
                part = tuple(frozenset({wid}) for wid in sorted(ids))
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
                if covered != set(ids):
                    missing = ", ".join(repr(w) for w in sorted(ids - covered))
                    raise IngestionError(
                        f"relation for agent {agent!r} does not cover world(s) {missing}"
                    )
                part = tuple(sorted(raw, key=min))
            partitions[agent] = part
        self._worlds, self._by_id, self._agents = worlds, by_id, agents
        self._partitions = partitions  # agent -> partition, for each one closed
        self._pairs = {}  # agent -> checked pairs, for each one not yet closed

    @classmethod
    def from_checked(cls, worlds: tuple, agents: tuple, partitions: dict, pairs: dict | None = None,
                     by_id: dict | None = None) -> "PALModel":
        """A model that takes its parts as they are, without checking them.

        For callers that have checked them: `worlds` a tuple of Worlds with
        distinct ids, `agents` passes `check_roster`, `partitions` maps
        agents to partitions of the world ids with blocks ordered by their
        smallest member (as `partition` returns them), and `pairs` maps each
        other agent of the roster to a tuple of (id, id) tuples that passes
        `check_pair_ids`; such a relation is closed when its partition is
        first read.  `by_id` maps each id to its world, and is built when
        not given.
        """
        model = object.__new__(cls)
        model._worlds = worlds
        model._by_id = {w.id: w for w in worlds} if by_id is None else by_id
        model._agents = agents
        model._partitions = partitions
        model._pairs = {} if pairs is None else pairs
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
        smallest member.  A relation given as pairs is closed on first read;
        threads that race to close it store equal partitions."""
        part = self._partitions.get(agent)
        if part is None:
            pairs = self._pairs.get(agent)
            if pairs is None:
                raise EvaluationError(f"unknown agent {agent!r}")
            part = self._partitions[agent] = _merge(pairs, self._by_id)
        return part

    def block(self, agent: str, world_id: str) -> frozenset:
        """Worlds `agent` cannot distinguish from `world_id` (incl. itself)."""
        for block in self.partition(agent):
            if world_id in block:
                return block
        raise EvaluationError(f"unknown world id {world_id!r}")

    def restricted(self, keep) -> "PALModel":
        """Submodel over `keep`: worlds filtered, partitions intersected."""
        keep = frozenset(keep)
        unknown = keep - self.world_ids
        if unknown:
            raise EvaluationError(f"unknown world id {sorted(unknown)[0]!r}")
        worlds = tuple(w for w in self._worlds if w.id in keep)
        partitions = {
            agent: tuple(sorted((block & keep for block in self.partition(agent) if block & keep),
                                key=min))
            for agent in self._agents
        }
        return PALModel.from_checked(worlds, self._agents, partitions)

    def renamed(self, rename) -> "PALModel":
        """Copy of the model with every world id passed through `rename`."""
        worlds = tuple(World(rename(w.id), w.atoms) for w in self._worlds)
        partitions = {
            agent: tuple(frozenset(rename(wid) for wid in block) for block in self.partition(agent))
            for agent in self._agents
        }
        return PALModel(worlds, self._agents, partitions)

    def __eq__(self, other):
        return (
            isinstance(other, PALModel)
            and self._worlds == other._worlds
            and self._agents == other._agents
            and all(self.partition(agent) == other.partition(agent) for agent in self._agents)
        )

    def __repr__(self):
        return f"PALModel(worlds={[w.id for w in self._worlds]}, agents={list(self._agents)})"


def enrich_model(model: PALModel, rules: RuleSet) -> PALModel:
    """Apply rule closure to every world's atom set; structure is unchanged."""
    worlds = tuple(World(w.id, rule_closure(w.atoms, rules)) for w in model.worlds)
    partitions = {agent: model.partition(agent) for agent in model.agents}
    return PALModel.from_checked(worlds, model.agents, partitions)
