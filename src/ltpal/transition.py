"""Layered transition systems over a sequence of frame models.

A frame sequence becomes one layer per frame plus two synthetic endpoint
layers: a single start world before the first frame and a single end world
after the last, both with empty labels and identity relations.  Consecutive
layers are connected completely, so a total execution path picks exactly one
world per layer, running from the start world to the end world.

Edges are implicit in the layering (every cross-layer pair is an edge);
`edges()` materialises them in a fixed order for serialization and scoring.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from .errors import ConfigurationError, EvaluationError, IngestionError
from .model import PALModel, Record, World


def read_integer(value, source: str) -> int:
    """`value`, an int (not a bool) or its decimal text, as an int, or
    ConfigurationError naming it by `source`.  The text is ASCII digits with
    an optional sign and surrounding whitespace, without `_` separators."""
    try:
        if isinstance(value, str):
            digits = value.strip().lstrip("+-")
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError
        return int(value)
    except ValueError:
        raise ConfigurationError(f"{source} must be an integer, got {value!r}") from None


def check_groups(groups: Mapping[str, tuple], roster: tuple) -> None:
    """Require each group of `groups` (name -> tuple of members) to have
    members, all of them agents of `roster`, and a name that is not one."""
    roster = set(roster)
    for name, members in groups.items():
        if not members:
            raise IngestionError(f"group {name!r} must not be empty")
        if name in roster:
            raise IngestionError(f"group name {name!r} collides with an agent id")
        for member in members:
            if member not in roster:
                raise IngestionError(f"group {name!r} lists unknown agent {member!r}")


class TransitionSystem:
    """Immutable layered system; construct real instances via `build_ts`."""

    def __init__(self, layers: Iterable[PALModel], *, groups: Mapping[str, Iterable[str]] | None = None):
        layers = tuple(layers)
        if len(layers) < 3:
            raise IngestionError("a transition system needs at least one real layer between the endpoints")
        for index in (0, len(layers) - 1):
            endpoint = layers[index]
            if len(endpoint.worlds) != 1 or endpoint.worlds[0].atoms:
                raise IngestionError(
                    f"endpoint layer {index} must hold exactly one world with no atoms"
                )
        roster = layers[0].agents
        for index, layer in enumerate(layers):
            if layer.agents != roster:
                raise IngestionError(
                    f"agent roster mismatch: layer {index} has {list(layer.agents)}, expected {list(roster)}"
                )
            if layer.is_empty:
                raise IngestionError(f"layer {index} has no worlds")

        layer_of: dict[str, int] = {}
        for index, layer in enumerate(layers):
            for world in layer.worlds:
                if world.id in layer_of:
                    raise IngestionError(f"world id {world.id!r} appears in two layers")
                layer_of[world.id] = index

        groups = {name: tuple(members) for name, members in (groups or {}).items()}
        check_groups(groups, roster)

        self._layers = layers
        self._groups = groups
        self._layer_of = layer_of

    @property
    def layers(self) -> tuple:
        return self._layers

    @property
    def real_layers(self) -> tuple:
        return self._layers[1:-1]

    @property
    def agents(self) -> tuple:
        return self._layers[0].agents

    @property
    def groups(self) -> dict:
        return dict(self._groups)

    @property
    def s0(self) -> str:
        return self._layers[0].worlds[0].id

    @property
    def s_minus1(self) -> str:
        return self._layers[-1].worlds[0].id

    @property
    def state_count(self) -> int:
        return len(self._layer_of)

    @property
    def edge_count(self) -> int:
        sizes = [len(layer.worlds) for layer in self._layers]
        return sum(a * b for a, b in zip(sizes, sizes[1:]))

    @property
    def layer_of(self) -> dict:
        """World id -> layer index, for every world.  Do not modify it."""
        return self._layer_of

    def layer_index(self, world_id: str) -> int:
        try:
            return self._layer_of[world_id]
        except KeyError:
            raise EvaluationError(f"unknown world id {world_id!r}") from None

    def model_of(self, world_id: str) -> PALModel:
        return self._layers[self.layer_index(world_id)]

    def label(self, world_id: str) -> frozenset:
        return self.model_of(world_id).labels(world_id)

    def edges(self) -> Iterator[tuple]:
        """All cross-layer edges (from, to), layer by layer, in world order."""
        for lower, upper in zip(self._layers, self._layers[1:]):
            yield from itertools.product([u.id for u in lower.worlds],
                                         [v.id for v in upper.worlds])

    def path(self, world_ids: Iterable[str]) -> "ExecPath":
        return ExecPath(self, tuple(world_ids))

    def __eq__(self, other):
        return (
            isinstance(other, TransitionSystem)
            and self._layers == other._layers
            and self._groups == other._groups
        )

    def __repr__(self):
        sizes = "x".join(str(len(layer.worlds)) for layer in self._layers)
        return f"TransitionSystem(layers={sizes}, agents={list(self.agents)})"


class ExecPath(Record):
    """A run through consecutive layers; may be a suffix of a total path.

    Equality, hashing and the repr look at the worlds only, not at `ts`.
    """

    __slots__ = ("ts", "worlds")
    _fields = ("worlds",)

    def __init__(self, ts: TransitionSystem, worlds: Iterable[str] = ()):
        worlds = tuple(worlds)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "worlds", worlds)
        previous = None
        for wid in worlds:
            index = ts.layer_index(wid)
            if previous is not None and index != previous + 1:
                raise ValueError(
                    f"path worlds must sit in consecutive layers; {wid!r} does not follow"
                )
            previous = index

    def __len__(self):
        return len(self.worlds)


def build_ts(frames: Iterable[PALModel], *, groups=None) -> TransitionSystem:
    """Assemble the layered system for a frame sequence.

    Synthetic endpoint worlds are named w00 and w<n+1>0 for n frames.  If any
    world id repeats across frames (or collides with an endpoint id), every
    real world id gets an L<layer>_ prefix to keep ids globally unique.
    """
    frames = list(frames)
    if not frames:
        raise IngestionError("cannot build a transition system from zero frames")

    first_id = "w00"
    last_id = f"w{len(frames) + 1}0"
    real_ids = [w.id for frame in frames for w in frame.worlds]
    collision = len(set(real_ids)) != len(real_ids) or {first_id, last_id} & set(real_ids)
    if collision:
        frames = [
            frame.renamed(lambda wid, i=index: f"L{i}_{wid}")
            for index, frame in enumerate(frames, start=1)
        ]

    roster = frames[0].agents
    start = PALModel((World(first_id),), roster)
    end = PALModel((World(last_id),), roster)
    return TransitionSystem([start, *frames, end], groups=groups)


def total_path_count(ts: TransitionSystem) -> int:
    count = 1
    for layer in ts.layers:
        count *= len(layer.worlds)
    return count


def enumerate_total_paths(ts: TransitionSystem) -> Iterator[ExecPath]:
    """Lazily yield every total path, ordered by per-layer world position."""
    per_layer = [[w.id for w in layer.worlds] for layer in ts.layers]
    for combo in itertools.product(*per_layer):
        yield ExecPath(ts, combo)


def path_rank(ts: TransitionSystem, picks) -> int:
    """Index in `enumerate_total_paths` order of the total path that takes
    world `picks[k]` (a position) of layer k: a mixed-radix number with one
    digit per layer, the first layer most significant."""
    rank = 0
    for layer, pos in zip(ts.layers, picks):
        rank = rank * len(layer.worlds) + pos
    return rank


def path_at(ts: TransitionSystem, index: int) -> ExecPath | None:
    """The total path at `index` in `enumerate_total_paths` order, or None
    when `index` is out of range; the inverse of `path_rank`."""
    if not 0 <= index < total_path_count(ts):
        return None
    ids = []
    for layer in reversed(ts.layers):
        index, pos = divmod(index, len(layer.worlds))
        ids.append(layer.worlds[pos].id)
    return ExecPath(ts, ids[::-1])
