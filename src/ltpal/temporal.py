"""Finite-trace satisfaction for the temporal layer.

A formula is evaluated against a sequence of positions.  PAL leaves are
checked at the world chosen for a position, inside that world's own layer
model.  Next moves one position forward; Until holds where its right
operand holds, or where its left operand holds and the Until itself holds
one position later.

The empty path satisfies nothing, including negations: the truth vector one
position past the end is all false, whatever the connective.

`decide` quantifies over every path through a sequence of columns (the
layers of a system, or the single worlds of one path) at once:

* `formulas._rebuild` walks the formula once and indexes its temporal
  closure, each node's index its bit in a truth vector;
* each PAL leaf is labelled once per distinct column model, with
  `pal.extensions`;
* a backward pass over the columns collects the distinct truth vectors of
  the temporal closure that some suffix can produce, keeping only the bits
  the previous position reads (Next operands and Until nodes);
* the enumeration-least deciding path is then rebuilt front to back, taking
  at each column the first world from which the required vectors stay
  reachable.

The cost grows with the number of columns times the distinct vectors per
column, not with the number of paths.

A check of one path (`tems`, and `classify.quantify_paths` given a path)
evaluates PAL in the path worlds' generated submodels rather than in their
whole layers: every column shares one `model.path_model`, so each leaf is
labelled once, over the worlds the path's relations reach.
"""

from __future__ import annotations

from typing import Sequence

from .errors import EvaluationError
from .formulas import Formula, Next, Pal, TAnd, TNot, Until, _rebuild, lift
from .model import path_model
from .pal import extensions, pal_sat  # noqa: F401  (pal_sat kept importable for tools that wrap it)
from .transition import ExecPath, TransitionSystem

_NOT, _AND, _NEXT, _UNTIL = range(4)


def tems(ts: TransitionSystem, path: ExecPath, formula: Formula) -> bool:
    """Does `formula` hold on `path` (evaluated from its first world)?"""
    return decide(path_columns(ts, path.worlds), formula, True) is not None


def path_columns(ts: TransitionSystem, world_ids) -> list:
    """The columns of `decide` for the one path through `world_ids` of
    `ts`: each world alone, all in the path's `path_model`."""
    model = path_model([ts.model_of(w) for w in world_ids], world_ids)
    return [(model, (w,)) for w in world_ids]


def decide(columns: Sequence, formula: Formula, want: bool) -> list | None:
    """The enumeration-least path on which `formula` evaluates to `want`.

    `columns` is a sequence of (model, world ids) pairs; a path picks one
    world from each, and paths are ordered lexicographically by the
    position of each pick, the first column most significant.  Returns the
    picked positions, or None when no path gives `want`.
    """
    if not columns:
        return None if want else []
    root = lift(formula)  # held so that closure ids stay valid
    leaves, ops = _closure(root)
    top = len(leaves) + len(ops) - 1
    carried = 0  # the bits a position passes to the one before it
    for i, kind, a, _ in ops:
        if kind == _NEXT:
            carried |= 1 << a
        elif kind == _UNTIL:
            carried |= 1 << i

    masks = [dict.fromkeys(world_ids, 0) for _, world_ids in columns]
    distinct: dict = {}  # id(model) -> (its index among the distinct models, model)
    where = [distinct.setdefault(id(model), (len(distinct), model))[0] for model, _ in columns]
    models = [model for _, model in distinct.values()]
    for bit, leaf in leaves:
        holds = extensions(leaf, models)
        for column, k in zip(masks, where):
            for w in holds[k].intersection(column):
                column[w] |= bit
    masks = [list(column.values()) for column in masks]

    memo: dict = {}

    def step(mask: int, succ: int) -> int:
        """Truth vector at a world with leaf bits `mask`, before `succ`."""
        key = (mask, succ)
        bits = memo.get(key)
        if bits is None:
            bits = mask
            for i, kind, a, b in ops:
                if kind == _NOT:
                    on = not bits >> a & 1
                elif kind == _AND:
                    on = bits >> a & bits >> b & 1
                elif kind == _NEXT:
                    on = succ >> a & 1
                else:
                    on = bits >> b & 1 or bits >> a & succ >> i & 1
                if on:
                    bits |= 1 << i
            memo[key] = bits
        return bits

    # reachable[k]: the carried bits of every suffix starting at column k.
    reachable = [None] * len(columns) + [{0}]
    for k in range(len(columns) - 1, 0, -1):
        reachable[k] = {
            step(mask, succ) & carried for mask in set(masks[k]) for succ in reachable[k + 1]
        }

    picks = []
    accept = lambda bits: (bits >> top & 1) == want
    for k, column in enumerate(masks):
        for pos, mask in enumerate(column):
            targets = {succ for succ in reachable[k + 1] if accept(step(mask, succ))}
            if targets:
                picks.append(pos)
                accept = lambda bits, targets=targets: bits & carried in targets
                break
        else:
            return None
    return picks


def _closure(root) -> tuple:
    """Index the temporal subformulas of `root` in post-order, walked once
    by `formulas._rebuild` without recursion; a node's index is its bit in
    a truth vector, and the PAL nodes inside a leaf get none.

    Returns (leaves, ops): `leaves` pairs each PAL leaf's bit mask with its
    PAL formula, `ops` lists (index, kind, a, b) for every other node,
    operands before the nodes that read them; the root has the highest
    index.  Nodes are keyed by identity while `root` keeps them alive.
    """
    index: dict = {}  # id(node) -> bit
    leaves: list = []
    ops: list = []

    def visit(node):
        if isinstance(node, Pal):
            leaves.append((1 << len(index), node.formula))
        elif type(node) in _KINDS:
            operands = [getattr(node, name) for name in node._fields]
            bits = [index.get(id(f)) for f in operands]
            if None in bits:
                raise EvaluationError(f"not a temporal formula: {operands[bits.index(None)]!r}")
            ops.append((len(index), _KINDS[type(node)], bits[0], bits[-1]))
        else:
            return node
        index[id(node)] = len(index)
        return node

    _rebuild(root, visit)
    if id(root) not in index:
        raise EvaluationError(f"not a temporal formula: {root!r}")
    return leaves, ops


_KINDS = {TNot: _NOT, TAnd: _AND, Next: _NEXT, Until: _UNTIL}
