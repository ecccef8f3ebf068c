"""Satisfaction for the per-frame epistemic language.

Knowledge is truth across an agent's whole indistinguishability block;
distributed group knowledge intersects the group's blocks.  A public
announcement [psi] restricts the model to the worlds satisfying psi and is
vacuously true wherever psi fails, so evaluation never leaves the surviving
submodel.

Evaluation is by labelling, in the style of CTL model checking: `extension`
computes the set of worlds satisfying each subformula once, bottom-up and
without recursion, and `pal_sat` asks whether one world is in the root's
set.  An announcement builds its submodel once per model it is evaluated
in, and only when the announced formula holds at some world of it.
"""

from __future__ import annotations

from .errors import EvaluationError
from .formulas import (
    Announce,
    Dist,
    Knows,
    PAnd,
    Placeholder,
    PNot,
    PalFormula,
    Prop,
)
from .model import PALModel, require_agents


def pal_sat(model: PALModel, world_id: str, formula: PalFormula) -> bool:
    """Does `formula` hold at `world_id` of `model`?"""
    model.world(world_id)  # fail fast on unknown ids
    return world_id in extension(model, formula)


def extension(model: PALModel, formula: PalFormula) -> frozenset:
    """The ids of the worlds of `model` where `formula` holds."""
    return extensions(formula, [model])[0]


def extensions(formula: PalFormula, models) -> list:
    """`extension(model, formula)` for each model of the sequence
    `models`, compiling once.

    Every agent that `formula` names must be in the models' roster, also
    one that no evaluation reaches, such as inside an announcement that
    holds nowhere.
    """
    code, contexts, agents = _compile(formula)
    if models:
        require_agents(sorted(agents), models[0].agents)
    return [_run(code, contexts, model) for model in models]


# Instructions are (op, a, b, context).  Each writes one slot; a and b are
# operand slots, except that PROP's a is the atom, KNOWS's and DIST's b the
# agent(s) and ENTER's b the context it opens.  Context 0 is the model
# evaluated in; every announcement opens a context for its operand, the
# submodel.
_PROP, _NOT, _AND, _KNOWS, _DIST, _ENTER, _ANNOUNCE = range(7)


def _compile(formula: PalFormula) -> tuple:
    """Post-order instructions for `formula`, without recursion.

    Returns (code, number of contexts, the agents K and D nodes name).  A
    node shared within one context is compiled once; nodes are keyed by
    identity while `formula` keeps them alive.
    """
    code: list = []
    agents: set = set()
    slot: dict = {}  # (context, id(node)) -> slot
    opened: dict = {}  # (context, id(announcement)) -> its operand's context
    stack = [(formula, 0)]
    while stack:
        f, ctx = stack[-1]
        key = (ctx, id(f))
        if key in slot:
            stack.pop()
            continue
        if isinstance(f, Prop):
            instr = (_PROP, f.atom, None, ctx)
        elif isinstance(f, (PNot, Knows, Dist)):
            a = slot.get((ctx, id(f.operand)))
            if a is None:
                stack.append((f.operand, ctx))
                continue
            if isinstance(f, PNot):
                instr = (_NOT, a, None, ctx)
            elif isinstance(f, Knows):
                instr = (_KNOWS, a, f.agent, ctx)
                agents.add(f.agent)
            else:
                instr = (_DIST, a, sorted(f.agents), ctx)
                agents.update(f.agents)
        elif isinstance(f, PAnd):
            a = slot.get((ctx, id(f.left)))
            b = slot.get((ctx, id(f.right)))
            if a is None or b is None:
                stack.extend((g, ctx) for g, s in ((f.right, b), (f.left, a)) if s is None)
                continue
            instr = (_AND, a, b, ctx)
        elif isinstance(f, Announce):
            a = slot.get((ctx, id(f.announced)))
            if a is None:
                stack.append((f.announced, ctx))
                continue
            inner = opened.get(key)
            if inner is None:
                inner = opened[key] = len(opened) + 1
                code.append((_ENTER, a, inner, ctx))
            b = slot.get((inner, id(f.operand)))
            if b is None:
                stack.append((f.operand, inner))
                continue
            instr = (_ANNOUNCE, a, b, ctx)
        elif isinstance(f, Placeholder):
            raise EvaluationError(
                f"placeholder ?{f.index} cannot be evaluated; substitute template arguments first"
            )
        else:
            raise EvaluationError(f"not a PAL formula: {f!r}")
        stack.pop()
        slot[key] = len(code)
        code.append(instr)
    return code, len(opened) + 1, agents


def _run(code: list, contexts: int, model: PALModel) -> frozenset:
    """Execute compiled instructions in `model`; returns the last slot.

    A context whose announcement holds nowhere gets no submodel: its
    instructions yield the empty set and the announcement is vacuous.
    """
    models = [model] + [None] * (contexts - 1)
    everywhere = [model.world_ids] + [None] * (contexts - 1)
    slots: list = []
    empty = frozenset()
    for op, a, b, ctx in code:
        m = models[ctx]
        if m is None:
            value = empty
        elif op == _PROP:
            value = frozenset(w.id for w in m.worlds if a in w.atoms)
        elif op == _NOT:
            value = everywhere[ctx] - slots[a]
        elif op == _AND:
            value = slots[a] & slots[b]
        elif op == _KNOWS:
            inner = slots[a]
            value = empty.union(*(block for block in m.partition(b) if block <= inner))
        elif op == _DIST:
            inner = slots[a]
            of = [_block_of(m, agent) for agent in b] if m.worlds else ()
            value = frozenset(
                w.id for w in m.worlds
                if frozenset.intersection(*(blocks[w.id] for blocks in of)) <= inner
            )
        elif op == _ENTER:
            value = None
            if slots[a]:
                models[b] = m.restricted(slots[a])
                everywhere[b] = slots[a]
        else:  # _ANNOUNCE: vacuous where the announcement fails
            value = (everywhere[ctx] - slots[a]) | slots[b]
        slots.append(value)
    return slots[-1]


def announce_update(model: PALModel, announced: PalFormula) -> PALModel:
    """Submodel over the worlds where `announced` holds.

    Atom sets are untouched and partitions are intersected with the survivor
    set.  The result may have no worlds at all.
    """
    return model.restricted(extension(model, announced))


def _block_of(model: PALModel, agent: str) -> dict:
    """World id -> the block of `agent`'s partition that holds it."""
    return {wid: block for block in model.partition(agent) for wid in block}
