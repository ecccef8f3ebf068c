"""Satisfaction for the per-frame epistemic language.

Knowledge is truth across an agent's whole indistinguishability block;
distributed group knowledge intersects the group's blocks.  A public
announcement [psi] phi is vacuously true wherever psi fails, and elsewhere
says that phi holds in M|psi: the worlds where psi holds, with each agent's
block cut down to them.

Evaluation is by labelling, in the style of CTL model checking: `extension`
computes the set of worlds satisfying each subformula once, bottom-up and
without recursion, and `pal_sat` asks whether one world is in the root's
set.  Every subformula is evaluated in the one model given: M|psi is the
set of worlds the announcements around it keep, and each block read is cut
down to that set.  No submodel is built.
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
# agent(s) and ENTER's b the context it opens.  Context 0 keeps every world
# of the model; every announcement opens a context for its operand, which
# keeps the worlds where the announcement holds in its own context.
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

    `kept[ctx]` is the set of worlds that context keeps, and every slot of
    the context is a subset of it.  A context whose announcement holds
    nowhere keeps no world: its instructions yield the empty set and read
    no relation, and the announcement is vacuous.
    """
    kept = [model.world_ids] + [None] * (contexts - 1)
    slots: list = []
    empty = frozenset()
    for op, a, b, ctx in code:
        keep = kept[ctx]
        if not keep:
            value = empty
        elif op == _PROP:
            value = frozenset(w.id for w in model.worlds if a in w.atoms) & keep
        elif op == _NOT:
            value = keep - slots[a]
        elif op == _AND:
            value = slots[a] & slots[b]
        elif op == _KNOWS:
            inner = slots[a]
            value = empty.union(*(cut for block in model.partition(b)
                                  if (cut := block & keep) <= inner))
        elif op == _DIST:
            inner = slots[a]
            of = [{w: block for block in model.partition(agent) for w in block} for agent in b]
            value = frozenset(
                w for w in keep
                if frozenset.intersection(*(blocks[w] for blocks in of)) & keep <= inner
            )
        elif op == _ENTER:
            value = None
            kept[b] = slots[a]
        else:  # _ANNOUNCE: vacuous where the announcement fails
            value = (keep - slots[a]) | slots[b]
        slots.append(value)
    return slots[-1]


def announce_update(model: PALModel, announced: PalFormula) -> PALModel:
    """M|announced, built here: the worlds of `model` where `announced`
    holds, in order and with their atoms, each agent's blocks cut down to
    them; it may have no worlds.  Evaluation never builds it: it is the
    reference that `[announced] phi` is defined by."""
    keep = extension(model, announced)
    relations = {agent: [block & keep for block in model.partition(agent)]
                 for agent in model.agents}
    worlds = tuple(w for w in model.worlds if w.id in keep)
    return PALModel.from_checked(worlds, model.agents, relations)

