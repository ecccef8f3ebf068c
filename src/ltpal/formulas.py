"""Formula ASTs: an epistemic core embedded in a finite-trace temporal layer.

Two node families live here.  `PalFormula` covers the per-frame epistemic
language: atoms, negation, conjunction, single-agent knowledge, distributed
group knowledge, and public announcements.  `TemporalFormula` wraps PAL
formulas as leaves (`Pal`) and adds negation, conjunction, Next and Until
over finite execution paths.

Nodes are interned (hash-consed, as in Filliâtre and Conchon, "Type-Safe
Modular Hash-Consing", ML Workshop 2006): constructing a node whose class
and fields equal those of a live node returns that node.  Equal formulas are
therefore the same object, equality is identity, and hashing is by identity,
so neither recurses however deep the formula is.  Nodes cannot be assigned
to; a node leaves the intern table when nothing else refers to it.

Everything beyond the core operators is sugar and is rewritten into core
nodes at construction time: or, implication and the constants at both
levels, plus Future / Globally / Release / WeakUntil at the temporal level.
The constants expand over a designated tautology atom so that any formula
built here can be printed and re-parsed losslessly.

The lowercase constructor helpers (`t_not`, `t_and`, ...) produce the
canonical shape the parser emits: a boolean combination of pure PAL operands
stays inside the PAL layer instead of being lifted node by node.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, Mapping, Sequence, Union

from .errors import ArityError
from .model import Atom, Record, bind

# (class, *fields) -> the live node with those fields.  One lock covers each
# lookup and insert, so two threads never intern two copies of a formula.
_interned = weakref.WeakValueDictionary()
_intern_lock = threading.Lock()


def _intern(cls, fields):
    key = (cls, *fields)
    with _intern_lock:
        node = _interned.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
            _interned[key] = node
    return node


class _Node:
    """Interned formula node; subclasses list their fields in `__slots__`
    and `_fields`.  Equality and hashing are `object`'s: by identity, and a
    copy, shallow or deep, is the node itself."""

    __slots__ = ("__weakref__",)
    _fields: tuple = ()
    _defaults: dict = {}

    def __new__(cls, *args, **kwargs):
        return _intern(cls, bind(cls, args, kwargs))

    __repr__ = Record.__repr__

    def __reduce__(self):
        """Pickle as one flat post-order list, rebuilt by `_unflatten`."""
        flat = []
        index = {}  # node -> its position in `flat`

        def visit(node):
            values = [getattr(node, name) for name in node._fields]
            links = tuple(k for k, v in enumerate(values) if isinstance(v, _Node))
            for k in links:
                values[k] = index[values[k]]
            index[node] = len(flat)
            flat.append((type(node), tuple(values), links))
            return node

        _rebuild(self, visit)
        return _unflatten, (flat,)

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class PalFormula(_Node):
    """Base class for per-frame (epistemic) formulas."""

    __slots__ = ()


class Prop(PalFormula):
    __slots__ = _fields = ("atom",)


class PNot(PalFormula):
    __slots__ = _fields = ("operand",)


class PAnd(PalFormula):
    __slots__ = _fields = ("left", "right")


class Knows(PalFormula):
    """K: the agent's whole indistinguishability block satisfies the operand."""

    __slots__ = _fields = ("agent", "operand")


class Dist(PalFormula):
    """D: the intersection of the group's blocks satisfies the operand."""

    __slots__ = _fields = ("agents", "operand")

    def __new__(cls, agents, operand):
        agents = frozenset(agents)
        if not agents:
            raise ValueError("distributed knowledge needs a non-empty agent set")
        return _intern(cls, (agents, operand))


class Announce(PalFormula):
    """[announced] operand: operand holds after truthfully announcing."""

    __slots__ = _fields = ("announced", "operand")


class Placeholder(PalFormula):
    """Template slot ?k; must be substituted away before evaluation."""

    __slots__ = _fields = ("index",)

    def __new__(cls, index):
        # bool is refused: True would intern as the node for 1.
        if not isinstance(index, int) or isinstance(index, bool) or index < 1:
            raise ValueError("placeholder index must be a positive integer")
        return _intern(cls, (index,))


class TemporalFormula(_Node):
    """Base class for path formulas."""

    __slots__ = ()


class Pal(TemporalFormula):
    __slots__ = _fields = ("formula",)


class TNot(TemporalFormula):
    __slots__ = _fields = ("operand",)


class TAnd(TemporalFormula):
    __slots__ = _fields = ("left", "right")


class Next(TemporalFormula):
    __slots__ = _fields = ("operand",)


class Until(TemporalFormula):
    __slots__ = _fields = ("left", "right")


Formula = Union[PalFormula, TemporalFormula]

# The constants expand over this atom.  Its truth value never matters: the
# expansions are a contradiction and its negation.  The name is a plain
# identifier so printed formulas stay parseable.
TAUT_ATOM = Atom("_true_", "_true_")


def bottom() -> PalFormula:
    """The PAL contradiction; interned, so it is recognised by identity."""
    return PAnd(Prop(TAUT_ATOM), PNot(Prop(TAUT_ATOM)))


def top() -> PalFormula:
    """The PAL tautology, `!bottom()`; likewise recognised by identity."""
    return PNot(bottom())


def p_or(a: PalFormula, b: PalFormula) -> PalFormula:
    return PNot(PAnd(PNot(a), PNot(b)))


def p_implies(a: PalFormula, b: PalFormula) -> PalFormula:
    return PNot(PAnd(a, PNot(b)))


def lift(f: Formula) -> TemporalFormula:
    """Embed a PAL formula as a temporal leaf; temporal input passes through."""
    if isinstance(f, PalFormula):
        return Pal(f)
    if isinstance(f, TemporalFormula):
        return f
    raise TypeError(f"not a formula: {f!r}")


def t_not(f: Formula) -> TemporalFormula:
    f = lift(f)
    if isinstance(f, Pal):
        return Pal(PNot(f.formula))
    return TNot(f)


def t_and(a: Formula, b: Formula) -> TemporalFormula:
    a, b = lift(a), lift(b)
    if isinstance(a, Pal) and isinstance(b, Pal):
        return Pal(PAnd(a.formula, b.formula))
    return TAnd(a, b)


def t_or(a: Formula, b: Formula) -> TemporalFormula:
    return t_not(t_and(t_not(a), t_not(b)))


def t_implies(a: Formula, b: Formula) -> TemporalFormula:
    return t_not(t_and(lift(a), t_not(b)))


def future(f: Formula) -> TemporalFormula:
    return Until(Pal(top()), lift(f))


def release(a: Formula, b: Formula) -> TemporalFormula:
    return t_not(Until(t_not(a), t_not(b)))


def globally(f: Formula) -> TemporalFormula:
    return release(Pal(bottom()), f)


def weak_until(a: Formula, b: Formula) -> TemporalFormula:
    return release(b, t_or(a, b))


def _rebuild(f: Formula, visit) -> Formula:
    """Rebuild `f` bottom-up, replacing each node, once its operands are
    rebuilt, by `visit(node)`.

    An explicit stack walks each node's `_fields` in post-order, so nesting
    depth costs no Python frames.  A node whose operands come back unchanged
    is kept, and a subformula shared by several parents is visited once.
    """
    if not isinstance(f, _Node):
        raise TypeError(f"not a formula: {f!r}")
    done = {}
    stack = [(f, None)]  # (node, its field values once its operands are queued)
    while stack:
        node, values = stack.pop()
        if values is None:
            if node not in done:
                values = [getattr(node, name) for name in node._fields]
                stack.append((node, values))
                stack.extend((v, None) for v in values if isinstance(v, _Node))
            continue
        rebuilt = [done[v] if isinstance(v, _Node) else v for v in values]
        # Nodes compare by identity, so this asks whether any operand changed.
        done[node] = visit(type(node)(*rebuilt) if rebuilt != values else node)
    return done[f]


def _unflatten(flat: list) -> Formula:
    """The last node of a list that `_Node.__reduce__` made.

    Each entry is (class, field values, links): the fields at the positions
    in `links` hold the index of an earlier entry, whose node goes there.
    Nodes are rebuilt through their constructors, so they are interned.
    """
    nodes: list = []
    for cls, values, links in flat:
        if links:
            values = list(values)
            for k in links:
                values[k] = nodes[values[k]]
        nodes.append(cls(*values))
    return nodes[-1]


def placeholder_indices(f: Formula) -> frozenset:
    """Every ?k index occurring anywhere in the formula."""
    found: set[int] = set()

    def visit(node):
        if isinstance(node, Placeholder):
            found.add(node.index)
        return node

    _rebuild(f, visit)
    return frozenset(found)


def expand_names(names: Iterable[str], groups: Mapping[str, Iterable[str]]) -> tuple:
    """`names` with each group name of `groups` replaced by the group's
    members, every agent once, in order of first appearance."""
    return tuple(dict.fromkeys(m for name in names for m in groups.get(name, (name,))))


def expand_groups(f: Formula, groups: Mapping[str, Iterable[str]]) -> Formula:
    """Replace declared group aliases inside D{...} agent sets by their members."""
    table = {name: tuple(members) for name, members in dict(groups or {}).items()}
    if not table:
        return f

    def visit(node):
        if isinstance(node, Dist):
            return Dist(expand_names(node.agents, table), node.operand)
        return node

    return _rebuild(f, visit)


class Template(Record):
    """A temporal skeleton with numbered PAL slots ?1 ... ?arity.

    Every index from 1 to `arity` must occur at least once and no higher
    index may appear, so substitution is total.
    """

    __slots__ = _fields = ("skeleton", "arity")

    def __init__(self, skeleton: Formula, arity: int):
        skeleton = lift(skeleton)
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "arity", arity)
        present = placeholder_indices(skeleton)
        wanted = frozenset(range(1, arity + 1))
        if present != wanted:
            missing = sorted(wanted - present)
            extra = sorted(present - wanted)
            parts = []
            if missing:
                parts.append("missing " + ", ".join(f"?{i}" for i in missing))
            if extra:
                parts.append("unexpected " + ", ".join(f"?{i}" for i in extra))
            raise ValueError(f"template of arity {arity}: " + "; ".join(parts))

    @classmethod
    def from_skeleton(cls, skeleton: Formula) -> "Template":
        """Infer the arity as the highest placeholder index present."""
        skeleton = lift(skeleton)
        present = placeholder_indices(skeleton)
        arity = max(present, default=0)
        return cls(skeleton, arity)


def _pal_arguments(args: Iterable) -> list:
    """Template arguments as PAL formulas, an Atom read as its `Prop`.

    Each must be a PAL formula without placeholders; the error names the
    1-based position of the first that is not.
    """
    checked = []
    for pos, arg in enumerate(args, 1):
        if isinstance(arg, Atom):
            arg = Prop(arg)
        if not isinstance(arg, PalFormula):
            raise ValueError(f"argument {pos} is not a PAL formula: {arg!r}")
        if placeholder_indices(arg):
            raise ValueError(f"argument {pos} still contains placeholders")
        checked.append(arg)
    return checked


def substitute(template: Template, args: Sequence[PalFormula]) -> TemporalFormula:
    """Fill every ?k slot of the template with args[k-1]."""
    args = list(args)
    if len(args) != template.arity:
        raise ArityError(
            f"template needs {template.arity} argument(s), got {len(args)}"
        )
    args = _pal_arguments(args)

    def fill(node):
        return args[node.index - 1] if isinstance(node, Placeholder) else node

    return _rebuild(template.skeleton, fill)
