"""Tests for the formula lexer, parser and canonical pretty-printer."""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltpal.errors import EpistemicScopeError, ParseError
from ltpal import formulas
from ltpal.formulas import (
    Announce,
    Dist,
    Knows,
    Next,
    PAnd,
    Pal,
    Placeholder,
    PNot,
    Prop,
    TAnd,
    Template,
    TNot,
    Until,
    bottom,
    future,
    globally,
    lift,
    p_implies,
    p_or,
    release,
    t_and,
    t_implies,
    t_not,
    t_or,
    top,
    weak_until,
)
from ltpal.model import Atom
from ltpal.syntax import parse_formula, parse_pal_formula, parse_template, pretty

from generators import random_pal_formula, random_temporal_formula

A = Prop(Atom("a", "a"))
B = Prop(Atom("b", "b"))
C = Prop(Atom("c", "c"))


def test_bare_identifier_doubles_as_atom():
    assert parse_pal_formula("p") == Prop(Atom("p", "p"))
    assert parse_pal_formula("x:Cat") == Prop(Atom("x", "Cat"))


def test_constants():
    assert parse_pal_formula("true") == top()
    assert parse_pal_formula("false") == bottom()


def test_precedence_and_associativity():
    assert parse_pal_formula("a & b | c") == p_or(PAnd(A, B), C)
    assert parse_pal_formula("a | b & c") == p_or(A, PAnd(B, C))
    assert parse_pal_formula("!a & b") == PAnd(PNot(A), B)
    assert parse_pal_formula("a -> b -> c") == p_implies(A, p_implies(B, C))
    assert parse_pal_formula("a & b -> c") == p_implies(PAnd(A, B), C)
    assert parse_pal_formula("!(a & b)") == PNot(PAnd(A, B))


def test_epistemic_operators_parse():
    assert parse_pal_formula("K{a1} x:Cat") == Knows("a1", Prop(Atom("x", "Cat")))
    assert parse_pal_formula("D{a1,a2} p") == Dist(
        frozenset({"a1", "a2"}), Prop(Atom("p", "p"))
    )
    assert parse_pal_formula("[p] K{i} q") == Announce(
        Prop(Atom("p", "p")), Knows("i", Prop(Atom("q", "q")))
    )
    # The modality binds tighter than the connectives.
    assert parse_pal_formula("K{i} p & q") == PAnd(
        Knows("i", Prop(Atom("p", "p"))), Prop(Atom("q", "q"))
    )


def test_pure_pal_text_stays_unlifted_until_the_end():
    formula = parse_formula("K{i} (p & q)")
    assert isinstance(formula, Pal)
    assert isinstance(formula.formula, Knows)


def test_temporal_operators_parse():
    p, q = Pal(A), Pal(B)
    assert parse_formula("X a") == Next(p)
    assert parse_formula("F a") == future(p)
    assert parse_formula("G a") == globally(p)
    assert parse_formula("(a U b)") == Until(p, q)
    assert parse_formula("(a R b)") == release(p, q)
    assert parse_formula("(a W b)") == weak_until(p, q)
    assert parse_formula("X X a") == Next(Next(p))
    assert parse_formula("a | X b") == t_or(p, Next(q))
    assert parse_formula("a -> X b") == t_implies(p, Next(q))


def test_binary_temporal_operators_need_parentheses():
    with pytest.raises(ParseError, match="inside parentheses"):
        parse_formula("a U b")
    with pytest.raises(ParseError, match="inside parentheses"):
        parse_formula("a W b")


def test_temporal_rejected_in_epistemic_scopes():
    for text in (
        "K{i} X p",
        "D{i,j} F p",
        "K{i} (p & G q)",
        "[X p] q",
        "[p] X q",
        "K{i} (p U q)",
        "[(p U q)] r",
    ):
        with pytest.raises(EpistemicScopeError):
            parse_formula(text)
    # The violation is still a ParseError for coarse handlers.
    with pytest.raises(ParseError):
        parse_formula("K{i} X p")


def test_pal_parser_rejects_temporal_everywhere():
    with pytest.raises(EpistemicScopeError):
        parse_pal_formula("X p")
    with pytest.raises(EpistemicScopeError):
        parse_pal_formula("(p U q)")


def test_placeholders_only_in_templates():
    with pytest.raises(ParseError, match="only allowed in templates"):
        parse_formula("?1")
    template = parse_template("G(?1 -> X ?2)")
    assert template.arity == 2
    inner = parse_template("K{i} ?1")
    assert inner.skeleton == Pal(Knows("i", Placeholder(1)))


def test_template_index_gaps_are_rejected():
    with pytest.raises(ParseError, match=r"\?1"):
        parse_template("F ?2")


def test_error_positions_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_formula("p &")
    assert err.value.line == 1
    assert err.value.column == 4
    with pytest.raises(ParseError, match="2:1"):
        parse_formula("p &\n& q")
    with pytest.raises(ParseError, match="after the formula"):
        parse_formula("p q")
    with pytest.raises(ParseError, match="'-'"):
        parse_formula("p - q")
    with pytest.raises(ParseError, match="digits"):
        parse_formula("?x")
    with pytest.raises(ParseError):
        parse_formula("p @ q")
    with pytest.raises(ParseError, match="expected"):
        parse_formula("(p")
    with pytest.raises(ParseError):
        parse_formula("K{} p")
    with pytest.raises(ParseError):
        parse_formula("")


def test_pretty_hand_renderings():
    cases = [
        "p",
        "x:Cat",
        "!p",
        "p & q",
        "p | q",
        "p -> q",
        "p & (q | r)",
        "!(p & q)",
        "K{i} p",
        "D{i,j} (p | q)",
        "[p] q",
        "true",
        "false",
        "X p",
        "F p",
        "G p",
        "(p U q)",
        "(p R q)",
        "(p W q)",
        "!F p",
        "G (p -> X q)",
        "(p U (q R r))",
        "F p | X q",
    ]
    for text in cases:
        assert pretty(parse_formula(text)) == text


def test_pretty_sorts_group_members():
    formula = Dist(frozenset({"b", "a"}), A)
    assert pretty(formula) == "D{a,b} a"


def test_pretty_canonicalises_constant_spellings():
    # Implication from true collapses to the canonical or-form.
    assert pretty(parse_formula("true -> p")) == "false | p"
    assert parse_formula("false | p") == parse_formula("true -> p")


def test_roundtrip_on_random_canonical_formulas():
    rng = random.Random(4242)
    for _ in range(500):
        agents = ["i", "j", "k"][: rng.randint(1, 3)]
        if rng.random() < 0.5:
            formula = lift(random_pal_formula(rng, agents))
        else:
            formula = random_temporal_formula(rng, agents)
        text = pretty(formula)
        assert parse_formula(text) == formula, text
        assert pretty(parse_formula(text)) == text


def test_parse_pal_formula_roundtrip():
    rng = random.Random(77)
    for _ in range(200):
        formula = random_pal_formula(rng, ["i", "j"])
        assert parse_pal_formula(pretty(formula)) == formula


_AGENTS = st.sampled_from(["i", "j", "k"])
_PAL = st.recursive(
    st.sampled_from([A, B, C, top(), bottom()]),
    lambda sub: st.one_of(
        st.builds(PNot, sub),
        st.builds(PAnd, sub, sub),
        st.builds(p_or, sub, sub),
        st.builds(p_implies, sub, sub),
        st.builds(Knows, _AGENTS, sub),
        st.builds(Dist, st.frozensets(_AGENTS, min_size=1), sub),
        st.builds(Announce, sub, sub),
    ),
    max_leaves=6,
)
_TEMPORAL = st.recursive(
    _PAL.map(lift),
    lambda sub: st.one_of(
        st.builds(t_not, sub),
        st.builds(t_and, sub, sub),
        st.builds(t_or, sub, sub),
        st.builds(t_implies, sub, sub),
        st.builds(Next, sub),
        st.builds(Until, sub, sub),
        st.builds(future, sub),
        st.builds(globally, sub),
        st.builds(release, sub, sub),
        st.builds(weak_until, sub, sub),
    ),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_TEMPORAL)
def test_parse_inverts_pretty_on_constructed_formulas(formula):
    assert parse_formula(pretty(formula)) == formula


# Formula nodes are interned: equal formulas are one object.


def test_equal_formulas_built_or_parsed_twice_are_one_object():
    text = "G (K{a} v:Cat -> F D{a,b} v:Dog)"
    built = globally(t_implies(
        Knows("a", Prop(Atom("v", "Cat"))),
        future(Dist({"b", "a"}, Prop(Atom("v", "Dog")))),
    ))
    assert parse_formula(text) is parse_formula(text) is built
    assert PAnd(A, PNot(B)) is PAnd(Prop(Atom("a", "a")), PNot(Prop(Atom("b", "b"))))
    assert Dist(["b", "a", "b"], A) is Dist(frozenset({"a", "b"}), A)
    assert Knows(agent="i", operand=A) is Knows("i", A)
    assert PAnd(A, B) is not PAnd(B, A)


def test_deep_formulas_compare_and_hash_without_recursion():
    def chain():
        formula = Pal(A)
        for _ in range(100_000):
            formula = Next(formula)
        return formula

    first, second = chain(), chain()
    assert first == second
    assert hash(first) == hash(second)
    assert first is second


def test_dropped_formulas_leave_the_intern_table():
    gc.collect()
    before = len(formulas._interned)
    formula = PNot(Prop(Atom("only", "here")))
    assert len(formulas._interned) == before + 2
    probe = weakref.ref(formula)
    del formula
    gc.collect()
    assert probe() is None
    assert len(formulas._interned) == before


def test_threads_intern_one_copy_of_each_formula():
    rounds, workers = 1000, 4
    results = [[] for _ in range(workers)]
    start = threading.Barrier(workers)

    def build(out):
        start.wait()
        for k in range(rounds):
            out.append(Next(Pal(PAnd(Prop(Atom("t", f"c{k}")), A))))

    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(rounds):
        assert len({id(out[k]) for out in results}) == 1


_EVERY_NODE = [
    Prop(Atom("v1", "Cat")),
    PNot(A),
    PAnd(A, B),
    Knows("a", A),
    Dist({"a"}, A),
    Announce(A, B),
    Placeholder(1),
    Pal(A),
    TNot(Pal(A)),
    TAnd(Pal(A), Pal(B)),
    Next(Pal(A)),
    Until(Pal(A), Pal(B)),
]


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda node: pickle.loads(pickle.dumps(node)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_of_a_formula_are_the_formula(duplicate):
    for node in _EVERY_NODE + [parse_formula("G (K{a} v:Cat -> [v:Dog] D{a,b} v:Dog U X v:Fox)")]:
        assert duplicate(node) is node


@pytest.mark.parametrize("node", _EVERY_NODE, ids=lambda node: type(node).__name__)
def test_formula_fields_cannot_be_assigned(node):
    for name in type(node).__slots__:
        with pytest.raises(AttributeError):
            setattr(node, name, A)
        with pytest.raises(AttributeError):
            delattr(node, name)
    with pytest.raises(AttributeError):
        node.extra = 1


def test_template_fields_cannot_be_assigned():
    template = Template(Pal(Placeholder(1)), 1)
    for name in ("skeleton", "arity"):
        with pytest.raises(AttributeError):
            setattr(template, name, 2)
    assert copy.deepcopy(template) == template
    assert pickle.loads(pickle.dumps(template)) == template


_PINNED_REPRS = list(zip(_EVERY_NODE + [Template(Pal(Placeholder(1)), 1)], [
    "Prop(atom=Atom(data_id='v1', class_id='Cat'))",
    "PNot(operand=Prop(atom=Atom(data_id='a', class_id='a')))",
    "PAnd(left=Prop(atom=Atom(data_id='a', class_id='a')), right=Prop(atom=Atom(data_id='b', class_id='b')))",
    "Knows(agent='a', operand=Prop(atom=Atom(data_id='a', class_id='a')))",
    "Dist(agents=frozenset({'a'}), operand=Prop(atom=Atom(data_id='a', class_id='a')))",
    "Announce(announced=Prop(atom=Atom(data_id='a', class_id='a')), "
    "operand=Prop(atom=Atom(data_id='b', class_id='b')))",
    "Placeholder(index=1)",
    "Pal(formula=Prop(atom=Atom(data_id='a', class_id='a')))",
    "TNot(operand=Pal(formula=Prop(atom=Atom(data_id='a', class_id='a'))))",
    "TAnd(left=Pal(formula=Prop(atom=Atom(data_id='a', class_id='a'))), "
    "right=Pal(formula=Prop(atom=Atom(data_id='b', class_id='b'))))",
    "Next(operand=Pal(formula=Prop(atom=Atom(data_id='a', class_id='a'))))",
    "Until(left=Pal(formula=Prop(atom=Atom(data_id='a', class_id='a'))), "
    "right=Pal(formula=Prop(atom=Atom(data_id='b', class_id='b'))))",
    "Template(skeleton=Pal(formula=Placeholder(index=1)), arity=1)",
]))


@pytest.mark.parametrize("node, text", _PINNED_REPRS,
                         ids=[type(node).__name__ for node, _ in _PINNED_REPRS])
def test_formula_reprs_are_pinned(node, text):
    assert repr(node) == text


@pytest.mark.parametrize("index", [True, False, 0, -1, 1.0, "1", None])
def test_placeholder_rejects_non_positive_integers_and_bools(index):
    with pytest.raises(ValueError):
        Placeholder(index)


def test_node_constructors_check_their_arguments():
    with pytest.raises(TypeError):
        PAnd(A)
    with pytest.raises(TypeError):
        PNot(A, B)
    with pytest.raises(TypeError):
        Knows("a", operand=A, agents="b")
    with pytest.raises(ValueError):
        Dist((), A)
