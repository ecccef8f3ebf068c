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
    expand_groups,
    expand_names,
    future,
    globally,
    lift,
    p_implies,
    p_or,
    placeholder_indices,
    release,
    substitute,
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


# Text -> its error as printed.  Only '\n' starts a line; any other
# whitespace character takes one column, and the end of input sits one
# column past the last character of its line.
_END = "unexpected end of input (expected '!', '(', '[', 'false', 'true', identifier)"
_POSITIONS = [
    ("p &\t@", "1:5: unexpected character '@'"),
    ("p &\r@", "1:5: unexpected character '@'"),
    ("p &\u3000@", "1:5: unexpected character '@'"),
    ("p &\x1c@", "1:5: unexpected character '@'"),
    ("p\n&\nq @", "3:3: unexpected character '@'"),
    ("p - q", "1:3: unexpected character '-'"),
    ("p & ?", "1:5: expected digits after '?'"),
    ("p &\n", "2:1: " + _END),
    ("p &\n\n", "3:1: " + _END),
    ("\xa0p &", "1:5: " + _END),
]


@pytest.mark.parametrize("text, message", _POSITIONS)
def test_error_positions_count_whitespace_and_line_breaks(text, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text)
    assert str(info.value) == message


def test_every_unicode_space_but_newline_separates_two_identifiers():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace() and c != 0x0A]
    assert len(spaces) == 28
    for space in spaces:
        with pytest.raises(ParseError) as info:
            parse_formula(f"p{space}q")
        assert str(info.value) == "1:3: unexpected identifier 'q' after the formula (expected end)"
    with pytest.raises(ParseError) as info:
        parse_formula("p\u200bq")  # a zero-width space, which isspace() rejects
    assert str(info.value) == "1:2: unexpected character '\\u200b'"


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


def test_pretty_reads_weak_until_across_levels():
    # The held operand is a temporal negation's operand, Pal(x); the body's
    # disjuncts come out of one PAL leaf, as the PAL formulas a and x.
    x = Prop(Atom("x", "x"))
    formula = TNot(Until(TNot(Pal(x)), t_not(t_or(Pal(A), Pal(x)))))
    assert pretty(formula) == "(a W x)"


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: Template(Pal(Placeholder(3)), 2), ValueError,
     "template of arity 2: missing ?1, ?2; unexpected ?3"),
    (lambda: lift("p"), TypeError, "not a formula: 'p'"),
    (lambda: pretty("p"), TypeError, "not a formula: 'p'"),
    (lambda: expand_groups("p", {"g": ["a"]}), TypeError, "not a formula: 'p'"),
], ids=["template-slots", "lift", "pretty", "expand-groups"])
def test_front_end_functions_name_what_they_reject(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# No front-end function recurses: each one runs on formulas 5,000 levels
# deep under a recursion limit only 100 frames above the test's own depth.

_DEEP = 5000

_DEEP_TEXTS = {
    "!": "!" * _DEEP + "?1",
    "X": "X " * _DEEP + "?1",
    "F": "F " * _DEEP + "?1",
    "G": "G (" * _DEEP + "?1" + ")" * _DEEP,
    "K": "K{i} " * _DEEP + "?1",
    "D": "D{g,j} " * _DEEP + "?1",
    "announced": "[" * _DEEP + "?1" + "] a" * _DEEP,
    "announcement": "[a] " * _DEEP + "?1",
    "parentheses": "(" * _DEEP + "?1" + ")" * _DEEP,
    "&": "?1 & " * _DEEP + "a",
    "(&)": "a & (" * _DEEP + "?1" + ")" * _DEEP,
    "|": "?1 | " * _DEEP + "a",
    "->": "a -> " * _DEEP + "?1",
    "U": "(a U " * _DEEP + "?1" + ")" * _DEEP,
    "R": "(" * _DEEP + "?1" + " R a)" * _DEEP,
    "W": "(a W " * _DEEP + "?1" + ")" * _DEEP,
}

# Node kind -> one layer of a chain built on ?1 (PAL) or on X ?1 (temporal).
_PAL_LAYERS = {
    "PNot": PNot,
    "PAnd-left": lambda f: PAnd(f, B),
    "PAnd-right": lambda f: PAnd(B, f),
    "Knows": lambda f: Knows("i", f),
    "Dist": lambda f: Dist({"g", "j"}, f),
    "Announce-announced": lambda f: Announce(f, B),
    "Announce-operand": lambda f: Announce(B, f),
}
_TEMPORAL_LAYERS = {
    "TNot": TNot,
    "TAnd-left": lambda f: TAnd(f, Pal(B)),
    "TAnd-right": lambda f: TAnd(Pal(B), f),
    "Next": Next,
    "Until-left": lambda f: Until(f, Pal(B)),
    "Until-right": lambda f: Until(Pal(B), f),
}


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_front_end_does_not_recurse():
    chains = []
    for name, layer in [*_PAL_LAYERS.items(), *_TEMPORAL_LAYERS.items()]:
        formula = Placeholder(1) if name in _PAL_LAYERS else Next(Pal(Placeholder(1)))
        for _ in range(_DEEP):
            formula = layer(formula)
        chains.append((name, formula))
    arg = PAnd(A, Dist({"g"}, B))
    groups = {"g": ["i", "k"]}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        for name, text in _DEEP_TEXTS.items():
            template = parse_template(text)
            filled = substitute(template, [B])
            plain = text.replace("?1", "b")
            assert parse_formula(plain) is filled, name
            if isinstance(filled, Pal):
                assert parse_pal_formula(plain) is filled.formula, name
        for name, formula in chains:
            template = Template(lift(formula), 1)
            assert placeholder_indices(formula) == {1}, name
            assert parse_template(pretty(formula)) == template, name
            filled = substitute(template, [arg])
            text = pretty(filled)
            assert parse_formula(text) is filled, name
            if isinstance(filled, Pal):
                assert parse_pal_formula(text) is filled.formula, name
            expected = text.replace("D{g,j}", "D{i,j,k}").replace("D{g}", "D{i,k}")
            assert pretty(expand_groups(filled, groups)) == expected, name
            assert copy.copy(formula) is copy.deepcopy(formula) is formula, name
            assert copy.deepcopy(template) == template, name
            assert pickle.loads(pickle.dumps(formula)) is formula, name
            assert pickle.loads(pickle.dumps(template)) == template, name
            assert repr(template) == f"Template(skeleton={repr(lift(formula))}, arity=1)", name
        leaf = "Pal(formula=Placeholder(index=1))"
        assert repr(dict(chains)["Next"]) == "Next(operand=" * (_DEEP + 1) + leaf + ")" * (_DEEP + 1)
    finally:
        sys.setrecursionlimit(limit)


# Differential corpora: outcomes recorded from the recursive-descent parser
# and recursive printer that the stack-based ones replaced.

_LEAVES = [A, B, Prop(Atom("x", "Cat")), Placeholder(1), Placeholder(2), top(), bottom()]
_TEMPORAL_SHAPES = [
    lambda sub: Pal(sub(False)),
    lambda sub: TNot(sub(True)),
    lambda sub: TAnd(sub(True), sub(True)),
    lambda sub: Next(sub(True)),
    lambda sub: Until(sub(True), sub(True)),
    lambda sub: future(sub(True)),
    lambda sub: globally(sub(True)),
    lambda sub: release(sub(True), sub(True)),
    lambda sub: weak_until(sub(True), sub(True)),
    lambda sub: t_or(sub(True), sub(True)),
    lambda sub: t_implies(sub(True), sub(True)),
]
_PAL_SHAPES = [
    lambda sub: PNot(sub(False)),
    lambda sub: PAnd(sub(False), sub(False)),
    lambda sub: Knows("i", sub(False)),
    lambda sub: Dist({"j", "i"}, sub(False)),
    lambda sub: Announce(sub(False), sub(False)),
    lambda sub: p_or(sub(False), sub(False)),
    lambda sub: p_implies(sub(False), sub(False)),
]


def _any_tree(rng, depth, temporal):
    """A seeded, well-typed formula tree of any shape, canonical or not
    (such as `TAnd(Pal(a), Pal(b))` or `TNot(Pal(a))`)."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.choice(_LEAVES)
        return Pal(leaf) if temporal else leaf
    shape = rng.choice(_TEMPORAL_SHAPES if temporal else _PAL_SHAPES)
    return shape(lambda temporal: _any_tree(rng, depth - 1, temporal))


def test_pretty_matches_the_pinned_corpus():
    rng = random.Random(1018)
    texts = [pretty(_any_tree(rng, 4, rng.random() < 0.7)) for _ in _PRETTY_PINNED]
    assert texts == _PRETTY_PINNED


def _outcome(parse, text):
    try:
        result = parse(text)
    except ParseError as exc:
        expected = tuple(sorted(exc.expected))
        return type(exc), exc.message, exc.line, exc.column, expected
    return pretty(result.skeleton if isinstance(result, Template) else result)


def test_malformed_texts_match_the_pinned_corpus():
    for text, *pinned in _MALFORMED:
        # One pinned outcome stands for all three entry points.
        pinned = pinned * 3 if len(pinned) == 1 else pinned
        got = [_outcome(parse, text) for parse in (parse_formula, parse_pal_formula, parse_template)]
        assert got == pinned, text


_PRIMARY = ("'!'", "'('", "'['", "'false'", "'true'", "identifier")

# Seeded deletions, insertions and substitutions of tokens in pretty-printed
# random formulas; per text the outcome of parse_formula, parse_pal_formula
# and parse_template: an error's class, message, line, column and expected
# tokens, or the pretty text of what parsed.
_MALFORMED = [
    ('K { i } ! y : Cat & [ D { i } x : Fox D true',
     (ParseError, "unexpected 'D'", 1, 39, (']',))),
    ('false -> [ : Dog',
     (ParseError, "unexpected ':'", 1, 12, _PRIMARY)),
    ('K { i ? z : Cat',
     (ParseError, "expected digits after '?'", 1, 7, ())),
    ('G [ x : Cat ] y : Fox',
     'G [x:Cat] y:Fox',
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     'G [x:Cat] y:Fox'),
    ('[ z : Dog ] [ G x : Dog ] D { i , ?1 } x : Fox',
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside an announcement", 1, 15, ())),
    ('K{i} z ! Cat',
     (ParseError, "unexpected '!' after the formula", 1, 8, ('end',))),
    ('F ( ?2 : Dog & x : Fox | x : Cat )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected ':'", 1, 8, (')',))),
    ('K true j } ( K { j } x : Cat | K { j } y : Cat )',
     (ParseError, "unexpected 'true'", 1, 3, ('{',))),
    ('z : Fox -> ( ! y : Dog U ! K { i } ( z : & z : Fox ) )',
     (ParseError, "unexpected '&'", 1, 42, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'U' is not allowed inside a PAL formula", 1, 24, ()),
     (ParseError, "unexpected '&'", 1, 42, ('identifier',))),
    ('K{i} ! K { j } [ y : Dog K z : Fox',
     (ParseError, "unexpected 'K'", 1, 26, (']',))),
    (': Dog',
     (ParseError, "unexpected ':'", 1, 1, _PRIMARY)),
    ('D { i } K { } false',
     (ParseError, "unexpected '}'", 1, 13, ('identifier',))),
    ('! X K { j } { ( z : & & x : Warm )',
     (ParseError, "unexpected '{'", 1, 13, _PRIMARY),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 3, ()),
     (ParseError, "unexpected '{'", 1, 13, _PRIMARY)),
    ('K j } true',
     (ParseError, "unexpected identifier 'j'", 1, 3, ('{',))),
    ('y : | Dog | : Fox',
     (ParseError, "unexpected '|'", 1, 5, ('identifier',))),
    ('! [ false ] ( x : Cat & p y : Dog )',
     (ParseError, "unexpected identifier 'y'", 1, 27, (')',))),
    ('D { i y : -',
     (ParseError, "unexpected character '-'", 1, 11, ())),
    ('G y :',
     (ParseError, 'unexpected end of input', 1, 6, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected end of input', 1, 6, ('identifier',))),
    ('( y ?0 - -> x : Cat ) & x : Fox',
     (ParseError, "unexpected character '-'", 1, 8, ())),
    ('! : Dog -',
     (ParseError, "unexpected character '-'", 1, 9, ())),
    ('[ ! ( R x : Fox -> z : Cat ) ] K { j } [ y : Cat y : Dog',
     (ParseError, "binary temporal operator 'R' must appear inside parentheses: (f R g)", 1, 7, ())),
    ('G x:Cat ( y Fox & D { i , j } y : Dog )',
     (ParseError, "unexpected '(' after the formula", 1, 9, ('end',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected '(' after the formula", 1, 9, ('end',))),
    ('x U Fox -> K { j } false',
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 3, ())),
    ('z : Fox -> x Cat',
     (ParseError, "unexpected identifier 'Cat' after the formula", 1, 14, ('end',))),
    ('( ! ( z : Warm | x : Dog ) R ! D { i G j } ) )',
     (ParseError, "unexpected 'G'", 1, 38, ('}',)),
     (EpistemicScopeError, "temporal operator 'R' is not allowed inside a PAL formula", 1, 28, ()),
     (ParseError, "unexpected 'G'", 1, 38, ('}',))),
    ('D { j } R z : Fox',
     (ParseError, "binary temporal operator 'R' must appear inside parentheses: (f R g)", 1, 9, ())),
    ('[ z : Dog ] z : Fox | ( x ?2 : Dog x : Cat ) | z : Warm',
     (ParseError, 'unexpected placeholder ?2', 1, 27, (')',))),
    ('! ( y : Cat & y Dog )',
     (ParseError, "unexpected identifier 'Dog'", 1, 17, (')',))),
    ('K { i } ( y : Warm & y : ?1 Warm ) & z : Dog',
     (ParseError, 'unexpected placeholder ?1', 1, 26, ('identifier',))),
    ('@ x Warm | z : Dog ) & K { i } y : Cat',
     (ParseError, "unexpected character '@'", 1, 1, ())),
    ('K { j } D { i , j } K { ? i } R y : Cat',
     (ParseError, "expected digits after '?'", 1, 25, ())),
    ('! ( ! x W : Warm & K { j } D : Cat ) & z : Cat',
     (ParseError, "unexpected ':'", 1, 11, _PRIMARY),
     (EpistemicScopeError, "temporal operator 'W' is not allowed inside a PAL formula", 1, 9, ()),
     (ParseError, "unexpected ':'", 1, 11, _PRIMARY)),
    ('K x : Dog',
     (ParseError, "unexpected identifier 'x'", 1, 3, ('{',))),
    ('X K j } ( x : Dog & z Dog )',
     (ParseError, "unexpected identifier 'j'", 1, 5, ('{',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected identifier 'j'", 1, 5, ('{',))),
    ('z : Fox |',
     (ParseError, 'unexpected end of input', 1, 10, _PRIMARY)),
    ('F ( K { j } x K{i} Cat -> K { i } : Dog )',
     (ParseError, "unexpected 'K'", 1, 15, (')',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected 'K'", 1, 15, (')',))),
    ('( G [ D { i , j } z : ( ] ( false -> x D Dog ) U X x : Cat )',
     (ParseError, "unexpected '('", 1, 23, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 3, ()),
     (ParseError, "unexpected '('", 1, 23, ('identifier',))),
    ('?2 { i , j } x : Fox',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected '{' after the formula", 1, 4, ('end',))),
    ('D { i - j } y : Dog',
     (ParseError, "unexpected character '-'", 1, 7, ())),
    ('?2 : Dog',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected ':' after the formula", 1, 4, ('end',))),
    ('! z :',
     (ParseError, 'unexpected end of input', 1, 6, ('identifier',))),
    ('! ( false p x : Dog )',
     (ParseError, "unexpected identifier 'p'", 1, 11, (')',))),
    ('D { i , j } D { j } z Warm',
     (ParseError, "unexpected identifier 'Warm' after the formula", 1, 23, ('end',))),
    ('[ ! y Cat ] ! y : D Warm',
     (ParseError, "unexpected identifier 'Cat'", 1, 7, (']',))),
    ('( y : ? & D { i } x : Dog )',
     (ParseError, "expected digits after '?'", 1, 7, ())),
    ('D { i , j } x : Dog | x : Cat & x : { -',
     (ParseError, "unexpected character '-'", 1, 39, ())),
    ('! true & ( x : Warm | y : Cat ) ?1',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 33, ('end',))),
    ('F G K { i D { , j } false',
     (ParseError, "unexpected 'D'", 1, 11, ('}',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected 'D'", 1, 11, ('}',))),
    ('X true',
     'X true',
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     'X true'),
    ('? ?1 : Dog',
     (ParseError, "expected digits after '?'", 1, 1, ())),
    ('D { j } [ D { i , j } false ] [ ? x : Fox ] x : Dog',
     (ParseError, "expected digits after '?'", 1, 33, ())),
    ('D { j R ! ! z : @',
     (ParseError, "unexpected character '@'", 1, 17, ())),
    ('x : Dog @',
     (ParseError, "unexpected character '@'", 1, 9, ())),
    ('x : Cat -> y : ?0',
     (ParseError, 'unexpected placeholder ?0', 1, 16, ('identifier',))),
    ('! W : x:Cat Cat',
     (ParseError, "binary temporal operator 'W' must appear inside parentheses: (f W g)", 1, 3, ())),
    ('K ?0 { j } y : Warm',
     (ParseError, 'unexpected placeholder ?0', 1, 3, ('{',))),
    ('( x : Warm -> ?2 : Warm ) | y : Cat \n',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 15, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 15, ()),
     (ParseError, "unexpected ':'", 1, 18, (')',))),
    ('D { i ? x Dog',
     (ParseError, "expected digits after '?'", 1, 7, ())),
    ('K { j ?1 z : Fox',
     (ParseError, 'unexpected placeholder ?1', 1, 7, ('}',))),
    ('z R :',
     (ParseError, "binary temporal operator 'R' must appear inside parentheses: (f R g)", 1, 3, ())),
    ('! ( K { i } y : Fox & ( false & true ) ) ?0',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 42, ('end',))),
    ('x :',
     (ParseError, 'unexpected end of input', 1, 4, ('identifier',))),
    ('[ true ] D { i } z :',
     (ParseError, 'unexpected end of input', 1, 21, ('identifier',))),
    ('? Fox',
     (ParseError, "expected digits after '?'", 1, 1, ())),
    ('( ! [ x : Dog ] x : Fox R [ x : Fox ] [ x : Dog ] z Warm )',
     (ParseError, "unexpected identifier 'Warm'", 1, 53, (')',)),
     (EpistemicScopeError, "temporal operator 'R' is not allowed inside a PAL formula", 1, 25, ()),
     (ParseError, "unexpected identifier 'Warm'", 1, 53, (')',))),
    ('!',
     (ParseError, 'unexpected end of input', 1, 2, _PRIMARY)),
    ('y :',
     (ParseError, 'unexpected end of input', 1, 4, ('identifier',))),
    ('X F ! true',
     'X F !true',
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     'X F !true'),
    ('F K { j } z :',
     (ParseError, 'unexpected end of input', 1, 14, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected end of input', 1, 14, ('identifier',))),
    ('D { i } ?2 y : Dog true',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 9, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 9, ()),
     (ParseError, "unexpected identifier 'y' after the formula", 1, 12, ('end',))),
    ('F z Fox',
     (ParseError, "unexpected identifier 'Fox' after the formula", 1, 5, ('end',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected identifier 'Fox' after the formula", 1, 5, ('end',))),
    (': Cat ?',
     (ParseError, "expected digits after '?'", 1, 7, ())),
    ('W K { i } z : Fox',
     (ParseError, "binary temporal operator 'W' must appear inside parentheses: (f W g)", 1, 1, ())),
    ('K { j } y ?2 Fox',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 11, ('end',))),
    ('G U false',
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 3, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 3, ())),
    ('[ z : Fox ?1 ( ] y : Fox',
     (ParseError, 'unexpected placeholder ?1', 1, 11, (']',))),
    ('x : Warm & G x : Cat &',
     (ParseError, 'unexpected end of input', 1, 23, _PRIMARY),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 12, ()),
     (ParseError, 'unexpected end of input', 1, 23, _PRIMARY)),
    ('( y : Fox & x : Warm',
     (ParseError, 'unexpected end of input', 1, 21, (')',))),
    ('X x : ?2',
     (ParseError, 'unexpected placeholder ?2', 1, 7, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2', 1, 7, ('identifier',))),
    ('F ( D { i , j } [ z Warm ] y : Warm U D { i } ! y : Fox )',
     (ParseError, "unexpected identifier 'Warm'", 1, 21, (']',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected identifier 'Warm'", 1, 21, (']',))),
    ('x : ?1 Cat',
     (ParseError, 'unexpected placeholder ?1', 1, 5, ('identifier',))),
    ('! G [ K x : Dog ] y : Warm',
     (ParseError, "unexpected identifier 'x'", 1, 9, ('{',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 3, ()),
     (ParseError, "unexpected identifier 'x'", 1, 9, ('{',))),
    ('?1 z : Warm false & ! x : Fox W y : Cat )',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected identifier 'z' after the formula", 1, 4, ('end',))),
    ('K { j } ( ( z : Fox -> y : Warm ) | ?2 y : Dog )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 37, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 37, ()),
     (ParseError, "unexpected identifier 'y'", 1, 40, (')',))),
    ('z : ?2',
     (ParseError, 'unexpected placeholder ?2', 1, 5, ('identifier',))),
    ('R',
     (ParseError, "binary temporal operator 'R' must appear inside parentheses: (f R g)", 1, 1, ())),
    ('y & Dog -> F x : Warm',
     'y & Dog -> F x:Warm',
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 12, ()),
     'y & Dog -> F x:Warm'),
    ('K{i} K { j } X : Warm',
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside the scope of K{j}", 1, 14, ())),
    ('! x : Cat & ( W x : Warm -> y : Cat )',
     (ParseError, "binary temporal operator 'W' must appear inside parentheses: (f W g)", 1, 15, ())),
    ('x :',
     (ParseError, 'unexpected end of input', 1, 4, ('identifier',))),
    ('D { i } D { ?0 , j } y : Fox',
     (ParseError, 'unexpected placeholder ?0', 1, 13, ('identifier',))),
    ('( ! ! true W y : Cat & K { j } ?1 { x:Cat j } z : Warm )',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 32, ()),
     (EpistemicScopeError, "temporal operator 'W' is not allowed inside a PAL formula", 1, 12, ()),
     (ParseError, "unexpected '{'", 1, 35, (')',))),
    ('G z : Dog',
     'G z:Dog',
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     'G z:Dog'),
    ('K { i } ?0 D { i , j } x : Fox & y : Warm | )',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 9, ()),
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 9, ()),
     (ParseError, 'placeholder indices start at 1', 1, 9, ())),
    ('X K j } x : Cat',
     (ParseError, "unexpected identifier 'j'", 1, 5, ('{',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected identifier 'j'", 1, 5, ('{',))),
    ('K ?0 ?2 } y : Cat',
     (ParseError, 'unexpected placeholder ?0', 1, 3, ('{',))),
    ('?2 z :',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected identifier 'z' after the formula", 1, 4, ('end',))),
    ('z ?1 Dog',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 3, ('end',))),
    ('y : Warm & y : Warm -> [ ?2 : Cat ] y : Dog',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 26, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 26, ()),
     (ParseError, "unexpected ':'", 1, 29, (']',))),
    ('K ?0 { i } z : Warm',
     (ParseError, 'unexpected placeholder ?0', 1, 3, ('{',))),
    ('! ( ?2 ( z : Dog -> x : Warm ) | G y : Warm -> z : Dog ) )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 5, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 5, ()),
     (ParseError, "unexpected '('", 1, 8, (')',))),
    ('( K { i } true -> x : Warm ?2 : Cat ) | ! ! x : Cat',
     (ParseError, 'unexpected placeholder ?2', 1, 28, (')',))),
    ('?0 { i } y : Dog',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 1, ())),
    ('X G ( x : Dog \n ) x : Cat )',
     (ParseError, "unexpected identifier 'x' after the formula", 2, 4, ('end',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected identifier 'x' after the formula", 2, 4, ('end',))),
    ('G ( ?0 ! x : Cat | K { j } ?1 z : Dog )',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 5, ())),
    ('z : Warm -> y ?2 :',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 15, ('end',))),
    ('y : Dog ?0 x : Dog | y : Fox & z : Fox',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 9, ('end',))),
    ('[ D { i , ?1 | } y : Dog ] [ x : Fox ] x : Warm',
     (ParseError, 'unexpected placeholder ?1', 1, 11, ('identifier',))),
    ('K ?2 i } y : Fox',
     (ParseError, 'unexpected placeholder ?2', 1, 3, ('{',))),
    ('G X x',
     'G X x',
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     'G X x'),
    ('G K { i } ( x : Warm ?1 : Fox )',
     (ParseError, 'unexpected placeholder ?1', 1, 22, (')',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1', 1, 22, (')',))),
    ('[ X \n : Cat',
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside an announcement", 1, 3, ())),
    ('?2 : Cat',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected ':' after the formula", 1, 4, ('end',))),
    ('G ( [ X z : Fox ] false -> true )',
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside an announcement", 1, 7, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside an announcement", 1, 7, ())),
    ('?0 z : Dog',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 1, ())),
    ('y : Cat & ! ( z : Warm | x : ?1 )',
     (ParseError, 'unexpected placeholder ?1', 1, 30, ('identifier',))),
    ('X ( x Fox x : Dog )',
     (ParseError, "unexpected identifier 'Fox'", 1, 7, (')',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected identifier 'Fox'", 1, 7, (')',))),
    ('G x U Cat',
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 5, ())),
    ('[ x : Warm ] D { i , j } ( y : Warm R | z : Warm )',
     (EpistemicScopeError, "temporal operator 'R' is not allowed inside the scope of D{...}", 1, 37, ())),
    ('G y : Dog & ( y -> Warm -> true )',
     'G y:Dog & (y -> Warm -> true)',
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     'G y:Dog & (y -> Warm -> true)'),
    ('X ! true ?0',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 10, ('end',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 10, ('end',))),
    ('G [ X z : Dog -> x : Dog ] K { j } { z : Warm',
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside an announcement", 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside an announcement", 1, 5, ())),
    ('?2 { j } y : Warm',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected '{' after the formula", 1, 4, ('end',))),
    ('X G K{i} ! z : Dog',
     'X G K{i} !z:Dog',
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     'X G K{i} !z:Dog'),
    ('( z : Cat | x : ?2 ) & ! z : Fox',
     (ParseError, 'unexpected placeholder ?2', 1, 17, ('identifier',))),
    ('x : Fox | ( z : ?0 Cat -> false )',
     (ParseError, 'unexpected placeholder ?0', 1, 17, ('identifier',))),
    ('?0 [',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 1, ())),
    ('G ( z : Warm -> D { j } ( y : Dog -> z : Cat ) ) ?1',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 50, ('end',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 50, ('end',))),
    ('x : Fox ?0 z : Warm \n & ( y : Cat -> true )',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 9, ('end',))),
    ('! z : ?2',
     (ParseError, 'unexpected placeholder ?2', 1, 7, ('identifier',))),
    ('( x : Warm -> z : Warm ) | D ?2 { i , j } y : : Warm',
     (ParseError, 'unexpected placeholder ?2', 1, 30, ('{',))),
    ('false & D { j ?1 D { i } y ( : Cat',
     (ParseError, 'unexpected placeholder ?1', 1, 15, ('}',))),
    ('X ! ( y : Cat & false ) & ( K { i } ! z : Dog W true',
     (ParseError, 'unexpected end of input', 1, 53, (')',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected end of input', 1, 53, (')',))),
    ('x : ?0 Cat | y : Fox',
     (ParseError, 'unexpected placeholder ?0', 1, 5, ('identifier',))),
    ('! K { i } [ x : Warm ] z : ?2 Cat',
     (ParseError, 'unexpected placeholder ?2', 1, 28, ('identifier',))),
    ('?1 & : Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected ':'", 1, 6, _PRIMARY)),
    ('( D { j } true U D ?0 j } ( K{i} : Cat | y : Warm ) )',
     (ParseError, 'unexpected placeholder ?0', 1, 20, ('{',)),
     (EpistemicScopeError, "temporal operator 'U' is not allowed inside a PAL formula", 1, 16, ()),
     (ParseError, 'unexpected placeholder ?0', 1, 20, ('{',))),
    ('K { j } F D { j } y : Fox',
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside the scope of K{j}", 1, 9, ())),
    ('true ?2',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 6, ('end',))),
    ('K { i } ( y ?0 : Cat -> x : Cat )',
     (ParseError, 'unexpected placeholder ?0', 1, 13, (')',))),
    ('[ F D { i , j } ( x : Fox false x : Cat ) ] ! x : Dog',
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside an announcement", 1, 3, ())),
    ('?1 z Fox',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected identifier 'z' after the formula", 1, 4, ('end',))),
    ('z ?2 : Dog & | true & x : Dog',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 3, ('end',))),
    ('[ [ y : Dog ] x : Warm ] ( y ?1 : Dog | y : Warm )',
     (ParseError, 'unexpected placeholder ?1', 1, 30, (')',))),
    ('z ?0 : Warm } z : Warm',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 3, ('end',))),
    ('?0 y : U Cat',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 1, ())),
    ('K { i } ( x : Fox & y : Fox | K { j } z : Warm ) ?2',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 50, ('end',))),
    ('( ?2 { j } ! x : Cat U y : Cat ) ,',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 3, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 3, ()),
     (ParseError, "unexpected '{'", 1, 6, (')',))),
    ('G ( z : Cat | K { j } x : Cat U X ( x : Cat | K { i } true )',
     (ParseError, 'unexpected end of input', 1, 61, (')',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected end of input', 1, 61, (')',))),
    ('y : Cat & ?0 y : Fox',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 11, ()),
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 11, ()),
     (ParseError, 'placeholder indices start at 1', 1, 11, ())),
    ('! y : Dog ?1 \n z : Fox',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 11, ('end',))),
    ('! X',
     (ParseError, 'unexpected end of input', 1, 4, _PRIMARY),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 3, ()),
     (ParseError, 'unexpected end of input', 1, 4, _PRIMARY)),
    ('?0 D { i , j } z : Warm',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 1, ())),
    ('[ ?0 x : Dog',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 3, ()),
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 3, ()),
     (ParseError, 'placeholder indices start at 1', 1, 3, ())),
    ('X z : Warm U y : Warm )',
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 12, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 12, ())),
    ('! ?1 z : Warm -> z : Dog | z : Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 3, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 3, ()),
     (ParseError, "unexpected identifier 'z' after the formula", 1, 6, ('end',))),
    ('( y : Cat W x \n : Warm ) | W z : Cat',
     (ParseError, "binary temporal operator 'W' must appear inside parentheses: (f W g)", 2, 13, ()),
     (EpistemicScopeError, "temporal operator 'W' is not allowed inside a PAL formula", 1, 11, ()),
     (ParseError, "binary temporal operator 'W' must appear inside parentheses: (f W g)", 2, 13, ())),
    ('z ?1 Warm',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 3, ('end',))),
    ('z : Cat ?1',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 9, ('end',))),
    ('! ?2 x:Cat : Cat & x : Fox )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 3, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 3, ()),
     (ParseError, "unexpected identifier 'x' after the formula", 1, 6, ('end',))),
    ('( K { j } x : Cat W y : Dog',
     (ParseError, 'unexpected end of input', 1, 28, (')',)),
     (EpistemicScopeError, "temporal operator 'W' is not allowed inside a PAL formula", 1, 19, ()),
     (ParseError, 'unexpected end of input', 1, 28, (')',))),
    ('G ! ( x : Dog & x : ?1 )',
     (ParseError, 'unexpected placeholder ?1', 1, 21, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1', 1, 21, ('identifier',))),
    ('X ( U y : Cat -> K { { i } x : Cat ) & D { i , j } true )',
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 5, ())),
    ('X G U z : Fox',
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 5, ())),
    ('F ( z : Warm -> y : Fox ) | z : Warm U z : Warm )',
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 38, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "binary temporal operator 'U' must appear inside parentheses: (f U g)", 1, 38, ())),
    ('z ?0 : Fox -> x :',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 3, ('end',))),
    ('D { j } y ?1 Dog',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 11, ('end',))),
    ('( ! ( y : Cat | K { j } x : Dog ) R ! ! y : Warm',
     (ParseError, 'unexpected end of input', 1, 49, (')',)),
     (EpistemicScopeError, "temporal operator 'R' is not allowed inside a PAL formula", 1, 35, ()),
     (ParseError, 'unexpected end of input', 1, 49, (')',))),
    ('G ( K { i } y : Dog -> z : Cat & x : Dog ) ?2',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 44, ('end',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 44, ('end',))),
    ('x ?0 : Fox',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 3, ('end',))),
    ('?1 : Cat',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected ':' after the formula", 1, 4, ('end',))),
    ('X ! ( D { i , j } W x : Dog -> y : )',
     (ParseError, "binary temporal operator 'W' must appear inside parentheses: (f W g)", 1, 19, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "binary temporal operator 'W' must appear inside parentheses: (f W g)", 1, 19, ())),
    ('K { j } z : Fox -> y ?0 : Fox | y : Fox',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 22, ('end',))),
    ('y : Fox ?0',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 9, ('end',))),
    ('G ?2 : Warm',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 3, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected ':' after the formula", 1, 6, ('end',))),
    ('[ ?1 true ] z : \n Cat | z : Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 3, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 3, ()),
     (ParseError, "unexpected 'true'", 1, 6, (']',))),
    ('x ?2 Dog',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 3, ('end',))),
    ('?1 z : Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected identifier 'z' after the formula", 1, 4, ('end',))),
    ('?1 x \n Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected identifier 'x' after the formula", 1, 4, ('end',))),
    ('?1 : Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected ':' after the formula", 1, 4, ('end',))),
    ('( D { i } y : Dog | y : Cat W K { j } ?2 : Cat )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 39, ()),
     (EpistemicScopeError, "temporal operator 'W' is not allowed inside a PAL formula", 1, 29, ()),
     (ParseError, "unexpected ':'", 1, 42, (')',))),
    ('K { i } K { i } x : Dog ?1 K { j } x : Cat',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 25, ('end',))),
    ('F ( y : Warm & false -> y : Dog & x : ?1 Cat )',
     (ParseError, 'unexpected placeholder ?1', 1, 39, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1', 1, 39, ('identifier',))),
    ('F ( ! x : Warm ?2 x : Warm )',
     (ParseError, 'unexpected placeholder ?2', 1, 16, (')',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2', 1, 16, (')',))),
    ('[ y : Warm ] y : Warm -> D { i , j } y ?1 Cat',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 40, ('end',))),
    ('F x ?1 W Dog',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 5, ('end',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 5, ('end',))),
    ('?1 ( y : Warm -> z : Warm & y : Fox ) & ! K i } z : Dog',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected '(' after the formula", 1, 4, ('end',))),
    ('X G [ [ x : Dog ] z : Dog ?0 ] D { i , j } z : Fox',
     (ParseError, 'unexpected placeholder ?0', 1, 27, (']',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?0', 1, 27, (']',))),
    ('?1 K { } z : Dog',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected 'K' after the formula", 1, 4, ('end',))),
    ('F ( ?1 : Dog | z : Dog | D { j } y : Cat )',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected ':'", 1, 8, (')',))),
    ('G ( D { i } x : Fox -> [ y : Cat ] ?1 : Cat )',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 36, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected ':'", 1, 39, (')',))),
    ('y : Fox & ?1 ?0 : Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 11, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 11, ()),
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 14, ('end',))),
    ('?2 Warm | z : Fox',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected identifier 'Warm' after the formula", 1, 4, ('end',))),
    ('F ?0 y : Cat & x : Fox ] y : Cat | y : Fox )',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 3, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 3, ())),
    ('X ( D { i , j } x : Fox & [ ?1 D { i } x : Fox ] z : Cat )',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 29, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected 'D'", 1, 32, (']',))),
    ('?1 ] : Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected ']' after the formula", 1, 4, ('end',))),
    ('?2 x : ,',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected identifier 'x' after the formula", 1, 4, ('end',))),
    ('G X F [ z : Warm -> x : Cat ] D { j } z : ?0',
     (ParseError, 'unexpected placeholder ?0', 1, 43, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?0', 1, 43, ('identifier',))),
    ('G ( K { i } [ z : Dog ] z : Warm R z : Dog ) ?2',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 46, ('end',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 46, ('end',))),
    ('z ?2 : Warm |',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 3, ('end',))),
    ('F ?0 R z : Warm',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 3, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 3, ())),
    ('z : Cat & ?2 z : Fox',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 11, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 11, ()),
     (ParseError, "unexpected identifier 'z' after the formula", 1, 14, ('end',))),
    ('x ?2 : Fox',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 3, ('end',))),
    ('?1 : Warm & true',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected ':' after the formula", 1, 4, ('end',))),
    ('F [ ?2 x Fox -> z : Cat ] x : Warm',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected identifier 'x'", 1, 8, (']',))),
    ('x : Fox | ?2 x : Fox -> x : Warm )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 11, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 11, ()),
     (ParseError, "unexpected identifier 'x' after the formula", 1, 14, ('end',))),
    ('G K { i } ! y ?0 : Fox ,',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 15, ('end',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 15, ('end',))),
    ('F F ?0 y : Fox W ! ( y : Cat | | false ) )',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 5, ())),
    ('?1',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     '?1'),
    ('G ( F ?0 ! ( z : Warm | x : Warm ) | x : Dog )',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 7, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'placeholder indices start at 1', 1, 7, ())),
    ('F ( y : Warm | x : Dog ?0 )',
     (ParseError, 'unexpected placeholder ?0', 1, 24, (')',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?0', 1, 24, (')',))),
    ('[ x : Warm | ?1 z : Warm ] z : Cat',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 14, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 14, ()),
     (ParseError, "unexpected identifier 'z'", 1, 17, (']',))),
    ('! X D { i , j } K { j ?0 z Fox',
     (ParseError, 'unexpected placeholder ?0', 1, 23, ('}',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 3, ()),
     (ParseError, 'unexpected placeholder ?0', 1, 23, ('}',))),
    ('K { j } y : Dog | G ( false -> z : Dog ) | [ z : Fox ] ?0 )',
     (ParseError, 'placeholder ?0 is only allowed in templates', 1, 56, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 19, ()),
     (ParseError, 'placeholder indices start at 1', 1, 56, ())),
    ('G [ D { i , ?1 j } x : Dog ] ( true & z : Dog )',
     (ParseError, 'unexpected placeholder ?1', 1, 13, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1', 1, 13, ('identifier',))),
    ('X y : Cat | y : Warm & z ?2 : Warm )',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 26, ('end',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 26, ('end',))),
    ('( D { j } ! x : Cat W K { j } [ ?2 : Dog y : Dog )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 33, ()),
     (EpistemicScopeError, "temporal operator 'W' is not allowed inside a PAL formula", 1, 21, ()),
     (ParseError, "unexpected ':'", 1, 36, (']',))),
    ('G D { i , ?0 ( y : Cat -> x : Dog )',
     (ParseError, 'unexpected placeholder ?0', 1, 11, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?0', 1, 11, ('identifier',))),
    ('X [ D { ?0 , j } z : Fox ] K { j } z : Cat',
     (ParseError, 'unexpected placeholder ?0', 1, 9, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?0', 1, 9, ('identifier',))),
    ('( x : Fox R y : Fox ) ?1',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 23, ('end',)),
     (EpistemicScopeError, "temporal operator 'R' is not allowed inside a PAL formula", 1, 11, ()),
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 23, ('end',))),
    ('( z : Dog U y ?0 : Cat )',
     (ParseError, 'unexpected placeholder ?0', 1, 15, (')',)),
     (EpistemicScopeError, "temporal operator 'U' is not allowed inside a PAL formula", 1, 11, ()),
     (ParseError, 'unexpected placeholder ?0', 1, 15, (')',))),
    ('F ! K { i } [ y : Dog ?2 y : Warm',
     (ParseError, 'unexpected placeholder ?2', 1, 23, (']',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2', 1, 23, (']',))),
    ('F ( ! x : Dog & ! true | ( ?2 : Fox | z : Dog ) ) true',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 28, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected ':'", 1, 31, (')',))),
    ('F z ?2 Warm',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 5, ('end',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 5, ('end',))),
    ('G x ?1 : |',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 5, ('end',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 5, ('end',))),
    ('?1 y : Dog false',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, "unexpected identifier 'y' after the formula", 1, 4, ('end',))),
    ('X ( ( y : Warm | z : Cat & z ?1 Fox )',
     (ParseError, 'unexpected placeholder ?1', 1, 30, (')',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1', 1, 30, (')',))),
    ('D { i } ?1 y : Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 9, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 9, ()),
     (ParseError, "unexpected identifier 'y' after the formula", 1, 12, ('end',))),
    ('G [ ! x : Cat ] ! y ?2 : Dog',
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 21, ('end',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2 after the formula', 1, 21, ('end',))),
    ('F ( y : Warm | z : Fox W D { i } z : Cat ) ?1',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 44, ('end',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 44, ('end',))),
    ('?2',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'template of arity 2: missing ?1', None, None, ())),
    ('X ( x : Cat | z : Fox | D { i } ?2 x : Fox )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 33, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected identifier 'x'", 1, 36, (')',))),
    ('( x : Cat R true & ?2 ) ! y : Cat )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 20, ()),
     (EpistemicScopeError, "temporal operator 'R' is not allowed inside a PAL formula", 1, 11, ()),
     (ParseError, "unexpected '!' after the formula", 1, 25, ('end',))),
    ('X x ?1 : W',
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 5, ('end',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1 after the formula', 1, 5, ('end',))),
    ('F ?1 K Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 3, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected 'K' after the formula", 1, 6, ('end',))),
    ('F [ K { j } z : Fox ?2 ( y : Fox | z : Fox )',
     (ParseError, 'unexpected placeholder ?2', 1, 21, (']',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2', 1, 21, (']',))),
    ('X ( ?2 z : Cat R D { j } y : Cat )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected identifier 'z'", 1, 8, (')',))),
    ('X [ y : Dog -> x : Cat ] x : Warm ?0',
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 35, ('end',)),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?0 after the formula', 1, 35, ('end',))),
    ('?2',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 1, ()),
     (ParseError, 'template of arity 2: missing ?1', None, None, ())),
    ('F K { i } ?1 : Cat',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 11, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected ':' after the formula", 1, 14, ('end',))),
    ('( F K { i } z : Fox W F ?2 : Fox )',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 25, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 3, ()),
     (ParseError, "unexpected ':'", 1, 28, (')',))),
    ('F F X ?1 D { i , j } [ z : ] y : Warm',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 7, ()),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected 'D' after the formula", 1, 10, ('end',))),
    ('G ( ?1 D { i } z : Warm & [ z : Fox ] : z : Fox )',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 5, ()),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected 'D'", 1, 8, (')',))),
    ('F ( [ z : Dog ?2 ] x : Dog | [ x:Cat : Dog ] z : Dog )',
     (ParseError, 'unexpected placeholder ?2', 1, 15, (']',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?2', 1, 15, (']',))),
    ('( z : Warm R ! z : ?1 Dog & D { i } z : Cat )',
     (ParseError, 'unexpected placeholder ?1', 1, 20, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'R' is not allowed inside a PAL formula", 1, 12, ()),
     (ParseError, 'unexpected placeholder ?1', 1, 20, ('identifier',))),
    ('G F ( K { ?1 i } y : Fox | ( x Cat -> z : Fox ) )',
     (ParseError, 'unexpected placeholder ?1', 1, 11, ('identifier',)),
     (EpistemicScopeError, "temporal operator 'G' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, 'unexpected placeholder ?1', 1, 11, ('identifier',))),
    ('( x : Fox U K ?1 i } [ z : Warm ] x : Dog )',
     (ParseError, 'unexpected placeholder ?1', 1, 15, ('{',)),
     (EpistemicScopeError, "temporal operator 'U' is not allowed inside a PAL formula", 1, 11, ()),
     (ParseError, 'unexpected placeholder ?1', 1, 15, ('{',))),
    ('X K { i } ( y : Dog & true ) | X ?2 K { i } z : Cat',
     (ParseError, 'placeholder ?2 is only allowed in templates', 1, 34, ()),
     (EpistemicScopeError, "temporal operator 'X' is not allowed inside a PAL formula", 1, 1, ()),
     (ParseError, "unexpected 'K' after the formula", 1, 37, ('end',))),
    ('( F ( x : Warm ?2 K { i } y : Cat ) U ! y : Fox )',
     (ParseError, 'unexpected placeholder ?2', 1, 16, (')',)),
     (EpistemicScopeError, "temporal operator 'F' is not allowed inside a PAL formula", 1, 3, ()),
     (ParseError, 'unexpected placeholder ?2', 1, 16, (')',))),
    ('?1',
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     (ParseError, 'placeholder ?1 is only allowed in templates', 1, 1, ()),
     '?1'),
]

_PRETTY_PINNED = [
    '!(G b & !true | G (b -> b))',
    '?1',
    'D{i,j} !K{i} K{i} ?1',
    'x:Cat',
    'a',
    'false',
    'X ?2',
    'true',
    'K{i} (a & true) -> !true | true',
    'D{i,j} (K{i} K{i} b | [a] true)',
    '(a -> ((a W ?1) W (b U false)) R (G (false U false) U !(x:Cat R true)))',
    'G ?2',
    '(?2 R !X (?1 -> false))',
    '(?2 & false & !a | (X x:Cat -> true | ?2)) & !b',
    'K{i} ?2',
    '?1',
    'G b',
    '(?2 U ?1 | (x:Cat U b) & (false & ?1))',
    'K{i} ?1',
    'false',
    '?2',
    'X (G (?2 & b | false) W X X a)',
    'K{i} D{i,j} (!x:Cat & !?1 | ?1 & true)',
    '!b',
    '(?2 U false)',
    '?2',
    '(!(b -> false) & !X true | !x:Cat W X (F !true | X true))',
    '?1',
    '[true & D{i,j} b] D{i,j} false & K{i} D{i,j} x:Cat',
    '[?2] (x:Cat -> true) | K{i} !D{i,j} a',
    '((G ?2 W X true) R (X false -> (a U a) U false | !true))',
    '?2',
    'G X a',
    '!(!a & [false] ?1) & !D{i,j} ?1 | (x:Cat -> !a & true)',
    'a',
    'a',
    '!!(G b R false -> ?2)',
    'K{i} true',
    'b',
    '((false | x:Cat) & false & ((?2 U ?2) -> F false) R X G ?2 | !G false)',
    'K{i} x:Cat',
    '?1',
    '(F !?2 | ?2 R G a)',
    '!!!?2 | [D{i,j} (a & false)] (D{i,j} ?2 & (false | x:Cat))',
    '(!(G a | true) W G F (x:Cat U ?2))',
    'G X G ?1',
    '(a W F x:Cat)',
    'K{i} false',
    '[?1] [K{i} ?1] b',
    '?1',
    'false',
    '?1',
    'G (b R x:Cat) | ((G (true | false) R !?1) | G ((?1 W b) | false))',
    '(F ?2 R x:Cat)',
    '(F G G (true | false) R ?1)',
    'D{i,j} !x:Cat',
    '((false U b) R G (b & x:Cat))',
    '(!((a R true) | X x:Cat) U !(?1 U ?2)) | true',
    '!X (?2 | (?2 U b))',
    'true',
    'K{i} K{i} K{i} (?2 -> x:Cat)',
    '?1',
    '(F (a | true) & (?2 & G true) U ?1 | ?1 | a)',
    'X F b',
    'a',
    'b',
    'G x:Cat',
    'F G ((?2 W b) R (b R ?1))',
    '!K{i} [b] ?2 & (false & D{i,j} b -> b)',
    '?1',
    '!!?2',
    'true',
    'D{i,j} false & a',
    '!a',
    'K{i} (![?2] true & !!?2 | K{i} !a)',
    '!!x:Cat & !(false | ?1) | ([b] false -> ?2)',
    '!((false U G a) R (true | ?2 R x:Cat | ?2))',
    'x:Cat',
    'K{i} ?1 | ([b] b | K{i} a | ?2)',
    'X (true & x:Cat | b) | a',
    'a',
    'F ?2',
    'false',
    '(X (x:Cat U F b) R b)',
    'K{i} (!K{i} b & D{i,j} [false] true)',
    'F b',
    '!(D{i,j} a -> K{i} ?1)',
    'false | ![?1 | a] (false & false)',
    '!(x:Cat & false & X b R x:Cat)',
    '(a -> (x:Cat W a -> false) U x:Cat)',
    '(((?1 U a) W !?2) U !(b -> x:Cat)) | ?2',
    '(x:Cat U F ?1) & ((b R !true) & false)',
    'K{i} K{i} !K{i} false',
    'K{i} ([b -> false] b -> [false] K{i} true)',
    '(K{i} ?2 -> true U F G (?2 | ?1))',
    '!(D{i,j} true R x:Cat | (b -> false))',
    '!false',
    '[K{i} false | (false | ?2)] !(false & false) & (false | a)',
    '?2',
    'K{i} K{i} true',
    'G G (!a | !b)',
    'a',
    'X (F F false R F (?1 -> ?2))',
    '!F a & G ?2',
    'K{i} K{i} D{i,j} [?2] b',
    '(a W (((b U a) R false) R (a W (true W ?1))))',
    '(?2 W ((true R true) & (a -> ?1) R F X false))',
    '(x:Cat -> ?1 W G a) | (a | x:Cat) & (?2 -> false)',
    '!(K{i} ?2 & K{i} a) & !K{i} (b & b) | [D{i,j} (x:Cat | x:Cat)] K{i} (x:Cat -> ?1)',
    '(x:Cat R ?2 | ?1 | [false] ?2)',
    '!D{i,j} [true] ?2',
    '(G (a & (?1 U b)) R D{i,j} a & b)',
    'x:Cat',
    'b & ?2',
    'D{i,j} D{i,j} D{i,j} [x:Cat] true',
    'a | (D{i,j} (true & true) -> K{i} a | D{i,j} a)',
    'true',
    'G G ((x:Cat U x:Cat) | false)',
    '!?2',
    '[D{i,j} D{i,j} [x:Cat] false] (b & (!a | (false -> false)))',
    'a',
    'false',
    '?2',
    '!(!?1 & !!?1 | [false & b] !a)',
    '?2',
    '(x:Cat | x:Cat) & K{i} false & (x:Cat | a R ((?1 W true) U false & ?2))',
    'X (G !?1 R (F ?1 R ?2 | b))',
    'b',
    'false',
    'false',
    '(X true U !x:Cat) & false',
    'K{i} D{i,j} (false | (a | ?2))',
    '(a R (b | ?1 | (x:Cat R true)) & F !x:Cat)',
    'a & !K{i} !x:Cat | K{i} [K{i} x:Cat] (b -> ?1)',
    '?2',
    '[K{i} (?1 & ?2 | (false | b))] [?1] !true',
    'F ![a] a | F ?1',
    '[false] (false | a | D{i,j} x:Cat)',
    'G (X G ?2 W !!x:Cat)',
    '(?2 | (b | ?1) & F ?1) & ?2',
    '[!(b -> true) | ![false] ?2] D{i,j} (a -> true & a)',
    'K{i} (D{i,j} (x:Cat -> ?2) | !(false & a))',
    'K{i} (false | true & (false | ?2))',
    'K{i} (K{i} true & K{i} false)',
    '!!?1 & !?2 | (false | ?2 R (x:Cat W ?1)) | b & false',
    'G (false -> (?1 U ?1)) & ?2',
    'false',
    '!K{i} (b & !?2 | !?2)',
    'x:Cat & G x:Cat',
    'true',
    'K{i} D{i,j} [?2 -> b] (b & ?2)',
    'true',
    '[!b & !(true | ?1) | x:Cat & true] [b] !K{i} false',
    '?1',
    'X x:Cat & (!false & (?1 R false) & G true)',
    '(true W ((?2 W G b) U G (?2 & ?1)))',
    'b',
    '(F !b W !(F !a | ?2))',
    'a',
    '!(?2 | D{i,j} false)',
    'D{i,j} K{i} D{i,j} D{i,j} b',
    'D{i,j} K{i} [b | a] K{i} a',
    'x:Cat',
    'K{i} (x:Cat & (?2 | [x:Cat] false))',
    'a',
    '(true R (b U x:Cat)) | ((a U a) -> !b) | G !(?2 -> a)',
    'X !(true W !?1)',
    'X (a & a) | F (false & ?2) | !true & [?2] false',
    'a',
    '(?1 | !(b W ?2) U (G ?1 R ?2 -> false) & (true | X true))',
    'x:Cat -> ?1 -> F !(a | false)',
    'b | a & a | K{i} D{i,j} ?2',
    '!(F (true | true) U true)',
    '?2',
    'G b',
    'D{i,j} !(!a & D{i,j} ?1)',
    'b',
    '!D{i,j} x:Cat',
    'b',
    'X ?1',
    'F (a | (?1 | ?1)) | !?2',
    'F X F (?1 | x:Cat)',
    '?1',
    '(!(!?2 | G true) U !(X a | true | (!?2 | G true))) | X !x:Cat',
    '((G X ?1 R (G ?1 W !b)) R ?2)',
    '?1',
    'b',
    'K{i} b',
    '(![x:Cat] b U G X b)',
    '(!D{i,j} x:Cat & !D{i,j} a | x:Cat) & ((b -> D{i,j} false) & b)',
    'F ?1',
    '(((b U a) -> (?2 R true) R true) W G ?2 & !(x:Cat W b))',
    '!!(!true R b & false)',
    '(F !a R (?2 -> ?2) & true)',
    'F G (?1 & !b)',
    'G ?2',
    'F true -> (true W true)',
    'false | (false | ?1) | D{i,j} D{i,j} ?2',
    'a',
    'false',
    '?1',
    'X a',
    'F (b R a) -> ?1',
    'b & (![?2] b | false)',
    'b',
    '([[true] ?2] (a & b) W (D{i,j} ?2 R true))',
    '!K{i} K{i} (x:Cat | b)',
    '((?1 U F true) W !(a -> ?1)) & F F (?2 & x:Cat)',
    '?2',
    'x:Cat',
    'G (b | a U ?1)',
    'X (a W G (?1 R ?1))',
    'false',
    '[[a] (false | b & false)] [[false] true | x:Cat] !(?2 -> ?1)',
    '?2',
    '(b & false -> ((a R x:Cat) R b -> ?2)) & ((?1 U true) -> false | x:Cat U ?2)',
    'x:Cat',
    'x:Cat',
    'K{i} false | [b] x:Cat & (false & ?2) | x:Cat',
    'false',
    'G (b R false)',
    '?1',
    '(!(F x:Cat -> X ?2) U true & ?2 -> ?2) | (a U F ?1)',
    '[!D{i,j} true] K{i} (?2 & ?1) & (true & b & (false | a) | (D{i,j} false -> x:Cat))',
    'X ((a U b) U b) -> G (a W (?2 U a))',
    '(F ((x:Cat U false) | (a | ?1)) U x:Cat)',
    'D{i,j} (D{i,j} K{i} ?1 | K{i} K{i} true)',
    '!b | (K{i} a -> K{i} ?2 | D{i,j} true)',
    '((true | true R (?1 R true)) U F false | (?1 -> a)) & !(?1 & !b | ?2 & true)',
    '!K{i} [D{i,j} ?2] [true] ?2',
    '?1 -> F X G ?2',
    'G ((!(?2 R ?2) U !(false | false | (?2 R ?2))) | (a R x:Cat) & (?1 R false))',
    '!D{i,j} ([true] x:Cat & (true | b))',
    '((X true -> X ?1 R (!b R ?2 | x:Cat)) R G ((!a U !(?2 | a)) | (x:Cat U b)))',
    '!K{i} ?1',
    'F b',
    'a & true & ((?1 | a) & K{i} a) -> true & ([true] b -> true & x:Cat)',
    'G false',
    '(?2 | F (b U b) U ?2)',
    'F b',
    'K{i} [[[?2] true] [true] true] D{i,j} ?1',
    'F !((?2 -> true) | b) | X !X x:Cat',
    '(!!F false W true)',
    '[!!(false -> ?1)] !(false | ?2 & b)',
    'false & G X X a',
    'D{i,j} D{i,j} !(b & ?2)',
    'b -> ?1 -> K{i} true',
    'G !(?2 & true | ?1)',
    '(!(true & false) U !F ?2) | X true',
    '!(!!false W F a & G x:Cat)',
    'x:Cat',
    '[K{i} K{i} ?1] !(?2 -> a)',
    'X D{i,j} [x:Cat] ?1',
    'x:Cat -> a',
    '(?2 -> K{i} b | true & x:Cat) & (a & ?1 & (K{i} true -> D{i,j} true))',
    '!?2 & !x:Cat | D{i,j} ?2 & (x:Cat & b)',
    'F (X true R x:Cat) & ((!G ?2 U !(X a | G ?2)) | true)',
    'G (!(a -> true) U !!b)',
    'false',
    'a',
    'D{i,j} K{i} K{i} [?2] true',
    '(x:Cat & !x:Cat -> K{i} [?1] ?2) & [K{i} (b & b)] ?2',
    '!(D{i,j} (false | b) & K{i} D{i,j} a)',
    '[D{i,j} (?2 | x:Cat) -> [D{i,j} x:Cat] D{i,j} ?2] (b & true | (?1 | ?1) | (b | a) & D{i,j} b)',
    'b',
    '![[false] a & (b & a)] D{i,j} (x:Cat -> ?2)',
    '?2',
    'K{i} (!(true | true) & D{i,j} [x:Cat] ?1)',
    'X b',
    'F false',
    '!(!(x:Cat & ?1) | [K{i} b] D{i,j} true)',
    '!G true',
    '!((x:Cat R false) | F x:Cat) | ((a | ?2) & !F false | F (b R ?1))',
    'D{i,j} ((b & false | K{i} ?1) & D{i,j} (x:Cat -> true))',
    'G (true | false)',
    'G (b & (F ?2 W G false))',
    'X (?2 U (?1 R !false))',
    '(X false -> !F b W false & x:Cat & G ?2)',
    '(G b R b)',
    'G true',
    '(!(true & !?2 | true) W F (!?1 & (b U x:Cat)))',
    '(G G X a U !(!true | ?2))',
    '?2',
    'G F ((?1 U ?1) & ?2)',
    'D{i,j} D{i,j} (x:Cat -> false)',
    'F !(b & !a | (b R true))',
    'F ((?1 -> b) & (?1 W ?2) R (G (?2 | false) U (?2 R a)))',
    '![true] b | (D{i,j} true | a)',
    '!((false -> x:Cat) & D{i,j} true) & !(x:Cat & false) | K{i} !a & !x:Cat',
    '?1 & ?1',
    'X D{i,j} (false & ?1)',
    'x:Cat',
    '(X true -> b) & ((true W true) W x:Cat) | (?2 -> (?1 | a W G (x:Cat | false)))',
    'b',
    '(G (b -> true) W b)',
    '[D{i,j} !?2 | [b] ?1 & (?2 -> true)] !!true',
    'true',
    'false | (!(b -> false) W K{i} a)',
    '(b -> b & ?2 W (G (x:Cat & ?1) R ?2 & X a))',
    '((false | b W X ?1) U a -> ?1 -> a) -> G (F true | false)',
]


def test_expand_names_replaces_groups_by_their_members_once_each_in_order():
    groups = {"g": ("a", "b"), "h": ("c", "a")}
    assert expand_names(["g", "c", "h"], groups) == ("a", "b", "c")
    assert expand_names(["c", "g"], groups) == ("c", "a", "b")
    assert expand_names(["zz", "a"], groups) == ("zz", "a")
    assert expand_names([], groups) == ()
    assert expand_groups(parse_formula("D{h,b} p"), groups) is parse_formula("D{a,b,c} p")
