"""Tests for finite-trace temporal evaluation over execution paths."""

import random

import pytest

from ltpal.errors import EvaluationError
from ltpal.formulas import (
    Next,
    Pal,
    PNot,
    Prop,
    TAnd,
    TemporalFormula,
    TNot,
    Until,
    future,
    globally,
    release,
    t_and,
    t_not,
    t_or,
    top,
    weak_until,
)
from ltpal.model import Atom, PALModel, World
from ltpal.temporal import tems
from ltpal.transition import build_ts, enumerate_total_paths

from generators import random_temporal_formula, random_ts
from oracles import oracle_path_check, oracle_tems, oracle_weak_until, ts_sat_at

P = Pal(Prop(Atom("x", "Cat")))
Q = Pal(Prop(Atom("x", "Dog")))


def _chain_ts(*atom_lists):
    """One world per frame, labeled as given; a single total path."""
    frames = [
        PALModel([World(f"c{i}", atoms)], ["a"])
        for i, atoms in enumerate(atom_lists)
    ]
    return build_ts(frames)


def _only_path(ts):
    return next(enumerate_total_paths(ts))


def _trace(*atom_lists):
    """The single total path of a chain system, dummies trimmed."""
    ts = _chain_ts(*atom_lists)
    return ts, ts.path(_only_path(ts).worlds[1:])


CAT = [Atom("x", "Cat")]
DOG = [Atom("x", "Dog")]
BOTH = [Atom("x", "Cat"), Atom("x", "Dog")]


def test_pal_leaf_reads_current_position():
    ts, path = _trace(CAT, DOG)
    assert tems(ts, path, P)
    assert not tems(ts, path, Q)


def test_empty_path_falsifies_everything():
    ts, path = _trace(CAT)
    empty = ts.path(path.worlds[len(path):])
    for formula in (P, t_not(P), TNot(Next(P)), t_and(P, P), Next(P),
                    Until(P, Q), future(P), globally(P), Pal(top())):
        assert not tems(ts, empty, formula)


def test_negation_on_nonempty_paths():
    ts, path = _trace(DOG)
    assert tems(ts, path, t_not(P))
    assert not tems(ts, path, t_not(Q))


def test_next_shifts_and_dies_at_the_end():
    ts, path = _trace(CAT, DOG)
    assert tems(ts, path, Next(Q))
    assert not tems(ts, path, Next(P))
    assert not tems(ts, path, Next(Next(Next(P))))  # past the last dummy


def test_until_hand_cases():
    ts, path = _trace(CAT, CAT, DOG)
    assert tems(ts, path, Until(P, Q))
    # Right side already true now.
    assert tems(ts, path, Until(Q, P))
    # Left side breaks before the right side arrives.
    ts2, path2 = _trace(CAT, DOG, BOTH)
    assert not tems(ts2, path2, Until(P, t_and(P, Q)))
    # Right side never arrives.
    ts3, path3 = _trace(CAT, CAT)
    assert not tems(ts3, path3, Until(P, Q))


def test_until_needs_the_witness_strictly_before_failure():
    """U demands the right side at some m with the left at every k < m."""
    ts, path = _trace(DOG, CAT)
    # At position 0 the left side P fails, but the right side Q holds at 0.
    assert tems(ts, path, Until(P, Q))


def test_future_and_globally():
    ts, path = _trace(CAT, DOG)
    assert tems(ts, path, future(Q))
    assert not tems(ts, path, globally(P))
    ts2, path2 = _trace(CAT, BOTH)
    assert tems(ts2, path2, future(P))
    # G over the trimmed path still sees the final dummy layer.
    ts3 = _chain_ts(CAT, CAT)
    full = _only_path(ts3)
    trimmed = ts3.path(full.worlds[1:])
    assert not tems(ts3, trimmed, globally(P))  # fails at the end dummy
    assert tems(ts3, trimmed, globally(t_or(P, Pal(PNot(Prop(Atom("x", "Cat")))))))


def test_release_and_weak_until_hand_cases():
    ts, path = _trace(CAT, BOTH, DOG)
    # P holds until Q arrives at the second position.
    assert tems(ts, path, weak_until(P, Q))
    assert tems(ts, path, release(Q, t_or(P, Q)))
    # W with no witness holds only if the left side holds forever.
    ts2, path2 = _trace(CAT, CAT)
    assert not tems(ts2, path2, weak_until(P, Q))  # final dummy breaks P
    ts3, path3 = _trace(CAT, CAT)
    always = t_or(P, t_not(P))
    assert tems(ts3, path3, weak_until(always, Q))


def test_suffix_evaluation_shifts_positions():
    ts = _chain_ts(CAT, DOG, CAT)
    full = _only_path(ts)
    for k in range(len(full) + 1):
        assert tems(ts, ts.path(full.worlds[k:]), P) == (
            k < len(full) and Atom("x", "Cat") in ts.label(full.worlds[k])
        )


def test_a_temporal_node_over_an_operand_that_is_not_temporal_is_refused():
    """The error names the operand; a bare `TemporalFormula()` root is
    refused too.  The parser never builds such trees."""
    ts, path = _trace(CAT, DOG)
    cat, dog = P.formula, Q.formula
    for formula, operand in [
        (TAnd(cat, Q), cat),
        (TAnd(Q, cat), cat),
        (Next(TNot(dog)), dog),
        (Until(P, "junk"), "junk"),
        (Next(TemporalFormula()), TemporalFormula()),
        (TemporalFormula(), TemporalFormula()),
    ]:
        with pytest.raises(EvaluationError) as info:
            tems(ts, path, formula)
        assert str(info.value) == f"not a temporal formula: {operand!r}"


def test_shared_subformula_objects_memoise_safely():
    shared = Until(P, Q)
    formula = t_and(Next(shared), t_or(shared, Q))
    ts = _chain_ts(CAT, CAT, DOG)
    path = _only_path(ts)
    assert tems(ts, path, formula) == oracle_path_check(ts, path.worlds, formula)


def test_globally_is_not_future_not():
    rng = random.Random(31)
    for _ in range(50):
        ts = random_ts(rng)
        f = random_temporal_formula(rng, list(ts.agents), depth=2)
        assert globally(f) == t_not(future(t_not(f)))
        for path in enumerate_total_paths(ts):
            assert tems(ts, path, globally(f)) == (not tems(ts, path, future(t_not(f))))


def test_weak_until_matches_direct_reading():
    rng = random.Random(32)
    for _ in range(60):
        ts = random_ts(rng)
        a = random_temporal_formula(rng, list(ts.agents), depth=2)
        b = random_temporal_formula(rng, list(ts.agents), depth=2)
        w = weak_until(a, b)
        for path in enumerate_total_paths(ts):
            ids = path.worlds
            sat = ts_sat_at(ts, ids)
            holds_a = [oracle_tems(sat, len(ids), k, a) for k in range(len(ids))]
            holds_b = [oracle_tems(sat, len(ids), k, b) for k in range(len(ids))]
            assert tems(ts, path, w) == oracle_weak_until(holds_a, holds_b)


def test_random_formulas_match_declarative_oracle():
    rng = random.Random(33)
    for _ in range(500):
        ts = random_ts(rng)
        formula = random_temporal_formula(rng, list(ts.agents))
        paths = list(enumerate_total_paths(ts))
        path = rng.choice(paths)
        start = rng.randrange(0, len(path.worlds) + 1)
        suffix = ts.path(path.worlds[start:])
        expected = oracle_tems(
            ts_sat_at(ts, suffix.worlds), len(suffix.worlds), 0, formula
        )
        assert tems(ts, suffix, formula) == expected
