"""Path quantification by the layered engine, checked against brute force.

The brute-force side enumerates every total path with `enumerate_id_paths`
and evaluates each one with the declarative oracle, stopping at the first
deciding path or at the cap, which is the definition the engine's report
(result, witness, paths_checked, capped) must reproduce.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltpal.classify import quantify_paths
from ltpal.formulas import Next, Pal, PNot, Prop, TNot, future
from ltpal.model import Atom, PALModel, World
from ltpal.pal import pal_sat
from ltpal.temporal import decide, tems
from ltpal.transition import build_ts, enumerate_total_paths, path_at, path_rank, total_path_count

from generators import random_temporal_formula, random_ts
from oracles import enumerate_id_paths, oracle_path_check

SETTINGS = settings(max_examples=80, deadline=None, database=None, derandomize=True)


def _brute(ts, formula, universal, cap, skip, id_paths):
    checked = 0
    for ids in id_paths:
        if checked >= cap:
            return None, None, checked, True
        checked += 1
        if oracle_path_check(ts, ids[1:] if skip else ids, formula) != universal:
            return not universal, ids, checked, False
    return universal, None, checked, False


@st.composite
def _cases(draw):
    rng = draw(st.randoms(use_true_random=False))
    ts = random_ts(rng, max_frames=4, max_worlds=3)
    formula = random_temporal_formula(rng, list(ts.agents), depth=rng.randint(1, 4))
    return ts, formula


@SETTINGS
@given(_cases(), st.booleans(), st.booleans(), st.sampled_from([1, 2, 5, 17, None]),
       st.none() | st.lists(st.integers(min_value=0), max_size=4))
def test_engine_matches_enumeration(case, universal, skip, cap, picks):
    ts, formula = case
    id_paths = enumerate_id_paths(ts)
    paths = None
    if picks is not None:
        id_paths = [id_paths[i % len(id_paths)] for i in picks]
        paths = [ts.path(ids) for ids in id_paths]
    result, path, checked, capped = quantify_paths(
        ts, formula, universal=universal, path_cap=cap, paths=paths, skip_dummies=skip,
    )
    expected = _brute(ts, formula, universal, cap or 10**9, skip, id_paths)
    assert (result, path.worlds if path else None, checked, capped) == expected


@SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
def test_path_rank_inverts_path_at_in_enumeration_order(sizes):
    frames = [
        PALModel([World(f"f{i}x{j}") for j in range(size)], ["a"])
        for i, size in enumerate(sizes)
    ]
    ts = build_ts(frames)
    paths = list(enumerate_total_paths(ts))
    for index, path in enumerate(paths):
        assert path_at(ts, index).worlds == path.worlds
        picks = [
            [w.id for w in layer.worlds].index(wid) for layer, wid in zip(ts.layers, path.worlds)
        ]
        assert path_rank(ts, picks) == index
    assert path_at(ts, len(paths)) is None
    assert path_at(ts, -1) is None


def test_deep_formulas_built_with_constructors_evaluate():
    cat = Atom("x", "Cat")
    frames = [PALModel([World(f"f{i}a", [cat]), World(f"f{i}b")], ["a"]) for i in range(3)]
    ts = build_ts(frames)
    chain = Pal(Prop(cat))
    for _ in range(5000):
        chain = Next(chain)
    # Past the end of every path the chain is false, so its negation holds.
    assert quantify_paths(ts, chain, universal=False) == (False, None, 8, False)
    result, path, checked, capped = quantify_paths(ts, TNot(chain), universal=True)
    assert (result, path, checked, capped) == (True, None, 8, False)
    first = next(enumerate_total_paths(ts))
    assert not tems(ts, first, chain)
    assert tems(ts, first, TNot(chain))

    negated = future(Pal(Prop(cat)))
    for _ in range(5000):
        negated = TNot(negated)
    assert quantify_paths(ts, negated, universal=True, skip_dummies=True)[:3] == (
        False, ts.path(["w00", "f0b", "f1b", "f2b", "w40"]), 8,
    )

    pal = Prop(cat)
    for _ in range(5001):
        pal = PNot(pal)
    assert pal_sat(frames[0], "f0b", pal)
    assert not pal_sat(frames[0], "f0a", pal)


def test_no_columns_is_the_empty_path():
    # The empty path falsifies everything, negations included.
    for formula in (Pal(Prop(Atom("x", "Cat"))), TNot(Pal(Prop(Atom("x", "Cat"))))):
        assert decide([], formula, True) is None
        assert decide([], formula, False) == []


@pytest.mark.parametrize("seed", range(6))
def test_reported_paths_are_confirmed_on_workload_sized_systems(seed):
    """Witness validation where enumeration cannot referee: on systems of up
    to 200 frames of 10 worlds, each path the engine reports is the one its
    rank names, the oracle gives the reported verdict on that one path, and
    it is the least such path at its first pick above 0.  When no path is
    reported, the oracle gives the universal verdict on the first path."""
    rng = random.Random(seed)
    ts = random_ts(rng, max_frames=200, max_worlds=10)
    columns = [(layer, [w.id for w in layer.worlds]) for layer in ts.layers]
    found = 0
    for _ in range(4):
        formula = random_temporal_formula(rng, list(ts.agents))
        for universal in (True, False):
            result, path, checked, capped = quantify_paths(
                ts, formula, universal=universal, path_cap=10**400,
            )
            assert not capped
            if path is None:
                assert (result, checked) == (universal, total_path_count(ts))
                assert oracle_path_check(ts, path_at(ts, 0).worlds, formula) is universal
                continue
            found += 1
            assert result is not universal
            assert path_at(ts, checked - 1) == path
            assert oracle_path_check(ts, path.worlds, formula) is result
            # No path that agrees with this one before its first pick above
            # 0 and takes a lower world there decides.
            picks = [ids.index(w) for (_, ids), w in zip(columns, path.worlds)]
            k = next((k for k, pos in enumerate(picks) if pos), None)
            if k is not None:
                lower = [(layer, [w]) for (layer, _), w in zip(columns[:k], path.worlds)]
                lower += [(columns[k][0], columns[k][1][:picks[k]])] + columns[k + 1:]
                assert decide(lower, formula, result) is None
    assert found
