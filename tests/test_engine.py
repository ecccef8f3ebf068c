"""Path quantification by the layered engine, checked against brute force.

The brute-force side enumerates every total path with `enumerate_id_paths`
and evaluates each one with the declarative oracle, stopping at the first
deciding path or at the cap, which is the definition the engine's report
(result, witness, paths_checked, capped) must reproduce.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltpal.classify import quantify_paths
from ltpal.cli import main
from ltpal.formulas import (
    Dist, Knows, Next, Pal, PNot, Prop, TNot, Until, future, globally, lift, substitute, t_and,
    t_implies,
)
from ltpal.model import Atom, PALModel, World
from ltpal.mppe import most_probable_path, score_edges
from ltpal.pal import pal_sat
from ltpal.serialize import dump_ts, load_ts, save_ts
from ltpal.syntax import parse_formula, parse_pal_formula, parse_template
from ltpal.temporal import decide, tems
from ltpal.transition import build_ts, enumerate_total_paths, path_at, path_rank, total_path_count

from generators import random_pal_formula, random_temporal_formula, random_ts, stream_frames_document
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
       st.none() | st.integers(min_value=0))
def test_engine_matches_enumeration(case, universal, skip, cap, pick):
    """`X φ` on the full paths is φ from their second world; `path` restricts
    the check to one path."""
    ts, formula = case
    id_paths = enumerate_id_paths(ts)
    path = None
    if pick is not None:
        id_paths = [id_paths[pick % len(id_paths)]]
        path = ts.path(id_paths[0])
    result, path, checked, capped = quantify_paths(
        ts, Next(formula) if skip else formula, universal=universal, path_cap=cap, path=path,
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
    assert quantify_paths(ts, Next(negated), universal=True)[:3] == (
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
    for _ in range(8):
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


# Formulas whose verdict turns on Next, over two PAL leaves p and q.
_NEXT_SHAPES = [
    lambda p, q: Next(p),
    lambda p, q: future(t_and(p, Next(q))),
    lambda p, q: globally(t_implies(p, Next(q))),
    lambda p, q: Until(p, Next(q)),
    lambda p, q: future(t_and(Next(p), Next(Next(q)))),
]


@pytest.mark.parametrize("seed", range(3))
def test_next_decides_deep_witnesses_as_enumeration_does(seed):
    """On systems of 3 to 5 frames, formulas built around Next whose
    enumeration-least deciding path is not the first path: the engine's
    report equals the brute force one."""
    rng = random.Random(seed)
    deep = 0
    while deep < 30:
        ts = random_ts(rng, max_frames=5, max_worlds=3)
        if len(ts.real_layers) < 3:
            continue
        leaf = lambda: lift(random_pal_formula(rng, list(ts.agents), 1))
        formula = rng.choice(_NEXT_SHAPES)(leaf(), leaf())
        id_paths = enumerate_id_paths(ts)
        for universal in (True, False):
            expected = _brute(ts, formula, universal, 10**9, False, id_paths)
            result, path, checked, capped = quantify_paths(ts, formula, universal=universal)
            assert (result, path.worlds if path else None, checked, capped) == expected
            deep += expected[1] is not None and checked > 1


def _workload_sized(seed):
    """A system of up to 200 frames of 10 worlds, three drawn formulas and
    two built around Next."""
    rng = random.Random(seed)
    ts = random_ts(rng, max_frames=200, max_worlds=10)
    agents = list(ts.agents)
    leaf = lambda: lift(random_pal_formula(rng, agents, 1))
    return ts, [*(random_temporal_formula(rng, agents) for _ in range(3)),
                *(rng.choice(_NEXT_SHAPES)(leaf(), leaf()) for _ in range(2))]


@pytest.mark.parametrize("seed", range(3))
def test_universal_and_negated_existential_checks_mirror_each_other(seed):
    ts, formulas = _workload_sized(seed)
    for formula in formulas:
        result, path, checked, capped = quantify_paths(ts, formula, universal=True, path_cap=10**400)
        mirrored = quantify_paths(ts, TNot(formula), universal=False, path_cap=10**400)
        assert mirrored == (not result, path, checked, capped)


def _renamed(doc, rename):
    """The system document `doc` with every world id passed through `rename`."""
    for layer in doc["layers"]:
        for world in layer["worlds"]:
            world["id"] = rename(world["id"])
        layer["relations"] = {agent: [[rename(w) for w in group] for group in groups]
                              for agent, groups in layer["relations"].items()}
    return doc


@pytest.mark.parametrize("seed", range(3))
def test_an_order_preserving_rename_of_world_ids_changes_only_the_ids(seed, tmp_path):
    ts, formulas = _workload_sized(seed)
    rename = lambda wid: "r." + wid  # a common prefix keeps the ids' order
    target = tmp_path / "ts.json"
    save_ts(load_ts(_renamed(dump_ts(ts), rename))[0], target)
    renamed, _ = load_ts(str(target))
    assert [[w.id for w in layer.worlds] for layer in renamed.layers] == \
        [[rename(w.id) for w in layer.worlds] for layer in ts.layers]
    for formula in formulas:
        for universal in (True, False):
            result, path, checked, capped = quantify_paths(ts, formula, universal=universal,
                                                           path_cap=10**400)
            expected = (result, path and renamed.path(map(rename, path.worlds)), checked, capped)
            assert quantify_paths(renamed, formula, universal=universal,
                                  path_cap=10**400) == expected


def test_one_path_checks_on_a_stream_agree_with_the_oracle(tmp_path, capsys):
    """`check --mppe-only` and `classify --mppe-only` on a 1,000 x 10
    stream, which evaluate PAL in the path's generated submodels, give the
    verdict that the oracle gives in the whole layers along the MPPE path."""
    source, target = tmp_path / "frames.json", str(tmp_path / "ts.json")
    source.write_text(json.dumps(stream_frames_document(random.Random(101))))
    assert main(["build", "--frames", str(source), "--output", target]) == 0
    ts, _ = load_ts(target)
    path = most_probable_path(ts, score_edges(ts)).path.worlds
    capsys.readouterr()
    results = []
    for formula in [
        "F K{a} v:Cat",
        "X G (K{a} v:Cat | K{b} v:Dog | v:Fox | !X true)",
        "X G ([!v:Fox] D{a,b} !v:Fox & (K{b} v:Dog -> v:Dog) | !X true)",
        "X (!K{a} v:Fox U [v:Dog] K{a} v:Dog & K{b} !v:Cat)",
        "F ([v:Cat | v:Dog] K{a} v:Cat & !D{a,b} v:Dog)",
    ]:
        expected = oracle_path_check(ts, path, parse_formula(formula))
        code = main(["check", "--ts", target, "--formula", formula, "--mppe-only"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["path"], report["result"]) == (1 - expected, list(path), expected)
        results.append(expected)
    for mode, who, template, atom in [
        ("verified", ["--group", "a,b"], "X G (?1 | !X true)", "v:Cat | v:Dog"),
        ("verified", ["--group", "a,b"], "F ?1", "v:Fox"),
        ("robust", ["--agent", "b"], "X (?1 U !?1)", "!v:Cat"),
        ("possible-agent", ["--agent", "a"], "X G (?1 | !X true)", "v:Dog"),
        ("possible", ["--group", "a,b"], "F (?1 & X ?1)", "v:Fox"),
    ]:
        if who[0] == "--agent":
            modality = lambda a: Knows(who[1], a)
        else:
            modality = lambda a: Dist(who[1].split(","), a)
        wrap = (lambda a: PNot(modality(PNot(a)))) if mode.startswith("possible") else modality
        expected = oracle_path_check(
            ts, path, substitute(parse_template(template), [wrap(parse_pal_formula(atom))]))
        code = main(["classify", "--ts", target, "--mode", mode, *who, "--template", template,
                     "--atoms", atom, "--mppe-only"])
        report = json.loads(capsys.readouterr().out)
        assert (code, report["result"], report["paths_checked"]) == (1 - expected, expected, 1)
        results.append(expected)
    assert True in results and False in results
