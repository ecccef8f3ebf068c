"""Tests for PAL satisfaction, announcements and distributed knowledge."""

import random

import pytest

from ltpal.errors import EvaluationError
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
    bottom,
    p_implies,
    p_or,
    top,
)
from ltpal.model import Atom, PALModel, World, path_model
from ltpal.pal import announce_update, extension, extensions, pal_sat
from ltpal.serialize import dump_ts, load_ts

from generators import random_model_with_pairs, random_pal_formula, random_ts
from oracles import bfs_partition, oracle_pal_sat, pairs_to_relation

CAT = Prop(Atom("x", "Cat"))
DOG = Prop(Atom("x", "Dog"))


def _model():
    """Three worlds; agent a merges w0/w1, agent b merges w1/w2."""
    worlds = [
        World("w0", [Atom("x", "Cat")]),
        World("w1", [Atom("x", "Cat"), Atom("x", "Dog")]),
        World("w2", [Atom("x", "Dog")]),
    ]
    return PALModel(
        worlds,
        ["a", "b"],
        {"a": [{"w0", "w1"}, {"w2"}], "b": [{"w0"}, {"w1", "w2"}]},
    )


def test_prop_and_boolean_connectives():
    model = _model()
    assert pal_sat(model, "w0", CAT)
    assert not pal_sat(model, "w0", DOG)
    assert pal_sat(model, "w1", PAnd(CAT, DOG))
    assert pal_sat(model, "w0", PNot(DOG))
    assert pal_sat(model, "w2", p_or(CAT, DOG))
    assert pal_sat(model, "w2", p_implies(CAT, DOG))


def test_top_and_bottom_everywhere():
    model = _model()
    for wid in ("w0", "w1", "w2"):
        assert pal_sat(model, wid, top())
        assert not pal_sat(model, wid, bottom())


def test_knows_quantifies_over_the_agents_block():
    model = _model()
    assert pal_sat(model, "w0", Knows("a", CAT))
    assert not pal_sat(model, "w0", Knows("a", PNot(DOG)))
    assert pal_sat(model, "w2", Knows("a", DOG))
    assert pal_sat(model, "w1", Knows("b", DOG))
    assert not pal_sat(model, "w1", Knows("b", CAT))


def test_distributed_knowledge_intersects_blocks():
    model = _model()
    # a's block at w1 is {w0, w1}; b's is {w1, w2}; together they pin w1.
    assert not pal_sat(model, "w1", Knows("a", DOG))
    assert not pal_sat(model, "w1", Knows("b", CAT))
    assert pal_sat(model, "w1", Dist(frozenset({"a", "b"}), PAnd(CAT, DOG)))


def test_singleton_dist_equals_knows():
    model = _model()
    for wid in ("w0", "w1", "w2"):
        for formula in (CAT, DOG, Knows("b", DOG)):
            assert pal_sat(model, wid, Dist(frozenset({"a"}), formula)) == pal_sat(
                model, wid, Knows("a", formula)
            )


def test_announce_restricts_worlds_and_blocks():
    model = _model()
    updated = announce_update(model, CAT)
    assert [w.id for w in updated.worlds] == ["w0", "w1"]
    assert updated.block("b", "w1") == frozenset({"w1"})
    # After announcing Cat, b can now tell w1 from the discarded w2.
    assert not pal_sat(model, "w1", Knows("b", CAT))
    assert pal_sat(model, "w1", Announce(CAT, Knows("b", CAT)))


def test_announce_is_vacuously_true_where_false():
    model = _model()
    assert pal_sat(model, "w0", Announce(DOG, bottom()))
    assert not pal_sat(model, "w1", Announce(DOG, bottom()))


def test_announce_may_empty_the_model():
    model = _model()
    updated = announce_update(model, bottom())
    assert updated.is_empty
    assert updated.agents == ("a", "b")


def test_nested_announcements_compose():
    model = _model()
    # Announcing Cat then Dog pins w1 exactly.
    inner = Announce(DOG, Knows("a", PAnd(CAT, DOG)))
    assert pal_sat(model, "w1", Announce(CAT, inner))
    assert pal_sat(model, "w0", Announce(CAT, Announce(DOG, bottom())))


def test_a_temporal_node_inside_a_pal_formula_is_refused():
    with pytest.raises(EvaluationError) as info:
        extensions(PNot(Next(Pal(CAT))), [_model()])
    assert str(info.value) == f"not a PAL formula: {Next(Pal(CAT))!r}"


def test_placeholder_cannot_be_evaluated():
    model = _model()
    with pytest.raises(EvaluationError, match="placeholder"):
        pal_sat(model, "w0", Placeholder(1))


def test_unknown_world_raises():
    with pytest.raises(EvaluationError, match="unknown world id"):
        pal_sat(_model(), "zz", CAT)


def test_distributed_knowledge_reads_the_intersection_of_the_blocks():
    # At w1 agent a's block is {w0, w1} and b's is {w1, w2}; together they
    # leave only {w1}, smaller than either block.
    model = _model()
    both = PAnd(CAT, DOG)
    assert pal_sat(model, "w1", Dist({"a"}, CAT))
    assert not pal_sat(model, "w1", Dist({"a"}, DOG))
    assert not pal_sat(model, "w1", Dist({"a"}, both))
    assert not pal_sat(model, "w1", Dist({"b"}, both))
    assert pal_sat(model, "w1", Dist({"a", "b"}, both))
    # At w0 the intersection is {w0}: b alone already tells w0 apart.
    assert not pal_sat(model, "w0", Dist({"a"}, PNot(DOG)))
    assert pal_sat(model, "w0", Dist({"a", "b"}, PNot(DOG)))
    assert pal_sat(model, "w0", Dist({"b"}, PNot(DOG)))
    with pytest.raises(ValueError, match="non-empty agent set"):
        Dist(set(), CAT)
    with pytest.raises(EvaluationError, match="unknown agent 'zz'"):
        pal_sat(model, "w1", Dist({"zz"}, CAT))
    # Also where no evaluation reads the agent: the announcement holds nowhere.
    for unread in (Knows("zz", CAT), Dist({"a", "zz"}, CAT)):
        with pytest.raises(EvaluationError, match="^unknown agent 'zz'$"):
            pal_sat(model, "w1", Announce(bottom(), unread))


def test_random_formulas_match_oracle():
    """pal_sat agrees with a brute-force pair-set evaluator on random cases."""
    rng = random.Random(2024)
    for _ in range(500):
        model, pairs = random_model_with_pairs(rng)
        ids = [w.id for w in model.worlds]
        worlds = {w.id: {(a.data_id, a.class_id) for a in w.atoms} for w in model.worlds}
        relations = {
            agent: pairs_to_relation(pairs.get(agent, []), ids)
            for agent in model.agents
        }
        formula = random_pal_formula(rng, list(model.agents))
        wid = rng.choice(ids)
        assert pal_sat(model, wid, formula) == oracle_pal_sat(
            worlds, relations, wid, formula
        )


def test_an_announcement_holds_where_its_operand_holds_in_the_announced_submodel():
    """[psi] phi holds at w iff psi fails at w or phi holds at w in M|psi.
    `announce_update` builds M|psi and is the reference: the engine never
    builds it.  The submodel is checked against the referee's: the worlds
    where the oracle finds psi, in order and with their atoms, and the
    oracle's blocks of each agent cut down to them.  The operands nest
    announcements, K and D, and every fourth announcement holds nowhere."""
    rng = random.Random(4096)
    nowhere = 0
    for k in range(400):
        model, pairs = random_model_with_pairs(rng)
        agents = list(model.agents)
        announced = random_pal_formula(rng, agents, depth=3)
        if k % 4 == 0:
            announced = PAnd(announced, PNot(announced))
        operand = random_pal_formula(rng, agents, depth=4)
        submodel = announce_update(model, announced)
        nowhere += submodel.is_empty

        ids = [w.id for w in model.worlds]
        valuation = {w.id: {(a.data_id, a.class_id) for a in w.atoms} for w in model.worlds}
        relations = {agent: pairs_to_relation(pairs[agent], ids) for agent in agents}
        keep = {w for w in ids if oracle_pal_sat(valuation, relations, w, announced)}
        assert submodel.worlds == tuple(w for w in model.worlds if w.id in keep)
        assert submodel.agents == model.agents
        for agent in agents:
            expected = {block & keep for block in bfs_partition(pairs[agent], ids)} - {frozenset()}
            assert set(submodel.partition(agent)) == expected
        for w in model.worlds:
            expected = not pal_sat(model, w.id, announced) or pal_sat(submodel, w.id, operand)
            assert pal_sat(model, w.id, Announce(announced, operand)) == expected
    assert nowhere >= 100


def _systems_with_relations(seeds):
    """Random systems three ways: relations closed (as built), as loaded
    pairs, and loaded with some layers' partitions already read."""
    for seed in seeds:
        rng = random.Random(seed)
        ts = random_ts(rng, max_frames=4, max_worlds=5)
        partly, _ = load_ts(dump_ts(ts))
        for layer in partly.layers:
            if rng.random() < 0.5:
                layer.partition(rng.choice(partly.agents))
        for system in (ts, load_ts(dump_ts(ts))[0], partly):
            yield rng, system


def _paths_through_every_world(ts):
    """Paths that together visit every world: the k-th takes each layer's
    k-th world, or its last."""
    width = max(len(layer.worlds) for layer in ts.layers)
    return [[layer.worlds[min(k, len(layer.worlds) - 1)].id for layer in ts.layers]
            for k in range(width)]


def test_a_path_model_holds_the_worlds_some_chain_of_pairs_links_to_the_path():
    for _, ts in _systems_with_relations(range(40)):
        for path in _paths_through_every_world(ts):
            layers = [ts.model_of(w) for w in path]
            model = path_model(layers, path)
            expected = []
            for layer, wid in zip(layers, path):
                ids = [w.id for w in layer.worlds]
                linked = [(u, v) for agent in ts.agents for block in layer.partition(agent)
                          for u in block for v in block]
                (component,) = [b for b in bfs_partition(linked, ids) if wid in b]
                expected += [w for w in layer.worlds if w.id in component]
            assert model.worlds == tuple(expected)
            assert model.agents == ts.agents
            for agent in ts.agents:
                assert model.partition(agent) == tuple(sorted(
                    (block for layer in layers for block in layer.partition(agent)
                     if block <= model.world_ids), key=min))


def test_pal_truth_in_a_path_model_is_truth_in_the_layer():
    """Invariance under generated submodels and disjoint unions: at every
    world of a path, a formula with announcements, K and D holds in the
    path's model exactly when it holds in the world's layer."""
    for rng, ts in _systems_with_relations(range(60)):
        formulas = [random_pal_formula(rng, list(ts.agents), depth=4) for _ in range(4)]
        for path in _paths_through_every_world(ts):
            model = path_model([ts.model_of(w) for w in path], path)
            for formula in formulas:
                holds = extension(model, formula)
                for wid in path:
                    assert (wid in holds) == (wid in extension(ts.model_of(wid), formula))
