"""Tests for transition-system assembly, paths and enumeration."""

import random
from itertools import product

import pytest

from ltpal.errors import EvaluationError, IngestionError
from ltpal.model import Atom, PALModel, World
from ltpal.transition import (
    TransitionSystem,
    build_ts,
    enumerate_total_paths,
    total_path_count,
)

from generators import random_frames, random_ts


def _frame(ids, agents=("a", "b"), atoms=None):
    worlds = [World(wid, (atoms or {}).get(wid, [])) for wid in ids]
    return PALModel(worlds, agents)


def _demo_ts():
    frame1 = _frame(
        ["w10", "w11", "w12"],
        atoms={"w10": [Atom("v1", "Cat")], "w11": [Atom("v1", "Dog")]},
    )
    frame2 = _frame(
        ["w20", "w21"],
        atoms={"w20": [Atom("v2", "Cat")], "w21": [Atom("v2", "Dog")]},
    )
    return build_ts([frame1, frame2])


def test_build_adds_dummy_endpoints():
    ts = _demo_ts()
    assert len(ts.layers) == 4
    assert ts.s0 == "w00"
    assert ts.s_minus1 == "w30"
    first, last = ts.layers[0], ts.layers[-1]
    for dummy in (first, last):
        assert len(dummy.worlds) == 1
        assert dummy.worlds[0].atoms == frozenset()
        for agent in ts.agents:
            assert dummy.partition(agent) == (frozenset({dummy.worlds[0].id}),)


def test_demo_counts():
    ts = _demo_ts()
    assert ts.state_count == 7
    assert ts.edge_count == 1 * 3 + 3 * 2 + 2 * 1
    assert total_path_count(ts) == 6


def test_edges_enumerate_layer_by_layer():
    ts = _demo_ts()
    edges = list(ts.edges())
    assert edges[:3] == [("w00", "w10"), ("w00", "w11"), ("w00", "w12")]
    assert edges[-2:] == [("w20", "w30"), ("w21", "w30")]
    assert len(edges) == ts.edge_count


def test_layer_index_model_of_and_label():
    ts = _demo_ts()
    assert ts.layer_index("w00") == 0
    assert ts.layer_index("w21") == 2
    assert ts.label("w10") == frozenset({Atom("v1", "Cat")})
    assert ts.model_of("w20") is ts.layers[2]
    with pytest.raises(EvaluationError, match="unknown world id"):
        ts.layer_index("zz")


def test_build_rejects_degenerate_input():
    with pytest.raises(IngestionError, match="zero frames"):
        build_ts([])
    with pytest.raises(IngestionError, match="no worlds"):
        build_ts([PALModel([], ["a"])])
    mismatched = [_frame(["u0"], agents=("a",)), _frame(["u1"], agents=("b",))]
    with pytest.raises(IngestionError, match="roster"):
        build_ts(mismatched)
    start, end = _frame(["s"]), _frame(["e"])
    with pytest.raises(IngestionError, match="no worlds"):
        TransitionSystem([start, PALModel([], ["a", "b"]), end])


def test_collision_with_dummy_prefixes_all_real_ids():
    frames = [_frame(["w00", "q1"]), _frame(["q2"])]
    ts = build_ts(frames)
    real_ids = [w.id for layer in ts.real_layers for w in layer.worlds]
    assert real_ids == ["L1_w00", "L1_q1", "L2_q2"]
    assert ts.s0 == "w00"


def test_duplicate_ids_across_frames_prefix_all_real_ids():
    frames = [_frame(["u0", "u1"]), _frame(["u1"])]
    ts = build_ts(frames)
    real_ids = [w.id for layer in ts.real_layers for w in layer.worlds]
    assert real_ids == ["L1_u0", "L1_u1", "L2_u1"]


def test_unique_ids_survive_unrenamed():
    ts = _demo_ts()
    real_ids = [w.id for layer in ts.real_layers for w in layer.worlds]
    assert real_ids == ["w10", "w11", "w12", "w20", "w21"]


def test_enumeration_is_lexicographic_in_storage_order():
    ts = _demo_ts()
    listed = [p.worlds for p in enumerate_total_paths(ts)]
    per_layer = [[w.id for w in layer.worlds] for layer in ts.layers]
    assert listed == [tuple(ids) for ids in product(*per_layer)]


def _is_total(path):
    return path.worlds[:1] + path.worlds[-1:] == (path.ts.s0, path.ts.s_minus1)


def test_enumeration_matches_count_on_random_systems():
    rng = random.Random(5)
    for _ in range(30):
        ts = random_ts(rng)
        paths = list(enumerate_total_paths(ts))
        assert len(paths) == total_path_count(ts)
        assert len(set(p.worlds for p in paths)) == len(paths)
        for p in paths:
            assert _is_total(p)


def test_exec_path_validation():
    ts = _demo_ts()
    path = ts.path(["w00", "w10", "w20", "w30"])
    assert len(path) == 4
    assert _is_total(path)
    with pytest.raises(ValueError):
        ts.path(["w00", "w20"])  # skips a layer
    with pytest.raises(ValueError):
        ts.path(["w10", "w00"])  # runs backwards
    with pytest.raises(EvaluationError):
        ts.path(["w00", "zz"])


def test_path_suffix_and_empty_path():
    ts = _demo_ts()
    path = ts.path(["w00", "w10", "w20", "w30"])
    assert ts.path(path.worlds[1:]).worlds == ("w10", "w20", "w30")
    assert not _is_total(ts.path(path.worlds[1:]))
    empty = ts.path(path.worlds[4:])
    assert empty.worlds == () and len(empty) == 0
    assert ts.path(path.worlds[2:]).worlds == ("w20", "w30")


def test_partial_paths_allowed():
    ts = _demo_ts()
    partial = ts.path(["w10", "w20"])
    assert not _is_total(partial)
    assert len(partial) == 2


def test_groups_are_validated_and_exposed():
    frame = _frame(["u0"])
    ts = build_ts([frame], groups={"both": ["a", "b"]})
    assert ts.groups == {"both": ("a", "b")}
    with pytest.raises(IngestionError, match="unknown agent"):
        build_ts([frame], groups={"both": ["a", "zz"]})
    with pytest.raises(IngestionError, match="must not be empty"):
        build_ts([frame], groups={"both": []})
    with pytest.raises(IngestionError, match="collides"):
        build_ts([frame], groups={"a": ["b"]})


def test_system_equality():
    rng1, rng2 = random.Random(11), random.Random(11)
    agents = ["a0", "a1"]
    ts1 = build_ts(random_frames(rng1, agents))
    ts2 = build_ts(random_frames(rng2, agents))
    assert ts1 == ts2
    assert ts1 != build_ts(random_frames(random.Random(12), agents))


def test_transition_system_requires_three_layers():
    layer = _frame(["only"])
    with pytest.raises(IngestionError):
        TransitionSystem([layer])
