"""Tests for edge scoring, most-probable-path extraction and stream correction."""

import math
import random
import sys
import time

import pytest

from ltpal import mppe
from ltpal.errors import ConfigurationError, IngestionError
from ltpal.model import Atom, PALModel, World
from ltpal.mppe import (
    SCORE_FLOOR,
    ExternalScorer,
    FrameChoice,
    ScoreTable,
    correct_stream,
    most_probable_path,
    overlap_score,
    project_stream,
    score_edges,
)
from ltpal.serialize import load_scores
from ltpal.transition import build_ts

from generators import random_ts
from oracles import best_path_bruteforce


def _frame(specs, agents=("a",)):
    return PALModel([World(wid, atoms) for wid, atoms in specs], agents)


def _demo_ts():
    frame1 = _frame([
        ("w10", [Atom("v1", "Cat")]),
        ("w11", [Atom("v1", "Dog")]),
        ("w12", []),
    ])
    frame2 = _frame([
        ("w20", [Atom("v2", "Cat")]),
        ("w21", [Atom("v2", "Dog")]),
    ])
    return build_ts([frame1, frame2])


DEMO_SCORES = {
    ("w00", "w10"): 0.2, ("w00", "w11"): 0.1, ("w00", "w12"): 0.15,
    ("w10", "w20"): 0.8, ("w10", "w21"): 0.3,
    ("w11", "w20"): 0.4, ("w11", "w21"): 0.5,
    ("w12", "w20"): 0.3, ("w12", "w21"): 0.6,
    ("w20", "w30"): 0.2, ("w21", "w30"): 0.1,
}


def test_overlap_score_is_jaccard_with_empty_special_case():
    assert overlap_score(frozenset({"Cat"}), frozenset({"Cat"})) == 1.0
    assert overlap_score(frozenset({"Cat"}), frozenset({"Dog"})) == 0.0
    assert overlap_score(frozenset({"Cat"}), frozenset({"Cat", "Dog"})) == 0.5
    assert overlap_score(frozenset(), frozenset()) == 1.0
    assert overlap_score(frozenset(), frozenset({"Cat"})) == 0.0


def _classes(ts, world_id):
    return frozenset(atom.class_id for atom in ts.label(world_id))


def test_class_labels_ignore_data_ids():
    ts = _demo_ts()
    assert _classes(ts, "w10") == frozenset({"Cat"})
    assert _classes(ts, "w00") == frozenset()
    assert score_edges(ts)[("w10", "w20")] == 1.0  # v1:Cat and v2:Cat share the class Cat


def test_score_edges_pins_dummy_edges_to_one():
    ts = _demo_ts()
    table = score_edges(ts)
    for v in ("w10", "w11", "w12"):
        assert table[("w00", v)] == 1.0
    for u in ("w20", "w21"):
        assert table[(u, "w30")] == 1.0
    assert len(table) == ts.edge_count


def test_score_edges_applies_floor_and_ceiling():
    ts = _demo_ts()
    floor = score_edges(ts, lambda a, b: 0.0)
    assert floor[("w10", "w20")] == SCORE_FLOOR
    ceil = score_edges(ts, lambda a, b: 7.5)
    assert ceil[("w10", "w20")] == 1.0
    # An integer beyond the float range is an infinity, and clamps like one.
    assert score_edges(ts, lambda a, b: 10 ** 400) == score_edges(ts, lambda a, b: math.inf) == ceil


def test_score_edges_rejects_nan_and_negatives():
    ts = _demo_ts()
    with pytest.raises(ConfigurationError, match="NaN"):
        score_edges(ts, lambda a, b: float("nan"))
    with pytest.raises(ConfigurationError, match="negative"):
        score_edges(ts, lambda a, b: -0.25)
    with pytest.raises(ConfigurationError, match="non-number"):
        score_edges(ts, lambda a, b: "high")


def _repeated_labels_ts():
    cat, dog = [Atom("v", "Cat")], [Atom("v", "Dog")]
    return build_ts([
        _frame([("a1", cat), ("a2", dog), ("a3", cat)]),
        _frame([("b1", cat), ("b2", [Atom("u", "Cat")])]),
        _frame([("c1", dog), ("c2", cat)]),
    ])


def test_score_edges_calls_the_scorer_once_per_distinct_label_pair():
    ts = _repeated_labels_ts()
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return overlap_score(a, b)

    table = score_edges(ts, counting)
    cat, dog = frozenset({"Cat"}), frozenset({"Dog"})
    # First appearances in edges() order: a1->b1, a2->b1, b1->c1.
    assert calls == [(cat, cat), (dog, cat), (cat, dog)]
    assert len(table) == ts.edge_count
    assert table == score_edges(ts)
    for u, v in ts.edges():
        if ts.layer_index(u) > 0 and ts.layer_index(v) < len(ts.layers) - 1:
            assert table[(u, v)] == max(SCORE_FLOOR, overlap_score(
                _classes(ts, u), _classes(ts, v)))


def _per_edge_scores(ts, scorer):
    """Reference for `score_edges`: one pass over `ts.edges()`, labels from
    `_classes`; returns the table and the scorer calls in order."""
    last = len(ts.layers) - 1
    memo, calls, table = {}, [], {}
    for u, v in ts.edges():
        if ts.layer_index(u) == 0 or ts.layer_index(v) == last:
            table[(u, v)] = 1.0
            continue
        pair = (_classes(ts, u), _classes(ts, v))
        if pair not in memo:
            calls.append(pair)
            memo[pair] = min(1.0, max(SCORE_FLOOR, scorer(*pair)))
        table[(u, v)] = memo[pair]
    return table, calls


def test_score_edges_matches_a_per_edge_reference():
    rng = random.Random(1717)
    one_real_layer = _frame([("m1", [Atom("v", "Cat")]), ("m2", [Atom("v", "Dog")])])
    systems = [build_ts([one_real_layer]), _repeated_labels_ts(), _demo_ts()]
    systems += [random_ts(rng, max_frames=6, max_worlds=4) for _ in range(60)]
    assert len(systems[0].layers) == 3  # both layer pairs touch an endpoint
    scorers = [overlap_score, lambda a, b: (len(a) + 2 * len(b)) / 7]  # 0 and > 1 clamp
    for ts in systems:
        for scorer in scorers:
            expected, expected_calls = _per_edge_scores(ts, scorer)
            calls = []
            table = score_edges(ts, lambda a, b: calls.append((a, b)) or scorer(a, b))
            assert list(table.items()) == list(expected.items())
            assert [edge for edge, _ in table.items()] == list(ts.edges())
            assert calls == expected_calls
            flat = ScoreTable(expected)
            assert table == flat and flat == table
            assert len(table) == len(flat) == ts.edge_count
            assert table.items() == flat.items()


def test_score_edges_shares_one_row_per_label_set():
    ts = _repeated_labels_ts()
    rows = score_edges(ts)._rows
    # a1 and a3 are both {Cat}; b1 and b2 are {Cat} with different data ids.
    assert rows["a1"] is rows["a3"]
    assert rows["a1"] is not rows["a2"]
    assert rows["b1"] is rows["b2"]
    assert rows["c1"] is rows["c2"]  # every edge into the last layer scores 1.0
    assert rows["a1"] is not rows["b1"]  # rows are never shared across layers
    assert rows["w00"] == {"a1": 1.0, "a2": 1.0, "a3": 1.0}


@pytest.mark.parametrize("bad, message", [
    (float("nan"), "scorer returned NaN for edge 'b1' -> 'c1'"),
    (-1.0, "scorer returned a negative score for edge 'b1' -> 'c1': -1.0"),
    (None, "scorer returned a non-number for edge 'b1' -> 'c1': None"),
    pytest.param(-10 ** 400, "scorer returned a negative score for edge 'b1' -> 'c1': -inf",
                 id="negative-integer-beyond-the-float-range"),
])
def test_score_edges_error_names_the_first_edge_with_the_bad_pair(bad, message):
    ts = _repeated_labels_ts()
    cat, dog = frozenset({"Cat"}), frozenset({"Dog"})
    # (Cat, Dog) first appears at b1 -> c1, after six scored edges.
    scorer = lambda a, b: bad if (a, b) == (cat, dog) else 0.5
    with pytest.raises(ConfigurationError) as info:
        score_edges(ts, scorer)
    assert str(info.value) == message


def test_score_table_validates_range():
    for bad in (0.0, -1.0, 1.5, float("nan")):
        with pytest.raises(IngestionError, match="must be in"):
            ScoreTable({("u", "v"): bad})
    table = ScoreTable({("u", "v"): 1})
    assert table[("u", "v")] == 1.0
    assert ("u", "v") in table
    assert ("v", "u") not in table


@pytest.mark.parametrize("huge, shown", [
    (10 ** 400, "inf"), (-10 ** 400, "-inf"), (10 ** 5000, "inf"),
], ids=["positive", "negative", "too-long-to-print"])
def test_score_table_reports_an_integer_beyond_the_float_range_as_out_of_range(huge, shown):
    with pytest.raises(IngestionError) as info:
        ScoreTable({("u", "v"): 0.5, ("v", "w"): huge})
    assert str(info.value) == f"score for edge 'v' -> 'w' must be in (0, 1], got {shown}"


def test_score_table_rejects_what_is_not_an_edge():
    for table in (ScoreTable({("a", "b"): 0.5, ("x", "y"): 0.5}), score_edges(_demo_ts())):
        assert "x" not in table
        assert ("a", "b", "c") not in table
        assert ("w00", "w10", "w20") not in table
        with pytest.raises(ValueError):
            table["abc"]
        with pytest.raises(ValueError):
            table[("w00", "w10", "w20")]


def test_score_table_missing_edge_lookup():
    table = ScoreTable({("u", "v"): 0.5})
    with pytest.raises(IngestionError, match="no score for edge"):
        table[("q", "r")]
    # A scores file must cover every edge; the first edge it leaves out is named.
    entries = [{"from": u, "to": v, "score": s} for (u, v), s in DEMO_SCORES.items() if u != "w11"]
    with pytest.raises(IngestionError, match="edges is missing 'w11' -> 'w20'"):
        load_scores({"edges": entries}, _demo_ts())


def test_demo_most_probable_path():
    ts = _demo_ts()
    scored = most_probable_path(ts, ScoreTable(DEMO_SCORES))
    assert scored.path.worlds == ("w00", "w10", "w20", "w30")
    assert scored.score == pytest.approx(0.2 * 0.8 * 0.2, abs=1e-12)
    assert scored.log_score == pytest.approx(
        math.log(0.2) + math.log(0.8) + math.log(0.2), rel=1e-12
    )


def test_mppe_matches_bruteforce_on_random_systems():
    rng = random.Random(606)
    for _ in range(100):
        ts = random_ts(rng)
        table = ScoreTable({
            (u, v): rng.choice([0.1, 0.25, 0.5, 0.75, 1.0])
            for u, v in ts.edges()
        })
        scored = most_probable_path(ts, table)
        best_ids, best_score = best_path_bruteforce(ts, lambda u, v: table[(u, v)])
        assert math.isclose(scored.score, best_score, rel_tol=1e-9)


def _reversed_layers(ts):
    """`ts` with the worlds of each frame stored in reverse order."""
    return build_ts([
        PALModel(layer.worlds[::-1], layer.agents, {a: layer.partition(a) for a in layer.agents})
        for layer in ts.real_layers
    ])


def test_ties_break_to_the_lexicographically_least_path():
    rng = random.Random(607)
    for _ in range(40):
        drawn = random_ts(rng)
        # Stored in reverse, a layer's first world is not its least id.
        for ts in (drawn, _reversed_layers(drawn)):
            table = ScoreTable({(u, v): 0.5 for u, v in ts.edges()})
            scored = most_probable_path(ts, table)
            best_ids, _ = best_path_bruteforce(ts, lambda u, v: 0.5)
            assert scored.path.worlds == best_ids


def test_ties_go_to_the_smaller_id_not_the_first_stored():
    ts = build_ts([_frame([("b", []), ("a", [])]), _frame([("c", [])])])
    scored = most_probable_path(ts, ScoreTable({edge: 0.5 for edge in ts.edges()}))
    assert scored.path.worlds == ("w00", "a", "c", "w30")


def test_every_edge_is_looked_up_exactly_once():
    lookups = []

    class CountingTable(ScoreTable):
        def __getitem__(self, edge):
            lookups.append(edge)
            return super().__getitem__(edge)

    ts = _demo_ts()
    most_probable_path(ts, CountingTable(DEMO_SCORES))
    assert len(lookups) == ts.edge_count
    assert len(set(lookups)) == ts.edge_count


def test_project_and_correct_stream():
    ts = _demo_ts()
    table = ScoreTable(DEMO_SCORES)
    choices = correct_stream(ts, table)
    assert choices == (
        FrameChoice(1, "w10", (Atom("v1", "Cat"),)),
        FrameChoice(2, "w20", (Atom("v2", "Cat"),)),
    )
    assert project_stream(ts, most_probable_path(ts, table)) == choices


ECHO_SCORER = (
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    a, b = set(req['a']), set(req['b'])\n"
    "    score = 1.0 if a == b else 0.25\n"
    "    print(json.dumps({'score': score}), flush=True)\n"
)


def test_external_scorer_protocol():
    ts = _demo_ts()
    with ExternalScorer([sys.executable, "-c", ECHO_SCORER]) as scorer:
        table = score_edges(ts, scorer)
    assert table[("w10", "w20")] == 1.0  # both label sets are {Cat}
    assert table[("w10", "w21")] == 0.25
    assert table[("w00", "w10")] == 1.0  # dummy edges never reach the child


def test_external_scorer_error_modes():
    with pytest.raises(ConfigurationError, match="not be empty"):
        ExternalScorer([])
    dead = ExternalScorer([sys.executable, "-c", "pass"])
    with pytest.raises(ConfigurationError, match="closed its output"):
        dead(frozenset({"Cat"}), frozenset({"Dog"}))
    dead.close()
    garbled = ExternalScorer(
        [sys.executable, "-c", "import sys; sys.stdin.readline(); print('not json')"]
    )
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        garbled(frozenset(), frozenset())
    garbled.close()
    wrong_field = ExternalScorer(
        [sys.executable, "-c",
         "import sys, json; sys.stdin.readline(); print(json.dumps({'value': 1}))"]
    )
    with pytest.raises(ConfigurationError, match="missing a 'score'"):
        wrong_field(frozenset(), frozenset())
    wrong_field.close()
    non_number = ExternalScorer(
        [sys.executable, "-c",
         "import sys, json; sys.stdin.readline(); print(json.dumps({'score': 'hi'}))"]
    )
    with pytest.raises(ConfigurationError, match="not a number"):
        non_number(frozenset(), frozenset())
    non_number.close()


def test_external_scorer_close_closes_the_reply_pipe():
    scorer = ExternalScorer([sys.executable, "-c", ECHO_SCORER])
    assert scorer(frozenset({"Cat"}), frozenset({"Cat"})) == 1.0
    scorer.close()
    assert scorer._proc.stdin.closed
    assert scorer._proc.stdout.closed


def test_external_scorer_reply_timeout(monkeypatch):
    monkeypatch.setattr(mppe, "SCORER_REPLY_TIMEOUT_S", 0.2)
    with ExternalScorer([sys.executable, "-c", "import time; time.sleep(60)"]) as scorer:
        start = time.monotonic()
        with pytest.raises(ConfigurationError, match=r"^external scorer did not reply within 0.2 s$"):
            scorer(frozenset({"Cat"}), frozenset({"Dog"}))
        assert time.monotonic() - start < 10


SPLIT_AND_BATCHED_REPLIES = (
    "import sys, time\n"
    "sys.stdin.readline()\n"
    "sys.stdout.write('{\"sco'); sys.stdout.flush(); time.sleep(0.05)\n"
    "sys.stdout.write('re\": 0.25}\\n'); sys.stdout.flush()\n"
    "sys.stdin.readline()\n"
    "sys.stdout.write('{\"score\": 0.5}\\n{\"score\": 0.75}\\n'); sys.stdout.flush()\n"
    "sys.stdin.readline(); sys.stdin.readline()\n"
)


@pytest.mark.parametrize("select_on_pipes", [True, False])
def test_external_scorer_assembles_split_and_batched_replies(monkeypatch, select_on_pipes):
    # The first reply arrives in two writes; the next two arrive together.
    # Without select() on pipes (not POSIX) replies are read with a blocking readline.
    monkeypatch.setattr(mppe, "_SELECT_ON_PIPES", select_on_pipes)
    with ExternalScorer([sys.executable, "-c", SPLIT_AND_BATCHED_REPLIES]) as scorer:
        pair = frozenset({"Cat"}), frozenset({"Dog"})
        assert [scorer(*pair) for _ in range(3)] == [0.25, 0.5, 0.75]
        with pytest.raises(ConfigurationError, match="closed its output"):
            scorer(*pair)
