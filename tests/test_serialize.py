"""Tests for JSON ingestion, system serialization and strict score loading."""

import json
import random
import sys
import threading
from collections import OrderedDict
from pathlib import Path

import pytest

from ltpal import model as model_module
from ltpal import pal as pal_module
from ltpal.cli import main
from ltpal.errors import IngestionError
from ltpal.formulas import Dist, PAnd, Pal, PNot, Prop, substitute
from ltpal.model import Atom, PALModel, RuleSet, World, rule_closure
from ltpal.mppe import score_edges
from ltpal.serialize import (
    build_from_files,
    dump_ts,
    ingest,
    load_candidates,
    load_rules,
    load_scores,
    load_ts,
    save_ts,
)
from ltpal.syntax import parse_formula, parse_template
from ltpal.transition import TransitionSystem, build_ts, total_path_count

from generators import (
    listed_atoms, model_from_pairs, random_frames_document, random_ts, stream_frames_document,
)
from oracles import bfs_partition

DATA = Path(__file__).parent / "data"
FRAMES_DOC = {
    "agents": ["a", "b"],
    "groups": {"both": ["a", "b"]},
    "frames": [
        {
            "worlds": [
                {"id": "w10", "atoms": [["v1", "Cat"]]},
                {"id": "w11", "atoms": [["v1", "Dog"]]},
            ],
            "relations": {"a": [["w10", "w11"]]},
        },
        {
            "worlds": [{"id": "w20", "atoms": []}],
        },
    ],
}


def test_load_frames_happy_path():
    doc = ingest(FRAMES_DOC)
    assert doc.agents == ("a", "b")
    assert doc.groups == {"both": ("a", "b")}
    assert len(doc.frames) == 2
    first = doc.frames[0]
    assert first.labels("w10") == frozenset({Atom("v1", "Cat")})
    assert first.block("a", "w10") == frozenset({"w10", "w11"})
    assert first.block("b", "w10") == frozenset({"w10"})
    assert doc.frames[1].labels("w20") == frozenset()


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("agents"), "missing the 'agents'"),
        (lambda d: d.update(agents=[]), "agents must not be empty"),
        (lambda d: d.update(agents=["a", "a"]), "duplicate"),
        (lambda d: d.pop("frames"), "missing the 'frames'"),
        (lambda d: d.update(frames=[]), "frames must not be empty"),
        (lambda d: d["frames"][0]["worlds"][1]["atoms"].append(["x"]),
         r"frames\[0\].worlds\[1\].atoms\[1\]"),
        (lambda d: d["frames"][0]["worlds"][1]["atoms"].append(["x", ""]),
         r"frames\[0\].worlds\[1\].atoms\[1\]"),
        (lambda d: d["frames"][0]["relations"].update(zz=[["w10", "w11"]]),
         r"frames\[0\].relations names unknown agent"),
        (lambda d: d["frames"][0]["relations"].update(a=[["w10", "zz"]]),
         r"frames\[0\].relations\['a'\]"),
        (lambda d: d["frames"][0]["worlds"].append({"id": "w10", "atoms": []}),
         r"frames\[0\].*duplicate world id"),
        (lambda d: d["frames"][1].update(worlds=[]),
         r"frames\[1\].worlds must not be empty"),
        (lambda d: d["groups"].update(both=["a", "zz"]), "unknown agent"),
        (lambda d: d["groups"].update(a=["b"]), "collides"),
        (lambda d: d["groups"].update(both=[]), "must not be empty"),
        (lambda d: d["frames"][0]["worlds"][0].pop("id"), "missing the 'id'"),
    ],
)
def test_load_frames_reports_the_offending_node(mutate, message):
    doc = json.loads(json.dumps(FRAMES_DOC))
    mutate(doc)
    with pytest.raises(IngestionError, match=message):
        ingest(doc)


def test_load_rules_merges_entries():
    rules = load_rules({
        "rules": [
            {"class": "Cat", "implies": ["Animal"]},
            {"class": "Cat", "implies": ["Pet"]},
            {"class": "Dog", "implies": ["Animal"]},
        ]
    })
    assert rules.implied_by("Cat") == frozenset({"Animal", "Pet"})


def test_load_rules_rejects_bad_shapes():
    with pytest.raises(IngestionError, match="missing the 'rules'"):
        load_rules({})
    with pytest.raises(IngestionError, match=r"rules\[0\].class"):
        load_rules({"rules": [{"class": 3, "implies": []}]})
    with pytest.raises(IngestionError, match=r"rules\[0\].implies\[1\]"):
        load_rules({"rules": [{"class": "Cat", "implies": ["Animal", 7]}]})


def test_ingest_applies_rule_closure():
    rules = {"rules": [{"class": "Cat", "implies": ["Animal"]}]}
    doc = ingest(FRAMES_DOC, rules)
    assert Atom("v1", "Animal") in doc.frames[0].labels("w10")
    plain = ingest(FRAMES_DOC)
    assert Atom("v1", "Animal") not in plain.frames[0].labels("w10")


def test_dump_and_load_roundtrip():
    doc = ingest(FRAMES_DOC)
    ts = build_ts(doc.frames, groups=doc.groups)
    data = dump_ts(ts)
    loaded, scores = load_ts(data)
    assert loaded == ts
    assert loaded.groups == {"both": ("a", "b")}
    assert scores is None
    assert dump_ts(loaded) == data


def test_roundtrip_with_embedded_scores():
    doc = ingest(FRAMES_DOC)
    ts = build_ts(doc.frames)
    table = score_edges(ts)
    data = dump_ts(ts, table)
    loaded, embedded = load_ts(data)
    assert loaded == ts
    assert embedded == table


def test_partial_scores_are_rejected():
    ts = build_ts(ingest(FRAMES_DOC).frames)
    data = dump_ts(ts, score_edges(ts))
    del data["edges"][0]["score"]
    with pytest.raises(IngestionError, match="every edge"):
        load_ts(data)


def _listed_edges(ts):
    """`dump_ts(ts)` with the unscored edge list that older builds wrote."""
    return {**dump_ts(ts), "edges": [{"from": u, "to": v} for u, v in ts.edges()]}


def test_load_ts_requires_exact_edge_set():
    ts = build_ts(ingest(FRAMES_DOC).frames)
    data = _listed_edges(ts)
    missing = json.loads(json.dumps(data))
    dropped = missing["edges"].pop(0)
    with pytest.raises(IngestionError, match=f"edges is missing '{dropped['from']}' -> '{dropped['to']}'"):
        load_ts(missing)
    extra = json.loads(json.dumps(data))
    extra["edges"].append({"from": "w10", "to": "w30"})
    with pytest.raises(IngestionError, match="is not an edge of the system"):
        load_ts(extra)
    doubled = json.loads(json.dumps(data))
    doubled["edges"].append(dict(doubled["edges"][0]))
    with pytest.raises(IngestionError, match="duplicates"):
        load_ts(doubled)


def test_save_and_load_through_files(tmp_path):
    ts = build_ts(ingest(FRAMES_DOC).frames)
    target = tmp_path / "ts.json"
    save_ts(ts, target)
    loaded, _ = load_ts(str(target))
    assert loaded == ts


def test_load_json_error_reporting(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        load_ts(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(IngestionError, match="not valid JSON"):
        load_ts(str(bad))


def test_load_scores_strict_validation():
    ts = build_ts(ingest(FRAMES_DOC).frames)
    edges = [
        {"from": u, "to": v, "score": 0.5} for u, v in ts.edges()
    ]
    table = load_scores({"edges": edges}, ts)
    assert len(table) == ts.edge_count
    with pytest.raises(IngestionError, match="edges is missing 'w20' -> 'w30'"):
        load_scores({"edges": edges[:-1]}, ts)
    with pytest.raises(IngestionError, match="not an edge"):
        load_scores({"edges": edges + [{"from": "w10", "to": "w30", "score": 0.5}]}, ts)
    with pytest.raises(IngestionError, match="duplicates"):
        load_scores({"edges": edges + [dict(edges[0])]}, ts)
    out_of_range = [dict(e) for e in edges]
    out_of_range[0]["score"] = 0.0
    with pytest.raises(IngestionError, match="must be in"):
        load_scores({"edges": out_of_range}, ts)
    boolean = [dict(e) for e in edges]
    boolean[0]["score"] = True
    with pytest.raises(IngestionError, match="must be a number"):
        load_scores({"edges": boolean}, ts)


def test_load_scores_reads_entries_that_json_does_not_make():
    """A Python caller may pass entries that are a dict subclass, or ids
    that are a str subclass; `_edge` checks such an entry and returns its
    ids, and the table is the one the plain entries give."""

    class Id(str):
        pass

    ts = build_ts(ingest(FRAMES_DOC).frames)
    edges = [{"from": u, "to": v, "score": 0.5} for u, v in ts.edges()]
    expected = load_scores({"edges": edges}, ts)
    for entries in ([OrderedDict(e) for e in edges],
                    [{**e, "from": Id(e["from"]), "to": Id(e["to"])} for e in edges]):
        assert load_scores({"edges": entries}, ts) == expected


def test_load_candidates():
    parsed = load_candidates({"candidates": ["x:Cat", "!p & q"]})
    assert parsed == [
        Prop(Atom("x", "Cat")),
        PAnd(PNot(Prop(Atom("p", "p"))), Prop(Atom("q", "q"))),
    ]
    with pytest.raises(IngestionError, match="must not be empty"):
        load_candidates({"candidates": []})
    with pytest.raises(IngestionError, match=r"candidates\[1\]"):
        load_candidates({"candidates": ["x:Cat", "p & &"]})
    with pytest.raises(IngestionError, match=r"candidates\[0\]"):
        load_candidates({"candidates": ["X p"]})


def test_build_from_files_uses_the_demo_data():
    ts = build_from_files(str(Path(__file__).parent / "data" / "demo_frames.json"))
    assert ts.state_count == 7
    assert total_path_count(ts) == 6
    assert ts.groups == {"both": ("a", "b")}


def test_random_documents_roundtrip():
    rng = random.Random(2468)
    for _ in range(50):
        doc = random_frames_document(rng)
        parsed = ingest(doc)
        ts = build_ts(parsed.frames, groups=parsed.groups or None)
        dumped = dump_ts(ts)
        loaded, _ = load_ts(dumped)
        assert loaded == ts
        assert dump_ts(loaded) == dumped


def _mutated(doc, mutate):
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    return doc


def _extra(e):
    """Append the entry 'w10' -> 'w30', which skips a layer."""
    e.append({"from": "w10", "to": "w30", "score": 0.5})


# A system file's edge list and a scores file follow one rule and give one
# message for each fault: (id, mutate, message), where `mutate` changes the
# five entries 'w00' -> 'w10', 'w00' -> 'w11', 'w10' -> 'w20', 'w11' -> 'w20'
# and 'w20' -> 'w30', each with score 0.5.
_EDGE_LIST_FAULTS = [
    ("non-object", lambda e: e.__setitem__(2, ["w10", "w20"]),
     "edges[2] must be an object, got list"),
    ("missing-from", lambda e: e[2].pop("from"), "edges[2] is missing the 'from' field"),
    ("missing-to", lambda e: e[1].pop("to"), "edges[1] is missing the 'to' field"),
    ("non-string-from", lambda e: e[1].__setitem__("from", None),
     "edges[1].from must be a string, got NoneType"),
    ("non-string-to", lambda e: e[2].__setitem__("to", 7), "edges[2].to must be a string, got int"),
    ("bool-score", lambda e: e[2].__setitem__("score", True),
     "edges[2]: score for edge 'w10' -> 'w20' must be a number, got True"),
    ("string-score", lambda e: e[2].__setitem__("score", "0.5"),
     "edges[2]: score for edge 'w10' -> 'w20' must be a number, got '0.5'"),
    ("zero-score", lambda e: e[4].__setitem__("score", 0),
     "edges[4]: score for edge 'w20' -> 'w30' must be in (0, 1], got 0.0"),
    ("nan", lambda e: e[1].__setitem__("score", float("nan")),
     "edges[1]: score for edge 'w00' -> 'w11' must be in (0, 1], got nan"),
    ("not-an-edge", lambda e: e.insert(1, {"from": "w00", "to": "w20", "score": 0.5}),
     "edges[1]: 'w00' -> 'w20' is not an edge of the system"),
    ("extra", _extra, "edges[5]: 'w10' -> 'w30' is not an edge of the system"),
    ("backwards", lambda e: e.append({"from": "w20", "to": "w10", "score": 0.5}),
     "edges[5]: 'w20' -> 'w10' is not an edge of the system"),
    ("unknown-from", lambda e: e.insert(0, {"from": "zz", "to": "w10", "score": 0.5}),
     "edges[0]: 'zz' -> 'w10' is not an edge of the system"),
    ("unknown-to", lambda e: e.insert(0, {"from": "w10", "to": "zz", "score": 0.5}),
     "edges[0]: 'w10' -> 'zz' is not an edge of the system"),
    ("unknown-both", lambda e: e.insert(0, {"from": "zz", "to": "yy", "score": 0.5}),
     "edges[0]: 'zz' -> 'yy' is not an edge of the system"),
    ("duplicate", lambda e: e.insert(3, dict(e[1])), "edges[3] duplicates edge 'w00' -> 'w11'"),
    ("missing", lambda e: e.pop(3), "edges is missing 'w11' -> 'w20'"),
    ("uncovered", lambda e: e.__delitem__(slice(0, 2)), "edges is missing 'w00' -> 'w10'"),
    # Two faults: the message the checks' order gives.  Each entry, its
    # score included, is checked in full before the next; coverage comes
    # after every entry, and the loaders' own rules on missing scores after
    # coverage.
    ("range-then-duplicate", lambda e: (e[0].__setitem__("score", 0.0), e.append(dict(e[1]))),
     "edges[0]: score for edge 'w00' -> 'w10' must be in (0, 1], got 0.0"),
    ("range-then-bool", lambda e: (e[1].__setitem__("score", 1.5), e[2].__setitem__("score", False)),
     "edges[1]: score for edge 'w00' -> 'w11' must be in (0, 1], got 1.5"),
    ("entries-0-and-5", lambda e: (e[0].__setitem__("from", 3), _extra(e)),
     "edges[0].from must be a string, got int"),
    ("range-0-and-extra-5", lambda e: (e[0].__setitem__("score", 2.0), _extra(e)),
     "edges[0]: score for edge 'w00' -> 'w10' must be in (0, 1], got 2.0"),
    ("unscored-0-and-extra-5", lambda e: (e[0].pop("score"), _extra(e)),
     "edges[5]: 'w10' -> 'w30' is not an edge of the system"),
    ("range-0-and-duplicate-5", lambda e: (e[0].__setitem__("score", 2), e.append(dict(e[2], score="x"))),
     "edges[0]: score for edge 'w00' -> 'w10' must be in (0, 1], got 2.0"),
    ("duplicate-1-and-bool-5", lambda e: (e.insert(1, dict(e[0])), e[5].__setitem__("score", True)),
     "edges[1] duplicates edge 'w00' -> 'w10'"),
    ("missing-and-extra", lambda e: (e.pop(3), _extra(e)),
     "edges[4]: 'w10' -> 'w30' is not an edge of the system"),
    ("int-then-uncovered", lambda e: (e[1].__setitem__("score", 1), e.pop(3)),
     "edges is missing 'w11' -> 'w20'"),
    ("range-then-missing", lambda e: (e[0].__setitem__("score", 0.0), e.pop(3)),
     "edges[0]: score for edge 'w00' -> 'w10' must be in (0, 1], got 0.0"),
    ("unscored-then-missing", lambda e: (e[0].pop("score"), e.pop(3)),
     "edges is missing 'w11' -> 'w20'"),
]

# What only a system file's edge list has: scores are all there or none.
_SYSTEM_EDGE_FAULTS = [
    ("partial-scores", lambda e: e[4].pop("score"), "either every edge must carry a score or none may"),
    ("int-then-zero", lambda e: (e[1].__setitem__("score", 1), e[3].__setitem__("score", 0)),
     "edges[3]: score for edge 'w11' -> 'w20' must be in (0, 1], got 0.0"),
    ("unscored-and-zero", lambda e: (e[0].pop("score"), e[1].__setitem__("score", 0)),
     "edges[1]: score for edge 'w00' -> 'w11' must be in (0, 1], got 0.0"),
    ("unscored-and-bool", lambda e: (e[0].pop("score"), e[2].__setitem__("score", False)),
     "edges[2]: score for edge 'w10' -> 'w20' must be a number, got False"),
]

# What only a scores file has: every entry needs a score.
_SCORES_FILE_FAULTS = [
    ("missing-score", lambda e: e[1].pop("score"), "edges[1] is missing the 'score' field"),
    ("int-then-zero", lambda e: (e[1].__setitem__("score", 1), e[3].__setitem__("score", 0)),
     "edges[3]: score for edge 'w11' -> 'w20' must be in (0, 1], got 0.0"),
    ("unscored-and-zero", lambda e: (e[3].pop("score"), e[1].__setitem__("score", 0)),
     "edges[1]: score for edge 'w00' -> 'w11' must be in (0, 1], got 0.0"),
    ("unscored-then-zero", lambda e: (e[1].pop("score"), e[3].__setitem__("score", 0)),
     "edges[3]: score for edge 'w11' -> 'w20' must be in (0, 1], got 0.0"),
]


def _faults(rows):
    return [pytest.param(mutate, message, id=name) for name, mutate, message in rows]


def _entries(ts):
    """The edge list of `ts` in order, each entry with score 0.5."""
    assert list(ts.edges()) == [("w00", "w10"), ("w00", "w11"), ("w10", "w20"),
                                ("w11", "w20"), ("w20", "w30")]
    return [{"from": u, "to": v, "score": 0.5} for u, v in ts.edges()]


@pytest.mark.parametrize("mutate, message", _faults(_EDGE_LIST_FAULTS + _SYSTEM_EDGE_FAULTS))
def test_load_ts_names_each_malformed_edge_entry(mutate, message):
    ts = build_ts(ingest(FRAMES_DOC).frames)
    with pytest.raises(IngestionError) as info:
        load_ts({**dump_ts(ts), "edges": _mutated(_entries(ts), mutate)})
    assert str(info.value) == message


@pytest.mark.parametrize("mutate, message", _faults(_EDGE_LIST_FAULTS + _SCORES_FILE_FAULTS))
def test_load_scores_names_each_malformed_entry(mutate, message):
    ts = build_ts(ingest(FRAMES_DOC).frames)
    with pytest.raises(IngestionError) as info:
        load_scores({"edges": _mutated(_entries(ts), mutate)}, ts)
    assert str(info.value) == message


def test_load_ts_accepts_a_permuted_edge_list():
    ts = build_ts(ingest(FRAMES_DOC).frames)
    table = score_edges(ts, lambda a, b: 0.5)
    data = dump_ts(ts, table)
    data["edges"].reverse()
    loaded, embedded = load_ts(data)
    assert loaded == ts
    assert embedded == table


@pytest.mark.parametrize("seed", range(4))
def test_both_edge_lists_load_alike_in_any_order(seed):
    rng = random.Random(seed)
    parsed = ingest(random_frames_document(rng, max_frames=4, max_worlds=4))
    ts = build_ts(parsed.frames, groups=parsed.groups or None)
    table = score_edges(ts)
    doc = dump_ts(ts, table)
    in_order = doc["edges"]
    assert load_ts(doc) == (ts, table)
    assert load_scores({"edges": in_order}, ts) == table
    shuffled = list(in_order)
    rng.shuffle(shuffled)
    for entries in (in_order[::-1], shuffled):
        assert entries != in_order
        loaded, embedded = load_ts({**doc, "edges": entries})
        assert loaded == ts
        assert embedded == table
        assert load_scores({"edges": entries}, ts) == table


def test_save_ts_writes_one_compact_line(tmp_path):
    doc = random_frames_document(random.Random(97))
    parsed = ingest(doc)
    ts = build_ts(parsed.frames, groups=parsed.groups or None)
    table = score_edges(ts)
    target = tmp_path / "ts.json"
    save_ts(ts, target, table)
    text = target.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert json.loads(text) == dump_ts(ts, table)
    loaded, embedded = load_ts(str(target))
    assert loaded == ts
    assert embedded == table


def test_load_ts_reads_indented_files(tmp_path):
    ts = build_ts(ingest(FRAMES_DOC).frames)
    table = score_edges(ts)
    target = tmp_path / "ts.json"
    target.write_text(json.dumps(dump_ts(ts, table), indent=2) + "\n")
    loaded, embedded = load_ts(str(target))
    assert loaded == ts
    assert embedded == table


def test_atoms_shared_across_worlds_are_checked_in_every_world():
    # A pair validated once in the document is reused; a bad pair anywhere
    # later is still reported at its own node.
    doc = json.loads(json.dumps(FRAMES_DOC))
    doc["frames"][1]["worlds"][0]["atoms"] = [["v1", "Cat"], ["v1", 7]]
    with pytest.raises(IngestionError) as info:
        ingest(doc)
    assert str(info.value) == "frames[1].worlds[0].atoms[1][1] must be a string, got int"
    doc["frames"][1]["worlds"][0]["atoms"] = ["v1Cat"]
    with pytest.raises(IngestionError, match=r"frames\[1\]\.worlds\[0\]\.atoms\[0\] must be an array"):
        ingest(doc)
    doc["frames"][1]["worlds"][0]["atoms"] = [["v1", "Cat"]]
    parsed = ingest(doc)
    assert parsed.frames[0].labels("w10") == parsed.frames[1].labels("w20")


def test_unscored_dump_has_no_edge_list_and_round_trips(tmp_path):
    rng = random.Random(1357)
    for _ in range(20):
        parsed = ingest(random_frames_document(rng))
        ts = build_ts(parsed.frames, groups=parsed.groups or None)
        data = dump_ts(ts)
        assert "edges" not in data
        assert load_ts(data) == (ts, None)
        assert load_ts(_listed_edges(ts)) == (ts, None)
        target = tmp_path / "ts.json"
        save_ts(ts, target)
        assert "edges" not in json.loads(target.read_text())
        assert load_ts(str(target)) == (ts, None)


def test_scored_dump_lists_every_edge():
    parsed = ingest(random_frames_document(random.Random(2024), max_frames=4))
    ts = build_ts(parsed.frames)
    table = score_edges(ts)
    edges = dump_ts(ts, table)["edges"]
    assert [(e["from"], e["to"]) for e in edges] == list(ts.edges())
    assert [e["score"] for e in edges] == [table[edge] for edge in ts.edges()]


def test_system_file_with_listed_edges_from_older_builds_loads():
    listed = DATA / "demo_ts_listed_edges.json"
    doc = json.loads(listed.read_text())
    assert len(doc["edges"]) == 11
    assert all(set(entry) == {"from", "to"} for entry in doc["edges"])
    ts = build_from_files(DATA / "demo_frames.json")
    assert load_ts(str(listed)) == (ts, None)
    assert load_ts(dump_ts(ts)) == (ts, None)


@pytest.mark.parametrize("loader, key", [(ingest, "frames"), (load_ts, "layers")])
def test_empty_world_id_is_reported_at_its_node(loader, key):
    doc = FRAMES_DOC if key == "frames" else dump_ts(build_ts(ingest(FRAMES_DOC).frames))
    doc = json.loads(json.dumps(doc))
    doc[key][1]["worlds"][0]["id"] = ""
    with pytest.raises(IngestionError) as info:
        loader(doc)
    assert str(info.value) == f"{key}[1].worlds[0]: world id must be a non-empty string, got ''"


@pytest.mark.parametrize("loader, key, i", [(ingest, "frames", 0), (load_ts, "layers", 1)])
def test_two_faults_in_a_frame_are_reported_in_the_order_of_the_checks(loader, key, i):
    """A world's atoms come before its id, a frame's ids are compared once
    all its worlds are read, and every relation's agent is checked before
    any relation's pairs."""
    base = FRAMES_DOC if key == "frames" else dump_ts(build_ts(ingest(FRAMES_DOC).frames))
    faults = [
        (lambda w, r: w[0].update(id="", atoms="x"), f"{key}[{i}].worlds[0].atoms must be an array, got str"),
        (lambda w, r: (w[0].update(id="w11"), w[1].update(atoms="x")),
         f"{key}[{i}].worlds[1].atoms must be an array, got str"),
        (lambda w, r: (w[0].update(id="w11"), r.update(zz=[])), f"{key}[{i}]: duplicate world id 'w11'"),
        (lambda w, r: r.update(b=[["w10", "nowhere"]], zz=[]), f"{key}[{i}].relations names unknown agent 'zz'"),
    ]
    for mutate, message in faults:
        doc = json.loads(json.dumps(base))
        mutate(doc[key][i]["worlds"], doc[key][i]["relations"])
        with pytest.raises(IngestionError) as info:
            loader(doc)
        assert str(info.value) == message


# Differential corpus: one corrupted node per document, each message pinned.

_ATOM_LISTS = ([["v", "C"]], [["v", "C"], ["u", "Dog"]], [], [["u", "Dog"]], [["v", "Cat"]])


def _corpus_frames_doc(rng):
    """A valid frames document with repeated atom lists, one-letter ids among them."""
    frames = []
    for i in range(4):
        ids = [f"f{i}w{k}" for k in range(3)]
        frames.append({
            "worlds": [{"id": wid, "atoms": json.loads(json.dumps(rng.choice(_ATOM_LISTS)))}
                       for wid in ids],
            "relations": {"a": [rng.sample(ids, 2)], "b": []},
        })
    return {"agents": ["a", "b"], "frames": frames}


def _corpus_doc(key, seed):
    rng = random.Random(seed)
    doc = _corpus_frames_doc(rng)
    if key == "layers":
        doc = listed_atoms(dump_ts(build_ts(ingest(doc).frames)))
    return doc, rng


def _some_world(doc, key, rng, *, atoms=False):
    """A random world node; with `atoms`, one that holds at least one atom."""
    worlds = [w for layer in doc[key] for w in layer["worlds"] if w.get("atoms") or not atoms]
    return rng.choice(worlds)


def _set_atom(value):
    def mutate(doc, key, rng):
        world = _some_world(doc, key, rng, atoms=True)
        world["atoms"][rng.randrange(len(world["atoms"]))] = value
    return mutate


def _set_world(field, value):
    def mutate(doc, key, rng):
        world = _some_world(doc, key, rng)
        if value is None:
            del world[field]
        else:
            world[field] = value
    return mutate


def _replace_world(value):
    def mutate(doc, key, rng):
        layer = rng.choice(doc[key])
        layer["worlds"][rng.randrange(len(layer["worlds"]))] = value
    return mutate


def _unpaired(layer):
    """The worlds of a layer that no relation pair names."""
    named = {wid for pairs in layer.get("relations", {}).values() for pair in pairs for wid in pair}
    return [w for w in layer["worlds"] if w["id"] not in named]


def _duplicate_id_in_layer(doc, key, rng):
    layer = rng.choice([layer for layer in doc[key] if len(layer["worlds"]) >= 2 and _unpaired(layer)])
    victim = rng.choice(_unpaired(layer))
    victim["id"] = rng.choice([w for w in layer["worlds"] if w is not victim])["id"]


def _duplicate_id_across_layers(doc, key, rng):
    upper = rng.choice([i for i, layer in enumerate(doc[key]) if i and _unpaired(layer)])
    lower = rng.randrange(upper)
    rng.choice(_unpaired(doc[key][upper]))["id"] = rng.choice(doc[key][lower]["worlds"])["id"]


def _set_relation(agent, make_pairs):
    def mutate(doc, key, rng):
        layer = rng.choice(doc[key])
        ids = [w["id"] for w in layer["worlds"]]
        layer.setdefault("relations", {})[agent] = make_pairs(ids, rng)
    return mutate


_CORRUPTIONS = {
    "world-int": _replace_world(7),
    "world-string": _replace_world("f0w0"),
    "world-list": _replace_world([["v", "C"]]),
    "world-null": _replace_world(None),
    "world-id-missing": _set_world("id", None),
    "world-id-empty": _set_world("id", ""),
    "world-id-int": _set_world("id", 5),
    "world-id-list": _set_world("id", ["f0w0"]),
    "atoms-string": _set_world("atoms", "vC"),
    "atoms-object": _set_world("atoms", {"v": "C"}),
    "atoms-int": _set_world("atoms", 3),
    "atoms-strings": _set_world("atoms", ["vC"]),
    "atoms-objects": _set_world("atoms", [{"v": 0, "C": 0}, ["u", "Dog"]]),
    "atom-string": _set_atom("vC"),
    "atom-object": _set_atom({"v": 0, "C": 0}),
    "atom-3-list": _set_atom(["v", "C", "x"]),
    "atom-1-list": _set_atom(["v"]),
    "atom-int-member": _set_atom(["v", 7]),
    "atom-null-member": _set_atom([None, "C"]),
    "atom-list-member": _set_atom([["v"], "C"]),
    "atom-empty-member": _set_atom(["", "C"]),
    "atom-colon": _set_atom(["v", "C:t"]),
    "atom-paren": _set_atom(["v(", "C"]),
    "atom-space": _set_atom(["v", "C t"]),
    "duplicate-id-in-layer": _duplicate_id_in_layer,
    "duplicate-id-across-layers": _duplicate_id_across_layers,
    "relation-unknown-agent": _set_relation("zz", lambda ids, rng: []),
    "relation-unknown-world": _set_relation("a", lambda ids, rng: [[rng.choice(ids), "nowhere"]]),
    "relation-string-pair": _set_relation("b", lambda ids, rng: [ids[0]]),
    "relation-1-list-pair": _set_relation("a", lambda ids, rng: [[ids[0]]]),
    "relation-int-member": _set_relation("a", lambda ids, rng: [[ids[0], 5]]),
    "relation-not-list": _set_relation("b", lambda ids, rng: {"x": ids[0]}),
    "duplicate-agent": lambda doc, key, rng: doc["agents"].append("a"),
    "empty-agent": lambda doc, key, rng: doc["agents"].append(""),
    "empty-roster": lambda doc, key, rng: doc.__setitem__("agents", []),
    "group-unknown-member": lambda doc, key, rng: doc.__setitem__("groups", {"g": ["a", "zz"]}),
}


def _corrupted_documents():
    """(key, corruption, message or "ok") for each seeded corrupted document."""
    for key, loader in (("layers", load_ts), ("frames", ingest)):
        for seed, (name, mutate) in enumerate(_CORRUPTIONS.items()):
            doc, rng = _corpus_doc(key, seed)
            mutate(doc, key, rng)
            try:
                loader(doc)
            except IngestionError as exc:
                yield key, name, str(exc)
            else:
                yield key, name, "ok"


# Each message as the loaders report it.  A bad world id is reported by
# `World(...)`, with the world's location in front.
_PINNED = {
    ("layers", "world-int"):
        "layers[2].worlds[0] must be an object, got int",
    ("layers", "world-string"):
        "layers[2].worlds[2] must be an object, got str",
    ("layers", "world-list"):
        "layers[0].worlds[0] must be an object, got list",
    ("layers", "world-null"):
        "layers[5].worlds[0] must be an object, got NoneType",
    ("layers", "world-id-missing"):
        "layers[5].worlds[0] is missing the 'id' field",
    ("layers", "world-id-empty"):
        "layers[2].worlds[2]: world id must be a non-empty string, got ''",
    ("layers", "world-id-int"):
        "layers[1].worlds[2]: world id must be a non-empty string, got 5",
    ("layers", "world-id-list"):
        "layers[0].worlds[0]: world id must be a non-empty string, got ['f0w0']",
    ("layers", "atoms-string"):
        "layers[1].worlds[0].atoms must be an array, got str",
    ("layers", "atoms-object"):
        "layers[1].worlds[1].atoms must be an array, got dict",
    ("layers", "atoms-int"):
        "layers[3].worlds[2].atoms must be an array, got int",
    ("layers", "atoms-strings"):
        "layers[4].worlds[0].atoms[0] must be an array, got str",
    ("layers", "atoms-objects"):
        "layers[2].worlds[1].atoms[0] must be an array, got dict",
    ("layers", "atom-string"):
        "layers[2].worlds[0].atoms[1] must be an array, got str",
    ("layers", "atom-object"):
        "layers[1].worlds[2].atoms[0] must be an array, got dict",
    ("layers", "atom-3-list"):
        "layers[2].worlds[0].atoms[0] must be a [data_id, class_id] pair",
    ("layers", "atom-1-list"):
        "layers[2].worlds[1].atoms[0] must be a [data_id, class_id] pair",
    ("layers", "atom-int-member"):
        "layers[2].worlds[1].atoms[0][1] must be a string, got int",
    ("layers", "atom-null-member"):
        "layers[2].worlds[0].atoms[0][0] must be a string, got NoneType",
    ("layers", "atom-list-member"):
        "layers[1].worlds[0].atoms[0][0] must be a string, got list",
    ("layers", "atom-empty-member"):
        "layers[3].worlds[0].atoms[1]: atom data id must be a non-empty string",
    ("layers", "atom-colon"):
        "layers[2].worlds[0].atoms[0]: atom class id 'C:t' may not contain whitespace, unprintable characters or any of : , ( ) [ ] { }",
    ("layers", "atom-paren"):
        "layers[2].worlds[1].atoms[0]: atom data id 'v(' may not contain whitespace, unprintable characters or any of : , ( ) [ ] { }",
    ("layers", "atom-space"):
        "layers[4].worlds[0].atoms[0]: atom class id 'C t' may not contain whitespace, unprintable characters or any of : , ( ) [ ] { }",
    ("layers", "duplicate-id-in-layer"):
        "layers[3]: duplicate world id 'f2w0'",
    ("layers", "duplicate-id-across-layers"):
        "system document: world id 'f2w2' appears in two layers",
    ("layers", "relation-unknown-agent"):
        "layers[4].relations names unknown agent 'zz'",
    ("layers", "relation-unknown-world"):
        "layers[4].relations['a']: relation pair ('f3w1', 'nowhere') references unknown world id 'nowhere'",
    ("layers", "relation-string-pair"):
        "layers[1].relations['b'][0] must be an array, got str",
    ("layers", "relation-1-list-pair"):
        "layers[5].relations['a'][0] must be a [left, right] world-id pair",
    ("layers", "relation-int-member"):
        "layers[5].relations['a'][0][1] must be a string, got int",
    ("layers", "relation-not-list"):
        "layers[4].relations['b'] must be an array, got dict",
    ("layers", "duplicate-agent"):
        "agents: duplicate agent 'a' in roster",
    ("layers", "empty-agent"):
        "agents: agent name must be a non-empty string, got ''",
    ("layers", "empty-roster"):
        "agents must not be empty",
    ("layers", "group-unknown-member"):
        "groups: group 'g' lists unknown agent 'zz'",
    ("frames", "world-int"):
        "frames[2].worlds[0] must be an object, got int",
    ("frames", "world-string"):
        "frames[2].worlds[2] must be an object, got str",
    ("frames", "world-list"):
        "frames[0].worlds[0] must be an object, got list",
    ("frames", "world-null"):
        "frames[1].worlds[0] must be an object, got NoneType",
    ("frames", "world-id-missing"):
        "frames[0].worlds[1] is missing the 'id' field",
    ("frames", "world-id-empty"):
        "frames[2].worlds[0]: world id must be a non-empty string, got ''",
    ("frames", "world-id-int"):
        "frames[1].worlds[0]: world id must be a non-empty string, got 5",
    ("frames", "world-id-list"):
        "frames[0].worlds[0]: world id must be a non-empty string, got ['f0w0']",
    ("frames", "atoms-string"):
        "frames[0].worlds[1].atoms must be an array, got str",
    ("frames", "atoms-object"):
        "frames[0].worlds[2].atoms must be an array, got dict",
    ("frames", "atoms-int"):
        "frames[3].worlds[0].atoms must be an array, got int",
    ("frames", "atoms-strings"):
        "frames[3].worlds[1].atoms[0] must be an array, got str",
    ("frames", "atoms-objects"):
        "frames[1].worlds[2].atoms[0] must be an array, got dict",
    ("frames", "atom-string"):
        "frames[1].worlds[0].atoms[1] must be an array, got str",
    ("frames", "atom-object"):
        "frames[0].worlds[2].atoms[0] must be an array, got dict",
    ("frames", "atom-3-list"):
        "frames[1].worlds[0].atoms[0] must be a [data_id, class_id] pair",
    ("frames", "atom-1-list"):
        "frames[1].worlds[1].atoms[0] must be a [data_id, class_id] pair",
    ("frames", "atom-int-member"):
        "frames[1].worlds[1].atoms[0][1] must be a string, got int",
    ("frames", "atom-null-member"):
        "frames[1].worlds[0].atoms[0][0] must be a string, got NoneType",
    ("frames", "atom-list-member"):
        "frames[0].worlds[0].atoms[0][0] must be a string, got list",
    ("frames", "atom-empty-member"):
        "frames[2].worlds[0].atoms[1]: atom data id must be a non-empty string",
    ("frames", "atom-colon"):
        "frames[1].worlds[0].atoms[0]: atom class id 'C:t' may not contain whitespace, unprintable characters or any of : , ( ) [ ] { }",
    ("frames", "atom-paren"):
        "frames[1].worlds[1].atoms[0]: atom data id 'v(' may not contain whitespace, unprintable characters or any of : , ( ) [ ] { }",
    ("frames", "atom-space"):
        "frames[3].worlds[0].atoms[0]: atom class id 'C t' may not contain whitespace, unprintable characters or any of : , ( ) [ ] { }",
    ("frames", "duplicate-id-in-layer"):
        "frames[2]: duplicate world id 'f2w0'",
    ("frames", "duplicate-id-across-layers"):
        "ok",
    ("frames", "relation-unknown-agent"):
        "frames[3].relations names unknown agent 'zz'",
    ("frames", "relation-unknown-world"):
        "frames[3].relations['a']: relation pair ('f3w1', 'nowhere') references unknown world id 'nowhere'",
    ("frames", "relation-string-pair"):
        "frames[1].relations['b'][0] must be an array, got str",
    ("frames", "relation-1-list-pair"):
        "frames[1].relations['a'][0] must be a [left, right] world-id pair",
    ("frames", "relation-int-member"):
        "frames[2].relations['a'][0][1] must be a string, got int",
    ("frames", "relation-not-list"):
        "frames[3].relations['b'] must be an array, got dict",
    ("frames", "duplicate-agent"):
        "agents: duplicate agent 'a' in roster",
    ("frames", "empty-agent"):
        "agents: agent name must be a non-empty string, got ''",
    ("frames", "empty-roster"):
        "agents must not be empty",
    ("frames", "group-unknown-member"):
        "groups: group 'g' lists unknown agent 'zz'",
}


def test_corrupted_documents_keep_their_messages():
    found = {(key, name): message for key, name, message in _corrupted_documents()}
    assert found == _PINNED


# Faults of the roster and the groups, which both documents share.
_HEADER_FAULTS = [
    ("agents-empty", lambda doc: doc.__setitem__("agents", []), "agents must not be empty"),
    ("agent-int", lambda doc: doc["agents"].__setitem__(1, 3), "agents[1] must be a string, got int"),
    ("agent-empty", lambda doc: doc["agents"].append(""),
     "agents: agent name must be a non-empty string, got ''"),
    ("agent-duplicate", lambda doc: doc["agents"].append("a"), "agents: duplicate agent 'a' in roster"),
    ("groups-list", lambda doc: doc.__setitem__("groups", [["a"]]), "groups must be an object, got list"),
    ("group-string", lambda doc: doc["groups"].__setitem__("both", "ab"),
     "groups['both'] must be an array, got str"),
    ("group-member-int", lambda doc: doc["groups"]["both"].append(2),
     "groups['both'][2] must be a string, got int"),
    ("group-empty", lambda doc: doc["groups"].__setitem__("both", []),
     "groups: group 'both' must not be empty"),
    ("group-collides", lambda doc: doc["groups"].__setitem__("a", ["b"]),
     "groups: group name 'a' collides with an agent id"),
    ("group-unknown-member", lambda doc: doc["groups"]["both"].append("zz"),
     "groups: group 'both' lists unknown agent 'zz'"),
    # One group with two faults: its name is checked before its members.
    ("group-collides-and-unknown", lambda doc: doc["groups"].__setitem__("a", ["zz"]),
     "groups: group name 'a' collides with an agent id"),
]


@pytest.mark.parametrize("mutate, message", _faults(_HEADER_FAULTS))
def test_both_loaders_give_one_message_for_each_roster_or_group_fault(mutate, message):
    frames_doc = _mutated(FRAMES_DOC, mutate)
    system_doc = _mutated(dump_ts(build_ts(ingest(FRAMES_DOC).frames, groups={"both": ("a", "b")})),
                          mutate)
    for loader, doc in ((ingest, frames_doc), (load_ts, system_doc)):
        with pytest.raises(IngestionError) as info:
            loader(doc)
        assert str(info.value) == message


def _indexed_doc():
    """The written system document of FRAMES_DOC, with atom_sets [[], [v1:Cat], [v1:Dog]]."""
    return json.loads(json.dumps(dump_ts(build_ts(ingest(FRAMES_DOC).frames))))


def _set_world_atoms(value):
    return lambda doc: doc["layers"][1]["worlds"][1].__setitem__("atoms", value)


@pytest.mark.parametrize("mutate, message", [
    (_set_world_atoms(True),
     "layers[1].worlds[1].atoms must be an index into atom_sets (3 entries), got True"),
    (_set_world_atoms(False),
     "layers[1].worlds[1].atoms must be an index into atom_sets (3 entries), got False"),
    (_set_world_atoms(-1),
     "layers[1].worlds[1].atoms must be an index into atom_sets (3 entries), got -1"),
    (_set_world_atoms(3),
     "layers[1].worlds[1].atoms must be an index into atom_sets (3 entries), got 3"),
    (_set_world_atoms(10 ** 30),
     f"layers[1].worlds[1].atoms must be an index into atom_sets (3 entries), got {10 ** 30}"),
    (_set_world_atoms(1.0), "layers[1].worlds[1].atoms must be an array, got float"),
    (_set_world_atoms("1"), "layers[1].worlds[1].atoms must be an array, got str"),
    (lambda doc: doc.pop("atom_sets"), "layers[0].worlds[0].atoms must be an array, got int"),
    (lambda doc: doc.__setitem__("atom_sets", []),
     "layers[0].worlds[0].atoms must be an index into atom_sets (0 entries), got 0"),
    (lambda doc: doc.__setitem__("atom_sets", {"0": []}), "atom_sets must be an array, got dict"),
    (lambda doc: doc["atom_sets"].__setitem__(1, "v1Cat"), "atom_sets[1] must be an array, got str"),
    (lambda doc: doc["atom_sets"].__setitem__(1, 1), "atom_sets[1] must be an array, got int"),
    (lambda doc: doc["atom_sets"][2].append(["v1"]),
     "atom_sets[2][1] must be a [data_id, class_id] pair"),
    (lambda doc: doc["atom_sets"][1].__setitem__(0, ["v1", 7]),
     "atom_sets[1][0][1] must be a string, got int"),
    (lambda doc: doc["atom_sets"][1].__setitem__(0, ["v1", "C t"]),
     "atom_sets[1][0]: atom class id 'C t' may not contain whitespace, unprintable characters "
     "or any of : , ( ) [ ] { }"),
    # An entry no world uses is checked all the same.
    (lambda doc: doc["atom_sets"].append([{"v1": "Cat"}]), "atom_sets[3][0] must be an array, got dict"),
    (lambda doc: doc["layers"][0]["worlds"].append({"id": "w01", "atoms": 0}),
     "system document: endpoint layer 0 must hold exactly one world with no atoms"),
    (lambda doc: doc["layers"][3]["worlds"][0].__setitem__("atoms", 1),
     "system document: endpoint layer 3 must hold exactly one world with no atoms"),
    (lambda doc: doc["layers"][1]["relations"]["a"][0].__setitem__(0, 7),
     "layers[1].relations['a'][0][0] must be a string, got int"),
], ids=["bool", "false", "negative", "past-the-end", "huge", "float", "string",
        "index-without-atom-sets", "empty-atom-sets", "atom-sets-object", "entry-string",
        "entry-int", "entry-1-list-atom", "entry-int-member", "entry-bad-class", "unused-entry",
        "endpoint-second-world", "endpoint-atoms", "relation-int-left-member"])
def test_atom_set_indices_and_entries_are_checked(mutate, message):
    doc = _indexed_doc()
    mutate(doc)
    with pytest.raises(IngestionError) as info:
        load_ts(doc)
    assert str(info.value) == message


def test_indexed_listed_and_mixed_atoms_load_to_equal_systems():
    ts = build_ts(ingest(FRAMES_DOC).frames)
    indexed = _indexed_doc()
    listed = listed_atoms(indexed)
    assert "atom_sets" not in listed
    assert listed["layers"][1]["worlds"][1]["atoms"] == [["v1", "Dog"]]
    mixed = json.loads(json.dumps(indexed))
    mixed["layers"][1]["worlds"][0]["atoms"] = [["v1", "Cat"]]
    mixed["layers"][2]["worlds"][0]["atoms"] = []
    # Entries unused, repeated or out of order are allowed.
    reordered = json.loads(json.dumps(indexed))
    reordered["atom_sets"] = [[["v1", "Dog"]], [["v1", "Dog"]], [], [["v1", "Cat"]], [["x", "Fox"]]]
    for world, index in zip((w for layer in reordered["layers"] for w in layer["worlds"]),
                            (2, 3, 1, 2, 2)):
        world["atoms"] = index
    for doc in (indexed, listed, mixed, reordered):
        loaded, scores = load_ts(doc)
        assert (loaded, scores) == (ts, None)
        assert dump_ts(loaded) == indexed
    # A listed world shares the set of the equal atom_sets entry.
    loaded, _ = load_ts(mixed)
    assert loaded.layers[2].worlds[0].atoms is loaded.layers[0].worlds[0].atoms


def _public_model(entry, agents, close=frozenset):
    """The model of a frame or layer entry, built through the checking constructors."""
    worlds = [World(w["id"], close([Atom(*pair) for pair in w.get("atoms", [])]))
              for w in entry["worlds"]]
    return model_from_pairs(worlds, agents, entry.get("relations", {}))


def _atom_sets_by_list(worlds_by_entry, doc_entries):
    """JSON atom list -> the ids of the distinct atom sets loaded for it."""
    shared: dict = {}
    for model, entry in zip(worlds_by_entry, doc_entries):
        for world, node in zip(model.worlds, entry["worlds"]):
            shared.setdefault(json.dumps(node.get("atoms", [])), set()).add(id(world.atoms))
    return shared


@pytest.mark.parametrize("seed", range(40))
def test_loaded_documents_share_atom_sets_and_equal_the_checked_build(seed):
    rng = random.Random(seed)
    frames = random_frames_document(rng, max_frames=4) if seed % 2 else _corpus_doc("frames", seed)[0]
    agents = tuple(frames["agents"])
    indexed = json.loads(json.dumps(dump_ts(build_ts(ingest(frames).frames))))
    system = listed_atoms(indexed)

    layers = [_public_model(entry, agents) for entry in system["layers"]]
    for doc in (system, indexed):
        ts, _ = load_ts(doc)
        assert ts == TransitionSystem(layers)
        assert all(len(ids) == 1 for ids in _atom_sets_by_list(ts.layers, system["layers"]).values())

    rules_doc = {"rules": [{"class": "Cat", "implies": ["Animal"]}, {"class": "C", "implies": ["Cat"]},
                           {"class": "Dog", "implies": ["Animal", "Pet"]}]}
    rules = RuleSet({"Cat": ["Animal"], "C": ["Cat"], "Dog": ["Animal", "Pet"]})
    doc = ingest(frames, rules_doc)
    closed = [_public_model(entry, agents, lambda atoms: rule_closure(atoms, rules))
              for entry in frames["frames"]]
    assert doc.frames == closed
    assert all(len(ids) == 1 for ids in _atom_sets_by_list(doc.frames, frames["frames"]).values())


def _reference_dump(ts, scores=None):
    """The system document layout that `save_ts` writes, built the plain way."""
    doc = {"agents": list(ts.agents)}
    if ts.groups:
        doc["groups"] = {name: list(members) for name, members in ts.groups.items()}
    atom_sets = []
    layers = []
    for model in ts.layers:
        relations = {}
        for agent in ts.agents:
            pairs = []
            for block in model.partition(agent):
                members = sorted(block)
                pairs.extend([a, b] for a, b in zip(members, members[1:]))
            relations[agent] = pairs
        worlds = []
        for w in model.worlds:
            atoms = [[a.data_id, a.class_id] for a in sorted(w.atoms)]
            if atoms not in atom_sets:
                atom_sets.append(atoms)
            worlds.append({"id": w.id, "atoms": atom_sets.index(atoms)})
        layers.append({"worlds": worlds, "relations": relations})
    doc["atom_sets"] = atom_sets
    doc["layers"] = layers
    if scores is not None:
        doc["edges"] = [{"from": u, "to": v, "score": scores[(u, v)]} for u, v in ts.edges()]
    return doc


def test_save_ts_bytes_match_the_reference_layout(tmp_path):
    rng = random.Random(8642)
    target = tmp_path / "ts.json"
    for k in range(30):
        parsed = ingest(random_frames_document(rng, max_frames=4) if k % 3 else _corpus_doc("frames", k)[0])
        ts = build_ts(parsed.frames, groups=parsed.groups or None)
        for scores in (None, score_edges(ts)):
            save_ts(ts, target, scores)
            assert target.read_bytes() == (json.dumps(_reference_dump(ts, scores)) + "\n").encode()
            loaded, _ = load_ts(str(target))
            save_ts(loaded, target, scores)
            assert target.read_bytes() == (json.dumps(_reference_dump(ts, scores)) + "\n").encode()


def _singleton_ts():
    """A system in which every agent tells every world apart."""
    frames = [PALModel([World(f"s{i}x{k}", [Atom("v", "Cat")]) for k in range(3)], ["a", "b"])
              for i in range(2)]
    return build_ts(frames)


@pytest.mark.parametrize("scored", [False, True], ids=["unscored", "scored"])
def test_save_ts_writes_the_compact_dump_and_nothing_for_singletons(tmp_path, scored):
    rng = random.Random(4321)
    target = tmp_path / "ts.json"
    for ts in [_singleton_ts()] + [random_ts(rng, max_frames=5, max_worlds=5) for _ in range(40)]:
        scores = score_edges(ts) if scored else None
        save_ts(ts, target, scores)
        written = target.read_bytes()
        assert written == (json.dumps(dump_ts(ts, scores)) + "\n").encode()
        relations = [layer["relations"] for layer in json.loads(written)["layers"]]
        for model, listed in zip(ts.layers, relations):
            for agent in ts.agents:
                if all(len(block) == 1 for block in model.partition(agent)):
                    assert listed[agent] == []
        loaded, embedded = load_ts(str(target))
        assert (loaded, embedded) == (ts, scores)
        save_ts(loaded, target, embedded)
        assert target.read_bytes() == written


def test_ingest_reports_frame_errors_before_rule_errors(tmp_path):
    frames = json.loads(json.dumps(FRAMES_DOC))
    frames["frames"][1]["worlds"][0]["id"] = 3
    bad_rules = {"rules": [{"class": "Cat", "implies": [7]}]}
    unreadable = str(tmp_path / "missing.json")
    for rules in (bad_rules, unreadable):
        with pytest.raises(IngestionError) as info:
            ingest(frames, rules)
        assert str(info.value) == "frames[1].worlds[0]: world id must be a non-empty string, got 3"
    with pytest.raises(IngestionError) as info:
        ingest(FRAMES_DOC, bad_rules)
    assert str(info.value) == "rules[0].implies[0] must be a string, got int"


# A loaded system checks every relation, but closes an agent's relation into
# its partition only when that partition is first read.


def _system_of(frames_doc):
    """A system document whose real layers are the frames of `frames_doc`,
    so that its relations are listed as written, not as `dump_ts` writes them."""
    ends = [{"worlds": [{"id": "start"}]}, {"worlds": [{"id": "end"}]}]
    doc = {"agents": frames_doc["agents"], "layers": [ends[0], *frames_doc["frames"], ends[1]]}
    if "groups" in frames_doc:
        doc["groups"] = frames_doc["groups"]
    return json.loads(json.dumps(doc))


def _closed_relations(monkeypatch) -> list:
    """The smallest world id of each relation closed from here on, in order."""
    closed = []
    merge = model_module._merge

    def counting(pairs, ids):
        closed.append(min(ids))
        return merge(pairs, ids)

    monkeypatch.setattr(model_module, "_merge", counting)
    return closed


def _deferral_cases():
    for seed in range(40):
        rng = random.Random(seed)
        yield f"random_ts-{seed}", json.loads(json.dumps(dump_ts(random_ts(rng, max_frames=4, max_worlds=5))))
        yield f"frames-{seed}", _system_of(random_frames_document(rng, max_frames=4, max_worlds=5))
    yield "stream-1000x10", _system_of(stream_frames_document(random.Random(101)))


_DEFERRAL_CASES = list(_deferral_cases())


@pytest.mark.parametrize("doc", [doc for _, doc in _DEFERRAL_CASES],
                         ids=[name for name, _ in _DEFERRAL_CASES])
def test_a_loaded_system_reads_as_the_closure_of_its_pairs(doc):
    agents = tuple(doc["agents"])
    closed_layers = []
    for model, entry in zip(load_ts(doc)[0].layers, doc["layers"]):
        ids = [w["id"] for w in entry["worlds"]]
        relations = entry.get("relations", {})
        partitions = {agent: tuple(sorted(bfs_partition(relations.get(agent, []), ids), key=min))
                      for agent in agents}
        for agent in agents:
            assert model.partition(agent) == partitions[agent]
        closed_layers.append(PALModel(model.worlds, agents, partitions))
    closed = TransitionSystem(closed_layers, groups=doc.get("groups"))

    # Each of these reads a freshly loaded system, whose partitions are all unread.
    assert load_ts(doc)[0] == closed and closed == load_ts(doc)[0]
    assert json.dumps(dump_ts(load_ts(doc)[0])) == json.dumps(dump_ts(closed))
    rng = random.Random(len(closed_layers))
    keeps = [rng.sample([w.id for w in model.worlds], rng.randint(1, len(model.worlds)))
             for model in closed_layers]

    def cut(layers):
        return [[[block & frozenset(keep) for block in m.partition(agent)] for agent in agents]
                for m, keep in zip(layers, keeps)]

    assert cut(load_ts(doc)[0].layers) == cut(closed_layers)
    rename = "r_{}".format
    assert [m.renamed(rename) for m in load_ts(doc)[0].layers] == [m.renamed(rename) for m in closed_layers]


def test_load_ts_closes_each_relation_once_when_it_is_first_read(tmp_path, monkeypatch):
    frames = stream_frames_document(random.Random(7), frames=50, width=6)
    closed = _closed_relations(monkeypatch)
    ts, _ = load_ts(_system_of(frames))
    assert closed == []
    layer = ts.layers[7]
    first = layer.partition("b")
    assert closed == ["w7_0"]
    assert layer.partition("b") is first
    assert any(layer.block("b", "w7_3") is block for block in first)
    assert closed == ["w7_0"]
    # Neither does `ingest` close a relation; `build` writes every one, and
    # closes each exactly once.
    closed.clear()
    ingest(frames)
    assert closed == []
    source, target = tmp_path / "frames.json", tmp_path / "ts.json"
    source.write_text(json.dumps(frames))
    assert main(["build", "--frames", str(source), "--output", str(target)]) == 0
    assert sorted(closed) == sorted(f"w{i}_0" for i in range(1, 51) for _ in "ab")


def test_mppe_closes_no_relation_and_a_universal_check_only_the_announced_layers(
        tmp_path, monkeypatch):
    frames = stream_frames_document(random.Random(11), frames=30, width=4)
    frames["frames"][-1]["worlds"][1]["atoms"].append(["z", "Mark"])
    source, target = tmp_path / "frames.json", str(tmp_path / "ts.json")
    source.write_text(json.dumps(frames))
    assert main(["build", "--frames", str(source), "--output", target]) == 0
    closed = _closed_relations(monkeypatch)
    assert main(["mppe", "--ts", target]) == 0
    assert closed == []
    assert main(["check", "--ts", target, "--formula", "F (z:Mark & [z:Mark] K{a} z:Mark)"]) == 1
    assert closed == ["w30_0"]


def _pal_leaves(formula) -> int:
    """The number of distinct PAL leaves of the temporal formula `formula`."""
    seen, stack = set(), [formula]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if not isinstance(node, Pal):
                stack.extend(getattr(node, name) for name in node._fields)
    return sum(isinstance(node, Pal) for node in seen)


def test_a_one_path_check_closes_no_layer_relation_and_labels_each_leaf_once(
        tmp_path, monkeypatch):
    """A one-path check evaluates in the path's own model: the only
    relations closed are that model's, one per agent read, and its smallest
    id is the start world's; each PAL leaf is labelled once, not once per
    layer."""
    frames = stream_frames_document(random.Random(12), frames=30, width=4)
    source, target = tmp_path / "frames.json", str(tmp_path / "ts.json")
    source.write_text(json.dumps(frames))
    assert main(["build", "--frames", str(source), "--output", target]) == 0
    formula = "X G ((K{a} v:Cat -> v:Cat) & ([v:Dog] D{a,b} v:Dog | !X true))"
    template = "X G (?1 | !X true)"
    verified = substitute(parse_template(template), [Dist({"a", "b"}, parse_formula("v:Cat"))])
    closed = _closed_relations(monkeypatch)
    runs = []
    run = pal_module._run
    monkeypatch.setattr(pal_module, "_run", lambda *args: runs.append(args) or run(*args))
    for argv, leaves in [
        (["check", "--formula", formula, "--mppe-only"], _pal_leaves(parse_formula(formula))),
        (["check", "--formula", formula, "--path-index", "77"], _pal_leaves(parse_formula(formula))),
        (["classify", "--mode", "verified", "--group", "a,b", "--template", template,
          "--atoms", "v:Cat", "--mppe-only"], _pal_leaves(verified)),
    ]:
        closed.clear()
        runs.clear()
        assert main([argv[0], "--ts", target, *argv[1:]]) in (0, 1)
        assert closed == ["w00", "w00"]
        assert len(runs) == leaves


def test_changing_the_source_after_load_ts_changes_no_partition():
    doc = _system_of(stream_frames_document(random.Random(4), frames=20, width=4))
    untouched = json.loads(json.dumps(doc))
    ts, _ = load_ts(doc)
    for layer in doc["layers"][1:-1]:
        ids = [w["id"] for w in layer["worlds"]]
        layer["relations"]["a"][0][:] = [ids[0], ids[1]]
        layer["relations"]["a"].append([ids[2], ids[3]])
        layer["relations"]["b"].clear()
    assert ts == load_ts(untouched)[0]
    assert ts != load_ts(doc)[0]


def test_threads_reading_one_loaded_system_see_every_partition():
    doc = _system_of(stream_frames_document(random.Random(5), frames=200, width=6))
    closed = load_ts(doc)[0]
    expected = [[layer.partition(agent) for agent in closed.agents] for layer in closed.layers]
    ts, _ = load_ts(doc)
    workers = 4
    results = [None] * workers
    start = threading.Barrier(workers)

    def read(k):
        start.wait()
        results[k] = [[layer.partition(agent) for agent in ts.agents] for layer in ts.layers]

    threads = [threading.Thread(target=read, args=(k,)) for k in range(workers)]
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
    assert results == [expected] * workers
