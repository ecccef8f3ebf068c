"""Tests for JSON ingestion, system serialization and strict score loading."""

import json
import random
from pathlib import Path

import pytest

from ltpal.errors import IngestionError
from ltpal.formulas import PAnd, PNot, Prop
from ltpal.model import Atom
from ltpal.mppe import ScoreTable, score_edges
from ltpal.serialize import (
    build_from_files,
    dump_ts,
    ingest,
    load_candidates,
    load_frames,
    load_rules,
    load_scores,
    load_ts,
    save_ts,
)
from ltpal.transition import build_ts, total_path_count

from generators import random_frames_document

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
    doc = load_frames(FRAMES_DOC)
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
        load_frames(doc)


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
    with pytest.raises(IngestionError, match="missing"):
        load_ts(missing)
    extra = json.loads(json.dumps(data))
    extra["edges"].append({"from": "w10", "to": "w30"})
    with pytest.raises(IngestionError, match="does not connect adjacent"):
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
    with pytest.raises(IngestionError, match="no score for edge"):
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
        parsed = load_frames(doc)
        ts = build_ts(parsed.frames, groups=parsed.groups or None)
        dumped = dump_ts(ts)
        loaded, _ = load_ts(dumped)
        assert loaded == ts
        assert dump_ts(loaded) == dumped


def _mutated(doc, mutate):
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    return doc


@pytest.mark.parametrize(
    "scored, mutate, message",
    [
        (False, lambda d: d["edges"].__setitem__(2, ["w10", "w20"]),
         "edges[2] must be an object, got list"),
        (False, lambda d: d["edges"][2].pop("from"),
         "edges[2] is missing the 'from' field"),
        (False, lambda d: d["edges"][2].__setitem__("to", 7),
         "edges[2].to must be a string, got int"),
        (True, lambda d: d["edges"][2].__setitem__("score", True),
         "edges[2].score must be a number"),
        (True, lambda d: d["edges"][2].__setitem__("score", "0.5"),
         "edges[2].score must be a number"),
        (False, lambda d: d["edges"].insert(3, dict(d["edges"][1])),
         "edges[3] duplicates edge 'w00' -> 'w11'"),
        (False, lambda d: d["edges"].pop(3),
         "edges is missing 'w11' -> 'w20'"),
        (False, lambda d: d["edges"].append({"from": "w10", "to": "w30"}),
         "edges contains 'w10' -> 'w30', which does not connect adjacent layers"),
        (True, lambda d: d["edges"][4].pop("score"),
         "either every edge must carry a score or none may"),
        (True, lambda d: d["edges"][4].__setitem__("score", 0),
         "edges: score for edge 'w20' -> 'w30' must be in (0, 1], got 0.0"),
    ],
    ids=["non-object", "missing-from", "non-string-to", "bool-score", "string-score",
         "duplicate", "missing", "extra", "partial-scores", "zero-score"],
)
def test_load_ts_names_each_malformed_edge_entry(scored, mutate, message):
    ts = build_ts(ingest(FRAMES_DOC).frames)
    assert list(ts.edges()) == [("w00", "w10"), ("w00", "w11"), ("w10", "w20"),
                                ("w11", "w20"), ("w20", "w30")]
    data = dump_ts(ts, score_edges(ts)) if scored else _listed_edges(ts)
    with pytest.raises(IngestionError) as info:
        load_ts(_mutated(data, mutate))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda e: e.__setitem__(1, 3), "edges[1] must be an object, got int"),
        (lambda e: e[1].pop("to"), "edges[1] is missing the 'to' field"),
        (lambda e: e[1].__setitem__("from", None),
         "edges[1].from must be a string, got NoneType"),
        (lambda e: e.append({"from": "w10", "to": "w30"}),
         "edges[5]: 'w10' -> 'w30' is not an edge of the system"),
        (lambda e: e.insert(2, dict(e[0])), "edges[2] duplicates edge 'w00' -> 'w10'"),
        (lambda e: e[1].pop("score"), "edges[1] is missing the 'score' field"),
        (lambda e: e[1].__setitem__("score", "x"), "edges[1].score must be a number"),
        (lambda e: e[1].__setitem__("score", float("nan")),
         "scores document: score for edge 'w00' -> 'w11' must be in (0, 1], got nan"),
        (lambda e: e.pop(3), "no score for edge 'w11' -> 'w20'"),
    ],
    ids=["non-object", "missing-to", "non-string-from", "not-an-edge", "duplicate",
         "missing-score", "string-score", "nan", "uncovered"],
)
def test_load_scores_names_each_malformed_entry(mutate, message):
    ts = build_ts(ingest(FRAMES_DOC).frames)
    edges = [{"from": u, "to": v, "score": 0.5} for u, v in ts.edges()]
    with pytest.raises(IngestionError) as info:
        load_scores({"edges": _mutated(edges, mutate)}, ts)
    assert str(info.value) == message


def test_load_ts_accepts_a_permuted_edge_list():
    ts = build_ts(ingest(FRAMES_DOC).frames)
    table = score_edges(ts, lambda a, b: 0.5)
    data = dump_ts(ts, table)
    data["edges"].reverse()
    loaded, embedded = load_ts(data)
    assert loaded == ts
    assert embedded == table


def test_save_ts_writes_one_compact_line(tmp_path):
    doc = random_frames_document(random.Random(97))
    parsed = load_frames(doc)
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
        load_frames(doc)
    assert str(info.value) == "frames[1].worlds[0].atoms[1][1] must be a string, got int"
    doc["frames"][1]["worlds"][0]["atoms"] = ["v1Cat"]
    with pytest.raises(IngestionError, match=r"frames\[1\]\.worlds\[0\]\.atoms\[0\] must be an array"):
        load_frames(doc)
    doc["frames"][1]["worlds"][0]["atoms"] = [["v1", "Cat"]]
    parsed = load_frames(doc)
    assert parsed.frames[0].labels("w10") == parsed.frames[1].labels("w20")


def test_unscored_dump_has_no_edge_list_and_round_trips(tmp_path):
    rng = random.Random(1357)
    for _ in range(20):
        parsed = load_frames(random_frames_document(rng))
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
    parsed = load_frames(random_frames_document(random.Random(2024), max_frames=4))
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


@pytest.mark.parametrize("loader, key", [(load_frames, "frames"), (load_ts, "layers")])
def test_empty_world_id_is_reported_at_its_node(loader, key):
    doc = FRAMES_DOC if key == "frames" else dump_ts(build_ts(ingest(FRAMES_DOC).frames))
    doc = json.loads(json.dumps(doc))
    doc[key][1]["worlds"][0]["id"] = ""
    with pytest.raises(IngestionError) as info:
        loader(doc)
    assert str(info.value) == f"{key}[1].worlds[0].id must not be empty"
