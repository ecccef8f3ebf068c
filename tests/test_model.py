"""Tests for atoms, worlds, rule closure and partition-based models."""

import copy
import pickle
import random

import pytest

from ltpal.classify import VerdictReport
from ltpal.errors import EvaluationError, IngestionError
from ltpal.model import (
    Atom,
    PALModel,
    RuleSet,
    World,
    enrich_model,
    equivalence_closure,
    rule_closure,
)
from ltpal.mppe import FrameChoice, ScoredPath
from ltpal.serialize import FramesDocument
from ltpal.transition import ExecPath, build_ts

from generators import ATOM_POOL, random_model_with_pairs
from oracles import bfs_partition, closure_fixpoint


def test_atom_str_and_ordering():
    atom = Atom("x", "Cat")
    assert str(atom) == "x:Cat"
    assert Atom("a", "B") < Atom("a", "C") < Atom("b", "A")


@pytest.mark.parametrize("data_id", ["", "a b", "a:b", "a,b", "a(b", "a]b", None])
def test_atom_rejects_bad_names(data_id):
    with pytest.raises(ValueError):
        Atom(data_id, "Cat")
    with pytest.raises(ValueError):
        Atom("x", data_id)


def test_world_coerces_atoms_to_frozenset():
    world = World("w", [Atom("x", "Cat"), Atom("x", "Cat")])
    assert world.atoms == frozenset({Atom("x", "Cat")})


def test_world_rejects_non_atoms():
    with pytest.raises(ValueError):
        World("w", ["x:Cat"])
    with pytest.raises(ValueError):
        World("", [])


def test_ruleset_merges_and_reports():
    rules = RuleSet({"Cat": ["Animal", "Pet"], "Dog": ["Animal"]})
    assert rules.implied_by("Cat") == frozenset({"Animal", "Pet"})
    assert rules.implied_by("Sofa") == frozenset()
    assert rules
    assert not RuleSet({})


def test_rule_closure_follows_chains_and_cycles():
    rules = RuleSet({"Cat": ["Feline"], "Feline": ["Animal"], "Animal": ["Cat"]})
    closed = rule_closure([Atom("x", "Cat")], rules)
    assert closed == frozenset(
        {Atom("x", "Cat"), Atom("x", "Feline"), Atom("x", "Animal")}
    )


def test_rule_closure_is_per_datum():
    rules = RuleSet({"Cat": ["Animal"]})
    closed = rule_closure([Atom("x", "Cat"), Atom("y", "Dog")], rules)
    assert Atom("x", "Animal") in closed
    assert Atom("y", "Animal") not in closed


def test_rule_closure_matches_fixpoint_oracle():
    rng = random.Random(1337)
    classes = ["Cat", "Dog", "Fox", "Animal", "Pet", "Being"]
    for _ in range(200):
        rule_map = {
            c: rng.sample(classes, rng.randint(0, 3))
            for c in rng.sample(classes, rng.randint(0, len(classes)))
        }
        rules = RuleSet(rule_map)
        atoms = {
            Atom(rng.choice("xyz"), rng.choice(classes))
            for _ in range(rng.randint(0, 4))
        }
        assert rule_closure(atoms, rules) == closure_fixpoint(atoms, rules.items())


def _hard_pairs(rng, ids) -> list:
    """Random pairs plus self-pairs, repeats, shuffled chains and pairs that
    join blocks of different sizes, in shuffled order."""
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 8))]
    pairs += [(w, w) for w in rng.sample(ids, rng.randint(0, min(3, len(ids))))]
    chain = rng.sample(ids, rng.randint(1, len(ids)))
    pairs += [(a, b) if rng.random() < 0.5 else (b, a) for a, b in zip(chain, chain[1:])]
    rng.shuffle(pairs)
    # Join a small block to a larger one, in either direction, after the rest.
    small, large = rng.choice(ids), rng.choice(chain)
    pairs.append((small, large) if rng.random() < 0.5 else (large, small))
    pairs += rng.sample(pairs, rng.randint(0, len(pairs)))  # repeats
    return pairs


def test_equivalence_closure_matches_bfs_oracle():
    rng = random.Random(99)
    for trial in range(600):
        ids = [f"w{k}" for k in range(rng.randint(1, 7 if trial < 200 else 30))]
        rng.shuffle(ids)  # string order ("w10" < "w9") differs from list order
        if trial >= 200:
            pairs = _hard_pairs(rng, ids)
        else:
            pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 8))]
        worlds = ids + rng.sample(ids, rng.randint(0, len(ids))) if trial % 3 == 0 else ids
        blocks = equivalence_closure(pairs, worlds)
        # Blocks come ordered by their smallest member.
        assert blocks == tuple(sorted(bfs_partition(pairs, ids), key=min))
        assert [min(b) for b in blocks] == sorted(min(b) for b in blocks)


def test_equivalence_closure_rejects_unknown_worlds():
    with pytest.raises(IngestionError, match="unknown world id"):
        equivalence_closure([("w0", "nope")], ["w0"])
    # The first pair naming an unknown id is reported, at `a` when both are unknown.
    for pairs, message in [
        ([("w0", "w1"), ("w1", "x"), ("y", "w0")],
         "relation pair ('w1', 'x') references unknown world id 'x'"),
        ([("w0", "w0"), ("y", "w1"), ("w1", "x")],
         "relation pair ('y', 'w1') references unknown world id 'y'"),
        ([("w0", "w1"), ("y", "x")],
         "relation pair ('y', 'x') references unknown world id 'y'"),
    ]:
        with pytest.raises(IngestionError) as info:
            equivalence_closure(pairs, ["w0", "w1"])
        assert str(info.value) == message


def _two_worlds():
    return [World("w0", [Atom("x", "Cat")]), World("w1", [Atom("x", "Dog")])]


def test_model_basic_accessors():
    model = PALModel(_two_worlds(), ["a", "b"], {"a": [{"w0", "w1"}]})
    assert [w.id for w in model.worlds] == ["w0", "w1"]
    assert model.agents == ("a", "b")
    assert model.labels("w0") == frozenset({Atom("x", "Cat")})
    assert model.block("a", "w0") == frozenset({"w0", "w1"})
    assert model.block("b", "w0") == frozenset({"w0"})
    assert model.partition("b") == (frozenset({"w0"}), frozenset({"w1"}))
    assert not model.is_empty


def test_model_missing_agent_defaults_to_identity():
    model = PALModel(_two_worlds(), ["a"])
    assert model.partition("a") == (frozenset({"w0"}), frozenset({"w1"}))


def test_model_validation_errors():
    worlds = _two_worlds()
    with pytest.raises(IngestionError, match="duplicate world id"):
        PALModel(worlds + [World("w0")], ["a"])
    with pytest.raises(IngestionError, match="duplicate agent"):
        PALModel(worlds, ["a", "a"])
    with pytest.raises(IngestionError, match="unknown agent"):
        PALModel(worlds, ["a"], {"b": [{"w0", "w1"}]})
    with pytest.raises(IngestionError, match="empty relation block"):
        PALModel(worlds, ["a"], {"a": [set(), {"w0", "w1"}]})
    with pytest.raises(IngestionError, match="two relation blocks"):
        PALModel(worlds, ["a"], {"a": [{"w0", "w1"}, {"w1"}]})
    with pytest.raises(IngestionError, match="does not cover"):
        PALModel(worlds, ["a"], {"a": [{"w0"}]})
    with pytest.raises(IngestionError, match="unknown world id"):
        PALModel(worlds, ["a"], {"a": [{"w0", "w1", "w9"}]})
    with pytest.raises(ValueError, match="^expected World, got 'w'$"):
        PALModel(["w"], ["a"])


def test_model_unknown_lookups_raise():
    model = PALModel(_two_worlds(), ["a"])
    with pytest.raises(EvaluationError, match="unknown world id"):
        model.world("zz")
    with pytest.raises(EvaluationError, match="unknown agent"):
        model.partition("zz")
    with pytest.raises(EvaluationError, match="unknown agent"):
        model.block("zz", "w0")
    with pytest.raises(EvaluationError, match="unknown agent"):
        model.block("zz", "zz")
    with pytest.raises(EvaluationError, match="unknown world id"):
        model.block("a", "zz")


def test_restricted_keeps_order_and_intersects():
    worlds = [World("w0"), World("w1"), World("w2")]
    model = PALModel(worlds, ["a"], {"a": [{"w0", "w1"}, {"w2"}]})
    sub = model.restricted({"w2", "w0"})
    assert [w.id for w in sub.worlds] == ["w0", "w2"]
    assert sub.partition("a") == (frozenset({"w0"}), frozenset({"w2"}))


def test_restricted_to_nothing_is_empty():
    model = PALModel(_two_worlds(), ["a"])
    sub = model.restricted([])
    assert sub.is_empty
    assert sub.agents == ("a",)


def test_restricted_rejects_unknown_ids():
    model = PALModel(_two_worlds(), ["a"])
    with pytest.raises(EvaluationError, match="unknown world id"):
        model.restricted({"w0", "zz"})


def test_renamed_rewrites_worlds_and_blocks():
    model = PALModel(_two_worlds(), ["a"], {"a": [{"w0", "w1"}]})
    renamed = model.renamed(lambda wid: f"L1_{wid}")
    assert [w.id for w in renamed.worlds] == ["L1_w0", "L1_w1"]
    assert renamed.block("a", "L1_w0") == frozenset({"L1_w0", "L1_w1"})
    assert renamed.labels("L1_w0") == model.labels("w0")


def test_model_equality_is_structural():
    a = PALModel(_two_worlds(), ["a"], {"a": [{"w0", "w1"}]})
    b = PALModel(_two_worlds(), ["a"], {"a": [["w1", "w0"]]})
    c = PALModel(_two_worlds(), ["a"])
    assert a == b
    assert a != c


def test_enrich_model_closes_every_world():
    rules = RuleSet({"Cat": ["Animal"], "Dog": ["Animal"]})
    model = PALModel(_two_worlds(), ["a"], {"a": [{"w0", "w1"}]})
    rich = enrich_model(model, rules)
    assert rich.labels("w0") == frozenset({Atom("x", "Cat"), Atom("x", "Animal")})
    assert rich.labels("w1") == frozenset({Atom("x", "Dog"), Atom("x", "Animal")})
    assert rich.partition("a") == model.partition("a")


def test_random_models_expose_consistent_blocks():
    rng = random.Random(7)
    pick = random.Random(11)

    def rename(wid):
        return f"r_{wid}"

    for _ in range(100):
        model, pairs = random_model_with_pairs(rng)
        ids = [w.id for w in model.worlds]
        keep = frozenset(pick.sample(ids, pick.randint(0, len(ids))))
        variants = [
            (model, lambda block: block),
            (model.restricted(keep), lambda block: block & keep),
            (model.renamed(rename), lambda block: frozenset(map(rename, block))),
        ]
        for agent, raw_pairs in pairs.items():
            blocks = bfs_partition(raw_pairs, ids)
            for variant, image in variants:
                part = variant.partition(agent)
                assert set(part) == {image(b) for b in blocks} - {frozenset()}
                for wid in variant.world_ids:
                    block = variant.block(agent, wid)
                    assert wid in block
                    assert any(block is b for b in part)


# The value records: field-wise equality, frozen fields, dataclass reprs.

_CAT = Atom("v1", "Cat")
_TS = build_ts([PALModel([World("w1", {_CAT})], ["a"])])
_PATH = ExecPath(_TS, ("w00", "w1", "w20"))
_RECORDS = {
    "Atom": _CAT,
    "World": World("w1", {_CAT}),
    "ExecPath": _PATH,
    "VerdictReport": VerdictReport("verified", True, _PATH, 1, False, group=("a",)),
    "ScoredPath": ScoredPath(_PATH, 0.5, -0.6931471805599453),
    "FrameChoice": FrameChoice(1, "w1", (_CAT,)),
}


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_copies_of_a_record_are_equal(name, duplicate):
    record = _RECORDS[name]
    copied = duplicate(record)
    assert type(copied) is type(record)
    assert copied == record
    assert hash(copied) == hash(record)


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_fields_cannot_be_assigned(name):
    record = _RECORDS[name]
    for field in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name, text", [
    ("Atom", "Atom(data_id='v1', class_id='Cat')"),
    ("World", "World(id='w1', atoms=frozenset({Atom(data_id='v1', class_id='Cat')}))"),
    ("ExecPath", "ExecPath(worlds=('w00', 'w1', 'w20'))"),
    ("VerdictReport",
     "VerdictReport(mode='verified', result=True, path=ExecPath(worlds=('w00', 'w1', 'w20')), "
     "paths_checked=1, capped=False, group=('a',), agent=None, qualifying=(), restricted=False)"),
    ("ScoredPath",
     "ScoredPath(path=ExecPath(worlds=('w00', 'w1', 'w20')), score=0.5, log_score=-0.6931471805599453)"),
    ("FrameChoice", "FrameChoice(frame=1, world='w1', atoms=(Atom(data_id='v1', class_id='Cat'),))"),
])
def test_record_reprs_are_pinned(name, text):
    assert repr(_RECORDS[name]) == text


def test_records_equal_only_records_of_their_class():
    assert Atom("x", "Cat") == Atom("x", "Cat")
    assert hash(Atom("x", "Cat")) == hash(Atom("x", "Cat"))
    assert Atom("x", "Cat") != ("x", "Cat")
    assert World("x") != Atom("x", "Cat")
    assert World("w", [_CAT]) == World("w", {_CAT}) != World("w")
    assert FrameChoice(1, "w1", ()) != ScoredPath(1, "w1", ())


def test_exec_path_equality_ignores_the_system():
    other = build_ts([PALModel([World("w1", {Atom("v1", "Dog")})], ["b"])])
    assert ExecPath(other, _PATH.worlds) == _PATH
    assert hash(ExecPath(other, _PATH.worlds)) == hash(_PATH)


def test_atoms_sort_and_refuse_other_types():
    atoms = [Atom("b", "A"), Atom("a", "C"), Atom("a", "B")]
    assert sorted(atoms) == [Atom("a", "B"), Atom("a", "C"), Atom("b", "A")]
    assert Atom("a", "B") <= Atom("a", "B") < Atom("a", "C")
    assert Atom("b", "A") >= Atom("a", "C") > Atom("a", "B")
    for compare in (
        lambda: Atom("a", "B") < 1,
        lambda: Atom("a", "B") <= "a",
        lambda: Atom("a", "B") > ("a", "B"),
        lambda: Atom("a", "B") >= None,
    ):
        with pytest.raises(TypeError):
            compare()


def test_verdict_report_defaults_and_arguments():
    report = VerdictReport("possible", None, None, 3, True)
    assert (report.group, report.agent, report.qualifying, report.restricted) == (None, None, (), False)
    assert report == VerdictReport(mode="possible", result=None, path=None, paths_checked=3, capped=True)
    with pytest.raises(TypeError):
        VerdictReport("possible", None, None, 3)
    with pytest.raises(TypeError):
        VerdictReport("possible", None, None, 3, True, colour="red")


def test_frames_document_stays_mutable_and_unhashable():
    doc = FramesDocument(("a",), [])
    assert repr(doc) == "FramesDocument(agents=('a',), frames=[], groups={})"
    assert doc.groups == {} and doc.groups is not FramesDocument(("a",), []).groups
    doc.groups = {"g": ["a"]}
    assert doc == FramesDocument(agents=("a",), frames=[], groups={"g": ["a"]})
    with pytest.raises(TypeError):
        hash(doc)
