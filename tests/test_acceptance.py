"""Acceptance checks, one test per release criterion.

Each test pins the behaviour the package promises end to end: the worked
two-frame example, oracle equivalence of both evaluators, the ontology and
clean-room scenarios, verdict and path-extraction cross-checks against brute
force, stream correction, and frontend round-trips.  Tolerances and runtime
budgets are asserted explicitly so regressions fail loudly.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from ltpal import (
    Announce,
    Atom,
    Dist,
    Knows,
    PAnd,
    PNot,
    Prop,
    RuleSet,
    ScoreTable,
    World,
    build_ts,
    correct_stream,
    dump_ts,
    enrich_model,
    enumerate_total_paths,
    future,
    globally,
    ingest,
    lift,
    load_scores,
    load_ts,
    most_probable_path,
    pal_sat,
    parse_formula,
    parse_pal_formula,
    parse_template,
    pretty,
    release,
    score_edges,
    substitute,
    t_not,
    t_or,
    tems,
    total_path_count,
    verdict,
    weak_until,
)
from ltpal.cli import main
from ltpal.serialize import build_from_files

from generators import (
    model_from_pairs,
    random_frames_document,
    random_model_with_pairs,
    random_pal_formula,
    random_temporal_formula,
    random_ts,
)
from oracles import (
    best_path_bruteforce,
    enumerate_id_paths,
    oracle_pal_sat,
    oracle_path_check,
    oracle_tems,
    oracle_weak_until,
    pairs_to_relation,
    ts_sat_at,
)

DATA = Path(__file__).parent / "data"


def test_criterion_1_worked_example_reproduction():
    """The two-frame demo yields 6 total paths and MPPE score 0.032."""
    started = time.perf_counter()
    ts = build_from_files(str(DATA / "demo_frames.json"))
    table = load_scores(str(DATA / "demo_scores.json"), ts)
    assert total_path_count(ts) == 6
    assert len(list(enumerate_total_paths(ts))) == 6
    best = most_probable_path(ts, table)
    assert best.path.worlds == ("w00", "w10", "w20", "w30")
    assert best.score == pytest.approx(0.032, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0


def test_criterion_2_pal_oracle_equivalence():
    """pal_sat matches a brute-force evaluator on 1000 random cases."""
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(1000):
        model, pairs = random_model_with_pairs(rng, max_worlds=5, max_agents=3)
        ids = [w.id for w in model.worlds]
        worlds = {
            w.id: {(a.data_id, a.class_id) for a in w.atoms} for w in model.worlds
        }
        relations = {
            agent: pairs_to_relation(pairs.get(agent, []), ids)
            for agent in model.agents
        }
        formula = random_pal_formula(rng, list(model.agents), depth=4)
        wid = rng.choice(ids)
        assert pal_sat(model, wid, formula) == oracle_pal_sat(
            worlds, relations, wid, formula
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0


def test_criterion_3_temporal_oracle_equivalence():
    """tems matches a declarative evaluator on 1000 random cases.

    Each case also exercises the derived-operator identities: G is the
    negation dual of F, and W arises from R applied to the disjunction.
    """
    started = time.perf_counter()
    rng = random.Random(202)
    for _ in range(1000):
        ts = random_ts(rng, max_frames=4, max_worlds=3)
        agents = list(ts.agents)
        formula = random_temporal_formula(rng, agents, depth=4)
        paths = list(enumerate_total_paths(ts))
        path = rng.choice(paths)
        suffix = path.suffix(rng.randrange(0, len(path.worlds) + 1))
        sat = ts_sat_at(ts, suffix.worlds)
        n = len(suffix.worlds)
        assert tems(ts, suffix, formula) == oracle_tems(sat, n, 0, formula)

        f = random_temporal_formula(rng, agents, depth=2)
        assert globally(f) == t_not(future(t_not(f)))
        if suffix.worlds:
            # On the empty path every connective is false, so the
            # meta-level duality only applies once a position exists.
            assert tems(ts, suffix, globally(f)) == (
                not tems(ts, suffix, future(t_not(f)))
            )
        a = random_temporal_formula(rng, agents, depth=2)
        b = random_temporal_formula(rng, agents, depth=2)
        assert weak_until(a, b) == release(b, t_or(a, b))
        holds_a = [oracle_tems(sat, n, k, a) for k in range(n)]
        holds_b = [oracle_tems(sat, n, k, b) for k in range(n)]
        assert tems(ts, suffix, weak_until(a, b)) == oracle_weak_until(
            holds_a, holds_b
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0


def test_criterion_4_subfeature_knowledge_with_rules():
    """Shared implied classes are known even when the leaf classes differ."""
    worlds = [
        World("u1", [Atom("x", "Chair"), Atom("x", "Cat")]),
        World("u2", [Atom("x", "Chair"), Atom("x", "Dog")]),
    ]
    model = model_from_pairs(worlds, ["a1"], {"a1": [("u1", "u2")]})
    rules = RuleSet({"Cat": ["Animal"], "Dog": ["Animal"]})
    enriched = enrich_model(model, rules)
    knows_shared = Knows(
        "a1", PAnd(Prop(Atom("x", "Chair")), Prop(Atom("x", "Animal")))
    )
    knows_cat = Knows("a1", Prop(Atom("x", "Cat")))
    for wid in ("u1", "u2"):
        assert pal_sat(enriched, wid, knows_shared) is True
        assert pal_sat(enriched, wid, knows_cat) is False


def _clean_room_doc(inject_uv_world: bool) -> dict:
    frames = [
        {"worlds": [
            {"id": "w1a", "atoms": [["room", "Human"]]},
            {"id": "w1b", "atoms": [["room", "Human"], ["door", "Closed"]]},
        ]},
        {"worlds": [
            {"id": "w2a", "atoms": []},
            {"id": "w2b", "atoms": [["lamp", "Off"]]},
        ]},
        {"worlds": [
            {"id": "w3a", "atoms": [["room", "UV"]]},
            {"id": "w3b", "atoms": [["room", "UV"], ["lamp", "On"]]},
        ]},
        {"worlds": [
            {"id": "w4a", "atoms": [["room", "Human"]]},
            {"id": "w4b", "atoms": []},
        ]},
    ]
    if inject_uv_world:
        frames[1]["worlds"].append({"id": "w2c", "atoms": [["room", "UV"]]})
    return {
        "agents": ["h", "u"],
        "groups": {"crew": ["h", "u"]},
        "frames": frames,
    }


def test_criterion_5_clean_room_scenario(tmp_path, capsys):
    """A compliant trace verifies; one injected UV world breaks it."""
    def classify(doc):
        frames_file = tmp_path / "frames.json"
        frames_file.write_text(json.dumps(doc))
        ts_file = tmp_path / "ts.json"
        assert main(["build", "--frames", str(frames_file),
                     "--output", str(ts_file)]) == 0
        capsys.readouterr()
        code = main([
            "classify", "--ts", str(ts_file), "--mode", "verified",
            "--template", "G (?1 -> X ?2)",
            "--atoms", "room:Human, !room:UV",
            "--group", "crew",
        ])
        return code, json.loads(capsys.readouterr().out), ts_file

    code, report, _ = classify(_clean_room_doc(inject_uv_world=False))
    assert code == 0
    assert report["result"] is True
    assert report["paths_checked"] == 16

    code, report, ts_file = classify(_clean_room_doc(inject_uv_world=True))
    assert code == 1
    assert report["result"] is False
    assert report["witness"] == ["w00", "w1a", "w2c", "w3a", "w4a", "w50"]

    ts, _ = load_ts(str(ts_file))
    crew = frozenset(("h", "u"))
    wrapped = substitute(
        parse_template("G (?1 -> X ?2)"),
        [Dist(crew, parse_pal_formula("room:Human")),
         Dist(crew, parse_pal_formula("!room:UV"))],
    )
    bad = ts.path(report["witness"])
    assert tems(ts, bad, wrapped) is False
    assert oracle_path_check(ts, tuple(report["witness"]), wrapped) is False
    good = ts.path(["w00", "w1a", "w2a", "w3a", "w4a", "w50"])
    assert tems(ts, good, wrapped) is True


def test_criterion_6_verdicts_match_brute_force():
    """Base verdicts and missing-information modes agree with brute force."""
    rng = random.Random(303)
    skeletons = ["F ?1", "G ?1", "X ?1", "(?1 U ?2)", "G (?1 -> X ?2)"]
    for _ in range(200):
        ts = random_ts(rng, max_frames=3, max_worlds=2)
        agents = list(ts.agents)
        template = parse_template(rng.choice(skeletons))
        atoms = [random_pal_formula(rng, agents, 2) for _ in range(template.arity)]
        group = tuple(rng.sample(agents, rng.randint(1, len(agents))))
        agent = rng.choice(agents)
        members = frozenset(group)
        id_paths = enumerate_id_paths(ts)

        checks = [
            (verdict(ts, template, atoms, group=group), all,
             [Dist(members, a) for a in atoms]),
            (verdict(ts, template, atoms, group=group, possible=True), any,
             [PNot(Dist(members, PNot(a))) for a in atoms]),
            (verdict(ts, template, atoms, agent=agent), all,
             [Knows(agent, a) for a in atoms]),
            (verdict(ts, template, atoms, agent=agent, possible=True), any,
             [PNot(Knows(agent, PNot(a))) for a in atoms]),
        ]
        for report, quantifier, wrapped_args in checks:
            wrapped = substitute(template, wrapped_args)
            expected = quantifier(
                oracle_path_check(ts, ids, wrapped) for ids in id_paths
            )
            assert report.result == expected

        singleton = verdict(ts, template, atoms, group=(agent,))
        robust = verdict(ts, template, atoms, agent=agent)
        assert singleton.result == robust.result
        assert (singleton.path.worlds if singleton.path else None) == (
            robust.path.worlds if robust.path else None
        )

        candidates = [random_pal_formula(rng, agents, 2) for _ in range(3)]
        for kind, wrap, quantifier in (
            ("verified", lambda a: Dist(members, a), all),
            ("possible", lambda a: PNot(Dist(members, PNot(a))), any),
        ):
            base = substitute(template, [wrap(a) for a in atoms])
            base_ok = quantifier(
                oracle_path_check(ts, ids, base) for ids in id_paths
            )
            if base_ok:
                expected_result, expected_qualifying = False, ()
            else:
                expected_qualifying = tuple(
                    c for c in candidates
                    if quantifier(
                        oracle_path_check(
                            ts, ids,
                            substitute(template, [Announce(c, wrap(a)) for a in atoms]),
                        )
                        for ids in id_paths
                    )
                )
                expected_result = bool(expected_qualifying)
            report = verdict(
                ts, template, atoms, candidates=candidates, group=group,
                possible=kind == "possible",
            )
            assert report.result == expected_result
            assert report.qualifying == expected_qualifying


def test_criterion_7_mppe_optimality_and_edge_visits():
    """DP extraction matches enumeration and reads each edge exactly once."""
    rng = random.Random(404)
    for _ in range(200):
        ts = random_ts(rng)
        scores = {edge: rng.uniform(0.1, 1.0) for edge in ts.edges()}
        lookups = []

        class CountingTable(ScoreTable):
            def __getitem__(self, edge):
                lookups.append(edge)
                return super().__getitem__(edge)

        best = most_probable_path(ts, CountingTable(scores))
        assert len(lookups) == ts.edge_count
        assert len(set(lookups)) == ts.edge_count

        ids, brute_score = best_path_bruteforce(
            ts, lambda u, v: scores[(u, v)]
        )
        assert best.path.worlds == ids
        assert math.isclose(
            best.log_score, math.log(brute_score), rel_tol=1e-12, abs_tol=1e-12
        )


def test_criterion_8_stream_correction_recovers_dominant_chain():
    """Three isolated misreads in a 20-frame stream are corrected away."""
    frames = []
    for k in range(1, 21):
        worlds = [{"id": f"f{k}c", "atoms": [[f"v{k}", "Cat"]]}]
        if k in (5, 11, 17):
            # The stray hypothesis comes first so storage order alone
            # cannot produce the right answer.
            worlds.insert(0, {"id": f"f{k}d", "atoms": [[f"v{k}", "Dog"]]})
        frames.append({"worlds": worlds})
    ts = build_from_files({"agents": ["cam"], "frames": frames})
    assert total_path_count(ts) == 8

    table = score_edges(ts)
    corrected = correct_stream(ts, table)
    assert len(corrected) == 20
    for k, choice in enumerate(corrected, 1):
        assert choice.frame == k
        assert choice.world == f"f{k}c"
        assert choice.atoms == (Atom(f"v{k}", "Cat"),)

    ids, brute_score = best_path_bruteforce(ts, lambda u, v: table[(u, v)])
    best = most_probable_path(ts, table)
    assert best.path.worlds == ids
    assert best.score == pytest.approx(brute_score, rel=1e-12)
    assert best.score == pytest.approx(1.0)


def test_criterion_9_frontend_round_trips():
    """Printed formulas re-parse unchanged; serialization is idempotent."""
    rng = random.Random(505)
    agents = ["a0", "a1", "a2"]
    for i in range(10_000):
        if i % 2:
            formula = random_temporal_formula(rng, agents, depth=4)
            assert parse_formula(pretty(formula)) == formula
        else:
            formula = random_pal_formula(rng, agents, depth=4)
            assert parse_pal_formula(pretty(formula)) == formula
            assert parse_formula(pretty(formula)) == lift(formula)

    for _ in range(100):
        doc = random_frames_document(rng)
        ingested = ingest(doc)
        ts = build_ts(ingested.frames, groups=ingested.groups or None)
        dumped = dump_ts(ts)
        reloaded, table = load_ts(dumped)
        assert table is None
        assert reloaded == ts
        assert dump_ts(reloaded) == dumped
