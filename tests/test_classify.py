"""Tests for the verdict layer: wrapped templates quantified over paths."""

import random

import pytest

from ltpal.classify import DEFAULT_PATH_CAP, check_path_cap, quantify_paths, verdict
from ltpal.errors import EvaluationError
from ltpal.formulas import (
    Announce,
    Dist,
    Knows,
    PAnd,
    Placeholder,
    PNot,
    Prop,
    bottom,
    lift,
    p_or,
    substitute,
    top,
)
from ltpal.model import Atom, PALModel, World
from ltpal.syntax import parse_formula, parse_template
from ltpal.temporal import tems
from ltpal.transition import build_ts, enumerate_total_paths

from generators import random_pal_formula, random_ts
from oracles import enumerate_id_paths, oracle_path_check

V1CAT = Prop(Atom("v1", "Cat"))
V1DOG = Prop(Atom("v1", "Dog"))


def _demo_ts():
    frame1 = PALModel(
        [
            World("w10", [Atom("v1", "Cat")]),
            World("w11", [Atom("v1", "Dog")]),
            World("w12", []),
        ],
        ["a", "b"],
        {"a": [{"w10", "w11"}, {"w12"}]},
    )
    frame2 = PALModel(
        [
            World("w20", [Atom("v2", "Cat")]),
            World("w21", [Atom("v2", "Dog")]),
        ],
        ["a", "b"],
        {"a": [{"w20", "w21"}]},
    )
    return build_ts([frame1, frame2], groups={"both": ("a", "b")})


def _two_world_ts():
    """One ambiguous frame: agent a cannot tell the Cat world from the blank one."""
    frame = PALModel(
        [World("u1", [Atom("x", "Cat")]), World("u2", [])],
        ["a"],
        {"a": [{"u1", "u2"}]},
    )
    return build_ts([frame])


def test_verified_group_finds_the_first_counterexample():
    ts = _demo_ts()
    report = verdict(ts, parse_template("X (F ?1)"), [V1CAT], group=("a", "b"))
    assert report.result is False
    assert report.path.worlds == ("w00", "w11", "w20", "w30")
    assert report.paths_checked == 3
    assert not report.capped
    assert report.mode == "verified_group"
    assert report.group == ("a", "b")


def test_verified_group_true_case():
    ts = _demo_ts()
    atom = p_or(Prop(Atom("v2", "Cat")), Prop(Atom("v2", "Dog")))
    report = verdict(ts, parse_template("F ?1"), [atom], group=("a", "b"))
    assert report.result is True
    assert report.path is None
    assert report.paths_checked == 6


def test_possible_group_finds_the_first_witness():
    ts = _demo_ts()
    report = verdict(ts, parse_template("X (F ?1)"), [V1DOG], group=("a", "b"), possible=True)
    assert report.result is True
    assert report.path.worlds == ("w00", "w11", "w20", "w30")
    assert report.paths_checked == 3
    assert report.mode == "possible_group"


def test_robust_agent_depends_on_the_relation():
    ts = _demo_ts()
    template = parse_template("X (F ?1)")
    fine = verdict(ts, template, [V1CAT], agent="b")
    assert fine.result is False
    assert fine.path.worlds == ("w00", "w11", "w20", "w30")
    coarse = verdict(ts, template, [V1CAT], agent="a")
    assert coarse.result is False
    assert coarse.path.worlds == ("w00", "w10", "w20", "w30")
    assert coarse.paths_checked == 1


def test_possible_agent_sees_through_coarse_relations():
    ts = _demo_ts()
    report = verdict(ts, parse_template("X (F ?1)"), [V1DOG], agent="a", possible=True)
    assert report.result is True
    assert report.paths_checked == 1
    assert report.mode == "possible_agent"
    assert report.agent == "a"


def test_atoms_may_be_bare_atom_objects():
    ts = _demo_ts()
    report = verdict(
        ts, parse_template("X (F ?1)"), [Atom("v1", "Dog")], group=("a",), possible=True,
    )
    assert report.result is True


def test_wrappers_match_hand_built_formulas():
    ts = _demo_ts()
    template = parse_template("G ?1")
    atom = V1CAT
    group = ("a", "b")
    pairs = [
        (verdict(ts, template, [atom], group=group),
         substitute(template, [Dist(frozenset(group), atom)]), True),
        (verdict(ts, template, [atom], group=group, possible=True),
         substitute(template, [PNot(Dist(frozenset(group), PNot(atom)))]), False),
        (verdict(ts, template, [atom], agent="a"),
         substitute(template, [Knows("a", atom)]), True),
        (verdict(ts, template, [atom], agent="a", possible=True),
         substitute(template, [PNot(Knows("a", PNot(atom)))]), False),
    ]
    for report, formula, universal in pairs:
        result, path, checked, capped = quantify_paths(
            ts, formula, universal=universal
        )
        assert report.result == result
        assert (report.path.worlds if report.path else None) == (
            path.worlds if path else None
        )
        assert report.paths_checked == checked


def test_cap_yields_undecided_only_when_paths_remain():
    ts = _demo_ts()
    template = parse_template("F ?1")
    atom = p_or(Prop(Atom("v2", "Cat")), Prop(Atom("v2", "Dog")))
    capped = verdict(ts, template, [atom], group=("a",), path_cap=3)
    assert capped.result is None
    assert capped.capped
    assert capped.paths_checked == 3
    exact = verdict(ts, template, [atom], group=("a",), path_cap=6)
    assert exact.result is True
    assert not exact.capped
    decisive = verdict(
        ts, parse_template("X (F ?1)"), [V1CAT], group=("a", "b"), path_cap=3
    )
    assert decisive.result is False  # counterexample arrives within the cap


def test_missing_verified_candidates():
    """Announcing a candidate must repair the failing distributed check.

    A contradictory announcement trivially qualifies: it is false at every
    world, so the wrapped formula holds vacuously wherever it is evaluated.
    A tautological announcement never qualifies because it changes nothing.
    """
    ts = _two_world_ts()
    template = parse_template("X ?1")
    xcat = Prop(Atom("x", "Cat"))
    candidates = [top(), bottom(), xcat, Atom("x", "Dog")]  # an Atom reads as its Prop
    report = verdict(ts, template, [xcat], candidates=candidates, group=("a",))
    assert report.result is True
    assert report.qualifying == (bottom(), xcat, Prop(Atom("x", "Dog")))
    assert report.mode == "missing_verified"
    # The base check and the tautology both stop at their first failing
    # path; the three qualifying candidates each sweep both paths.
    assert report.paths_checked == 1 + 1 + 2 + 2 + 2


def test_missing_verified_needs_a_failing_base():
    ts = _two_world_ts()
    template = parse_template("X ?1")
    tautology = p_or(Prop(Atom("x", "Cat")), PNot(Prop(Atom("x", "Cat"))))
    report = verdict(ts, template, [tautology], candidates=[top(), bottom()], group=("a",))
    assert report.result is False
    assert report.qualifying == ()
    assert report.paths_checked == 2  # candidates were never tried


def test_missing_possible_candidates():
    ts = _two_world_ts()
    template = parse_template("X ?1")
    xdog = Prop(Atom("x", "Dog"))
    report = verdict(
        ts, template, [xdog], candidates=[top(), bottom(), Prop(Atom("x", "Cat"))],
        group=("a",), possible=True,
    )
    # No world can leave Dog open, so the base possible-check fails on all
    # paths; vacuously-true announcements then recover a passing path.
    assert report.result is True
    assert report.qualifying == (bottom(), Prop(Atom("x", "Cat")))


def test_missing_info_agent_mode_and_undecided():
    ts = _two_world_ts()
    template = parse_template("X ?1")
    xcat = Prop(Atom("x", "Cat"))
    report = verdict(ts, template, [xcat], candidates=[xcat], agent="a")
    assert report.result is True
    assert report.agent == "a"
    capped = verdict(ts, template, [xcat], candidates=[xcat], agent="a", path_cap=1)
    assert capped.result is None
    assert capped.capped


def test_missing_info_argument_validation():
    ts = _two_world_ts()
    template = parse_template("?1")
    xcat = Prop(Atom("x", "Cat"))
    with pytest.raises(ValueError, match="exactly one"):
        verdict(ts, template, [xcat], candidates=[xcat])
    with pytest.raises(ValueError, match="exactly one"):
        verdict(ts, template, [xcat], candidates=[xcat], group=("a",), agent="a")
    with pytest.raises(ValueError, match="non-empty"):
        verdict(ts, template, [xcat], candidates=[], agent="a")
    with pytest.raises(ValueError, match="not a PAL formula"):
        verdict(ts, template, [xcat], candidates=["x"], agent="a")


def test_argument_validation():
    ts = _demo_ts()
    template = parse_template("F ?1")
    with pytest.raises(EvaluationError, match="unknown agent"):
        verdict(ts, template, [V1CAT], group=("zz",))
    with pytest.raises(EvaluationError, match="at least one agent"):
        verdict(ts, template, [V1CAT], group=())
    with pytest.raises(EvaluationError, match="unknown agent"):
        verdict(ts, template, [V1CAT], agent="zz")
    # Also a template without slots, whose query names no agent, checks them.
    for who in ({"group": ("zz",)}, {"agent": "zz"}):
        with pytest.raises(EvaluationError, match="^unknown agent 'zz'$"):
            verdict(ts, parse_template("X true"), [], **who)
    # An agent is checked before evaluation, also where no evaluation
    # would read it: v1:Fox holds nowhere.
    vacuous = parse_formula("X [v1:Fox] K{zz} true")
    for path in (None, next(enumerate_total_paths(ts))):
        with pytest.raises(EvaluationError, match="^unknown agent 'zz'$"):
            quantify_paths(ts, vacuous, universal=True, path=path)
    with pytest.raises(EvaluationError, match="^unknown agent 'zz'$"):
        tems(ts, next(enumerate_total_paths(ts)), vacuous)
    with pytest.raises(ValueError, match="placeholders"):
        verdict(ts, template, [Placeholder(1)], agent="a")
    with pytest.raises(ValueError, match="not a PAL formula"):
        verdict(ts, template, ["v1:Cat"], agent="a")
    with pytest.raises(ValueError, match="^path cap must be at least 1$"):
        quantify_paths(ts, parse_template("F ?1").skeleton, universal=True, path_cap=0)
    with pytest.raises(ValueError, match="^path cap must be an integer, got 'x'$"):
        quantify_paths(ts, parse_template("F ?1").skeleton, universal=True, path_cap="x")


def test_check_path_cap_takes_integers_of_at_least_one():
    assert check_path_cap(1) == 1
    assert check_path_cap(10**400) == 10**400
    assert check_path_cap(" 7 ", "LTPAL_PATH_CAP") == 7
    assert check_path_cap(None) == DEFAULT_PATH_CAP
    for bad, message in [(0, "at least 1"), (-1, "at least 1"), ("0", "at least 1"), ("-3", "at least 1"),
                         ("1.5", "an integer, got '1.5'"), ([], "an integer, got []"),
                         (2.7, "an integer, got 2.7"), (2.0, "an integer, got 2.0"),
                         (True, "an integer, got True"), (False, "an integer, got False"),
                         ("1_000", "an integer, got '1_000'"), ("\u0663", "an integer, got '\u0663'"),
                         ("\uff11", "an integer, got '\uff11'")]:
        with pytest.raises(ValueError) as info:
            check_path_cap(bad, "--cap")
        assert str(info.value) == f"--cap must be {message}"


@pytest.mark.parametrize("bad, message", [
    (lift(V1CAT), "argument 2 is not a PAL formula: "),
    ("v1:Cat", "argument 2 is not a PAL formula: 'v1:Cat'"),
    (PAnd(V1CAT, Placeholder(1)), "argument 2 still contains placeholders"),
])
def test_verdict_and_substitute_name_the_bad_argument_alike(bad, message):
    ts = _demo_ts()
    template = parse_template("G (?1 -> X ?2)")
    for call in (lambda: verdict(ts, template, [V1CAT, bad], group=("a",)),
                 lambda: verdict(ts, template, [Atom("v1", "Cat"), bad], agent="a", possible=True),
                 lambda: substitute(template, [V1CAT, bad])):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(message)
    # A candidate follows the same rule, named as a candidate, and is checked
    # before any query runs: also when the base query passes (with true) and
    # no candidate is tried.
    for atom in (top(), bottom()):
        with pytest.raises(ValueError) as info:
            verdict(ts, parse_template("X ?1"), [atom], group=("a",), candidates=[V1CAT, bad])
        assert str(info.value).startswith(message.replace("argument", "candidate"))


def test_restricted_path_set():
    ts = _demo_ts()
    template = parse_template("X (F ?1)")
    best = next(enumerate_total_paths(ts))
    report = verdict(ts, template, [V1CAT], group=("a", "b"), path=best)
    assert report.result is True  # the chosen path does satisfy it
    assert report.restricted
    assert report.paths_checked == 1
    assert report.to_json_dict()["restricted"] is True

    # Every candidate is tried on the given path too: off it, the path
    # through u2 would let x:Cat qualify.
    ts = _two_world_ts()
    through_u1 = ts.path(["w00", "u1", "w20"])
    report = verdict(ts, parse_template("X ?1"), [Prop(Atom("x", "Dog"))], group=("a",),
                     possible=True, candidates=[bottom(), Prop(Atom("x", "Cat"))],
                     path=through_u1)
    assert (report.result, report.qualifying, report.paths_checked) == (True, (bottom(),), 3)
    assert report.restricted


def test_report_json_shape():
    ts = _demo_ts()
    report = verdict(ts, parse_template("X (F ?1)"), [V1CAT], group=("a", "b"))
    data = report.to_json_dict()
    assert data == {
        "mode": "verified_group",
        "group": ["a", "b"],
        "result": False,
        "witness": ["w00", "w11", "w20", "w30"],
        "paths_checked": 3,
        "capped": False,
    }
    # Any iterable names the group; the report keeps it as a tuple.
    assert verdict(ts, parse_template("X (F ?1)"), [V1CAT], group=iter(["a", "b"])) == report


def test_singleton_group_equals_robust_agent():
    rng = random.Random(404)
    template = parse_template("F ?1")
    for _ in range(40):
        ts = random_ts(rng)
        agent = rng.choice(list(ts.agents))
        atom = random_pal_formula(rng, list(ts.agents), 2)
        as_group = verdict(ts, template, [atom], group=(agent,))
        as_agent = verdict(ts, template, [atom], agent=agent)
        assert as_group.result == as_agent.result
        assert (as_group.path.worlds if as_group.path else None) == (
            as_agent.path.worlds if as_agent.path else None
        )


def test_random_verdicts_match_oracle_quantification():
    rng = random.Random(808)
    templates = ["F ?1", "G ?1", "X ?1", "(?1 U ?2)", "G (?1 -> X ?2)"]
    for _ in range(60):
        ts = random_ts(rng)
        agents = list(ts.agents)
        template = parse_template(rng.choice(templates))
        atoms = [random_pal_formula(rng, agents, 2) for _ in range(template.arity)]
        group = tuple(rng.sample(agents, rng.randint(1, len(agents))))
        agent = rng.choice(agents)
        members = frozenset(group)

        wrapped_verified = substitute(template, [Dist(members, a) for a in atoms])
        wrapped_possible = substitute(
            template, [PNot(Dist(members, PNot(a))) for a in atoms]
        )
        wrapped_robust = substitute(template, [Knows(agent, a) for a in atoms])
        wrapped_possible_agent = substitute(
            template, [PNot(Knows(agent, PNot(a))) for a in atoms]
        )
        id_paths = enumerate_id_paths(ts)
        assert verdict(ts, template, atoms, group=group).result == all(
            oracle_path_check(ts, ids, wrapped_verified) for ids in id_paths
        )
        assert verdict(ts, template, atoms, group=group, possible=True).result == any(
            oracle_path_check(ts, ids, wrapped_possible) for ids in id_paths
        )
        assert verdict(ts, template, atoms, agent=agent).result == all(
            oracle_path_check(ts, ids, wrapped_robust) for ids in id_paths
        )
        assert verdict(ts, template, atoms, agent=agent, possible=True).result == any(
            oracle_path_check(ts, ids, wrapped_possible_agent) for ids in id_paths
        )


def test_random_missing_info_matches_oracle():
    rng = random.Random(909)
    for _ in range(30):
        ts = random_ts(rng, max_frames=3, max_worlds=2)
        agents = list(ts.agents)
        template = parse_template(rng.choice(["F ?1", "G ?1", "X ?1"]))
        atom = random_pal_formula(rng, agents, 2)
        candidates = [random_pal_formula(rng, agents, 2) for _ in range(3)]
        group = tuple(rng.sample(agents, rng.randint(1, len(agents))))
        members = frozenset(group)
        kind = rng.choice(["verified", "possible"])
        if kind == "verified":
            wrap = lambda a: Dist(members, a)
            quantifier = all
        else:
            wrap = lambda a: PNot(Dist(members, PNot(a)))
            quantifier = any
        id_paths = enumerate_id_paths(ts)
        base = substitute(template, [wrap(atom)])
        base_ok = quantifier(oracle_path_check(ts, ids, base) for ids in id_paths)
        if base_ok:
            expected_result = False
            expected_qualifying = ()
        else:
            expected_qualifying = tuple(
                c
                for c in candidates
                if quantifier(
                    oracle_path_check(
                        ts, ids, substitute(template, [Announce(c, wrap(atom))])
                    )
                    for ids in id_paths
                )
            )
            expected_result = bool(expected_qualifying)
        report = verdict(
            ts, template, [atom], candidates=candidates, group=group,
            possible=kind == "possible",
        )
        assert report.result == expected_result
        assert report.qualifying == expected_qualifying
