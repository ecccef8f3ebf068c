"""Seeded inputs, CLI sessions and expected answers for the ltpal benchmark.

A workload is a fixed session of `ltpal` CLI commands over generated input
files.  Every command carries the exit code and stdout fields it must
produce.  Those answers never come from ltpal's own evaluators:

* temporal and epistemic answers come from the brute-force oracles in
  `tests/oracles.py`, run over valuations and relations that this module
  derives from the generated frames on its own (rule closure by the
  oracle's fixpoint, relations by the oracle's BFS closure);
* most-probable paths are planted by the generator, and their uniqueness is
  confirmed here before any command runs.

Formula ASTs come from ltpal's parser, which the test suite pins by
round-trip tests; group aliases are written out as explicit agent sets
before the oracle sees them, so alias expansion is checked too.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
import shlex
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("ltpal_bench_oracles", ROOT / "tests" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

from ltpal.syntax import parse_formula, parse_pal_formula  # noqa: E402

_Atom = namedtuple("_Atom", "data_id class_id")

RULES = [
    ("Cat", ["Pet"]),
    ("Dog", ["Pet"]),
    ("Pet", ["Animal"]),
    ("Fox", ["Animal"]),
    ("Animal", ["Thing"]),
]

# (class, warm) of the worlds in each knowledge block of `announce`.
BLOCK_MIX = [
    ("Cat", True), ("Cat", True), ("Cat", False), ("Dog", True),
    ("Dog", False), ("Dog", False), ("Fox", True), ("Fox", False),
]

# Full-size shapes; the self-test passes `tiny=True` for a quick run.
SIZES = {
    "verify": {"frames": 8, "worlds": 3},
    "announce": {"frames": 2, "worlds": 40, "block": 8},
    "stream": {"frames": 1000, "worlds": 10},
}
TINY_SIZES = {
    "verify": {"frames": 3, "worlds": 3},
    "announce": {"frames": 2, "worlds": 8, "block": 4},
    "stream": {"frames": 20, "worlds": 4},
}


@dataclass
class Command:
    """One CLI invocation and the answer it must give."""

    kind: str                 # build | check | classify | mppe
    argv: list                # arguments after `python -m ltpal.cli`
    code: int                 # expected exit code
    fields: dict              # stdout fields that must match exactly
    formula: str | None = None       # expected "formula" field, compared as ASTs
    qualifying: list | None = None   # expected "qualifying" field, compared as ASTs
    approx: dict = field(default_factory=dict)  # float fields, relative tolerance 1e-9
    scorer_counts: str | None = None  # counts file the benchmark scorer writes

    def problems(self, code: int, payload) -> list:
        """Every way the observed exit code and payload miss the answer."""
        found = []
        if code != self.code:
            found.append(f"exit code {code}, expected {self.code}")
        if not isinstance(payload, dict):
            return found + ["stdout is not one JSON object"]
        for key, want in self.fields.items():
            if payload.get(key, "<missing>") != want:
                found.append(f"field {key!r} is {_short(payload.get(key, '<missing>'))}, expected {_short(want)}")
        for key, want in self.approx.items():
            got = payload.get(key)
            if not isinstance(got, (int, float)) or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
                found.append(f"field {key!r} is {got!r}, expected {want!r}")
        if self.formula is not None:
            try:
                same = parse_formula(payload.get("formula", "")) == parse_formula(self.formula)
            except Exception as exc:  # a malformed field is a wrong answer, not a crash
                same = False
                found.append(f"field 'formula' does not parse: {exc}")
            if not same:
                found.append(f"field 'formula' is {payload.get('formula')!r}, expected {self.formula!r}")
        if self.qualifying is not None:
            try:
                got = [parse_pal_formula(text) for text in payload.get("qualifying", [])]
            except Exception as exc:
                got = None
                found.append(f"field 'qualifying' does not parse: {exc}")
            if got != [parse_pal_formula(text) for text in self.qualifying]:
                found.append(f"field 'qualifying' is {payload.get('qualifying')!r}, expected {self.qualifying!r}")
        return found


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."


class OracleSystem:
    """The generated frames as the oracle sees them.

    Layer 0 and the last layer are the synthetic endpoints w00 and
    w<n+1>0 that ltpal documents.  Valuations are closed under the rules by
    `closure_fixpoint`; relations are closed by `pairs_to_relation`.  Paths
    are enumerated by position, last layer fastest, as the CLI promises.
    """

    def __init__(self, doc: dict, rules):
        agents = doc["agents"]
        n = len(doc["frames"])
        first, last = "w00", f"w{n + 1}0"
        endpoint = lambda wid: ({wid: set()}, {a: {(wid, wid)} for a in agents})
        self.layers = [[first]]
        self.view = {first: endpoint(first)}
        self.atoms = {first: (), last: ()}
        for frame in doc["frames"]:
            ids = [w["id"] for w in frame["worlds"]]
            worlds = {}
            for w in frame["worlds"]:
                closed = oracles.closure_fixpoint([_Atom(*a) for a in w["atoms"]], rules)
                worlds[w["id"]] = {tuple(a) for a in closed}
                self.atoms[w["id"]] = tuple(sorted(worlds[w["id"]]))
            relations = {
                a: oracles.pairs_to_relation(frame["relations"].get(a, []), ids) for a in agents
            }
            for wid in ids:
                self.view[wid] = (worlds, relations)
            self.layers.append(ids)
        self.layers.append([last])
        self.view[last] = endpoint(last)
        self._sat = {}

    def sat(self, wid: str, pal) -> bool:
        key = (wid, pal)
        value = self._sat.get(key)
        if value is None:
            worlds, relations = self.view[wid]
            value = self._sat[key] = oracles.oracle_pal_sat(worlds, relations, wid, pal)
        return value

    def holds(self, ids, formula, start: int = 0) -> bool:
        return oracles.oracle_tems(lambda pos, pal: self.sat(ids[pos], pal), len(ids), start, formula)

    def paths(self):
        return itertools.product(*self.layers)

    def quantify(self, formula, universal: bool, start: int = 0, paths=None):
        """(result, deciding path or None, paths checked), brute force."""
        checked = 0
        for ids in self.paths() if paths is None else paths:
            checked += 1
            if self.holds(ids, formula, start) != universal:
                return not universal, list(ids), checked
        return universal, None, checked

    def label_classes(self, wid: str) -> frozenset:
        return frozenset(c for _, c in self.atoms[wid])


def _expand(text: str, groups: dict) -> str:
    """Write group aliases out as explicit agent lists for the oracle."""
    for name, members in groups.items():
        text = text.replace("{" + name + "}", "{" + ",".join(members) + "}")
    return text


def _fill(template: str, slots: list) -> str:
    for k, slot in enumerate(slots, 1):
        template = template.replace(f"?{k}", f"({slot})")
    return template


# CLI mode -> (reported mode, quantified over all paths rather than some).
_MODES = {
    "verified": ("verified_group", True),
    "possible": ("possible_group", False),
    "robust": ("robust_agent", True),
    "missing-verified": ("missing_verified", True),
    "missing-possible": ("missing_possible", False),
}


def _wrapper(universal: bool, group=None, agent=None):
    """Text of the modality a verdict puts around a slot: D/K, or "cannot rule out"."""
    box = f"D{{{','.join(group)}}}" if group is not None else f"K{{{agent}}}"
    if universal:
        return lambda atom: f"{box} ({atom})"
    return lambda atom: f"!{box} !({atom})"


def _check(oracle, groups, formula, *, skip=False, paths=None):
    text = _expand(formula, groups)
    result, path, checked = oracle.quantify(parse_formula(text), True, 1 if skip else 0, paths)
    argv = ["check", "--ts", "ts.json", "--formula", formula]
    if skip:
        argv.append("--skip-dummies")
    return Command(
        "check", argv, 0 if result else 1,
        {"mode": "all", "result": result, "witness": path, "paths_checked": checked, "capped": False},
        formula=text,
    ), result, checked


def _classify(oracle, groups, *, mode, template, atoms, group=None, agent=None,
              candidates=None, only=None):
    """Expected report of `ltpal classify`, by the verdict definitions.

    `only` restricts the verdict to one path, as `--mppe-only` does.
    """
    members = groups.get(group, group.split(",")) if group is not None else None
    report_mode, universal = _MODES[mode]
    wrap = _wrapper(universal, members, agent)
    slots = [a.strip() for a in atoms.split(",")]

    def run(wrapped):
        paths = None if only is None else [only]
        return oracle.quantify(parse_formula(_fill(template, wrapped)), universal, paths=paths)

    argv = ["classify", "--ts", "ts.json", "--mode", mode, "--template", template, "--atoms", atoms]
    argv += ["--group", group] if group is not None else ["--agent", agent]
    report = {"mode": report_mode}
    if members is not None:
        report["group"] = list(members)
    else:
        report["agent"] = agent
    qualifying = None
    if candidates is None:
        result, path, checked = run([wrap(s) for s in slots])
    else:
        argv += ["--candidates", candidates[0]]
        base, _, checked = run([wrap(s) for s in slots])
        path = None
        qualifying = []
        if not base:
            for cand in candidates[1]:
                ok, _, n = run([f"[{cand}] {wrap(s)}" for s in slots])
                checked += n
                if ok:
                    qualifying.append(cand)
        result = bool(qualifying)
    report.update({"result": result, "witness": path, "paths_checked": checked, "capped": False})
    if only is not None:
        argv.append("--mppe-only")
        report["restricted"] = True
    return Command("classify", argv, 0 if result else 1, report, qualifying=qualifying), result


def _relations_chain(blocks) -> list:
    return [[a, b] for block in blocks for a, b in zip(block, block[1:])]


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _rules_doc() -> dict:
    return {"rules": [{"class": c, "implies": list(v)} for c, v in RULES]}


def _planted_scores(rng, layers, planted) -> tuple:
    """Edge scores whose best path is `planted`: 0.9 on it, at most 0.8 elsewhere.

    Every total path crosses the same number of edges, so any path other
    than the planted one has at least one edge strictly below the planted
    edge at that step and none above: its product is strictly smaller.
    """
    on_path = set(zip(planted, planted[1:]))
    edges = []
    for lower, upper in zip(layers, layers[1:]):
        for u in lower:
            for v in upper:
                score = 0.9 if (u, v) in on_path else round(rng.uniform(0.05, 0.8), 4)
                edges.append({"from": u, "to": v, "score": score})
    worst_on = min(e["score"] for e in edges if (e["from"], e["to"]) in on_path)
    best_off = max((e["score"] for e in edges if (e["from"], e["to"]) not in on_path), default=0.0)
    if not best_off < worst_on:
        raise RuntimeError("planted scores do not single out the planted path")
    log_score = 0.0
    for _ in planted[1:]:
        log_score += math.log(0.9)  # summed edge by edge, as the DP does
    return {"edges": edges}, log_score


def _plant(rng, frames, avoid=()) -> list:
    """Make one world per frame the unique overlap-best path; returns that path.

    The planted worlds, drawn among each frame's v:Cat worlds when it has
    some, all hold exactly {v:Cat, p:Tracked}, so edges along them have
    Jaccard overlap 1.  Only they carry Tracked, so any edge that leaves the
    planted chain has overlap below 1.  The other worlds of frame 1 each
    carry their own q:Noise class, so no path that avoids the planted world
    there has overlap 1 on every edge either.  Worlds in `avoid` are never
    planted.
    """
    planted = []
    for i, frame in enumerate(frames, 1):
        worlds = frame["worlds"]
        allowed = [w for w in worlds if w["id"] not in avoid]
        chosen = rng.choice([w for w in allowed if ["v", "Cat"] in w["atoms"]] or allowed)
        chosen["atoms"] = [["v", "Cat"], ["p", "Tracked"]]
        planted.append(chosen["id"])
        if i == 1:
            for j, world in enumerate(worlds):
                if world is not chosen:
                    world["atoms"].append(["q", f"Noise{j}"])
    return ["w00", *planted, f"w{len(frames) + 1}0"]


def _mppe_commands(rng, work, oracle, planted) -> list:
    """`mppe` with the built-in overlap scorer and with a planted scores file."""
    _require(_count_perfect_paths(oracle) == 1, "the planted path is the only one with overlap 1 on every edge")
    scores, log_score = _planted_scores(rng, oracle.layers, planted)
    _write(work / "scores.json", scores)
    return [
        _mppe_command(oracle, planted, [], 0.0),
        _mppe_command(oracle, planted, ["--scores", "scores.json"], log_score),
    ]


def _mppe_command(oracle, planted, argv_tail, log_score, counts=None):
    corrected = [
        {"frame": i, "world": wid, "atoms": [list(a) for a in oracle.atoms[wid]]}
        for i, wid in enumerate(planted[1:-1], 1)
    ]
    return Command(
        "mppe", ["mppe", "--ts", "ts.json", *argv_tail], 0,
        {"path": list(planted), "corrected": corrected},
        approx={"score": math.exp(log_score), "log_score": log_score},
        scorer_counts=counts,
    )


def _build_command(oracle):
    sizes = [len(layer) for layer in oracle.layers]
    argv = ["build", "--frames", "frames.json", "--rules", "rules.json", "--output", "ts.json"]
    return Command("build", argv, 0, {
        "frames": len(sizes) - 2,
        "states": sum(sizes),
        "edges": sum(a * b for a, b in zip(sizes, sizes[1:])),
        "total_paths": math.prod(sizes),
        "output": "ts.json",
    })


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"generated inputs break a planted property: {what}")


def make_verify(seed: int, work: Path, size: dict) -> list:
    """Quantification-heavy: full scans of every path with D/K leaves."""
    rng = random.Random(seed)
    agents = ["a", "b", "c"]
    groups = {"all": agents, "ab": ["a", "b"]}
    frames = []
    for i in range(1, size["frames"] + 1):
        ids = [f"w{i}_{j}" for j in range(size["worlds"])]
        # Each layer holds every class at least once, so a Fox is never far away.
        classes = rng.sample(["Cat", "Dog", "Fox"], 3)
        classes += [rng.choice(classes) for _ in range(len(ids) - 3)]
        worlds = [
            {"id": wid, "atoms": [["v", cls]] + ([["u", "Warm"]] if rng.random() < 0.5 else [])}
            for wid, cls in zip(ids, classes)
        ]
        relations = {a: [rng.sample(ids, 2) for _ in range(rng.randint(0, 2))] for a in agents}
        frames.append({"worlds": worlds, "relations": relations})
    planted = _plant(rng, frames)
    doc = {"agents": agents, "groups": groups, "frames": frames}
    _write(work / "frames.json", doc)
    _write(work / "rules.json", _rules_doc())
    oracle = OracleSystem(doc, RULES)

    commands = [_build_command(oracle)]
    for formula, skip in [
        ("G (K{a} v:Cat -> (D{all} v:Pet & F v:Animal))", False),
        ("G ((K{b} v:Dog -> X F (D{a,c} v:Thing | !X true)) | !X true)", True),
        ("X ((K{c} v:Fox -> v:Fox) U (!X true | (D{all} v:Fox & F X !X true)))", False),
    ]:
        command, result, _ = _check(oracle, groups, formula, skip=skip)
        _require(result, f"{formula} holds on every path")
        commands.append(command)
    command, result = _classify(oracle, groups, mode="verified", group="all",
                                template="G (?1 -> F ?2)", atoms="v:Cat,v:Pet")
    _require(result, "the verified verdict holds on every path")
    commands.append(command)
    command, result, _ = _check(oracle, groups, "G (X true -> ([v:Animal] K{a} v:Animal & !v:Fox))", skip=True)
    _require(not result, "the early-exit check fails")
    commands.append(command)
    command, result = _classify(oracle, groups, mode="possible", group="ab",
                                template="F (?1 & X ?2)", atoms="v:Dog,v:Animal")
    _require(result, "the early-exit possible verdict holds")
    commands.append(command)

    commands += _mppe_commands(rng, work, oracle, planted)
    return commands


def make_announce(seed: int, work: Path, size: dict) -> list:
    """Short paths whose every step builds announcement submodels.

    Every block of either agent holds the same mix of classes and warmth
    (`BLOCK_MIX`): agent a's blocks are runs of consecutive ids, and agent
    b's block k takes slot t of a's block (k - t) mod count.  Seeds then
    differ in which ids carry which atoms and in the order of b's chains,
    not in the sizes of the announcement submodels, so every seed costs
    the same work.
    """
    rng = random.Random(seed)
    agents = ["a", "b"]
    groups = {"all": agents}
    block = size["block"]
    mix = [BLOCK_MIX[k % len(BLOCK_MIX)] for k in range(block)]
    frames = []
    for i in range(1, size["frames"] + 1):
        ids = [f"w{i}_{j}" for j in range(size["worlds"])]
        count = len(ids) // block
        worlds, b_blocks = [], [[] for _ in range(count)]
        for k in range(count):
            for wid, slot in zip(ids[k * block:(k + 1) * block], rng.sample(range(block), block)):
                cls, warm = mix[slot]
                worlds.append({"id": wid, "atoms": [["v", cls]] + ([["u", "Warm"]] if warm else [])})
                b_blocks[(k + slot) % count].append(wid)
        relations = {
            "a": _relations_chain(ids[k:k + block] for k in range(0, len(ids), block)),
            "b": _relations_chain(rng.sample(b, len(b)) for b in b_blocks),
        }
        frames.append({"worlds": worlds, "relations": relations})
    # The planted world is a cold Cat, so planting takes no warmth away.
    warm = {w["id"] for frame in frames for w in frame["worlds"] if ["u", "Warm"] in w["atoms"]}
    planted = _plant(rng, frames, avoid=warm)
    doc = {"agents": agents, "groups": groups, "frames": frames}
    _write(work / "frames.json", doc)
    _write(work / "rules.json", _rules_doc())
    oracle = OracleSystem(doc, RULES)

    commands = [_build_command(oracle)]
    formula = "G ([u:Warm] (K{a} u:Warm & (K{b} v:Cat -> v:Pet)) & [!v:Fox] D{all} !v:Fox)"
    command, result, _ = _check(oracle, groups, formula)
    _require(result, "the announcement check holds on every path")
    commands.append(command)
    command, result = _classify(oracle, groups, mode="robust", agent="a",
                                template="X G (?1 | !X true)", atoms="[u:Warm] v:Animal")
    _require(result, "the robust verdict holds on every path")
    commands.append(command)
    verified = ["v:Cat", "u:Warm", "K{a} v:Cat", "!v:Dog"]
    _write(work / "verified.json", {"candidates": verified})
    command, _ = _classify(oracle, groups, mode="missing-verified", group="all",
                           template="X (?1 & X ?1)", atoms="v:Cat",
                           candidates=("verified.json", verified))
    commands.append(command)
    possible = ["u:Warm", "v:Animal", "v:Cat", "K{b} v:Animal"]
    _write(work / "possible.json", {"candidates": possible})
    command, _ = _classify(oracle, groups, mode="missing-possible", agent="b",
                           template="X ?1", atoms="v:Wolf",
                           candidates=("possible.json", possible))
    commands.append(command)

    commands += _mppe_commands(rng, work, oracle, planted)
    return commands


def _jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def _count_perfect_paths(oracle) -> int:
    """Total paths whose every edge between real layers has Jaccard overlap 1.

    Edges touching the endpoints always score 1, so they are left out.
    """
    layers = oracle.layers
    count = {w: 1 for w in layers[1]}
    for lower, upper in zip(layers[1:-2], layers[2:-1]):
        classes = {u: oracle.label_classes(u) for u in lower}
        count = {
            v: sum(count[u] for u in lower if _jaccard(classes[u], oracle.label_classes(v)) == 1.0)
            for v in upper
        }
    return sum(count.values())


def make_stream(seed: int, work: Path, size: dict, scorer: list) -> list:
    """Long stream: ingestion, serialization and MPPE dominate."""
    rng = random.Random(seed)
    agents = ["a", "b"]
    groups = {"all": agents}
    n, width = size["frames"], size["worlds"]
    frames = []
    for i in range(1, n + 1):
        worlds = []
        for j in range(width):
            atoms = [["v", rng.choice(["Cat", "Dog", "Fox"])]]
            if rng.random() < 0.5:
                atoms.append(["u", "Warm"])
            worlds.append({"id": f"w{i}_{j}", "atoms": atoms})
        frames.append({"worlds": worlds})
    marked = frames[-1]["worlds"][0]
    planted = _plant(rng, frames, avoid={marked["id"]})
    # Only path 0 meets the mark, at its last real position.
    marked["atoms"].append(["z", "Mark"])
    for frame, chosen in zip(frames, planted[1:-1]):
        ids = [w["id"] for w in frame["worlds"]]
        others = [wid for wid in ids if wid != chosen]
        frame["relations"] = {
            "a": [rng.sample(ids, 2) for _ in range(3)],
            # b never pairs the planted world, so D{a,b} singles it out.
            "b": [rng.sample(others, 2) for _ in range(3)] if len(others) > 1 else [],
        }
    doc = {"agents": agents, "groups": groups, "frames": frames}
    _write(work / "frames.json", doc)
    _write(work / "rules.json", _rules_doc())
    oracle = OracleSystem(doc, RULES)

    commands = [_build_command(oracle), *_mppe_commands(rng, work, oracle, planted)]
    scorer_cmd = shlex.join([*scorer, "--counts", "counts.json"])
    commands.append(_mppe_command(oracle, planted, ["--scorer-cmd", scorer_cmd], 0.0, counts="counts.json"))

    formula = "X G ((K{a} p:Tracked -> p:Tracked) & (v:Animal | !X true))"
    result = oracle.holds(planted, parse_formula(formula))
    _require(result, "the mppe-only formula holds on the planted path")
    commands.append(Command(
        "check", ["check", "--ts", "ts.json", "--mppe-only", "--formula", formula], 0,
        {"mode": "mppe-only", "path": planted, "score": 1.0, "result": True},
        formula=formula,
    ))
    command, result = _classify(oracle, groups, mode="verified", group="all",
                                template="X G (?1 | !X true)", atoms="p:Tracked", only=planted)
    _require(result, "the verified verdict holds on the planted path")
    commands.append(command)

    command, result, checked = _check(
        oracle, groups, "F (z:Mark & [z:Mark] K{a} z:Mark)",
        paths=itertools.islice(oracle.paths(), 2),
    )
    _require(not result and checked == 2, "path 1 is the first counterexample")
    commands.append(command)
    return commands


def make_session(workload: str, seed: int, work: Path, tiny: bool = False) -> list:
    """Write the workload's inputs into `work`; returns its session's commands."""
    size = (TINY_SIZES if tiny else SIZES)[workload]
    if workload == "verify":
        return make_verify(seed, work, size)
    if workload == "announce":
        return make_announce(seed, work, size)
    scorer = [sys.executable, str(Path(__file__).resolve().parent / "scorer.py")]
    return make_stream(seed, work, size, scorer)


WORKLOADS = ("verify", "announce", "stream")
