"""Seeded random builders for models, systems, formulas and documents."""

import json
import random

from ltpal.formulas import (
    Announce,
    Dist,
    Knows,
    Next,
    PAnd,
    PNot,
    Prop,
    Until,
    bottom,
    future,
    globally,
    lift,
    p_implies,
    p_or,
    release,
    t_and,
    t_implies,
    t_not,
    t_or,
    top,
    weak_until,
)
from ltpal.model import Atom, PALModel, World
from ltpal.transition import build_ts

from oracles import bfs_partition

DATA_IDS = ["x", "y", "z"]
CLASS_IDS = ["Cat", "Dog", "Fox", "Warm"]
ATOM_POOL = [Atom(d, c) for d in DATA_IDS for c in CLASS_IDS]


def model_from_pairs(worlds, agents, pairs_by_agent=None):
    """A model whose relations are given as pair lists instead of partitions."""
    worlds = tuple(worlds)
    ids = [w.id for w in worlds]
    partitions = {
        agent: bfs_partition(pairs, ids)
        for agent, pairs in dict(pairs_by_agent or {}).items()
    }
    return PALModel(worlds, agents, partitions)


def random_pairs(rng: random.Random, ids, count):
    return [(rng.choice(ids), rng.choice(ids)) for _ in range(count)]


def random_model_with_pairs(rng: random.Random, max_worlds=5, max_agents=3):
    """A random model plus the raw relation pairs it was built from."""
    n = rng.randint(1, max_worlds)
    ids = [f"m{k}" for k in range(n)]
    worlds = [
        World(wid, rng.sample(ATOM_POOL, rng.randint(0, 3))) for wid in ids
    ]
    agents = [f"a{k}" for k in range(rng.randint(1, max_agents))]
    pairs_by_agent = {
        agent: random_pairs(rng, ids, rng.randint(0, n)) for agent in agents
    }
    model = model_from_pairs(worlds, agents, pairs_by_agent)
    return model, pairs_by_agent


def random_model(rng: random.Random, max_worlds=5, max_agents=3):
    return random_model_with_pairs(rng, max_worlds, max_agents)[0]


def random_pal_formula(rng: random.Random, agents, depth=4):
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.05:
            return top()
        if roll < 0.1:
            return bottom()
        return Prop(rng.choice(ATOM_POOL))
    pick = rng.randrange(7)
    if pick == 0:
        return PNot(random_pal_formula(rng, agents, depth - 1))
    if pick == 1:
        return PAnd(
            random_pal_formula(rng, agents, depth - 1),
            random_pal_formula(rng, agents, depth - 1),
        )
    if pick == 2:
        return p_or(
            random_pal_formula(rng, agents, depth - 1),
            random_pal_formula(rng, agents, depth - 1),
        )
    if pick == 3:
        return p_implies(
            random_pal_formula(rng, agents, depth - 1),
            random_pal_formula(rng, agents, depth - 1),
        )
    if pick == 4:
        return Knows(rng.choice(agents), random_pal_formula(rng, agents, depth - 1))
    if pick == 5:
        size = rng.randint(1, len(agents))
        return Dist(
            frozenset(rng.sample(agents, size)),
            random_pal_formula(rng, agents, depth - 1),
        )
    return Announce(
        random_pal_formula(rng, agents, min(depth - 1, 2)),
        random_pal_formula(rng, agents, depth - 1),
    )


def random_temporal_formula(rng: random.Random, agents, depth=4):
    if depth <= 0 or rng.random() < 0.25:
        return lift(random_pal_formula(rng, agents, 2))
    pick = rng.randrange(10)
    sub = lambda: random_temporal_formula(rng, agents, depth - 1)
    if pick == 0:
        return t_not(sub())
    if pick == 1:
        return t_and(sub(), sub())
    if pick == 2:
        return t_or(sub(), sub())
    if pick == 3:
        return t_implies(sub(), sub())
    if pick == 4:
        return Next(sub())
    if pick == 5:
        return Until(sub(), sub())
    if pick == 6:
        return future(sub())
    if pick == 7:
        return globally(sub())
    if pick == 8:
        return release(sub(), sub())
    return weak_until(sub(), sub())


def random_frames(rng: random.Random, agents, max_frames=4, max_worlds=3):
    """Random per-frame models sharing one agent roster, with unique ids."""
    frames = []
    for i in range(rng.randint(1, max_frames)):
        n = rng.randint(1, max_worlds)
        ids = [f"n{i}x{k}" for k in range(n)]
        worlds = [
            World(wid, rng.sample(ATOM_POOL, rng.randint(0, 3))) for wid in ids
        ]
        pairs_by_agent = {
            agent: random_pairs(rng, ids, rng.randint(0, n)) for agent in agents
        }
        frames.append(model_from_pairs(worlds, agents, pairs_by_agent))
    return frames


def random_ts(rng: random.Random, max_frames=4, max_worlds=3, max_agents=3):
    agents = [f"a{k}" for k in range(rng.randint(1, max_agents))]
    return build_ts(random_frames(rng, agents, max_frames, max_worlds))


def random_frames_document(rng: random.Random, max_frames=3, max_worlds=3):
    """A JSON-shaped frames document, as ingested from disk."""
    agents = [f"a{k}" for k in range(rng.randint(1, 3))]
    doc = {"agents": list(agents), "frames": []}
    if rng.random() < 0.5 and len(agents) > 1:
        doc["groups"] = {"team": agents[: rng.randint(2, len(agents))]}
    for i in range(rng.randint(1, max_frames)):
        ids = [f"n{i}x{k}" for k in range(rng.randint(1, max_worlds))]
        worlds = [
            {
                "id": wid,
                "atoms": [
                    [a.data_id, a.class_id]
                    for a in rng.sample(ATOM_POOL, rng.randint(0, 2))
                ],
            }
            for wid in ids
        ]
        relations = {
            agent: [list(p) for p in random_pairs(rng, ids, rng.randint(0, 2))]
            for agent in agents
            if rng.random() < 0.7
        }
        doc["frames"].append({"worlds": worlds, "relations": relations})
    return doc


def listed_atoms(doc: dict) -> dict:
    """A copy of the system document `doc` without "atom_sets": each world's
    "atoms" index is replaced by the atom list it names, as older versions
    wrote it.  Nothing in the copy is shared, so a node can be mutated alone."""
    doc = dict(doc)
    atom_sets = doc.pop("atom_sets")
    doc["layers"] = [
        {**layer, "worlds": [{**world, "atoms": atom_sets[world["atoms"]]} for world in layer["worlds"]]}
        for layer in doc["layers"]
    ]
    return json.loads(json.dumps(doc))


def stream_frames_document(rng: random.Random, frames=1000, width=10):
    """A stream-shaped frames document: `frames` frames of `width` worlds with
    one atom each, and three random pairs for each of the agents a and b."""
    doc = []
    for i in range(1, frames + 1):
        ids = [f"w{i}_{j}" for j in range(width)]
        worlds = [{"id": w, "atoms": [["v", rng.choice(["Cat", "Dog", "Fox"])]]} for w in ids]
        relations = {agent: [rng.sample(ids, 2) for _ in range(3)] for agent in ("a", "b")}
        doc.append({"worlds": worlds, "relations": relations})
    return {"agents": ["a", "b"], "frames": doc}
