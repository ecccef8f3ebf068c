"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions, on purpose in a different
style than the package: relations are explicit pair sets instead of
partitions, temporal operators are literal quantifier translations, and path
search is brute-force enumeration.  `oracle_tems` evaluates those
translations without memoisation; `memo_oracle_tems` evaluates the same
clauses once per (position, subformula), which long paths need, and the
plain one referees it on small systems.
"""

from itertools import product

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
    TAnd,
    TNot,
    Until,
)


def bfs_partition(pairs, ids):
    """Connected components of the undirected pair graph, as a block list."""
    neighbours = {i: set() for i in ids}
    for a, b in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    blocks = []
    unseen = set(ids)
    for start in ids:
        if start not in unseen:
            continue
        queue = [start]
        component = set()
        while queue:
            node = queue.pop()
            if node in component:
                continue
            component.add(node)
            queue.extend(neighbours[node] - component)
        unseen -= component
        blocks.append(frozenset(component))
    return blocks


def pairs_to_relation(pairs, ids):
    """Full reflexive-symmetric-transitive closure as a set of (u, v) pairs."""
    relation = set()
    for block in bfs_partition(pairs, ids):
        for u in block:
            for v in block:
                relation.add((u, v))
    return relation


def closure_fixpoint(atoms, rules):
    """Saturate atoms under the rules by rescanning until nothing changes."""
    table = {}
    for class_id, implied in rules:
        table.setdefault(class_id, set()).update(implied)
    current = set(atoms)
    while True:
        added = set()
        for atom in current:
            for implied in table.get(atom.class_id, ()):
                candidate = type(atom)(atom.data_id, implied)
                if candidate not in current:
                    added.add(candidate)
        if not added:
            return frozenset(current)
        current |= added


def model_to_oracle(model):
    """Convert a PALModel into (valuation, relation pair sets)."""
    worlds = {
        w.id: {(a.data_id, a.class_id) for a in w.atoms} for w in model.worlds
    }
    relations = {}
    for agent in model.agents:
        relation = set()
        for block in model.partition(agent):
            for u in block:
                for v in block:
                    relation.add((u, v))
        relations[agent] = relation
    return worlds, relations


def oracle_pal_sat(worlds, relations, wid, f):
    """Literal PAL satisfaction over explicit relation pair sets."""
    if isinstance(f, Prop):
        return (f.atom.data_id, f.atom.class_id) in worlds[wid]
    if isinstance(f, PNot):
        return not oracle_pal_sat(worlds, relations, wid, f.operand)
    if isinstance(f, PAnd):
        return oracle_pal_sat(worlds, relations, wid, f.left) and oracle_pal_sat(
            worlds, relations, wid, f.right
        )
    if isinstance(f, Knows):
        return all(
            oracle_pal_sat(worlds, relations, v, f.operand)
            for v in worlds
            if (wid, v) in relations[f.agent]
        )
    if isinstance(f, Dist):
        return all(
            oracle_pal_sat(worlds, relations, v, f.operand)
            for v in worlds
            if all((wid, v) in relations[agent] for agent in f.agents)
        )
    if isinstance(f, Announce):
        if not oracle_pal_sat(worlds, relations, wid, f.announced):
            return True
        keep = {
            v for v in worlds if oracle_pal_sat(worlds, relations, v, f.announced)
        }
        new_worlds = {v: worlds[v] for v in keep}
        new_relations = {
            agent: {(u, v) for (u, v) in rel if u in keep and v in keep}
            for agent, rel in relations.items()
        }
        return oracle_pal_sat(new_worlds, new_relations, wid, f.operand)
    if isinstance(f, Placeholder):
        raise ValueError("oracle cannot evaluate placeholders")
    raise TypeError(f"not a PAL formula: {f!r}")


def oracle_tems(sat_at, length, pos, f):
    """Declarative finite-trace semantics; sat_at(k, pal) decides PAL leaves."""
    if pos >= length:
        return False
    if isinstance(f, Pal):
        return sat_at(pos, f.formula)
    if isinstance(f, TNot):
        return not oracle_tems(sat_at, length, pos, f.operand)
    if isinstance(f, TAnd):
        return oracle_tems(sat_at, length, pos, f.left) and oracle_tems(
            sat_at, length, pos, f.right
        )
    if isinstance(f, Next):
        return oracle_tems(sat_at, length, pos + 1, f.operand)
    if isinstance(f, Until):
        return any(
            oracle_tems(sat_at, length, m, f.right)
            and all(oracle_tems(sat_at, length, k, f.left) for k in range(pos, m))
            for m in range(pos, length)
        )
    raise TypeError(f"not a temporal formula: {f!r}")


def memo_oracle_tems(sat_at, length, pos, f):
    """`oracle_tems`'s clauses with a (position, node) table: each
    subformula is decided at each position at most once.  The clauses are
    written out again, so that the plain oracle that referees this one
    shares no code with it."""
    table = {}

    def ev(pos, f):
        key = (pos, f)
        if key in table:
            return table[key]
        if pos >= length:
            value = False
        elif isinstance(f, Pal):
            value = sat_at(pos, f.formula)
        elif isinstance(f, TNot):
            value = not ev(pos, f.operand)
        elif isinstance(f, TAnd):
            value = ev(pos, f.left) and ev(pos, f.right)
        elif isinstance(f, Next):
            value = ev(pos + 1, f.operand)
        elif isinstance(f, Until):
            value = any(
                ev(m, f.right) and all(ev(k, f.left) for k in range(pos, m))
                for m in range(pos, length)
            )
        else:
            raise TypeError(f"not a temporal formula: {f!r}")
        table[key] = value
        return value

    return ev(pos, f)


def ts_sat_at(ts, world_ids):
    """sat_at callback for a path through a transition system."""
    twins = [model_to_oracle(ts.model_of(wid)) for wid in world_ids]

    def sat_at(pos, pal):
        worlds, relations = twins[pos]
        return oracle_pal_sat(worlds, relations, world_ids[pos], pal)

    return sat_at


def oracle_path_check(ts, world_ids, formula):
    """Evaluate a temporal formula on one path with the declarative oracle,
    memoised."""
    return memo_oracle_tems(ts_sat_at(ts, world_ids), len(world_ids), 0, formula)


def oracle_weak_until(holds_a, holds_b):
    """Direct weak-until reading over per-position truth lists."""
    n = len(holds_a)
    if n == 0:
        return False
    for m in range(n):
        if holds_b[m] and all(holds_a[:m]):
            return True
    return all(holds_a)


def enumerate_id_paths(ts):
    """All total paths as world-id tuples, by nested per-layer choice."""
    per_layer = [[w.id for w in layer.worlds] for layer in ts.layers]
    return [tuple(choice) for choice in product(*per_layer)]


def best_path_bruteforce(ts, score_of):
    """Maximum-product total path; ties go to the lexicographically least."""
    best = None
    for ids in enumerate_id_paths(ts):
        score = 1.0
        for u, v in zip(ids, ids[1:]):
            score *= score_of(u, v)
        if best is None or score > best[1] or (score == best[1] and ids < best[0]):
            best = (ids, score)
    return best
