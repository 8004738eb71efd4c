"""Definitional oracles on element sets, for the tests: they read only a
group's multiplication table and inverses and a lattice's member masks,
never the engine's step classifier, cores, nilpotency tests, covers or
reach sets.  The lemma forms at the end are the other kind: the L suite's
lemmas L2.5 and L2.6 written pair by pair, on the engine's k-submodular
sets."""
from grouplab import harness, submodular
from grouplab.permgroup import factorize, set_bits


def closure(G, gens):
    """The subgroup of G the element ordinals `gens` generate, as a set,
    from the multiplication table alone."""
    mult = G.mult
    out = {G.identity_ordinal}
    frontier = list(out)
    while frontier:
        frontier = [y for y in {mult[x][g] for x in frontier for g in gens}
                    if y not in out]
        out.update(frontier)
    return out


def quotient_nilpotent_by_lcs(G, upper, core):
    """Nilpotency of upper/core from its lower central series: the terms
    <[x, y] : x in upper, y in the last term> core descend to core."""
    mult, inv = G.mult, G.inv
    term = set(upper)
    while True:
        comms = {mult[mult[inv[x]][inv[y]]][mult[x][y]]
                 for x in upper for y in term}
        nxt = closure(G, comms | core)
        if nxt == core:
            return True
        if nxt == term:
            return False
        term = nxt


def step_by_definition(G, lower, upper):
    """The chain step lower -> upper of element sets, lower < upper: 0 when
    lower is normal in upper; n when |upper:lower| is a prime p, the core
    (the intersection of all conjugates of lower in upper) has
    |upper/core| = p q^n for a prime q != p, and upper/core is not
    nilpotent; None when neither holds."""
    mult, inv = G.mult, G.inv
    assert lower < upper
    conjugates = [{mult[mult[inv[g]][h]][g] for h in lower} for g in upper]
    if all(c == lower for c in conjugates):
        return 0
    p = len(upper) // len(lower)
    if factorize(p) != {p: 1}:
        return None
    core = set.intersection(*conjugates)
    rest = factorize(len(upper) // (len(core) * p))
    if len(rest) != 1 or p in rest:
        return None
    if quotient_nilpotent_by_lcs(G, upper, core):
        return None
    return next(iter(rest.values()))


def step_table(L):
    """`step_by_definition` of every pair (a, b) of L's ids whose element
    sets are strictly included, a in b."""
    G = L.group
    sets = [set(set_bits(s.mask)) for s in L.subgroups]
    return {(a, b): step_by_definition(G, lo, up)
            for a, lo in enumerate(sets) for b, up in enumerate(sets)
            if lo < up}


def ksub_by_definition(L, table, k):
    """The ids of L with a chain up to the top whose every step is legal at
    k by `table` (a `step_table`).  Pairs are taken by descending order of
    their lower member, so each upper member is decided before it is read."""
    reach = {L.top.id}
    for a, b in sorted(table, key=lambda pair: -L.subgroups[pair[0]].order):
        kind = table[a, b]
        if kind is not None and kind <= k and b in reach:
            reach.add(a)
    return frozenset(reach)


def classes_by_definition(L, table, k, supersoluble):
    """Membership of L's group in X, Y, K and F at k, by their definitions
    on `ksub_by_definition`: X when every maximal subgroup (proper, and in
    no other proper subgroup by `table`) is k-submodular, Y when every
    subgroup is, F when every Sylow subgroup (every member of a full
    prime-power order) is, and K when F holds and `supersoluble`."""
    reach = ksub_by_definition(L, table, k)
    top = L.top.id
    proper = {a for a, b in table if b == top}
    maximal = {a for a in proper if not any((a, b) in table for b in proper)}
    sylow_orders = {p**e for p, e in factorize(L.group.order).items()}
    sylows_ok = all(s.id in reach for s in L.subgroups
                    if s.order in sylow_orders)
    return {"X": maximal <= reach, "Y": len(reach) == len(L.subgroups),
            "K": supersoluble and sylows_ok, "F": sylows_ok}


def lemma_25_per_pair(L, k):
    """(verdict, instances) of L2.5 over every pair (h, u) with h
    k-submodular in the group: the meet d of h and u is k-submodular in u,
    and in the group when u is; an instance is a pair with d neither h nor
    u."""
    reach = submodular.ksub_set(L, k)
    verdicts, count = [], 0
    for h in reach:
        for u in range(len(L.subgroups)):
            d = L.meet(h, u)
            verdicts.append(d in submodular.ksub_set(L, k, top=u)
                            and (u not in reach or d in reach))
            count += d != h and d != u
    return all(verdicts), count


def lemma_26_per_pair(G, k):
    """(verdict, instances) of L2.6 over every subgroup h and every
    nontrivial proper normal N of G, with HN/N read in G/N's own lattice:
    (1) h k-submodular gives HN/N k-submodular, (2) the converse when
    N <= h, (3) HN/N is k-submodular iff HN is; an instance is an h with
    HN != h."""
    L = G.lattice()
    reach = submodular.ksub_set(L, k)
    verdicts, count = [], 0
    for sub, Q, epi in harness._quotient_lattices(G):
        Lq = Q.lattice()
        reach_q = submodular.ksub_set(Lq, k)
        for h in range(len(L.subgroups)):
            hn = L.join(h, sub.id)
            up = harness._image_id(Lq, epi, L.subgroups[hn]) in reach_q
            verdicts.append((up or h not in reach)
                            and (h in reach or not (up and L.leq(sub.id, h)))
                            and up == (hn in reach))
            count += h != hn
    return all(verdicts), count
