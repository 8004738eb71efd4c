"""Definitional oracles on element sets, for the tests: they read only a
group's multiplication table and inverses, never the engine's step
classifier, cores or nilpotency tests.  The lemma forms at the end are the
other kind: the L suite's lemmas L2.5 and L2.6 written pair by pair, on the
engine's k-submodular sets."""
from grouplab import harness, submodular
from grouplab.permgroup import factorize


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
    sets = [set(s.members) for s in L.subgroups]
    return {(a, b): step_by_definition(G, lo, up)
            for a, lo in enumerate(sets) for b, up in enumerate(sets)
            if lo < up}


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
