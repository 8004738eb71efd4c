"""Definitional oracles on element sets, for the tests: they read only a
group's multiplication table and inverses, never the engine's step
classifier, cores or nilpotency tests."""
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
