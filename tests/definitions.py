"""Definitional oracles on element sets, for the tests: they read only a
group's multiplication table and inverses and a lattice's member masks,
never the engine's step classifier, cores, nilpotency tests, covers,
reach sets, generator-wise homomorphism check or power walks; sympy's
permutation groups give supersolubility.  The forms at the end are the
other kind: the chain search that asks its step predicate of every pair,
Schmidt's test on the built quotient group, the automizer test on the
lattice interval [C, G], the submodular set with every modular step
allowed, the L suite's lemmas L2.5 and L2.6 written pair by pair, on
the engine's k-submodular sets, the formation residual found by
building every quotient as a group, the chief-factor centralizer found
by testing every member, and the coset action of a quotient computed
from the parent's table."""
from itertools import combinations, product

from grouplab import harness, structure, submodular
from grouplab.permgroup import (factorize, prime_power, quotient_cached,
                                set_bits)


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


def naive_subgroup_masks(G):
    """The subgroups of G as masks: closures of all subsets of at most two
    elements, then the join fixpoint (every subgroup of these small groups
    arises this way)."""
    masks = {G.closure_mask([G.identity_ordinal])}
    for i in range(G.order):
        masks.add(G.closure_mask([i]))
    for i, j in combinations(range(G.order), 2):
        masks.add(G.closure_mask([i, j]))
    changed = True
    while changed:
        changed = False
        for a in list(masks):
            for b in list(masks):
                j = G.closure_mask(set_bits(a | b))
                if j not in masks:
                    masks.add(j)
                    changed = True
    return masks


def frattini_by_nongenerators(G):
    """The non-generators of G, as a set of element ordinals: the x for which
    no proper subgroup H has closure(H with x) = G, that subgroup H ranging
    over `naive_subgroup_masks`.  Together they form the Frattini subgroup."""
    full = (1 << G.order) - 1
    proper = [set_bits(m) for m in naive_subgroup_masks(G) if m != full]
    return {x for x in range(G.order)
            if all(len(closure(G, [*H, x])) < G.order for H in proper)}


def _sections(G):
    """The quotient tables of the sections A1/A2 of G, A2 normal in A1
    (every conjugate of a member of A2 by a member of A1 lies in A2), from
    `naive_subgroup_masks`: coset i of A2 in A1 times coset j is the coset
    of their representatives' product, coset 0 holding the identity."""
    mult, inv, e = G.mult, G.inv, G.identity_ordinal
    masks = naive_subgroup_masks(G)
    tables = []
    for a1 in masks:
        members = [e] + [x for x in set_bits(a1) if x != e]
        for a2 in masks:
            if a2 & ~a1 or not all(a2 >> mult[mult[inv[g]][h]][g] & 1
                                   for g in members for h in set_bits(a2)):
                continue
            coset, reps = {}, []
            for x in members:
                if x not in coset:
                    for h in set_bits(a2):
                        coset[mult[x][h]] = len(reps)
                    reps.append(x)
            tables.append([[coset[mult[x][y]] for y in reps] for x in reps])
    return tables


def _isomorphisms(t1, t2):
    """The number of isomorphisms between two group tables of one order,
    by brute force on generator images: generators of t1 are taken
    greedily, each is sent to every element of t2 of its order, and an
    assignment counts when x*g -> f(x)*f(g) extends it to every element
    consistently (a homomorphism, by induction on word length) and onto."""
    def orders(t):
        out = []
        for x in range(len(t)):
            y, n = x, 1
            while y:
                y, n = t[y][x], n + 1
            out.append(n)
        return out

    def images(target, gens, imgs):
        f, queue = {0: 0}, [0]
        for x in queue:  # breadth first: the list grows as it is read
            for g, h in zip(gens, imgs):
                y, fy = t1[x][g], target[f[x]][h]
                if y not in f:
                    f[y] = fy
                    queue.append(y)
                elif f[y] != fy:
                    return None
        return f

    gens, span = [], {0}
    while len(span) < len(t1):  # the identity map's domain is <gens>
        gens.append(next(x for x in range(len(t1)) if x not in span))
        span = images(t1, gens, gens)
    o1, o2 = orders(t1), orders(t2)
    count = 0
    for imgs in product(*([y for y in range(len(t2)) if o2[y] == o1[g]]
                          for g in gens)):
        f = images(t2, gens, imgs)
        count += f is not None and len(set(f.values())) == len(t2)
    return count


def goursat_count(A, B):
    """The number of subgroups of A x B by Goursat's lemma (Goursat 1889):
    they correspond one to one to the sections A1/A2 of A and B1/B2 of B
    with an isomorphism A1/A2 -> B1/B2, the subgroup being the pairs (a, b)
    with a in A1, b in B1 and b B2 the image of a A2.  No lattice of the
    engine is read."""
    by_order = {}
    for t in _sections(B):
        by_order.setdefault(len(t), []).append(t)
    return sum(_isomorphisms(t1, t2) for t1 in _sections(A)
               for t2 in by_order.get(len(t1), ()))


def generating_pairs(G):
    """phi_2(G), the number of ordered pairs (x, y) of elements with
    <x, y> = G, by `closure`.  Conjugation by g maps the pairs of x onto
    those of x^g, so one x per conjugacy class is closed, weighted by the
    class size."""
    mult, inv = G.mult, G.inv
    seen, count = set(), 0
    for x in range(G.order):
        if x in seen:
            continue
        conjugates = {mult[mult[inv[g]][x]][g] for g in range(G.order)}
        seen |= conjugates
        count += len(conjugates) * sum(len(closure(G, (x, y))) == G.order
                                       for y in range(G.order))
    return count


def mobius_to_top(L, ids=None):
    """mu(H, G) for each id H of `ids` (default: every id), on the poset
    of those ids ordered by the lattice's up-sets: mu(G, G) = 1 and
    mu(H, G) = -(the sum of mu(K, G) over H < K <= G).  Ids ascend with
    order, so every K above H is decided before H."""
    ids = range(len(L.subgroups)) if ids is None else sorted(ids)
    mu = {}
    for h in reversed(ids):
        above = [k for k in set_bits(L.up[h]) if k != h and k in mu]
        mu[h] = 1 if h == L.top.id else -sum(mu[k] for k in above)
    return mu


def hall_phi2(L, ids=None):
    """phi_2(G) by Hall's Eulerian formula (Hall 1936): the sum over the
    subgroups H of mu(H, G) |H|^2, each pair generating exactly one H."""
    return sum(m * L.subgroups[h].order ** 2
               for h, m in mobius_to_top(L, ids).items())


def is_epimorphism_by_definition(epi):
    """t(x*y) = t(x)*t(y) for every pair x, y of the source, and every
    element of the target is an image."""
    sm, tm, t = epi.source.mult, epi.target.mult, epi.table
    return (all(t[xy] == tm[t[x]][t[y]]
                for x, row in enumerate(sm) for y, xy in enumerate(row))
            and set(t) == set(range(epi.target.order)))


def element_orders_by_definition(G):
    """The order of each element, by walking its own powers."""
    mult, e = G.mult, G.identity_ordinal
    orders = []
    for x in range(G.order):
        y, n = x, 1
        while y != e:
            y = mult[y][x]
            n += 1
        orders.append(n)
    return orders


def derived_by_definition(G):
    """The mask of the commutator subgroup: the closure of the commutators
    [x, y] of every pair of elements."""
    mult, inv = G.mult, G.inv
    comms = {mult[mult[inv[x]][inv[y]]][mult[x][y]]
             for x in range(G.order) for y in range(G.order)}
    return sum(1 << x for x in closure(G, comms))


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


def sympy_group(G, gens):
    """sympy's permutation group generated by the given element ordinals of
    G.  sympy is imported here, so this module loads without it."""
    from sympy import combinatorics
    perms = [combinatorics.Permutation(list(G.elements[g])) for g in gens]
    return combinatorics.PermutationGroup(
        perms or [combinatorics.Permutation(list(range(G.degree)))])


def supersoluble_by_sympy(P):
    """Whether sympy's group P has a chain 1 = M0 < ... < Mr = P of
    subgroups normal in P with prime indices, found greedily: from each M
    move to <M, x> for the first element x that gives a normal subgroup of
    prime index over M.  A chain found shows P supersoluble.  The search
    cannot miss one: a quotient of a supersoluble group is supersoluble, and
    a supersoluble P/M != 1 has a normal subgroup of prime order (the term
    above 1 of its chain), whose preimage is such an <M, x>."""
    from sympy import combinatorics
    elements = list(P.generate())
    M = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(range(P.degree)))])
    while M.order() < P.order():
        for x in elements:
            if M.contains(x):
                continue
            N = combinatorics.PermutationGroup(M.generators + [x])
            q = N.order() // M.order()
            if all(q % d for d in range(2, q)) and N.is_normal(P):
                M = N
                break
        else:
            return False
    return True


def reach_by_pairs(L, top, pred):
    """Ids a with a chain a = A0 < ... < Am = top whose every step (A, B)
    satisfies pred(A, B), mapped to the least such m: breadth first from
    `top`, asking pred of every unreached a <= b, with no restriction to
    normal or maximal steps.  The engine's chain searches, each a
    `SubgroupLattice.walk_down` with its own steps, are checked against it."""
    dist = {top: 0}
    frontier = [top]
    while frontier:
        new = []
        for b in frontier:
            for a in set_bits(L.down[b]):
                if a not in dist and pred(a, b):
                    dist[a] = dist[b] + 1
                    new.append(a)
        frontier = new
    return dist


def schmidt_by_quotient(L, m):
    """Schmidt's test on a maximal subgroup m, on the built quotient: m is
    normal, or G/Core(m) is non-abelian of order pq for primes p != q."""
    top = L.top.id
    if L.is_normal_in(m, top):
        return True
    Q, _ = quotient_cached(L.group, L.subgroups[L.core(m)].mask)
    return (sorted(factorize(Q.order).values()) == [1, 1]
            and not Q.is_abelian())


def automizer_by_interval(L, cf, k):
    """The automizer test on a chief factor cf, read on the lattice:
    G/C_G(H/K) is cyclic of order q^n for a prime q, n <= k, exactly when
    |G : C| = q^n and [C, G], the lattice of G/C, is a chain of n + 1
    members.  A group of order q^n has a subgroup of each order q^i; with
    no more, as when cyclic, it has one maximal subgroup, and an element
    outside it generates the group."""
    c = cf.centralizer
    pp = prime_power(L.group.order // c.order)
    return c.order == L.group.order or (
        pp is not None and pp[1] <= k and L.up[c.id].bit_count() == pp[1] + 1)


def submodular_by_transposition(L):
    """The ids submodular in L's top, searched with every modular step: the
    transposition test `_modular_in` on every pair a <= b reached."""
    return frozenset(reach_by_pairs(
        L, L.top.id, lambda a, b: submodular._modular_in(L, a, b)))


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
    for sub in L.subgroups:
        if (sub.order in (1, G.order)
                or not L.is_normal_in(sub.id, L.top.id)):
            continue
        Q, epi = quotient_cached(G, sub.mask)
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


def section_as_group(L, c, b):
    """The section b/c of L (c normal in b) built as a group: the quotient
    of `L.subgroup_as_group(b)`, whose ordinals are b's members in
    ascending order, by c in those ordinals."""
    mask = L.subgroups[c].mask
    local = sum(1 << i for i, m in enumerate(set_bits(L.subgroups[b].mask))
                if mask >> m & 1)
    return quotient_cached(L.subgroup_as_group(b), local)[0]


def residual_by_quotients(L, b, F):
    """The residual b^F as a mask over L's ordinals: the first normal
    subgroup a of b, by ascending id, with b/a in F, each b/a built as a
    group (`section_as_group`) and asked with `F.member` on its own
    lattice."""
    return next(L.subgroups[a].mask for a in structure.normal_ids_in(L, b)
                if F.member(section_as_group(L, a, b)))


def centralizer_by_members(L, k, h, b):
    """C_b(H/K) for the chief pair (k, h) of member b, as a mask: the g in
    b with [g, x] in K for every generator x of H, each member of b
    tested."""
    G = L.group
    mult, inv = G.mult, G.inv
    kmask = L.subgroups[k].mask
    out = 0
    for g in set_bits(L.subgroups[b].mask):
        if all(kmask >> mult[mult[inv[g]][inv[x]]][mult[g][x]] & 1
               for x in L.subgroups[h].gens):
            out |= 1 << g
    return out


def coset_action(G, nmask):
    """The permutation each element x of G induces on the cosets of the
    normal subgroup `nmask` by right multiplication, Nr -> Nrx, as a list
    over G's ordinals; the cosets are numbered in the order of their least
    elements, as `quotient` numbers them."""
    mult = G.mult
    members = set_bits(nmask)
    cosets = sorted({frozenset(mult[x][m] for m in members)
                     for x in range(G.order)}, key=min)
    number = {y: i for i, coset in enumerate(cosets) for y in coset}
    return [tuple(number[mult[min(coset)][x]] for coset in cosets)
            for x in range(G.order)]
