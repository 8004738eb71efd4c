"""Checks of one lattice or group, each comparing two forms of one fact.
Tier-1 tests run them on small groups; CI's "Large lattices" step runs the
same functions on S4 x S4, Hol(Z41) and E2^6, too slow for tier-1."""
import importlib.util
from collections import Counter

from grouplab import classes, structure, submodular
from grouplab.permgroup import (factorize, is_prime, prime_power, quotient,
                                set_bits)
from definitions import (automizer_by_interval, classes_by_definition,
                         coset_action, ksub_by_definition, reach_by_pairs,
                         schmidt_by_quotient, step_table,
                         supersoluble_by_sympy, sympy_group)


def check_definitions(L):
    """`ksub_set` at k = 1..e+1, e the largest prime exponent of the
    order, against `ksub_by_definition` on the definitional step table; and
    X, Y and F at k = 1, 2, 3 against `classes_by_definition`, K too when
    sympy is installed, with supersolubility from sympy."""
    G = L.group
    table = step_table(L)
    e = max(factorize(G.order).values(), default=0)
    for k in range(1, e + 2):
        assert submodular.ksub_set(L, k) == ksub_by_definition(L, table, k), (
            G.name, k)
    supersoluble = None
    if importlib.util.find_spec("sympy") is not None:
        supersoluble = supersoluble_by_sympy(sympy_group(
            G, [G.element_index[g] for g in G.generators]))
    for k in (1, 2, 3):
        theirs = classes_by_definition(L, table, k, bool(supersoluble))
        ours = {c: submodular.in_class(L, c, k) for c in submodular.CLASS_IDS}
        if supersoluble is None:
            del theirs["K"], ours["K"]
        assert ours == theirs, (G.name, k)


def check_ksub_per_k(L, top, ks):
    """`ksub_set` in `top` at each k of `ks`, read from its one walk per
    top, against one `reach_by_pairs` search per k over the steps legal
    at k: `step_kind` at most k, normal steps being 0."""
    for k in ks:
        def legal(a, b):
            kind = submodular.step_kind(L, a, b)
            return kind is not None and kind <= k

        assert submodular.ksub_set(L, k, top=top) == frozenset(
            reach_by_pairs(L, top, legal)), (L.group.name, top, k)


def check_chain_walks(L, formations, ks):
    """The engine's chain walks, which take the normal subgroups as one
    bitset and ask about maximal subgroups or residuals alone, against the
    search that asks its step predicate of every pair (`reach_by_pairs`):
    the K-P-subnormal set, the F-subnormal set of each of `formations`,
    and at each k of `ks` every witness verdict, each chain the shortest,
    then lexicographically least, one of legal steps.  Returns the number
    of chains checked."""
    top, subs, name = L.top.id, L.subgroups, L.group.name
    kp = reach_by_pairs(L, top, lambda a, b: L.is_normal_in(a, b)
                        or is_prime(subs[b].order // subs[a].order))
    assert classes.p_subnormal_set(L, variant_k=True) == frozenset(kp), name
    for F in formations:
        reach = reach_by_pairs(L, top, lambda a, b: (
            classes.residual_mask(L, b, F) & ~subs[a].mask == 0))
        assert classes.f_subnormal_set(L, F) == frozenset(reach), (
            name, F.name)
    chains = 0
    for k in ks:
        def legal(a, b):
            kind = submodular.step_kind(L, a, b)
            return kind is not None and kind <= k

        dist = reach_by_pairs(L, top, legal)
        for h in range(len(L)):
            ok, chain = submodular.is_k_submodular(L, h, k)
            assert ok == (h in dist), (name, k, h)
            if not ok:
                continue
            assert chain[0] == h and len(chain) - 1 == dist[h], (name, k, h)
            for a, b in zip(chain, chain[1:]):
                assert b == min(c for c in set_bits(L.up[a])
                                if c != a and dist.get(c) == dist[a] - 1
                                and legal(a, c)), (name, k, h)
            chains += 1
    return chains


def check_classes(L):
    """The whole-group classes the lattice reads from its enumeration: they
    partition the ids; each is a's orbit under the top's generators, walked
    with `conjugate_mask`; and |a^G| |N(a)| = |G| with the normalizers the
    enumeration hands over."""
    G, top = L.group, L.top.id
    for a in range(len(L)):
        cls = L.conjugates(a)
        assert a in cls and all(L.conjugates(c) == cls for c in cls), (
            G.name, a)
        if cls[0] == a:  # one orbit walk per class
            orbit, frontier = {a}, [a]
            while frontier:
                frontier = [c for c in {L.by_mask[G.conjugate_mask(
                    L.subgroups[x].mask, g)] for x in frontier
                    for g in L.subgroups[top].gens} if c not in orbit]
                orbit.update(frontier)
            assert sorted(orbit) == cls, (G.name, a)
        assert (len(cls) * L.subgroups[L.normalizer(a)].order
                == G.order), (G.name, a)


def check_gens(L):
    """Each subgroup's two generator tuples, the enumeration's (`gens`) and
    the printed one, each generate its member mask."""
    G = L.group
    for s in L.subgroups:
        for gens in (s.gens, s.printed_gens()):
            assert G.closure_mask(gens) == s.mask, (G.name, s.id, gens)


def check_order(L):
    """The down-sets built from the covers against the up-sets: b >= a in
    one exactly when a <= b in the other."""
    for a in range(len(L)):
        assert all(L.down[b] >> a & 1 for b in set_bits(L.up[a])), (
            L.group.name, a)
    assert sum(map(int.bit_count, L.up)) == sum(map(int.bit_count, L.down))


def check_interval_forms(L):
    """Schmidt's test on every maximal subgroup, read on the lattice,
    against its form on the built quotient group; and the automizer test of
    T3.1/T3.2 on every chief factor at k = 1, 2, 3, on the built quotient,
    against its read on the interval [C, G].  Returns the verdicts counted
    by (test, verdict, whether the group's shape alone decides it)."""
    verdicts = Counter()
    top = L.top.id
    for m in L.hasse_down[top]:
        v = submodular.schmidt_maximal_modular(L, m)
        assert v == schmidt_by_quotient(L, m), (L.group.name, m)
        verdicts["schmidt", v, L.is_normal_in(m, top)] += 1
    for cf in structure.chief_factors_in(L, top):
        pp = prime_power(L.group.order // cf.centralizer.order)
        for k in (1, 2, 3):
            v = submodular._automizer_cyclic_prime_power(L, cf, k)
            assert v == automizer_by_interval(L, cf, k), (L.group.name, cf, k)
            # |G : C| = q^n with n <= k is decided by the group's shape
            verdicts["automizer", v, pp is None or pp[1] > k] += 1
    return verdicts


def check_quotient(G, nmask):
    """The quotient of G by its normal subgroup with member mask `nmask`:
    its order is the index, its epimorphism's kernel is that subgroup, and
    its elements, built or shared with an earlier parent's quotient, are
    the coset action computed from G's table (`coset_action`), each x
    mapped to the ordinal of its coset's permutation.  Returns the
    quotient group."""
    Q, epi = quotient(G, nmask)
    assert Q.order * nmask.bit_count() == G.order, (G.name, nmask)
    assert epi.kernel_mask() == nmask, (G.name, nmask)
    action = coset_action(G, nmask)
    assert set(Q.elements) == set(action), (G.name, nmask)
    assert list(epi.table) == [Q.element_index[p] for p in action], (
        G.name, nmask)
    return Q
