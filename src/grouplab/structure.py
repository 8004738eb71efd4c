"""Structural series and predicates: Sylow subgroups, solubility, nilpotency,
supersolubility, Ore dispersivity, Fitting subgroup, chief factors.

Each property has one implementation.  Sylow subgroups come from the lattice
(`sylow_in`).  Nilpotency is `is_quotient_nilpotent` (with c the trivial
subgroup for a group or lattice member): every maximal subgroup normal.
Solubility of a section b/c is `is_soluble_in`: every chief factor of
prime-power order, read from b's memoised chief-factor pairs above c.  The
commutator subgroup is `derived_subgroup`, supersolubility of b/c is
`is_supersoluble_in`, and normality is the lattice's `is_normal_in`.  The
`_in` forms take a lattice and member ids and treat a member, or a section,
as a group in its own right, so no lattice is rebuilt for a subgroup.

The five per-member queries `normal_ids_in`, `chief_factor_pairs_in`,
`chief_factors_in`, `is_supersoluble_in` and `sylow_in` work out each answer
once per lattice, through `SubgroupLattice.memo`, so it is freed with the
lattice; a module-level table keyed by lattice would keep every lattice
alive, since a `ChiefFactor` holds a `Subgroup`, which holds its group,
which holds the lattice.  Each answer is kept as the immutable value the
caller reads, a tuple or a bool, and returned as kept (`sylow_in` keeps
one tuple for all primes and reads its prime's id from it).  A query that
needs another's answer calls it, so that answer is read from its memo.
"""
from __future__ import annotations

from collections import namedtuple

from .permgroup import (FiniteGroup, GroupError, factorize, is_prime,
                        prime_power, set_bits)
from .lattice import Subgroup, SubgroupLattice


class InternalInconsistency(GroupError):
    """Two supposedly equivalent criteria disagreed; indicates an engine bug."""


class ChiefFactor(namedtuple(
        "ChiefFactor", "below above order complemented centralizer")):
    """A pair (K, H) of normal subgroups with H/K minimal normal in G/K:
    `below` and `above` are K and H, `centralizer` is C_G(H/K)."""

    __slots__ = ()


# -- Sylow -------------------------------------------------------------------


def sylow(G: FiniteGroup, p: int) -> Subgroup:
    """One Sylow p-subgroup: the least lattice id of full p-part order."""
    L = G.lattice()
    return L.subgroups[sylow_in(L, L.top.id, p)]


def sylow_in(L: SubgroupLattice, b: int, p: int) -> int:
    """The Sylow p-subgroup of member b of least id (the trivial subgroup
    when p does not divide |b|).  The first call finds one for every prime
    of |b|; the one for p is the one whose order p divides."""
    for a in L.memo((sylow_in, b), lambda: _sylows(L, b)):
        if L.subgroups[a].order % p == 0:
            return a
    return L.bottom.id


def _sylows(L: SubgroupLattice, b: int) -> tuple[int, ...]:
    targets = {q**e for q, e in factorize(L.subgroups[b].order).items()}
    found = []
    for a in set_bits(L.down[b]):
        order = L.subgroups[a].order
        if order in targets:
            targets.discard(order)
            found.append(a)
    if targets:
        raise InternalInconsistency("Sylow subgroup missing from lattice")
    return tuple(found)


def all_sylow(G: FiniteGroup) -> list[Subgroup]:
    return [sylow(G, p) for p in G.prime_divisors()]


def sylow_count(G: FiniteGroup, p: int) -> int:
    """The number of Sylow p-subgroups, |G : N_G(P)| for one of them P."""
    L = G.lattice()
    return G.order // L.subgroups[L.normalizer(sylow_in(L, L.top.id, p))].order


# -- solubility and nilpotency ----------------------------------------------


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """The commutator subgroup G', the least normal N with G/N abelian.
    G/N is abelian iff the images of G's generators commute, that is iff N
    holds the commutator [x, y] of every two generators; so G' is the
    normal closure of those commutators: the meet of the normal subgroups
    above the subgroup they generate."""
    L = G.lattice()
    mult, inv = G.mult, G.inv
    gens = [G.element_index[s] for s in G.generators]
    c = L.generated(mult[mult[inv[x]][inv[y]]][mult[x][y]]
                    for x in gens for y in gens)
    return L.subgroups[L.meet(*(a for a in normal_ids_in(L, L.top.id)
                                if L.leq(c, a)))]


def is_soluble(G: FiniteGroup) -> bool:
    """`is_soluble_in` for the whole group."""
    L = G.lattice()
    return is_soluble_in(L, L.top.id)


def is_soluble_in(L: SubgroupLattice, b: int, c: int = 0) -> bool:
    """Solubility of b/c (c normal in b, trivial by default): every chief
    factor, a chief pair (k, h) of b with c <= k, abelian.  A direct power
    of a simple group is abelian iff its order is a prime power."""
    subs = L.subgroups
    return all(prime_power(subs[h].order // subs[k].order) is not None
               or not L.leq(c, k) for k, h in chief_factor_pairs_in(L, b))


def is_nilpotent(G: FiniteGroup) -> bool:
    """Every maximal subgroup normal (the finite-group criterion)."""
    L = G.lattice()
    return is_quotient_nilpotent(L, L.bottom.id, L.top.id)


def is_quotient_nilpotent(L: SubgroupLattice, c: int, b: int) -> bool:
    """Nilpotency of b/c for lattice ids c <= b with c normal in b.

    A finite group is nilpotent iff every maximal subgroup is normal, and
    the maximal subgroups of b/c are the m/c with m maximal in b and c <= m.
    With c the trivial subgroup this is nilpotency of b.
    """
    return all(L.is_normal_in(m, b) for m in L.hasse_down[b] if L.leq(c, m))


# -- normal structure --------------------------------------------------------


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    L = G.lattice()
    return [L.subgroups[i] for i in normal_ids_in(L, L.top.id)]


def normal_ids_in(L: SubgroupLattice, b: int) -> tuple[int, ...]:
    """Ids of the normal subgroups of member b, ascending."""
    return L.memo((normal_ids_in, b), lambda: tuple(
        set_bits(L.normal_bits(b, L.down[b]))))


def fitting(G: FiniteGroup) -> Subgroup:
    """Largest normal nilpotent subgroup, as a join over the lattice."""
    L = G.lattice()
    acc = L.bottom.id
    for a in normal_ids_in(L, L.top.id):
        if is_quotient_nilpotent(L, L.bottom.id, a):
            acc = L.join(acc, a)
    if not is_quotient_nilpotent(L, L.bottom.id, acc):
        raise InternalInconsistency("join of normal nilpotent subgroups not nilpotent")
    return L.subgroups[acc]


def chief_factors(G: FiniteGroup) -> tuple[ChiefFactor, ...]:
    L = G.lattice()
    return chief_factors_in(L, L.top.id)


def chief_factor_pairs_in(L: SubgroupLattice,
                          b: int) -> tuple[tuple[int, int], ...]:
    """All pairs (k, h) of b-normal subgroups with h/k minimal normal in b/k:
    k < h and the b-normal subgroups of the interval [k, h] are k and h."""
    return L.memo((chief_factor_pairs_in, b), lambda: _chief_pairs(L, b))


def _chief_pairs(L: SubgroupLattice, b: int) -> tuple[tuple[int, int], ...]:
    """The covers h of each k in the sublattice of b-normal subgroups, by
    the greedy rule of `SubgroupLattice._build_order`: ids ascend by
    order, so the lowest id left above k is minimal; take it and clear its
    up-set.  Each k's covers come out ascending."""
    normals = normal_ids_in(L, b)
    normal_bits = sum(1 << a for a in normals)
    pairs = []
    for k in normals:
        above = (L.up[k] & normal_bits) ^ (1 << k)
        while above:
            h = (above & -above).bit_length() - 1
            pairs.append((k, h))
            above &= ~L.up[h]
    return tuple(pairs)


def chief_factors_in(L: SubgroupLattice, b: int) -> tuple[ChiefFactor, ...]:
    """Chief factors H/K of b, each with C_b(H/K): the g in b with
    [g, h] in K for every generator h of H.  A complement m of H/K has
    m meet H = K, so it lies in the interval [K, b]."""
    return L.memo((chief_factors_in, b), lambda: _chief_factors(L, b))


def _chief_factors(L: SubgroupLattice, b: int) -> tuple[ChiefFactor, ...]:
    """C_b(H/K) is the first of b's normal subgroups, largest first, whose
    generators all centralize H/K.  As H and K are normal in b, b acts on
    H/K by conjugation, and C_b(H/K) is the kernel of that action, so it
    is normal in b and among those candidates.  A subgroup lies in
    C_b(H/K) iff its generators do, so every candidate that passes lies in
    C_b(H/K), and one other than C_b(H/K) has smaller order.  Ids ascend
    by order, so C_b(H/K) passes first."""
    mult, inv = L.group.mult, L.group.inv
    subs = L.subgroups
    normals = normal_ids_in(L, b)[::-1]
    factors = []
    for k, h in chief_factor_pairs_in(L, b):
        kmask, hgens = subs[k].mask, subs[h].gens

        def centralizes(g):
            gi = inv[g]
            return all(kmask >> mult[mult[gi][inv[x]]][mult[g][x]] & 1
                       for x in hgens)

        c = next(n for n in normals if all(map(centralizes, subs[n].gens)))
        factors.append(ChiefFactor(
            below=subs[k], above=subs[h],
            order=subs[h].order // subs[k].order,
            complemented=any(L.join(h, m) == b and L.meet(h, m) == k
                             for m in L.interval(k, b)),
            centralizer=subs[c]))
    return tuple(factors)


# -- supersolubility and dispersivity ---------------------------------------


def is_supersoluble_in(L: SubgroupLattice, b: int, c: int = 0) -> bool:
    """Supersolubility of b/c (c normal in b, trivial by default): every
    chief pair (k, h) of b with c <= k has prime order; cross-checked
    against the prime-index-maximal-subgroups criterion when first asked."""
    return L.memo((is_supersoluble_in, b, c), lambda: _supersoluble(L, b, c))


def _supersoluble(L: SubgroupLattice, b: int, c: int) -> bool:
    # c is asked of a pair or subgroup only when it fails: for c = 1, never
    primary = all(is_prime(L.subgroups[h].order // L.subgroups[k].order)
                  or not L.leq(c, k) for k, h in chief_factor_pairs_in(L, b))
    # cross-check: all maximal subgroups m/c of b/c have prime index (Huppert)
    crosscheck = all(is_prime(L.subgroups[b].order // L.subgroups[m].order)
                     or not L.leq(c, m) for m in L.hasse_down[b])
    if primary != crosscheck:
        raise InternalInconsistency(
            f"supersolubility criteria disagree on {L.group.name}, {b}/{c}")
    return primary


def is_supersoluble(G: FiniteGroup) -> bool:
    """`is_supersoluble_in` for the whole group."""
    L = G.lattice()
    return is_supersoluble_in(L, L.top.id)


def is_ore_dispersive(G: FiniteGroup) -> bool:
    """Sylow tower for the descending prime ordering."""
    L = G.lattice()
    facs = factorize(G.order)
    primes = sorted(facs, reverse=True)
    normal_orders = {L.subgroups[a].order for a in normal_ids_in(L, L.top.id)}
    need = 1
    for p in primes:
        need *= p ** facs[p]
        if need not in normal_orders:
            return False
    return True
