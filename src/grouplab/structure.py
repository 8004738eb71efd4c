"""Structural series and predicates: Sylow subgroups, solubility, nilpotency,
supersolubility, Ore dispersivity, Fitting subgroup, chief factors.

Each property has one implementation.  Sylow subgroups come from the lattice
(`sylow_in`).  Nilpotency is `is_quotient_nilpotent` (with c the trivial
subgroup for a group or lattice member): every maximal subgroup normal.
Solubility is `is_soluble_in`: every chief factor of prime-power order,
read from the memoised chief-factor pairs.  The commutator subgroup is
`_derived_of_mask`, supersolubility of a lattice member is
`is_supersoluble_in`, and normality is the lattice's `is_normal_in`.  The
`_in` forms take a lattice and a member id and treat the member as a group
in its own right, so no lattice is rebuilt for a subgroup.

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
    for a in L.subs_of(b):
        order = L.subgroups[a].order
        if order in targets:
            targets.discard(order)
            found.append(a)
    if targets:
        raise AssertionError("Sylow subgroup missing from lattice")
    return tuple(found)


def all_sylow(G: FiniteGroup) -> list[Subgroup]:
    return [sylow(G, p) for p in G.prime_divisors()]


def sylow_count(G: FiniteGroup, p: int) -> int:
    L = G.lattice()
    return len(L.conjugates(sylow_in(L, L.top.id, p)))


# -- solubility and nilpotency ----------------------------------------------


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    L = G.lattice()
    return L.subgroups[L.by_mask[_derived_of_mask(G, range(G.order))]]


def is_soluble(G: FiniteGroup) -> bool:
    """`is_soluble_in` for the whole group."""
    L = G.lattice()
    return is_soluble_in(L, L.top.id)


def is_soluble_in(L: SubgroupLattice, b: int) -> bool:
    """Every chief factor of member b abelian: a direct power of a simple
    group, it is abelian iff its order is a prime power."""
    subs = L.subgroups
    return all(prime_power(subs[h].order // subs[k].order) is not None
               for k, h in chief_factor_pairs_in(L, b))


def _derived_of_mask(G: FiniteGroup, members) -> int:
    """Bitmask of the commutator subgroup of the subgroup `members`."""
    mult, inv = G.mult, G.inv
    comms = set()
    for x in members:
        row = mult[inv[x]]
        for y in members:
            comms.add(mult[row[inv[y]]][mult[x][y]])
    return G.closure_mask(comms)


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
        a for a in L.subs_of(b) if L.is_normal_in(a, b)))


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
    normals = normal_ids_in(L, b)
    normal_bits = sum(1 << a for a in normals)
    pairs = []
    for k in normals:
        above = L.up[k] & normal_bits
        for h in set_bits(above ^ (1 << k)):
            if L.down[h] & above == (1 << k) | (1 << h):
                pairs.append((k, h))
    return tuple(pairs)


def chief_factors_in(L: SubgroupLattice, b: int) -> tuple[ChiefFactor, ...]:
    """Chief factors H/K of b, each with C_b(H/K): the g in b with
    [g, h] in K for every generator h of H.  A complement m of H/K has
    m meet H = K, so it lies in the interval [K, b]."""
    return L.memo((chief_factors_in, b), lambda: _chief_factors(L, b))


def _chief_factors(L: SubgroupLattice, b: int) -> tuple[ChiefFactor, ...]:
    mult, inv = L.group.mult, L.group.inv
    subs = L.subgroups
    members = set_bits(subs[b].mask)
    factors = []
    for k, h in chief_factor_pairs_in(L, b):
        kmask = subs[k].mask
        cmask = 0
        for g in members:
            gi = inv[g]
            if all(kmask >> mult[mult[gi][inv[x]]][mult[g][x]] & 1
                   for x in subs[h].gens):
                cmask |= 1 << g
        factors.append(ChiefFactor(
            below=subs[k], above=subs[h],
            order=subs[h].order // subs[k].order,
            complemented=any(L.join(h, m) == b and L.meet(h, m) == k
                             for m in L.interval(k, b)),
            centralizer=subs[L.by_mask[cmask]]))
    return tuple(factors)


# -- supersolubility and dispersivity ---------------------------------------


def is_supersoluble_in(L: SubgroupLattice, b: int) -> bool:
    """Every chief factor of b has prime order; cross-checked against the
    prime-index-maximal-subgroups criterion when first asked."""
    return L.memo((is_supersoluble_in, b), lambda: _supersoluble(L, b))


def _supersoluble(L: SubgroupLattice, b: int) -> bool:
    primary = all(is_prime(L.subgroups[h].order // L.subgroups[k].order)
                  for k, h in chief_factor_pairs_in(L, b))
    # cross-check: all maximal subgroups of b have prime index (Huppert)
    ob = L.subgroups[b].order
    crosscheck = ob == 1 or all(
        is_prime(ob // L.subgroups[m].order) for m in L.hasse_down[b])
    if primary != crosscheck:
        raise InternalInconsistency(
            f"supersolubility criteria disagree on {L.group.name} member {b}")
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
