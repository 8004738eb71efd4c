"""Structural series and predicates: Sylow subgroups, solubility, nilpotency,
supersolubility, Ore dispersivity, Fitting subgroup, chief factors.

Each property has one implementation.  Sylow subgroups come from the lattice
(`sylow_in`), nilpotency is `is_quotient_nilpotent` (with c the trivial
subgroup for a group or lattice member), solubility is the derived series
(`is_soluble`), the commutator subgroup is `_derived_of_mask`,
supersolubility of a lattice member is `is_supersoluble_in`, and normality
is the lattice's `is_normal_in`.  The `_in` forms take a lattice and a
member id and treat the member as a group in its own right, so no lattice
is rebuilt for a subgroup.
"""
from __future__ import annotations

from dataclasses import dataclass

from .permgroup import FiniteGroup, GroupError, factorize, is_prime, set_bits
from .lattice import Subgroup, SubgroupLattice


class InternalInconsistency(GroupError):
    """Two supposedly equivalent criteria disagreed; indicates an engine bug."""


@dataclass
class ChiefFactor:
    """A pair (K, H) of normal subgroups with H/K minimal normal in G/K."""

    below: Subgroup
    above: Subgroup
    order: int
    complemented: bool
    centralizer: Subgroup


# -- Sylow -------------------------------------------------------------------


def sylow(G: FiniteGroup, p: int) -> Subgroup:
    """One Sylow p-subgroup: the least lattice id of full p-part order."""
    L = G.lattice()
    return L.subgroups[sylow_in(L, L.top.id, p)]


def sylow_in(L: SubgroupLattice, b: int, p: int) -> int:
    order = L.subgroups[b].order
    target = p ** factorize(order).get(p, 0)
    for a in L.subs_of(b):
        if L.subgroups[a].order == target:
            return a
    raise AssertionError("Sylow subgroup missing from lattice")


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
    """Derived series reaches the trivial subgroup."""
    mask = G.full_mask()
    while True:
        members = G.mask_members(mask)
        if len(members) == 1:
            return True
        nxt = _derived_of_mask(G, members)
        if nxt == mask:
            return False
        mask = nxt


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
    """Every Sylow subgroup normal (the finite-group criterion)."""
    L = G.lattice()
    return is_quotient_nilpotent(L, L.bottom.id, L.top.id)


def is_quotient_nilpotent(L: SubgroupLattice, c: int, b: int) -> bool:
    """Nilpotency of b/c for lattice ids c <= b with c normal in b.

    b/c is nilpotent iff each of its Sylows is normal, i.e. iff for every
    prime r | |b/c| some subgroup between c and b, normal in b, realizes the
    full r-part.  With c the trivial subgroup this is nilpotency of b.
    """
    oc, ob = L.subgroups[c].order, L.subgroups[b].order
    q = ob // oc
    for r, m in factorize(q).items():
        target = oc * r**m
        if not any(L.subgroups[s].order == target and L.is_normal_in(s, b)
                   for s in L.interval(c, b)):
            return False
    return True


# -- normal structure --------------------------------------------------------


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    L = G.lattice()
    return [L.subgroups[i] for i in normal_ids_in(L, L.top.id)]


def normal_ids_in(L: SubgroupLattice, b: int) -> list[int]:
    return [a for a in L.subs_of(b) if L.is_normal_in(a, b)]


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


def chief_factors(G: FiniteGroup) -> list[ChiefFactor]:
    L = G.lattice()
    return chief_factors_in(L, L.top.id)


def chief_factor_pairs_in(L: SubgroupLattice, b: int) -> list[tuple[int, int]]:
    """All pairs (k, h) of b-normal subgroups with h/k minimal normal in b/k:
    k < h and the b-normal subgroups of the interval [k, h] are k and h."""
    normals = normal_ids_in(L, b)
    normal_bits = sum(1 << a for a in normals)
    pairs = []
    for k in normals:
        above = L.up[k] & normal_bits
        for h in set_bits(above ^ (1 << k)):
            if L.down[h] & above == (1 << k) | (1 << h):
                pairs.append((k, h))
    return pairs


def chief_factors_in(L: SubgroupLattice, b: int) -> list[ChiefFactor]:
    """Chief factors H/K of b, each with C_b(H/K): the g in b with
    [g, h] in K for every generator h of H.  A complement m of H/K has
    m meet H = K, so it lies in the interval [K, b]."""
    out = []
    mult, inv = L.group.mult, L.group.inv
    for k, h in chief_factor_pairs_in(L, b):
        sk, sh = L.subgroups[k], L.subgroups[h]
        kmask = sk.mask
        cmask = 0
        for g in L.subgroups[b].members:
            gi = inv[g]
            if all(kmask >> mult[mult[gi][inv[x]]][mult[g][x]] & 1
                   for x in sh.gens):
                cmask |= 1 << g
        out.append(ChiefFactor(
            below=sk, above=sh, order=sh.order // sk.order,
            complemented=any(L.join(h, m) == b and L.meet(h, m) == k
                             for m in L.interval(k, b)),
            centralizer=L.subgroups[L.by_mask[cmask]],
        ))
    return out


# -- supersolubility and dispersivity ---------------------------------------


def is_supersoluble_in(L: SubgroupLattice, b: int) -> bool:
    """Every chief factor of b has prime order; cross-checked against the
    prime-index-maximal-subgroups criterion."""
    primary = all(
        is_prime(L.subgroups[h].order // L.subgroups[k].order)
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
