"""Group-class oracles, formation residuals, subnormality predicates, local
formations and the w-construction.

Class-id vocabulary (the ids `oracle` takes):
  N          nilpotent groups
  U          supersoluble groups
  S          soluble groups
  A_exp_k(m) abelian groups of exponent dividing m, with no prime (k+1)-th
             power dividing the exponent
  A_k        abelian-Sylow groups with the same exponent restriction
  U_k        supersoluble groups with the same exponent restriction
  cyclic_A(m)_k      members of A_exp_k(m) with all Sylow subgroups cyclic
  sylA(m)_k_cyclic   groups whose Sylow subgroups are cyclic and lie in A_exp_k(m)

An oracle answers for a lattice member b, as a group, from the parent
lattice alone: `structure`'s `_in` forms, whether b's generators commute
and the element orders of b's members.

"exponents are not divided by the (k+1)th powers of primes" is read as: for
every prime q, q^(k+1) does not divide exponent(G).  The pi(F) condition of
the w-construction is treated as vacuous for the built-in oracles, all of
which contain every cyclic p-group.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .permgroup import (FiniteGroup, GroupError, factorize, is_prime,
                        quotient_cached, set_bits)
from .lattice import Subgroup, SubgroupLattice
from . import structure


class ClassOracle(namedtuple("ClassOracle", "name member_in")):
    """A named class of groups: `member_in(L, b)` says whether lattice
    member b, as a group, lies in it.  The name keys the residual and
    F-subnormality memos."""

    __slots__ = ()

    def member(self, G: FiniteGroup) -> bool:
        L = G.lattice()
        return self.member_in(L, L.top.id)


def _commute(L: SubgroupLattice, b: int) -> bool:
    """Member b is abelian: its generators commute pairwise."""
    mult, gens = L.group.mult, L.subgroups[b].gens
    return all(mult[x][y] == mult[y][x] for x in gens for y in gens)


def _orders(L: SubgroupLattice, b: int) -> frozenset[int]:
    """The element orders of member b, the same in b as in the parent."""
    return L.memo((_orders, b), lambda: frozenset(map(
        L.group.element_orders.__getitem__, set_bits(L.subgroups[b].mask))))


def _exponent_ok(L: SubgroupLattice, b: int, k: int, m: int = 0) -> bool:
    """No prime (k+1)-th power divides the exponent of member b, and the
    exponent divides m (m = 0 leaves it unrestricted)."""
    exponent = math.lcm(*_orders(L, b))
    return m % exponent == 0 and all(
        e <= k for e in factorize(exponent).values())


def oracle(class_id: str, m: int | None = None, k: int | None = None) -> ClassOracle:
    """Build a ClassOracle from its class-id and parameters."""
    if class_id == "N":
        return ClassOracle("N", lambda L, b: structure.is_quotient_nilpotent(
            L, L.bottom.id, b))
    if class_id == "U":
        return ClassOracle("U", structure.is_supersoluble_in)
    if class_id == "S":
        return ClassOracle("S", structure.is_soluble_in)
    if class_id == "A_exp_k":
        if m is None or k is None:
            raise GroupError("A_exp_k(m) needs m and k")
        return ClassOracle(f"A({m})_{k}", lambda L, b: (
            _commute(L, b) and _exponent_ok(L, b, k, m)))
    if class_id == "A_k":
        if k is None:
            raise GroupError("A_k needs k")
        return ClassOracle(f"A_{k}", lambda L, b: all(
            _commute(L, structure.sylow_in(L, b, p))
            for p in factorize(L.subgroups[b].order)) and _exponent_ok(L, b, k))
    if class_id == "U_k":
        if k is None:
            raise GroupError("U_k needs k")
        return ClassOracle(f"U_{k}", lambda L, b: (
            structure.is_supersoluble_in(L, b) and _exponent_ok(L, b, k)))
    if class_id == "cyclic_A":
        if m is None or k is None:
            raise GroupError("cyclic_A(m)_k needs m and k")
        return ClassOracle(f"cycA({m})_{k}", lambda L, b: (
            _commute(L, b) and _exponent_ok(L, b, k, m)
            and L.subgroups[b].order in _orders(L, b)))
    if class_id == "sylA_cyclic":
        if m is None or k is None:
            raise GroupError("sylA(m)_k_cyclic needs m and k")

        def member_in(L: SubgroupLattice, b: int) -> bool:
            # the Sylow p-subgroup, of order p^a, is cyclic iff some element
            # has order p^a, and then its exponent is p^a
            orders = _orders(L, b)
            return all(p**a in orders and m % p**a == 0 and a <= k
                       for p, a in factorize(L.subgroups[b].order).items())

        return ClassOracle(f"sylA({m})_{k}cyc", member_in)
    raise GroupError(f"unknown class id {class_id!r}")


def h_function(k: int) -> Callable[[int], ClassOracle]:
    """The formation function h with h(p) = cyclic members of A(p-1)_k."""
    return lambda p: oracle("cyclic_A", m=p - 1, k=k)


def f_function(k: int) -> Callable[[int], ClassOracle]:
    """The formation function f with f(p) = cyclic-Sylow members of A(p-1)_k."""
    return lambda p: oracle("sylA_cyclic", m=p - 1, k=k)


# -- residuals ---------------------------------------------------------------
# Read in the parent lattice and kept by `SubgroupLattice.memo`; the keys
# that depend on F hold F.name, since oracles are rebuilt on every call.


def residual_mask(L: SubgroupLattice, b: int, F: ClassOracle) -> int:
    """Bitmask over the parent's ordinals of b^F, the least normal subgroup
    of member b whose quotient lies in F.

    F is assumed to be a formation (every built-in oracle is one): closed
    under quotients and subdirect products, so the normal subgroups with
    quotient in F are closed under intersection, and the first passer of
    the scan by ascending order is the unique minimum.  It asks b = b/1 of
    the parent lattice first, and only when b is not in F builds the b/N
    from `L.subgroup_as_group(b)`, whose ordinals are b's members in
    ascending order, so it meets them in the order b's own lattice would.
    """
    return L.memo((residual_mask, b, F.name), lambda: _residual(L, b, F))


def _residual(L: SubgroupLattice, b: int, F: ClassOracle) -> int:
    if F.member_in(L, b):
        return L.bottom.mask
    H = L.subgroup_as_group(b)
    members = set_bits(L.subgroups[b].mask)
    for a in structure.normal_ids_in(L, b)[1:]:
        mask = L.subgroups[a].mask
        local = mask if H is L.group else sum(
            1 << i for i, m in enumerate(members) if mask >> m & 1)
        # the trivial quotient is in every non-empty class we build
        if a == b or F.member(quotient_cached(H, local)[0]):
            return mask
    return L.bottom.mask  # b is trivial


def residual(G: FiniteGroup, F: ClassOracle) -> Subgroup:
    L = G.lattice()
    return L.subgroups[L.by_mask[residual_mask(L, L.top.id, F)]]


# -- subnormality ------------------------------------------------------------


def _prime_index(L: SubgroupLattice, a: int, b: int) -> bool:
    return is_prime(L.subgroups[b].order // L.subgroups[a].order)


def p_subnormal_set(L: SubgroupLattice, variant_k: bool = False) -> frozenset[int]:
    """Ids P-subnormal (chains of prime-index steps, which are the
    prime-index covers in `L.prime_down`) or, with `variant_k`,
    K-P-subnormal (each step of prime index or normal) in the top group."""
    if not variant_k:
        return frozenset(set_bits(L.prime_down[L.top.id]))
    return L.memo((p_subnormal_set,), lambda: frozenset(L.reach_down(
        L.top.id, lambda a, b: _prime_index(L, a, b) or L.is_normal_in(a, b))))


def f_subnormal_set(L: SubgroupLattice, F: ClassOracle) -> frozenset[int]:
    """Ids F-subnormal in the lattice's top group.

    Residuals are computed lazily per chain node, so only groups actually
    touched by the backward search are materialized.
    """
    return L.memo((f_subnormal_set, F.name), lambda: frozenset(L.reach_down(
        L.top.id,
        lambda a, b: residual_mask(L, b, F) & ~L.subgroups[a].mask == 0)))


# -- local formations and the w-construction ---------------------------------


def in_local_formation(G: FiniteGroup, f: Callable[[int], ClassOracle]) -> bool:
    """Membership in LF(f): every chief-factor automizer lies in f(p) for all
    primes p dividing the factor order."""
    L = G.lattice()
    for cf in structure.chief_factors_in(L, L.top.id):
        Q, _ = quotient_cached(G, cf.centralizer.mask)
        for p in factorize(cf.order):
            if not f(p).member(Q):
                return False
    return True


def in_wF(G: FiniteGroup, F: ClassOracle) -> bool:
    """Every Sylow subgroup F-subnormal (pi(F) vacuous for built-ins)."""
    L = G.lattice()
    reach = f_subnormal_set(L, F)
    return all(structure.sylow_in(L, L.top.id, p) in reach
               for p in G.prime_divisors())
