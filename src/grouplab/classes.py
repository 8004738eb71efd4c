"""Group-class oracles, formation residuals, subnormality predicates, local
formations and the w-construction.

The classes (constants, and constructors named after the class):
  N              nilpotent groups
  U              supersoluble groups
  S              soluble groups
  A_exp_k(m, k)  abelian groups of exponent dividing m, with no prime
                 (k+1)-th power dividing the exponent
  A_k(k)         abelian-Sylow groups with the same exponent restriction
  U_k(k)         supersoluble groups with the same exponent restriction
  cyclic_A(m, k)     members of A_exp_k(m, k) with all Sylow subgroups cyclic
  sylA_cyclic(m, k)  groups whose Sylow subgroups are cyclic and lie in
                     A_exp_k(m, k)

An oracle answers for a section b/c (c normal in b) on the interval [c, b]
of the parent lattice, b/c's lattice by the correspondence theorem.  Only
`in_local_formation` builds groups: the automizers G/C_G(H/K), the side
that T3.5 and T3.6 check the local formations K and F against.

"exponents are not divided by the (k+1)th powers of primes" is read as: for
every prime q, q^(k+1) does not divide exponent(G).  The pi(F) condition of
the w-construction is treated as vacuous for the built-in oracles, all of
which contain every cyclic p-group.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .permgroup import FiniteGroup, factorize, quotient_cached, set_bits
from .lattice import Subgroup, SubgroupLattice
from . import structure


class ClassOracle(namedtuple("ClassOracle", "name member_in")):
    """A named class of groups: `member_in(L, c, b)` says whether the
    section b/c of lattice L (c normal in b) lies in it.  The name keys the
    residual and F-subnormality memos."""

    __slots__ = ()

    def member(self, G: FiniteGroup) -> bool:
        L = G.lattice()
        return self.member_in(L, L.bottom.id, L.top.id)


def _commute(L: SubgroupLattice, c: int, b: int) -> bool:
    """bc/c is abelian: c, normalized by b, holds b's generator commutators."""
    mult, inv, gens = L.group.mult, L.group.inv, L.subgroups[b].gens
    cmask = L.subgroups[c].mask
    return all(cmask >> mult[mult[inv[x]][inv[y]]][mult[x][y]] & 1
               for x in gens for y in gens)


def _orders(L: SubgroupLattice, c: int, b: int) -> frozenset[int]:
    """The element orders of b/c: xc has order |<x> : <x> meet c|, so they
    are |z| / |z meet c| for the cyclic subgroups z of b."""
    cyclic = L.memo((_orders,), lambda: sum(
        1 << L.by_mask[mask] for mask, _ in L.group.cyclic_subgroups[1]))
    return L.memo((_orders, c, b), lambda: frozenset(
        L.subgroups[z].order // L.subgroups[L.meet(z, c)].order
        for z in set_bits(cyclic & L.down[b])))


def _exponent_ok(L: SubgroupLattice, c: int, b: int, k: int, m: int = 0) -> bool:
    """No prime (k+1)-th power divides the exponent of b/c, and the
    exponent divides m (m = 0 leaves it unrestricted)."""
    exponent = math.lcm(*_orders(L, c, b))
    return m % exponent == 0 and all(
        e <= k for e in factorize(exponent).values())


N = ClassOracle("N", structure.is_quotient_nilpotent)
U = ClassOracle("U", lambda L, c, b: structure.is_supersoluble_in(L, b, c))
S = ClassOracle("S", lambda L, c, b: structure.is_soluble_in(L, b, c))


def A_exp_k(m: int, k: int) -> ClassOracle:
    return ClassOracle(f"A({m})_{k}", lambda L, c, b: (
        _commute(L, c, b) and _exponent_ok(L, c, b, k, m)))


def A_k(k: int) -> ClassOracle:
    # the Sylow p-subgroups of b/c are the Pc/c, P a Sylow p-subgroup of b
    return ClassOracle(f"A_{k}", lambda L, c, b: all(
        _commute(L, c, structure.sylow_in(L, b, p))
        for p in factorize(L.subgroups[b].order)) and _exponent_ok(L, c, b, k))


def U_k(k: int) -> ClassOracle:
    return ClassOracle(f"U_{k}", lambda L, c, b: (
        structure.is_supersoluble_in(L, b, c) and _exponent_ok(L, c, b, k)))


def cyclic_A(m: int, k: int) -> ClassOracle:
    return ClassOracle(f"cycA({m})_{k}", lambda L, c, b: (
        _commute(L, c, b) and _exponent_ok(L, c, b, k, m)
        and L.subgroups[b].order // L.subgroups[c].order in _orders(L, c, b)))


def sylA_cyclic(m: int, k: int) -> ClassOracle:
    def member_in(L: SubgroupLattice, c: int, b: int) -> bool:
        # the Sylow p-subgroup, of order p^a, is cyclic iff some element
        # has order p^a, and then its exponent is p^a
        orders = _orders(L, c, b)
        return all(p**a in orders and m % p**a == 0 and a <= k
                   for p, a in factorize(
                       L.subgroups[b].order // L.subgroups[c].order).items())

    return ClassOracle(f"sylA({m})_{k}cyc", member_in)


def h_function(k: int) -> Callable[[int], ClassOracle]:
    """The formation function h with h(p) = cyclic members of A(p-1)_k."""
    return lambda p: cyclic_A(p - 1, k)


def f_function(k: int) -> Callable[[int], ClassOracle]:
    """The formation function f with f(p) = cyclic-Sylow members of A(p-1)_k."""
    return lambda p: sylA_cyclic(p - 1, k)


# -- residuals ---------------------------------------------------------------
# Read in the parent lattice and kept by `SubgroupLattice.memo`; the keys
# that depend on F hold F.name, since the constructors build a new oracle
# on every call.


def residual_mask(L: SubgroupLattice, b: int, F: ClassOracle) -> int:
    """Bitmask over the parent's ordinals of b^F, the least normal subgroup
    of member b whose quotient lies in F.

    F is assumed to be a formation (every built-in oracle is one): closed
    under quotients and subdirect products, so the normal subgroups with
    quotient in F are closed under intersection, and the first passer of
    the scan by ascending order is the unique minimum.  Each b/a is asked
    as the section [a, b] of the parent lattice.
    """
    return L.memo((residual_mask, b, F.name), lambda: _residual(L, b, F))


def _residual(L: SubgroupLattice, b: int, F: ClassOracle) -> int:
    # the trivial quotient b/b is in every non-empty class we build
    return next(L.subgroups[a].mask for a in structure.normal_ids_in(L, b)
                if a == b or F.member_in(L, a, b))


def residual(G: FiniteGroup, F: ClassOracle) -> Subgroup:
    L = G.lattice()
    return L.subgroups[L.by_mask[residual_mask(L, L.top.id, F)]]


# -- subnormality ------------------------------------------------------------


def p_subnormal_set(L: SubgroupLattice, variant_k: bool = False) -> frozenset[int]:
    """Ids P-subnormal (chains of prime-index steps, which are the
    prime-index covers in `L.prime_down`) or, with `variant_k`,
    K-P-subnormal (each step of prime index or normal) in the top group."""
    if not variant_k:
        return frozenset(set_bits(L.prime_down[L.top.id]))

    def steps(b: int, rest: int) -> int:
        prime = rest & L.prime_down[b]
        return L.normal_bits(b, rest) | sum(
            1 << a for a in L.hasse_down[b] if prime >> a & 1)

    return L.memo((p_subnormal_set,), lambda: frozenset(set_bits(sum(
        L.walk_down(1 << L.top.id, steps)))))


def f_subnormal_set(L: SubgroupLattice, F: ClassOracle) -> frozenset[int]:
    """Ids F-subnormal in the lattice's top group: joined to it by a chain
    whose every step a -> b has the residual b^F inside a.  The walk asks
    for the residual of each subgroup b it reaches once, and takes the ids
    above it as one bitset, so only the residuals of the b actually reached
    are worked out."""

    def steps(b: int, rest: int) -> int:
        return rest & L.up[L.by_mask[residual_mask(L, b, F)]]

    return L.memo((f_subnormal_set, F.name), lambda: frozenset(set_bits(sum(
        L.walk_down(1 << L.top.id, steps)))))


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
