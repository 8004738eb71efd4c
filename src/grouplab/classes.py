"""Group-class oracles, formation residuals, subnormality predicates, local
formations and the w-construction.

Class-id vocabulary (the ids `oracle` takes):
  N          nilpotent groups
  U          supersoluble groups
  S          soluble groups
  A(m)       abelian groups of exponent dividing m
  A_exp_k(m) A(m) with no prime (k+1)-th power dividing the exponent
  A_k        abelian-Sylow groups with the same exponent restriction
  U_k        supersoluble groups with the same exponent restriction
  cyclic_A(m)_k      members of A_exp_k(m) with all Sylow subgroups cyclic
  sylA(m)_k_cyclic   groups whose Sylow subgroups are cyclic and lie in A_exp_k(m)

"exponents are not divided by the (k+1)th powers of primes" is read as: for
every prime q, q^(k+1) does not divide exponent(G).  The pi(F) condition of
the w-construction is treated as vacuous for the built-in oracles, all of
which contain every cyclic p-group.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .permgroup import (FiniteGroup, GroupError, factorize, is_prime,
                        quotient_cached, set_bits)
from .lattice import Subgroup, SubgroupLattice
from . import structure


# Named membership predicate for a class of groups, member(G) -> bool; the
# name keys the residual and F-subnormality memos.
ClassOracle = namedtuple("ClassOracle", "name member")


def _exponent_k_ok(G: FiniteGroup, k: int) -> bool:
    """No prime (k+1)-th power divides exponent(G)."""
    return all(m <= k for m in factorize(G.exponent()).values())


def _all_sylow_abelian(G: FiniteGroup) -> bool:
    """Every Sylow subgroup abelian: its generators commute pairwise."""
    mult = G.mult
    for p in G.prime_divisors():
        gens = structure.sylow(G, p).gens
        if not all(mult[x][y] == mult[y][x] for x in gens for y in gens):
            return False
    return True


def oracle(class_id: str, m: int | None = None, k: int | None = None) -> ClassOracle:
    """Build a ClassOracle from its class-id and parameters."""
    if class_id == "N":
        return ClassOracle("N", structure.is_nilpotent)
    if class_id == "U":
        return ClassOracle("U", structure.is_supersoluble)
    if class_id == "S":
        return ClassOracle("S", structure.is_soluble)
    if class_id == "A":
        if m is None:
            raise GroupError("A(m) needs m")
        return ClassOracle(f"A({m})",
                           lambda G: G.is_abelian() and m % G.exponent() == 0)
    if class_id == "A_exp_k":
        if m is None or k is None:
            raise GroupError("A_exp_k(m) needs m and k")
        return ClassOracle(
            f"A({m})_{k}",
            lambda G: (G.is_abelian() and m % G.exponent() == 0
                       and _exponent_k_ok(G, k)))
    if class_id == "A_k":
        if k is None:
            raise GroupError("A_k needs k")
        return ClassOracle(f"A_{k}",
                           lambda G: _all_sylow_abelian(G) and _exponent_k_ok(G, k))
    if class_id == "U_k":
        if k is None:
            raise GroupError("U_k needs k")
        return ClassOracle(
            f"U_{k}",
            lambda G: structure.is_supersoluble(G) and _exponent_k_ok(G, k))
    if class_id == "cyclic_A":
        if m is None or k is None:
            raise GroupError("cyclic_A(m)_k needs m and k")
        return ClassOracle(
            f"cycA({m})_{k}",
            lambda G: (G.is_abelian() and m % G.exponent() == 0
                       and _exponent_k_ok(G, k) and G.is_cyclic()))
    if class_id == "sylA_cyclic":
        if m is None or k is None:
            raise GroupError("sylA(m)_k_cyclic needs m and k")

        def member(G: FiniteGroup) -> bool:
            # the Sylow p-subgroup, of order p^a, is cyclic iff some element
            # has order p^a, and then its exponent is p^a
            orders = set(G.element_orders)
            return all(p**a in orders and m % p**a == 0 and a <= k
                       for p, a in factorize(G.order).items())

        return ClassOracle(f"sylA({m})_{k}cyc", member)
    raise GroupError(f"unknown class id {class_id!r}")


def h_function(k: int) -> Callable[[int], ClassOracle]:
    """The formation function h with h(p) = cyclic members of A(p-1)_k."""
    return lambda p: oracle("cyclic_A", m=p - 1, k=k)


def f_function(k: int) -> Callable[[int], ClassOracle]:
    """The formation function f with f(p) = cyclic-Sylow members of A(p-1)_k."""
    return lambda p: oracle("sylA_cyclic", m=p - 1, k=k)


# -- residuals ---------------------------------------------------------------
# Read in the parent lattice; `residual_mask` memoises under (b, F.name) and
# the subnormal sets under string keys, both in the lattice's memo(__name__).


def residual_mask(L: SubgroupLattice, b: int, F: ClassOracle) -> int:
    """Bitmask over the parent's ordinals of b^F, the least normal subgroup
    of member b whose quotient lies in F.

    F is assumed to be a formation (every built-in oracle is one): closed
    under quotients and subdirect products, so the normal subgroups with
    quotient in F are closed under intersection, and the first passer of
    the scan by ascending order is the unique minimum.  Each quotient is
    built from `L.subgroup_as_group(b)`, whose ordinals are b's members in
    ascending order, so local ids rise with parent ids and the scan meets
    the normal subgroups in the order b's own lattice would.
    """
    memo = L.memo(__name__)
    hit = memo.get((b, F.name))
    if hit is None:
        H = L.subgroup_as_group(b)
        members = L.subgroups[b].members
        for a in structure.normal_ids_in(L, b):
            hit = L.subgroups[a].mask
            local = hit if H is L.group else sum(
                1 << i for i, m in enumerate(members) if hit >> m & 1)
            # the trivial quotient is in every non-empty class we build
            if a == b or F.member(quotient_cached(H, local)[0]):
                break
        memo[b, F.name] = hit
    return hit


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
    memo = L.memo(__name__)
    hit = memo.get("KP")
    if hit is None:
        hit = memo["KP"] = frozenset(L.reach_down(
            L.top.id, lambda a, b: _prime_index(L, a, b) or L.is_normal_in(a, b)))
    return hit


def is_P_subnormal(G: FiniteGroup, H: Subgroup) -> bool:
    L = G.lattice()
    return H.id in p_subnormal_set(L)


def is_KP_subnormal(G: FiniteGroup, H: Subgroup) -> bool:
    L = G.lattice()
    return H.id in p_subnormal_set(L, variant_k=True)


def f_subnormal_set(L: SubgroupLattice, F: ClassOracle) -> frozenset[int]:
    """Ids F-subnormal in the lattice's top group.

    Residuals are computed lazily per chain node, so only groups actually
    touched by the backward search are materialized.
    """
    memo = L.memo(__name__)
    key = f"F:{F.name}"
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = frozenset(L.reach_down(
            L.top.id,
            lambda a, b: residual_mask(L, b, F) & ~L.subgroups[a].mask == 0))
    return hit


def is_F_subnormal(G: FiniteGroup, H: Subgroup, F: ClassOracle) -> bool:
    L = G.lattice()
    return H.id in f_subnormal_set(L, F)


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
