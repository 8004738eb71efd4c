"""Group-class oracles, formation residuals, subnormality predicates, local
formations and the w-construction.

Class-id vocabulary (CLI-visible):
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

from dataclasses import dataclass
from typing import Callable

from .permgroup import (FiniteGroup, GroupError, factorize, is_prime,
                        quotient_cached, set_bits)
from .lattice import Subgroup, SubgroupLattice
from . import structure


@dataclass
class ClassOracle:
    """Named membership predicate for a class of groups.

    The formation flag is trusted metadata; it is only set where standard
    theory asserts the closure property.
    """

    name: str
    member_fn: Callable[[FiniteGroup], bool]
    is_formation: bool = False

    def member(self, G: FiniteGroup) -> bool:
        key = f"class:{self.name}"
        hit = G._class_cache.get(key)
        if hit is None:
            hit = self.member_fn(G)
            G._class_cache[key] = hit
        return hit


def _exponent_k_ok(G: FiniteGroup, k: int) -> bool:
    """No prime (k+1)-th power divides exponent(G)."""
    return all(m <= k for m in factorize(G.exponent()).values()) if G.order > 1 else True


def _all_sylow_abelian(G: FiniteGroup) -> bool:
    mult = G.mult
    for p in G.prime_divisors():
        members = structure.sylow(G, p).members
        if not all(mult[x][y] == mult[y][x] for x in members for y in members):
            return False
    return True


def _all_sylow_cyclic(G: FiniteGroup) -> bool:
    # a cyclic Sylow p-subgroup exists iff some element realizes the p-part
    orders = set(G.element_orders)
    facs = factorize(G.order) if G.order > 1 else {}
    return all(p**m in orders for p, m in facs.items())


def oracle(class_id: str, m: int | None = None, k: int | None = None) -> ClassOracle:
    """Build a ClassOracle from its class-id and parameters."""
    if class_id == "N":
        return ClassOracle("N", structure.is_nilpotent, is_formation=True)
    if class_id == "U":
        return ClassOracle("U", structure.is_supersoluble, is_formation=True)
    if class_id == "S":
        return ClassOracle("S", structure.is_soluble, is_formation=True)
    if class_id == "A":
        if m is None:
            raise GroupError("A(m) needs m")
        return ClassOracle(f"A({m})",
                           lambda G: G.is_abelian() and m % G.exponent() == 0,
                           is_formation=True)
    if class_id == "A_exp_k":
        if m is None or k is None:
            raise GroupError("A_exp_k(m) needs m and k")
        return ClassOracle(
            f"A({m})_{k}",
            lambda G: (G.is_abelian() and m % G.exponent() == 0
                       and _exponent_k_ok(G, k)),
            is_formation=True)
    if class_id == "A_k":
        if k is None:
            raise GroupError("A_k needs k")
        return ClassOracle(f"A_{k}",
                           lambda G: _all_sylow_abelian(G) and _exponent_k_ok(G, k),
                           is_formation=True)
    if class_id == "U_k":
        if k is None:
            raise GroupError("U_k needs k")
        return ClassOracle(
            f"U_{k}",
            lambda G: structure.is_supersoluble(G) and _exponent_k_ok(G, k),
            is_formation=True)
    if class_id == "cyclic_A":
        if m is None or k is None:
            raise GroupError("cyclic_A(m)_k needs m and k")
        return ClassOracle(
            f"cycA({m})_{k}",
            lambda G: (G.is_abelian() and m % G.exponent() == 0
                       and _exponent_k_ok(G, k) and G.is_cyclic()),
            is_formation=True)
    if class_id == "sylA_cyclic":
        if m is None or k is None:
            raise GroupError("sylA(m)_k_cyclic needs m and k")

        def member(G: FiniteGroup, m=m, k=k) -> bool:
            if G.order == 1:
                return True
            if not _all_sylow_cyclic(G):
                return False
            for p, a in factorize(G.order).items():
                # cyclic Sylow p has exponent p^a
                if m % p**a or a > k:
                    return False
            return True

        return ClassOracle(f"sylA({m})_{k}cyc", member, is_formation=True)
    raise GroupError(f"unknown class id {class_id!r}")


def h_function(k: int) -> Callable[[int], ClassOracle]:
    """The formation function h with h(p) = cyclic members of A(p-1)_k."""
    return lambda p: oracle("cyclic_A", m=p - 1, k=k)


def f_function(k: int) -> Callable[[int], ClassOracle]:
    """The formation function f with f(p) = cyclic-Sylow members of A(p-1)_k."""
    return lambda p: oracle("sylA_cyclic", m=p - 1, k=k)


# -- residuals ---------------------------------------------------------------
# Residual masks are memoised under (member id, formation name) and
# subnormal sets under string keys, both in the lattice's `memo(__name__)`.


def residual_mask(G: FiniteGroup, F: ClassOracle) -> int:
    """Bitmask of G^F, the least normal subgroup with quotient in F.

    Scans normal subgroups by ascending order; the formation intersection
    property makes the first passer the unique minimum, which is exactly the
    "no smaller normal subgroup has quotient in F" verification.
    """
    if not F.is_formation:
        raise GroupError(f"residual needs a formation, got {F.name}")
    L = G.lattice()
    memo = L.memo(__name__)
    hit = memo.get((L.top.id, F.name))
    if hit is not None:
        return hit
    result = None
    for a in structure.normal_ids_in(L, L.top.id):
        sub = L.subgroups[a]
        if sub.order == G.order:
            ok = True  # trivial quotient is in every non-empty class we build
        else:
            Q, _ = quotient_cached(G, sub.mask)
            ok = F.member(Q)
        if ok:
            result = sub.mask
            break
    assert result is not None
    memo[(L.top.id, F.name)] = result
    return result


def residual(G: FiniteGroup, F: ClassOracle) -> Subgroup:
    L = G.lattice()
    return L.subgroups[L.by_mask[residual_mask(G, F)]]


def residual_in(L: SubgroupLattice, b: int, F: ClassOracle) -> int:
    """Residual of lattice member b (as a group in its own right), returned
    as a bitmask over the *parent* group's ordinals."""
    memo = L.memo(__name__)
    hit = memo.get((b, F.name))
    if hit is None:
        H = L.subgroup_as_group(b)
        if H is L.group:
            hit = residual_mask(H, F)
        else:
            local = residual_mask(H, F)
            hit = 0
            members = L.subgroups[b].members
            for i, m in enumerate(members):
                if local >> i & 1:
                    hit |= 1 << m
        memo[(b, F.name)] = hit
    return hit


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
            lambda a, b: residual_in(L, b, F) & ~L.subgroups[a].mask == 0))
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
