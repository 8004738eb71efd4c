"""Modular and submodular subgroups, n-modular embeddings, k-submodularity,
k-LM groups, the four group classes built on them, and the multi-variant
theorem characterizations.

Conventions:
  - An edge A -> B means A < B comparable in the lattice; a step of a
    k-submodular chain may be any comparable pair, not just a Hasse cover,
    since a normal inclusion of composite index is a legal single step.
  - Every step verdict is intrinsic to the pair (A, B): only B, A and
    Core_B(A) enter the definition, so per-pair results are cached with the
    lattice and shared by all ambient queries.
  - n starts at 1 everywhere.
"""
from __future__ import annotations

import math

from .permgroup import (GroupError, factorize, is_prime, prime_power,
                        quotient_cached, set_bits)
from .lattice import Subgroup, SubgroupLattice
from . import structure


class EmbeddingEdge:
    """One verified chain step; kind is 'normal' or 'n_modular'."""

    __slots__ = ("lower", "upper", "kind", "n")

    def __init__(self, lower: int, upper: int, kind: str, n: int | None = None):
        self.lower, self.upper, self.kind, self.n = lower, upper, kind, n

    def to_json(self, L: SubgroupLattice) -> dict:
        return {
            "lower": L.subgroups[self.lower].gen_cycles(),
            "lower_order": L.subgroups[self.lower].order,
            "upper": L.subgroups[self.upper].gen_cycles(),
            "upper_order": L.subgroups[self.upper].order,
            "kind": self.kind,
            "n": self.n,
        }


class ChainWitness:
    """A verified chain H = H0 <= ... <= Hm = top with per-step kinds."""

    __slots__ = ("ids", "steps")

    def __init__(self, ids: list[int], steps: list[EmbeddingEdge]):
        self.ids, self.steps = ids, steps

    def to_json(self, L: SubgroupLattice) -> dict:
        return {
            "subgroups": [L.subgroups[i].gen_cycles() for i in self.ids],
            "orders": [L.subgroups[i].order for i in self.ids],
            "steps": [e.to_json(L) for e in self.steps],
        }


# -- per-pair step classification --------------------------------------------


_MISS = object()  # step_kind caches None for "no legal step"


def step_kind(L: SubgroupLattice, a: int, b: int) -> tuple | None:
    """Classify the chain step a -> b (a < b required).

    Returns ("normal",) when a is normal in b, ("nmod", n) when a is
    n-modularly embedded in b through the non-normal clause (n is then
    unique), and None when the pair is no legal step at all.
    """
    key = (a, b)
    hit = L.step_kind_cache.get(key, _MISS)
    if hit is not _MISS:
        return hit
    if L.is_normal_in(a, b):
        out: tuple | None = ("normal",)
    else:
        out = None
        p = L.subgroups[b].order // L.subgroups[a].order
        if is_prime(p):
            c = L.core(a, within=b)
            q_order = L.subgroups[b].order // (L.subgroups[c].order * p)
            pp = prime_power(q_order)
            if pp is not None and pp[0] != p:
                q, n = pp
                if not structure.is_quotient_nilpotent(L, c, b):
                    out = ("nmod", n)
    L.step_kind_cache[key] = out
    return out


def is_n_modularly_embedded(L: SubgroupLattice, B: Subgroup, H: Subgroup,
                            n: int) -> bool:
    """H n-modularly embedded in B for this exact n (normal H passes any n)."""
    if n < 1:
        raise GroupError("n-modular embedding needs n >= 1")
    if not L.leq(H.id, B.id):
        raise GroupError("H must lie in B")
    if H.id == B.id:
        return True
    kind = step_kind(L, H.id, B.id)
    if kind is None:
        return False
    return kind[0] == "normal" or kind[1] == n


# -- modularity (lattice conditions) -----------------------------------------


def _modular_in(L: SubgroupLattice, m: int, b: int) -> bool:
    """Modularity of m <= b in the subgroup lattice [1, b]: (1) X v (m ^ Z)
    = (X v m) ^ Z for X <= Z, and (2) m v (Y ^ Z) = (m v Y) ^ Z for m <= Z
    (Schmidt 1994, ch. 2).  By Dedekind's transposition principle this holds
    iff |[y ^ m, y]| = |[m, y v m]| for every y <= b: two interval sizes.

    For y <= b, phi(x) = x v m maps [y ^ m, y] to [m, y v m] and psi(z) =
    z ^ y maps back.  (1) holds iff psi phi = id for every y: (1) at Z = y
    says so, and conversely psi phi maps X v (m ^ Z), a member of
    [Z ^ m, Z], to (X v m) ^ Z.  Likewise (2) holds iff phi psi = id for
    every y: (2) at Y = y says so, and phi psi maps (m v Y) ^ Z, a member of
    [m, Y v m], to m v (Y ^ Z).  So a modular m makes each phi a bijection.
    Conversely, let the sizes match.  If psi phi(x) = c != x for some y,
    then c > x, c <= x v m and m ^ c <= m ^ y <= x, so x v m = c v m and
    m ^ x = m ^ c; [m ^ x, x] is then a proper part of [m ^ c, c], and the
    sizes at y = x and y = c cannot both match.  So psi phi = id: phi is
    injective, hence onto as the sizes match, and phi psi = id too; so (1)
    needs no test of its own.
    """
    memo = L.memo(__name__)
    hit = memo.get((m, b))
    if hit is None:
        up, down, meet, join = L.up, L.down, L.meet, L.join
        hit = memo[m, b] = all(
            (down[y] & up[meet(y, m)]).bit_count()
            == (down[join(y, m)] & up[m]).bit_count() for y in L.subs_of(b))
    return hit


def is_modular_subgroup(L: SubgroupLattice, M: Subgroup) -> bool:
    """Modularity of M in the full lattice (see `_modular_in`)."""
    return _modular_in(L, M.id, L.top.id)


def submodular_set(L: SubgroupLattice) -> frozenset[int]:
    """Ids submodular in the whole group."""
    key = (-1, L.top.id)
    hit = L.ksub_reach.get(key)
    if hit is None:
        hit = frozenset(L.reach_down(L.top.id,
                                     lambda a, b: _modular_in(L, a, b)))
        L.ksub_reach[key] = hit
    return hit


def is_submodular(L: SubgroupLattice, H: Subgroup) -> bool:
    return H.id in submodular_set(L)


# -- k-submodularity ---------------------------------------------------------


def _step_ok(L: SubgroupLattice, a: int, b: int, k: int) -> bool:
    kind = step_kind(L, a, b)
    return kind is not None and (kind[0] == "normal" or kind[1] <= k)


def ksub_set(L: SubgroupLattice, k: int, top: int | None = None) -> frozenset[int]:
    """Ids k-submodular in `top` (default: the whole group)."""
    if k < 1:
        raise GroupError("k-submodularity needs k >= 1")
    if top is None:
        top = L.top.id
    key = (k, top)
    hit = L.ksub_reach.get(key)
    if hit is None:
        hit = frozenset(L.reach_down(top, lambda a, b: _step_ok(L, a, b, k)))
        L.ksub_reach[key] = hit
    return hit


def _witness(L: SubgroupLattice, h: int, k: int, top: int) -> ChainWitness:
    """Shortest, then lexicographically least, chain h -> top."""
    dist = L.reach_down(top, lambda a, b: _step_ok(L, a, b, k))
    ids = [h]
    steps = []
    cur = h
    while cur != top:
        nxt = next(b for b in set_bits(L.up[cur] ^ (1 << cur))
                   if dist.get(b) == dist[cur] - 1 and _step_ok(L, cur, b, k))
        kind = step_kind(L, cur, nxt)
        steps.append(EmbeddingEdge(cur, nxt, "normal", None)
                     if kind[0] == "normal"
                     else EmbeddingEdge(cur, nxt, "n_modular", kind[1]))
        ids.append(nxt)
        cur = nxt
    return ChainWitness(ids, steps)


def is_k_submodular(L: SubgroupLattice, H: Subgroup,
                    k: int) -> tuple[bool, ChainWitness | None]:
    reach = ksub_set(L, k)
    if H.id not in reach:
        return False, None
    return True, _witness(L, H.id, k, L.top.id)


# -- n-maximality and k-LM groups --------------------------------------------


def is_n_maximal_with_index(L: SubgroupLattice, A: Subgroup,
                            B: Subgroup) -> tuple[int, int | None] | None:
    """(n, q) with |B:A| = q^n and an n-step maximal chain A -> B, if any:
    with prime-power index that chain is one of prime-index covers, so A
    lies in `L.prime_down[B]` (see `SubgroupLattice._build_order`)."""
    if not L.leq(A.id, B.id):
        raise GroupError("A must lie in B")
    index = B.order // A.order
    if index == 1:
        return (0, None)
    pp = prime_power(index)
    if pp is None or not L.prime_down[B.id] >> A.id & 1:
        return None
    q, n = pp
    return (n, q)


def is_k_LM_group(L: SubgroupLattice,
                  k: int) -> tuple[bool, tuple[int, int] | None]:
    """Definition check over all ordered pairs (A, B) with A maximal in the
    join of A and B; returns the first failing pair as counterexample.

    Only the test 1 <= n <= k depends on k, so one scan per lattice serves
    every k: the first pair failing at k is the first pair at which the n
    needed so far rises above k.  The memo keeps the rises found so far and
    the paused scan, resumed only when a larger k needs more."""
    if k < 1:
        raise GroupError("k-LM needs k >= 1")
    memo = L.memo(__name__)
    if "LM" not in memo:
        memo["LM"] = [], _lm_rises(L)
    seen, scan = memo["LM"]
    for n, pair in seen:
        if n > k:
            return False, pair
    for n, pair in scan:
        seen.append((n, pair))
        if n > k:
            return False, pair
    return True, None


def _lm_rises(L: SubgroupLattice):
    """(n, pair) at each pair that needs a larger n than every pair before
    it; a pair without a prime-power chain needs infinity."""
    need = 0
    for a, b in L.maximal_in_join():
        d = L.meet(a, b)
        res = is_n_maximal_with_index(L, L.subgroups[d], L.subgroups[b])
        # b is not under a, so d < b and n >= 1
        n = math.inf if res is None else res[0]
        if n > need:
            need = n
            yield n, (a, b)


# -- class membership --------------------------------------------------------

CLASS_IDS = ("X", "Y", "K", "F")


def in_class(L: SubgroupLattice, cls: str, k: int,
             top: int | None = None) -> bool:
    """Membership of `top` (default: the whole group), regarded as a group,
    in one of the four classes.

    X: every maximal subgroup k-submodular.  Y: every subgroup.
    K: supersoluble with every Sylow subgroup k-submodular.
    F: every Sylow subgroup k-submodular.

    One Sylow p-subgroup per prime is tested: all are conjugate in `top`,
    and conjugation by an element of `top` is an automorphism of `top`; it
    keeps normality, cores, indices and the nilpotency of quotients, so it
    keeps every `step_kind` and maps the k-submodular set of `top` to itself.
    """
    if cls not in CLASS_IDS:
        raise GroupError(f"unknown class {cls!r}")
    if top is None:
        top = L.top.id
    reach = ksub_set(L, k, top=top)
    if cls == "X":
        return all(m in reach for m in L.hasse_down[top])
    if cls == "Y":
        return len(reach) == len(L.subs_of(top))
    sylows_ok = all(structure.sylow_in(L, top, p) in reach
                    for p in factorize(L.subgroups[top].order))
    if cls == "F":
        return sylows_ok
    return structure.is_supersoluble_in(L, top) and sylows_ok


# -- theorem characterizations -----------------------------------------------


def _automizer_cyclic_prime_power(L: SubgroupLattice, cf, k: int) -> bool:
    """G/C_G(H/K) trivial or cyclic of prime-power order q^n with n <= k."""
    c = cf.centralizer
    if c.order == L.group.order:
        return True
    Q, _ = quotient_cached(L.group, c.mask)
    pp = prime_power(Q.order)
    return pp is not None and pp[1] <= k and Q.is_cyclic()


def thm31_characterization(L: SubgroupLattice, variant: int, k: int) -> bool:
    if k < 1:
        raise GroupError("k >= 1 required")
    top = L.top.id
    if variant == 1:
        return in_class(L, "X", k)
    if variant == 2:
        if not structure.is_supersoluble_in(L, top):
            return False
        return all(_automizer_cyclic_prime_power(L, cf, k)
                   for cf in structure.chief_factors_in(L, top)
                   if cf.complemented)
    if variant == 3:
        if not structure.is_soluble(L.group):
            return False
        maxes = L.hasse_down[top]
        for i, m1 in enumerate(maxes):
            for m2 in maxes[i + 1:]:
                d = L.meet(m1, m2)
                r1 = is_n_maximal_with_index(L, L.subgroups[d], L.subgroups[m1])
                r2 = is_n_maximal_with_index(L, L.subgroups[d], L.subgroups[m2])
                if (r1 is None or r2 is None or r1[0] != r2[0]
                        or not 1 <= r1[0] <= k):
                    return False
        return True
    raise GroupError(f"unknown variant {variant}")


def thm32_characterization(L: SubgroupLattice, variant: int, k: int) -> bool:
    if k < 1:
        raise GroupError("k >= 1 required")
    top = L.top.id
    if variant == 1:
        return in_class(L, "Y", k)
    if variant == 2:
        return all(
            m in ksub_set(L, k, top=a)
            for a in range(len(L.subgroups))
            for m in L.hasse_down[a])
    if variant == 3:
        if not structure.is_supersoluble_in(L, top):
            return False
        return all(_automizer_cyclic_prime_power(L, cf, k)
                   for cf in structure.chief_factors_in(L, top))
    if variant == 4:
        return is_k_LM_group(L, k)[0]
    raise GroupError(f"unknown variant {variant}")


def schmidt_maximal_modular(L: SubgroupLattice, M: Subgroup) -> bool:
    """Independent oracle for modularity of a maximal subgroup: M normal, or
    the quotient by the core of M non-abelian of order pq."""
    top = L.top.id
    if M.id not in L.hasse_down[top]:
        raise GroupError("M must be maximal")
    if L.is_normal_in(M.id, top):
        return True
    c = L.core(M.id)
    q_order = L.group.order // L.subgroups[c].order
    facs = factorize(q_order)
    if sorted(facs.values()) != [1, 1]:
        return False
    Q, _ = quotient_cached(L.group, L.subgroups[c].mask)
    return not Q.is_abelian()


# -- DOT export --------------------------------------------------------------


def lattice_dot(L: SubgroupLattice, k: int | None = None) -> str:
    """Hasse diagram in DOT with per-edge embedding annotations.

    Normal covers are solid and labelled modular too, since Dedekind's law
    makes every normal subgroup modular; non-normal n-modular covers are
    dashed and labelled with n, other covers are dotted.  When k is given,
    nodes k-submodular in the group are shaded.
    """
    reach = ksub_set(L, k) if k is not None else frozenset()
    lines = ["digraph lattice {", "  rankdir=BT;",
             '  node [shape=box, fontname="monospace"];']
    for s in L.subgroups:
        label = f"#{s.id} |{s.order}|\\n" + " ".join(s.gen_cycles())
        style = ' style=filled fillcolor="lightblue"' if s.id in reach else ""
        lines.append(f'  n{s.id} [label="{label}"{style}];')
    for a in range(len(L.subgroups)):
        for b in L.hasse_up[a]:
            kind = step_kind(L, a, b)
            if kind is None:
                attr = 'style=dotted label="-"'
            elif kind[0] == "normal":
                attr = 'label="normal, modular"'
            else:
                attr = f'style=dashed label="n-modular n={kind[1]}"'
            lines.append(f"  n{a} -> n{b} [{attr}];")
    lines.append("}")
    return "\n".join(lines)
