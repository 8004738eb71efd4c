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

from dataclasses import dataclass

from .permgroup import (GroupError, factorize, is_prime, prime_power,
                        quotient_cached, set_bits)
from .lattice import Subgroup, SubgroupLattice
from . import structure


@dataclass
class EmbeddingEdge:
    """One verified chain step; kind is 'normal', 'n_modular' or 'modular'."""

    lower: int
    upper: int
    kind: str
    n: int | None = None

    def to_json(self, L: SubgroupLattice) -> dict:
        return {
            "lower": L.subgroups[self.lower].gen_cycles(),
            "lower_order": L.subgroups[self.lower].order,
            "upper": L.subgroups[self.upper].gen_cycles(),
            "upper_order": L.subgroups[self.upper].order,
            "kind": self.kind,
            "n": self.n,
        }


@dataclass
class ChainWitness:
    """A verified chain H = H0 <= ... <= Hm = top with per-step kinds."""

    ids: list[int]
    steps: list[EmbeddingEdge]

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
    """Modularity of m as an element of the subgroup lattice of b."""
    memo = L.memo(__name__)
    key = (m, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    subs = L.subs_of(b)
    ok = True
    # condition (1): <X, m ^ Z> = <X, m> ^ Z for X <= Z
    for z in subs:
        for x in L.subs_of(z):
            if L.join(x, L.meet(m, z)) != L.meet(L.join(x, m), z):
                ok = False
                break
        if not ok:
            break
    # condition (2): <m, Y ^ Z> = <m, Y> ^ Z for m <= Z
    if ok:
        for z in L.interval(m, b):
            for y in subs:
                if L.join(m, L.meet(y, z)) != L.meet(L.join(m, y), z):
                    ok = False
                    break
            if not ok:
                break
    memo[key] = ok
    return ok


def is_modular_subgroup(L: SubgroupLattice, M: Subgroup) -> bool:
    """Exhaustive check of both modularity conditions in the full lattice."""
    return _modular_in(L, M.id, L.top.id)


def submodular_set(L: SubgroupLattice, top: int | None = None) -> frozenset[int]:
    """Ids submodular in `top` (default: the whole group)."""
    if top is None:
        top = L.top.id
    key = (-1, top)
    hit = L.ksub_reach.get(key)
    if hit is None:
        hit = frozenset(L.reach_down(top, lambda a, b: _modular_in(L, a, b)))
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
    join of A and B; returns the first failing pair as counterexample."""
    if k < 1:
        raise GroupError("k-LM needs k >= 1")
    for a, b in L.maximal_in_join():
        d = L.meet(a, b)
        res = is_n_maximal_with_index(L, L.subgroups[d], L.subgroups[b])
        if res is None or not 1 <= res[0] <= k:
            return False, (a, b)
    return True, None


# -- class membership --------------------------------------------------------

CLASS_IDS = ("X", "Y", "K", "F")


def in_class(L: SubgroupLattice, cls: str, k: int,
             top: int | None = None) -> bool:
    """Membership of `top` (default: the whole group), regarded as a group,
    in one of the four classes.

    X: every maximal subgroup k-submodular.  Y: every subgroup.
    K: supersoluble with every Sylow subgroup k-submodular.
    F: every Sylow subgroup k-submodular.

    The Sylow subgroups of `top` are the conjugates of one of them that lie
    in `top`: all of them are conjugate in `top`, hence in the whole group.
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
    sylows_ok = all(
        c in reach
        for p in factorize(L.subgroups[top].order)
        for c in L.conjugates(structure.sylow_in(L, top, p))
        if L.leq(c, top))
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

    Normal covers are solid, non-normal n-modular covers are dashed and
    labelled with n, other covers are dotted.  When k is given, nodes
    k-submodular in the group are shaded.
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
                mod = ", modular" if _modular_in(L, a, b) else ""
                attr = f'label="normal{mod}"'
            else:
                attr = f'style=dashed label="n-modular n={kind[1]}"'
            lines.append(f"  n{a} -> n{b} [{attr}];")
    lines.append("}")
    return "\n".join(lines)
