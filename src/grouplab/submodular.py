"""Modular and submodular subgroups, n-modular embeddings, k-submodularity,
k-LM groups, the four group classes built on them, and the multi-variant
theorem characterizations.

Conventions:
  - An edge A -> B means A < B comparable in the lattice; a step of a
    k-submodular chain may be any comparable pair, not just a Hasse cover,
    since a normal inclusion of composite index is a legal single step.
  - A step verdict is one value (`step_kind`): 0 for a normal step, n >= 1
    for an n-modular one, None for no legal step.  A k-submodular witness
    is the chain itself, a list of lattice ids; `step_kind` of consecutive
    ids re-derives each step.
  - Every step verdict is intrinsic to the pair (A, B): only B, A and
    Core_B(A) enter the definition, so per-pair results are cached with the
    lattice and shared by all ambient queries.
  - n starts at 1 everywhere.  A step of kind n is legal at every k >= n,
    so the k-submodular sets of a top are nested in k (`ksub_set`).
"""
from __future__ import annotations

import math

from .permgroup import (GroupError, factorize, is_prime, prime_power,
                        quotient_cached, set_bits)
from .lattice import SubgroupLattice
from . import structure


# -- per-pair step classification --------------------------------------------


_MISS = object()  # step_kind caches None for "no legal step"


def step_kind(L: SubgroupLattice, a: int, b: int) -> int | None:
    """Classify the chain step a -> b (a < b required).

    Returns 0 when a is normal in b, n >= 1 when a is n-modularly embedded
    in b through the non-normal clause (n is then unique), and None when the
    pair is no legal step at all.  0 is falsy: test for None with `is`.
    A kind n >= 1 has p q^n = |b / Core_b(a)| dividing |b|, so no step in
    a top has a kind above the largest prime exponent of its order.
    """
    key = (a, b)
    hit = L.step_kind_cache.get(key, _MISS)
    if hit is not _MISS:
        return hit
    out = None
    if L.is_normal_in(a, b):
        out = 0
    else:
        p = L.subgroups[b].order // L.subgroups[a].order
        if is_prime(p):
            c = L.core(a, within=b)
            q_order = L.subgroups[b].order // (L.subgroups[c].order * p)
            pp = prime_power(q_order)
            if (pp is not None and pp[0] != p
                    and not structure.is_quotient_nilpotent(L, c, b)):
                out = pp[1]
    L.step_kind_cache[key] = out
    return out


def is_n_modularly_embedded(L: SubgroupLattice, h: int, b: int,
                            n: int) -> bool:
    """h n-modularly embedded in b for this exact n (normal h passes any n)."""
    if n < 1:
        raise GroupError("n-modular embedding needs n >= 1")
    if not L.leq(h, b):
        raise GroupError("h must lie in b")
    return h == b or step_kind(L, h, b) in (0, n)


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
    up, down, meet, join = L.up, L.down, L.meet, L.join
    return L.memo((_modular_in, m, b), lambda: all(
        (down[y] & up[meet(y, m)]).bit_count()
        == (down[join(y, m)] & up[m]).bit_count() for y in L.subs_of(b)))


def is_modular_subgroup(L: SubgroupLattice, m: int) -> bool:
    """Modularity of m in the full lattice (see `_modular_in`)."""
    return _modular_in(L, m, L.top.id)


def submodular_set(L: SubgroupLattice) -> frozenset[int]:
    """Ids submodular in the whole group."""
    return L.memo((submodular_set,), lambda: frozenset(L.reach_down(
        L.top.id, lambda a, b: _modular_in(L, a, b))))


# -- k-submodularity ---------------------------------------------------------


def _step_ok(L: SubgroupLattice, a: int, b: int, k: int) -> bool:
    kind = step_kind(L, a, b)
    return kind is not None and kind <= k


def ksub_set(L: SubgroupLattice, k: int, top: int | None = None) -> frozenset[int]:
    """Ids k-submodular in `top` (default: the whole group).  One walk per
    top answers every k: level j takes the steps of kind at most j, leaves a
    step of kind n > j to level n, and ends as `L.ksub_reach[top][j]`."""
    if k < 1:
        raise GroupError("k-submodularity needs k >= 1")
    if top is None:
        top = L.top.id
    sets = L.ksub_reach.get(top)
    if sets is None:
        seen, sets, later = set(), [], {0: {top}}
        while later:
            frontier = list(later.pop(len(sets), set()) - seen)
            seen.update(frontier)
            for b in frontier:
                for a in L.subs_of(b):
                    if a not in seen and (n := step_kind(L, a, b)) is not None:
                        if n <= len(sets):
                            seen.add(a)
                            frontier.append(a)
                        else:
                            later.setdefault(n, set()).add(a)
            sets.append(frozenset(seen))
        sets = L.ksub_reach[top] = tuple(sets)
    return sets[min(k, len(sets) - 1)]


def is_k_submodular(L: SubgroupLattice, h: int,
                    k: int) -> tuple[bool, list[int] | None]:
    """(True, chain) when h is k-submodular in the group, else (False, None).

    The chain is the shortest, then lexicographically least, list of ids
    from h up to the top whose every step is legal at k.  The chain
    lengths of the whole group's search are memoised per k; `ksub_set`
    keeps the ids of every k, for every top."""
    if k < 1:
        raise GroupError("k-submodularity needs k >= 1")
    top = L.top.id
    dist = L.memo((is_k_submodular, k), lambda: L.reach_down(
        top, lambda a, b: _step_ok(L, a, b, k)))
    if h not in dist:
        return False, None
    ids = [h]
    while ids[-1] != top:
        cur = ids[-1]
        ids.append(next(b for b in set_bits(L.up[cur] ^ (1 << cur))
                        if dist.get(b) == dist[cur] - 1
                        and _step_ok(L, cur, b, k)))
    return True, ids


# -- n-maximality and k-LM groups --------------------------------------------


def is_n_maximal_with_index(L: SubgroupLattice, a: int,
                            b: int) -> tuple[int, int | None] | None:
    """(n, q) with |b:a| = q^n and an n-step maximal chain a -> b, if any:
    with prime-power index that chain is one of prime-index covers, so a
    lies in `L.prime_down[b]` (see `SubgroupLattice._build_order`)."""
    if not L.leq(a, b):
        raise GroupError("a must lie in b")
    index = L.subgroups[b].order // L.subgroups[a].order
    if index == 1:
        return (0, None)
    pp = prime_power(index)
    if pp is None or not L.prime_down[b] >> a & 1:
        return None
    q, n = pp
    return (n, q)


def is_k_LM_group(L: SubgroupLattice,
                  k: int) -> tuple[bool, tuple[int, int] | None]:
    """Definition check over all ordered pairs (A, B) with A maximal in the
    join of A and B; returns the first failing pair as counterexample.

    Only the test 1 <= n <= k depends on k, so one scan per lattice serves
    every k: the first pair failing at k is the first pair at which the n
    needed so far rises above k.  The memo keeps the list of those rises."""
    if k < 1:
        raise GroupError("k-LM needs k >= 1")
    rises = L.memo((is_k_LM_group,), lambda: _lm_rises(L))
    return next(((False, pair) for n, pair in rises if n > k), (True, None))


def _lm_rises(L: SubgroupLattice) -> tuple[tuple[float, tuple[int, int]], ...]:
    """(n, pair) at each pair that needs a larger n than every pair before
    it; a pair without a prime-power chain needs infinity."""
    need, rises = 0, []
    for a, b in L.maximal_in_join():
        res = is_n_maximal_with_index(L, L.meet(a, b), b)
        # b is not under a, so the meet is below b and n >= 1
        n = math.inf if res is None else res[0]
        if n > need:
            need = n
            rises.append((n, (a, b)))
    return tuple(rises)


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
                r1 = is_n_maximal_with_index(L, d, m1)
                r2 = is_n_maximal_with_index(L, d, m2)
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
        return all(ksub_set(L, k, top=a).issuperset(L.hasse_down[a])
                   for a in range(len(L.subgroups)))
    if variant == 3:
        if not structure.is_supersoluble_in(L, top):
            return False
        return all(_automizer_cyclic_prime_power(L, cf, k)
                   for cf in structure.chief_factors_in(L, top))
    if variant == 4:
        return is_k_LM_group(L, k)[0]
    raise GroupError(f"unknown variant {variant}")


def schmidt_maximal_modular(L: SubgroupLattice, m: int) -> bool:
    """Independent oracle for modularity of a maximal subgroup: m normal, or
    the quotient by the core of m non-abelian of order pq."""
    top = L.top.id
    if m not in L.hasse_down[top]:
        raise GroupError("m must be maximal")
    if L.is_normal_in(m, top):
        return True
    c = L.core(m)
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
            elif kind == 0:
                attr = 'label="normal, modular"'
            else:
                attr = f'style=dashed label="n-modular n={kind}"'
            lines.append(f"  n{a} -> n{b} [{attr}];")
    lines.append("}")
    return "\n".join(lines)
