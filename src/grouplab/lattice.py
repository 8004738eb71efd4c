"""Complete subgroup lattices of small finite groups.

Enumeration is by cyclic extension: seed with all cyclic subgroups, then close
the set under join-with-a-cyclic-subgroup until fixpoint.  Each join <H, c>
is enumerated from the known mask of H as a union of cosets of H.  A join is
not enumerated when Lagrange's theorem already names it: if an earlier join
j = <H, c'> contains c, then <H, c> <= j, and when no order other than |j|
fits between |Hc| and |j| as a multiple of lcm(|H|, |c|) dividing |j|,
<H, c> = j, which is already known (`_lagrange_pins`).  Subgroups are
canonically identified by their member bitmask; lattice ids are assigned in
(order, member-set) sort order, so reports are deterministic.

The order relation is held as bitsets over ids: up[a] has bit b set when
a <= b, down[a] when b <= a.  Since ids sort by order, the lowest bit of
the common upper bounds of some subgroups is their join and the highest bit
of their common lower bounds their meet, so join, meet, `generated`,
intervals and the Hasse covers are a few integer operations each, and
prime_down[b] holds the subgroups that reach b by a chain of prime-index
covers, which answers both n-maximality with prime-power index and
P-subnormality with one bit test.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .permgroup import (FiniteGroup, OrderCapExceeded, factorize, order_cap,
                        set_bits)


@dataclass
class Subgroup:
    """Element-subset handle inside a parent group's lattice."""

    parent: FiniteGroup
    members: tuple[int, ...]
    mask: int
    id: int = -1
    gens: tuple[int, ...] = ()  # generates members; conjugation tests use it

    @property
    def order(self) -> int:
        return len(self.members)

    def gen_cycles(self) -> list[str]:
        """Cycle strings for a small generating set (for reports)."""
        gens = self.gens or tuple(self.members[1:2])
        return [self.parent.elements[g].cycle_string() for g in gens] or ["()"]

    def __repr__(self) -> str:
        return f"Subgroup(id={self.id}, order={self.order})"


class SubgroupLattice:
    """All subgroups of a group with Hasse covers and conjugacy data."""

    def __init__(self, group: FiniteGroup, mask_gens: dict[int, tuple[int, ...]]):
        self.group = group
        n = group.order
        items = []
        for mask, gens in mask_gens.items():
            members = tuple(group.mask_members(mask))
            items.append((len(members), members, mask, gens))
        items.sort(key=lambda t: (t[0], t[1]))
        self.subgroups: list[Subgroup] = [
            Subgroup(group, members, mask, id=i, gens=gens)
            for i, (_, members, mask, gens) in enumerate(items)
        ]
        self.by_mask: dict[int, int] = {s.mask: s.id for s in self.subgroups}
        self.bottom = self.subgroups[0]
        self.top = self.subgroups[-1]
        assert self.bottom.order == 1 and self.top.order == n
        self._build_order()
        self._conj_cache: list[dict[int, int]] = [dict() for _ in self.subgroups]
        self._normalizers: list[int | None] = [None] * len(self.subgroups)
        self._subs_of: dict[int, list[int]] = {}
        # caches owned by other modules (submodular / classes)
        self.step_kind_cache: dict[tuple[int, int], tuple] = {}
        self.ksub_reach: dict[tuple[int, int], frozenset[int]] = {}
        self.modular_cache: dict[tuple[int, int], bool] = {}
        self.residual_cache: dict[tuple[int, str], int] = {}
        self.subnormal_cache: dict[str, frozenset[int]] = {}

    def __len__(self) -> int:
        return len(self.subgroups)

    def _build_order(self) -> None:
        """holders[x] has bit s set when subgroup s contains element x; b
        holds every generator of a exactly when a <= b, so up[a] is the AND
        of holders over a.gens.  The covers of a are greedy: the lowest bit
        left in up[a] above a is minimal, so take it and clear its up-set.

        prime_down[b] has bit a set when a chain a = C0 < ... < Cn = b of
        covers of prime index exists.  Ids ascend by order, so every cover
        into a is found before a is processed and prime_down[a] is complete
        when it is pushed up.  If |b:a| = q^n, such a chain is exactly a
        maximal chain of length n: in a maximal chain of n covers the
        indices are powers of q greater than 1 multiplying to q^n, so each
        is q; conversely a step of prime index is a cover by Lagrange's
        theorem, and indices dividing q^n are q, so there are n of them.
        """
        subs = self.subgroups
        m = len(subs)
        self.holders: list[int] = [0] * self.group.order
        for s in subs:
            bit = 1 << s.id
            for x in s.members:
                self.holders[x] |= bit
        self.up: list[int] = []
        for s in subs:
            u = (1 << m) - 1
            for g in s.gens:
                u &= self.holders[g]
            self.up.append(u)
        self.down: list[int] = [0] * m
        self.prime_down: list[int] = [1 << a for a in range(m)]
        primes = set(factorize(self.group.order))  # a prime index divides |G|
        self.hasse_down: list[list[int]] = [[] for _ in range(m)]  # maximal subgroups
        self.hasse_up: list[list[int]] = [[] for _ in range(m)]  # covers
        for a, u in enumerate(self.up):
            bit = 1 << a
            for b in set_bits(u):
                self.down[b] |= bit
            u ^= bit
            while u:
                b = (u & -u).bit_length() - 1
                self.hasse_up[a].append(b)
                self.hasse_down[b].append(a)
                if subs[b].order // subs[a].order in primes:
                    self.prime_down[b] |= self.prime_down[a]
                u &= ~self.up[b]

    # -- basic queries -------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return self.up[a] >> b & 1 == 1

    def meet(self, a: int, b: int) -> int:
        """The largest common lower bound: the highest bit of down[a] & down[b]."""
        return (self.down[a] & self.down[b]).bit_length() - 1

    def join(self, a: int, b: int) -> int:
        """The least common upper bound: the lowest bit of up[a] & up[b]."""
        u = self.up[a] & self.up[b]
        return (u & -u).bit_length() - 1

    def generated(self, seed: Iterable[int]) -> int:
        """Least subgroup containing the given element ordinals."""
        u = (1 << len(self.subgroups)) - 1
        for x in seed:
            u &= self.holders[x]
        return (u & -u).bit_length() - 1

    def interval(self, a: int, b: int) -> list[int]:
        """Ids c with a <= c <= b, ascending."""
        return set_bits(self.down[b] & self.up[a])

    def subs_of(self, b: int) -> list[int]:
        """Ids of the subgroups of b, ascending (kept: chain searches and
        the modularity test walk the same intervals many times)."""
        hit = self._subs_of.get(b)
        if hit is None:
            hit = self._subs_of[b] = set_bits(self.down[b])
        return hit

    def maximal_in_join(self) -> Iterator[tuple[int, int]]:
        """The pairs (a, b) with a maximal in the join of a and b, in
        lexicographic order: b lies under some cover j of a and not under a,
        and then a < join(a, b) <= j forces join(a, b) = j."""
        for a, covers in enumerate(self.hasse_up):
            below = 0
            for j in covers:
                below |= self.down[j]
            for b in set_bits(below & ~self.down[a]):
                yield a, b

    def conjugate(self, a: int, g: int) -> int:
        hit = self._conj_cache[a].get(g)
        if hit is None:
            hit = self.by_mask[self.group.conjugate_mask(self.subgroups[a].mask, g)]
            self._conj_cache[a][g] = hit
        return hit

    def conjugates(self, a: int, within: int | None = None) -> list[int]:
        """Distinct conjugates of subgroup a under `within` (default: the
        whole group): the orbit of a under the generators of `within`."""
        gens = self.subgroups[self.top.id if within is None else within].gens
        seen = {a}
        frontier = [a]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = self.conjugate(x, g)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return sorted(seen)

    def normalizer(self, a: int) -> int:
        """N(a): the g with g^-1 h g in a for each generator h of a."""
        hit = self._normalizers[a]
        if hit is None:
            mult, inv = self.group.mult, self.group.inv
            sub = self.subgroups[a]
            nm = 0
            for g in range(self.group.order):
                row = mult[inv[g]]
                if all(sub.mask >> mult[row[h]][g] & 1 for h in sub.gens):
                    nm |= 1 << g
            hit = self.by_mask[nm]
            self._normalizers[a] = hit
        return hit

    def is_normal_in(self, a: int, b: int) -> bool:
        """a normal in b: the package's one normality test."""
        return self.leq(a, b) and self.leq(b, self.normalizer(a))

    def core(self, a: int, within: int | None = None) -> int:
        """Core of subgroup a inside `within` (default: the whole group): the
        meet of its conjugates under `within`."""
        mask = self.top.mask
        for c in self.conjugates(a, within):
            mask &= self.subgroups[c].mask
        return self.by_mask[mask]

    def frattini(self) -> int:
        mask = self.top.mask
        for m in self.hasse_down[self.top.id]:
            mask &= self.subgroups[m].mask
        return self.by_mask[mask]

    def reach_down(self, top: int, pred) -> dict[int, int]:
        """Ids a with a chain a = A0 < ... < Am = top whose every step (A, B)
        satisfies pred(A, B), mapped to the least such m.

        This is the one chain search behind every chain predicate: breadth
        first from `top`, so the distances also give shortest witnesses.
        """
        dist = {top: 0}
        frontier = [top]
        while frontier:
            new = []
            for b in frontier:
                for a in self.subs_of(b):
                    if a not in dist and pred(a, b):
                        dist[a] = dist[b] + 1
                        new.append(a)
            frontier = new
        return dist

    # -- subgroup as standalone group ---------------------------------------

    def subgroup_as_group(self, a: int) -> FiniteGroup:
        """Subgroup a as a FiniteGroup, with its lattice pre-seeded.

        The subgroups of the interval [1, a] are exactly the subgroups of the
        standalone group, so its lattice is translated rather than
        re-enumerated.
        """
        sub = self.subgroups[a]
        if a == self.top.id:
            return self.group
        cache = getattr(self, "_as_group", None)
        if cache is None:
            cache = self._as_group = {}
        hit = cache.get(a)
        if hit is not None:
            return hit
        G = self.group
        members = sub.members
        local = {m: i for i, m in enumerate(members)}
        elements = [G.elements[m] for m in members]
        gens = [G.elements[g] for g in (sub.gens or members[1:2])]
        H = FiniteGroup(G.degree, elements, gens,
                        name=f"{G.name}.sub{a}", _trusted=True)
        mask_gens: dict[int, tuple[int, ...]] = {}
        for c in self.subs_of(a):
            sc = self.subgroups[c]
            mask = 0
            for m in sc.members:
                mask |= 1 << local[m]
            mask_gens[mask] = tuple(local[g] for g in sc.gens)
        H._lattice = SubgroupLattice(H, mask_gens)
        cache[a] = H
        return H


def _lagrange_pins(h_order: int, c_order: int, meet_order: int,
                   j_order: int) -> bool:
    """Whether <h, c> <= j has order |j| by Lagrange's theorem alone.

    The order of <h, c> is a multiple of lcm(|h|, |c|), at least the size
    |h||c|/|h meet c| of the product set hc, and a divisor of |j|.  With
    q = |j|/lcm, the candidates below |j| are lcm times a proper divisor of
    q, the largest of which is q over its least prime factor.
    """
    step = math.lcm(h_order, c_order)
    q = j_order // step
    if q == 1:
        return True
    p = 2
    while q % p:
        p += 1
    return q // p * step < h_order * c_order // meet_order


def all_subgroups(G: FiniteGroup) -> SubgroupLattice:
    """Enumerate every subgroup of G by cyclic extension."""
    if G.order > order_cap():
        raise OrderCapExceeded(f"|{G.name}| = {G.order} exceeds cap {order_cap()}")
    mult = G.mult
    e = G.identity_ordinal
    n = G.order

    cyclic: dict[int, int] = {}  # mask -> least generator ordinal
    for x in range(n):
        mask = 1 << e
        y = x
        while y != e:
            mask |= 1 << y
            y = mult[y][x]
        if mask not in cyclic:
            cyclic[mask] = x
    cyc_items = sorted(cyclic.items(), key=lambda kv: (bin(kv[0]).count("1"), kv[0]))

    mask_gens: dict[int, tuple[int, ...]] = {1 << e: ()}
    queue: deque[int] = deque()
    for mask, gen in cyc_items:
        if mask not in mask_gens:
            mask_gens[mask] = (gen,)
            queue.append(mask)
    while queue:
        h = queue.popleft()
        hgens = mask_gens[h]
        h_order = h.bit_count()
        joins: list[int] = []  # the distinct <h, c> closed so far, by order
        for cmask, cgen in cyc_items:
            if cmask & ~h == 0:
                continue
            j = next((x for x in joins if cmask & ~x == 0), None)
            if j is not None and _lagrange_pins(
                    h_order, cmask.bit_count(), (cmask & h).bit_count(),
                    j.bit_count()):
                continue  # <h, c> = j, which is known
            j = G.closure_mask(hgens + (cgen,), h)
            if j not in mask_gens:
                mask_gens[j] = hgens + (cgen,)
                queue.append(j)
            if j not in joins:
                joins.append(j)
                joins.sort(key=int.bit_count)
    full = G.full_mask()
    if full not in mask_gens:  # trivial group
        mask_gens.setdefault(full, ())
    return SubgroupLattice(G, mask_gens)
