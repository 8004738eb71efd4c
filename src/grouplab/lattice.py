"""Complete subgroup lattices of small finite groups.

Enumeration is by cyclic extension of conjugacy class representatives
(Neubüser) in two passes over one list of representatives, each new
subgroup bringing its whole class, its orbit under G's generators.  A
zuppo is a cyclic subgroup of prime-power order.  The soluble pass extends
each representative H only by the zuppos z of p-power order that
normalize H and have z^p in H, each join of index p over H, the union of
the cosets H z^i for i < p; it finds exactly the soluble subgroups, so a
soluble group's lattice is complete after it.  For any other group the
general pass extends each representative by one zuppo from each
N(H)-orbit of the zuppos outside H, each join <H, z> enumerated from the
known mask of H as a union of cosets of H.  In both passes z is not
joined when it lies in a join of prime index over H found before, which
is then <H, z>.  Each subgroup keeps the generators the enumeration found
it by.  The tuple reports print is another: the one the plain loop
(every subgroup extended by every cyclic subgroup) finds first, replayed
on the finished lattice with joins in place of closures, so it does not
depend on the enumeration order; it is replayed for the whole lattice
when a report first prints one.  Each class brings the normalizers of
its members too: N(c^g) = N(c)^g; and the lattice keeps each orbit
walked, so a whole-group class is a read.  Subgroups are canonically
identified by their member bitmask; lattice ids are assigned in (order,
member-set) sort order, so reports are deterministic.

The order relation is held as bitsets over ids, built with no walk over
members: up[a] has bit b set when a <= b, down[a] when b <= a.  Since ids
sort by order, the lowest bit of the common upper bounds of some
subgroups is their join and the highest bit of their common lower bounds
their meet, so join, meet (one AND for two ids), `generated`, intervals
and the Hasse covers are a few integer operations each, and prime_down[b]
holds the subgroups that reach b by a chain of prime-index covers, which
answers both n-maximality with prime-power index and P-subnormality with
one bit test.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from .permgroup import (FiniteGroup, OrderCapExceeded, factorize, order_cap,
                        prime_power, set_bits)


class Subgroup:
    """Element-subset handle inside a parent group's lattice: `gens` are
    the generators the enumeration found it by, `printed_gens()` the tuple
    reports print."""

    __slots__ = ("lattice", "mask", "order", "id", "gens")

    def __init__(self, lattice: SubgroupLattice, mask: int, id: int,
                 gens: tuple[int, ...]):
        self.lattice, self.mask, self.id = lattice, mask, id
        self.order = mask.bit_count()
        # any generating tuple gives the same answers to the order
        # relation, commutation, centralizer, image and conjugation tests
        # that read it
        self.gens = gens

    def printed_gens(self) -> tuple[int, ...]:
        """The generator tuple reports print: the one the plain extension
        loop finds first (see `_replay_gens`), replayed for the whole
        lattice on the first call."""
        L = self.lattice
        return L.memo((_replay_gens,), lambda: _replay_gens(L))[self.id]

    def gen_cycles(self) -> list[str]:
        """Cycle strings of the printed generator tuple (for reports)."""
        return [self.lattice.group.elements[g].cycle_string()
                for g in self.printed_gens()] or ["()"]

    def __repr__(self) -> str:
        return f"Subgroup(id={self.id}, order={self.order})"


def _id_key(mask: int) -> tuple[int, str]:
    """Ids run in (order, member list) order, the reverse of this key's:
    the lowest bit in which two masks of one order differ comes first in
    the member list and in the reversed binary string of the one holding it."""
    return -mask.bit_count(), bin(mask)[:1:-1]


class SubgroupLattice:
    """All subgroups of a group with Hasse covers and conjugacy data."""

    def __init__(self, group: FiniteGroup, mask_gens: dict[int, tuple[int, ...]],
                 normalizers: dict[int, int], orbits: list[list[int]]):
        self.group = group
        n = group.order
        keyed = sorted((_id_key(mask), mask) for mask in mask_gens)
        self.subgroups: list[Subgroup] = [
            Subgroup(self, mask, id=i, gens=mask_gens[mask])
            for i, (_, mask) in enumerate(reversed(keyed))
        ]
        self.by_mask: dict[int, int] = {s.mask: s.id for s in self.subgroups}
        self.bottom = self.subgroups[0]
        self.top = self.subgroups[-1]
        assert self.bottom.order == 1 and self.top.order == n
        # holders[x]: column x of the member table, one row per id, top first
        table = "".join(key[1].ljust(n, "0") for key, _ in keyed)
        self._build_order([int(table[x::n], 2) for x in range(n)])
        self._normalizers = [self.by_mask[normalizers[s.mask]]
                             for s in self.subgroups]
        # per id, the ascending ids of its class: [a] for a normal a, else
        # one list shared by the class, from the orbit the enumeration walked
        self._class_of = [[a] for a in range(len(keyed))]
        for orbit in orbits:
            ids = sorted(map(self.by_mask.__getitem__, orbit))
            for a in ids:
                self._class_of[a] = ids
        self._memos: dict[tuple, object] = {}
        # perfbench's tracer reads the sizes of `submodular`'s two caches;
        # ksub_reach[top][j]: the ids with a chain up to top whose every
        # step has kind at most j, for j = 0 up to the largest needed
        self.step_kind_cache: dict[tuple[int, int], int | None] = {}
        self.ksub_reach: dict[int, tuple[frozenset[int], ...]] = {}

    def __len__(self) -> int:
        return len(self.subgroups)

    def _build_order(self, holders: list[int]) -> None:
        """holders[x] has bit s set when subgroup s contains element x; b
        holds every generator of a exactly when a <= b, so up[a] is the AND
        of holders over a.gens.  The covers of a are greedy: the lowest bit
        left in up[a] above a is minimal, so take it and clear its up-set.
        Ids ascend by order, so every cover into a is found before a is
        processed, and down[a] (a and the down-sets of its maximal
        subgroups) is complete when it is pushed up; so is prime_down[a].

        prime_down[b] has bit a set when a chain a = C0 < ... < Cn = b of
        covers of prime index exists.  If |b:a| = q^n, such a chain is
        exactly a maximal chain of length n: in a maximal chain of n covers
        the indices are powers of q greater than 1 multiplying to q^n, so
        each is q; conversely a step of prime index is a cover by Lagrange's
        theorem, and indices dividing q^n are q, so there are n of them.
        """
        subs = self.subgroups
        m = len(subs)
        up: list[int] = []
        for s in subs:
            u = (1 << m) - 1
            for g in s.gens:
                u &= holders[g]
            up.append(u)
        down: list[int] = [1 << a for a in range(m)]
        prime_down: list[int] = down[:]
        primes = set(factorize(self.group.order))  # a prime index divides |G|
        orders = [s.order for s in subs]
        hasse_down: list[list[int]] = [[] for _ in range(m)]  # maximal subgroups
        hasse_up: list[list[int]] = [[] for _ in range(m)]  # covers
        for a, u in enumerate(up):
            u ^= 1 << a
            while u:
                b = (u & -u).bit_length() - 1
                hasse_up[a].append(b)
                hasse_down[b].append(a)
                down[b] |= down[a]
                if orders[b] // orders[a] in primes:
                    prime_down[b] |= prime_down[a]
                u &= ~up[b]
        self.holders, self.up, self.down = holders, up, down
        self.prime_down = prime_down
        self.hasse_down, self.hasse_up = hasse_down, hasse_up

    # -- basic queries -------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return self.up[a] >> b & 1 == 1

    def meet(self, a: int = -1, b: int = -1, *more: int) -> int:
        """The largest common lower bound of the given ids (the top, the
        last id, for none): the highest bit of the AND of their down-sets.
        Two ids, the common call, take one AND."""
        down = self.down
        d = down[a] & down[b]
        for c in more:
            d &= down[c]
        return d.bit_length() - 1

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

    def memo(self, key: tuple, compute: Callable[[], object]):
        """compute(), worked out on the first call with `key` and kept with
        the lattice, so it is freed with it.  A key is a tuple led by the
        function that owns it, such as (normal_ids_in, b), or by a method's
        name, the same when perfbench's tracer rebinds it; answers are never
        None and are kept as the immutable values callers read."""
        hit = self._memos.get(key)
        if hit is None:
            hit = self._memos[key] = compute()
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

    def conjugates(self, a: int, within: int | None = None) -> list[int]:
        """Distinct conjugates of subgroup a under `within` (default: the
        whole group), ascending: a list kept by the lattice, not to be
        changed.  Under the whole group they are a's class, which the
        enumeration walked as one orbit, or [a] for a normal a.  Under a
        proper `within` they are the orbit of a under its generators, each
        generator that normalizes an orbit member skipped for it; each class
        of `within` is walked once, as the orbit is kept for every member."""
        if within is None or within == self.top.id:
            return self._class_of[a]
        hit = self._memos.get(("conjugates", a, within))
        if hit is not None:
            return hit
        subs, conj = self.subgroups, self.group.conjugate_mask
        gens = subs[within].gens
        seen = {a}
        frontier = [a]
        while frontier:
            new = []
            for x in frontier:
                nx = subs[self._normalizers[x]].mask
                for g in gens:
                    if nx >> g & 1:  # g normalizes x
                        continue
                    y = self.by_mask[conj(subs[x].mask, g)]
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        orbit = sorted(seen)
        for y in orbit:
            self._memos["conjugates", y, within] = orbit
        return orbit

    def normalizer(self, a: int) -> int:
        """N(a), handed over by `all_subgroups` for every subgroup."""
        return self._normalizers[a]

    def is_normal_in(self, a: int, b: int) -> bool:
        """a normal in b: the package's one normality test, a <= b <= N(a);
        `normal_bits` is its form over a set of ids."""
        return self.leq(a, b) and self.leq(b, self.normalizer(a))

    def normal_bits(self, b: int, among: int) -> int:
        """The ids in bitset `among` that are normal in b, as a bitset: the
        a with a <= b <= N(a), as in `is_normal_in`, tested for each a in
        `among` & down[b]."""
        up_b, norms = self.up[b], self._normalizers
        out = 0
        for a in set_bits(among & self.down[b]):
            if up_b >> norms[a] & 1:
                out |= 1 << a
        return out

    def core(self, a: int, within: int | None = None) -> int:
        """Core of subgroup a inside `within` (default: the whole group): the
        meet of its conjugates under `within`."""
        return self.meet(*self.conjugates(a, within))

    def frattini(self) -> int:
        """The meet of the maximal subgroups; the trivial group, which has
        none, is its own."""
        return self.meet(*self.hasse_down[self.top.id])

    def walk_down(self, seeds: int, steps: Callable[[int, int], int],
                  seen: int = 0) -> list[int]:
        """Breadth first from the ids of bitset `seeds` outside `seen`: the
        list of levels, disjoint bitsets, level i holding the ids whose
        shortest chain of legal steps up to a seed has i steps.  steps(b,
        rest) gives, as a bitset, the ids of `rest` one legal step below b;
        `rest`, never 0, is b's subgroups outside `seen` and the levels so
        far, the one being built included.  Every chain search is this walk."""
        down, levels = self.down, []
        new = seeds & ~seen
        while new:
            levels.append(new)
            seen |= new
            new = 0
            for b in set_bits(levels[-1]):
                rest = down[b] & ~seen & ~new
                if rest:
                    new |= steps(b, rest)
        return levels

    # -- subgroup as standalone group ---------------------------------------

    def subgroup_as_group(self, a: int) -> FiniteGroup:
        """Subgroup a as a FiniteGroup (the top is the group itself), built
        once per member.  Its element ordinals are a's members in ascending
        order, so local ids rise with parent ids."""
        if a == self.top.id:
            return self.group
        G = self.group
        sub = self.subgroups[a]
        return self.memo(("subgroup_as_group", a), lambda: FiniteGroup(
            G.degree, [G.elements[m] for m in set_bits(sub.mask)],
            [G.elements[g] for g in sub.gens], name=f"{G.name}.sub{a}"))


def _normalizer_mask(G: FiniteGroup, mask: int, gens: tuple[int, ...],
                     size: int) -> int:
    """N(H) for H = <gens> with member mask `mask` and a class of `size`
    subgroups: the g with g^-1 h g in H for each generator h.  H <= N(H),
    so a coset Hg lies in N(H) or misses it, and one g per coset is tested.
    By orbit-stabilizer |N(H)| = |G| / size, and the scan only ever adds
    cosets inside N(H), so it stops once it holds that many members."""
    mult, inv = G.mult, G.inv
    hrows = [mult[h] for h in set_bits(mask)]
    left = G.order // (size * len(hrows))  # the cosets of H in N(H)
    nm = tested = 0
    for g in range(G.order):
        if tested >> g & 1:
            continue
        coset = 0
        for r in hrows:
            coset |= 1 << r[g]
        tested |= coset
        row = mult[inv[g]]
        if all(mask >> mult[row[h]][g] & 1 for h in gens):
            nm |= coset
            left -= 1
            if not left:
                break
    return nm


def all_subgroups(G: FiniteGroup) -> SubgroupLattice:
    """Enumerate every subgroup of G by cyclic extension of conjugacy class
    representatives (Neubüser).

    Classes.  A zuppo is a cyclic subgroup of prime-power order.  Starting
    from the trivial subgroup, each class representative H is extended by
    zuppos z outside H; a new <H, z> adds its whole class (its orbit under
    G's generators) and becomes a representative.  A normal H (tested on
    generators) has N(H) = G and needs no normalizer scan, and a normal
    <H, z> is its own class.

    The soluble pass extends H by each zuppo z, of p-power order say,
    with z in N(H) and z^p in H; the candidates are one AND of bitmasks
    over element ordinals, N(H) & roots(H) & ~covered, roots(H) holding
    the zuppos z with z^p in H, taken lowest bit first, and each join
    found clears its members from them (see below).  Then
    <H, z> = H<z> and <z> meets H in <z^p>, so |<H, z> : H| = p and the
    join is the union of the cosets z^i H = H z^i for i < p, each read
    from row z^i of the multiplication table at H's members, with no
    closure.  It finds exactly the soluble subgroups.
    Each one it finds is soluble, as it has the soluble H as a normal
    subgroup of prime index.  Conversely a soluble K != 1 has a normal
    subgroup M of prime index p.  Some x in K lies outside M, and then so
    does the p-part z of x, since xM has order p; so z is in N(M), z^p is
    in M and K = M<z>.  M = H^g for a representative H (by induction on
    |K|), and K^(g^-1) = H<z^(g^-1)> is found from H.  So G is found exactly
    when G is soluble, and then every subgroup is.

    The general pass runs only when G was not found.  It goes over the
    same representatives again, and those it adds, and extends H by one
    zuppo z outside H from each orbit of N(H) on those zuppos.  This finds
    every subgroup: every K != 1 is generated by its zuppos, so K = <M, z>
    for a maximal subgroup M < K and a zuppo z of K outside M; M = H^g for
    a representative H (by induction on |K|), and <H^g, z> =
    <H, z^(g^-1)>^g; and for n in N(H), <H, z^n> = <H, z>^n, so one zuppo
    per N(H)-orbit gives K up to conjugacy.  Central generators of N(H) fix
    every zuppo, so when all of them are central there is no orbit walk.

    Prime-index rule.  In both passes a zuppo z is not joined to H when it
    lies in a join j found before with |j : H| a prime p: then
    H < <H, z> <= j, and no subgroup lies strictly between H and j, as its
    order would be a multiple of |H| properly dividing p|H|, so <H, z> = j,
    which is known.  The general pass starts from the joins the soluble
    pass found, and walks no orbit through them: the zuppos outside H
    that they hold are exactly those in N(H) with z^p in H, a set N(H)
    maps to itself.  A join of composite index is never used this way:
    <H, z> may then lie strictly between H and j, and be the K = <M, z>
    above that no other step reaches, so skipping it could lose a class.
    Every join of the soluble pass has prime index.

    Cyclic subgroups.  They come with their least generators from
    `FiniteGroup.cyclic_subgroups`, and z^p of each zuppo z from p - 1
    products.  A cyclic G needs no enumeration: its subgroups are its
    cyclic subgroups, all normal.

    Generators.  `Subgroup.gens` is the tuple the enumeration found the
    subgroup by: H's generators outside <z> plus z for a join <H, z>,
    their images under g for a conjugate.  It generates the subgroup,
    which is all its readers need.  The tuple reports print
    (`Subgroup.printed_gens`) does not depend on the enumeration:
    `_replay_gens` makes it for the whole lattice on the first call.

    Normalizers.  N(H) is computed for every representative H (one with no
    zuppo outside it is G, which is normal) by a scan over the cosets of H
    that stops once it holds |G|/|class| members (orbit-stabilizer), and
    each member c of a class keeps its images c^g under the moving
    generators g, a sum of 1 << x^g over its members.  A member d first
    found as c^g gets N(d) = N(c)^g, the image of N(c), or N(c) itself when
    N(c) is normal, so the lattice receives every subgroup's normalizer.

    Classes.  The orbit walked for each class of more than one subgroup is
    its whole class (central generators move nothing), and the lattice
    turns the orbits into per-id class lists, which whole-group
    `SubgroupLattice.conjugates` reads.
    """
    if G.order > order_cap():
        raise OrderCapExceeded(f"|{G.name}| = {G.order} exceeds cap {order_cap()}")
    full = G.full_mask()
    cyc_items = G.cyclic_subgroups[1]
    if cyc_items[-1][0] == full:  # G is cyclic: its subgroups are, all normal
        known = {mask: (g,) for mask, g in cyc_items}
        known[1 << G.identity_ordinal] = ()
        normalizers = dict.fromkeys(known, full)
        orbits = []
    else:
        known, normalizers, orbits = _classes(G)
    return SubgroupLattice(G, known, normalizers, orbits)


def _classes(G: FiniteGroup) -> tuple[dict, dict, list]:
    """The class-wise enumeration of `all_subgroups`: every subgroup mask
    with some generators, every subgroup's normalizer mask, and the member
    masks of each class of more than one subgroup."""
    canon, cyc_items = G.cyclic_subgroups
    mult, inv = G.mult, G.inv
    e = G.identity_ordinal
    full = G.full_mask()
    cyc_mask = {g: mask for mask, g in cyc_items}
    zuppos: list[int] = []  # each zuppo's least generator
    roots: dict[int, int] = {}  # x -> the bits of the zuppos z with z^p = x
    for mask, z in cyc_items:
        q = prime_power(mask.bit_count())
        if q is not None:  # z^p by p - 1 products: e when |z| = p
            w = z
            for _ in range(q[0] - 1):
                w = mult[w][z]
            zuppos.append(z)
            roots[w] = roots.get(w, 0) | 1 << z
    pow2 = [1 << x for x in range(G.order)]
    primes = set(factorize(G.order))

    idx = G.element_index
    seeds = [idx[s] for s in G.generators if idx[s] != e] or [e]
    ggens = G.generators_of(full, cyc_mask[canon[seeds[0]]], seeds[:1], seeds)
    # the generators that are not central: only they move subgroups
    moving = [g for g in ggens if any(mult[g][s] != mult[s][g] for s in ggens)]

    def conj(x: int, g: int) -> int:
        return mult[mult[inv[g]][x]][g]

    def central(x: int) -> bool:
        row = mult[x]
        return all(row[s] == mult[s][x] for s in moving)

    known: dict[int, tuple[int, ...]] = {}  # mask -> some generators
    normalizers: dict[int, int] = {}  # mask -> N mask
    reps: list[int] = []
    orbits: list[list[int]] = []
    class_size: dict[int, int] = {}  # representative -> its class's size
    # per member of a class of size > 1, its conjugates by the moving
    # generators; d -> (c, i) when d = c^moving[i] was found from c
    images: dict[int, list[int]] = {}
    found: dict[int, tuple[int, int]] = {}
    # per moving g: x -> 1 << x^g
    tables = [[1 << conj(x, g) for x in range(G.order)] for g in moving]

    def add_class(k: int, kgens: tuple[int, ...]) -> None:
        known[k] = kgens
        reps.append(k)
        if all(k >> conj(x, g) & 1 for g in moving for x in kgens):
            normalizers[k] = full
            return
        orbit = [k]
        for c in orbit:  # breadth first: the list grows as it is read
            members = set_bits(c)
            images[c] = imgs = [sum(map(t.__getitem__, members))
                                for t in tables]
            for i, d in enumerate(imgs):
                if d not in known:
                    known[d] = tuple(conj(x, moving[i]) for x in known[c])
                    found[d] = (c, i)
                    orbit.append(d)
        orbits.append(orbit)
        class_size[k] = len(orbit)
        if len(orbit) * k.bit_count() == G.order:  # |N(K)| = |G|/|orbit| = |K|
            normalizers[k] = k

    add_class(1 << e, ())
    covers: dict[int, int] = {}
    for soluble in (True, False):
        if full in known:  # the soluble pass found G: G is soluble
            break
        for h in reps:
            if h == full:
                continue
            hgens = known[h]
            nm = normalizers.get(h)
            if nm is None:
                nm = normalizers[h] = _normalizer_mask(G, h, hgens,
                                                       class_size[h])
            # H and the joins of prime index over H so far, in either pass
            covered = covers.get(h, h)
            if soluble:  # z in N(H) of p-power order with z^p in H
                hm = set_bits(h)
                fresh = nm & ~covered & sum(
                    bits for x, bits in roots.items() if h >> x & 1)
                while fresh:  # lowest first; a join's zuppos are covered
                    z = (fresh & -fresh).bit_length() - 1
                    j, w = h, z  # the cosets z^i H = H z^i for i < p
                    while not h >> w & 1:
                        j |= sum(map(pow2.__getitem__,
                                     map(mult[w].__getitem__, hm)))
                        w = mult[w][z]
                    covered |= j
                    fresh &= ~j
                    if j not in known:  # H's generators in <z> are not needed
                        add_class(j, tuple(x for x in hgens
                                           if not cyc_mask[z] >> x & 1) + (z,))
                covers[h] = covered
                continue
            # the soluble pass covered whole N(H)-orbits
            outside = [z for z in zuppos if not covered >> z & 1]
            acting = moving if nm == full else [
                g for g in G.generators_of(nm, h, hgens) if not central(g)]
            if acting:  # one zuppo per N(H)-orbit
                unvisited = set(outside)
                orbit_reps = []
                for z in outside:
                    if z not in unvisited:
                        continue
                    orbit_reps.append(z)
                    unvisited.discard(z)
                    stack = [z]
                    while stack:
                        x = stack.pop()
                        for g in acting:
                            y = canon[conj(x, g)]
                            if y in unvisited:
                                unvisited.discard(y)
                                stack.append(y)
                outside = orbit_reps
            h_order = h.bit_count()
            for z in outside:
                if covered >> z & 1:
                    continue  # <H, z> is the join of prime index holding z
                zmask = cyc_mask[z]
                j = (zmask if h & ~zmask == 0  # h <= <z>
                     else G.closure_mask(hgens + (z,), h))
                if j.bit_count() // h_order in primes:
                    covered |= j
                if j not in known:  # H's generators in <z> are not needed
                    add_class(j, tuple(x for x in hgens if not zmask >> x & 1)
                              + (z,))

    # N(c^g) = N(c)^g, and a normal N(c), whose class is itself, is N(c)^g
    for d, (c, i) in found.items():
        nc = normalizers[c]
        normalizers[d] = images[nc][i] if nc in images else nc
    return known, normalizers, orbits


def _replay_gens(L: SubgroupLattice) -> list[tuple[int, ...]]:
    """Per id, the generator tuple the plain extension loop finds first.
    That loop seeds every cyclic subgroup (by order, then mask) with its
    least generator, and extends each subgroup h, in queue order, by every
    cyclic subgroup c, giving <h, c> the generators of h plus the least
    generator of c.  It is replayed here with each closure <h, c> read as
    join(h, c), the lowest bit of up[h] & up[c], so the tuples depend only
    on the member sets.  The cyclic subgroups, with their least generators
    and in seeding order, are `FiniteGroup.cyclic_subgroups`.  `todo` holds
    the ids still without a tuple: h is skipped when none lies above it,
    and c when none lies above both.  For c <= h the join is h itself,
    which has its tuple."""
    up, by_mask = L.up, L.by_mask
    cyc = [(by_mask[mask], g) for mask, g in L.group.cyclic_subgroups[1]]
    gens: list[tuple[int, ...] | None] = [None] * len(L)
    gens[L.bottom.id] = ()
    queue = []
    for c, g in cyc:
        if gens[c] is None:
            gens[c] = (g,)
            queue.append(c)
    todo = sum(1 << a for a, t in enumerate(gens) if t is None)
    for h in queue:
        if not todo:
            break
        uh, hgens = up[h], gens[h]
        if not uh & todo:
            continue
        for c, g in cyc:
            u = uh & up[c]
            if u & todo:
                j = (u & -u).bit_length() - 1
                if gens[j] is None:
                    gens[j] = hgens + (g,)
                    queue.append(j)
                    todo ^= 1 << j
                    if not uh & todo:
                        break
    return gens
