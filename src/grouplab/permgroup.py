"""Exact finite permutation-group arithmetic.

Elements are permutations of {0, ..., degree-1}; a group stores its complete
element table together with a multiplication table over element ordinals.

The multiplication table is built from the Cayley graph: one row of
permutation products per generator, every other row a re-indexing of a known
row (`FiniteGroup.mult`).  Subgroup closures are bitmasks, enumerated as
unions of cosets of a known subgroup H (`FiniteGroup.closure_mask`): the
trivial subgroup by default, the subgroup being extended when the lattice is
enumerated.

Conventions (fixed, everything else in the package is written against them):

* Composition applies the left factor first: ``(p * q)(i) == q[p[i]]``.
* Cycle strings use 1-based points and the *rightmost* cycle acts first, so
  ``"(1 2)(2 3)"`` is the 3-cycle ``1 -> 2 -> 3 -> 1``.
* Conjugation is the right action ``x^g = g^-1 * x * g``.
"""
from __future__ import annotations

import math
import os
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache
from operator import itemgetter

DEFAULT_ORDER_CAP = 2000
ORDER_CAP_ENV = "GROUPLAB_ORDER_CAP"


class GroupError(Exception):
    """Base error for group construction and queries."""


class ParseError(GroupError):
    """Malformed cycle text or group spec."""


class OrderCapExceeded(GroupError):
    """Generated group would exceed the configured order cap."""


def order_cap() -> int:
    """Active order cap; the GROUPLAB_ORDER_CAP env var overrides the default."""
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise GroupError(f"bad {ORDER_CAP_ENV} value: {raw!r}") from exc
    if cap < 1:
        raise GroupError(f"{ORDER_CAP_ENV} must be positive, got {cap}")
    return cap


@lru_cache(maxsize=1024)
def _factor_items(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, multiplicity), ...),
    primes ascending; kept per n, as callers ask about a few dozen orders
    many times."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}, a new dict
    on every call, so the caller may change it."""
    return dict(_factor_items(n))


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    return n >= 2 and _factor_items(n) == ((n, 1),)


@lru_cache(maxsize=1024)
def prime_power(n: int) -> tuple[int, int] | None:
    """(q, m) with n == q**m for a prime q and m >= 1, else None."""
    f = _factor_items(n) if n > 1 else ()
    return f[0] if len(f) == 1 else None


def set_bits(bits: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending: each
    step takes the lowest set bit, bits & -bits, and clears it."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class Permutation(tuple):
    """A bijection on {0..degree-1}, stored as the tuple of images.

    Every instance is a bijection.  The check runs where images enter from
    outside the class: `Permutation(images)`, and through it `parse`,
    `identity` and the builders.  Products and inverses of bijections are
    bijections, so `__mul__` and `inverse` inherit the check and build their
    result without it; `__mul__` takes only a `Permutation` operand.

    A product is one C call: ``(p * q)(i) == q[p[i]]`` for every i is
    ``itemgetter(*p)(q)``.  With fewer than two points the only permutation
    is the identity, and itemgetter would return a bare item (one index) or
    fail (none), so that case returns ``p``.
    """

    def __new__(cls, images: Iterable[int]) -> "Permutation":
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ParseError(f"images are not a bijection: {images}")
        return super().__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self)

    def __mul__(self, other: "Permutation") -> "Permutation":  # type: ignore[override]
        # left factor acts first
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self) != len(other):
            raise GroupError("degree mismatch in composition")
        if len(self) < 2:
            return self
        return tuple.__new__(Permutation, itemgetter(*self)(other))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return tuple.__new__(Permutation, inv)

    def cycle_string(self) -> str:
        """1-based disjoint cycle notation; "()" for the identity."""
        seen = [False] * len(self)
        parts = []
        for start in range(len(self)):
            if seen[start] or self[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            j = self[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self[j]
            parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
        return "".join(parts) if parts else "()"

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse cycle notation such as "(1 2 3)(4 5)".

        Points are 1-based and must not exceed the degree.  Cycles need not be
        disjoint; the rightmost cycle is applied first.  Empty text (or "()")
        parses to the identity.
        """
        if degree < 0:
            raise ParseError("degree must be non-negative")
        stripped = text.strip()
        if not stripped:
            return cls.identity(degree)
        import re  # cycle text alone needs it: the engine loads without re
        cycle_re = re.compile(r"\(([^()]*)\)")
        leftover = cycle_re.sub("", stripped)
        if leftover.strip():
            raise ParseError(f"malformed cycle text: {text!r}")
        cycles = []
        for body in cycle_re.findall(stripped):
            tokens = [t for t in re.split(r"[,\s]+", body.strip()) if t]
            points = []
            for tok in tokens:
                try:
                    p = int(tok)
                except ValueError as exc:
                    raise ParseError(f"bad point {tok!r} in {text!r}") from exc
                if not 1 <= p <= degree:
                    raise ParseError(f"point {p} out of range 1..{degree}")
                points.append(p - 1)
            if len(set(points)) != len(points):
                raise ParseError(f"repeated point within one cycle: {text!r}")
            cycles.append(points)
        result = cls.identity(degree)
        for points in reversed(cycles):  # rightmost cycle acts first
            if len(points) < 2:
                continue
            images = list(range(degree))
            for a, b in zip(points, points[1:] + points[:1]):
                images[a] = b
            result = result * cls(images)
        return result


class FiniteGroup:
    """A concrete finite permutation group with a full element table, the
    group its generators generate: the constructor builds `mult`, whose walk
    checks that.  Immutable after construction; inverses, cyclic subgroups
    and element orders are cached properties, `lattice()` keeps the lattice.
    """

    def __init__(
        self,
        degree: int,
        elements: Sequence[Permutation],
        generators: Sequence[Permutation],
        name: str = "G",
    ):
        self.degree = degree
        self.elements = list(elements)
        self.order = len(self.elements)
        self.generators = list(generators)
        self.name = name
        self.element_index = {e: i for i, e in enumerate(self.elements)}
        if len(self.element_index) != len(self.elements):
            raise GroupError("duplicate elements in element table")
        ident = Permutation.identity(degree)
        if ident not in self.element_index:
            raise GroupError("identity missing from element table")
        self.identity_ordinal = self.element_index[ident]
        # kept by hand, as perfbench's tracer wraps `mult` and `lattice`
        self._mult: list[list[int]] | None = None
        self._lattice = None
        self._quotients: dict[int, tuple["FiniteGroup", "Epimorphism"]] = {}
        # not an answer: the last closure's (base mask, template, rows of base)
        self._coset_setup: tuple[int, bytes, list] = (0, b"", [])
        self.mult  # the Cayley walk checks that the generators generate it

    # -- elementary structure ------------------------------------------------

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order}, degree={self.degree})"

    @property
    def mult(self) -> list[list[int]]:
        """Multiplication table over ordinals, left factor first.

        Built from the Cayley graph: a walk from the identity by right
        multiplication derives row(p*s) from row(p) as row(p)[s*b], since
        (p*s)*b = p*(s*b), given the left row [s*b for b] of the generator
        s.  Generators join the walk one at a time.  A left row takes one
        ``itemgetter(*s)``, whose call on b is s*b as a plain tuple, looked
        up in `element_index`; the row is kept as one ``itemgetter`` over
        its ordinals, so each other row is a single C call on a known row.
        A generator the walk has already reached lies in the subgroup the
        earlier ones generate and is skipped, and the walk stops once every
        element has a row.  A left row is built only while a row is
        missing, so n >= 2, the degree is at least 2, and both getters
        return tuples.

        The walk is the one check that the table is the group its generators
        generate.  It raises GroupError if a generator is not an element
        (all are checked first, as the walk may stop early), if a left-row
        product s*b leaves the table, or if it ends with a row missing.
        Otherwise every element is a word in the generators it used, and
        left multiplication by each of them, hence by every word, maps the
        table into itself: a finite set of permutations that holds the
        identity and is closed under products is a group, inverses included.
        """
        if self._mult is None:
            idx = self.element_index
            els = self.elements
            n = len(els)
            if not idx.keys() >= set(self.generators):
                raise GroupError("a generator is not in the element table")
            rows: list = [None] * n
            e = self.identity_ordinal
            rows[e] = list(range(n))
            reached = [e]
            left = []  # (generator ordinal, its left row) in the walk
            for s in self.generators:
                if len(reached) == n:
                    break
                i = idx[s]
                if rows[i] is not None:
                    continue
                try:
                    left.append((i, itemgetter(*map(
                        idx.__getitem__, map(itemgetter(*s), els)))))
                except KeyError:
                    raise GroupError("table not closed under products") from None
                frontier = reached  # every reached p now also needs p*s
                while frontier:
                    new = []
                    for p in frontier:
                        row = rows[p]
                        for g, left_g in left:
                            q = row[g]
                            if rows[q] is None:
                                rows[q] = list(left_g(row))
                                new.append(q)
                    reached.extend(new)
                    frontier = new
            if len(reached) != n:
                raise GroupError(f"the generators generate {len(reached)} "
                                 f"of the {n} elements of the table")
            self._mult = rows
        return self._mult

    @cached_property
    def inv(self) -> list[int]:
        """Inverse ordinals, read from the table: x^-1 is the column of the
        identity in row x."""
        e = self.identity_ordinal
        return [row.index(e) for row in self.mult]

    @cached_property
    def cyclic_subgroups(self) -> tuple[list[int], list[tuple[int, int]]]:
        """canon (x -> the least generator of <x>) and the (mask, least
        generator) pairs of the cyclic subgroups, sorted by (order, mask).
        One power walk per cyclic subgroup: in ordinal order, an x with no
        least generator yet is the least generator of <x>, and each x^i
        with gcd(i, |x|) = 1 generates <x>."""
        mult = self.mult
        e = self.identity_ordinal
        canon = [-1] * self.order
        cyclic = []
        for x in range(self.order):
            if canon[x] >= 0:  # x generates an earlier cyclic subgroup
                continue
            powers = [e]
            y = x
            while y != e:
                powers.append(y)
                y = mult[y][x]
            o = len(powers)
            mask = 0
            for i, y in enumerate(powers):
                mask |= 1 << y
                if math.gcd(i, o) == 1:  # x^i generates <x>; e is i = 0, o = 1
                    canon[y] = x
            cyclic.append((mask, x))
        cyclic.sort(key=lambda kv: (kv[0].bit_count(), kv[0]))
        return canon, cyclic

    @cached_property
    def element_orders(self) -> list[int]:
        """Order of each element: |x| = |<canon[x]>| (`cyclic_subgroups`)."""
        canon, cyclic = self.cyclic_subgroups
        order = {x: mask.bit_count() for mask, x in cyclic}
        return [order[c] for c in canon]

    def exponent(self) -> int:
        """Least common multiple of the element orders."""
        return math.lcm(*self.element_orders)

    def is_abelian(self) -> bool:
        """The generators commute pairwise."""
        mult = self.mult
        gens = [self.element_index[s] for s in self.generators]
        return all(mult[x][y] == mult[y][x] for x in gens for y in gens)

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders

    def prime_divisors(self) -> tuple[int, ...]:
        return tuple(sorted(factorize(self.order)))

    # -- subgroup masks ------------------------------------------------------
    # Subgroup element sets are bitmasks over element ordinals throughout the
    # package; bit i set means elements[i] belongs to the set.

    def closure_mask(self, gens: Iterable[int], base: int | None = None) -> int:
        """Bitmask of the subgroup generated by the given ordinals.

        `base` is the mask of a subgroup H of the result, such as the one
        generated by all but the last ordinal; by default H is trivial.  The
        closure is enumerated as a union of cosets H*x (Dimino): H*x*s =
        H*(x*s), so for each coset representative x and generator s whose
        product x*s is not yet reached, the whole coset H*(x*s) is added and
        x*s becomes a new representative.  With H trivial this is a
        breadth-first search from the identity.

        The set-up that depends only on H (its membership template and its
        rows of the multiplication table) is kept for the last `base` seen,
        so the extensions of one subgroup by each cyclic subgroup build it
        once.
        """
        mult = self.mult
        if base is None:
            base = 1 << self.identity_ordinal
        if self._coset_setup[0] != base:
            # membership as one ASCII "0"/"1" per ordinal, read back at the
            # end as a binary number (ordinal 0 is the last digit)
            self._coset_setup = (
                base, bin(base)[:1:-1].ljust(self.order, "0").encode("ascii"),
                [mult[h] for h in set_bits(base)])
        _, template, hrows = self._coset_setup
        bits = bytearray(template)
        gens = list(gens)
        reps = [self.identity_ordinal]
        for x in reps:
            row = mult[x]
            for s in gens:
                y = row[s]
                if bits[y] == 48:  # "0": the coset H*y is new
                    for r in hrows:
                        bits[r[y]] = 49
                    reps.append(y)
        return int(bits[::-1], 2)

    def generators_of(self, mask: int, base: int | None = None,
                      gens: Iterable[int] = (),
                      candidates: Iterable[int] = ()) -> list[int]:
        """A small generating set of the subgroup `mask`: `gens` (which
        generate its subgroup `base`, by default the trivial one), then
        greedily each of the candidates and then of the members that the
        closure so far does not hold.  If `mask` is not a subgroup, the
        closure of the result holds every member of `mask` and more."""
        if base is None:
            base = 1 << self.identity_ordinal
        gens = list(gens)
        for pool in (candidates, range(self.order)):
            for x in pool:
                if base == mask:
                    return gens
                if mask >> x & 1 and not base >> x & 1:
                    gens.append(x)
                    base = self.closure_mask(gens, base)
        return gens

    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def conjugate_mask(self, mask: int, g: int) -> int:
        """Bitmask of the conjugate set {g^-1 x g : x in mask}."""
        mult = self.mult
        row = mult[self.inv[g]]
        out = 0
        for x in set_bits(mask):
            out |= 1 << mult[row[x]][g]
        return out

    def lattice(self):
        """The full subgroup lattice of this group (built once, cached)."""
        if self._lattice is None:
            from .lattice import all_subgroups

            self._lattice = all_subgroups(self)
        return self._lattice


class Epimorphism:
    """Surjective homomorphism, stored as a per-element image table."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 table: tuple[int, ...]):
        self.source, self.target, self.table = source, target, table

    def kernel_mask(self) -> int:
        t = self.target.identity_ordinal
        out = 0
        for i, img in enumerate(self.table):
            if img == t:
                out |= 1 << i
        return out

    def verify(self) -> None:
        """Check that the image table is a surjective homomorphism.

        The homomorphism check runs on the source's generators: t(e) = e,
        and t(x*s) = t(x)*t(s) for every element x and every generator s,
        n*r products for r generators.  That is enough.  The source's
        table was built by its Cayley walk, which reached every row, so
        every element is a word in the generators.  By induction on the
        length of a word w, t(x*w) = t(x)*t(w) for every x: for the empty
        word t(x*e) = t(x) = t(x)*t(e), and for w*s,
        t(x*w*s) = t(x*w)*t(s) = t(x)*t(w)*t(s) = t(x)*t(w*s).
        Surjectivity is checked on the whole table.
        """
        src, tm, t = self.source, self.target.mult, self.table
        sm, idx = src.mult, src.element_index
        if t[src.identity_ordinal] != self.target.identity_ordinal:
            raise GroupError("image table is not a homomorphism")
        for g in {idx[s] for s in src.generators}:
            ts = t[g]
            if [t[row[g]] for row in sm] != [tm[tx][ts] for tx in t]:
                raise GroupError("image table is not a homomorphism")
        if len(set(t)) != self.target.order:
            raise GroupError("image table is not surjective")


# -- construction ------------------------------------------------------------


def generate(degree: int, gens: Sequence[Permutation], name: str = "G") -> FiniteGroup:
    """Closure of the generators: BFS from the identity, generator order fixed.

    The element ordering is deterministic for a fixed generator list.  Each
    element x takes one ``itemgetter(*x)``, whose call on a generator g is
    the product x*g as a plain tuple; it is looked up in `seen` (a tuple
    and a `Permutation` with the same images are equal), and only a new
    element is wrapped.  Below degree 2 the group is trivial and no walk
    runs.
    """
    for g in gens:
        if g.degree != degree:
            raise GroupError(f"generator degree {g.degree} != {degree}")
    cap = order_cap()
    ident = Permutation.identity(degree)
    elements = [ident]
    seen = {ident}
    frontier = [ident] if degree >= 2 else []
    while frontier:
        new = []
        for x in frontier:
            for y in map(itemgetter(*x), gens):
                if y not in seen:
                    y = tuple.__new__(Permutation, y)
                    seen.add(y)
                    elements.append(y)
                    new.append(y)
                    if len(elements) > cap:
                        raise OrderCapExceeded(
                            f"order of {name} exceeds cap {cap}")
        frontier = new
    return FiniteGroup(degree, elements, gens, name=name)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """External direct product acting on disjoint point sets, its order
    and degree checked against the order cap first (`_direct_product_of`)."""
    return _direct_product_of((G, H))


def _direct_product_of(factors: Iterable[FiniteGroup]) -> FiniteGroup:
    """External direct product of the factors, each on its own block of
    points, from one `generate` on their generators shifted to their
    blocks; the same group, generators and name as the nested two-factor
    products.  The order and degree so far are checked against the order
    cap as each factor is read, so a product above the cap is refused at
    the first factor that takes it there, before a later factor is built
    and before any permutation of the product's degree is."""
    cap = order_cap()
    blocks: list[tuple[int, FiniteGroup]] = []  # (first point, factor)
    order, degree = 1, 0
    for H in factors:
        if order * H.order > cap:
            names = " x ".join([F.name for _, F in blocks] + [H.name])
            raise OrderCapExceeded(
                f"|{names}| = {order * H.order} exceeds cap")
        if degree + H.degree > cap:
            raise GroupError(f"direct product of degree {degree + H.degree} "
                             f"is above the order cap {cap}")
        blocks.append((degree, H))
        order *= H.order
        degree += H.degree
    gens = []
    for start, H in blocks:
        head = tuple(range(start))
        tail = tuple(range(start + H.degree, degree))
        gens += [Permutation(head + tuple(q + start for q in p) + tail)
                 for p in H.generators]
    return generate(degree, gens, name="x".join(H.name for _, H in blocks))


def _cycles(n: int, k: int = 1) -> list[Permutation]:
    """One n-cycle on each of k consecutive blocks of n points, in block
    order: the generators `direct_product` gives k copies of Z_n.  None
    when n = 1, as Z_1 is trivial."""
    if n < 2:
        return []
    d = n * k
    return [Permutation([*range(b), *range(b + 1, b + n), b, *range(b + n, d)])
            for b in range(0, d, n)]


def _unit_perms(m: int) -> list[Permutation]:
    return [Permutation([(u * i) % m for i in range(m)])
            for u in range(2, m) if math.gcd(u, m) == 1]


def _totient(n: int) -> int:
    r = n
    for p in factorize(n):
        r -= r // p
    return r


def _product_to(cap: int, factors: Iterable[int]) -> int:
    """Product of the factors, stopped at the first partial product above cap."""
    out = 1
    for f in factors:
        out *= f
        if out > cap:
            break
    return out


def _power_to(cap: int, p: int, k: int) -> int:
    """p**k, or a power of p above cap when p**k is (p >= 2)."""
    return p ** min(max(k, 0), cap.bit_length())


def _dihedral(n: int) -> tuple[int, list[Permutation]]:
    """D1 and D2 = Z2 x Z2 as one and two blocks of two points, each larger
    D_n as the rotation and a reflection of the n-gon."""
    if n < 3:
        return 2 * n, _cycles(2, n)
    return n, [*_cycles(n), Permutation([(-i) % n for i in range(n)])]


def _dicyclic(n: int) -> tuple[int, list[Permutation]]:
    """Dicyclic group of order 4n, <a, b | a^2n, b^2 = a^n, a^b = a^-1>, by
    right multiplication on its elements a^i b^j, the point j*2n + i:
    a^i*a = a^(i+1), a^i b*a = a^(i-1) b, a^i*b = a^i b, a^i b*b = a^(i+n)."""
    m = 2 * n
    a = [(i + 1) % m for i in range(m)] + [m + (i - 1) % m for i in range(m)]
    b = [m + i for i in range(m)] + [(i + n) % m for i in range(m)]
    return 2 * m, [Permutation(a), Permutation(b)]


def _sym(n: int) -> tuple[int, list[Permutation]]:
    """S_n by the transposition (1 2) and the n-cycle; S1 by nothing."""
    if n == 1:
        return 1, []
    return n, [Permutation([1, 0, *range(2, n)]), *_cycles(n)]


def _alt(n: int) -> tuple[int, list[Permutation]]:
    """A_n by the 3-cycle (1 2 3) and, above 3, an even n- or (n-1)-cycle;
    A1 and A2 by nothing."""
    if n < 3:
        return n, []
    gens = [Permutation([1, 2, 0, *range(3, n)])]
    if n > 3:
        if n % 2:  # the n-cycle is even
            gens += _cycles(n)
        else:  # use the (n-1)-cycle fixing point 1
            gens.append(Permutation([0, *range(2, n), 1]))
    return n, gens


def _frobenius(p: int, q: int, n: int) -> tuple[int, list[Permutation]]:
    """Z_p by multiplication with the least unit u of order d = q^n mod p,
    which exists as d | p - 1; as q is prime, u has order d exactly when
    u^d = 1 and u^(d/q) != 1."""
    d = q**n
    u = next(u for u in range(2, p)
             if pow(u, d, p) == 1 and pow(u, d // q, p) != 1)
    return p, [*_cycles(p), Permutation([(u * i) % p for i in range(p)])]


# Stock builders, one row each: parameter names, the arguments' condition
# and its wording, order(cap, *args), build(*args) -> (degree, generators)
# and the name format.  For arguments that meet the condition, `order` is
# the group's order if at most cap, else a number above cap; powers and
# factorials stop growing once past cap, so no huge number is formed.
_Builder = namedtuple("_Builder", "params ok needs order build name")

_BUILDERS = {
    "cyclic": _Builder(
        ("n",), lambda n: n >= 1, "n >= 1",
        lambda cap, n: n, lambda n: (n, _cycles(n)), "Z{}"),
    # k >= 1 first: with it the cap check has bounded p, so is_prime is cheap
    "elem_abelian": _Builder(
        ("p", "k"), lambda p, k: k >= 1 and is_prime(p), "prime p and k >= 1",
        _power_to, lambda p, k: (p * k, _cycles(p, k)), "E{}^{}"),
    "dihedral": _Builder(
        ("n",), lambda n: n >= 1, "n >= 1",
        lambda cap, n: 2 * n, _dihedral, "D{}"),
    "dicyclic": _Builder(
        ("n",), lambda n: n >= 2, "n >= 2",
        lambda cap, n: 4 * n, _dicyclic, "Dic{}"),
    "sym": _Builder(
        ("n",), lambda n: n >= 1, "n >= 1",
        lambda cap, n: _product_to(cap, range(2, n + 1)), _sym, "S{}"),
    "alt": _Builder(
        ("n",), lambda n: n >= 1, "n >= 1",
        lambda cap, n: _product_to(cap, range(3, n + 1)), _alt, "A{}"),
    "holomorph_cyclic": _Builder(
        ("m",), lambda m: m >= 2, "m >= 2",
        lambda cap, m: m * _totient(m) if 1 <= m <= cap else m,
        lambda m: (m, _cycles(m) + _unit_perms(m)), "Hol(Z{})"),
    # the ranges first: with them the cap check has bounded p and q
    "frobenius_metacyclic": _Builder(
        ("p", "q", "n"),
        lambda p, q, n: (n >= 1 and min(p, q) >= 2 and is_prime(p)
                         and is_prime(q) and (p - 1) % q**n == 0),
        "primes p, q and n >= 1 with q^n dividing p - 1",
        lambda cap, p, q, n: p * _power_to(cap, q, n), _frobenius,
        "F({},{}^{})"),
}


def named_group(name: str, args: Sequence[int]) -> FiniteGroup:
    """Builders for the stock families used throughout the corpus.

    The arguments are checked in this order: their number, the order cap
    on the builder's order, then the builder's condition; the cap check
    comes before anything is built, so an over-cap request fails at once."""
    row = _BUILDERS.get(name) if isinstance(name, str) else None
    if row is None:
        raise GroupError(f"unknown builder {name!r}")
    arity = len(row.params)
    if (not isinstance(args, (list, tuple)) or len(args) != arity
            or not all(type(a) is int for a in args)):
        raise ParseError(f"builder {name!r} needs {arity} integer "
                         f"argument(s), got {args!r}")
    cap = order_cap()
    if row.order(cap, *args) > cap:
        raise OrderCapExceeded(f"{name}({', '.join(map(str, args))}) has "
                               f"order above cap {cap}")
    if not row.ok(*args):
        raise GroupError(f"{name}({', '.join(row.params)}) needs {row.needs}")
    degree, gens = row.build(*args)
    return generate(degree, gens, name=row.name.format(*args))


def spec_order(spec: dict, cap: int) -> int:
    """Order of a named or direct spec whose arguments meet their builders'
    conditions if at most cap, else a number above cap; nothing is built."""
    if spec["kind"] == "direct":
        return _product_to(cap, (spec_order(p, cap) for p in spec["parts"]))
    return _BUILDERS[spec["name"]].order(cap, *spec["args"])


# Quotient groups by coset image: the frozenset of a quotient's element
# permutations -> the one FiniteGroup with that element set, held weakly.
# Created, with the weakref import, by the first quotient.
_shared_quotients = None


def quotient(G: FiniteGroup, nmask: int) -> tuple[FiniteGroup, Epimorphism]:
    """Quotient by a normal subgroup, realized as the coset action.

    `nmask` is the bitmask of element ordinals of a normal subgroup N,
    checked to be a subgroup by closing a greedy generating set of it, and
    to be normal by conjugating that set by G's generators: N^p <= N gives
    N^p = N, as conjugation is a bijection.  The quotient acts on the
    cosets of N (degree = index), numbered in the order of their least
    elements; coset c is the permutation of its least element, each one
    checked to be a bijection.

    Groups are shared by coset image: two quotients whose permutations
    form the same set are one permutation group, so the first one built
    is kept in a weak table keyed by that set and every later quotient
    with the same image reads it, with its lattice and every answer
    memoised on it.  A shared group keeps the first parent's `name`,
    generators and element order.  Every image table, built or shared, is
    this parent's coset numbering mapped through the group's
    `element_index`; the epimorphism is verified on G's generators
    (`Epimorphism.verify`) and its kernel checked against N.
    """
    global _shared_quotients
    ngens = G.generators_of(nmask)
    if G.closure_mask(ngens) != nmask:
        raise GroupError("quotient: member set is not a subgroup")
    mult, inv = G.mult, G.inv
    for p in map(G.element_index.__getitem__, G.generators):
        row = mult[inv[p]]
        if not all(nmask >> mult[row[h]][p] & 1 for h in ngens):
            raise GroupError("quotient: subgroup is not normal")
    nmems = set_bits(nmask)
    n = G.order
    coset_of = [-1] * n
    reps = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        c = len(reps)
        reps.append(x)
        for m in nmems:
            coset_of[mult[x][m]] = c
    q_elements = [Permutation(coset_of[mult[r][g]] for r in reps)
                  for g in reps]
    if _shared_quotients is None:
        import weakref  # only quotients need it: the engine loads without it
        _shared_quotients = weakref.WeakValueDictionary()
    image = frozenset(q_elements)
    Q = _shared_quotients.get(image)
    if Q is None:
        gen_perms = [q_elements[coset_of[G.element_index[p]]]
                     for p in G.generators]
        Q = _shared_quotients[image] = FiniteGroup(
            len(reps), q_elements, gen_perms,
            name=f"{G.name}/N{bin(nmask).count('1')}")
    ordinal = [Q.element_index[q] for q in q_elements]
    epi = Epimorphism(G, Q, tuple(ordinal[c] for c in coset_of))
    epi.verify()
    if epi.kernel_mask() != nmask:
        raise GroupError("quotient: kernel does not match N")
    return Q, epi


def quotient_cached(G: FiniteGroup, nmask: int) -> tuple[FiniteGroup, Epimorphism]:
    """`quotient`, memoised per group; G/1 is G itself under the identity."""
    hit = G._quotients.get(nmask)
    if hit is None:
        if nmask == 1 << G.identity_ordinal:
            hit = G, Epimorphism(G, G, tuple(range(G.order)))
        else:
            hit = quotient(G, nmask)
        G._quotients[nmask] = hit
    return hit


# -- group-spec files --------------------------------------------------------


def _generators_spec(spec: dict) -> FiniteGroup:
    degree = spec.get("degree")
    cycles = spec.get("cycles", [])
    if type(degree) is not int or degree < 0:
        raise ParseError("generators spec needs an integer 'degree'")
    cap = order_cap()
    if degree > cap:  # before any permutation of that degree is allocated
        raise ParseError(f"generators spec degree {degree} is above the "
                         f"order cap {cap}")
    name = spec.get("name", f"gen{degree}")
    if not isinstance(cycles, list) or not all(isinstance(c, str)
                                               for c in cycles):
        raise ParseError("generators spec needs a list of cycle strings")
    if not isinstance(name, str):
        raise ParseError("generators spec 'name' must be a string")
    gens = [Permutation.parse(c, degree) for c in cycles]
    return generate(degree, gens, name=name)


def _direct_spec(spec: dict) -> FiniteGroup:
    parts = spec.get("parts", [])
    if not isinstance(parts, list) or not parts:
        raise ParseError("direct spec needs a non-empty list of parts")
    return _direct_product_of(map(group_from_spec, parts))


# Group-spec kinds: kind -> (the keys its spec may hold, its parse function)
_SPEC_KINDS = {
    "generators": ({"kind", "degree", "cycles", "name"}, _generators_spec),
    "named": ({"kind", "name", "args"},
              lambda spec: named_group(spec.get("name", ""),
                                       spec.get("args", []))),
    "direct": ({"kind", "parts"}, _direct_spec),
}


def group_from_spec(spec: dict) -> FiniteGroup:
    """Build a group from a JSON group-spec.

    Forms: {"kind": "generators", "degree": n, "cycles": [...]} with an
    optional "name", {"kind": "named", "name": ..., "args": [...]},
    {"kind": "direct", "parts": [<spec>, <spec>, ...]}.  A key the kind
    does not list is a ParseError, so a misspelt key is never ignored.  No
    degree may exceed the order cap: a `generators` spec's is checked before
    its cycles are parsed, a direct product's before its generators are
    built.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError("group spec must be an object with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ParseError(f"unknown group spec kind {kind!r}")
    keys, parse = _SPEC_KINDS[kind]
    unknown = spec.keys() - keys
    if unknown:
        raise ParseError(f"{kind} spec has unknown key(s) "
                         f"{', '.join(sorted(map(repr, unknown)))}")
    return parse(spec)
