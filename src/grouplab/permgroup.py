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
import re
from collections.abc import Iterable, Sequence

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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
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
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and list(factorize(n)) == [n]


def prime_power(n: int) -> tuple[int, int] | None:
    """(q, m) with n == q**m for a prime q and m >= 1, else None."""
    f = factorize(n) if n > 1 else {}
    if len(f) != 1:
        return None
    [(q, m)] = f.items()
    return q, m


def set_bits(bits: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending: each
    step takes the lowest set bit, bits & -bits, and clears it."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation(tuple):
    """A bijection on {0..degree-1}, stored as the tuple of images.

    Every instance is a bijection.  The check runs where images enter from
    outside the class: `Permutation(images)`, and through it `parse`,
    `identity` and the builders.  Products and inverses of bijections are
    bijections, so `__mul__` and `inverse` inherit the check and build their
    result without it; `__mul__` takes only a `Permutation` operand.
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
        return tuple.__new__(Permutation, map(other.__getitem__, self))

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
        leftover = _CYCLE_RE.sub("", stripped)
        if leftover.strip():
            raise ParseError(f"malformed cycle text: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(stripped):
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
    checks that.  Immutable after construction; the other tables (inverses,
    element orders, subgroup lattice) are cached lazily.
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
        self.generators = list(generators)
        self.name = name
        self.element_index = {e: i for i, e in enumerate(self.elements)}
        if len(self.element_index) != len(self.elements):
            raise GroupError("duplicate elements in element table")
        ident = Permutation.identity(degree)
        if ident not in self.element_index:
            raise GroupError("identity missing from element table")
        self.identity_ordinal = self.element_index[ident]
        self._mult: list[list[int]] | None = None
        self._inv: list[int] | None = None
        self._orders: list[int] | None = None
        self._lattice = None
        self._quotients: dict[int, tuple["FiniteGroup", "Epimorphism"]] = {}
        # (base mask, membership template, rows of base) of the last closure
        self._coset_setup: tuple[int, bytes, list] = (0, b"", [])
        self.mult  # the Cayley walk checks that the generators generate it

    # -- elementary structure ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order}, degree={self.degree})"

    @property
    def mult(self) -> list[list[int]]:
        """Multiplication table over ordinals, left factor first.

        Built from the Cayley graph: a walk from the identity by right
        multiplication derives row(p*s) from row(p) as row(p)[s*b], since
        (p*s)*b = p*(s*b), given the left row [s*b for b] of the generator
        s.  Generators join the walk one at a time, each with a left row of
        n permutation products; a generator the walk has already reached
        lies in the subgroup the earlier ones generate and is skipped, and
        the walk stops once every element has a row.

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
                    left.append((i, [idx[s * b] for b in els]))
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
                                rows[q] = list(map(row.__getitem__, left_g))
                                new.append(q)
                    reached.extend(new)
                    frontier = new
            if len(reached) != n:
                raise GroupError(f"the generators generate {len(reached)} "
                                 f"of the {n} elements of the table")
            self._mult = rows
        return self._mult

    @property
    def inv(self) -> list[int]:
        if self._inv is None:
            self._inv = [self.element_index[e.inverse()] for e in self.elements]
        return self._inv

    @property
    def element_orders(self) -> list[int]:
        if self._orders is None:
            mult = self.mult
            e = self.identity_ordinal
            orders = []
            for x in range(self.order):
                y, n = x, 1
                while y != e:
                    y = mult[y][x]
                    n += 1
                orders.append(n)
            self._orders = orders
        return self._orders

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
        """Exhaustive homomorphism and surjectivity check."""
        sm, tm, t = self.source.mult, self.target.mult, self.table
        n = self.source.order
        for i in range(n):
            ti = t[i]
            for j in range(n):
                if t[sm[i][j]] != tm[ti][t[j]]:
                    raise GroupError("image table is not a homomorphism")
        if len(set(t)) != self.target.order:
            raise GroupError("image table is not surjective")


# -- construction ------------------------------------------------------------


def generate(degree: int, gens: Sequence[Permutation], name: str = "G") -> FiniteGroup:
    """Closure of the generators: BFS from the identity, generator order fixed.

    The element ordering is deterministic for a fixed generator list.
    """
    for g in gens:
        if g.degree != degree:
            raise GroupError(f"generator degree {g.degree} != {degree}")
    cap = order_cap()
    ident = Permutation.identity(degree)
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    new.append(y)
                    if len(elements) > cap:
                        raise OrderCapExceeded(
                            f"order of {name} exceeds cap {cap}")
        frontier = new
    return FiniteGroup(degree, elements, gens, name=name)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """External direct product acting on disjoint point sets."""
    if G.order * H.order > order_cap():
        raise OrderCapExceeded(
            f"|{G.name} x {H.name}| = {G.order * H.order} exceeds cap")
    d = G.degree + H.degree
    gens = [Permutation(tuple(p) + tuple(range(G.degree, d))) for p in G.generators]
    gens += [Permutation(tuple(range(G.degree)) + tuple(q + G.degree for q in p))
             for p in H.generators]
    return generate(d, gens, name=f"{G.name}x{H.name}")


def _perm_from_map(images: dict[int, int], degree: int) -> Permutation:
    return Permutation(images.get(i, i) for i in range(degree))


def _cyclic_gen(n: int) -> Permutation:
    return Permutation([(i + 1) % n for i in range(n)])


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


# Stock builders: name -> (argument count, order(cap, *args)).  For valid
# arguments `order` is the order of the built group when that is at most
# cap, and a number above cap otherwise; powers and factorials stop growing
# once past cap, so no huge intermediate is formed.
_BUILDERS = {
    "cyclic": (1, lambda cap, n: n),
    "elem_abelian": (2, _power_to),
    "dihedral": (1, lambda cap, n: 2 * n),
    "dicyclic": (1, lambda cap, n: 4 * n),
    "sym": (1, lambda cap, n: _product_to(cap, range(2, n + 1))),
    "alt": (1, lambda cap, n: _product_to(cap, range(3, n + 1))),
    "holomorph_cyclic": (1, lambda cap, m: m * _totient(m) if 1 <= m <= cap
                         else m),
    "frobenius_metacyclic": (3, lambda cap, p, q, n: p * _power_to(cap, q, n)),
}


def named_order(name: str, args: Sequence[int], cap: int) -> int:
    """Order of `named_group(name, args)` if at most cap, else a number above
    cap; nothing is built."""
    return _BUILDERS[name][1](cap, *args)


def named_group(name: str, args: Sequence[int]) -> FiniteGroup:
    """Builders for the stock families used throughout the corpus.

    The order cap is checked on the builder's order before anything is
    built, so an over-cap request fails at once."""
    if not isinstance(name, str) or name not in _BUILDERS:
        raise GroupError(f"unknown builder {name!r}")
    arity = _BUILDERS[name][0]
    if (not isinstance(args, (list, tuple)) or len(args) != arity
            or not all(type(a) is int for a in args)):
        raise ParseError(f"builder {name!r} needs {arity} integer "
                         f"argument(s), got {args!r}")
    args = list(args)
    cap = order_cap()
    if named_order(name, args, cap) > cap:
        raise OrderCapExceeded(f"{name}({', '.join(map(str, args))}) has "
                               f"order above cap {cap}")
    if name == "cyclic":
        (n,) = args
        if n < 1:
            raise GroupError("cyclic(n) needs n >= 1")
        if n == 1:
            return generate(1, [], name="Z1")
        return generate(n, [_cyclic_gen(n)], name=f"Z{n}")
    if name == "elem_abelian":
        p, k = args
        if not is_prime(p) or k < 1:
            raise GroupError("elem_abelian(p, k) needs prime p and k >= 1")
        G = named_group("cyclic", [p])
        for _ in range(k - 1):
            G = direct_product(G, named_group("cyclic", [p]))
        G.name = f"E{p}^{k}"
        return G
    if name == "dihedral":
        (n,) = args
        if n < 1:
            raise GroupError("dihedral(n) needs n >= 1")
        if n == 1:
            return generate(2, [Permutation([1, 0])], name="D1")
        if n == 2:
            G = direct_product(named_group("cyclic", [2]), named_group("cyclic", [2]))
            G.name = "D2"
            return G
        rot = _cyclic_gen(n)
        refl = Permutation([(-i) % n for i in range(n)])
        return generate(n, [rot, refl], name=f"D{n}")
    if name == "dicyclic":
        (n,) = args
        if n < 2:
            raise GroupError("dicyclic(n) needs n >= 2")
        return _dicyclic(n)
    if name == "sym":
        (n,) = args
        if n < 1:
            raise GroupError("sym(n) needs n >= 1")
        if n == 1:
            return generate(1, [], name="S1")
        gens = [Permutation([1, 0] + list(range(2, n))), _cyclic_gen(n)]
        return generate(n, gens, name=f"S{n}")
    if name == "alt":
        (n,) = args
        if n < 1:
            raise GroupError("alt(n) needs n >= 1")
        if n < 3:
            return generate(n, [], name=f"A{n}")
        three = _perm_from_map({0: 1, 1: 2, 2: 0}, n)
        gens = [three]
        if n > 3:
            if n % 2:  # the n-cycle is even
                gens.append(_cyclic_gen(n))
            else:  # use the (n-1)-cycle fixing point 1
                gens.append(_perm_from_map(
                    {i: 1 + (i % (n - 1)) for i in range(1, n)}, n))
        return generate(n, gens, name=f"A{n}")
    if name == "holomorph_cyclic":
        (m,) = args
        if m < 2:
            raise GroupError("holomorph_cyclic(m) needs m >= 2")
        gens = [_cyclic_gen(m)] + _unit_perms(m)
        return generate(m, gens, name=f"Hol(Z{m})")
    if name == "frobenius_metacyclic":
        p, q, n = args
        if not is_prime(p) or not is_prime(q) or n < 1:
            raise GroupError("frobenius_metacyclic(p, q, n) needs primes p, q and n >= 1")
        qn = q**n
        if (p - 1) % qn:
            raise GroupError(f"{q}^{n} does not divide {p - 1}")
        u = _multiplier_of_order(p, qn)
        gens = [_cyclic_gen(p), Permutation([(u * i) % p for i in range(p)])]
        return generate(p, gens, name=f"F({p},{q}^{n})")


def _multiplier_of_order(p: int, d: int) -> int:
    """Least unit mod p of multiplicative order exactly d (d | p-1)."""
    for u in range(2, p):
        x, n = u, 1
        while x != 1:
            x = x * u % p
            n += 1
        if n == d:
            return u
    raise GroupError(f"no unit of order {d} mod {p}")


def _dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n via its right regular representation."""
    # elements (i, j) = a^i b^j with a^(2n)=1, b^2=a^n, b^-1 a b = a^-1
    els = [(i, j) for j in range(2) for i in range(2 * n)]
    pos = {e: x for x, e in enumerate(els)}

    def mul(e1, e2):
        i1, j1 = e1
        i2, j2 = e2
        if j1 == 0:
            i, j = i1 + i2, j2
        else:
            i, j = i1 - i2, 1 + j2
        if j >= 2:
            i, j = i + n, j - 2
        return (i % (2 * n), j)

    def right_mul(g):
        return Permutation(pos[mul(e, g)] for e in els)

    return generate(4 * n, [right_mul((1, 0)), right_mul((0, 1))], name=f"Dic{n}")


def quotient(G: FiniteGroup, nmask: int) -> tuple[FiniteGroup, Epimorphism]:
    """Quotient by a normal subgroup, realized as the coset action.

    `nmask` is the bitmask of element ordinals of a normal subgroup N.  The
    quotient acts on the cosets of N (degree = index), numbered in the order
    of their least elements; coset c is the permutation of its least
    element, so `coset_of` is the image table.  The epimorphism is verified
    exhaustively and its kernel checked against N.
    """
    nmems = set_bits(nmask)
    if not nmems or G.closure_mask(nmems) != nmask:
        raise GroupError("quotient: member set is not a subgroup")
    if any(G.conjugate_mask(nmask, G.element_index[p]) != nmask
           for p in G.generators):
        raise GroupError("quotient: subgroup is not normal")
    mult = G.mult
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
    gen_perms = [q_elements[coset_of[G.element_index[p]]]
                 for p in G.generators]
    Q = FiniteGroup(len(reps), q_elements, gen_perms,
                    name=f"{G.name}/N{bin(nmask).count('1')}")
    epi = Epimorphism(G, Q, tuple(coset_of))
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


def group_from_spec(spec: dict) -> FiniteGroup:
    """Build a group from a JSON group-spec.

    Forms: {"kind": "generators", "degree": n, "cycles": [...]},
    {"kind": "named", "name": ..., "args": [...]},
    {"kind": "direct", "parts": [<spec>, <spec>, ...]}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError("group spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "generators":
        degree = spec.get("degree")
        cycles = spec.get("cycles", [])
        if type(degree) is not int or degree < 0:
            raise ParseError("generators spec needs an integer 'degree'")
        name = spec.get("name", f"gen{degree}")
        if not isinstance(cycles, list) or not all(isinstance(c, str)
                                                   for c in cycles):
            raise ParseError("generators spec needs a list of cycle strings")
        if not isinstance(name, str):
            raise ParseError("generators spec 'name' must be a string")
        gens = [Permutation.parse(c, degree) for c in cycles]
        return generate(degree, gens, name=name)
    if kind == "named":
        return named_group(spec.get("name", ""), spec.get("args", []))
    if kind == "direct":
        parts = spec.get("parts", [])
        if not isinstance(parts, list) or not parts:
            raise ParseError("direct spec needs a non-empty list of parts")
        G = group_from_spec(parts[0])
        for sub in parts[1:]:
            G = direct_product(G, group_from_spec(sub))
        return G
    raise ParseError(f"unknown group spec kind {kind!r}")
