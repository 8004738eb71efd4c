import gc
import random
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from grouplab import (FiniteGroup, GroupError, OrderCapExceeded, ParseError,
                      Permutation, direct_product, generate, group_from_spec,
                      named_group, permgroup, quotient)
from grouplab.permgroup import (Epimorphism, factorize, is_prime, order_cap,
                                prime_power, quotient_cached, set_bits,
                                spec_order)
from grouplab.structure import normal_subgroups
from checks import check_quotient
from definitions import (element_orders_by_definition,
                         is_epimorphism_by_definition)


def test_parse_and_cycle_string_roundtrip():
    p = Permutation.parse("(1 2 3)(4 5)", 6)
    assert Permutation.parse(p.cycle_string(), 6) == p


def test_parse_rightmost_cycle_acts_first():
    # (1 2)(2 3) applied to 1: rightmost first leaves 1, then (1 2) sends 1->2
    p = Permutation.parse("(1 2)(2 3)", 3)
    assert p == Permutation.parse("(1 2 3)", 3)


def test_composition_left_factor_first():
    a = Permutation.parse("(1 2)", 3)
    b = Permutation.parse("(2 3)", 3)
    assert (a * b)[0] == b[a[0]]


def _product(a, b):
    """The loop form of a * b, left factor first: i -> b[a[i]]."""
    return tuple(b[a[i]] for i in range(len(a)))


def test_product_matches_loop_form():
    # itemgetter returns a bare item for one index and fails for none, so
    # degrees 0 and 1 are in the sample
    s3 = named_group("sym", [3]).elements
    pairs = [(a, b) for a in s3 for b in s3]
    rng = random.Random(0)
    for degree in range(7):
        for _ in range(20):
            pairs.append(tuple(Permutation(rng.sample(range(degree), degree))
                               for _ in range(2)))
    for a, b in pairs:
        p = a * b
        assert type(p) is Permutation and p == _product(a, b)


def test_inverse():
    p = Permutation.parse("(1 2 3 4)", 5)
    assert p * p.inverse() == Permutation.identity(5)


@given(st.permutations(list(range(6))))
def test_inverse_random(images):
    p = Permutation(images)
    ident = Permutation.identity(6)
    assert p * p.inverse() == ident
    assert p.inverse() * p == ident


def test_generate_s3():
    G = generate(3, [Permutation.parse("(1 2)", 3),
                     Permutation.parse("(1 2 3)", 3)])
    assert G.order == 6


def test_generate_trivial():
    assert generate(1, []).order == 1


def test_order_cap_env(monkeypatch):
    monkeypatch.setenv("GROUPLAB_ORDER_CAP", "10")
    assert order_cap() == 10
    with pytest.raises(OrderCapExceeded):
        named_group("sym", [4])


NAMED_ORDERS = [
    (("cyclic", [12]), 12),
    (("elem_abelian", [2, 3]), 8),
    (("dihedral", [6]), 12),
    (("dicyclic", [2]), 8),
    (("sym", [4]), 24),
    (("alt", [5]), 60),
    (("holomorph_cyclic", [5]), 20),
    (("holomorph_cyclic", [7]), 42),
    (("holomorph_cyclic", [9]), 54),
    (("frobenius_metacyclic", [5, 2, 2]), 20),
    (("frobenius_metacyclic", [7, 3, 1]), 21),
]


@pytest.mark.parametrize("args,order", NAMED_ORDERS)
def test_named_group_orders(args, order):
    assert named_group(*args).order == order
    spec = {"kind": "named", "name": args[0], "args": args[1]}
    assert spec_order(spec, order_cap()) == order
    assert spec_order(spec, order - 1) > order - 1


def test_named_group_bad_args():
    with pytest.raises(GroupError):
        named_group("frobenius_metacyclic", [13, 3, 2])  # 9 does not divide 12
    with pytest.raises(GroupError):
        named_group("nosuch", [1])
    for n in (-3, 0):
        with pytest.raises(GroupError, match=r"alt\(n\) needs n >= 1"):
            named_group("alt", [n])
    # A1 and A2 stay trivial groups of their own degree
    for n in (1, 2):
        G = named_group("alt", [n])
        assert (G.name, G.degree, G.order) == (f"A{n}", n, 1)


def test_group_axioms_on_tables():
    G = named_group("dicyclic", [3])
    mult, inv = G.mult, G.inv
    e = G.identity_ordinal
    n = G.order
    for x in range(n):
        assert mult[x][e] == x and mult[e][x] == x
        assert mult[x][inv[x]] == e
    # associativity spot check on a fixed triple grid
    for x in range(0, n, 3):
        for y in range(0, n, 3):
            for z in range(0, n, 3):
                assert mult[mult[x][y]][z] == mult[x][mult[y][z]]


def test_element_orders_divide_group_order():
    G = named_group("frobenius_metacyclic", [13, 2, 2])
    assert all(G.order % o == 0 for o in G.element_orders)
    assert G.exponent() == 52 or G.order % G.exponent() == 0


def test_direct_product_order_and_commuting_factors():
    A = named_group("cyclic", [4])
    B = named_group("sym", [3])
    P = direct_product(A, B)
    assert P.order == 24
    assert P.exponent() == 12


def _v4_in_s4():
    G = named_group("sym", [4])
    gens = [G.element_index[Permutation.parse(c, 4)]
            for c in ("(1 2)(3 4)", "(1 3)(2 4)")]
    return G, G.closure_mask(gens)


def test_quotient_epimorphism_verified():
    G, nmask = _v4_in_s4()
    Q, epi = quotient(G, nmask)
    assert Q.order == 6
    assert epi.kernel_mask() == nmask
    epi.verify()


def test_quotient_rejects_non_normal():
    G = named_group("sym", [3])
    mask = G.closure_mask([G.element_index[Permutation.parse("(1 2)", 3)]])
    with pytest.raises(GroupError, match="not normal"):
        quotient(G, mask)


@pytest.mark.parametrize("name,args,normals", [
    ("sym", [4], 4), ("holomorph_cyclic", [5], 4)])
def test_quotient_succeeds_exactly_on_normal_subgroups(name, args, normals):
    """Normality by permutation arithmetic over every element and member
    (S4: 1, V4, A4, S4; Hol(Z5): 1, Z5, D5, Hol(Z5))."""
    G = named_group(name, args)
    els, idx = G.elements, G.element_index
    found = 0
    for s in G.lattice().subgroups:
        members = [els[m] for m in set_bits(s.mask)]
        if all(s.mask >> idx[g.inverse() * x * g] & 1
               for g in els for x in members):
            found += 1
            check_quotient(G, s.mask)
        else:
            with pytest.raises(GroupError, match="not normal"):
                quotient(G, s.mask)
    assert found == normals


def test_quotient_rejects_non_subgroup():
    """Member sets that are not subgroups: empty, without the identity,
    not closed (a 3-cycle without its inverse, two transpositions)."""
    G = named_group("sym", [4])
    e = G.identity_ordinal
    x = {c: G.element_index[Permutation.parse(c, 4)]
         for c in ("(1 2 3)", "(1 2)", "(3 4)", "(1 3)")}
    for members in ([], [x["(1 2)"]], [e, x["(1 2 3)"]],
                    [e, x["(1 2)"], x["(3 4)"]],
                    [e, x["(1 2)"], x["(1 3)"]]):
        with pytest.raises(GroupError, match="not a subgroup"):
            quotient(G, sum(1 << m for m in members))


def test_quotients_with_one_coset_image_share_one_group(monkeypatch):
    """S3/A3, D4 by each of its three normal subgroups of order 4, and S3
    with its identity listed last by A3 are one group, Z2 on two points,
    named after the first parent; each epimorphism is verified and has its
    own N as kernel.  The last parent's first coset is the odd one, so its
    table reads the shared group's elements the other way round.  The
    table holds the group weakly: once the parents are dropped, it is
    empty."""
    monkeypatch.setattr(permgroup, "_shared_quotients", None)
    S3, D4 = named_group("sym", [3]), named_group("dihedral", [4])
    e = S3.elements[S3.identity_ordinal]
    S3e = FiniteGroup(3, sorted(S3.elements, key=e.__eq__), S3.generators)
    parents = [(S3, s.mask) for s in normal_subgroups(S3) if s.order == 3]
    parents += [(D4, s.mask) for s in normal_subgroups(D4) if s.order == 4]
    parents += [(S3e, s.mask) for s in normal_subgroups(S3e) if s.order == 3]
    assert len(parents) == 5 and S3e.identity_ordinal == 5
    quotients = [quotient_cached(G, nmask) for G, nmask in parents]
    Q = quotients[0][0]
    assert (Q.order, Q.degree, Q.name) == (2, 2, "S3/N3")
    for (G, nmask), (shared, epi) in zip(parents, quotients):
        assert shared is Q and epi.source is G
        assert is_epimorphism_by_definition(epi)
        assert epi.kernel_mask() == nmask
    assert quotients[-1][1].table[0] != Q.identity_ordinal
    assert list(permgroup._shared_quotients.values()) == [Q]
    del S3, D4, S3e, parents, quotients, Q, G, shared, epi
    gc.collect()
    assert len(permgroup._shared_quotients) == 0


def test_quotients_are_the_coset_action_on_corpus(corpus):
    """For every proper normal N of every corpus group of order at most
    60, the quotient's elements, built or shared, are the coset action
    computed from G's table, and the image of x is the ordinal of its
    coset's permutation (`check_quotient`).  Kept alive, the quotients
    share groups."""
    kept = [check_quotient(e.group, N.mask)
            for e in corpus if e.order <= 60
            for N in normal_subgroups(e.group)[:-1]]
    assert len({id(Q) for Q in kept}) < len(kept)


def test_group_from_spec_kinds():
    g1 = group_from_spec({"kind": "named", "name": "cyclic", "args": [6]})
    assert g1.order == 6
    g2 = group_from_spec({"kind": "generators", "degree": 3,
                          "cycles": ["(1 2)", "(1 2 3)"]})
    assert g2.order == 6
    g3 = group_from_spec({"kind": "direct", "parts": [
        {"kind": "named", "name": "cyclic", "args": [2]},
        {"kind": "named", "name": "cyclic", "args": [3]}]})
    assert g3.order == 6 and g3.is_cyclic()


def _two_factor_product(G, H):
    """The direct product by its definition: G's generators fix H's points
    and H's move only their own, shifted past G's."""
    d = G.degree + H.degree
    gens = [Permutation(tuple(p) + tuple(range(G.degree, d)))
            for p in G.generators]
    gens += [Permutation(tuple(range(G.degree)) + tuple(q + G.degree for q in p))
             for p in H.generators]
    return generate(d, gens, name=f"{G.name}x{H.name}")


def test_direct_spec_matches_nested_direct_products():
    """A flat direct spec is one product of its parts, with the elements,
    generators and name of the nested two-factor products."""
    specs = [{"kind": "named", "name": "sym", "args": [3]},
             {"kind": "named", "name": "cyclic", "args": [1]},
             {"kind": "generators", "degree": 4, "cycles": ["(1 2 3 4)"],
              "name": "C4"},
             {"kind": "named", "name": "dihedral", "args": [5]}]
    for parts in (specs[:2], specs[1:3], specs[:3], specs[1:]):
        A, B, *rest = map(group_from_spec, parts)
        ref, nested = _two_factor_product(A, B), direct_product(A, B)
        for C in rest:
            ref = _two_factor_product(ref, C)
            nested = direct_product(nested, C)
        G = group_from_spec({"kind": "direct", "parts": parts})
        for H in (ref, nested):
            assert (G.elements, G.generators, G.name) == (
                H.elements, H.generators, H.name)


def test_group_from_spec_errors():
    from grouplab import ParseError
    with pytest.raises(ParseError):
        group_from_spec({"no": "kind"})
    with pytest.raises(ParseError):
        group_from_spec({"kind": "wat"})


@given(st.integers(min_value=2, max_value=400))
def test_factorize_reconstructs(n):
    facs = factorize(n)
    prod = 1
    for p, m in facs.items():
        assert is_prime(p)
        prod *= p**m
    assert prod == n


def test_factorize_returns_a_dict_the_caller_may_change():
    facs = factorize(360)
    facs[2] = 99
    facs[7] = 1
    del facs[3]
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert list(factorize(360)) == [2, 3, 5]


def test_prime_power():
    assert prime_power(32) == (2, 5)
    assert prime_power(27) == (3, 3)
    assert prime_power(12) is None
    assert prime_power(1) is None


OVER_CAP_50 = [("cyclic", [51]), ("elem_abelian", [2, 6]), ("dihedral", [26]),
               ("dicyclic", [13]), ("sym", [5]), ("alt", [5]),
               ("holomorph_cyclic", [60]), ("frobenius_metacyclic", [13, 2, 2])]


def test_order_cap_fails_before_building(monkeypatch):
    from grouplab import cli, permgroup

    monkeypatch.setenv("GROUPLAB_ORDER_CAP", "50")
    built = []
    real = permgroup.generate
    monkeypatch.setattr(permgroup, "generate",
                        lambda *a, **k: built.append(a) or real(*a, **k))
    for name, args in OVER_CAP_50:
        with pytest.raises(OrderCapExceeded):
            named_group(name, args)
    assert built == []
    assert cli.main(["show", "holomorph_cyclic:60"]) == 2
    assert built == []
    assert named_group("dicyclic", [12]).order == 48
    assert built


def test_named_order_stays_near_cap():
    # 1000!, 2**1000 and the like are never formed
    for name, args in [("sym", [1000]), ("alt", [1000]),
                       ("elem_abelian", [2, 1000]),
                       ("frobenius_metacyclic", [3, 2, 1000])]:
        spec = {"kind": "named", "name": name, "args": args}
        assert 50 < spec_order(spec, 50) < 10**4


def test_builder_conditions_never_factor_a_huge_argument():
    # over the cap before any check forms q**n
    with pytest.raises(OrderCapExceeded):
        named_group("frobenius_metacyclic", [3, 2, 10**9])
    # 2**61 - 1 is prime, and trial division to its square root would take
    # minutes; each order is at most the cap, but a range check fails first
    big = 2**61 - 1
    for name, args in [("elem_abelian", [big, 0]),
                       ("frobenius_metacyclic", [big, 0, 1]),
                       ("frobenius_metacyclic", [2, big, 0]),
                       ("frobenius_metacyclic", [-1, big, 1])]:
        with pytest.raises(GroupError, match=rf"{name}\(.*\) needs "):
            named_group(name, args)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 1), (3, 2), (5, 2)])
def test_elem_abelian_is_its_direct_product_chain(p, k):
    ref = named_group("cyclic", [p])
    for _ in range(k - 1):
        ref = direct_product(ref, named_group("cyclic", [p]))
    G = named_group("elem_abelian", [p, k])
    assert G.elements == ref.elements and G.generators == ref.generators
    assert (G.name, G.degree) == (f"E{p}^{k}", p * k)


def test_small_dihedral_groups_are_their_direct_products():
    z2 = named_group("cyclic", [2])
    for n, ref in [(1, z2), (2, direct_product(z2, z2))]:
        G = named_group("dihedral", [n])
        assert G.elements == ref.elements and G.generators == ref.generators
        assert (G.name, G.degree) == (f"D{n}", 2 * n)


# -- group construction against its loop form -------------------------------


def _bfs_elements(degree, gens):
    """`generate`'s element list by a plain BFS over loop-form products."""
    ident = tuple(range(degree))
    elements, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _product(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    new.append(y)
        frontier = new
    return elements


def test_generate_matches_plain_bfs(corpus):
    groups = [entry.group for entry in corpus]
    groups += [group_from_spec({"kind": "generators", "degree": d,
                                "cycles": cycles})
               for d, cycles in [(0, []), (1, []), (1, ["(1)", "()"]), (2, []),
                                 (2, ["(1 2)"]), (2, ["()", "(1 2)", "(1 2)"])]]
    for G in groups:
        assert G.elements == _bfs_elements(G.degree, G.generators), G.name
        assert all(type(x) is Permutation for x in G.elements)


# below degree 2 itemgetter takes one index or none; alt:2 has degree 2 and
# no generators
ORDER_ONE_SPECS = [
    {"kind": "generators", "degree": 0, "cycles": []},
    {"kind": "generators", "degree": 1, "cycles": ["(1)"]},
    {"kind": "named", "name": "cyclic", "args": [1]},
    {"kind": "named", "name": "sym", "args": [1]},
    {"kind": "named", "name": "alt", "args": [2]},
]


@pytest.mark.parametrize("spec", ORDER_ONE_SPECS)
def test_order_one_groups(spec):
    G = group_from_spec(spec)
    assert G.order == 1 and G.mult == [[0]]
    assert G.elements == [Permutation.identity(G.degree)]
    L = G.lattice()
    assert len(L) == 1 and L.bottom is L.top and L.top.gens == ()


# -- the Cayley-graph multiplication table against its definition ------------


def _assert_mult_is_definition(G):
    """mult[a][b] is the ordinal of elements[a] * elements[b], every a, b."""
    els, idx, mult = G.elements, G.element_index, G.mult
    assert len(mult) == G.order
    for a, x in enumerate(els):
        assert [idx[x * y] for y in els] == mult[a]


def test_mult_matches_definition_on_corpus(corpus):
    for entry in corpus:
        _assert_mult_is_definition(entry.group)


@pytest.mark.parametrize("name,args", [("sym", [4]), ("holomorph_cyclic", [5])])
def test_mult_matches_definition_on_quotients(name, args):
    G = named_group(name, args)
    for N in normal_subgroups(G):
        Q, _ = quotient_cached(G, N.mask)
        _assert_mult_is_definition(Q)


def test_mult_matches_definition_on_subgroups(s4):
    L = s4.lattice()
    for s in L.subgroups:
        _assert_mult_is_definition(L.subgroup_as_group(s.id))


def test_mult_with_repeated_and_identity_generators():
    G = group_from_spec({"kind": "generators", "degree": 4,
                         "cycles": ["(1 2 3 4)", "(1 2 3 4)", "()", "(1 2)",
                                    "(1 2)"]})
    assert G.order == 24
    _assert_mult_is_definition(G)


def test_mult_matches_definition_on_hol19():
    # 18 generators, most of them redundant for the Cayley walk
    _assert_mult_is_definition(named_group("holomorph_cyclic", [19]))


def test_mult_builds_rows_only_for_generators_it_needs(monkeypatch):
    # (1 3)(2 4) is the square of (1 2 3 4), and (1 3) comes after the
    # first two generators already generate S4: one left row, a getter
    # over 24 ordinals, each for the first two, none for the others
    G = group_from_spec({"kind": "generators", "degree": 4,
                         "cycles": ["(1 2 3 4)", "(1 3)(2 4)", "(1 2)",
                                    "(1 3)"]})
    assert G.order == 24
    getters = []

    def counted(*items):
        getters.append(len(items))
        return itemgetter(*items)

    monkeypatch.setattr(permgroup, "itemgetter", counted)
    H = FiniteGroup(4, G.elements, G.generators)  # the walk runs here
    monkeypatch.undo()
    assert getters.count(G.order) == 2
    _assert_mult_is_definition(H)


def test_inverses_and_element_orders_match_definition(corpus):
    groups = [entry.group for entry in corpus] + [
        named_group("cyclic", [300]), named_group("holomorph_cyclic", [19])]
    for G in groups:
        idx = G.element_index
        assert G.inv == [idx[x.inverse()] for x in G.elements], G.name
        assert G.element_orders == element_orders_by_definition(G), G.name


def test_epimorphism_with_one_image_changed_is_rejected():
    Q, epi = quotient(*_v4_in_s4())
    G = epi.source
    assert is_epimorphism_by_definition(epi)
    gens = {G.element_index[s] for s in G.generators}
    changed = 0
    for x in range(G.order):
        if x in gens:
            continue
        for img in range(Q.order):
            if img == epi.table[x]:
                continue
            table = list(epi.table)
            table[x] = img
            bad = Epimorphism(G, Q, tuple(table))
            assert not is_epimorphism_by_definition(bad)
            with pytest.raises(GroupError, match="not a homomorphism"):
                bad.verify()
            changed += 1
    assert changed == (G.order - len(gens)) * (Q.order - 1)


def test_epimorphism_from_order_one_checks_the_identity():
    # Z1 has no generator, so only the check t(e) = e is left
    Z1, Z2 = named_group("cyclic", [1]), named_group("cyclic", [2])
    assert Z1.generators == []
    Epimorphism(Z1, Z1, (0,)).verify()
    bad = Epimorphism(Z1, Z2, (1 - Z2.identity_ordinal,))
    assert not is_epimorphism_by_definition(bad)
    with pytest.raises(GroupError, match="not a homomorphism"):
        bad.verify()


# -- a FiniteGroup is the group its generators generate ----------------------


def _cycles(degree, *texts):
    return [Permutation.parse(t, degree) for t in texts]


def test_table_that_is_not_closed_is_rejected():
    # not a group: (1 2)(1 3) is missing; the walk reaches 1 of 3 rows
    with pytest.raises(GroupError, match="generate 1 of the 3"):
        FiniteGroup(3, _cycles(3, "()", "(1 2)", "(1 3)"), [])
    # with both generators, the left row of (1 2) leaves the table
    with pytest.raises(GroupError, match="not closed"):
        FiniteGroup(3, _cycles(3, "()", "(1 2)", "(1 3)"),
                    _cycles(3, "(1 2)", "(1 3)"))


def test_direct_product_of_table_its_generators_do_not_generate():
    # <(1 2)> is 2 of the 6 elements of S3; the product would have order 4
    S3 = named_group("sym", [3])
    with pytest.raises(GroupError, match="generate 2 of the 6"):
        direct_product(FiniteGroup(3, S3.elements, _cycles(3, "(1 2)")),
                       named_group("cyclic", [2]))


def test_quotient_of_table_its_generators_do_not_generate():
    # <(1 2)> passes a normality test on the generator (1 2) alone
    S3 = named_group("sym", [3])
    e, t = _cycles(3, "()", "(1 2)")
    mask = 1 << S3.element_index[e] | 1 << S3.element_index[t]
    with pytest.raises(GroupError, match="generate 2 of the 6"):
        quotient(FiniteGroup(3, S3.elements, [t]), mask)


def test_generator_outside_the_table_is_rejected():
    # (1 2) comes after (1 2 3) has already reached every element of Z3
    Z3 = named_group("cyclic", [3])
    with pytest.raises(GroupError, match="not in the element table"):
        FiniteGroup(3, Z3.elements, _cycles(3, "(1 2 3)", "(1 2)"))


def test_shuffled_table_with_redundant_generators_is_accepted():
    G = named_group("holomorph_cyclic", [7])
    elements = list(G.elements)
    random.Random(7).shuffle(elements)
    a, b = G.generators[:2]
    gens = G.generators + [a * b, Permutation.identity(G.degree)]
    H = FiniteGroup(G.degree, elements, gens)
    assert H.order == G.order and H.elements == elements
    _assert_mult_is_definition(H)


def _perms(degree):
    return st.permutations(list(range(degree))).map(Permutation)


@given(st.integers(0, 7).flatmap(lambda n: st.tuples(_perms(n), _perms(n))))
def test_unchecked_products_are_checked_permutations(pair):
    a, b = pair
    ab = a * b
    assert type(ab) is Permutation and type(a.inverse()) is Permutation
    assert ab == Permutation(b[i] for i in a)
    assert a.inverse() * a == Permutation.identity(a.degree)


@given(_perms(3), _perms(4))
def test_products_admit_only_permutations_of_one_degree(a, b):
    with pytest.raises(GroupError):
        a * b
    for plain in [(0, 1, 2), (0, 0, 1)]:
        with pytest.raises((TypeError, GroupError)):
            a * plain


def test_non_bijection_rejected():
    with pytest.raises(ParseError):
        Permutation((0, 0, 1))


def test_set_bits_matches_bit_tests():
    """The lowest-bit loop against testing each position, on 0, 1, sparse
    ints and dense 2000-bit ints."""
    rng = random.Random(7)
    cases = [0, 1, 2, 1 << 63, 1 << 64 | 1, (1 << 1999) | (1 << 700)]
    cases += [sum(1 << rng.randrange(2000) for _ in range(5))
              for _ in range(20)]
    cases += [rng.getrandbits(2000) for _ in range(20)]
    cases += [(1 << 2000) - 1]
    for bits in cases:
        assert set_bits(bits) == [i for i in range(bits.bit_length())
                                  if bits >> i & 1]
