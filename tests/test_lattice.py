import pytest
from hypothesis import given, strategies as st

from grouplab import (FiniteGroup, OrderCapExceeded, Permutation,
                      all_subgroups, direct_product, group_from_spec, harness,
                      lattice, named_group)
from grouplab.classes import p_subnormal_set
from grouplab.lattice import _id_key
from grouplab.permgroup import is_prime, prime_power, set_bits
from grouplab.structure import is_supersoluble
from grouplab.submodular import (CLASS_IDS, in_class, is_n_maximal_with_index,
                                 ksub_set)
from checks import check_classes, check_gens, check_order
from definitions import (frattini_by_nongenerators, generating_pairs,
                         goursat_count, hall_phi2, mobius_to_top,
                         naive_subgroup_masks, reach_by_pairs)


@pytest.mark.parametrize("name,args,count", [
    ("cyclic", [12], 6),        # one subgroup per divisor
    ("sym", [3], 6),
    ("sym", [4], 30),
    ("elem_abelian", [2, 2], 5),
    ("dicyclic", [2], 6),       # quaternion group
    ("holomorph_cyclic", [5], 14),
])
def test_lattice_matches_naive_oracle(name, args, count):
    G = named_group(name, args)
    L = G.lattice()
    assert len(L) == count
    assert {s.mask for s in L.subgroups} == naive_subgroup_masks(G)


def test_lattice_order_cap_check_caches_nothing(monkeypatch):
    """`all_subgroups` refuses a group above the cap, and the refused call
    leaves no lattice behind: at the old cap the lattice builds."""
    G = named_group("sym", [5])
    monkeypatch.setenv("GROUPLAB_ORDER_CAP", "100")
    with pytest.raises(OrderCapExceeded):
        G.lattice()
    monkeypatch.delenv("GROUPLAB_ORDER_CAP")
    assert len(G.lattice()) == 156


def test_lattice_ids_sorted_by_order():
    L = named_group("sym", [4]).lattice()
    orders = [s.order for s in L.subgroups]
    assert orders == sorted(orders)
    assert L.bottom.order == 1 and L.top.order == 24


def test_meet_join_are_lattice_ops():
    L = named_group("sym", [4]).lattice()
    for a in range(0, len(L), 3):
        for b in range(0, len(L), 3):
            m, j = L.meet(a, b), L.join(a, b)
            assert L.leq(m, a) and L.leq(m, b)
            assert L.leq(a, j) and L.leq(b, j)
            assert L.subgroups[j].order % L.subgroups[a].order == 0


def test_hasse_covers_have_no_intermediate():
    L = named_group("dihedral", [6]).lattice()
    for a in range(len(L)):
        for b in L.hasse_up[a]:
            assert L.leq(a, b) and a != b
            for c in range(len(L)):
                if c not in (a, b) and L.leq(a, c) and L.leq(c, b):
                    raise AssertionError("cover skips a subgroup")


def test_generated_subgroup():
    G = named_group("sym", [4])
    L = G.lattice()
    s = L.subgroups[L.generated([1])]
    assert s.order > 1 and s.mask == G.closure_mask([1])


def test_conjugates_and_core(hol5):
    L = hol5.lattice()
    four = [s for s in L.subgroups if s.order == 4]
    assert len(four) == 5
    cls = L.conjugates(four[0].id)
    assert len(cls) == 5
    assert L.subgroups[L.core(four[0].id)].order == 1


def test_normalizer_and_normality(s4):
    L = s4.lattice()
    v4 = next(s for s in L.subgroups if s.order == 4
              and L.normalizer(s.id) == L.top.id)
    assert L.subgroups[L.normalizer(v4.id)].order == 24
    s3 = next(s for s in L.subgroups if s.order == 6)
    assert L.subgroups[L.normalizer(s3.id)].order == 6


def test_intersect_and_maximal(s4):
    L = s4.lattice()
    top = L.subgroups[L.top.id]
    maxes = [L.subgroups[i] for i in L.hasse_down[top.id]]
    assert sorted({m.order for m in maxes}) == [6, 8, 12]
    a4 = next(m for m in maxes if m.order == 12)
    d8 = next(m for m in maxes if m.order == 8)
    assert L.subgroups[L.meet(a4.id, d8.id)].order == 4


def test_n_maximal_chains(hol5):
    L = hol5.lattice()
    four = next(s for s in L.subgroups if s.order == 4)
    n, q = is_n_maximal_with_index(L, L.bottom.id, four.id)
    assert (n, q) == (2, 2)  # a 2-step maximal chain 1 < Z2 < Z4
    assert n != 1  # and no 1-step one
    assert is_n_maximal_with_index(L, L.top.id, L.top.id) == (0, None)


def test_frattini():
    L = named_group("cyclic", [4]).lattice()
    assert L.subgroups[L.frattini()].order == 2
    L8 = named_group("dicyclic", [2]).lattice()
    assert L8.subgroups[L8.frattini()].order == 2  # Phi(Q8) = center
    L1 = named_group("cyclic", [1]).lattice()
    assert L1.frattini() == L1.bottom.id  # no maximal subgroup: the meet of none


def test_frattini_of_other_groups_is_the_nongenerators(corpus):
    """`L.frattini()` against the elements that no proper subgroup needs to
    generate G, on the corpus groups of order at most 60 but the nontrivial
    p-groups (test_oracles checks those against sympy)."""
    mismatches = []
    checked = 0
    for entry in corpus:
        G = entry.group
        if G.order > 60 or len(G.prime_divisors()) == 1:
            continue
        L = G.lattice()
        ours = set(set_bits(L.subgroups[L.frattini()].mask))
        if ours != frattini_by_nongenerators(G):
            mismatches.append((entry.name, sorted(ours)))
        checked += 1
    assert not mismatches
    assert checked == 48


def test_meet_of_any_number_of_ids(s4):
    """The meet of the ids' member sets, the top for none."""
    L = s4.lattice()
    assert L.meet() == L.top.id
    for ids in ([5], [3, 9, 20], L.hasse_down[L.top.id], range(len(L))):
        mask = L.top.mask
        for a in ids:
            mask &= L.subgroups[a].mask
        assert L.subgroups[L.meet(*ids)].mask == mask


def test_goursat_counts_direct_products(corpus):
    """Subgroups of A x B counted by Goursat's lemma from the sections of
    A and B, with no engine lattice, against the lattice of A x B: the
    corpus's direct products, S4 x S3 and D4 x D4."""
    pairs = [tuple(map(group_from_spec, e.spec["parts"]))
             for e in corpus if e.spec["kind"] == "direct"]
    assert len(pairs) == 9
    pairs += [(named_group("sym", [4]), named_group("sym", [3])),
              (named_group("dihedral", [4]),) * 2]
    counts = [len(direct_product(A, B).lattice()) for A, B in pairs]
    assert counts == [goursat_count(A, B) for A, B in pairs]
    assert counts[-2:] == [372, 389]


def test_subgroup_as_group_matches(s4):
    L = s4.lattice()
    s3 = next(s for s in L.subgroups if s.order == 6)
    H = L.subgroup_as_group(s3.id)
    assert H.order == 6
    assert len(H.lattice()) == 6
    assert not H.is_abelian()


# -- generator-based normalizers, conjugates and cores against the
#    all-members definitions ---------------------------------------------------

# ("direct", [...]) is the direct product of the named groups listed
REFERENCE_GROUPS = [("sym", [4]), ("holomorph_cyclic", [5]), ("sym", [5]),
                    ("holomorph_cyclic", [19]),
                    ("direct", [("sym", [4]), ("sym", [3])])]

# A5 x Z2 reaches the general pass of the enumeration
READ_GROUPS = REFERENCE_GROUPS + [("direct", [("alt", [5]), ("cyclic", [2])])]


def _reference_group(name, args):
    if name == "direct":
        return direct_product(*(named_group(n, a) for n, a in args))
    return named_group(name, args)


def _conjugate_by_permutations(G, mask, g):
    """{g^-1 x g : x in mask}, computed from the permutations themselves."""
    p = G.elements[g]
    pi = p.inverse()
    out = 0
    for x in set_bits(mask):
        out |= 1 << G.element_index[pi * G.elements[x] * p]
    return out


def test_conjugate_mask_matches_permutation_arithmetic(s4):
    L = s4.lattice()
    for s in L.subgroups:
        for g in range(s4.order):
            assert (s4.conjugate_mask(s.mask, g)
                    == _conjugate_by_permutations(s4, s.mask, g))


@given(st.integers(1, 12).flatmap(lambda k: st.lists(
    st.frozensets(st.integers(0, 40), min_size=k, max_size=k),
    min_size=2, max_size=8, unique=True)))
def test_id_key_orders_masks_of_one_order_as_their_member_lists(sets):
    masks = [sum(1 << x for x in s) for s in sets]
    assert (sorted(masks, key=_id_key, reverse=True)
            == sorted(masks, key=set_bits))


@pytest.mark.parametrize("name,args", READ_GROUPS)
def test_normalizers_are_read_without_conjugating(name, args, monkeypatch):
    """Every normalizer, whole-group class and core comes with the lattice:
    once it is built, none of these reads conjugates a member set (A5 x Z2
    reaches the general pass of the enumeration).  The classes read are
    then checked by `check_classes`, and each core is their meet."""
    L = _reference_group(name, args).lattice()
    top = L.top.id

    def refuse(*args):
        raise AssertionError("conjugate_mask called")

    monkeypatch.setattr(FiniteGroup, "conjugate_mask", refuse)
    reads = []
    for a in range(len(L)):
        n = L.normalizer(a)
        assert L.is_normal_in(a, n)
        assert sum(L.is_normal_in(a, b) for b in range(len(L))) == (
            L.down[n] & L.up[a]).bit_count()
        reads.append((L.conjugates(a), L.conjugates(a, within=top),
                      L.core(a)))
    monkeypatch.undo()
    check_classes(L)
    for a, (cls, cls_top, core) in enumerate(reads):
        assert cls == cls_top == L.conjugates(a)
        core_mask = L.group.full_mask()
        for c in cls:
            core_mask &= L.subgroups[c].mask
        assert L.subgroups[core].mask == core_mask


def test_classes_of_the_corpus(corpus):
    for e in corpus:
        check_classes(e.lattice)


def test_gens_of_the_corpus(corpus):
    for e in corpus:
        if e.order <= 60:
            check_gens(e.lattice)


def test_printed_gens_are_replayed_only_when_printed(monkeypatch):
    """The verification run and the scale-ladder's calls (lattice, k-
    submodular sets and class membership of E2^5 and S4 x S3) never replay
    the plain extension loop; the first `gen_cycles` call replays it once
    for the whole lattice."""
    replay, calls = lattice._replay_gens, []

    def refuse(*args):
        raise AssertionError("generator replay outside a printed tuple")

    def count(L):
        calls.append(L)
        return replay(L)

    monkeypatch.setattr(lattice, "_replay_gens", refuse)
    corpus = harness.build_corpus(harness.CorpusConfig(cap=24))
    for suite in harness.SUITE_IDS:  # some counters need the full corpus
        rep = harness.run_suite(suite, [1, 2, 3], corpus)
        assert all(r["pass"] for r in rep.entries), suite
    for G in (named_group("elem_abelian", [2, 5]),
              direct_product(named_group("sym", [4]), named_group("sym", [3]))):
        L = G.lattice()
        for k in (1, 2, 3):
            ksub_set(L, k)
            for c in CLASS_IDS:
                in_class(L, c, k)
        is_supersoluble(G)
    monkeypatch.setattr(lattice, "_replay_gens", count)
    L.subgroups[5].gen_cycles()
    assert calls == [L]
    for s in L.subgroups:
        s.gen_cycles()
    assert calls == [L]


LATTICE_TABLES = {"group", "subgroups", "by_mask", "bottom", "top", "holders",
                  "up", "down", "prime_down", "hasse_down", "hasse_up",
                  "_normalizers", "_class_of"}


def test_answers_are_kept_by_memo_and_cached_properties():
    """After the verification run, a printed tuple, conjugates under a
    proper subgroup and a member built as a group, a lattice holds its
    tables, `memo`'s store and two plain dicts, and no group holds a
    hand-rolled inverse or element-order table."""
    corpus = harness.build_corpus(harness.CorpusConfig(cap=24))
    for suite in harness.SUITE_IDS:
        harness.run_suite(suite, [1, 2, 3], corpus)
    L = named_group("sym", [4]).lattice()
    L.subgroups[5].gen_cycles()
    b = next(b for b in range(len(L)) if any(
        len(L.conjugates(a, within=b)) > 1 for a in set_bits(L.down[b])))
    H = L.subgroup_as_group(b)
    assert H.inv is H.inv and L.subgroup_as_group(b) is H
    groups = [L.group] + [e.group for e in corpus]
    for M in [G.lattice() for G in groups]:
        assert set(vars(M)) - LATTICE_TABLES == {
            "_memos", "step_kind_cache", "ksub_reach"}, M.group.name
        groups += [H for H in M._memos.values() if isinstance(H, FiniteGroup)]
    groups += [Q for G in groups[:] for Q, _ in G._quotients.values()]
    assert any("inv" in vars(G) for G in groups)
    assert any("element_orders" in vars(G) for G in groups)
    assert not [G.name for G in groups if {"_inv", "_orders"} & set(vars(G))]


@pytest.mark.parametrize("name,args", REFERENCE_GROUPS)
def test_normalizer_conjugates_core_match_definitions(name, args):
    """Also checks the normalizer of every subgroup, handed to the lattice
    by the enumeration, `check_classes` and `check_order`."""
    G = _reference_group(name, args)
    L = G.lattice()
    check_classes(L)
    check_order(L)
    # conj[a][g] = mask of a^g, for every member g of G
    conj = [[G.conjugate_mask(s.mask, g) for g in range(G.order)]
            for s in L.subgroups]
    for s in L.subgroups:
        a = s.id
        nm = sum(1 << g for g in range(G.order) if conj[a][g] == s.mask)
        assert L.subgroups[L.normalizer(a)].mask == nm
        assert ({L.subgroups[c].mask for c in L.conjugates(a)}
                == set(conj[a]))
        for b in range(len(L)):
            if not L.leq(a, b):
                continue
            core = s.mask
            members = set_bits(L.subgroups[b].mask)
            for g in members:
                core &= conj[a][g]
            assert L.subgroups[L.core(a, within=b)].mask == core
            assert ({L.subgroups[c].mask for c in L.conjugates(a, within=b)}
                    == {conj[a][g] for g in members})
            assert L.is_normal_in(a, b) == all(
                conj[a][g] == s.mask for g in members)


@pytest.mark.parametrize("name,args", [
    ("holomorph_cyclic", [19]), ("direct", [("sym", [4]), ("sym", [3])])])
def test_each_orbit_under_a_subgroup_is_walked_once(name, args, monkeypatch):
    """`conjugates(a, within=b)` keeps the orbit it walks for every member:
    asking for another member of a walked orbit conjugates no member set,
    and every member gets the same list."""
    L = _reference_group(name, args).lattice()
    calls = []
    conjugate_mask = FiniteGroup.conjugate_mask

    def count(G, mask, g):
        calls.append(g)
        return conjugate_mask(G, mask, g)

    monkeypatch.setattr(FiniteGroup, "conjugate_mask", count)
    shared = 0
    for b in range(len(L) - 1):
        walked = set()
        for a in set_bits(L.down[b]):
            if a in walked:
                continue
            orbit = L.conjugates(a, within=b)
            before = len(calls)
            assert all(L.conjugates(x, within=b) is orbit for x in orbit)
            assert len(calls) == before, (b, a)
            walked.update(orbit)
            shared += len(orbit) > 1
    assert calls and shared


def _closure_by_permutations(G, gens):
    """Mask of the subgroup generated by the given ordinals, by closing the
    set of permutations under right multiplication."""
    gperms = [G.elements[g] for g in gens]
    seen = {Permutation.identity(G.degree)}
    frontier = list(seen)
    while frontier:
        frontier = [x * g for x in frontier for g in gperms if x * g not in seen]
        seen.update(frontier)
    return sum(1 << G.element_index[x] for x in seen)


@pytest.mark.parametrize("name,args", [("sym", [4]), ("holomorph_cyclic", [5])])
def test_coset_closure_matches_plain_closure(name, args):
    """Closure of <H, c> by cosets of H, started from the mask of H, equals
    the closure of H's generators and c, for every subgroup H and element c."""
    G = named_group(name, args)
    for s in G.lattice().subgroups:
        assert G.closure_mask(s.gens) == s.mask
        for c in range(G.order):
            gens = s.gens + (c,)
            expected = _closure_by_permutations(G, gens)
            assert G.closure_mask(gens, s.mask) == expected
            assert G.closure_mask(gens) == expected


# -- the bitset order relation and the enumeration against mask definitions --


def _order_groups(corpus):
    """Every corpus group of order <= 60, plus E2^5 and S4 x S3."""
    return ([e.group for e in corpus if e.order <= 60]
            + [named_group("elem_abelian", [2, 5]),
               direct_product(named_group("sym", [4]), named_group("sym", [3]))])


def _cover_scan(L):
    """Hasse covers by the definition: b covers a when a < b and no c lies
    strictly between them."""
    subs = L.subgroups
    up = [[] for _ in subs]
    down = [[] for _ in subs]
    for sa in subs:
        sups = [sb for sb in subs if sb.id != sa.id and sa.mask & ~sb.mask == 0]
        for sb in sups:
            if not any(sc.order < sb.order and sc.mask & ~sb.mask == 0
                       for sc in sups):
                up[sa.id].append(sb.id)
                down[sb.id].append(sa.id)
    return up, down


def test_order_relation_matches_mask_definitions(corpus):
    for G in _order_groups(corpus):
        L = G.lattice()
        subs = L.subgroups
        m = len(subs)
        for s in subs:
            assert G.closure_mask(s.gens) == s.mask  # holders rely on it
        for a in subs:
            ups = [b.id for b in subs if a.mask & ~b.mask == 0]
            assert L.up[a.id] == sum(1 << b for b in ups)
            assert all(L.leq(a.id, b) == (b in ups) for b in range(m))
            downs = [b.id for b in subs if b.mask & ~a.mask == 0]
            assert L.down[a.id] == sum(1 << b for b in downs)
            over = [subs[b] for b in ups]
            for b in subs:
                union = a.mask | b.mask
                assert L.join(a.id, b.id) == next(
                    s.id for s in over if union & ~s.mask == 0), G.name
                assert subs[L.meet(a.id, b.id)].mask == a.mask & b.mask
        assert (L.hasse_up, L.hasse_down) == _cover_scan(L), G.name
        for x in range(G.order):
            for y in range(x, G.order):
                assert (subs[L.generated([x, y])].mask
                        == G.closure_mask([x, y]))
        assert L.generated([]) == L.bottom.id


def test_maximal_in_join_matches_join_loop(corpus):
    for G in _order_groups(corpus):
        L = G.lattice()
        m = len(L)
        pairs = [(a, b) for a in range(m) for b in range(m)
                 if L.join(a, b) != a and a in L.hasse_down[L.join(a, b)]]
        assert list(L.maximal_in_join()) == pairs, G.name


def _chain_lengths(L, a, b, memo):
    """Lengths of the maximal chains a = C0 < ... < Cn = b, by recursion over
    the maximal subgroups of b: the reference for `prime_down`."""
    if a == b:
        return frozenset({0})
    if (a, b) not in memo:
        memo[a, b] = frozenset(n + 1 for c in L.hasse_down[b] if L.leq(a, c)
                               for n in _chain_lengths(L, a, c, memo))
    return memo[a, b]


def test_prime_chains_and_intervals_match_definitions(corpus):
    groups = ([e.group for e in corpus if e.order <= 60]
              + [named_group("elem_abelian", [2, 5]),
                 named_group("holomorph_cyclic", [19])])
    for G in groups:
        L = G.lattice()
        subs = L.subgroups
        m = len(L)
        memo = {}
        for b in range(m):
            for a in (a for a in range(m) if L.leq(a, b)):
                pp = prime_power(subs[b].order // subs[a].order)
                if pp is not None:
                    q, n = pp
                    chain = n in _chain_lengths(L, a, b, memo)
                    assert is_n_maximal_with_index(L, a, b) == (
                        (n, q) if chain else None), (G.name, a, b)
        prime_step = lambda a, b: is_prime(subs[b].order // subs[a].order)
        assert p_subnormal_set(L) == frozenset(
            reach_by_pairs(L, L.top.id, prime_step))
        for a in range(m):
            above = [c for c in range(m) if L.leq(a, c)]
            for b in range(m):
                assert L.interval(a, b) == [c for c in above if L.leq(c, b)]


def _unskipped_mask_gens(G):
    """The cyclic-extension loop closing every subgroup with every cyclic
    subgroup outside it, with no extension skipped."""
    e = G.identity_ordinal
    cyclic = {}
    for x in range(G.order):
        cyclic.setdefault(G.closure_mask([x]), x)
    cyc_items = sorted(cyclic.items(),
                       key=lambda kv: (bin(kv[0]).count("1"), kv[0]))
    mask_gens = {1 << e: ()}
    queue = []
    for mask, gen in cyc_items:
        if mask not in mask_gens:
            mask_gens[mask] = (gen,)
            queue.append(mask)
    for h in queue:
        for cmask, cgen in cyc_items:
            if cmask & ~h:
                j = G.closure_mask(mask_gens[h] + (cgen,), h)
                if j not in mask_gens:
                    mask_gens[j] = mask_gens[h] + (cgen,)
                    queue.append(j)
    mask_gens.setdefault(G.full_mask(), ())
    return mask_gens


def test_cyclic_subgroup_gens_are_least_generators(corpus):
    """Brute force: <x> is closed for every x; `cyclic_subgroups` lists each
    <x> once with its least generator, by (order, mask), and canon[x] is
    that generator; a nontrivial cyclic subgroup's printed tuple is the
    least ordinal generating it, alone."""
    for G in [e.group for e in corpus] + [
            named_group("cyclic", [300]), named_group("holomorph_cyclic", [19])]:
        least, canon = {}, []
        for x in range(G.order):
            mask = G.closure_mask([x])
            least.setdefault(mask, x)
            canon.append(least[mask])
        assert G.cyclic_subgroups == (canon, sorted(
            least.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))), G.name
        L = G.lattice()
        for mask, x in least.items():
            gens = L.subgroups[L.by_mask[mask]].printed_gens()
            assert gens == (() if x == G.identity_ordinal else (x,)), G.name


def test_enumeration_matches_unskipped_loop(corpus):
    """Class-wise enumeration and generator replay against the plain loop:
    same masks, ids and printed generator tuples."""
    s4, a5 = named_group("sym", [4]), named_group("alt", [5])
    groups = ([e.group for e in corpus]
              + [direct_product(s4, named_group("sym", [3])),
                 named_group("elem_abelian", [2, 5]),
                 named_group("holomorph_cyclic", [19]),
                 direct_product(s4, named_group("elem_abelian", [2, 2])),
                 # not soluble: the general pass runs
                 direct_product(a5, named_group("cyclic", [2])),
                 direct_product(a5, named_group("cyclic", [3]))])
    for G in groups:
        assert_matches_unskipped_loop(G)


def assert_matches_unskipped_loop(G):
    expected = sorted(_unskipped_mask_gens(G).items(),
                      key=lambda kv: (kv[0].bit_count(),
                                      set_bits(kv[0])))
    got = [(s.mask, s.printed_gens()) for s in all_subgroups(G).subgroups]
    assert got == expected, G.name


def _gaussian_binomial_sum(n, q):
    """Number of subspaces of GF(q)^n."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def _tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("name,args,count", [
    ("cyclic", [30], _tau(30)),
    ("cyclic", [64], _tau(64)),
    ("cyclic", [720], _tau(720)),
    ("dihedral", [10], _tau(10) + _sigma(10)),
    ("dihedral", [48], _tau(48) + _sigma(48)),
    ("dihedral", [500], _tau(500) + _sigma(500)),  # order 1000
    ("elem_abelian", [2, 6], 2825),  # 1 + 63 + 651 + 1395 + 651 + 63 + 1
    ("elem_abelian", [3, 4], _gaussian_binomial_sum(4, 3)),
    ("elem_abelian", [5, 3], _gaussian_binomial_sum(3, 5)),
    ("elem_abelian", [11, 3], _gaussian_binomial_sum(3, 11)),  # order 1331
])
def test_subgroup_counts_match_closed_forms(name, args, count):
    """Counts the enumeration shares no code with: Z_n has tau(n)
    subgroups, D_n has tau(n) + sigma(n), E_p^n the number of subspaces."""
    assert len(all_subgroups(named_group(name, args))) == count


def test_hall_eulerian_function_matches_generating_pairs(corpus):
    """phi_2(G) = sum over H of mu(H, G) |H|^2 (Hall 1936), with mu from
    the lattice's up-sets, against a count of the pairs (x, y) with
    <x, y> = G by plain closure, on the corpus groups of order <= 60."""
    small = [e for e in corpus if e.order <= 60]
    assert len(small) == 74
    for e in small:
        assert hall_phi2(e.lattice) == generating_pairs(e.group), e.name


def test_hall_eulerian_function_of_a5():
    """Hall's published values: phi_2(A5) = 2280 and mu(1, A5) = -60."""
    L = named_group("alt", [5]).lattice()
    assert hall_phi2(L) == 2280
    assert mobius_to_top(L)[L.bottom.id] == -60


@pytest.mark.parametrize("name,args", [("sym", [4]), ("alt", [5])])
def test_hall_sum_changes_without_a_class(name, args):
    """With any one proper conjugacy class H^G with mu(H, G) != 0 taken out
    of the lattice, Hall's sum no longer counts the generating pairs."""
    G = named_group(name, args)
    L = G.lattice()
    mu, pairs = mobius_to_top(L), generating_pairs(G)
    classes = {frozenset(L.conjugates(a)) for a in range(len(L) - 1)}
    removable = [c for c in classes if mu[min(c)] != 0]
    assert len(removable) >= 5
    for c in removable:
        assert hall_phi2(L, set(range(len(L))) - c) != pairs, sorted(c)


def metacyclic_counts(cap):
    """(name, args, count) for F(p, q^n) with p < 260 and q in
    {2, 3, 5, 7}, then Hol(Z_p) with p < 60, of order at most cap.

    Each is G = P x| C with P = Z_p and C cyclic of order m acting on P by
    multiplication with units (m = q^n, m = p - 1 for Hol(Z_p)), so every
    c != 1 in C fixes only 0 in P.  G has 2 + (tau(m) - 1)(p + 1)
    subgroups, which for m = q^n is 2 + n + pn.  A subgroup K meets P in
    1 or P, and:
    - 1 and P are two.
    - The K > P are P times the tau(m) - 1 subgroups D != 1 of C.
    - The K != 1 meeting P in 1 are p(tau(m) - 1).  C has p conjugates:
      x in P normalizing C gives [x, c] in P meet C = 1 for c in C, so
      N(C) = C.  They meet trivially: the conjugates are C^x for x in P,
      and c in C meet C^x, x != 1, is c = x^-1 c' x with c' in C equal to
      c modulo P, so c' = c commutes with x and c = 1.  So they hold
      p(m - 1) elements other than 1, and with P all |G| = pm; each
      element outside P lies in exactly one conjugate of C.  K embeds in
      G/P = C, so it is cyclic, <k> with k outside P, and lies in the one
      conjugate of C that holds k.  So these K are the nontrivial
      subgroups of the p conjugates of C, each counted once.

    `metacyclic_ksub_count` gives the k-submodular subgroups:
    1 + tau(m) + p * (sum of min(k, e) over the prime powers q^e exactly
    dividing m), which is n + 2 + p * min(k, n) for m = q^n.
    - The 1 + tau(m) subgroups 1 and K >= P are normal, as G/P is abelian.
    - Let 1 != K <= C^x with |K| = d.  For y != 1 in P, K^y lies in
      C^(xy), which meets C^x trivially; so the step K < PK, of prime
      index p, is not normal and has core 1.  PK is not nilpotent, as K
      acts without fixed points on P.  So the step has kind j when
      d = q^j, and is no legal step when d is no prime power.  PK is
      normal in G, so K is j-submodular.
    - Conversely, take a chain from K up to G whose steps are legal at k.
      Its members meet P in 1 or P, so one step A < B has A meeting P in 1
      and B >= P.  A >= K is not normal in B, as it would centralize P;
      so |B:A| is prime, B = PA, and by the above |A| = q^i with i <= k.
      So d = q^j with j <= i <= k.
    So the k-submodular K != 1 meeting P in 1 are the subgroups of order
    q^j, j <= k, of the p conjugates of C, each counted once.
    """
    primes = [p for p in range(2, 260) if all(p % d for d in range(2, p))]
    for p in primes:
        for q in (2, 3, 5, 7):
            n = 1
            while (p - 1) % q**n == 0 and p * q**n <= cap:
                yield "frobenius_metacyclic", [p, q, n], 2 + n + p * n
                n += 1
    for p in primes:
        if p < 60 and p * (p - 1) <= cap:
            yield ("holomorph_cyclic", [p],
                   2 + (_tau(p - 1) - 1) * (p + 1))


def metacyclic_ksub_count(name, args, k):
    """The number of k-submodular subgroups of a `metacyclic_counts` group
    (its docstring has the proof)."""
    p = args[0]
    m = args[1] ** args[2] if name == "frobenius_metacyclic" else p - 1
    total = 1 + _tau(m)
    for q in range(2, m + 1):
        if all(q % d for d in range(2, q)):  # q prime
            e = 0
            while m % q ** (e + 1) == 0:
                e += 1
            total += p * min(k, e)
    return total


# CI's "Metacyclic subgroup counts" step runs the whole sweep to order 5000
@pytest.mark.parametrize("name,args,count", list(metacyclic_counts(400)))
def test_metacyclic_counts_match_closed_forms(name, args, count):
    L = all_subgroups(named_group(name, args))
    assert len(L) == count
    assert [len(ksub_set(L, k)) for k in (1, 2, 3, 4)] == [
        metacyclic_ksub_count(name, args, k) for k in (1, 2, 3, 4)]
