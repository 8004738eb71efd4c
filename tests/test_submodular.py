import hashlib
import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from grouplab import (GroupError, OrderCapExceeded, Permutation,
                      direct_product, generate, group_from_spec, named_group)
from grouplab import structure, submodular
from grouplab.lattice import SubgroupLattice, all_subgroups
from grouplab.permgroup import factorize, is_prime, set_bits
from grouplab.submodular import (is_k_LM_group, is_k_submodular,
                                 is_modular_subgroup, is_n_maximal_with_index,
                                 is_n_modularly_embedded,
                                 ksub_set, lattice_dot, schmidt_maximal_modular,
                                 step_kind, submodular_set,
                                 thm31_characterization, thm32_characterization)
from checks import check_interval_forms, check_ksub_per_k
from definitions import (classes_by_definition, ksub_by_definition,
                         quotient_nilpotent_by_lcs, reach_by_pairs,
                         step_by_definition, step_table,
                         submodular_by_transposition)
from test_fuzz import two_permutations


def _by_order(L, order, **kw):
    return next(s for s in L.subgroups if s.order == order)


def test_modular_in_abelian_group():
    L = named_group("cyclic", [12]).lattice()
    assert all(is_modular_subgroup(L, s.id) for s in L.subgroups)


def test_normal_implies_modular(s4):
    L = s4.lattice()
    v4 = next(s for s in L.subgroups if s.order == 4
              and L.normalizer(s.id) == L.top.id)
    assert is_modular_subgroup(L, v4.id)


def test_point_stabilizer_not_modular_in_s4(s4):
    L = s4.lattice()
    assert not is_modular_subgroup(L, _by_order(L, 6).id)


def test_schmidt_oracle_agrees_on_maximals(s4, hol5):
    for G in (s4, hol5, named_group("dihedral", [6])):
        L = G.lattice()
        for m in L.hasse_down[L.top.id]:
            assert (schmidt_maximal_modular(L, m)
                    == is_modular_subgroup(L, m))


# S3 wr Z2 = E3^2 x| D8: the automizer of its chief factor E3^2 is D8, a
# 2-group of order 2^3 that is not cyclic; no corpus group has such a factor
S3_WR_Z2 = {"kind": "generators", "degree": 6,
            "cycles": ["(1 2 3)", "(1 2)", "(1 4)(2 5)(3 6)"]}


def test_quotient_and_lattice_forms_agree(corpus):
    """`check_interval_forms` (Schmidt's test and the automizer test, each
    against its other form) over the corpus and S3 wr Z2."""
    verdicts = Counter()
    for G in [e.group for e in corpus] + [group_from_spec(S3_WR_Z2)]:
        verdicts += check_interval_forms(G.lattice())
    # both verdicts occur off the branches that the order alone decides
    assert all(verdicts[test, v, False] for test in ("schmidt", "automizer")
               for v in (True, False)), verdicts


def test_submodular_basics(s4):
    L = s4.lattice()
    assert L.top.id in submodular_set(L)
    # subnormal subgroups are submodular: V4 < D8 < S4
    v4_normal = next(s for s in L.subgroups if s.order == 4
                     and L.normalizer(s.id) == L.top.id)
    assert v4_normal.id in submodular_set(L)
    assert _by_order(L, 6).id not in submodular_set(L)


def test_submodular_set_matches_every_modular_step(corpus):
    """The search by normal and maximal modular steps finds the ids that
    the search by every modular step finds."""
    for entry in corpus:
        L = entry.lattice
        assert submodular_set(L) == submodular_by_transposition(L), entry.name


def test_k1_chains_collapse_to_submodular(s4, hol5, hol7):
    for G in (s4, hol5, hol7, named_group("dicyclic", [3])):
        L = G.lattice()
        assert ksub_set(L, 1) == submodular_set(L)


def test_n_modular_embedding_hol5(hol5):
    L = hol5.lattice()
    y = next(s for s in L.subgroups if s.order == 4
             and L.subgroups[L.core(s.id)].order == 1)
    assert is_n_modularly_embedded(L, y.id, L.top.id, 2)
    assert not is_n_modularly_embedded(L, y.id, L.top.id, 1)
    with pytest.raises(Exception):
        is_n_modularly_embedded(L, y.id, L.top.id, 0)


def test_normal_is_n_modularly_embedded_for_all_n(hol5):
    L = hol5.lattice()
    five = _by_order(L, 5)
    for n in (1, 2, 3):
        assert is_n_modularly_embedded(L, five.id, L.top.id, n)


def test_step_kind_unique_n(hol5):
    L = hol5.lattice()
    y = next(s for s in L.subgroups if s.order == 4
             and L.subgroups[L.core(s.id)].order == 1)
    assert step_kind(L, y.id, L.top.id) == 2
    assert step_kind(L, _by_order(L, 5).id, L.top.id) == 0


def test_k_submodular_witness_chain(hol5):
    L = hol5.lattice()
    y = next(s for s in L.subgroups if s.order == 4
             and L.subgroups[L.core(s.id)].order == 1)
    h = next(s for s in L.subgroups if s.order == 2 and L.leq(s.id, y.id))
    ok, chain = is_k_submodular(L, h.id, 2)
    assert ok and chain[0] == h.id and chain[-1] == L.top.id
    assert [L.subgroups[i].order for i in chain] == [2, 4, 20]
    # every step re-verifiable
    assert [step_kind(L, a, b) for a, b in zip(chain, chain[1:])] == [0, 2]


def test_witness_chain_pinned(s4):
    L = s4.lattice()
    h = next(s for s in L.subgroups if s.gen_cycles() == ["(1 2)"])
    ok, chain = is_k_submodular(L, h.id, 2)
    assert ok
    assert [L.subgroups[i].gen_cycles() for i in chain] == [
        ["(1 2)"], ["(1 2)", "(3 4)"], ["(1 2)", "(1 3)(2 4)"],
        ["(1 2)", "(1 3 4)"]]
    assert [step_kind(L, a, b) for a, b in zip(chain, chain[1:])] == [0, 0, 1]


def test_witnesses_share_one_search(monkeypatch):
    """Every witness of each k on a fresh lattice, members and non-members
    alike, reads one memoised walk down from the top per k."""
    L = named_group("sym", [4]).lattice()
    seeds = []
    real = type(L).walk_down
    monkeypatch.setattr(type(L), "walk_down", lambda self, *args: (
        seeds.append(args[0]) or real(self, *args)))
    answers = {k: [is_k_submodular(L, h, k)[0] for h in range(len(L))]
               for k in (1, 2)}
    assert seeds == [1 << L.top.id] * 2
    for k, ok in answers.items():
        assert [h for h in range(len(L)) if ok[h]] == sorted(ksub_set(L, k))


def test_hol7_y_not_1_submodular(hol7):
    L = hol7.lattice()
    y = _by_order(L, 6)
    assert is_k_submodular(L, y.id, 1) == (False, None)


def test_subnormal_implies_k_submodular(s4):
    L = s4.lattice()
    reach = ksub_set(L, 1)
    # all subgroups of A4's normal series
    for s in L.subgroups:
        if L.normalizer(s.id) == L.top.id:
            assert s.id in reach


def test_n_maximal_with_index(hol5):
    L = hol5.lattice()
    b = next(s for s in L.subgroups if s.order == 4
             and L.subgroups[L.core(s.id)].order == 1)
    assert is_n_maximal_with_index(L, L.bottom.id, b.id) == (2, 2)
    assert is_n_maximal_with_index(L, b.id, b.id) == (0, None)
    s3L = named_group("sym", [3]).lattice()
    z2 = next(s for s in s3L.subgroups if s.order == 2)
    assert is_n_maximal_with_index(s3L, z2.id, s3L.top.id) == (1, 3)


def test_k_lm_group(hol5):
    L = hol5.lattice()
    ok2, cex2 = is_k_LM_group(L, 2)
    ok1, cex1 = is_k_LM_group(L, 1)
    assert ok2 and cex2 is None
    assert not ok1 and cex1 is not None
    a, b = cex1
    # counterexample is re-verifiable
    d = L.meet(a, b)
    res = is_n_maximal_with_index(L, d, b)
    assert res is None or not 1 <= res[0] <= 1


def _k_lm_by_definition(L, k):
    """The definition, scanned afresh at each k: the first pair (a, b) with
    a maximal in the join whose meet is not n-maximal in b for 1 <= n <= k."""
    for a, b in L.maximal_in_join():
        d = L.meet(a, b)
        res = is_n_maximal_with_index(L, d, b)
        if res is None or not 1 <= res[0] <= k:
            return False, (a, b)
    return True, None


def test_k_lm_group_matches_per_k_scan_on_corpus(corpus, monkeypatch):
    """One scan per lattice serves every k, in any order of k, with the
    per-k loop's answer."""
    ks = (2, 1, 4, 3)
    for e in corpus:
        # a fresh lattice: other tests may have filled the memo of the
        # session's one
        L = all_subgroups(e.group)
        expect = [_k_lm_by_definition(L, k) for k in ks]
        scans = []
        scan = L.maximal_in_join

        def counted():
            scans.append(1)
            return scan()

        monkeypatch.setattr(L, "maximal_in_join", counted)
        assert [is_k_LM_group(L, k) for k in ks] == expect, e.name
        assert len(scans) == 1, e.name
        monkeypatch.undo()


def test_abelian_groups_are_1_lm():
    for spec in (("cyclic", [12]), ("elem_abelian", [2, 3]), ("elem_abelian", [3, 2])):
        L = named_group(*spec).lattice()
        assert is_k_LM_group(L, 1)[0]


def test_class_membership(hol5, hol7, s4):
    L5, L7, LS4 = hol5.lattice(), hol7.lattice(), s4.lattice()
    assert submodular.in_class(L5, "Y", 2)
    assert not submodular.in_class(L5, "Y", 1)
    for k in (1, 2, 3):
        assert not submodular.in_class(L7, "X", k)
        assert not submodular.in_class(LS4, "X", k)
    q8 = named_group("dicyclic", [2]).lattice()
    for c in submodular.CLASS_IDS:
        assert submodular.in_class(q8, c, 1)
    assert submodular.class_threshold(L5, "Y") == 2
    assert submodular.class_threshold(L7, "X") == math.inf
    assert submodular.class_threshold(q8, "K") == 1
    # the class is checked before k
    with pytest.raises(GroupError, match="unknown class 'Z'"):
        submodular.in_class(L5, "Z", 0)
    with pytest.raises(GroupError, match="needs k >= 1"):
        submodular.in_class(L5, "X", 0)


@pytest.mark.parametrize("name,args", [("sym", [4]), ("holomorph_cyclic", [5])])
def test_member_class_asked_in_parent_lattice(name, args):
    L = named_group(name, args).lattice()
    G = L.group
    for a in range(len(L.subgroups)):
        # reference: the member generated afresh, its lattice enumerated
        La = generate(G.degree,
                      [G.elements[g] for g in L.subgroups[a].gens]).lattice()
        for c in submodular.CLASS_IDS:
            for k in (1, 2, 3):
                assert (submodular.in_class(L, c, k, top=a)
                        == submodular.in_class(La, c, k)), (a, c, k)


def test_class_membership_a5():
    L = named_group("alt", [5]).lattice()
    for k in (1, 2, 3):
        for c in submodular.CLASS_IDS:
            assert not submodular.in_class(L, c, k)


def test_characterization_predicates_hol5(hol5):
    L = hol5.lattice()
    for k, expect in ((1, False), (2, True)):
        assert all(thm31_characterization(L, v, k) is expect for v in (1, 2, 3))
        assert all(thm32_characterization(L, v, k) is expect
                   for v in (1, 2, 3, 4))


def test_characterization_predicates_trivial_cases():
    Lz = named_group("cyclic", [9]).lattice()
    assert all(thm32_characterization(Lz, v, 1) for v in (1, 2, 3, 4))
    Le = named_group("elem_abelian", [3, 2]).lattice()
    assert all(thm31_characterization(Le, v, 1) for v in (1, 2, 3))


def test_monotone_in_k(hol5, s4):
    for G in (hol5, s4):
        L = G.lattice()
        assert ksub_set(L, 1) <= ksub_set(L, 2) <= ksub_set(L, 3)


@pytest.mark.parametrize("name,args", [("sym", [4]),
                                       ("holomorph_cyclic", [19])])
def test_ksub_set_searches_once_per_top(name, args, monkeypatch):
    """Every k of every top, and every class at every k, reads one record
    per top, made by one walk per level of the record; re-reads walk no
    more."""
    L = all_subgroups(named_group(name, args))
    walks = []
    real = type(L).walk_down
    monkeypatch.setattr(type(L), "walk_down", lambda self, *args: (
        walks.append(args) or real(self, *args)))
    for top in range(len(L)):
        before = len(walks)
        ksub_set(L, 1, top=top)
        assert len(walks) - before == len(L.ksub_reach[top]), top
    made = len(walks)
    for top in range(len(L)):
        for k in (1, 2, 3, 4):
            ksub_set(L, k, top=top)
    for cls in submodular.CLASS_IDS:
        for k in (1, 2, 3, 4):
            submodular.in_class(L, cls, k)
    assert len(walks) == made
    assert len(L.ksub_reach) == len(L)


def test_ksub_set_matches_per_k_search_on_corpus(corpus):
    """`ksub_set` at k = 1..e+1, e the largest prime exponent of |top|,
    against one pair search per k (`reach_by_pairs`): every member top of
    the corpus groups with at most 150 subgroups, the whole group of the
    others.  No step in top has a kind above e (`step_kind`), so the sets
    at max(1, e) and e + 1 agree."""
    pairs = 0
    for entry in corpus:
        L = entry.lattice
        tops = range(len(L)) if len(L) <= 150 else [L.top.id]
        for top in tops:
            e = max(factorize(L.subgroups[top].order).values(), default=0)
            check_ksub_per_k(L, top, range(1, e + 2))
            pairs += e + 1
            assert ksub_set(L, max(1, e), top=top) == ksub_set(
                L, e + 1, top=top), (entry.name, top)
    assert pairs == 3039


@pytest.mark.parametrize("p,q,n,sizes,classes_from", [
    (17, 2, 3, [22, 39, 56], 3),  # Frob(17,2^3), order 136
    (19, 3, 2, [23, 42, 42], 2),  # Frob(19,3^2), order 171
])
def test_ksub_set_separates_k_outside_corpus(p, q, n, sizes, classes_from):
    """Two Frobenius groups p:q^n outside the corpus against the
    definitional step table: Frob(17,2^3) has steps of kind 3 and lies in
    the four classes only from k = 3, which no corpus group needs.  Both
    are supersoluble: 1 < Z_p < G has cyclic factors.  The walk of every
    top is checked against one pair search per k, k = 1..4."""
    L = named_group("frobenius_metacyclic", [p, q, n]).lattice()
    for top in range(len(L)):
        check_ksub_per_k(L, top, (1, 2, 3, 4))
    table = step_table(L)
    for k, size in zip((1, 2, 3), sizes):
        reach = ksub_set(L, k)
        assert reach == ksub_by_definition(L, table, k) and len(reach) == size
        theirs = classes_by_definition(L, table, k, True)
        ours = {c: submodular.in_class(L, c, k) for c in submodular.CLASS_IDS}
        assert ours == theirs == dict.fromkeys(ours, k >= classes_from), k


@pytest.mark.parametrize("group", [
    lambda: direct_product(named_group("sym", [4]), named_group("sym", [3])),
    lambda: named_group("holomorph_cyclic", [19])], ids=["S4xS3", "Hol(Z19)"])
def test_ksub_walk_asks_only_about_maximal_non_normal_steps(group,
                                                            monkeypatch):
    """Every top's walk takes the normal steps as one bitset and asks
    `step_kind` only about unreached maximal subgroups of prime index that
    are not normal."""
    L = group().lattice()
    asked = []

    def spy(L, a, b):
        asked.append((a, b))
        return step_kind(L, a, b)

    monkeypatch.setattr(submodular, "step_kind", spy)
    for top in range(len(L)):
        ksub_set(L, 1, top=top)
    assert asked
    for a, b in asked:
        assert a in L.hasse_down[b] and not L.is_normal_in(a, b), (a, b)
        assert is_prime(L.subgroups[b].order // L.subgroups[a].order), (a, b)


def test_conjugation_invariance_of_ksub(s4, hol5):
    for G in (s4, hol5):
        L = G.lattice()
        reach = ksub_set(L, 2)
        for a in reach:
            assert set(L.conjugates(a)) <= reach


def test_degenerate_group():
    L = named_group("cyclic", [1]).lattice()
    assert submodular.in_class(L, "Y", 1)
    assert is_k_LM_group(L, 1)[0]
    assert 0 in submodular_set(L)


def test_lattice_dot_output(hol5):
    dot = lattice_dot(hol5.lattice(), k=2)
    assert dot.startswith("digraph")
    assert "n-modular n=2" in dot
    assert "normal" in dot
    assert dot.count("->") > 10


@pytest.mark.parametrize("name,args,k,prefix", [
    ("sym", [4], None, "8e890a9726634140"),
    ("sym", [4], 1, "bb13c4d029dc21cf"),
    ("holomorph_cyclic", [5], 2, "45237bdd87012a02"),
])
def test_lattice_dot_pinned(name, args, k, prefix):
    dot = lattice_dot(named_group(name, args).lattice(), k=k)
    assert hashlib.sha256(dot.encode()).hexdigest()[:16] == prefix


def test_step_kind_matches_definition_on_corpus(corpus):
    """`step_kind` against the definition on the element sets, on every
    strict comparable pair of the corpus lattices: the normal, the
    n-modular and the illegal steps alike."""
    kinds = Counter()
    for entry in corpus:
        L = entry.lattice
        table = step_table(L)
        assert [(pair, kind) for pair, kind in table.items()
                if step_kind(L, *pair) != kind] == [], entry.name
        kinds.update(table.values())
    assert kinds == {0: 3578, None: 1737, 1: 823, 2: 103}


def test_nilpotency_clause_never_refuses_on_corpus(corpus):
    """`step_kind`'s docstring argues that its nilpotency test never
    refuses: for every step a < b of prime index with a not normal in b,
    b / Core_b(a) is not nilpotent, here by its lower central series on the
    element sets of every corpus lattice."""
    steps = 0
    for entry in corpus:
        G, L = entry.group, entry.lattice
        mult, inv = G.mult, G.inv
        for b in range(len(L)):
            upper = set(set_bits(L.subgroups[b].mask))
            for a in L.hasse_down[b]:
                if not is_prime(L.subgroups[b].order // L.subgroups[a].order):
                    continue
                lower = set(set_bits(L.subgroups[a].mask))
                core = set.intersection(*(
                    {mult[mult[inv[g]][h]][g] for h in lower} for g in upper))
                if core != lower:
                    assert not quotient_nilpotent_by_lcs(G, upper, core), (
                        entry.name, a, b)
                    steps += 1
    assert steps == 948


def _check_witnesses(G):
    """Witnesses of G's lattice at k = 1..3 are the shortest, then
    lexicographically least, chains whose steps hold by the definition;
    returns their number."""
    L = G.lattice()
    table = step_table(L)
    checked = 0
    for k in (1, 2, 3):
        def legal(a, b):
            kind = table.get((a, b))
            return kind is not None and kind <= k

        dist = reach_by_pairs(L, L.top.id, legal)
        # independent oracle: ids are sorted by order, so every proper
        # overgroup of a has a larger id and a descending scan sees it first
        shortest = {L.top.id: 0}
        for a in reversed(range(L.top.id)):
            ups = [d + 1 for b, d in shortest.items() if legal(a, b)]
            if ups:
                shortest[a] = min(ups)
        assert dist == shortest
        assert frozenset(dist) == ksub_set(L, k)
        for h in ksub_set(L, k):
            ok, chain = is_k_submodular(L, h, k)
            assert ok and chain[0] == h and chain[-1] == L.top.id
            assert len(chain) - 1 == dist[h]
            for a, b in zip(chain, chain[1:]):
                assert b == min(c for c, d in shortest.items()
                                if d == shortest[a] - 1 and legal(a, c))
            checked += 1
    return checked


@pytest.mark.parametrize("name,args", [("holomorph_cyclic", [5]), ("sym", [4])])
def test_witnesses_are_shortest_and_reverify(name, args):
    assert _check_witnesses(named_group(name, args)) > 0


def test_witnesses_reverify_on_corpus(corpus):
    checked = sum(_check_witnesses(e.group) for e in corpus if e.order <= 60)
    assert checked == 3094


def test_witness_steps_hold_by_definition_above_order_60(corpus):
    """Every step of every witness at k = 1..3 of the corpus groups of order
    above 60, checked on element sets without the step classifier."""
    steps = 0
    for entry in corpus:
        if entry.order <= 60:
            continue
        G = entry.group
        L = G.lattice()
        for k in (1, 2, 3):
            for h in ksub_set(L, k):
                _, chain = is_k_submodular(L, h, k)
                for a, b in zip(chain, chain[1:]):
                    kind = step_by_definition(
                        G, set(set_bits(L.subgroups[a].mask)),
                        set(set_bits(L.subgroups[b].mask)))
                    assert kind is not None and kind <= k, (entry.name, k, a, b)
                    steps += 1
    assert steps == 754


def test_ksub_set_matches_definition_above_order_60(corpus):
    """`ksub_set` at k = 1..3 of the corpus groups of order above 60, the
    ones `_check_witnesses` leaves out, rebuilt from the definitional step
    table."""
    members = 0
    for entry in corpus:
        if entry.order <= 60:
            continue
        L = entry.lattice
        table = step_table(L)
        for k in (1, 2, 3):
            reach = ksub_set(L, k)
            assert reach == ksub_by_definition(L, table, k), (entry.name, k)
            members += len(reach)
    assert members == 355


# -- modularity against Schmidt's two conditions ------------------------------


def _modular_oracle(L, m, b):
    """Schmidt's two conditions for m <= b over all pairs of [1, b]."""
    subs = set_bits(L.down[b])
    # condition (1): <X, m ^ Z> = <X, m> ^ Z for X <= Z
    for z in subs:
        for x in set_bits(L.down[z]):
            if L.join(x, L.meet(m, z)) != L.meet(L.join(x, m), z):
                return False
    # condition (2): <m, Y ^ Z> = <m, Y> ^ Z for m <= Z
    for z in L.interval(m, b):
        for y in subs:
            if L.join(m, L.meet(y, z)) != L.meet(L.join(m, y), z):
                return False
    return True


def _oracle_verdicts(L):
    """The oracle's verdict on each pair (m, b) the submodular-set search
    asks about, with the search run on the oracle; the search must find the
    engine's submodular set."""
    verdicts = {}

    def pred(m, b):
        verdicts[m, b] = _modular_oracle(L, m, b)
        return verdicts[m, b]
    assert frozenset(reach_by_pairs(L, L.top.id, pred)) == submodular_set(L)
    return verdicts


def _modularity_mismatches(L, verdicts):
    return [(m, b) for (m, b), v in verdicts.items()
            if submodular._modular_in(L, m, b) != v]


def test_modularity_matches_oracle_on_corpus(corpus):
    """Every (m, b) of the lattices with at most 120 subgroups, and the pairs
    the submodular-set search asks about on the larger ones."""
    checked = 0
    for entry in corpus:
        L = entry.lattice
        verdicts = _oracle_verdicts(L)
        if len(L) <= 120:
            verdicts.update(((m, b), _modular_oracle(L, m, b))
                            for b in range(len(L))
                            for m in set_bits(L.down[b])
                            if (m, b) not in verdicts)
        assert _modularity_mismatches(L, verdicts) == [], entry.name
        checked += len(verdicts)
    assert checked == 5725


def test_modularity_matches_oracle_on_s4_z2_z2():
    z2 = named_group("cyclic", [2])
    L = direct_product(direct_product(named_group("sym", [4]), z2), z2).lattice()
    verdicts = _oracle_verdicts(L)
    assert len(L) == 420 and len(submodular_set(L)) == 356
    assert _modularity_mismatches(L, verdicts) == []


@settings(max_examples=40, deadline=None)
@given(two_permutations)
def test_modularity_matches_oracle_on_random_groups(perms):
    """The pairs the submodular-set search asks about in the group two
    random permutations of degree <= 6 generate (order <= 120)."""
    degree, p, q = perms
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GROUPLAB_ORDER_CAP", "120")
        try:
            G = generate(degree, [Permutation(p), Permutation(q)])
        except OrderCapExceeded:
            assume(False)
        L = G.lattice()
    assert _modularity_mismatches(L, _oracle_verdicts(L)) == []


class _SetLattice:
    """The lattice of an intersection-closed family of sets, ids sorted by
    size, with the reads of `SubgroupLattice` that `_modular_in` and the
    oracle make."""

    meet, join, interval, memo = (
        SubgroupLattice.meet, SubgroupLattice.join, SubgroupLattice.interval,
        SubgroupLattice.memo)

    def __init__(self, family):
        sets = sorted(family, key=lambda s: (len(s), sorted(s)))
        self.up = [sum(1 << j for j, t in enumerate(sets) if s <= t)
                   for s in sets]
        self.down = [sum(1 << j for j, t in enumerate(sets) if t <= s)
                     for s in sets]
        self._memos = {}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 4)), max_size=8))
def test_modularity_matches_oracle_on_abstract_lattices(family):
    """The interval-size rule is a fact about finite lattices, not only
    subgroup lattices: every (m, b) of the lattice of the sets, their
    intersections and the full set."""
    family = set(family) | {frozenset(range(5))}
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    L = _SetLattice(family)
    assert [(m, b) for b in range(len(family)) for m in set_bits(L.down[b])
            if submodular._modular_in(L, m, b) != _modular_oracle(L, m, b)
            ] == []


# -- class membership against every conjugate Sylow subgroup ------------------


def _all_sylows_in_reach(L, top, k):
    """Every conjugate in G of one Sylow p-subgroup of top per prime that
    lies in top (so every Sylow subgroup of top) is k-submodular in top."""
    reach = ksub_set(L, k, top=top)
    return all(c in reach
               for p in factorize(L.subgroups[top].order)
               for c in L.conjugates(structure.sylow_in(L, top, p))
               if L.leq(c, top))


def test_one_sylow_per_prime_matches_every_conjugate(corpus):
    checked = 0
    for entry in corpus:
        L = entry.lattice
        for top in range(len(L)):
            for k in (1, 2, 3):
                sylows = _all_sylows_in_reach(L, top, k)
                assert submodular.in_class(L, "F", k, top=top) == sylows
                assert submodular.in_class(L, "K", k, top=top) == (
                    sylows and structure.is_supersoluble_in(L, top))
                checked += 1
    assert checked == 4233
