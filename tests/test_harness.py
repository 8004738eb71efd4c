import json
import math
from collections import Counter

import pytest

from grouplab import GroupError, named_group
from grouplab import harness, structure, submodular
from grouplab.permgroup import set_bits
from definitions import lemma_25_per_pair, lemma_26_per_pair


def test_corpus_size_and_members(corpus):
    assert len(corpus) >= 60
    names = {e.name for e in corpus}
    assert {"Hol(Z5)", "Hol(Z7)", "Hol(Z9)", "A5", "S4", "S5", "Z24",
            "D20", "Dic8", "Frob(5,2^2)"} <= names
    hol5 = next(e for e in corpus if e.name == "Hol(Z5)")
    assert hol5.order == 20


def test_corpus_orders_capped(corpus):
    assert all(e.order <= 200 for e in corpus)


def test_corpus_names_unique_and_sorted(corpus):
    names = [e.name for e in corpus]
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def _fingerprint(G, members, subgroups):
    """Isomorphism invariants of the subgroup of G with these members and
    this many subgroups: order, commutativity, exponent, subgroup count and
    number of conjugacy classes of elements."""
    mult, inv = G.mult, G.inv
    abelian = all(mult[a][b] == mult[b][a] for a in members for b in members)
    seen = set()
    classes = 0
    for x in members:
        if x not in seen:
            classes += 1
            seen.update(mult[mult[inv[g]][x]][g] for g in members)
    return (len(members), abelian,
            math.lcm(*(G.element_orders[x] for x in members)), subgroups,
            classes)


def _entry_fingerprint(entry):
    G = entry.group
    return _fingerprint(G, range(G.order), len(G.lattice()))


def test_corpus_fingerprint_collisions_are_isomorphic_pairs(corpus):
    # a few stock families overlap (D3 = S3 etc.); anything else must be unique
    from collections import defaultdict
    groups = defaultdict(list)
    for e in corpus:
        groups[_entry_fingerprint(e)].append(e.name)
    known = {frozenset(s) for s in (("D3", "S3"), ("D6", "S3xZ2"),
                                    ("D7", "Frob(7,2^1)"),
                                    ("Frob(5,2^2)", "Hol(Z5)"))}
    for names in groups.values():
        if len(names) > 1:
            assert frozenset(names) in known


@pytest.mark.parametrize("n", [4, 5])
def test_subgroups_of_sym_are_corpus_types(corpus, n):
    """Every nontrivial subgroup of S4 and S5, its invariants read inside
    the host, matches a corpus entry, which then has the subgroup's order.
    That is at most 120, so at every cap the corpus needs no entry of its
    own for a subgroup of S4 or S5."""
    known = {_entry_fingerprint(e) for e in corpus}
    host = named_group("sym", [n])
    L = host.lattice()
    missing = [s.id for s in L.subgroups if s.order > 1
               and _fingerprint(host, set_bits(s.mask),
                                L.down[s.id].bit_count()) not in known]
    assert not missing


def test_corpus_is_the_stock_list_at_every_cap(corpus):
    """76 entries at the default cap; a smaller cap keeps the entries whose
    built group is within it, so each spec's order read without building
    it agrees with the built order."""
    assert len(corpus) == 76
    for cap in (2, 12, 24, 60, 120):
        small = harness.build_corpus(harness.CorpusConfig(cap=cap))
        assert ([(e.name, e.spec) for e in small]
                == [(e.name, e.spec) for e in corpus if e.order <= cap]), cap


def test_corpus_config_validation():
    with pytest.raises(GroupError):
        harness.CorpusConfig(cap=1)
    assert harness.CorpusConfig().cap == harness.DEFAULT_CORPUS_CAP
    small = harness.build_corpus(harness.CorpusConfig(cap=30))
    assert all(e.order <= 30 for e in small)


def test_reports_built_without_counters_do_not_share_them():
    a = harness.VerificationReport("R1", [1], [])
    b = harness.VerificationReport("R1", [1], [])
    a.counters["nonvacuous_x"] = 0
    assert b.counters == {} and b.passed and not a.passed


def test_report_json_pinned(corpus):
    rep = harness.run_suite("R1", [1], _mini(corpus, "S4", "Hol(Z5)", "Z12"))
    summary = {"total": 3, "passed": 3, "failed": 0, "suite_pass": True,
               "counters": {"nonvacuous_maximal_checks": 16}}
    assert rep.summary() == summary
    payload = rep.to_json()
    for rec in payload["entries"]:
        del rec["elapsed"]
    checks = {"maximal_modular_collapse": True,
              "one_submodular_eq_submodular": True}
    assert payload == {
        "schema_version": 1, "suite": "R1", "k": [1], "summary": summary,
        "entries": [{"group": g, "k": 1, "pass": True, "witness": None,
                     "checks": checks} for g in ("Hol(Z5)", "S4", "Z12")]}


def test_entry_tags(corpus):
    a5 = next(e for e in corpus if e.name == "A5")
    assert a5.tags() == ["order:60"]
    z8 = next(e for e in corpus if e.name == "Z8")
    assert set(z8.tags()) == {"order:8", "soluble", "supersoluble", "nilpotent"}


def test_unknown_suite(corpus):
    with pytest.raises(GroupError):
        harness.run_suite("T9.9", [1], corpus)
    with pytest.raises(GroupError):
        harness.run_suite("T3.1", [0], corpus)
    with pytest.raises(GroupError):  # no k would check nothing and pass
        harness.run_suite("L", [], corpus)


def _mini(corpus, *names):
    return [e for e in corpus if e.name in names]


def test_run_suite_t32_hol5(corpus):
    rep = harness.run_suite("T3.2", [2], _mini(corpus, "Hol(Z5)"))
    assert rep.passed
    rec = rep.entries[0]
    assert rec["variants"] == {"1": True, "2": True, "3": True, "4": True}


def test_run_suite_r1_small(corpus):
    rep = harness.run_suite("R1", [1], _mini(corpus, "S4", "Hol(Z5)", "Z12"))
    assert rep.passed


def test_report_json_schema(corpus, tmp_path):
    rep = harness.run_suite("T3.1", [1, 2], _mini(corpus, "S3", "Z6"))
    payload = rep.to_json()
    assert payload["schema_version"] == harness.SCHEMA_VERSION
    assert payload["suite"] == "T3.1"
    assert payload["k"] == [1, 2]
    assert payload["summary"]["total"] == len(payload["entries"])
    out = tmp_path / "report.json"
    harness.report_to_file([rep], str(out))
    loaded = json.loads(out.read_text())
    assert loaded["reports"][0]["suite"] == "T3.1"


@pytest.mark.parametrize("suite", harness.SUITE_IDS)
def test_report_determinism(corpus, suite):
    sub = _mini(corpus, "Hol(Z5)", "S3", "Z4")
    strip = lambda rep: [{k: v for k, v in r.items() if k != "elapsed"}
                         for r in rep.entries]
    # the shared corpus is warm from earlier tests; the rebuilt entries
    # start with fresh groups, lattices and memos
    fresh = [harness.CorpusEntry(e.name, e.spec) for e in sub]
    r1 = harness.run_suite(suite, [1, 2, 3], sub)
    r2 = harness.run_suite(suite, [1, 2, 3], fresh)
    assert strip(r1) == strip(r2)
    assert r1.counters == r2.counters


def test_record_keys_per_suite(corpus):
    base = {"group", "k", "pass", "witness", "elapsed"}
    extra = {"T3.1": {"variants"}, "T3.2": {"variants"},
             "T3.6_1": {"factorizations", "nontrivial"}, "R3": {"membership"}}
    sub = _mini(corpus, "S3", "Z4")
    for suite in harness.SUITE_IDS:
        rep = harness.run_suite(suite, [1, 2], sub)
        assert rep.entries
        for rec in rep.entries:
            assert set(rec) == base | extra.get(suite, {"checks"}), suite


def test_failure_records_carry_witness(corpus):
    # force a failure by disagreeing variants: impossible on real entries, so
    # check the record shape instead on a passing run
    rep = harness.run_suite("T3.1", [1], _mini(corpus, "S4"))
    for rec in rep.entries:
        assert rec["pass"] is True and rec["witness"] is None
        assert set(rec) >= {"group", "k", "variants", "pass", "elapsed"}


def test_witness_searches(corpus):
    hit = harness.subnormal_gap_witness(corpus, 1)
    assert hit is not None
    entry, a = hit
    assert entry.name == "Hol(Z7)"
    assert entry.lattice.subgroups[a].order == 6

    hit = harness.class_diff_witness(corpus, "X", 2, "X", 1)
    assert hit is not None and hit.order in (20, 52)

    assert harness.class_diff_witness(corpus, "F", 1, "K", 1) is None


def test_class_diff_witness_unknown_class(corpus):
    with pytest.raises(GroupError):
        harness.class_diff_witness(corpus, "Q", 1, "X", 1)


def test_lemma_corpus_includes_hol7(corpus):
    names = {e.name for e in harness._lemma_corpus(corpus)}
    assert "Hol(Z7)" in names
    assert "S5" not in names


# L-suite summaries over the order-42 corpus; a change in any lemma's
# verdicts or instance counts shows here
_L_SUMMARY_CAP42 = {
    (1, 2): {
        "L2.7_converse_gap_groups": 2, "nonvacuous_L2.1": 642,
        "nonvacuous_L2.2": 408, "nonvacuous_L2.3": 132,
        "nonvacuous_L2.4_conj": 6156, "nonvacuous_L2.4_trans": 5040,
        "nonvacuous_L2.5": 36846, "nonvacuous_L2.6": 15260,
        "nonvacuous_L2.7": 1790, "nonvacuous_L2.7_converse_falsified": 2,
        "nonvacuous_L2.8": 134, "nonvacuous_L3.1_members": 134,
        "nonvacuous_L3.1_nilpotent": 78, "nonvacuous_L3.1_product": 12,
        "nonvacuous_L3.1_subdirect": 2194, "nonvacuous_monotone": 71,
        "nonvacuous_monotone_strict": 2},
    (2,): {
        "L2.7_converse_gap_groups": 1, "nonvacuous_L2.1": 642,
        "nonvacuous_L2.2": 204, "nonvacuous_L2.3": 67,
        "nonvacuous_L2.4_conj": 3098, "nonvacuous_L2.4_trans": 2530,
        "nonvacuous_L2.5": 18473, "nonvacuous_L2.6": 7630,
        "nonvacuous_L2.7": 900, "nonvacuous_L2.7_converse_falsified": 1,
        "nonvacuous_L2.8": 67, "nonvacuous_L3.1_members": 68,
        "nonvacuous_L3.1_nilpotent": 39, "nonvacuous_L3.1_product": 6,
        "nonvacuous_L3.1_subdirect": 1097},
}


@pytest.fixture(scope="module")
def corpus42():
    return harness.build_corpus(harness.CorpusConfig(cap=42))


@pytest.mark.parametrize("ks", sorted(_L_SUMMARY_CAP42))
def test_lemma_suite_summary_pinned(corpus42, ks):
    summary = harness.run_suite("L", list(ks), corpus42).summary()
    assert (summary["total"], summary["failed"], summary["suite_pass"]) == (
        72, 0, True)
    assert summary["counters"] == _L_SUMMARY_CAP42[ks]


def test_lemmas_25_26_match_per_pair_forms(corpus):
    """L2.5 and L2.6 read each top's k-submodular set, and each quotient's
    image table, once; their verdicts and instance counts equal the forms
    that test every pair, on the 71 lemma-corpus groups (order <= 42)."""
    checked = 0
    for entry in harness._lemma_corpus(corpus):
        for k in (1, 2, 3):
            counters = Counter()
            assert ((harness._lemma_25(entry, k, counters),
                     counters["nonvacuous_L2.5"])
                    == lemma_25_per_pair(entry.lattice, k)), (entry.name, k)
            assert ((harness._lemma_26(entry, k, counters),
                     counters["nonvacuous_L2.6"])
                    == lemma_26_per_pair(entry.group, k)), (entry.name, k)
            checked += 1
    assert checked == 3 * 71


def _drop_member(monkeypatch, L, at, victim):
    """Make `submodular.ksub_set` leave `victim` out of the set of the top
    `at` in L, and answer every other query as before."""
    real = submodular.ksub_set

    def doctored(lat, k, top=None):
        out = real(lat, k, top)
        if lat is L and (L.top.id if top is None else top) == at:
            return out - {victim}
        return out

    monkeypatch.setattr(submodular, "ksub_set", doctored)


def test_lemma_25_fails_without_a_member_of_one_top(corpus, monkeypatch):
    """A member m < u left out of the k-submodular set of one u that is
    k-submodular in S4 fails L2.5: m is k-submodular in S4 too, and the
    meet of m and u is m."""
    entry = next(e for e in corpus if e.name == "S4")
    L, k = entry.lattice, 1
    assert harness._lemma_25(entry, k, Counter())
    below = {u: submodular.ksub_set(L, k, top=u)
             for u in submodular.ksub_set(L, k) if u != L.top.id}
    u = next(u for u in sorted(below) if len(below[u]) > 1)
    _drop_member(monkeypatch, L, u, max(below[u] - {u}))
    assert not harness._lemma_25(entry, k, Counter())


def test_lemma_26_fails_without_a_member_of_a_quotient(corpus, monkeypatch):
    """A non-top member left out of the k-submodular set of one quotient
    G/N of Hol(Z5) fails L2.6: it is the image HN/N of some HN in [N, G]
    that is k-submodular in G."""
    entry = next(e for e in corpus if e.name == "Hol(Z5)")
    k = 1
    assert harness._lemma_26(entry, k, Counter())
    L = entry.lattice
    Lq, _ = harness._quotient(L, harness._proper_normals(L)[0])
    _drop_member(monkeypatch, Lq, Lq.top.id,
                 min(submodular.ksub_set(Lq, k) - {Lq.top.id}))
    assert not harness._lemma_26(entry, k, Counter())


def test_t33_subdirect_law_has_a_nontrivial_instance(corpus):
    """Some pair of nontrivial normal subgroups meets trivially with both
    quotients in Y, and its group is in Y.  A pair (1, N) only restates
    that G = G/1 is in Y, so it is no instance of the law."""
    for e in corpus:
        L = e.lattice
        normals = [n for n in structure.normal_ids_in(L, L.top.id)
                   if n != L.bottom.id]
        for k in (1, 2, 3):
            if harness._count_subdirect_pairs(L, normals, "Y", k):
                assert submodular.in_class(L, "Y", k), (e.name, k)
                return
    pytest.fail("no subdirect pair of nontrivial normal subgroups")


def _image_by_elements(Lq, epi, sub):
    """Quotient-lattice id of the image of sub, built element by element."""
    out = 0
    for x in set_bits(sub.mask):
        out |= 1 << epi.table[x]
    return Lq.by_mask[out]


def test_image_from_generators_matches_elementwise(corpus):
    """Every subgroup under every nontrivial proper quotient of the corpus
    groups of order <= 60."""
    checked = 0
    for entry in corpus:
        if entry.order > 60:
            continue
        L = entry.lattice
        for n in harness._proper_normals(L):
            Lq, epi = harness._quotient(L, n)
            for sub in L.subgroups:
                assert (harness._image_id(Lq, epi, sub)
                        == _image_by_elements(Lq, epi, sub)), entry.name
                checked += 1
    assert checked == 9287


def test_set_product_formula_matches_element_products(corpus):
    """`_is_set_product` (the product formula) against the element set AB,
    for every pair of subgroups of the corpus groups of order <= 60.  When
    |A||B| < |G| the set AB, of at most |A||B| elements, is not G."""
    mismatches = []
    for entry in corpus:
        G, L = entry.group, entry.lattice
        if G.order > 60:
            continue
        mult = G.mult
        for a in range(len(L)):
            sa = L.subgroups[a]
            for b in range(a, len(L)):
                sb = L.subgroups[b]
                seen = 0
                if sa.order * sb.order >= G.order:
                    ys = set_bits(sb.mask)
                    for x in set_bits(sa.mask):
                        row = mult[x]
                        for y in ys:
                            seen |= 1 << row[y]
                if harness._is_set_product(L, a, b) != (seen == G.full_mask()):
                    mismatches.append((entry.name, a, b))
    assert not mismatches, mismatches[:10]


def _factorizations_over_all_pairs(L, k):
    """(factorizations, nontrivial) of T3.6_1 over every pair a <= b of
    nilpotent k-submodular ids, G = AB read from the member masks as
    |A||B| = |G||A & B|."""
    n, subs = L.group.order, L.subgroups
    nilpotent = [a for a in sorted(submodular.ksub_set(L, k))
                 if structure.is_quotient_nilpotent(L, L.bottom.id, a)]
    found = nontrivial = 0
    for i, a in enumerate(nilpotent):
        for b in nilpotent[i:]:
            A, B = subs[a], subs[b]
            if A.order * B.order == n * (A.mask & B.mask).bit_count():
                found += 1
                nontrivial += A.order < n and B.order < n
    return found, nontrivial


def _subdirect_pairs_over_all_pairs(L, normals, cls, k):
    """Pairs n1 < n2 of `normals` whose member masks share only the
    identity and whose quotients both lie in cls."""
    subs = L.subgroups

    def member(n):
        return submodular.in_class(harness._quotient(L, n)[0], cls, k)

    return sum((subs[n1].mask & subs[n2].mask).bit_count() == 1
               and member(n1) and member(n2)
               for i, n1 in enumerate(normals) for n2 in normals[i + 1:])


def test_pruned_pair_scans_match_all_pairs(corpus):
    """T3.6_1's pair scan skips pairs with |A||B| < |G|, and the subdirect
    count skips normal pairs with |N1||N2| > |G|; on every corpus group at
    k = 1, 2, 3 both give the counts of the scans over all pairs, for the
    normals T3.3 (all of them, class Y) and L3.1 (the nontrivial ones,
    class F) pass."""
    totals = Counter()
    for e in corpus:
        L = e.lattice
        normals = structure.normal_ids_in(L, L.top.id)
        for k in (1, 2, 3):
            fields = harness._t361_check(e, k, Counter())[2]
            expected = _factorizations_over_all_pairs(L, k)
            assert (fields["factorizations"], fields["nontrivial"]) == expected, (
                e.name, k)
            totals["factorizations"] += expected[0]
            for ns, cls in ((normals, "Y"), (normals[1:], "F")):
                count = harness._count_subdirect_pairs(L, ns, cls, k)
                assert count == _subdirect_pairs_over_all_pairs(
                    L, ns, cls, k), (e.name, k, cls)
                totals[cls] += count
    assert all(totals[key] for key in ("factorizations", "Y", "F")), totals
