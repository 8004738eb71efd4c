"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single pass/fail line,
and enforces the stated runtime bound where one applies.
"""
import time
from contextlib import contextmanager

from grouplab import classes, harness, structure
from grouplab.classes import residual
from grouplab.submodular import (is_k_LM_group, is_k_submodular,
                                 is_n_maximal_with_index,
                                 is_n_modularly_embedded, step_kind)
from definitions import is_epimorphism_by_definition, naive_subgroup_masks


@contextmanager
def _verdict(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def _noncore_order4(L):
    return next(s for s in L.subgroups if s.order == 4
                and L.subgroups[L.core(s.id)].order == 1)


def test_criterion_01_embedding_values_in_holomorph_z5(hol5):
    with _verdict("criterion 1: order-20 holomorph embedding facts"):
        t0 = time.perf_counter()
        L = hol5.lattice()
        b = _noncore_order4(L)
        assert L.subgroups[L.core(b.id)].order == 1
        assert is_n_modularly_embedded(L, b.id, L.top.id, 2)
        assert not is_n_modularly_embedded(L, b.id, L.top.id, 1)
        b2 = next(s for s in L.subgroups
                  if s.order == 2 and L.leq(s.id, b.id))
        ok, chain = is_k_submodular(L, b2.id, 2)
        assert ok and len(chain) == 3
        for a, b in zip(chain, chain[1:]):
            assert step_kind(L, a, b) is not None
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_lm_group_values_in_holomorph_z5(hol5):
    with _verdict("criterion 2: order-20 holomorph is 2-LM but not 1-LM"):
        t0 = time.perf_counter()
        L = hol5.lattice()
        assert is_k_LM_group(L, 2) == (True, None)
        ok1, cex = is_k_LM_group(L, 1)
        assert not ok1 and cex is not None
        a = _noncore_order4(L)
        pair = None
        for b_id in L.conjugates(a.id):
            if b_id != a.id and L.subgroups[L.meet(a.id, b_id)].order == 1:
                pair = b_id
                break
        assert pair is not None
        meet = L.meet(a.id, pair)
        assert is_n_maximal_with_index(L, meet, pair) == (2, 2)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_03_subnormal_not_submodular_in_holomorph_z7(hol7):
    with _verdict("criterion 3: order-42 holomorph subnormal/submodular gap"):
        t0 = time.perf_counter()
        L = hol7.lattice()
        y = next(s for s in L.subgroups if s.order == 6)
        U1 = classes.U_k(1)
        assert residual(hol7, U1).order == 1
        assert y.id in classes.f_subnormal_set(L, U1)
        assert is_k_submodular(L, y.id, 1) == (False, None)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_04_maximal_chain_characterizations_agree(corpus):
    with _verdict("criterion 4: three-way characterization agreement"):
        t0 = time.perf_counter()
        rep = harness.run_suite("T3.1", [1, 2, 3], corpus)
        assert rep.passed and rep.summary()["failed"] == 0
        assert time.perf_counter() - t0 < 600.0


def test_criterion_05_four_way_characterizations_agree(corpus):
    with _verdict("criterion 5: four-way characterization agreement"):
        rep = harness.run_suite("T3.2", [1, 2, 3], corpus)
        assert rep.passed and rep.summary()["failed"] == 0


def test_criterion_06_closure_and_frattini_suite(corpus):
    with _verdict("criterion 6: closure laws and Frattini-quotient bridge"):
        rep = harness.run_suite("T3.3", [1, 2, 3], corpus)
        assert rep.passed and rep.summary()["failed"] == 0
        for key in ("nonvacuous_quotient_closure_X",
                    "nonvacuous_primitive_closure_X",
                    "nonvacuous_Y_closures", "nonvacuous_subdirect_Y"):
            assert rep.counters[key] > 0
        # k=1 corollary exercised on every entry
        assert all("c3_modular_frattini" in r["checks"]
                   for r in rep.entries if r["k"] == 1)


def test_criterion_07_local_formation_suites(corpus):
    with _verdict("criterion 7: local-formation membership agreement"):
        for suite in ("T3.5", "T3.6"):
            rep = harness.run_suite(suite, [1, 2, 3], corpus)
            assert rep.passed and rep.summary()["failed"] == 0, suite
            for cls in (("K",) if suite == "T3.5" else ("F",)):
                assert rep.counters[f"nonvacuous_{cls}_closures"] > 0
                assert rep.counters[f"nonvacuous_{cls}_saturation"] > 0


def test_criterion_08_class_product_identities(corpus):
    with _verdict("criterion 8: class intersection/weakening identities"):
        rep = harness.run_suite("P3.1", [1, 2, 3], corpus)
        assert rep.passed and rep.summary()["failed"] == 0
        assert rep.counters["nonvacuous_K_members"] > 0
        assert rep.counters["nonvacuous_F_members"] > 0


def test_criterion_09_nilpotent_factorizations(corpus):
    with _verdict("criterion 9: nilpotent factorization consequences"):
        rep = harness.run_suite("T3.6_1", [1, 2, 3], corpus)
        assert rep.passed and rep.summary()["failed"] == 0
        assert rep.counters["nonvacuous_nontrivial_factorizations"] > 0


def test_criterion_10_collapse_and_inclusion_chain(corpus):
    with _verdict("criterion 10: k=1 collapse and class inclusion chain"):
        r1 = harness.run_suite("R1", [1], corpus)
        assert r1.passed and r1.summary()["failed"] == 0
        assert r1.counters["nonvacuous_maximal_checks"] > 0
        r3 = harness.run_suite("R3", [1, 2, 3], corpus)
        assert r3.passed and r3.summary()["failed"] == 0
        # no corpus group is in F but not K at any k; tests/test_census.py's
        # 7^2:S3 is
        assert r3.counters.get("strictness_F_not_K", 0) == 0
        hit = harness.class_diff_witness(corpus, "X", 2, "X", 1)
        assert hit is not None
        print(f"  strictness witness: {hit.name} in X(2) but not X(1)")
        assert harness.class_diff_witness(corpus, "F", 1, "K", 1) is None
        print("  no corpus entry separates F(1) from K(1)")


def test_criterion_11_lemma_properties(corpus):
    with _verdict("criterion 11: lemma properties non-vacuously verified"):
        rep = harness.run_suite("L", [1, 2, 3], corpus)
        assert rep.passed and rep.summary()["failed"] == 0
        for key, count in rep.counters.items():
            if key.startswith("nonvacuous"):
                assert count > 0, key
        assert rep.counters["L2.7_converse_gap_groups"] > 0
        hit = harness.subnormal_gap_witness(corpus, 1)
        assert hit is not None and hit[0].name == "Hol(Z7)"


def test_criterion_12_engine_oracles(corpus, s4):
    with _verdict("criterion 12: engine self-checks against naive oracles"):
        L = s4.lattice()
        assert len(L) == 30
        assert {s.mask for s in L.subgroups} == naive_subgroup_masks(s4)
        for entry in corpus:
            if entry.order <= 60:
                assert ({s.mask for s in entry.lattice.subgroups}
                        == naive_subgroup_masks(entry.group)), entry.name
        # quotients built during a suite run re-verify as epimorphisms,
        # by the engine's check on generators and by the definition
        harness.run_suite("T3.3", [1], corpus)
        verified = 0
        for entry in corpus:
            for Q, epi in entry.group._quotients.values():
                epi.verify()
                assert is_epimorphism_by_definition(epi), Q.name
                verified += 1
        assert verified > 0
        for entry in corpus:
            G = entry.group
            for p in G.prime_divisors():
                n_p = structure.sylow_count(G, p)
                assert n_p % p == 1
                assert (G.order // structure.sylow(G, p).order) % n_p == 0
