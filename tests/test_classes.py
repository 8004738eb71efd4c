from collections import Counter

import pytest

from grouplab import direct_product, generate, named_group
from grouplab import classes, harness, structure
from grouplab.classes import (f_function, h_function, in_local_formation,
                              in_wF, residual)
from grouplab.permgroup import FiniteGroup, set_bits
from checks import check_chain_walks
from definitions import residual_by_quotients, section_as_group


def test_oracle_basic_classes(s4):
    assert classes.N.member(named_group("dicyclic", [2]))
    assert not classes.N.member(s4)
    assert classes.U.member(named_group("dihedral", [7]))
    assert not classes.U.member(s4)
    assert classes.S.member(s4)
    assert not classes.S.member(named_group("alt", [5]))


def test_oracle_abelian_exponent():
    A41 = classes.A_exp_k(4, 1)
    assert A41.member(named_group("cyclic", [2]))
    assert not A41.member(named_group("cyclic", [4]))  # 2^2 divides exponent
    A42 = classes.A_exp_k(4, 2)
    assert A42.member(named_group("cyclic", [4]))
    assert not A42.member(named_group("sym", [3]))  # not abelian


def test_oracle_sylow_conditions():
    S3 = named_group("sym", [3])
    assert classes.A_k(1).member(S3)  # Sylows Z2, Z3, squarefree exponent
    assert not classes.A_k(1).member(named_group("dicyclic", [2]))
    assert classes.U_k(1).member(S3)
    assert not classes.U_k(1).member(named_group("cyclic", [4]))
    assert classes.U_k(2).member(named_group("cyclic", [4]))
    # the names key the residual and F-subnormality memos
    assert [F.name for F in (classes.U_k(1), classes.A_k(1),
                             classes.A_exp_k(4, 1), classes.cyclic_A(4, 1),
                             classes.sylA_cyclic(4, 1))] == [
        "U_1", "A_1", "A(4)_1", "cycA(4)_1", "sylA(4)_1cyc"]


def test_h_and_f_values():
    # h(5) at k=2 contains Z4; at k=1 it does not
    assert h_function(2)(5).member(named_group("cyclic", [4]))
    assert not h_function(1)(5).member(named_group("cyclic", [4]))
    # f(7) at k=1 contains S3 (cyclic Sylows 2, 3 with orders dividing 6)
    assert f_function(1)(7).member(named_group("sym", [3]))
    assert not h_function(1)(7).member(named_group("sym", [3]))  # not abelian


def test_residual_values(s4, hol7):
    N, U = classes.N, classes.U
    assert residual(named_group("sym", [3]), N).order == 3
    assert residual(s4, N).order == 12
    assert residual(s4, U).order == 4
    assert residual(named_group("alt", [5]), U).order == 60
    assert residual(hol7, classes.U_k(1)).order == 1


def test_residual_is_minimal(s4):
    # no smaller normal subgroup of S4 gives a supersoluble quotient
    from grouplab.permgroup import quotient_cached
    U = classes.U
    r = residual(s4, U)
    L = s4.lattice()
    for n in structure.normal_subgroups(s4):
        if n.order < r.order:
            Q, _ = quotient_cached(s4, n.mask)
            assert not U.member(Q)


@pytest.mark.parametrize("spec", [("sym", [4]), ("holomorph_cyclic", [5]),
                                  ("holomorph_cyclic", [7]),
                                  ("direct", [("sym", [3]), ("sym", [3])])])
def test_residual_in_parent_lattice_matches_member_lattice(spec):
    """`residual_mask(L, b, F)`, read in the parent lattice, against the
    residual of member b generated afresh as a group with its own
    enumerated lattice, mapped back to parent ordinals."""
    if spec[0] == "direct":
        G = direct_product(*(named_group(*part) for part in spec[1]))
    else:
        G = named_group(*spec)
    L = G.lattice()
    oracles = [classes.N, classes.U, classes.U_k(1),
               classes.U_k(2), harness._K_oracle(1)]
    for sb in L.subgroups:
        H = generate(G.degree, [G.elements[g] for g in sb.gens])
        for F in oracles:
            expect = sum(1 << G.element_index[H.elements[i]]
                         for i in set_bits(residual(H, F).mask))
            assert classes.residual_mask(L, sb.id, F) == expect, (sb.id, F.name)


def _interface_oracles():
    """Every built-in oracle over a few m and k, the h and f values and
    the harness's K oracle."""
    out = [classes.N, classes.U, classes.S,
           harness._K_oracle(1), harness._K_oracle(2)]
    for k in (1, 2):
        out += [classes.A_k(k), classes.U_k(k)]
        for m in (4, 6, 12):
            out += [classes.A_exp_k(m, k), classes.cyclic_A(m, k),
                    classes.sylA_cyclic(m, k)]
        out += [make(k)(p) for make in (h_function, f_function)
                for p in (2, 3, 5, 7, 13)]
    return out


def test_member_in_matches_member_of_generated_group(corpus, hol7):
    """`member_in(L, 1, b)`, read in the parent lattice, against `member`
    of member b generated afresh as a group with its own lattice."""
    oracles = _interface_oracles()
    groups = [e.group for e in corpus if e.group.order <= 60] + [hol7]
    mismatches = []
    checked = 0
    for G in groups:
        L = G.lattice()
        for sb in L.subgroups:
            H = generate(G.degree, [G.elements[g] for g in sb.gens])
            for F in oracles:
                checked += 1
                if F.member_in(L, L.bottom.id, sb.id) != F.member(H):
                    mismatches.append((G.name, sb.id, F.name))
    assert checked > 50_000 and not mismatches, mismatches[:10]


def _section_oracles():
    """Each built-in oracle at a few parameters."""
    return [classes.N, classes.U, classes.S, classes.U_k(1), classes.U_k(2),
            classes.A_k(1), classes.A_exp_k(12, 2), classes.cyclic_A(6, 1),
            classes.sylA_cyclic(6, 1), classes.sylA_cyclic(12, 2)]


def test_section_forms_match_member_of_built_quotient(corpus):
    """`member_in(L, c, b)`, read on the interval [c, b] of the parent
    lattice, against `member` of b/c built as a group with its own
    lattice, on every pair c normal in b of the corpus."""
    oracles = _section_oracles()
    mismatches, pairs, verdicts = [], 0, Counter()
    for entry in corpus:
        L = entry.lattice
        for b in range(len(L)):
            for c in structure.normal_ids_in(L, b):
                Q = section_as_group(L, c, b)
                pairs += 1
                for F in oracles:
                    ours = F.member_in(L, c, b)
                    verdicts[F.name, ours] += 1
                    if ours != F.member(Q):
                        mismatches.append((entry.name, c, b, F.name))
    assert pairs == 4989 and not mismatches, mismatches[:10]
    # every oracle both admits and refuses some section
    assert all(verdicts[F.name, v] for F in oracles for v in (True, False))


def test_residual_matches_scan_of_built_quotients(corpus):
    """`residual_mask`, which reads sections of the parent lattice, against
    `residual_by_quotients`, which builds every b/N as a group, on every
    member of the corpus groups of order <= 60."""
    oracles = _section_oracles() + [harness._K_oracle(1)]
    checked = 0
    for entry in corpus:
        L = entry.lattice
        if entry.order > 60:
            continue
        for b in range(len(L)):
            for F in oracles:
                assert classes.residual_mask(L, b, F) == residual_by_quotients(
                    L, b, F), (entry.name, b, F.name)
                checked += 1
    assert checked == 12_353  # 1,123 members, 11 oracles


def test_residual_scan_builds_no_member_lattice():
    """The U and U_k(1) scans read every section b/N in the parent lattice:
    they build no member group and no quotient.  The K oracle builds its
    sections b/N, N > 1, as groups, but the member groups it takes them of
    get no lattice of their own."""
    members = []
    for G in (named_group("sym", [4]), named_group("holomorph_cyclic", [5])):
        L = G.lattice()
        for F in (classes.U, classes.U_k(1)):
            for b in range(len(L)):
                classes.residual_mask(L, b, F)
        assert not [key for key in L._memos if key[0] == "subgroup_as_group"]
        assert not G._quotients
        for b in range(len(L)):
            classes.residual_mask(L, b, harness._K_oracle(1))
        members += [H for H in L._memos.values() if isinstance(H, FiniteGroup)]
    assert members and all(H._lattice is None for H in members)


def test_p_subnormal(s4):
    L = s4.lattice()
    syl2 = next(s for s in L.subgroups if s.order == 8)
    syl3 = next(s for s in L.subgroups if s.order == 3)
    p = classes.p_subnormal_set(L)
    assert syl2.id in p
    assert syl3.id not in p
    assert L.top.id in p


def test_kp_subnormal_extends_p(s4):
    L = s4.lattice()
    p = classes.p_subnormal_set(L)
    kp = classes.p_subnormal_set(L, variant_k=True)
    assert p <= kp
    v4 = next(s for s in L.subgroups if s.order == 4
              and L.normalizer(s.id) == L.top.id)
    assert v4.id in kp


def test_f_subnormal(hol7):
    L = hol7.lattice()
    U1 = classes.U_k(1)
    y = next(s for s in L.subgroups if s.order == 6)
    assert y.id in classes.f_subnormal_set(L, U1)


def test_f_subnormal_residual_containment(s4):
    # residual(G) <= H forces H F-subnormal
    U = classes.U
    L = s4.lattice()
    r = residual(s4, U)
    reach = classes.f_subnormal_set(L, U)
    for s in L.subgroups:
        if L.leq(L.by_mask[r.mask], s.id):
            assert s.id in reach


def test_local_formation_membership(hol5, s4):
    assert in_local_formation(hol5, h_function(2))
    assert not in_local_formation(hol5, h_function(1))
    assert in_local_formation(named_group("sym", [3]), h_function(1))
    assert not in_local_formation(s4, f_function(3))
    assert in_local_formation(named_group("cyclic", [1]), h_function(1))


def test_wF(hol5, hol7, s4):
    U = classes.U
    assert in_wF(hol7, classes.U_k(1))
    assert in_wF(hol5, U)
    assert not in_wF(s4, U)
    assert in_wF(named_group("dicyclic", [2]), classes.N)


def test_conjugation_invariance_of_subnormality(s4):
    L = s4.lattice()
    for key_set in (classes.p_subnormal_set(L),
                    classes.f_subnormal_set(L, classes.U)):
        for a in key_set:
            assert set(L.conjugates(a)) <= key_set


def test_chain_walks_match_pair_search_on_corpus(corpus):
    """`check_chain_walks` on every corpus group, with the F-subnormal sets
    of eight formations and the witnesses of k = 1..4."""
    formations = ([classes.U, classes.N, classes.S]
                  + [classes.U_k(k) for k in (1, 2, 3)]
                  + [harness._K_oracle(k) for k in (1, 2)])
    assert sum(check_chain_walks(entry.lattice, formations, (1, 2, 3, 4))
               for entry in corpus) == 4623
