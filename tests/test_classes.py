import pytest

from grouplab import direct_product, generate, named_group
from grouplab import classes, harness, structure
from grouplab.classes import (f_function, h_function, in_local_formation,
                              in_wF, oracle, residual)
from grouplab.permgroup import FiniteGroup, set_bits


def test_oracle_basic_classes(s4):
    assert oracle("N").member(named_group("dicyclic", [2]))
    assert not oracle("N").member(s4)
    assert oracle("U").member(named_group("dihedral", [7]))
    assert not oracle("U").member(s4)
    assert oracle("S").member(s4)
    assert not oracle("S").member(named_group("alt", [5]))


def test_oracle_abelian_exponent():
    A41 = oracle("A_exp_k", m=4, k=1)
    assert A41.member(named_group("cyclic", [2]))
    assert not A41.member(named_group("cyclic", [4]))  # 2^2 divides exponent
    A42 = oracle("A_exp_k", m=4, k=2)
    assert A42.member(named_group("cyclic", [4]))
    assert not A42.member(named_group("sym", [3]))  # not abelian


def test_oracle_sylow_conditions():
    S3 = named_group("sym", [3])
    assert oracle("A_k", k=1).member(S3)  # Sylows Z2, Z3, squarefree exponent
    assert not oracle("A_k", k=1).member(named_group("dicyclic", [2]))
    assert oracle("U_k", k=1).member(S3)
    assert not oracle("U_k", k=1).member(named_group("cyclic", [4]))
    assert oracle("U_k", k=2).member(named_group("cyclic", [4]))


def test_h_and_f_values():
    # h(5) at k=2 contains Z4; at k=1 it does not
    assert h_function(2)(5).member(named_group("cyclic", [4]))
    assert not h_function(1)(5).member(named_group("cyclic", [4]))
    # f(7) at k=1 contains S3 (cyclic Sylows 2, 3 with orders dividing 6)
    assert f_function(1)(7).member(named_group("sym", [3]))
    assert not h_function(1)(7).member(named_group("sym", [3]))  # not abelian
    with pytest.raises(Exception):
        oracle("nosuch")


def test_residual_values(s4, hol7):
    N, U = oracle("N"), oracle("U")
    assert residual(named_group("sym", [3]), N).order == 3
    assert residual(s4, N).order == 12
    assert residual(s4, U).order == 4
    assert residual(named_group("alt", [5]), U).order == 60
    assert residual(hol7, oracle("U_k", k=1)).order == 1


def test_residual_is_minimal(s4):
    # no smaller normal subgroup of S4 gives a supersoluble quotient
    from grouplab.permgroup import quotient_cached
    U = oracle("U")
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
    oracles = [oracle("N"), oracle("U"), oracle("U_k", k=1),
               oracle("U_k", k=2), harness._K_oracle(1)]
    for sb in L.subgroups:
        H = generate(G.degree, [G.elements[g] for g in sb.gens])
        for F in oracles:
            expect = sum(1 << G.element_index[H.elements[i]]
                         for i in set_bits(residual(H, F).mask))
            assert classes.residual_mask(L, sb.id, F) == expect, (sb.id, F.name)


def _interface_oracles():
    """Every built-in oracle over a few m and k, the h and f values and
    the harness's K oracle."""
    out = [oracle("N"), oracle("U"), oracle("S"),
           harness._K_oracle(1), harness._K_oracle(2)]
    for k in (1, 2):
        out += [oracle("A_k", k=k), oracle("U_k", k=k)]
        for m in (4, 6, 12):
            out += [oracle("A_exp_k", m=m, k=k), oracle("cyclic_A", m=m, k=k),
                    oracle("sylA_cyclic", m=m, k=k)]
        out += [make(k)(p) for make in (h_function, f_function)
                for p in (2, 3, 5, 7, 13)]
    return out


def test_member_in_matches_member_of_generated_group(corpus, hol7):
    """`member_in(L, b)`, read in the parent lattice, against `member` of
    member b generated afresh as a group with its own lattice."""
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
                if F.member_in(L, sb.id) != F.member(H):
                    mismatches.append((G.name, sb.id, F.name))
    assert checked > 50_000 and not mismatches, mismatches[:10]


def test_residual_scan_builds_no_member_lattice():
    """The scan asks a member about itself in the parent lattice, so the
    member groups it builds, only to take quotients of, get no lattice."""
    for G in (named_group("sym", [4]), named_group("holomorph_cyclic", [5])):
        L = G.lattice()
        for F in (oracle("U"), oracle("U_k", k=1), harness._K_oracle(1)):
            for b in range(len(L)):
                classes.residual_mask(L, b, F)
        members = [H for H in L._memos.values() if isinstance(H, FiniteGroup)]
        assert members
        assert all(H._lattice is None for H in members)


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
    U1 = oracle("U_k", k=1)
    y = next(s for s in L.subgroups if s.order == 6)
    assert y.id in classes.f_subnormal_set(L, U1)


def test_f_subnormal_residual_containment(s4):
    # residual(G) <= H forces H F-subnormal
    U = oracle("U")
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
    U = oracle("U")
    assert in_wF(hol7, oracle("U_k", k=1))
    assert in_wF(hol5, U)
    assert not in_wF(s4, U)
    assert in_wF(named_group("dicyclic", [2]), oracle("N"))


def test_conjugation_invariance_of_subnormality(s4):
    L = s4.lattice()
    for key_set in (classes.p_subnormal_set(L),
                    classes.f_subnormal_set(L, oracle("U"))):
        for a in key_set:
            assert set(L.conjugates(a)) <= key_set
