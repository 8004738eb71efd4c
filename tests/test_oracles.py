"""Structural predicates against sympy's permutation groups, an oracle that
shares no code with the engine."""
import math
from collections import Counter

import pytest
from hypothesis import given, settings

from grouplab import Permutation, direct_product, generate, named_group
from grouplab import classes, structure, submodular
from grouplab.permgroup import quotient_cached, set_bits
from definitions import classes_by_definition, step_table
from test_fuzz import two_permutations

combinatorics = pytest.importorskip("sympy.combinatorics")


def _sympy_group(G, gens):
    """sympy group generated by the given element ordinals of G."""
    perms = [combinatorics.Permutation(list(G.elements[g])) for g in gens]
    return combinatorics.PermutationGroup(
        perms or [combinatorics.Permutation(list(range(G.degree)))])


def test_corpus_structure_matches_sympy(corpus):
    mismatches = []
    for entry in corpus:
        G = entry.group
        P = _sympy_group(G, [G.element_index[g] for g in G.generators])
        ours = (G.order, structure.is_soluble(G), structure.is_nilpotent(G),
                structure.derived_subgroup(G).order,
                [structure.sylow(G, p).order for p in G.prime_divisors()],
                G.is_abelian(), G.is_cyclic())
        theirs = (P.order(), P.is_solvable, P.is_nilpotent,
                  P.derived_subgroup().order(),
                  [P.sylow_subgroup(p).order() for p in G.prime_divisors()],
                  P.is_abelian, P.is_cyclic)
        if ours != theirs:
            mismatches.append((entry.name, ours, theirs))
    assert not mismatches


@pytest.mark.parametrize("name,args", [("sym", [4]), ("holomorph_cyclic", [5]),
                                       ("sym", [5])])
def test_member_nilpotency_matches_sympy(name, args):
    G = named_group(name, args)
    L = G.lattice()
    for s in L.subgroups:
        P = _sympy_group(G, s.gens)
        assert P.order() == s.order
        assert (structure.is_quotient_nilpotent(L, L.bottom.id, s.id)
                == P.is_nilpotent), s


def _supersoluble_by_sympy(P):
    """Whether sympy's group P has a chain 1 = M0 < ... < Mr = P of
    subgroups normal in P with prime indices, found greedily: from each M
    move to <M, x> for the first element x that gives a normal subgroup of
    prime index over M.  A chain found shows P supersoluble.  The search
    cannot miss one: a quotient of a supersoluble group is supersoluble, and
    a supersoluble P/M != 1 has a normal subgroup of prime order (the term
    above 1 of its chain), whose preimage is such an <M, x>."""
    elements = list(P.generate())
    M = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(range(P.degree)))])
    while M.order() < P.order():
        for x in elements:
            if M.contains(x):
                continue
            N = combinatorics.PermutationGroup(M.generators + [x])
            q = N.order() // M.order()
            if all(q % d for d in range(2, q)) and N.is_normal(P):
                M = N
                break
        else:
            return False
    return True


def test_corpus_supersolubility_matches_sympy(corpus):
    mismatches, not_supersoluble = [], []
    for entry in corpus:
        G = entry.group
        P = _sympy_group(G, [G.element_index[g] for g in G.generators])
        ours = structure.is_supersoluble(G)
        if ours != _supersoluble_by_sympy(P):
            mismatches.append(entry.name)
        if not ours:
            not_supersoluble.append(entry.name)
    assert not mismatches
    assert not_supersoluble == ["A4", "A4xZ2", "A5", "S4", "S5"]


def test_corpus_classes_match_definitions(corpus):
    """`in_class` of every corpus group at k = 1..3 against the definitions
    of X, Y, K and F on the definitional step table, with K's
    supersolubility from sympy."""
    mismatches, members = [], Counter()
    for entry in corpus:
        G, L = entry.group, entry.lattice
        table = step_table(L)
        supersoluble = _supersoluble_by_sympy(
            _sympy_group(G, [G.element_index[g] for g in G.generators]))
        for k in (1, 2, 3):
            theirs = classes_by_definition(L, table, k, supersoluble)
            ours = {c: submodular.in_class(L, c, k)
                    for c in submodular.CLASS_IDS}
            if ours != theirs:
                mismatches.append((entry.name, k, ours, theirs))
            members.update(c for c, member in theirs.items() if member)
    assert not mismatches
    assert members == {"X": 206, "Y": 206, "K": 209, "F": 209}


def test_member_classes_match_definitions(corpus):
    """`in_class(L, c, k, top=b)` for every member b of five corpus groups,
    asked in the parent lattice, against the definitions of X, Y, K and F
    on b's own lattice and step table, with K's supersolubility from
    sympy."""
    mismatches, members, checked = [], Counter(), 0
    for entry in corpus:
        if entry.name not in ("S4", "Hol(Z5)", "Hol(Z7)", "A4xZ2", "S3xS3"):
            continue
        G, L = entry.group, entry.lattice
        for sb in L.subgroups:
            Lb = L.subgroup_as_group(sb.id).lattice()
            table = step_table(Lb)
            supersoluble = _supersoluble_by_sympy(_sympy_group(G, sb.gens))
            for k in (1, 2, 3):
                theirs = classes_by_definition(Lb, table, k, supersoluble)
                ours = {c: submodular.in_class(L, c, k, top=sb.id)
                        for c in submodular.CLASS_IDS}
                if ours != theirs:
                    mismatches.append((entry.name, sb.id, k, ours, theirs))
                members.update(c for c, member in theirs.items() if member)
                checked += 1
    assert not mismatches
    assert checked == 468
    assert members == {"X": 452, "Y": 452, "K": 455, "F": 455}


@pytest.mark.parametrize("name,args", [("sym", [4]), ("holomorph_cyclic", [5]),
                                       ("holomorph_cyclic", [7]), ("sym", [5])])
def test_member_supersolubility_matches_sympy(name, args):
    G = named_group(name, args)
    L = G.lattice()
    for s in L.subgroups:
        assert (structure.is_supersoluble_in(L, s.id)
                == _supersoluble_by_sympy(_sympy_group(G, s.gens))), s


@pytest.mark.parametrize("name,args", [("sym", [4]), ("holomorph_cyclic", [5]),
                                       ("holomorph_cyclic", [7])])
def test_quotient_nilpotency_matches_sympy(name, args):
    """`is_quotient_nilpotent(L, c, b)` for every member b and every c
    normal in b, against sympy on the quotient b/c built as a group, and
    the quotient's `is_abelian` and `is_cyclic`."""
    G = named_group(name, args)
    L = G.lattice()
    checked = 0
    for sb in L.subgroups:
        H = L.subgroup_as_group(sb.id)
        members = set_bits(sb.mask)
        for c in structure.normal_ids_in(L, sb.id):
            local = sum(1 << i for i, m in enumerate(members)
                        if L.subgroups[c].mask >> m & 1)
            Q, _ = quotient_cached(H, local)
            P = _sympy_group(Q, [Q.element_index[g] for g in Q.generators])
            assert P.order() == sb.order // L.subgroups[c].order
            assert (structure.is_quotient_nilpotent(L, c, sb.id)
                    == P.is_nilpotent), (sb.id, c)
            assert (Q.is_abelian(), Q.is_cyclic()) == (
                P.is_abelian, P.is_cyclic), (sb.id, c)
            checked += 1
    assert checked > len(L)


def test_member_facts_match_sympy(corpus):
    """The member facts the class oracles read, for every member b of every
    corpus group of order <= 60, against sympy's group on b's generators:
    generator commutation, abelian with exponent equal to the order, and
    `is_soluble_in`."""
    mismatches = []
    for entry in corpus:
        G = entry.group
        if G.order > 60:
            continue
        L = G.lattice()
        for sb in L.subgroups:
            P = _sympy_group(G, sb.gens)
            abelian = classes._commute(L, sb.id)
            cyclic = abelian and math.lcm(*classes._orders(L, sb.id)) == sb.order
            ours = (abelian, cyclic, structure.is_soluble_in(L, sb.id))
            theirs = (P.is_abelian, P.is_cyclic, P.is_solvable)
            if ours != theirs:
                mismatches.append((entry.name, sb.id, ours, theirs))
    assert not mismatches, mismatches[:10]


@pytest.mark.parametrize("parts", [
    [("cyclic", [2]), ("sym", [3])], [("cyclic", [3]), ("cyclic", [2])],
    [("cyclic", [2]), ("cyclic", [4])], [("cyclic", [5]), ("dihedral", [4])],
    [("cyclic", [2]), ("cyclic", [3]), ("sym", [3])]])
def test_abelian_and_cyclic_match_sympy_on_direct_products(parts):
    """Direct products whose first generators commute: `is_abelian` must
    test every pair of generators, not the first ones only."""
    G = named_group(*parts[0])
    for part in parts[1:]:
        G = direct_product(G, named_group(*part))
    P = _sympy_group(G, [G.element_index[g] for g in G.generators])
    assert (G.is_abelian(), G.is_cyclic()) == (P.is_abelian, P.is_cyclic)


@settings(max_examples=25, deadline=None)
@given(two_permutations.filter(lambda perms: perms[0] <= 5))
def test_solubility_and_nilpotency_match_sympy_on_random_groups(perms):
    """The group two random permutations of degree <= 5 generate (degree 6
    admits S6, whose lattice takes seconds)."""
    degree, p, q = perms
    G = generate(degree, [Permutation(p), Permutation(q)])
    P = combinatorics.PermutationGroup([combinatorics.Permutation(list(p)),
                                        combinatorics.Permutation(list(q))])
    assert (structure.is_soluble(G), structure.is_nilpotent(G)) == (
        P.is_solvable, P.is_nilpotent)


def test_normality_and_sylow_counts_match_sympy(corpus):
    """`is_normal_in(a, top)` for every subgroup, and `sylow_count` for every
    prime, of every corpus group, against sympy: `is_normal`, and n_p as the
    index of the normalizer of sympy's Sylow subgroup, by its definition."""
    mismatches = []
    for entry in corpus:
        G = entry.group
        L = G.lattice()
        P = _sympy_group(G, [G.element_index[g] for g in G.generators])
        for s in L.subgroups:
            theirs = _sympy_group(G, s.gens).is_normal(P)
            if L.is_normal_in(s.id, L.top.id) != theirs:
                mismatches.append((entry.name, s.id, theirs))
        elements = list(P.generate())
        for p in G.prime_divisors():
            syl = P.sylow_subgroup(p)
            members = set(syl.generate())
            normalizer = sum(1 for g in elements
                             if all(h ^ g in members for h in syl.generators))
            if structure.sylow_count(G, p) != P.order() // normalizer:
                mismatches.append((entry.name, p))
    assert not mismatches


def test_fitting_order_matches_sympy(corpus):
    """|F(G)| = prod_p |O_p(G)|, where O_p(G), the largest normal
    p-subgroup, is the intersection of the conjugates h ^ g of sympy's
    Sylow p-subgroup over every element g."""
    mismatches = []
    for entry in corpus:
        G = entry.group
        P = _sympy_group(G, [G.element_index[g] for g in G.generators])
        elements = list(P.generate())
        theirs = 1
        for p in G.prime_divisors():
            syl = set(P.sylow_subgroup(p).generate())
            core = set(syl)
            for g in elements:
                core = {h for h in core if h ^ g in syl}
            theirs *= len(core)
        if structure.fitting(G).order != theirs:
            mismatches.append((entry.name, structure.fitting(G).order, theirs))
    assert not mismatches


def test_frattini_order_of_p_groups_matches_sympy(corpus):
    """For a p-group G, the Frattini subgroup is G' G^p: sympy's group
    generated by the derived subgroup and the p-th power of every element."""
    mismatches = []
    checked = 0
    for entry in corpus:
        G = entry.group
        if len(G.prime_divisors()) != 1:
            continue
        p, = G.prime_divisors()
        P = _sympy_group(G, [G.element_index[g] for g in G.generators])
        gens = P.derived_subgroup().generators + [g ** p for g in P.generate()]
        theirs = combinatorics.PermutationGroup(gens).order()
        L = G.lattice()
        if L.subgroups[L.frattini()].order != theirs:
            mismatches.append((entry.name, L.subgroups[L.frattini()].order,
                               theirs))
        checked += 1
    assert not mismatches
    assert checked == 26


@pytest.mark.parametrize("name,args", [("sym", [4]), ("holomorph_cyclic", [5]),
                                       ("sym", [5])])
def test_member_normal_subgroups_match_sympy(name, args):
    """`normal_ids_in(L, b)` for every member b: the subgroups a whose
    members lie in b and that sympy's `is_normal` finds normal in b."""
    G = named_group(name, args)
    L = G.lattice()
    groups = [_sympy_group(G, s.gens) for s in L.subgroups]
    for sb in L.subgroups:
        expected = tuple(sa.id for sa in L.subgroups
                         if sa.mask & ~sb.mask == 0
                         and groups[sa.id].is_normal(groups[sb.id]))
        assert structure.normal_ids_in(L, sb.id) == expected, sb
