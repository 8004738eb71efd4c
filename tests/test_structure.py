import gc
import weakref

import pytest

from grouplab import named_group
from grouplab import structure
from grouplab.permgroup import set_bits
from grouplab.structure import (all_sylow, chief_factors, derived_subgroup,
                                fitting, is_nilpotent, is_ore_dispersive,
                                is_soluble, is_supersoluble, normal_subgroups,
                                sylow, sylow_count)


def test_sylow_orders(s4):
    assert sylow(s4, 2).order == 8
    assert sylow(s4, 3).order == 3
    assert {s.order for s in all_sylow(s4)} == {8, 3}


def test_sylow_congruence(s4, s5):
    for G in (s4, s5):
        for p in G.prime_divisors():
            n_p = sylow_count(G, p)
            assert n_p % p == 1
            assert (G.order // sylow(G, p).order) % n_p == 0


def test_derived_subgroup(s4):
    assert derived_subgroup(s4).order == 12
    assert derived_subgroup(named_group("cyclic", [12])).order == 1


def test_solubility():
    assert is_soluble(named_group("sym", [4]))
    assert not is_soluble(named_group("alt", [5]))
    assert not is_soluble(named_group("sym", [5]))
    assert is_soluble(named_group("dicyclic", [5]))


def test_nilpotency():
    assert is_nilpotent(named_group("dicyclic", [2]))
    assert is_nilpotent(named_group("cyclic", [24]))
    assert not is_nilpotent(named_group("sym", [3]))
    assert not is_nilpotent(named_group("dihedral", [5]))


def test_supersolubility(hol5, s4):
    assert is_supersoluble(hol5)
    assert not is_supersoluble(s4)
    assert not is_supersoluble(named_group("alt", [4]))
    assert is_supersoluble(named_group("dihedral", [10]))


def test_ore_dispersive(hol7, s4):
    assert is_ore_dispersive(hol7)
    assert not is_ore_dispersive(s4)  # no normal Sylow 3
    assert is_ore_dispersive(named_group("cyclic", [30]))


def test_normal_subgroups(s4):
    assert [n.order for n in normal_subgroups(s4)] == [1, 4, 12, 24]


def test_fitting(s4, hol5):
    assert fitting(s4).order == 4
    assert fitting(hol5).order == 5
    assert fitting(named_group("cyclic", [12])).order == 12


def test_chief_factors_hol5(hol5):
    cfs = chief_factors(hol5)
    data = [(c.below.order, c.above.order, c.order, c.complemented)
            for c in cfs]
    assert (1, 5, 5, True) in data
    assert (5, 10, 2, False) in data
    assert (10, 20, 2, True) in data
    five = next(c for c in cfs if c.above.order == 5)
    assert five.centralizer.order == 5


def test_chief_factors_prime_on_supersoluble(hol5):
    assert all(c.order in (2, 5) for c in chief_factors(hol5))


def test_chief_factor_nonabelian():
    A5 = named_group("alt", [5])
    cfs = chief_factors(A5)
    assert len(cfs) == 1 and cfs[0].order == 60


def test_quotient_nilpotency_criterion(s4):
    L = s4.lattice()
    v4 = next(s.id for s in L.subgroups if s.order == 4
              and L.normalizer(s.id) == L.top.id)
    a4 = next(s.id for s in L.subgroups if s.order == 12)
    # S4/V4 is S3 (not nilpotent), A4/V4 is Z3 (nilpotent)
    assert not structure.is_quotient_nilpotent(L, v4, L.top.id)
    assert structure.is_quotient_nilpotent(L, v4, a4)


def test_supersoluble_in_members(s5):
    L = s5.lattice()
    f20 = next(s.id for s in L.subgroups if s.order == 20)
    a5 = next(s.id for s in L.subgroups if s.order == 60)
    assert structure.is_supersoluble_in(L, f20)
    assert not structure.is_supersoluble_in(L, a5)


@pytest.mark.parametrize("name,args", [("sym", [4]), ("holomorph_cyclic", [5]),
                                       ("sym", [5])])
def test_chief_factor_centralizers_match_definition(name, args):
    """C_b(H/K), tested on the generators of H, equals {g in b : [g, x] in K
    for every x in H} for every chief factor of every subgroup b."""
    G = named_group(name, args)
    L = G.lattice()
    mult, inv = G.mult, G.inv
    for b in range(len(L)):
        for cf in structure.chief_factors_in(L, b):
            cmask = 0
            above = set_bits(cf.above.mask)
            for g in set_bits(L.subgroups[b].mask):
                if all(cf.below.mask >> mult[mult[inv[g]][inv[x]]][mult[g][x]] & 1
                       for x in above):
                    cmask |= 1 << g
            assert cf.centralizer.mask == cmask


def _chief_factor_pairs_by_definition(L, b):
    """Pairs (k, h) of b-normal subgroups, k < h, with no b-normal subgroup
    strictly between them: the definitional triple loop."""
    normals = structure.normal_ids_in(L, b)
    pairs = []
    for k in normals:
        for h in normals:
            if k == h or not L.leq(k, h):
                continue
            if any(w not in (k, h) and L.leq(k, w) and L.leq(w, h)
                   for w in normals):
                continue
            pairs.append((k, h))
    return pairs


def test_chief_factor_pairs_match_definition(corpus):
    groups = [e.group for e in corpus if e.order <= 60]
    groups.append(named_group("elem_abelian", [2, 4]))
    for G in groups:
        L = G.lattice()
        for b in range(len(L)):
            assert (structure.chief_factor_pairs_in(L, b)
                    == tuple(_chief_factor_pairs_by_definition(L, b))), (
                        G.name, b)


# -- the per-lattice memo ----------------------------------------------------


def _answers(L, b):
    """Every memoised query's answer about member b, as plain values."""
    primes = L.group.prime_divisors()
    normals = structure.normal_ids_in(L, b)
    return (
        normals,
        structure.chief_factor_pairs_in(L, b),
        [(cf.below.id, cf.above.id, cf.order, cf.complemented,
          cf.centralizer.id) for cf in structure.chief_factors_in(L, b)],
        structure.is_supersoluble_in(L, b),
        [structure.sylow_in(L, b, p) for p in primes],
        [structure.is_quotient_nilpotent(L, c, b) for c in normals],
    )


_MEMOISED = (structure.normal_ids_in, structure.chief_factor_pairs_in,
             structure.chief_factors_in, structure.is_supersoluble_in,
             structure.sylow_in)


def test_memo_is_freed_with_its_lattice():
    G = named_group("sym", [4])
    L = G.lattice()
    for b in range(len(L)):
        _answers(L, b)
    # every query keeps one answer per member; a missing one would be
    # computed here as None
    kept = sum(L.memo((query, b), lambda: None) is not None
               for query in _MEMOISED for b in range(len(L)))
    assert kept == len(_MEMOISED) * len(L)
    ref = weakref.ref(L)
    del G, L
    gc.collect()
    assert ref() is None


def test_memoised_answers_are_immutable(s4):
    L = s4.lattice()
    top = L.top.id
    for query in (structure.normal_ids_in, structure.chief_factor_pairs_in,
                  structure.chief_factors_in):
        first = query(L, top)
        with pytest.raises(TypeError):
            first[0] = first[-1]
        with pytest.raises(AttributeError):
            first.append(first[0])
        assert query(L, top) is first
    # a chief factor is an immutable record, so no caller can change a memo
    cf = structure.chief_factors_in(L, top)[0]
    with pytest.raises(AttributeError):
        cf.complemented = not cf.complemented


def test_memoised_answers_match_a_fresh_lattice(corpus):
    """On one lattice every query is asked twice, supersolubility first so
    that the pairs and normal subgroups are filled on its behalf; each
    answer equals the one a freshly built lattice gives when first asked."""
    from grouplab.lattice import all_subgroups

    for entry in corpus:
        if entry.order > 60:
            continue
        L = entry.lattice
        for b in range(len(L)):
            structure.is_supersoluble_in(L, b)
            _answers(L, b)
        fresh = all_subgroups(entry.group)
        for b in range(len(L)):
            assert _answers(L, b) == _answers(fresh, b), (entry.name, b)


def test_normal_ids_match_conjugation_by_every_element(corpus):
    """a is normal in b when a <= b and g^-1 x g lies in a for every member
    x of a and every element g of b: no normalizer, no generators."""
    for entry in corpus:
        if entry.order > 60:
            continue
        G = entry.group
        L = entry.lattice
        mult, inv = G.mult, G.inv
        members = [set_bits(s.mask) for s in L.subgroups]
        for sb in L.subgroups:
            expected = tuple(
                sa.id for sa in L.subgroups
                if sa.mask & ~sb.mask == 0 and all(
                    sa.mask >> mult[mult[inv[g]][x]][g] & 1
                    for g in members[sb.id] for x in members[sa.id]))
            assert structure.normal_ids_in(L, sb.id) == expected, (
                entry.name, sb.id)
