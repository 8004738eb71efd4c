"""The census tier: every subgroup of a group, up to conjugacy in it,
through every suite.  The corpus is 76 fixed groups; a census is exhaustive
for its group: one `generators` entry per class of its subgroups.  For S_n
that is every group with a faithful action on at most n points.  A least
group in F but not supersoluble, if there is one, is primitive: an affine
group on F_p^r with r >= 2, where S_n for n <= 7 reaches only p^r = 4.
AGL(3, 2) and AGL(2, 3) hold all of degree 8 and 9, AGammaL(1, 16) the
semilinear ones of degree 16.  Tier-1 runs S6 (non-soluble groups of
order up to 120 among them) and AGL(2, 3); CI runs S7, AGL(3, 2) and
AGammaL(1, 16)."""
from itertools import product

from grouplab import harness, named_group
from grouplab.permgroup import Permutation, factorize, group_from_spec
from grouplab.structure import derived_subgroup, is_supersoluble_in
from grouplab.submodular import in_class, submodular_set
from checks import check_classes, check_definitions
from definitions import derived_by_definition, submodular_by_transposition

# the largest representative the suites take: A6 and S6 are left out
MAX_ORDER = 200
# the largest one the definitions oracle takes, as in tests/test_fuzz.py
ORACLE_ORDER = 60


def affine_group(p: int, matrices, name: str):
    """The group on the p^r points of F_p^r generated by the translation by
    the first basis vector and the linear maps v -> Mv of `matrices` (r x r,
    given by rows), built from a `generators` spec."""
    vectors = list(product(range(p), repeat=len(matrices[0])))
    point = {v: i for i, v in enumerate(vectors)}

    def cycles(f):
        return Permutation(point[f(v)] for v in vectors).cycle_string()

    shift = cycles(lambda v: ((v[0] + 1) % p,) + v[1:])
    linear = [cycles(lambda v, M=M: tuple(
        sum(a * x for a, x in zip(row, v)) % p for row in M))
        for M in matrices]
    return group_from_spec({"kind": "generators", "degree": len(vectors),
                            "cycles": [shift, *linear], "name": name})


def census(G):
    """G's lattice, the least id of each of its classes, and one
    `generators` entry per nontrivial representative of order at most
    MAX_ORDER, named by its id, with its printed generators."""
    L = G.lattice()
    reps = sorted({L.conjugates(a)[0] for a in range(len(L))})
    entries = [harness.CorpusEntry(f"{G.name}.{a}", {
        "kind": "generators", "degree": G.degree,
        "cycles": L.subgroups[a].gen_cycles()})
        for a in reps if 1 < L.subgroups[a].order <= MAX_ORDER]
    return L, reps, entries


def check_census(G, subgroups: int, classes: int) -> list:
    """Pin G's subgroup and class counts, check F within U on every
    representative, run every suite at k = 1, 2, 3 on the census, and on
    each representative of order at most MAX_ORDER `check_classes`, the
    submodular set against the search by every modular step and the
    commutator subgroup against its definition, and `check_definitions` up
    to ORACLE_ORDER; returns the entries."""
    L, reps, entries = census(G)
    assert (len(L), len(reps)) == (subgroups, classes)
    # F within U, read in G's lattice at k = 1..e+1, e the largest prime
    # exponent of |a|; R3 checks only K within F
    in_F = [a for a in reps for k in range(1, 2 + max(
        factorize(L.subgroups[a].order).values(), default=0))
        if in_class(L, "F", k, top=a)]
    assert in_F and all(is_supersoluble_in(L, a) for a in in_F)
    for suite in harness.SUITE_IDS:
        rep = harness.run_suite(suite, [1, 2, 3], entries)
        assert rep.entries and not [r["group"] for r in rep.entries
                                    if not r["pass"]], suite
        # L's vacuity counters ask for separating groups that only the
        # corpus has, such as the order-42 holomorph
        assert rep.passed or suite == "L", suite
    for e in entries:
        check_classes(e.lattice)
        assert submodular_set(e.lattice) == submodular_by_transposition(
            e.lattice), e.name
        assert derived_subgroup(e.group).mask == derived_by_definition(
            e.group), e.name
        if e.order <= ORACLE_ORDER:
            check_definitions(e.lattice)
    return entries


def test_s6_census():
    # OEIS A005432 and A000638
    assert len(check_census(named_group("sym", [6]), 1455, 56)) == 53


def test_agl23_census():
    G = affine_group(3, [[[2, 0], [0, 1]], [[2, 1], [2, 0]]], "AGL(2,3)")
    assert G.order == 432
    assert len(check_census(G, 646, 46)) == 43
