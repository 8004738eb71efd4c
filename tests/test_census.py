"""The census tier: every subgroup of a group, up to conjugacy in it,
through every suite.  The corpus is 76 fixed groups; a census is exhaustive
for its group: one `generators` entry per class of its subgroups.  For S_n
that is every group with a faithful action on at most n points.  F is not
within U: 7^2:S3 (order 294) is in F at k = 1 and is not supersoluble, so
it separates F from K (`test_f_is_wider_than_k`).  Whether it is the least
separator is open.  A least one is primitive: an affine group on F_p^r
with r >= 2, where S_n for n <= 7 reaches only p^r = 4.  AGL(3, 2) and
AGL(2, 3) hold all of degree 8 and 9, AGammaL(1, 16) the semilinear ones
of degree 16.  Each census pins the orders of its representatives that are
in F but not supersoluble.  Tier-1 runs S6 (non-soluble groups of order up
to 120 among them), AGL(2, 3) and 7^2:S3; CI runs S7, AGL(3, 2),
AGammaL(1, 16) and 7^2:(C6 wr C2)."""
import importlib.util
import math
from itertools import product

from grouplab import harness, named_group
from grouplab.permgroup import Permutation, group_from_spec
from grouplab.structure import derived_subgroup, is_supersoluble_in
from grouplab.submodular import CLASS_IDS, class_threshold, submodular_set
from checks import check_classes, check_definitions
from definitions import (derived_by_definition, submodular_by_transposition,
                         supersoluble_by_sympy, sympy_group)

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


def check_census(G, subgroups: int, classes: int, f_not_u: list) -> list:
    """Pin G's subgroup and class counts and the sorted orders `f_not_u` of
    the representatives in F but not supersoluble, run every suite at k =
    1, 2, 3 on the census, and on each representative of order at most
    MAX_ORDER `check_classes`, the submodular set against the search by
    every modular step and the commutator subgroup against its definition,
    and `check_definitions` up to ORACLE_ORDER; returns the entries."""
    L, reps, entries = census(G)
    assert (len(L), len(reps)) == (subgroups, classes)
    # a representative is in F at some k when its threshold is finite
    in_F = [a for a in reps if class_threshold(L, "F", a) < math.inf]
    assert in_F and sorted(L.subgroups[a].order for a in in_F
                           if not is_supersoluble_in(L, a)) == f_not_u
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
    assert len(check_census(named_group("sym", [6]), 1455, 56, [])) == 53


def test_agl23_census():
    G = affine_group(3, [[[2, 0], [0, 1]], [[2, 1], [2, 0]]], "AGL(2,3)")
    assert G.order == 432
    assert len(check_census(G, 646, 46, [])) == 43


def test_f_is_wider_than_k():
    """7^2:S3, the translations of N = F_7^2 with t = diag(2, 4) and the
    swap s, is in F at k = 1 and is not supersoluble, so not in K.  With
    W = <e1> and D = <e1 + e2>, each step below is maximal and modular by
    Schmidt's criterion.
    Sylow 3: <t> < W<t> < N<t> normal in G.  The quotients by the cores are
    nonabelian of orders 21 and 21, and the last step is normal of index 2.
    Sylow 2: <s> normal in D x <s> < N<s> < G.  The quotients by the cores
    are D14 (core D) and S3 (core N).
    Sylow 7: N is normal in G.
    G is not supersoluble: t's two eigenlines are swapped by s, so N is a
    chief factor of order 49.  The top goes through every suite as one
    corpus entry, and R3 counts it in F but not in K at each k."""
    G = affine_group(7, [[[2, 0], [0, 4]], [[0, 1], [1, 0]]], "7^2:S3")
    assert G.order == 294
    assert len(check_census(G, 172, 14, [294])) == 12
    L = G.lattice()
    assert {c: class_threshold(L, c) for c in CLASS_IDS} == {
        "X": math.inf, "Y": math.inf, "K": math.inf, "F": 1}
    # the census pins the top as not supersoluble by the engine
    if importlib.util.find_spec("sympy") is not None:
        assert not supersoluble_by_sympy(sympy_group(
            G, [G.element_index[g] for g in G.generators]))
    top = [harness.CorpusEntry(G.name, {"kind": "generators",
                                        "degree": G.degree,
                                        "cycles": L.top.gen_cycles()})]
    for suite in harness.SUITE_IDS:
        rep = harness.run_suite(suite, [1, 2, 3], top)
        assert rep.entries and all(r["pass"] for r in rep.entries), suite
        if suite == "R3":
            assert rep.counters["strictness_F_not_K"] == 3
