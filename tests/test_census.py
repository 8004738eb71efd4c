"""The census tier: every group with a faithful action on at most n points,
up to conjugacy in S_n, through every suite.  The corpus is 76 fixed
groups; the census is exhaustive for its degree: one `generators` entry per
class of subgroups of S_n.  Tier-1 runs S6 (non-soluble groups of order up
to 120 among them), CI runs S7."""
from grouplab import harness, named_group
from grouplab.permgroup import factorize
from grouplab.structure import derived_subgroup, is_supersoluble_in
from grouplab.submodular import in_class, submodular_set
from checks import check_classes, check_definitions
from definitions import derived_by_definition, submodular_by_transposition

# the largest representative the suites take: A6 and S6 are left out
MAX_ORDER = 200
# the largest one the definitions oracle takes, as in tests/test_fuzz.py
ORACLE_ORDER = 60


def census(n: int):
    """S_n's lattice, the least id of each of its classes, and one
    `generators` entry per nontrivial representative of order at most
    MAX_ORDER, named by its id, with its printed generators."""
    L = named_group("sym", [n]).lattice()
    reps = sorted({L.conjugates(a)[0] for a in range(len(L))})
    entries = [harness.CorpusEntry(f"S{n}.{a}", {
        "kind": "generators", "degree": n,
        "cycles": L.subgroups[a].gen_cycles()})
        for a in reps if 1 < L.subgroups[a].order <= MAX_ORDER]
    return L, reps, entries


def check_census(n: int, subgroups: int, classes: int) -> list:
    """Pin S_n's subgroup and class counts (OEIS A005432 and A000638),
    check F within U on every representative, run every suite at
    k = 1, 2, 3 on the census, and on each representative of order at most
    MAX_ORDER `check_classes`, the submodular set against the search by
    every modular step and the commutator subgroup against its definition,
    and `check_definitions` up to ORACLE_ORDER; returns the entries."""
    L, reps, entries = census(n)
    assert (len(L), len(reps)) == (subgroups, classes)
    # F within U, read in S_n's lattice at k = 1..e+1, e the largest prime
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
    assert len(check_census(6, 1455, 56)) == 53
