"""Property-based fuzzing of the input layer: cycle parsing, group specs and
the command line.  Every input either succeeds or fails with a typed error;
the command line exits 0, 1 or 2, never with a traceback, and exits 2 on
malformed input.  A small order cap keeps each example cheap.  The subgroup
lattices of random permutation groups are checked against the plain
cyclic-extension loop, and every suite is run on them."""
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from grouplab import (FiniteGroup, GroupError, OrderCapExceeded, Permutation,
                      cli, generate, group_from_spec, harness)
from checks import check_classes, check_definitions
from test_lattice import assert_matches_unskipped_loop

CAP = "24"
FUZZ = settings(max_examples=60, deadline=None)
# capsys is read and cleared after every example
CLI_FUZZ = settings(FUZZ, suppress_health_check=[
    HealthCheck.function_scoped_fixture])

cycle_text = st.one_of(
    st.text(alphabet="() ,0123456789-", max_size=16),
    st.lists(st.lists(st.integers(-1, 7), max_size=4), max_size=3).map(
        lambda cs: "".join("(" + " ".join(map(str, c)) + ")" for c in cs)),
    st.text(max_size=8),
)

json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-3, 30),
                        st.sampled_from(["", "sym", "cyclic", "x", "(1 2)"]))
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=8)
builder_name = st.sampled_from(["cyclic", "elem_abelian", "dihedral",
                                "dicyclic", "sym", "alt", "holomorph_cyclic",
                                "frobenius_metacyclic", "nosuch", ""])

group_spec = st.recursive(
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("named"), "name": builder_name,
                               "args": st.one_of(
                                   st.lists(st.integers(-2, 30), max_size=3),
                                   json_value)}),
        st.fixed_dictionaries({"kind": st.just("generators"),
                               # past CAP too, where the degree bound refuses
                               "degree": st.one_of(st.integers(-1, 5),
                                                   st.integers(20, 30),
                                                   json_value),
                               "cycles": st.one_of(st.lists(cycle_text,
                                                            max_size=3),
                                                   json_value)}),
        st.dictionaries(st.sampled_from(["kind", "name", "args", "parts"]),
                        json_value, max_size=3),
        json_value),
    lambda inner: st.fixed_dictionaries(
        {"kind": st.just("direct"),
         "parts": st.one_of(st.lists(inner, max_size=3), json_value)}),
    max_leaves=4)


@pytest.fixture(autouse=True)
def small_cap(monkeypatch):
    monkeypatch.setenv("GROUPLAB_ORDER_CAP", CAP)


@FUZZ
@given(cycle_text, st.integers(-1, 8))
def test_parse_returns_permutation_or_typed_error(text, degree):
    try:
        p = Permutation.parse(text, degree)
    except GroupError:
        return
    assert isinstance(p, Permutation) and p.degree == degree


@FUZZ
@given(group_spec)
def test_group_from_spec_builds_or_typed_error(spec):
    try:
        G = group_from_spec(spec)
    except GroupError:
        return
    assert isinstance(G, FiniteGroup) and 1 <= G.order <= int(CAP)
    assert G.degree <= int(CAP)


def _run(capsys, argv):
    """Exit code and stderr of one command line."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


GROUPS = ["cyclic:6", "sym:3", "sym:4", "dihedral:4", "holomorph_cyclic:5",
          "dicyclic:2", '{"kind": "named", "name": "alt", "args": [4]}']
k_list = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda ks: ",".join(map(str, ks)))


@st.composite
def well_formed_argv(draw):
    """A command line on a small group; --gens are elements of the group."""
    cmd = draw(st.sampled_from(["show", "check", "classify", "export"]))
    spec = draw(st.sampled_from(GROUPS))
    if cmd == "show":
        return ["show", spec, "--k", draw(k_list)]
    if cmd == "classify":
        return ["classify", spec, "--k", draw(k_list)]
    if cmd == "export":
        return ["export-lattice", spec, "--emit-dot",
                "--k", str(draw(st.integers(1, 3)))]
    elements = cli._group(spec).elements
    argv = ["check", draw(st.sampled_from(cli.PREDICATES)), spec,
            "--k", str(draw(st.integers(1, 3))),
            "--n", str(draw(st.integers(1, 3)))]
    for x in draw(st.lists(st.sampled_from(elements), min_size=1,
                           max_size=2)):
        argv += ["--gens", x.cycle_string()]
    return argv


@st.composite
def malformed_argv(draw):
    """A well-formed command line with one slot made malformed."""
    kind = draw(st.sampled_from(["spec", "k", "n", "gens", "cmd"]))
    if kind == "spec":
        bad = draw(st.one_of(
            st.just("{"), st.just("sym:x"), st.just("nosuch:3"),
            st.just('{"kind": "named", "name": "sym", "args": [99]}'),
            group_spec.filter(lambda s: not _builds(s)).map(json.dumps)))
        return ["show", bad]
    if kind == "k":
        bad = draw(st.sampled_from(["0", "-1", "x", ",", "1,x", "1.5"]))
        return ["classify", "sym:3", "--k", bad]
    if kind == "n":
        return ["check", "n-modular-embedded", "sym:3", "--gens", "(1 2)",
                "--n", str(draw(st.integers(-5, -1)))]
    if kind == "gens":
        bad = draw(st.sampled_from(["(1 9)", "(1 1)", "1 2", "(a)", "((1 2)",
                                    "(1 2 3 4)"]))
        return ["check", "modular", "sym:3", "--gens", bad]
    return [draw(st.sampled_from(["", "shw", "check", "verify"]))]


def _builds(spec) -> bool:
    try:
        group_from_spec(spec)
    except GroupError:
        return False
    return True


@CLI_FUZZ
@given(well_formed_argv())
def test_cli_well_formed_exits_0_or_1(capsys, argv):
    code, _ = _run(capsys, argv)
    assert code in (0, 1), argv


@CLI_FUZZ
@given(malformed_argv())
def test_cli_malformed_exits_2(capsys, argv):
    code, _ = _run(capsys, argv)
    assert code == 2, argv


two_permutations = st.integers(1, 6).flatmap(
    lambda d: st.tuples(st.just(d), st.permutations(range(d)),
                        st.permutations(range(d))))


@settings(FUZZ, max_examples=40)
@given(two_permutations)
def test_lattice_of_random_group_matches_unskipped_loop(perms):
    """Masks, ids and printed generator tuples of the lattice of the group two
    random permutations of degree <= 6 generate (order <= 120), and its
    whole-group classes (`check_classes`)."""
    degree, p, q = perms
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GROUPLAB_ORDER_CAP", "120")
        try:
            G = generate(degree, [Permutation(p), Permutation(q)])
        except OrderCapExceeded:
            assume(False)
        assert_matches_unskipped_loop(G)
        check_classes(G.lattice())


generated_group = st.integers(3, 8).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.permutations(range(d)),
                                             min_size=1, max_size=3)))


@FUZZ
@given(generated_group)
def test_suites_pass_on_generated_groups(drawn):
    """Every record of every suite at k = 1, 2, 3 passes on the group 1 to
    3 random permutations of degree 3 to 8 generate (order <= 60).  The L
    suite, as on the corpus, takes only groups of order at most
    `harness.LEMMA_SUITE_MAX_ORDER` (48), so it checks drawn groups of
    order 49 to 60 for nothing.  Its corpus:direct-products record is a
    property of a corpus, and the non-vacuity counters are too; neither is
    required."""
    degree, perms = drawn
    spec = {"kind": "generators", "degree": degree,
            "cycles": [Permutation(p).cycle_string() for p in perms]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GROUPLAB_ORDER_CAP", "60")
        try:
            entry = harness.CorpusEntry("generated", spec)
        except OrderCapExceeded:
            assume(False)
        for suite in harness.SUITE_IDS:
            report = harness.run_suite(suite, [1, 2, 3], [entry])
            failed = [r for r in report.entries if not r["pass"]
                      and r["group"] != "corpus:direct-products"]
            assert not failed, (spec, suite, failed)


@settings(FUZZ, max_examples=20)
@given(generated_group)
def test_generated_groups_match_definitions(drawn):
    """On the group drawn as above (order <= 60): `check_classes` and
    `check_definitions`, the definitions oracle of the k-submodular sets
    and the four classes."""
    degree, perms = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GROUPLAB_ORDER_CAP", "60")
        try:
            G = generate(degree, [Permutation(p) for p in perms])
        except OrderCapExceeded:
            assume(False)
        L = G.lattice()
    check_classes(L)
    check_definitions(L)
