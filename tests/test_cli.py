import argparse
import json
import os
import subprocess
import sys

import pytest

from grouplab import cli


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # -h prints help and exits
        code = ("exit", exc.code)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_show_named_shorthand(capsys):
    code, out, _ = run(capsys, "show", "holomorph_cyclic:5", "--k", "1,2")
    assert code == 0
    assert "order 20" in out
    assert "supersoluble=True" in out
    assert "k=1: X=False" in out
    assert "k=2: X=True Y=True K=True F=True" in out


def test_show_inline_json(capsys):
    spec = json.dumps({"kind": "named", "name": "sym", "args": [3]})
    code, out, _ = run(capsys, "show", spec)
    assert code == 0 and "order 6" in out


def test_show_spec_file(capsys, tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"kind": "generators", "degree": 3,
                             "cycles": ["(1 2 3)"]}))
    code, out, _ = run(capsys, "show", str(p))
    assert code == 0 and "order 3" in out


def test_check_k_submodular_true(capsys):
    code, out, _ = run(capsys, "check", "k-submodular", "holomorph_cyclic:5",
                       "--gens", "(2 3 5 4)", "--k", "2")
    assert code == 0
    assert "witness chain" in out
    assert "True" in out


@pytest.mark.parametrize("group,gens,expect", [
    ("sym:4", "(1 2)",
     "witness chain:\n"
     "  |2| -> |4|  [normal]\n"
     "  |4| -> |8|  [normal]\n"
     "  |8| -> |24|  [n=1]\n"
     "k-submodular(['(1 2)'], |H|=2) in S4: True\n"),
    ("holomorph_cyclic:5", "(2 3 5 4)",
     "witness chain:\n"
     "  |4| -> |20|  [n=2]\n"
     "k-submodular(['(2 3 5 4)'], |H|=4) in Hol(Z5): True\n"),
])
def test_check_k_submodular_stdout_pinned(capsys, group, gens, expect):
    code, out, _ = run(capsys, "check", "k-submodular", group,
                       "--gens", gens, "--k", "2")
    assert code == 0 and out == expect


def test_check_k_submodular_false(capsys):
    # order-6 subgroup of Hol(Z7) is not 1-submodular
    code, out, _ = run(capsys, "check", "submodular", "holomorph_cyclic:7",
                       "--gens", "(2 4 3 7 5 6)")
    assert code == 1 and "False" in out


def test_check_k_lm(capsys):
    code, out, _ = run(capsys, "check", "k-lm", "holomorph_cyclic:5", "--k", "2")
    assert code == 0 and "is a 2-LM group" in out
    code, out, _ = run(capsys, "check", "k-lm", "holomorph_cyclic:5", "--k", "1")
    assert code == 1 and "counterexample pair" in out


def test_check_modular_and_subnormal(capsys):
    assert run(capsys, "check", "modular", "cyclic:12",
               "--gens", "(1 2 3 4 5 6 7 8 9 10 11 12)")[0] == 0
    assert run(capsys, "check", "p-subnormal", "sym:4",
               "--gens", "(1 2 3)")[0] == 1
    assert run(capsys, "check", "n-modular-embedded", "holomorph_cyclic:5",
               "--gens", "(2 3 5 4)", "--n", "2")[0] == 0


def test_check_errors(capsys):
    # missing --gens
    code, _, err = run(capsys, "check", "modular", "sym:3")
    assert code == 2 and "error" in err
    # generator outside the group
    code, _, err = run(capsys, "check", "modular", "sym:3",
                       "--gens", "(1 2)(3 4)")
    assert code == 2
    # k < 1
    code, _, err = run(capsys, "check", "k-submodular", "sym:3",
                       "--gens", "(1 2)", "--k", "0")
    assert code == 2


def test_bad_group_spec(capsys):
    code, _, err = run(capsys, "show", "nosuchfamily:3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "show", '{"kind": "bogus"}')
    assert code == 2


@pytest.mark.parametrize("spec", ["[]", " [1, 2]"])
def test_inline_json_not_an_object(capsys, spec):
    code, out, err = run(capsys, "show", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: group spec must be an object")


@pytest.mark.parametrize("argv", [
    ["show", "sym:x"],
    ["show", "sym"],
    ["show", "sym:1,2"],
    ["show", '{"kind": "named", "name": "sym", "args": ["4"]}'],
    ["show", '{"kind": "direct", "parts": 5}'],
    ["show", '{"kind": "generators", "degree": 3, "cycles": [5]}'],
    ["verify", "--suite", ","],
    ["verify", "--suite", ""],
    ["show", '{"kind": "generators", "degree": true}'],
    ["show", '{"kind": "generators", "degree": false}'],
    ["show", '{"kind": "generators", "degree": 3, "cycles": ["(1 2)"], '
             '"name": [1]}'],
    # a key the spec's kind does not list: a typo, or an extra key
    ["show", '{"kind": "generators", "degree": 3, "cycle": ["(1 2)"]}'],
    ["show", '{"kind": "named", "name": "sym", "args": [3], "extra": 1}'],
    # an integer past Python's 4300-digit limit for int()
    ["show", '{"kind": "named", "name": "sym", "args": [1' + "0" * 5000 + "]}"],
    ["show"],
    ["check"],
    ["verify"],
    ["show", "alt:-3"],
    ["show", "alt:0"],
    # a bad k list is rejected before the summary is printed
    ["show", "sym:3", "--k", "1,a"], ["show", "sym:3", "--k", "0"],
    ["show", "sym:3", "--k", ","], ["classify", "sym:3", "--k", "x"],
    # a builder shorthand with an empty name
    ["show", ":3"],
    # a permutation of the right degree outside the group
    ["check", "modular", "alt:4", "--gens", "(1 2)"],
])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("spec", [
    '{"kind": "generators", "degree": 0, "cycles": []}',
    '{"kind": "generators", "degree": 1, "cycles": ["(1)"]}',
    "cyclic:1", "sym:1", "alt:2"])
def test_show_order_one_groups(capsys, spec):
    code, out, _ = run(capsys, "show", spec)
    assert code == 0 and ": order 1," in out and "subgroups: 1" in out


def test_spec_file_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "show", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("spec,expect", [
    ('{"kind": "named", "name": }',
     "error: Expecting value: line 1 column 27 (char 26)\n"),
    ("[1, 2", "error: Expecting ',' delimiter: line 1 column 6 (char 5)\n"),
])
def test_malformed_json_error_text(capsys, tmp_path, spec, expect):
    # the decoder's own message, inline and from a spec file
    assert run(capsys, "show", spec) == (2, "", expect)
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert run(capsys, "show", str(path)) == (2, "", expect)


def _nested_spec(depth):
    """A `direct` spec of one trivial part, nested `depth` times."""
    return ('{"kind": "direct", "parts": [' * depth
            + '{"kind": "named", "name": "cyclic", "args": [1]}'
            + "]}" * depth)


def test_spec_deeper_than_recursion_limit_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "show", _nested_spec(1200))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    path = tmp_path / "deep.json"
    path.write_text(_nested_spec(800))
    code, _, err = run(capsys, "show", str(path))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "alt:5", "--k", "1")
    assert code == 0
    assert "k=1 class X: False" in out and "k=1 class F: False" in out


def test_verify_small(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "verify", "--suite", "T3.2", "--k", "1,2",
                       "--cap", "24", "--out", str(out_path))
    assert code == 0
    assert "suite_pass=True" in out
    payload = json.loads(out_path.read_text())
    assert payload["reports"][0]["suite"] == "T3.2"


def test_verify_lemma_suite_single_k(capsys, tmp_path):
    # monotonicity in k has nothing to compare at one k and is not required;
    # the cap keeps Hol(Z7), the one group that falsifies the L2.7 converse
    out_path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "verify", "--suite", "L", "--k", "2",
                       "--cap", "42", "--out", str(out_path))
    assert code == 0
    assert "suite_pass=True" in out
    counters = json.loads(out_path.read_text())["reports"][0]["summary"][
        "counters"]
    assert "nonvacuous_monotone" not in counters


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "T9.9")
    assert code == 2 and "unknown suite" in err


def test_verify_bad_k_list_builds_no_corpus(capsys, monkeypatch):
    from grouplab import harness

    def build_corpus(config):
        raise AssertionError("corpus built before the k list was checked")
    monkeypatch.setattr(harness, "build_corpus", build_corpus)
    code, out, err = run(capsys, "verify", "--suite", "R1", "--k", "x")
    assert (code, out, err) == (2, "", "error: bad k list 'x'\n")


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list", "--cap", "30")
    assert code == 0
    assert "S4" in out and "total:" in out


def test_export_lattice_dot(capsys, tmp_path):
    code, out, _ = run(capsys, "export-lattice", "sym:4", "--emit-dot",
                       "--k", "1")
    assert code == 0 and out.startswith("digraph")
    p = tmp_path / "l.dot"
    code, out, _ = run(capsys, "export-lattice", "dihedral:5", "--emit-dot",
                       "--out", str(p))
    assert code == 0
    assert p.read_text().startswith("digraph")


def test_export_lattice_requires_dot(capsys):
    code, _, err = run(capsys, "export-lattice", "sym:3")
    assert code == 2 and "emit-dot" in err


def test_order_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("GROUPLAB_ORDER_CAP", "10")
    code, _, err = run(capsys, "show", "sym:4")
    assert code == 2 and "error" in err
    # a cap that is not an integer, or not positive, is an input error
    for raw in ("abc", "0"):
        monkeypatch.setenv("GROUPLAB_ORDER_CAP", raw)
        code, out, err = run(capsys, "show", "sym:3")
        lines = err.splitlines()
        assert code == 2 and out == "" and len(lines) == 1
        assert lines[0].startswith("error: ") and "GROUPLAB_ORDER_CAP" in lines[0]


def _trivial_parts(n):
    """A flat `direct` spec of n trivial parts: order 1, degree n."""
    return json.dumps({"kind": "direct", "parts": [
        {"kind": "named", "name": "cyclic", "args": [1]}] * n})


@pytest.mark.parametrize("spec", [
    '{"kind": "generators", "degree": 25, "cycles": ["(1 2)"]}',
    _trivial_parts(25)], ids=["generators", "direct"])
def test_degree_above_order_cap_exits_2(capsys, monkeypatch, spec):
    # groups of order 1 and 2, refused on their degree alone
    monkeypatch.setenv("GROUPLAB_ORDER_CAP", "24")
    code, out, err = run(capsys, "show", spec)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "degree 25" in lines[0] and "order cap 24" in lines[0]


@pytest.mark.parametrize("spec", [
    '{"kind": "generators", "degree": 24, "cycles": ["(1 2)"]}',
    _trivial_parts(24)], ids=["generators", "direct"])
def test_degree_at_order_cap_builds(capsys, monkeypatch, spec):
    monkeypatch.setenv("GROUPLAB_ORDER_CAP", "24")
    code, out, _ = run(capsys, "show", spec)
    assert code == 0 and "subgroups:" in out


def test_main_keeps_no_state_between_calls(capsys):
    # no --gens carries over from one call to the next
    code, out, _ = run(capsys, "check", "modular", "sym:4",
                       "--gens", "(1 2)", "--gens", "(1 2 3)")
    assert code == 1 and "|H|=6" in out  # S3 is not modular in S4
    code, _, err = run(capsys, "check", "modular", "sym:4")
    assert code == 2 and "needs --gens" in err
    # nor does --k: classify falls back to its default 1,2,3
    assert run(capsys, "show", "sym:3", "--k", "1")[0] == 0
    code, out, _ = run(capsys, "classify", "sym:3")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == (
        ["k=1"] * 4 + ["k=2"] * 4 + ["k=3"] * 4)
    # a usage error leaves later calls unaffected
    assert run(capsys, "check", "nosuch", "sym:4")[0] == 2
    assert run(capsys, "classify", "sym:3", "--k", "2")[0] == 0


def _subparsers(top):
    return next(a for a in top._actions
                if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("columns", ["40", "200"])
def test_help_wraps_to_terminal_width(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    top = cli.build_parser()
    parsers = [top, *_subparsers(top).choices.values()]
    helps = [p.format_help() for p in parsers]
    for p in parsers:  # argparse's own formatter, width looked up per use
        p.formatter_class = argparse.HelpFormatter
    assert [p.format_help() for p in parsers] == helps


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["-x"], ["nosuch"], ["SHOW", "sym:3"],
    ["sh", "sym:3"], ["show", "-h"], ["check", "-h"], ["classify", "-h"],
    ["verify", "-h"], ["corpus", "-h"], ["export-lattice", "-h"],
    ["-h", "check"], ["check", "--help", "modular"], ["show"], ["check"],
    ["check", "modular"], ["check", "nosuch", "sym:3"],
    ["check", "modular", "sym:3", "--k", "x"], ["verify"], ["corpus"],
    ["corpus", "lst"], ["export-lattice"], ["--", "show", "sym:3"],
    ["show", "--", "sym:3"], ["show", "sym:3", "--bogus"],
    ["show", "sym:3", "extra"], ["check", "k-lm", "sym:3", "--k", "0"],
    ["check", "modular", "sym:3", "--gens", "(1 2)"],
    ["show", "--k", "1", "sym:3"], ["classify", "sym:3", "--k", "2"],
    ["export-lattice", "sym:3", "--emit-dot"],
    ["corpus", "list", "--cap", "6"], ["verify", "--suite", "T9.9"],
    ["check", "modular", "sym:3", "--ge", "(1 2)"], ["show", "sym:3", "--k=2"],
    ["check", "modular", "sym:3", "--gens"], ["show", "sym:3", "-k", "2"],
    ["check", "k-submodular", "sym:4", "--gens", "(1 2)", "--k", "2",
     "--bogus", "x"],
])
def test_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch,
                                                       argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = run(capsys, *argv)
    # the reference: the top-level parser with all six commands, whole argv
    monkeypatch.setattr(cli, "parse_args",
                        lambda argv: cli.build_parser().parse_args(argv))
    assert run(capsys, *argv) == got


# the well-formed command lines of CI's "Installed console script" step, and
# the forms of the benchmark's query pool: each is read without argparse
POOL_SPEC = '{"args": [5], "kind": "named", "name": "holomorph_cyclic"}'


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "R1,R2", "--k", "1", "--cap", "24"],
    ["verify", "--suite", "R1,R2", "--k", "1", "--cap", "24",
     "--out", "report.json"],
    ["verify", "--suite", "L", "--k", "1,2", "--cap", "42"],
    ["verify", "--suite", "P3.1,T3.5,T3.6", "--k", "1,2", "--cap", "60"],
    ["show", "sym:4"], ["show", "sym:3", "--k", "2"],
    ["check", "k-lm", "holomorph_cyclic:5", "--k", "2"],
    ["check", "k-submodular", "holomorph_cyclic:5", "--gens", "(2 3 5 4)",
     "--k", "2"],
    ["check", "p-subnormal", "sym:4", "--gens", "(1 2 3)"],
    ["check", "submodular", "sym:4", "--gens", "(1 2 3)"],
    ["check", "kp-subnormal", "sym:4", "--gens", "(1 2)(3 4)",
     "--gens", "(1 3)(2 4)"],
    ["check", "modular", "sym:4", "--gens", "(1 2)"],
    ["export-lattice", "sym:4", "--emit-dot", "--k", "1"],
    ["show", "sym:3", "--k", "1,a"], ["corpus", "list", "--cap", "24"],
    ["corpus", "list"], ["show", "deep.json"], ["show", "cyclic:1"],
    ["show", '{"kind": "generators", "degree": 3, "cycles": ["(1 2)"], '
             '"name": [1]}'],
    ["check", "k-submodular", POOL_SPEC, "--gens", "(1 2 3 4 5)",
     "--gens", "(2 3 5 4)", "--k", "3"],
    ["check", "n-modular-embedded", POOL_SPEC, "--gens", "(2 4)(3 5)",
     "--n", "2"],
    ["check", "kp-subnormal", POOL_SPEC, "--gens", "(1 2 3 4 5)"],
    ["check", "k-lm", POOL_SPEC, "--k", "1"],
    ["classify", POOL_SPEC, "--k", "1,3"], ["show", POOL_SPEC, "--k", "1,2,3"],
])
def test_reader_reads_well_formed_argv(argv):
    got = cli.read_argv(argv)
    assert got is not None
    assert vars(got) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["show", "-h"], ["check", "--help", "modular"],
    ["SHOW", "sym:3"], ["show", "sym:3", "--k=2"], ["show", "--", "sym:3"],
    ["check", "modular", "sym:4", "--ge", "(1 2)"],
    ["check", "n-modular-embedded", "sym:3", "--gens", "(1 2)", "--n", "-1"],
    ["show"], ["show", "sym:3", "extra"], ["show", "sym:3", "--bogus"],
    ["show", "sym:3", "--k"], ["check", "nosuch", "sym:3"],
    ["check", "k-lm", "sym:3", "--k", "x"], ["verify", "--k", "1"],
])
def test_reader_leaves_the_rest_to_argparse(argv):
    assert cli.read_argv(argv) is None


def test_parser_for_one_command_builds_only_it():
    p = cli.build_parser("check")
    assert p.prog == "grouplab check"
    assert not any(isinstance(a, argparse._SubParsersAction)
                   for a in p._actions)
    assert [a.dest for a in p._actions] == [
        "help", "predicate", "group", "gens", "k", "n"]
    assert list(_subparsers(cli.build_parser()).choices) == list(cli.COMMANDS)


@pytest.mark.parametrize("columns", [None, "0", "-5", "abc", "120"])
def test_columns_as_shutil_reads_them(monkeypatch, columns):
    import shutil
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert cli._columns() == shutil.get_terminal_size().columns


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _python(code, *args, flags=("-I",), **popen_kw):
    """A fresh isolated interpreter that imports grouplab from SRC."""
    return subprocess.Popen(
        [sys.executable, *flags, "-c",
         f"import sys; sys.path.insert(0, {SRC!r}); {code}", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen_kw)


def test_show_does_not_import_harness():
    proc = _python("from grouplab import cli; cli.main(['show', 'sym:3']); "
                   "assert 'grouplab.harness' not in sys.modules; "
                   "assert 'grouplab.classes' not in sys.modules")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()
    assert out.startswith(b"group S3: order 6")


def test_one_shot_commands_import_no_heavy_stdlib():
    # -S keeps the site module out, which on some hosts imports typing itself;
    # the layers are the benchmark's import probe, the queries two commands
    proc = _python(
        "import grouplab.permgroup, grouplab.lattice, grouplab.structure; "
        "import grouplab.classes, grouplab.submodular, grouplab.harness; "
        "from grouplab import cli; cli.main(['show', 'sym:3']); "
        "cli.main(['check', 'k-submodular', 'holomorph_cyclic:5', "
        "'--gens', '(2 3 5 4)', '--k', '2']); "
        "heavy = {'dataclasses', 'typing', 'inspect', 'shutil'} "
        "& set(sys.modules); "
        "assert not heavy, sorted(heavy)", flags=("-I", "-S"))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()
    assert out.startswith(b"group S3: order 6")
    assert b"k-submodular(['(2 3 5 4)'], |H|=4) in Hol(Z5): True" in out


def test_engine_imports_no_re_json_or_argparse():
    # each loads only on the path that uses it: re for cycle text, json for
    # spec files and reports, argparse (and gettext) for help and usage
    # errors; re loads enum.  The layers are the benchmark's import probe
    proc = _python(
        "lazy = {'re', 'json', 'argparse', 'enum', 'gettext'}; "
        "import grouplab.permgroup, grouplab.lattice, grouplab.structure; "
        "import grouplab.classes, grouplab.submodular, grouplab.harness; "
        "from grouplab import cli, harness; "
        "assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules)); "
        "harness.run_suite('R1', [1], harness.build_corpus("
        "harness.CorpusConfig(cap=12))); "
        "assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules)); "
        "cli.main(['show', 'sym:3']); "
        "assert 'json' not in sys.modules; "
        # a well-formed command line is read without argparse
        "cli.main(['classify', 'sym:3', '--k', '1,2']); "
        "assert not {'argparse', 'gettext'} & set(sys.modules); "
        "sys.exit(cli.main(['show', 'sym:3', '--bogus']))", flags=("-I", "-S"))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2, err.decode()
    assert out.startswith(b"group S3: order 6")
    assert b"k=2 class F: True" in out
    assert err == b"error: grouplab: unrecognized arguments: --bogus\n"


def test_closed_stdout_exits_141():
    # the DOT of S4xS3 (85 KB) outgrows a pipe buffer, so the command is
    # still writing when the reader closes the pipe after one line
    spec = json.dumps({"kind": "direct", "parts": [
        {"kind": "named", "name": "sym", "args": [4]},
        {"kind": "named", "name": "sym", "args": [3]}]})
    proc = _python("from grouplab.cli import main; sys.exit(main())",
                   "export-lattice", spec, "--emit-dot")
    assert proc.stdout.readline() == b"digraph lattice {\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_degree_too_large_to_allocate_exits_2():
    # the identity of degree 10**12 needs 8 TB; the child alone gets 2 GB
    # of address space, so the allocation fails at once
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    spec = json.dumps({"kind": "generators", "degree": 10**12,
                       "cycles": ["(1 2)"]})
    proc = _python("from grouplab.cli import main; sys.exit(main())",
                   "show", spec, preexec_fn=limit_memory)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2, err.decode()
    assert out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
