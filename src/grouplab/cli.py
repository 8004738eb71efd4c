"""Command-line frontend.

Commands: show, check, classify, verify, corpus list, export-lattice.
Exit codes: 0 success / predicate true / all suites pass, 1 predicate false
or suite failure, 2 usage or input error, 141 stdout closed early.
"""
from __future__ import annotations

import functools
import os
import sys

from .permgroup import (FiniteGroup, GroupError, ParseError, Permutation,
                        group_from_spec)
from . import structure, submodular

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: stdout was closed before the output ended


def _load_spec(text: str) -> dict:
    """Inline JSON, a JSON file path, or builder shorthand like 'sym:4'.
    json is imported for the first two alone.  What cannot be read as JSON
    (bad syntax, bytes that are not UTF-8, an integer past Python's digit
    limit) raises ParseError with the decoder's text."""
    text = text.strip()
    inline = text.startswith(("{", "["))
    if inline or os.path.exists(text):
        import json
        try:
            if inline:
                return json.loads(text)
            with open(text, encoding="utf-8") as fh:
                return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ParseError(str(exc)) from exc
    name, _, args = text.partition(":")
    if not name:
        raise ParseError(f"cannot interpret group spec {text!r}")
    try:
        arglist = [int(a) for a in args.split(",") if a]
    except ValueError as exc:
        raise ParseError(f"builder arguments must be integers in {text!r}") from exc
    return {"kind": "named", "name": name, "args": arglist}


def _group(text: str) -> FiniteGroup:
    """Load and build a spec; running out of stack or memory here is bad input."""
    try:
        return group_from_spec(_load_spec(text))
    except (RecursionError, MemoryError) as exc:
        raise ParseError(f"group spec too deep or too large "
                         f"({type(exc).__name__})") from None


def _subgroup(G: FiniteGroup, gens: list[str]):
    L = G.lattice()
    ordinals = []
    for cyc in gens:
        idx = G.element_index.get(Permutation.parse(cyc, G.degree))
        if idx is None:
            raise GroupError(f"generator {cyc!r} is not an element of {G.name}")
        ordinals.append(idx)
    return L.subgroups[L.generated(ordinals)]


def _ks(raw: str) -> list[int]:
    try:
        out = sorted({int(x) for x in raw.split(",") if x})
    except ValueError as exc:
        raise GroupError(f"bad k list {raw!r}") from exc
    if not out or min(out) < 1:
        raise GroupError("k values must be integers >= 1")
    return out


def cmd_show(args) -> int:
    ks, G = _ks(args.k), _group(args.group)  # a bad k list prints nothing
    L = G.lattice()
    print(f"group {G.name}: order {G.order}, primes {list(G.prime_divisors())}")
    print(f"  abelian={G.is_abelian()} cyclic={G.is_cyclic()} "
          f"exponent={G.exponent()}")
    print(f"  soluble={structure.is_soluble(G)} "
          f"supersoluble={structure.is_supersoluble(G)} "
          f"nilpotent={structure.is_nilpotent(G)} "
          f"ore_dispersive={structure.is_ore_dispersive(G)}")
    print(f"  subgroups: {len(L)}")
    normals = structure.normal_subgroups(G)
    print(f"  normal subgroups ({len(normals)}): orders "
          f"{[n.order for n in normals]}")
    for cf in structure.chief_factors(G):
        print(f"  chief factor {cf.above.order}/{cf.below.order}: order "
              f"{cf.order}, complemented={cf.complemented}, "
              f"|centralizer|={cf.centralizer.order}")
    for k in ks:
        marks = {c: submodular.in_class(L, c, k) for c in submodular.CLASS_IDS}
        print(f"  k={k}: " + " ".join(f"{c}={v}" for c, v in marks.items()))
    return EXIT_TRUE


PREDICATES = ("modular", "submodular", "k-submodular", "n-modular-embedded",
              "p-subnormal", "kp-subnormal", "k-lm")


def cmd_check(args) -> int:
    if args.k < 1:
        raise GroupError("k must be >= 1")
    G = _group(args.group)
    L = G.lattice()
    pred = args.predicate
    if pred == "k-lm":
        ok, cex = submodular.is_k_LM_group(L, args.k)
        print(f"{G.name} is {'' if ok else 'not '}a {args.k}-LM group")
        if cex is not None:
            A, B = (L.subgroups[i] for i in cex)
            print(f"  counterexample pair: orders {A.order}, {B.order}; "
                  f"generators {A.gen_cycles()} / {B.gen_cycles()}")
        return EXIT_TRUE if ok else EXIT_FALSE
    if not args.gens:
        raise GroupError(f"predicate {pred!r} needs --gens")
    H = _subgroup(G, args.gens)
    if pred == "modular":
        ok = submodular.is_modular_subgroup(L, H.id)
    elif pred == "submodular":
        ok = H.id in submodular.submodular_set(L)
    elif pred == "k-submodular":
        ok, chain = submodular.is_k_submodular(L, H.id, args.k)
        if ok:
            print("witness chain:")
            for a, b in zip(chain, chain[1:]):
                n = submodular.step_kind(L, a, b)
                print(f"  |{L.subgroups[a].order}| -> |{L.subgroups[b].order}|"
                      f"  [{f'n={n}' if n else 'normal'}]")
    elif pred == "n-modular-embedded":
        ok = submodular.is_n_modularly_embedded(L, H.id, L.top.id, args.n)
    else:  # "p-subnormal" or "kp-subnormal"; argparse admits only PREDICATES
        from . import classes
        ok = H.id in classes.p_subnormal_set(L, pred == "kp-subnormal")
    print(f"{pred}({H.gen_cycles()}, |H|={H.order}) in {G.name}: {ok}")
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_classify(args) -> int:
    ks, L = _ks(args.k), _group(args.group).lattice()
    for k in ks:
        for c in submodular.CLASS_IDS:
            print(f"k={k} class {c}: {submodular.in_class(L, c, k)}")
    return EXIT_TRUE


def cmd_verify(args) -> int:
    from . import harness
    suites, ks = [s for s in args.suite.split(",") if s], _ks(args.k)
    if not suites:
        raise GroupError("--suite needs one or more suite ids")
    for s in suites:
        if s not in harness.SUITE_IDS:
            raise GroupError(f"unknown suite {s!r}")
    corpus = harness.build_corpus(harness.CorpusConfig(cap=args.cap))
    reports = [harness.run_suite(s, ks, corpus) for s in suites]
    if args.out:
        harness.report_to_file(reports, args.out)
    for rep in reports:
        s = rep.summary()
        print(f"suite {rep.suite} k={rep.k_set}: "
              f"{s['passed']}/{s['total']} records pass, "
              f"suite_pass={rep.passed}")
    return EXIT_TRUE if all(rep.passed for rep in reports) else EXIT_FALSE


def cmd_corpus(args) -> int:
    from . import harness
    corpus = harness.build_corpus(harness.CorpusConfig(cap=args.cap))
    for e in corpus:
        print(f"{e.name:24s} {' '.join(e.tags())}")
    print(f"total: {len(corpus)} entries")
    return EXIT_TRUE


def cmd_export_lattice(args) -> int:
    if not args.emit_dot:
        raise GroupError("export-lattice requires --emit-dot")
    dot = submodular.lattice_dot(_group(args.group).lattice(), k=args.k)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    else:
        print(dot)
    return EXIT_TRUE


def _columns() -> int:
    """`shutil.get_terminal_size().columns`, without importing shutil."""
    try:
        cols = int(os.environ.get("COLUMNS", 0))
    except ValueError:
        cols = 0
    try:  # stdout may be None, closed or not a terminal
        return cols if cols > 0 else os.get_terminal_size(
            sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):
        return 80


def _parser(**kw):
    """An ArgumentParser whose usage errors raise ParseError, so `main`
    reports them on one `error:` line and returns 2 instead of argparse
    printing usage and exiting.  Help wraps to `_columns()` less argparse's
    2-column margin, looked up once per parser: a HelpFormatter would import
    shutil, once per argument.  argparse is imported here, so that importing
    the module does not load it."""
    import argparse
    p = argparse.ArgumentParser(formatter_class=functools.partial(
        argparse.HelpFormatter, width=_columns() - 2), **kw)

    def error(message: str):
        raise ParseError(f"{p.prog}: {message}")

    p.error = error
    return p


def _show_args(p):
    p.add_argument("group", help="spec: JSON, file path, or builder:args")
    p.add_argument("--k", default="1,2,3", help="comma-separated k values")


def _check_args(p):
    p.add_argument("predicate", choices=PREDICATES)
    p.add_argument("group")
    p.add_argument("--gens", action="append", default=[],
                   help="subgroup generator in cycle notation (repeatable)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=1)


def _classify_args(p):
    p.add_argument("group")
    p.add_argument("--k", default="1,2,3")


def _verify_args(p):
    from . import harness
    p.add_argument("--suite", required=True,
                   help="comma-separated suite ids, e.g. T3.1,T3.2")
    p.add_argument("--k", default="1,2,3")
    p.add_argument("--cap", type=int, default=harness.DEFAULT_CORPUS_CAP)
    p.add_argument("--out", help="write JSON report to this path")


def _corpus_args(p):
    from . import harness
    p.add_argument("action", choices=["list"])
    p.add_argument("--cap", type=int, default=harness.DEFAULT_CORPUS_CAP)


def _export_args(p):
    p.add_argument("group")
    p.add_argument("--emit-dot", action="store_true")
    p.add_argument("--k", type=int, default=None,
                   help="shade subgroups k-submodular in the group")
    p.add_argument("--out")


COMMANDS = {  # name -> (help, function adding its arguments, command)
    "show": ("summarize a group", _show_args, cmd_show),
    "check": ("evaluate a subgroup predicate", _check_args, cmd_check),
    "classify": ("class memberships of a group", _classify_args, cmd_classify),
    "verify": ("run verification suites", _verify_args, cmd_verify),
    "corpus": ("corpus inspection", _corpus_args, cmd_corpus),
    "export-lattice": ("emit the subgroup lattice", _export_args,
                       cmd_export_lattice),
}


def build_parser(name: str | None = None):
    """Command `name`'s parser alone, or with no name all six as subparsers."""
    if name:
        p = _parser(prog=f"grouplab {name}")
        COMMANDS[name][1](p)
        return p
    top = _parser(prog="grouplab",
                  description="finite-group engine for submodularity analysis")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_parser)
    for cmd, (help_, add_args, _) in COMMANDS.items():
        add_args(sub.add_parser(cmd, help=help_))
    return top


def parse_args(argv: list[str]):
    """The argparse.Namespace of `argv`."""
    if not argv or argv[0] not in COMMANDS:  # help, typos: the full parser
        return build_parser().parse_args(argv)
    import argparse
    args, extra = build_parser(argv[0]).parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extra:  # worded as the top-level parser words them
        raise ParseError(f"grouplab: unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        code = COMMANDS[args.command][2](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # reader gone: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (GroupError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
