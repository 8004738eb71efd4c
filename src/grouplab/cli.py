"""Command-line frontend.

Commands: show, check, classify, verify, corpus list, export-lattice.
Exit codes: 0 success / predicate true / all suites pass, 1 predicate false
or suite failure, 2 usage or input error, 141 stdout closed early.

Each command's grammar is one row of `COMMANDS`.  A well-formed command line
is read straight from that row (`read_argv`); argparse, built from the same
rows, answers the rest: help, the forms the reader leaves to it, and every
usage error, so it alone writes help and error text.
"""
from __future__ import annotations

import functools
import os
import sys
import types

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


def _corpus_cap() -> int:
    """--cap's default, read from harness when a parser or a reading needs it,
    so that importing the module does not load harness."""
    from . import harness
    return harness.DEFAULT_CORPUS_CAP


# name -> (help, arguments, command).  Each argument is (name or flag, its
# add_argument keywords), in the parser's order; a callable default is called
# afresh for every parser and every reading, so no two calls share a --gens
# list.
COMMANDS = {
    "show": ("summarize a group", (
        ("group", {"help": "spec: JSON, file path, or builder:args"}),
        ("--k", {"default": "1,2,3", "help": "comma-separated k values"}),
    ), cmd_show),
    "check": ("evaluate a subgroup predicate", (
        ("predicate", {"choices": PREDICATES}),
        ("group", {}),
        ("--gens", {"action": "append", "default": list, "help":
                    "subgroup generator in cycle notation (repeatable)"}),
        ("--k", {"type": int, "default": 1}),
        ("--n", {"type": int, "default": 1}),
    ), cmd_check),
    "classify": ("class memberships of a group", (
        ("group", {}),
        ("--k", {"default": "1,2,3"}),
    ), cmd_classify),
    "verify": ("run verification suites", (
        ("--suite", {"required": True,
                     "help": "comma-separated suite ids, e.g. T3.1,T3.2"}),
        ("--k", {"default": "1,2,3"}),
        ("--cap", {"type": int, "default": _corpus_cap}),
        ("--out", {"help": "write JSON report to this path"}),
    ), cmd_verify),
    "corpus": ("corpus inspection", (
        ("action", {"choices": ["list"]}),
        ("--cap", {"type": int, "default": _corpus_cap}),
    ), cmd_corpus),
    "export-lattice": ("emit the subgroup lattice", (
        ("group", {}),
        ("--emit-dot", {"action": "store_true"}),
        ("--k", {"type": int, "default": None,
                 "help": "shade subgroups k-submodular in the group"}),
        ("--out", {}),
    ), cmd_export_lattice),
}


def _arguments(name: str):
    """Command `name`'s (name or flag, keywords) rows, defaults made."""
    for arg, kw in COMMANDS[name][1]:
        default = kw.get("default")
        yield arg, {**kw, "default": default()} if callable(default) else kw


def build_parser(name: str | None = None):
    """Command `name`'s parser alone, or with no name all six as subparsers."""
    def add_arguments(p, name):
        for arg, kw in _arguments(name):
            p.add_argument(arg, **kw)
        return p

    if name:
        return add_arguments(_parser(prog=f"grouplab {name}"), name)
    top = _parser(prog="grouplab",
                  description="finite-group engine for submodularity analysis")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_parser)
    for cmd, (help_, _, _) in COMMANDS.items():
        add_arguments(sub.add_parser(cmd, help=help_), cmd)
    return top


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _value(kw: dict, text: str):
    """`text` converted and checked as argparse does; ValueError where
    argparse would report an error or read `text` as an option."""
    if text.startswith("-"):
        raise ValueError(text)
    value = kw["type"](text) if "type" in kw else text
    if "choices" in kw and value not in kw["choices"]:
        raise ValueError(text)
    return value


def read_argv(argv: list[str]):
    """A well-formed `argv` read straight from `COMMANDS`, without argparse:
    a namespace with the attributes argparse's would have.  Well formed is a
    command name, exactly its positionals, and its flags spelled out, each
    but a store_true flag followed by a value that does not start with '-',
    every value one that the argument's type and choices accept, every
    required flag given.  None for anything else (-h, --, --k=2, `--ge` for
    `--gens`, negative numbers, every error): argparse answers those."""
    if not argv or argv[0] not in COMMANDS:
        return None
    rows = dict(_arguments(argv[0]))
    got = {"command": argv[0]}
    for arg, kw in rows.items():
        if arg.startswith("-"):
            got[_dest(arg)] = kw.get(
                "default", False if kw.get("action") == "store_true" else None)
    positionals = [arg for arg in rows if not arg.startswith("-")]
    required = {arg for arg, kw in rows.items() if kw.get("required")}
    given = []
    tokens = iter(argv[1:])
    try:
        for tok in tokens:
            if not tok.startswith("-"):
                given.append(tok)
                continue
            kw = rows[tok]  # KeyError: -h, --, --k=2, abbreviations, unknown
            dest = _dest(tok)
            required.discard(tok)
            if kw.get("action") == "store_true":
                got[dest] = True
                continue
            value = _value(kw, next(tokens, "-"))
            got[dest] = ([*got[dest], value] if kw.get("action") == "append"
                         else value)
        if required or len(given) != len(positionals):
            return None
        for arg, text in zip(positionals, given):
            got[arg] = _value(rows[arg], text)
    except (KeyError, ValueError):
        return None
    return types.SimpleNamespace(**got)


def parse_args(argv: list[str]):
    """The parsed `argv`: read from `COMMANDS` when it is well formed, else
    argparse's Namespace, help or usage error."""
    args = read_argv(argv)
    if args is not None:
        return args
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
