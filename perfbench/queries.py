"""The cli-queries stream: argv lists for `grouplab.cli.main`, nothing else.

The query pool is fixed: every pinned corpus spec gets the same thirteen
query slots (nine `check` predicates on one or two random elements, one
`check k-lm`, two `classify`, one `show`: about 70/8/15/7 percent), and each
slot has two variants that differ in the random elements, k, n and k lists.
A workload seed picks one variant per slot and the order of the stream, so
every seed runs the same command mix on the same groups, and the reference
stdout digest of each pool entry is pinned in reference.json.

Building the pool calls the program (group construction, to draw elements as
random words in each group's generators); callers do that before timing and
outside set-up.
"""
from __future__ import annotations

import json
import random

POOL_SEED = 20240604
VARIANTS = 2

# (subcommand argv prefix, argument kind) per slot
SLOTS = (
    (["check", "k-submodular"], "gens+k"),
    (["check", "k-submodular"], "gens+k"),
    (["check", "k-submodular"], "gens+k"),
    (["check", "modular"], "gens"),
    (["check", "submodular"], "gens"),
    (["check", "n-modular-embedded"], "gens+n"),
    (["check", "n-modular-embedded"], "gens+n"),
    (["check", "p-subnormal"], "gens"),
    (["check", "kp-subnormal"], "gens"),
    (["check", "k-lm"], "k"),
    (["classify"], "klist"),
    (["classify"], "klist"),
    (["show"], "klist"),
)


def _word(G, rng: random.Random) -> str:
    """Cycle string of a random word of length 1..4 in G's generators."""
    from grouplab.permgroup import Permutation

    x = Permutation.identity(G.degree)
    for _ in range(rng.randint(1, 4)):
        if G.generators:
            x = x * rng.choice(G.generators)
    return x.cycle_string()


def _query(spec_text: str, G, slot: int, rng: random.Random) -> list[str]:
    prefix, kind = SLOTS[slot]
    argv = prefix + [spec_text]
    if kind.startswith("gens"):
        for _ in range(rng.randint(1, 2)):
            argv += ["--gens", _word(G, rng)]
    if kind.endswith("+k") or kind == "k":
        argv += ["--k", str(rng.randint(1, 3))]
    if kind.endswith("+n"):
        argv += ["--n", str(rng.randint(1, 3))]
    if kind == "klist":
        ks = sorted(rng.sample((1, 2, 3), rng.randint(1, 3)))
        argv += ["--k", ",".join(map(str, ks))]
    return argv


def command(argv: list[str]) -> str:
    """The query's kind, as the report groups latencies: `check`,
    `check k-lm`, `classify` or `show`."""
    return "check k-lm" if argv[:2] == ["check", "k-lm"] else argv[0]


def build_pool(specs: list[list]) -> list[list[str]]:
    """Every (spec, slot, variant) argv, in that nesting order."""
    from grouplab.permgroup import group_from_spec

    rng = random.Random(POOL_SEED)
    pool = []
    for _name, spec in specs:
        text = json.dumps(spec, sort_keys=True)
        G = group_from_spec(spec)
        for slot in range(len(SLOTS)):
            for _ in range(VARIANTS):
                pool.append(_query(text, G, slot, rng))
    return pool


def stream(pool_size: int, seed: int) -> list[int]:
    """Pool indices of the seeded stream: one variant per slot, shuffled."""
    rng = random.Random(seed)
    picks = [base + rng.randrange(VARIANTS)
             for base in range(0, pool_size, VARIANTS)]
    rng.shuffle(picks)
    return picks
