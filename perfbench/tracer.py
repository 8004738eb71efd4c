"""Span tracing for the traced benchmark run, installed from outside the program.

`install(tracer)` wraps the public functions of every grouplab layer
(permgroup, lattice, structure, classes, submodular, harness, cli) at every
name that binds them, so a function imported by name into another module
(for example `quotient_cached` into harness, classes and submodular) is
traced at each call site.  Each wrapped call records one span: layer-qualified
name, start, end, parent span and the work item it belongs to.  Spans stay in
flat arrays in memory and are written out once, at the end of the run.

Self time is a span's duration minus the durations of its child spans.
Children nest strictly inside their parent (one thread), so that equals the
duration minus the part of the interval the children cover.

Functions called millions of times per run (`leq`, `meet`, `join`, the
`mult` property on a built table) are not wrapped; their cost stays in the
caller's self time.
"""
from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

CHILD_MISS = "children"


class Tracer:
    """Span recorder.  One instance per traced run, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.grew = array("b")  # cache-size rule: the call grew the cache
        self.item_id = -1
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []  # indices of the open spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, size_of=None, after=None):
        """Wrapper recording one span per call of `fn`.

        `size_of(args)` gives the size of the cache the call may fill; the
        span is marked when the call grew it.  `after(args, result)` runs
        after a successful call, outside the span.
        """
        nid = self.name_id(name)
        stack = self._stack
        names, parents, items, grew = (self.name, self.parent, self.item,
                                       self.grew)
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item_id)
            ends.append(0.0)
            grew.append(0)
            before = size_of(args) if size_of is not None else 0
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if size_of is not None:
                    grew[idx] = size_of(args) > before
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[array, array]:
        """Per span: self seconds, and whether it has child spans."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        has_child = array("b", bytes(n))
        for s, e, par in zip(self.start, self.end, self.parent):
            if par >= 0:
                child[par] += e - s
                has_child[par] = 1
        selfs = array("d", (e - s - c for s, e, c in
                            zip(self.start, self.end, child)))
        return selfs, has_child

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, misses.

        A miss is a call of a name in MISS_RULES: one that grew its cache
        (size rule) or one whose span has child spans (CHILD_MISS).
        """
        selfs, has_child = self.self_times()
        rules = [MISS_RULES.get(n) for n in self.names]
        out = {n: {"calls": 0, "self_s": 0.0, "misses": 0}
               for n in self.names}
        rows = [out[n] for n in self.names]
        for nid, st, g, hc in zip(self.name, selfs, self.grew, has_child):
            row = rows[nid]
            row["calls"] += 1
            row["self_s"] += st
            rule = rules[nid]
            if rule is not None and (g if rule != CHILD_MISS else hc):
                row["misses"] += 1
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Number of `child` spans whose parent span is a `parent` span."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        names = self.name
        return sum(1 for nid, par in zip(names, self.parent)
                   if nid == cid and par >= 0 and names[par] == pid)

    def item_totals(self, name: str) -> dict[int, float]:
        """Inclusive seconds of `name` spans, per work item."""
        nid = self._ids.get(name)
        out: dict[int, float] = {}
        if nid is None:
            return out
        for n, s, e, it in zip(self.name, self.start, self.end, self.item):
            if n == nid:
                out[it] = out.get(it, 0.0) + (e - s)
        return out

    def write(self, directory: str) -> None:
        """Write every span as flat binary columns plus a JSON header."""
        os.makedirs(directory, exist_ok=True)
        columns = {"name": self.name, "start": self.start, "end": self.end,
                   "parent": self.parent, "item": self.item}
        for col, arr in columns.items():
            with open(os.path.join(directory, col + ".bin"), "wb") as fh:
                arr.tofile(fh)
        header = {"spans": len(self.start), "names": self.names,
                  "columns": {c: a.typecode for c, a in columns.items()},
                  "byteorder": sys.byteorder, "counts": self.counts}
        with open(os.path.join(directory, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


def load_spans(directory: str) -> dict:
    """Read a span directory written by `Tracer.write` back into arrays."""
    with open(os.path.join(directory, "spans.json"), encoding="utf-8") as fh:
        header = json.load(fh)
    cols = {}
    for col, code in header["columns"].items():
        arr = array(code)
        with open(os.path.join(directory, col + ".bin"), "rb") as fh:
            arr.fromfile(fh, header["spans"])
        if header["byteorder"] != sys.byteorder:
            arr.byteswap()
        cols[col] = arr
    header["data"] = cols
    return header


# -- installation ------------------------------------------------------------

# (module, function) pairs wrapped wherever a grouplab module binds them.
FUNCTIONS = {
    "permgroup": ("generate", "quotient", "quotient_cached"),
    "lattice": ("all_subgroups",),
    "structure": ("chief_factor_pairs_in", "chief_factors_in",
                  "is_supersoluble_in", "is_quotient_nilpotent",
                  "normal_ids_in", "sylow_in"),
    "classes": ("residual_mask", "f_subnormal_set", "p_subnormal_set",
                "in_local_formation", "in_wF"),
    "submodular": ("step_kind", "ksub_set", "submodular_set",
                   "is_modular_subgroup", "is_k_submodular",
                   "is_k_LM_group", "in_class"),
    "harness": ("build_corpus", "run_suite"),
    "cli": ("main",),
}

# (module, class, method, span name) wrapped on the class itself.
METHODS = (
    ("permgroup", "FiniteGroup", "closure_mask", "permgroup.closure_mask"),
    ("permgroup", "FiniteGroup", "conjugate_mask", "permgroup.conjugate_mask"),
    ("permgroup", "FiniteGroup", "lattice", "lattice.group_lattice"),
    ("permgroup", "Epimorphism", "verify", "permgroup.epi_verify"),
    ("lattice", "SubgroupLattice", "__init__", "lattice.init"),
    ("lattice", "SubgroupLattice", "normalizer", "lattice.normalizer"),
    ("lattice", "SubgroupLattice", "core", "lattice.core"),
    ("lattice", "SubgroupLattice", "conjugates", "lattice.conjugates"),
    ("lattice", "SubgroupLattice", "subgroup_as_group",
     "lattice.subgroup_as_group"),
)

SPAN_NAMES = ([f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
              + [span for *_, span in METHODS] + ["permgroup.mult_build"])

# A call of a cached function is a miss when its span has child spans that do
# the work (CHILD_MISS: a `normalizer` span with `conjugate_mask` children),
# or, where a size function is given, when the call grew that cache.
MISS_RULES = {
    "permgroup.quotient_cached": CHILD_MISS,
    "lattice.group_lattice": CHILD_MISS,
    "lattice.normalizer": CHILD_MISS,
    "lattice.subgroup_as_group": CHILD_MISS,
    "submodular.step_kind": lambda args: len(args[0].step_kind_cache),
    "submodular.ksub_set": lambda args: len(args[0].ksub_reach),
}


def _size_rule(span: str):
    rule = MISS_RULES.get(span)
    return rule if callable(rule) else None


def _grouplab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "grouplab" or n.startswith("grouplab."))]


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every traced function at every binding site.

    Returns {span name: [binding sites]}.  Raises RuntimeError if any
    grouplab module still holds an unwrapped original afterwards.
    """
    import grouplab.cli  # noqa: F401  (loads every layer)

    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _grouplab_modules()}
    originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper, span)
    sites: dict[str, list[str]] = {}

    after = {
        "lattice.all_subgroups":
            lambda args, L: tracer.count("lattice.subgroups", len(L)),
        "lattice.init":
            lambda args, _: tracer.count(
                "lattice.cover_edges", sum(len(u) for u in args[0].hasse_up)),
        "cli.main":
            lambda args, code: tracer.count("cli.exit2", int(code == 2)),
    }
    for modname, fnames in FUNCTIONS.items():
        for fname in fnames:
            span = f"{modname}.{fname}"
            orig = getattr(mods[modname], fname)
            wrapper = tracer.wrap(span, orig, size_of=_size_rule(span),
                                  after=after.get(span))
            originals[id(orig)] = (orig, wrapper, span)
            sites[span] = []
    for modname, cls_name, meth, span in METHODS:
        cls = getattr(mods[modname], cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(span, orig, size_of=_size_rule(span),
                                       after=after.get(span)))
        sites[span] = [f"{modname}.{cls_name}.{meth}"]

    # first build of the multiplication table; later reads are not spans
    fg = mods["permgroup"].FiniteGroup
    mult_prop = fg.__dict__["mult"]
    build = tracer.wrap("permgroup.mult_build", mult_prop.fget)
    read = mult_prop.fget

    def mult(self):
        return build(self) if self._mult is None else read(self)

    fg.mult = property(mult, doc=mult_prop.__doc__)
    sites["permgroup.mult_build"] = ["permgroup.FiniteGroup.mult"]

    for mod in _grouplab_modules():
        for attr, val in list(vars(mod).items()):
            hit = originals.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                sites[hit[2]].append(f"{mod.__name__}.{attr}")
    stale = [f"{mod.__name__}.{attr}"
             for mod in _grouplab_modules()
             for attr, val in vars(mod).items()
             if id(val) in originals and originals[id(val)][0] is val]
    if stale:
        raise RuntimeError(f"unwrapped binding sites remain: {stale}")
    return sites
