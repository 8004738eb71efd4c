"""Verification harness: corpus construction, per-theorem suites, lemma
property suites, witness search and JSON reports.

Suites evaluate every variant of an equivalence independently (no
short-circuiting), so a genuine discrepancy in one characterization is
observable rather than masked by another.  Reports are deterministic for a
fixed corpus and k set; only the elapsed fields vary between runs.
"""
from __future__ import annotations

import json
import math
import time
from collections import Counter
from functools import cache, partial

from .permgroup import (FiniteGroup, GroupError, direct_product, factorize,
                        group_from_spec, named_order, order_cap,
                        prime_power, quotient_cached, set_bits)
from .lattice import Subgroup, SubgroupLattice
from . import classes, structure, submodular

SCHEMA_VERSION = 1

DEFAULT_CORPUS_CAP = 200

# lemma checks walk quotient lattices of quotient lattices; keep those
# entries small so the suite stays tractable
LEMMA_SUITE_MAX_ORDER = 48
LEMMA_SUITE_EXTRA = ("Hol(Z7)",)


class CorpusEntry:
    """One corpus group, built from its JSON spec."""

    __slots__ = ("name", "spec", "group")

    def __init__(self, name: str, spec: dict):
        self.name, self.spec = name, spec
        self.group = group_from_spec(spec)
        self.group.name = name

    @property
    def lattice(self) -> SubgroupLattice:
        return self.group.lattice()

    @property
    def order(self) -> int:
        return self.group.order

    def tags(self) -> list[str]:
        G = self.group
        out = [f"order:{G.order}"]
        if structure.is_soluble(G):
            out.append("soluble")
        if structure.is_supersoluble(G):
            out.append("supersoluble")
        if structure.is_nilpotent(G):
            out.append("nilpotent")
        return out


class CorpusConfig:
    __slots__ = ("cap",)

    def __init__(self, cap: int = DEFAULT_CORPUS_CAP):
        if cap < 2:
            raise GroupError("corpus cap must be at least 2")
        self.cap = cap


def _named(name: str, args: list[int]) -> dict:
    return {"kind": "named", "name": name, "args": args}


def _stock_specs(cap: int) -> list[tuple[str, dict]]:
    out = [(f"Z{n}", _named("cyclic", [n])) for n in range(1, 25)]
    out += [(f"E{p}^{e}", _named("elem_abelian", [p, e]))
            for p, e in ((2, 2), (2, 3), (2, 4), (3, 2), (5, 2))]
    out += [(f"D{n}", _named("dihedral", [n])) for n in range(3, 21)]
    out += [(f"Dic{n}", _named("dicyclic", [n])) for n in range(2, 9)]
    out += [("S3", _named("sym", [3])), ("S4", _named("sym", [4])),
            ("S5", _named("sym", [5])), ("A4", _named("alt", [4])),
            ("A5", _named("alt", [5]))]
    out += [(f"Hol(Z{n})", _named("holomorph_cyclic", [n])) for n in (5, 7, 9)]
    out += [(f"Frob({p},{q}^{n})", _named("frobenius_metacyclic", [p, q, n]))
            for p, q, n in ((5, 2, 2), (7, 2, 1), (7, 3, 1), (13, 3, 1),
                            (13, 2, 2))]
    pairs = [("Z4xZ2", ("cyclic", [4]), ("cyclic", [2])),
             ("Z6xZ2", ("cyclic", [6]), ("cyclic", [2])),
             ("S3xZ2", ("sym", [3]), ("cyclic", [2])),
             ("S3xZ4", ("sym", [3]), ("cyclic", [4])),
             ("S3xS3", ("sym", [3]), ("sym", [3])),
             ("A4xZ2", ("alt", [4]), ("cyclic", [2])),
             ("Q8xZ3", ("dicyclic", [2]), ("cyclic", [3])),
             ("D4xZ2", ("dihedral", [4]), ("cyclic", [2])),
             ("Hol(Z5)xS3", ("holomorph_cyclic", [5]), ("sym", [3]))]
    out += [(name, {"kind": "direct",
                    "parts": [_named(n1, a1), _named(n2, a2)]})
            for name, (n1, a1), (n2, a2) in pairs]
    return [(n, s) for n, s in out if _spec_order(s, cap) <= cap]


def _spec_order(spec: dict, cap: int) -> int:
    """Order of a named/direct spec if at most cap, else a number above cap."""
    if spec["kind"] == "direct":
        return math.prod(_spec_order(p, cap) for p in spec["parts"])
    return named_order(spec["name"], spec["args"], cap)


def build_corpus(config: CorpusConfig | None = None) -> list[CorpusEntry]:
    """The stock families of order at most the cap, sorted by name.  Every
    subgroup type of S4 and S5 is among them (a tier-1 test matches each
    subgroup's isomorphism invariants to an entry), so the corpus needs no
    entries of its own for those."""
    config = config or CorpusConfig()
    return sorted((CorpusEntry(name, spec)
                   for name, spec in _stock_specs(config.cap)),
                  key=lambda e: e.name)


# -- report ------------------------------------------------------------------


class VerificationReport:
    __slots__ = ("suite", "k_set", "entries", "counters")

    def __init__(self, suite: str, k_set: list[int], entries: list[dict],
                 counters: dict | None = None):
        self.suite, self.k_set, self.entries = suite, k_set, entries
        self.counters = {} if counters is None else counters

    @property
    def passed(self) -> bool:
        if not all(r["pass"] for r in self.entries):
            return False
        return all(self.counters.get(key, 1) > 0
                   for key in self.counters if key.startswith("nonvacuous"))

    def summary(self) -> dict:
        failed = [r for r in self.entries if not r["pass"]]
        return {"total": len(self.entries), "passed": len(self.entries) - len(failed),
                "failed": len(failed), "suite_pass": self.passed,
                "counters": dict(sorted(self.counters.items()))}

    def to_json(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "suite": self.suite,
                "k": self.k_set, "entries": self.entries,
                "summary": self.summary()}


# -- suite evaluation helpers ------------------------------------------------


def _record(name: str, k, check, subject, counters: Counter) -> dict:
    """One timed report record: `check(subject, k, counters)` returns
    (ok, witness, fields); the witness is kept only when ok is false."""
    t0 = time.perf_counter()
    ok, witness, fields = check(subject, k, counters)
    return {"group": name, "k": k, **fields, "pass": ok,
            "witness": None if ok else witness,
            "elapsed": round(time.perf_counter() - t0, 4)}


def _checked(checks: dict[str, bool]):
    """(ok, witness, fields) of a check made of named boolean sub-checks."""
    failures = [c for c, v in checks.items() if not v]
    return not failures, {"failed_checks": failures}, {"checks": checks}


def _quotient_lattice(G: FiniteGroup, L: SubgroupLattice,
                      n: int) -> SubgroupLattice:
    """Lattice of G/n for a normal subgroup id n."""
    return quotient_cached(G, L.subgroups[n].mask)[0].lattice()


def _quotient_lattices(G: FiniteGroup):
    """(normal Subgroup, quotient, epimorphism) for each nontrivial proper
    normal subgroup; G/1 and G/G carry no information for closure checks."""
    L = G.lattice()
    for n_id in structure.normal_ids_in(L, L.top.id):
        sub = L.subgroups[n_id]
        if sub.order in (1, G.order):
            continue
        Q, epi = quotient_cached(G, sub.mask)
        yield sub, Q, epi


def _quotients_in(G: FiniteGroup, cls: str, k: int) -> bool:
    """Every nontrivial proper quotient of G lies in class cls."""
    return all(submodular.in_class(Q.lattice(), cls, k)
               for _, Q, _ in _quotient_lattices(G))


def _subgroups_in(L: SubgroupLattice, cls: str, k: int) -> bool:
    """Every subgroup of L's group lies in class cls."""
    return all(submodular.in_class(L, cls, k, top=a)
               for a in range(len(L.subgroups)))


def _count_subdirect_pairs(G: FiniteGroup, L: SubgroupLattice,
                           normals: list[int], cls: str, k: int) -> int:
    """Number of pairs n1 < n2 from `normals` that meet trivially and whose
    quotients G/n1 and G/n2 both lie in class cls."""
    member = cache(lambda n: submodular.in_class(_quotient_lattice(G, L, n),
                                                 cls, k))
    return sum(L.meet(n1, n2) == L.bottom.id and member(n1) and member(n2)
               for i, n1 in enumerate(normals) for n2 in normals[i + 1:])


def _image_id(Lq: SubgroupLattice, epi, sub: Subgroup) -> int:
    """Quotient-lattice id of the image of sub: that of its generators."""
    return Lq.generated(epi.table[g] for g in sub.gens)


# -- suite checks ------------------------------------------------------------
# Each check takes (entry, k, counters) and returns (ok, witness, fields).


def _variants_check(characterization, variants, entry: CorpusEntry, k: int,
                    counters: Counter):
    """Every variant of one theorem characterization agrees (T3.1, T3.2)."""
    verdicts = {str(v): characterization(entry.lattice, v, k)
                for v in variants}
    return (len(set(verdicts.values())) == 1, {"variants": verdicts},
            {"variants": verdicts})


def _t33_check(entry: CorpusEntry, k: int, counters: Counter):
    G = entry.group
    L = entry.lattice
    top = L.top.id
    in_X = submodular.in_class(L, "X", k)
    in_Y = submodular.in_class(L, "Y", k)
    checks: dict[str, bool] = {}

    if in_X:
        checks["quotient_closure_X"] = _quotients_in(G, "X", k)
        counters["nonvacuous_quotient_closure_X"] += 1
    prim = all(submodular.in_class(_quotient_lattice(G, L, L.core(m)), "X", k)
               for m in L.hasse_down[top])
    checks["primitive_closure_X"] = (not prim) or in_X
    if prim:
        counters["nonvacuous_primitive_closure_X"] += 1
    if in_Y:
        checks["quotient_closure_Y"] = _quotients_in(G, "Y", k)
        checks["subgroup_closure_Y"] = _subgroups_in(L, "Y", k)
        counters["nonvacuous_Y_closures"] += 1
    normals = structure.normal_ids_in(L, top)
    pairs = _count_subdirect_pairs(G, L, normals, "Y", k)
    if pairs:
        counters["nonvacuous_subdirect_Y"] += pairs
    checks["subdirect_closure_Y"] = in_Y or not pairs
    frattini_quotient = _quotient_lattice(G, L, L.frattini())
    checks["frattini_X_iff_Y"] = (
        in_X == submodular.in_class(frattini_quotient, "Y", k))
    checks["X_supersoluble"] = (not in_X) or structure.is_supersoluble(G)
    if k == 1:
        # k=1 corollary, phrased with the modular/submodular predicates
        all_max_modular = all(submodular.is_modular_subgroup(L, m)
                              for m in L.hasse_down[top])
        all_sub_submodular = (len(submodular.submodular_set(frattini_quotient))
                              == len(frattini_quotient.subgroups))
        checks["c3_modular_frattini"] = all_max_modular == all_sub_submodular
    return _checked(checks)


def _local_formation_check(cls: str, formation, entry: CorpusEntry, k: int,
                           counters: Counter):
    """Class cls is the local formation defined by `formation(k)` and is
    closed under subgroups, quotients and Frattini extensions (T3.5 with
    K and h, T3.6 with F and f)."""
    G = entry.group
    L = entry.lattice
    member = submodular.in_class(L, cls, k)
    checks = {"local_formation_agreement":
              member == classes.in_local_formation(G, formation(k))}
    if member:
        checks["subgroup_closure"] = _subgroups_in(L, cls, k)
        checks["quotient_closure"] = _quotients_in(G, cls, k)
        counters[f"nonvacuous_{cls}_closures"] += 1
    phi = L.frattini()
    if phi != L.bottom.id:
        quot_member = submodular.in_class(_quotient_lattice(G, L, phi), cls, k)
        checks["saturation"] = (not quot_member) or member
        if quot_member:
            counters[f"nonvacuous_{cls}_saturation"] += 1
    return _checked(checks)


def _K_oracle(k: int) -> classes.ClassOracle:
    """The supersoluble-with-k-submodular-Sylows class as a formation."""
    return classes.ClassOracle(
        f"Kcls_{k}", lambda L, b: submodular.in_class(L, "K", k, top=b))


def _p31_check(entry: CorpusEntry, k: int, counters: Counter):
    G = entry.group
    L = entry.lattice
    in_K = submodular.in_class(L, "K", k)
    in_F = submodular.in_class(L, "F", k)
    if in_K:
        counters["nonvacuous_K_members"] += 1
    if in_F:
        counters["nonvacuous_F_members"] += 1
    w_Uk = classes.in_wF(G, classes.oracle("U_k", k=k))
    return _checked({
        "K_eq_U_and_wUk": in_K == (structure.is_supersoluble(G) and w_Uk),
        "F_eq_wK": in_F == classes.in_wF(G, _K_oracle(k))})


def _is_set_product(L: SubgroupLattice, a: int, b: int) -> bool:
    """G = AB for members a and b.  Any two subgroups have
    |AB| = |A||B|/|A meet B|, and AB is a subset of G, so G = AB iff
    |A||B| = |G||A meet B|."""
    subs = L.subgroups
    return (subs[a].order * subs[b].order
            == L.group.order * subs[L.meet(a, b)].order)


def _t361_check(entry: CorpusEntry, k: int, counters: Counter):
    """A product G = AB of nilpotent k-submodular subgroups forces G to be
    supersoluble and in F."""
    G = entry.group
    L = entry.lattice
    nilpotent = [a for a in sorted(submodular.ksub_set(L, k))
                 if structure.is_quotient_nilpotent(L, L.bottom.id, a)]
    found = nontrivial = 0
    for i, a in enumerate(nilpotent):
        for b in nilpotent[i:]:
            if _is_set_product(L, a, b):
                found += 1
                if L.subgroups[a].order < G.order and L.subgroups[b].order < G.order:
                    nontrivial += 1
    ok = not found or (structure.is_supersoluble(G)
                       and submodular.in_class(L, "F", k))
    counters["factorizations"] += found
    counters["nonvacuous_nontrivial_factorizations"] += nontrivial
    return (ok, {"factorization_pair": True},
            {"factorizations": found, "nontrivial": nontrivial})


def _r1_check(entry: CorpusEntry, k: int, counters: Counter):
    """1-submodular equals submodular, and for maximal subgroups also
    modular and Schmidt's criterion (k is always 1)."""
    L = entry.lattice
    one_sub = submodular.ksub_set(L, 1)
    max_ok = True
    for m in L.hasse_down[L.top.id]:
        modular = submodular.is_modular_subgroup(L, m)
        schmidt = submodular.schmidt_maximal_modular(L, m)
        if not (modular == (m in one_sub) == schmidt):
            max_ok = False
        counters["nonvacuous_maximal_checks"] += 1
    return _checked({
        "one_submodular_eq_submodular": one_sub == submodular.submodular_set(L),
        "maximal_modular_collapse": max_ok})


def _r2_check(entry: CorpusEntry, k: int, counters: Counter):
    """1-LM groups are exactly the classical LM-groups (k is always 1)."""
    L = entry.lattice
    one_lm = submodular.is_k_LM_group(L, 1)[0]
    # LM-group in the classical sense: A maximal in <A,B> forces A meet B
    # maximal in B
    classic = all(L.meet(a, b) in L.hasse_down[b]
                  for a, b in L.maximal_in_join())
    if one_lm:
        counters["nonvacuous_lm_members"] += 1
    ok = one_lm == classic
    return (ok, {"one_LM": one_lm, "LM": classic},
            {"checks": {"one_LM_eq_LM": ok}})


def _r3_check(entry: CorpusEntry, k: int, counters: Counter):
    """The inclusions Y <= X <= K <= F, counting where each is strict."""
    chain = "YXKF"
    member = {c: submodular.in_class(entry.lattice, c, k) for c in chain}
    ok = True
    for small, big in zip(chain, chain[1:]):
        if member[small] and not member[big]:
            ok = False
        if member[big] and not member[small]:
            counters[f"strictness_{big}_not_{small}"] += 1
    return ok, {"membership": member}, {"membership": member}


# -- lemma suite -------------------------------------------------------------
# A per-k lemma takes (entry, k, counters); a k-list lemma takes
# (entry, k_set, counters).  Each returns its verdict, or None where it does
# not apply to the entry.  Every instance is checked and counted: a lemma
# counts apart from checking and never stops at its first failure, and
# `_lemma_check` runs every k before it combines the verdicts.

# k modes: one record per k, a single k=1 record, one record for the k list
_PER_K, _K_ONE, _K_LIST = "per_k", "k_one", "k_list"


def _ks(mode: str, k_set: list[int]) -> list:
    """The k arguments a check is called with in one k mode."""
    return {_PER_K: k_set, _K_ONE: [1], _K_LIST: [list(k_set)]}[mode]


def _lemma_21(entry, k_set, counters):
    """n-modular embedding transfers to and from quotients by N <= H (for
    n = 1, 2, 3 whatever the k list)."""
    L = entry.lattice
    verdicts = []
    for sub, Q, epi in _quotient_lattices(entry.group):
        Lq = Q.lattice()
        for h in L.interval(sub.id, L.top.id)[:-1]:  # the top is last
            h_img = _image_id(Lq, epi, L.subgroups[h])
            if h_img == Lq.top.id:
                continue
            verdicts += [
                submodular.is_n_modularly_embedded(L, h, L.top.id, n)
                == submodular.is_n_modularly_embedded(Lq, h_img, Lq.top.id, n)
                for n in (1, 2, 3)]
            counters["nonvacuous_L2.1"] += 3 * (not L.is_normal_in(h, L.top.id))
    return all(verdicts)


def _lemma_22(entry, k, counters):
    """Maximal M k-submodular iff the core quotient has the Schmidt-like
    Sylow structure of the lemma."""
    L = entry.lattice
    reach = submodular.ksub_set(L, k)
    maxes = L.hasse_down[L.top.id]
    counters["nonvacuous_L2.2"] += sum(not L.is_normal_in(m, L.top.id)
                                       for m in maxes)
    return all([(m in reach) == _schmidt_like(entry.group, L, m, k)
                for m in maxes])


def _schmidt_like(G: FiniteGroup, L: SubgroupLattice, m: int, k: int) -> bool:
    """The right side of L2.2 for a maximal subgroup m."""
    if L.is_normal_in(m, L.top.id):
        return True
    c = L.core(m)
    Q, epi = quotient_cached(G, L.subgroups[c].mask)
    m_ord = L.subgroups[m].order // L.subgroups[c].order
    pp = prime_power(m_ord)
    facs = factorize(Q.order)
    if pp is None or len(facs) != 2 or structure.is_nilpotent(Q):
        return False
    q, n = pp
    p = Q.order // m_ord
    Lq = Q.lattice()
    img = Lq.subgroups[_image_id(Lq, epi, L.subgroups[m])]
    p_syl = structure.sylow_in(Lq, Lq.top.id, p)
    return (n <= k and facs.get(p) == 1 and Lq.subgroups[p_syl].order == p
            and Lq.is_normal_in(p_syl, Lq.top.id) and img.order == q**n
            and any(Q.element_orders[x] == q**n for x in set_bits(img.mask)))


def _lemma_23(entry, k, counters):
    """All maximal subgroups k-submodular forces supersolubility; each
    k-submodular maximal subgroup is P- and K-P-subnormal."""
    L = entry.lattice
    reach = submodular.ksub_set(L, k)
    maxes = L.hasse_down[L.top.id]
    psub = (classes.p_subnormal_set(L)
            & classes.p_subnormal_set(L, variant_k=True))
    all_max = reach.issuperset(maxes)
    counters["nonvacuous_L2.3"] += all_max
    return ((not all_max or structure.is_supersoluble(entry.group))
            and reach.intersection(maxes) <= psub)


def _lemma_24(entry, k, counters):
    """k-submodularity passes to conjugates and is transitive."""
    L = entry.lattice
    reach = submodular.ksub_set(L, k)
    conj = [L.conjugates(h) for h in reach]
    below = [submodular.ksub_set(L, k, top=r) for r in reach if r != L.top.id]
    counters["nonvacuous_L2.4_conj"] += sum(len(c) - 1 for c in conj)
    counters["nonvacuous_L2.4_trans"] += sum(len(b) - 1 for b in below)
    return (all(reach.issuperset(c) for c in conj)
            and all(b <= reach for b in below))


def _lemma_25(entry, k, counters):
    """The meet of a k-submodular H with any U is k-submodular in U, and in
    G when U is."""
    L = entry.lattice
    reach = submodular.ksub_set(L, k)
    reach_bits = sum(1 << h for h in reach)
    down, up = L.down, L.up
    ok = True
    for u in range(len(L.subgroups)):
        below = submodular.ksub_set(L, k, top=u)
        meets = {(down[h] & down[u]).bit_length() - 1 for h in reach}
        ok = ok and meets <= below and (u not in reach or meets <= reach)
        # the meet d of h and u is h iff h <= u and u iff u <= h, so d is
        # neither exactly when h and u are incomparable
        counters["nonvacuous_L2.5"] += (
            reach_bits & ~down[u] & ~up[u]).bit_count()
    return ok


def _lemma_26(entry, k, counters):
    """For N normal: H k-submodular gives HN/N k-submodular (1), the
    converse holds for N <= H (2), and HN/N is iff HN is (3)."""
    L = entry.lattice
    reach = submodular.ksub_set(L, k)
    ok = True
    for sub, Q, epi in _quotient_lattices(entry.group):
        Lq = Q.lattice()
        reach_q = submodular.ksub_set(Lq, k)
        # HN lies in [N, G]: whether its image HN/N is k-submodular in G/N
        image_ok = {x: _image_id(Lq, epi, L.subgroups[x]) in reach_q
                    for x in set_bits(L.up[sub.id])}
        for h in range(len(L.subgroups)):
            hn = L.join(h, sub.id)  # hn == h iff N <= h
            ok = ok and ((image_ok[hn] or h not in reach)
                         and (h in reach or not (image_ok[hn] and hn == h))
                         and image_ok[hn] == (hn in reach))
        # HN != H exactly when N is not under H
        counters["nonvacuous_L2.6"] += (len(L.subgroups)
                                        - L.up[sub.id].bit_count())
    return ok


def _lemma_27(entry, k, counters):
    """In a soluble group every k-submodular subgroup is U_k-subnormal."""
    L = entry.lattice
    if not structure.is_soluble(entry.group):
        return None
    reach = submodular.ksub_set(L, k)
    usub = classes.f_subnormal_set(L, classes.oracle("U_k", k=k))
    counters["L2.7_converse_gap_groups"] += bool(usub - reach)
    counters["nonvacuous_L2.7"] += len(reach) - 1
    return reach <= usub


def _lemma_28(entry, k, counters):
    """A k-submodular Sylow subgroup for the largest prime is normal."""
    G = entry.group
    L = entry.lattice
    if G.order == 1:
        return None
    syl = structure.sylow_in(L, L.top.id, max(G.prime_divisors()))
    if syl not in submodular.ksub_set(L, k):
        return True
    counters["nonvacuous_L2.8"] += 1
    return L.is_normal_in(syl, L.top.id)


def _lemma_monotone(entry, k_set, counters):
    """k-submodular subgroups stay k-submodular for larger k."""
    L = entry.lattice
    verdicts = []
    for k1, k2 in zip(k_set, k_set[1:]):
        r1 = submodular.ksub_set(L, k1)
        r2 = submodular.ksub_set(L, k2)
        verdicts.append(r1 <= r2)
        if r2 - r1:
            counters["nonvacuous_monotone_strict"] += 1
        counters["nonvacuous_monotone"] += 1
    return all(verdicts)


def _lemma_31(entry, k, counters):
    """Nilpotent groups lie in F; F members have U-subnormal Sylows and F
    is closed under quotients, subgroups and subdirect products."""
    G = entry.group
    L = entry.lattice
    in_F = submodular.in_class(L, "F", k)
    nilpotent = structure.is_nilpotent(G)
    counters["nonvacuous_L3.1_nilpotent"] += nilpotent
    counters["nonvacuous_L3.1_members"] += in_F
    nontrivial_normals = [n for n in structure.normal_ids_in(L, L.top.id)
                          if n != L.bottom.id]
    # (3) subdirect closure
    pairs = _count_subdirect_pairs(G, L, nontrivial_normals, "F", k)
    counters["nonvacuous_L3.1_subdirect"] += pairs
    # (1) Sylows U-subnormal, (2) quotient and (5) subgroup closure
    return ((in_F or not (nilpotent or pairs))
            and (not in_F or (classes.in_wF(G, classes.oracle("U"))
                              and _quotients_in(G, "F", k)
                              and _subgroups_in(L, "F", k))))


_LEMMAS = {"L2.1": (_lemma_21, _K_LIST), "L2.2": (_lemma_22, _PER_K),
           "L2.3": (_lemma_23, _PER_K), "L2.4": (_lemma_24, _PER_K),
           "L2.5": (_lemma_25, _PER_K), "L2.6": (_lemma_26, _PER_K),
           "L2.7": (_lemma_27, _PER_K), "L2.8": (_lemma_28, _PER_K),
           "monotone_k": (_lemma_monotone, _K_LIST),
           "L3.1": (_lemma_31, _PER_K)}

# every lemma needs at least one non-vacuous instance; these counters are
# seeded with zero so an untested lemma fails the suite
_LEMMA_COUNTERS = (
    "nonvacuous_L2.1", "nonvacuous_L2.2", "nonvacuous_L2.3",
    "nonvacuous_L2.4_conj", "nonvacuous_L2.4_trans", "nonvacuous_L2.5",
    "nonvacuous_L2.6", "nonvacuous_L2.7", "nonvacuous_L2.8",
    "nonvacuous_monotone", "nonvacuous_L3.1_nilpotent",
    "nonvacuous_L3.1_members", "nonvacuous_L3.1_subdirect",
    "nonvacuous_L3.1_product", "L2.7_converse_gap_groups")


def _lemma_check(entry: CorpusEntry, k_set: list[int], counters: Counter):
    checks = {}
    for name, (lemma, mode) in _LEMMAS.items():
        verdicts = [lemma(entry, k, counters) for k in _ks(mode, k_set)]
        if None not in verdicts:
            checks[name] = all(verdicts)
    return _checked(checks)


def _lemma_31_products(corpus: list[CorpusEntry], k_set: list[int],
                       counters: Counter):
    """Direct products of small class members stay in the class."""
    small = [e for e in corpus if 1 < e.order <= 12]
    products: dict[tuple[str, str], FiniteGroup] = {}  # shared across k
    ok = True
    for k in k_set:
        members = [e for e in small
                   if submodular.in_class(e.lattice, "F", k)][:3]
        for i, e1 in enumerate(members):
            for e2 in members[i:]:
                if e1.order * e2.order > order_cap():
                    continue
                P = products.get((e1.name, e2.name))
                if P is None:
                    P = products[e1.name, e2.name] = direct_product(
                        e1.group, e2.group)
                counters["nonvacuous_L3.1_product"] += 1
                if not submodular.in_class(P.lattice(), "F", k):
                    ok = False
    return _checked({"L3.1_product": ok})


# -- suite table and runner --------------------------------------------------

_SUITES = {
    "T3.1": (partial(_variants_check, submodular.thm31_characterization,
                     (1, 2, 3)), _PER_K),
    "T3.2": (partial(_variants_check, submodular.thm32_characterization,
                     (1, 2, 3, 4)), _PER_K),
    "T3.3": (_t33_check, _PER_K),
    "T3.5": (partial(_local_formation_check, "K", classes.h_function),
             _PER_K),
    "T3.6": (partial(_local_formation_check, "F", classes.f_function),
             _PER_K),
    "P3.1": (_p31_check, _PER_K),
    "T3.6_1": (_t361_check, _PER_K),
    "R1": (_r1_check, _K_ONE),
    "R2": (_r2_check, _K_ONE),
    "R3": (_r3_check, _PER_K),
    "L": (_lemma_check, _K_LIST),
}

SUITE_IDS = tuple(_SUITES)


def _lemma_corpus(corpus: list[CorpusEntry]) -> list[CorpusEntry]:
    return [e for e in corpus
            if e.order <= LEMMA_SUITE_MAX_ORDER or e.name in LEMMA_SUITE_EXTRA]


def run_suite(suite: str, k_set: list[int],
              corpus: list[CorpusEntry]) -> VerificationReport:
    if suite not in _SUITES:
        raise GroupError(f"unknown suite {suite!r}")
    if not k_set or any(k < 1 for k in k_set):
        raise GroupError("need one or more k values, each >= 1")
    k_set = sorted(set(k_set))
    entries = _lemma_corpus(corpus) if suite == "L" else corpus
    check, mode = _SUITES[suite]
    counters: Counter = Counter()
    records = [_record(e.name, k, check, e, counters)
               for e in entries for k in _ks(mode, k_set)]
    records.sort(key=lambda r: (r["group"], str(r["k"])))
    if suite == "L":
        records.append(_record("corpus:direct-products", list(k_set),
                               _lemma_31_products, entries, counters))
        # monotonicity in k needs two k values to compare; with one it has
        # no instance to count and is not required
        counters.update(dict.fromkeys(
            (c for c in _LEMMA_COUNTERS
             if c != "nonvacuous_monotone" or len(k_set) >= 2), 0))
        # the converse of the soluble-case subnormality lemma must be
        # falsified somewhere in the corpus (the order-42 holomorph does it)
        counters["nonvacuous_L2.7_converse_falsified"] = (
            counters["L2.7_converse_gap_groups"])
    return VerificationReport(suite, k_set, records, dict(counters))


def report_to_file(reports: list[VerificationReport], path: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION,
               "reports": [r.to_json() for r in reports]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- witness search ----------------------------------------------------------


def find_witness(query: str, corpus: list[CorpusEntry]):
    """Search the corpus for a separating example.

    Query forms:
      "class-diff:C1,k1,C2,k2"  first entry in class C1 at k1 but not in C2
                                at k2 (classes X, Y, K, F).
      "subnormal-not-submodular:k"  first entry owning a subgroup that is
                                U_k-subnormal but not k-submodular.
    Returns (entry, detail) or None.
    """
    kind, _, rest = query.partition(":")
    if kind == "class-diff":
        try:
            c1, k1, c2, k2 = rest.split(",")
            k1, k2 = int(k1), int(k2)
        except ValueError as exc:
            raise GroupError(f"malformed query {query!r}") from exc
        if c1 not in submodular.CLASS_IDS or c2 not in submodular.CLASS_IDS:
            raise GroupError(f"unknown class in query {query!r}")
        for e in corpus:
            L = e.lattice
            if (submodular.in_class(L, c1, k1)
                    and not submodular.in_class(L, c2, k2)):
                return e, {"in": f"{c1}(k={k1})", "not_in": f"{c2}(k={k2})"}
        return None
    if kind == "subnormal-not-submodular":
        try:
            k = int(rest)
        except ValueError as exc:
            raise GroupError(f"malformed query {query!r}") from exc
        Uk = classes.oracle("U_k", k=k)
        for e in corpus:
            L = e.lattice
            gap = (classes.f_subnormal_set(L, Uk)
                   - submodular.ksub_set(L, k))
            if gap:
                a = min(gap)
                return e, {"subgroup": L.subgroups[a].gen_cycles(),
                           "subgroup_order": L.subgroups[a].order}
        return None
    raise GroupError(f"unknown query kind {kind!r}")
