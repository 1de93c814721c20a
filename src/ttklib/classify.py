"""Congruence classification of twisted torus knots.

The primitive/primitive predicate on a triple (p,q,r) is
    r = +-1 or +-q (mod p)  and  r = +-1 or +-p (mod q),
middle-Seifert (with respect to the first handlebody) needs a witness
beta with 2 <= beta < p/q and r = +-beta*q (mod p), and primitivity
with respect to the second handlebody is r = +-1 or +-p (mod q).  Each
predicate depends on r only through r mod p and r mod q, so it is one
lookup into per-pair tables: the allowed residues mod p and mod q, and
the least beta for each residue mod p.  The census walks the coprime
pairs (p, q) and builds those tables once per pair.  Since r runs over
2..p+q, less than two periods of p, each residue mod p holds at most
two rows, so the walk fills the pair's columns ``pp``, ``ps`` and
``ps_beta`` over r from the residue tables rather than row by row.  It
steps through the sorted family tables in the same (p, q, r) order, so
it builds a Triple only for a triple it reports, and marks the few rows
a family reaches as special.  ``census_rows`` alone turns the columns
into row dicts; the reports and the JSON-lines writer read the columns.
The closed-form families are enumerated exactly as parameterized, and
the censuses compare them against the predicates, which are always the
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd

from .errors import DomainError


@dataclass(frozen=True, order=True)
class Triple:
    """A normalized parameter triple: p > q >= 2 coprime, 2 <= r <= p+q."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.q < 2 or self.p <= self.q:
            raise DomainError(f"need p > q >= 2, got ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise DomainError(f"({self.p}, {self.q}) are not coprime")
        if not (2 <= self.r <= self.p + self.q):
            raise DomainError(f"need 2 <= r <= p+q, got r = {self.r}")


def normalized_triple(p, q, r):
    """Swap p and q if needed (the two orders give the same knot type)
    and validate; returns None for parameter combinations outside the
    triple domain."""
    if q > p:
        p, q = q, p
    if q < 2 or p == q or gcd(p, q) != 1 or not (2 <= r <= p + q):
        return None
    return Triple(p, q, r)


@dataclass(frozen=True)
class FamilyMatch:
    theorem: str  # "pp" or "ps"
    family_index: int
    witness: dict

    def __post_init__(self):
        object.__setattr__(self, "witness", dict(self.witness))

    def to_json_dict(self):
        return {"index": self.family_index, "witness": dict(sorted(self.witness.items()))}


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------

def _primitive_residues(a, b):
    """The residues of r mod a with r = +-1 or +-b (mod a)."""
    return {1 % a, -1 % a, b % a, -b % a}


def _least_betas(p, q):
    """Each residue of r mod p that has a middle-Seifert witness, mapped
    to its least beta: 2 <= beta < p/q and r = +-beta*q (mod p).  Empty
    whenever p < 2q."""
    betas = {}
    beta = 2
    while beta * q < p:
        bq = beta * q % p
        betas.setdefault(bq, beta)
        betas.setdefault(-bq % p, beta)
        beta += 1
    return betas


def is_pp(t):
    """Primitive/primitive congruence test."""
    return t.r % t.p in _primitive_residues(t.p, t.q) and is_primitive_Hprime(t)


def is_primitive_Hprime(t):
    """Primitive with respect to the second handlebody:
    r = +-1 or +-p (mod q)."""
    return t.r % t.q in _primitive_residues(t.q, t.p)


def middle_seifert_beta(t):
    """Least beta with 2 <= beta < p/q and r = +-beta*q (mod p), or
    None when no witness exists (the range is empty whenever p < 2q)."""
    return _least_betas(t.p, t.q).get(t.r % t.p)


def is_p_hyperseifert(params):
    """Hyper-Seifert w.r.t. the first handlebody and primitive w.r.t.
    the second: |cable_m| > 1 with a primitive/primitive triple."""
    t = normalized_triple(params.p, params.q, params.r)
    if t is None:
        raise DomainError(f"{params.label()} is outside the triple domain")
    return abs(params.cable_m) > 1 and is_pp(t)


# ----------------------------------------------------------------------
# Family enumerators
# ----------------------------------------------------------------------

def _emit(acc, p, q, r, theorem, index, witness):
    t = normalized_triple(p, q, r)
    if t is None:
        return
    acc.setdefault(t, []).append(FamilyMatch(theorem, index, witness))


def pp_families(bound):
    """All primitive/primitive family triples with normalized p <= bound,
    mapped to the family matches that produce them (duplicates kept)."""
    if bound < 3:
        raise DomainError("bound must be >= 3")
    acc = {}
    for p in range(3, bound + 1):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            _emit(acc, p, q, p + q, "pp", 1, {"p": p, "q": q})
            if p - q >= 2:
                _emit(acc, p, q, p - q, "pp", 2, {"p": p, "q": q})
    for j in range(1, (bound - 1) // 2 + 1):
        q = 2 * j + 1
        if q > bound:
            break
        for delta in (1, -1):
            i = 0
            while True:
                p = 2 * i * j + i + j + (1 + delta) // 2
                if p > bound and p > q:
                    break
                r = 2 * i * j + i + j + (1 - delta) // 2
                if max(p, q) <= bound:
                    _emit(acc, p, q, r, "pp", 3, {"i": i, "j": j, "delta": delta})
                i += 1
        for eps in (1, -1):
            p = 3 * j + 1 + (1 + eps) // 2
            r = 4 * j + 2 + eps
            if max(p, q) <= bound:
                _emit(acc, p, q, r, "pp", 4, {"j": j, "eps": eps})
        for eps in (1, -1):
            k = 1
            while True:
                p = 2 * j * k + k + 2 * eps
                if p > bound and p > q:
                    break
                r = 2 * j * k + k + eps
                if max(p, q) <= bound and (j, k, eps) != (1, 1, -1):
                    _emit(acc, p, q, r, "pp", 5, {"j": j, "k": k, "eps": eps})
                k += 1
    return acc


def ps_families(bound):
    """Primitive/middle-Seifert family triples with normalized p <= bound.
    Family-generated triples that fail the beta-existence predicate are
    kept and reported by the census as flagged instances."""
    if bound < 5:
        raise DomainError("bound must be >= 5")
    acc = {}
    for p in range(3, bound + 1):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            k = 2
            while k * q < p:
                _emit(acc, p, q, p - k * q, "ps", 1, {"p": p, "q": q, "k": k})
                k += 1
    for p in range(4, bound + 1):
        i = p % 3
        if i in (1, 2):
            _emit(acc, p, 3, p + i, "ps", 2, {"p": p, "i": i})
    for j in range(1, (bound - 1) // 2 + 1):
        q = 2 * j + 1
        if q > bound:
            break
        for eps in (1, -1):
            i = 1
            while True:
                p = i * q + j + (1 + eps) // 2
                if p > bound:
                    break
                r = (i + 1) * q + eps
                _emit(acc, p, q, r, "ps", 3, {"i": i, "j": j, "eps": eps})
                i += 1
    return acc


def pp_family_formula(index, witness):
    """Raw (p, q, r) produced by a pp family formula at the witness
    parameters, before the p/q swap normalization."""
    w = witness
    if index == 1:
        return w["p"], w["q"], w["p"] + w["q"]
    if index == 2:
        return w["p"], w["q"], w["p"] - w["q"]
    if index == 3:
        i, j, d = w["i"], w["j"], w["delta"]
        return (2 * i * j + i + j + (1 + d) // 2, 2 * j + 1,
                2 * i * j + i + j + (1 - d) // 2)
    if index == 4:
        j, e = w["j"], w["eps"]
        return 3 * j + 1 + (1 + e) // 2, 2 * j + 1, 4 * j + 2 + e
    if index == 5:
        j, k, e = w["j"], w["k"], w["eps"]
        return 2 * j * k + k + 2 * e, 2 * j + 1, 2 * j * k + k + e
    raise DomainError(f"no pp family {index}")


def ps_flag_shape(triple, match):
    """Classify a predicate-invalid family instance into the two known
    small-parameter shapes; None if it fits neither."""
    if match.family_index == 2 and triple.p < 7:
        return "family2-p<7"
    if match.family_index == 3 and match.witness.get("i") == 1:
        return "family3-i=1"
    return None


# ----------------------------------------------------------------------
# Censuses
# ----------------------------------------------------------------------

def _pairs(bound):
    """Every coprime pair 2 <= q < p <= bound, in sorted order."""
    for p in range(3, bound + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:
                yield p, q


def all_triples(bound):
    """Every valid normalized triple with p <= bound, sorted."""
    return [Triple(p, q, r) for p, q in _pairs(bound) for r in range(2, p + q + 1)]


@dataclass
class CensusReport:
    kind: str
    bound: int
    missing: list  # predicate-true triples not covered by any family
    extra: list    # family triples (predicate-valid for ps) outside the predicate set
    flagged: list  # (triple, match, shape) for predicate-invalid family instances

    @property
    def ok(self):
        if self.kind == "pp":
            return not self.missing and not self.extra
        return not self.missing and all(shape for _, _, shape in self.flagged)

    def summary(self):
        if self.kind == "pp":
            return f"pp: {len(self.missing)} missing, {len(self.extra)} extra"
        shapes = {}
        for _, _, shape in self.flagged:
            shapes[shape or "unexpected"] = shapes.get(shape or "unexpected", 0) + 1
        parts = ", ".join(f"{k}: {v}" for k, v in sorted(shapes.items()))
        return (f"ps: {len(self.missing)} uncovered, {len(self.flagged)} flagged"
                + (f" ({parts})" if parts else ""))


def _census(bound, report=None):
    """The one census walk: the columns of each coprime pair, in order
    (see _walk), filling the report as the pairs pass.  Both tables are
    built up front; every row carries the ps families, so the bound is
    refused below their floor before either is built."""
    if bound < 5:
        raise DomainError("bound must be >= 5, since census rows carry "
                          "the ps families")
    return _walk(bound, pp_families(bound), ps_families(bound), report)


class _InOrder:
    """Steps through a family table's triples in the walk's order."""

    def __init__(self, fam):
        self.fam = fam
        self.keys = iter(sorted(fam))
        self.head = next(self.keys, None)

    def on(self, p, q):
        """The family triples on the pair (p, q), as r -> (triple,
        matches); moves past them."""
        found = {}
        t = self.head
        while t is not None and t.p == p and t.q == q:
            found[t.r] = t, self.fam[t]
            t = self.head = next(self.keys, None)
        return found


def _walk(bound, pp_fam, ps_fam, report):
    """Yields (p, q, pp, ps, ps_beta, special) per coprime pair: pp, ps
    and ps_beta are lists over r = 2..p+q, and special maps each r that a
    family reaches, in order, to its pp and ps FamilyMatch lists and its
    flags; every other row has none of the three."""
    kind = report.kind if report is not None else None
    pp_next, ps_next = _InOrder(pp_fam), _InOrder(ps_fam)
    for p, q in _pairs(bound):
        res_p, res_q = _primitive_residues(p, q), _primitive_residues(q, p)
        betas = _least_betas(p, q)
        rs = range(2, p + q + 1)
        pp, ps, beta = [False] * len(rs), [False] * len(rs), [None] * len(rs)
        # r runs over less than two periods of p, so each residue mod p
        # holds at most two rows: x and x + p
        for x in res_p:
            for r in (x, x + p):
                if r in rs and r % q in res_q:
                    pp[r - 2] = True
        for x, b in betas.items():
            for r in (x, x + p):
                if r in rs:
                    beta[r - 2] = b
                    ps[r - 2] = r % q in res_q
        pp_at, ps_at = pp_next.on(p, q), ps_next.on(p, q)
        special = {}
        for r in sorted(pp_at.keys() | ps_at.keys()):
            pp_matches = ps_matches = flags = ()
            if r in pp_at:
                t, pp_matches = pp_at[r]
                if kind == "pp" and not pp[r - 2]:
                    report.extra.append(t)
            if r in ps_at:
                t, ps_matches = ps_at[r]
                if not ps[r - 2]:
                    shapes = [ps_flag_shape(t, m) for m in ps_matches]
                    flags = [f"predicate-invalid:{s or 'unexpected'}" for s in shapes]
                    if kind == "ps":
                        report.flagged += [(t, m, s) for m, s in zip(ps_matches, shapes)]
            special[r] = pp_matches, ps_matches, flags
        if kind is not None:
            own, covered = (pp, pp_at) if kind == "pp" else (ps, ps_at)
            report.missing += [Triple(p, q, r) for r in compress(rs, own)
                               if r not in covered]
        yield p, q, pp, ps, beta, special


def _rows(pairs):
    """The nine-key row dicts of the census columns, in order; the only
    place that builds them."""
    for p, q, pp, ps, ps_beta, special in pairs:
        for r, a, b, beta in zip(range(2, p + q + 1), pp, ps, ps_beta):
            row = {"p": p, "q": q, "r": r, "pp": a, "pp_families": [],
                   "ps": b, "ps_beta": beta, "ps_families": [], "flags": []}
            if r in special:
                pp_matches, ps_matches, flags = special[r]
                row["pp_families"] = [m.to_json_dict() for m in pp_matches]
                row["ps_families"] = [m.to_json_dict() for m in ps_matches]
                row["flags"] = list(flags)
            yield row


def _report(kind, bound, pp_fam, ps_fam):
    """A census report alone needs only its own family table, and no rows."""
    report = CensusReport(kind, bound, [], [], [])
    for _ in _walk(bound, pp_fam, ps_fam, report):
        pass
    return report


def pp_census(bound):
    """Exhaustive comparison of the pp predicate against the five-family
    union; both difference sets should be empty."""
    return _report("pp", bound, pp_families(bound), {})


def ps_census(bound):
    """Comparison of the middle-Seifert/primitive predicate against the
    three-family union.  Predicate-true triples must all be covered;
    family instances failing the predicate are flagged with their shape."""
    return _report("ps", bound, {}, ps_families(bound))


def census_rows(bound):
    """One classification row per valid triple, sorted; the row schema
    is shared by the JSON-lines and CSV census outputs."""
    yield from _rows(_census(bound))
