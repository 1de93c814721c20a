"""Horadam twisted torus knots and their knot-type bookkeeping.

Three consecutive terms of an (m,n)-Horadam sequence can be arranged as
K(p,q,r,+-1) in six essentially distinct ways (types 1-6).  This module
resolves those types to parameters, computes surface slopes, decides
torus-knot membership via the three closed-form detection theorems, and
verifies the isotopy/mirror statements by comparing braid-closure
invariants, in one loop over steps (k, word_a, word_b): a lemma is one
step, and Proposition 12's type-1 reduction a chain of mirror steps.
``CLAIMS`` names each claim's function and parameters.  Equal invariants
corroborate a claim; unequal invariants falsify the implementation, so
verification reports carry a hard verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import gcd

from .braids import TTKParams, braid_for
from .errors import BudgetError, DomainError
from .horadam import HoradamSpec, fibonacci, is_maximal_pair
from .invariants import (DEFAULT_TL_OPS, _check_tl_ops, alexander, jones,
                         split_closure, torus_alexander)

# type index -> (p, q, r, sign) as offsets into the Horadam sequence
_TYPE_TABLE = {
    1: (2, 0, 1, -1),
    2: (2, 0, 1, +1),
    3: (2, 1, 0, -1),
    4: (2, 1, 0, +1),
    5: (1, 0, 2, -1),
    6: (1, 0, 2, +1),
}


@dataclass(frozen=True)
class HoradamTTK:
    seed_m: int
    seed_n: int
    k: int
    type_index: int

    def __post_init__(self):
        if self.type_index not in _TYPE_TABLE:
            raise DomainError(f"type index must be 1..6, got {self.type_index}")
        if self.seed_m < 1 or self.seed_n < 1 or gcd(self.seed_m, self.seed_n) != 1:
            raise DomainError("seeds must be positive and coprime")
        if self.k < 0:
            raise DomainError("index k must be >= 0")


def resolve(h, strict=True):
    """TTKParams of a Horadam twisted torus knot.  With strict=True the
    smallest parameter must be at least 2 (degenerate seeds rejected)."""
    dp, dq, dr, sign = _TYPE_TABLE[h.type_index]
    seq = HoradamSpec(h.seed_m, h.seed_n).terms(h.k + 3)
    p, q, r = seq[h.k + dp], seq[h.k + dq], seq[h.k + dr]
    if strict and min(p, q, r) < 2:
        raise DomainError(
            f"degenerate Horadam parameters (H_{h.k} = {seq[h.k]} < 2)")
    return TTKParams(p=p, q=q, r=r, twist_n=sign)


def surface_slope(params):
    """Integer framing induced by the genus-2 surface: p*q + n*r^2."""
    if params.cable_m != 1:
        raise DomainError("surface slope is implemented for cable_m = 1")
    return params.p * params.q + params.twist_n * params.r ** 2


@dataclass(frozen=True)
class TorusMatch:
    matched: bool
    a: int | None = None
    b: int | None = None
    torus_p: int | None = None
    torus_q: int | None = None  # negative value encodes the mirror


def lee_torus_pos(p, q, r, s):
    """Positive-twist detection: K(p,q,r,s) with s >= 1 full positive
    twists is a torus knot iff (p,q,r,s) = (ab+1, b, b-1, 1) for some
    a >= 1, b >= 3."""
    if not (2 <= q < p and gcd(p, q) == 1):
        raise DomainError("out of theorem scope: need 2 <= q < p coprime")
    if not (2 <= r <= p + q) or r == p or r % q == 0:
        raise DomainError("out of theorem scope: need 2 <= r <= p+q, r != p, q does not divide r")
    if s < 1:
        raise DomainError("out of theorem scope: need s >= 1")
    if s == 1 and r == q - 1 and q >= 3 and (p - 1) % q == 0 and (p - 1) // q >= 1:
        return TorusMatch(True, a=(p - 1) // q, b=q)
    return TorusMatch(False)


def lee_torus_neg_kq(p, q, k):
    """Negative-twist detection at r = p - kq with 2 <= p-kq < q:
    torus iff (p, q, p-kq) = ((a+1)b - 1, b, b-1), a >= 1, b >= 3."""
    if not (2 <= q < p and gcd(p, q) == 1 and k >= 1):
        raise DomainError("out of theorem scope: need 2 <= q < p coprime, k >= 1")
    r = p - k * q
    if not (2 <= r < q):
        raise DomainError(f"out of theorem scope: need 2 <= p-kq < q, got {r}")
    if q >= 3 and r == q - 1 and (p + 1) % q == 0 and (p + 1) // q - 1 >= 1:
        return TorusMatch(True, a=(p + 1) // q - 1, b=q)
    return TorusMatch(False)


def lee_torus_qsmall(p, q):
    """Detection for K(p,q,p-q,-1) with q < p-q, by scanning the two
    Fibonacci-coefficient families.  A match names T(a+1, (-1)^b a).

    The second family is scanned from a = 1 rather than a = 2: at a = 1
    it degenerates to the Fibonacci triples (F_{b+3}, F_{b+1}, F_{b+2}),
    whose knots are unknots, reported as the trivial torus knot T(2,
    +-1).  Counting those keeps the detection aligned with the
    maximal-pair correspondence (consecutive-Fibonacci seeds are
    maximal pairs)."""
    if not (p >= 3 and q >= 2 and gcd(p, q) == 1 and q < p - q):
        raise DomainError("out of theorem scope: need p >= 3, q >= 2 coprime, q < p-q")
    r = p - q
    # family 1: (a F_{b+3} - F_{b+2}, a F_{b+1} - F_b, a F_{b+2} - F_{b+1})
    b = 1
    while fibonacci(b + 1) <= q + fibonacci(b):
        fb, fb1 = fibonacci(b), fibonacci(b + 1)
        num = q + fb
        if num % fb1 == 0:
            a = num // fb1
            if (a >= 2 and (a, b) != (2, 1)
                    and a * fibonacci(b + 3) - fibonacci(b + 2) == p
                    and a * fibonacci(b + 2) - fibonacci(b + 1) == r):
                return TorusMatch(True, a=a, b=b, torus_p=a + 1,
                                  torus_q=a if b % 2 == 0 else -a)
        b += 1
    # family 2: (a F_{b+1} + F_{b+2}, a F_{b-1} + F_b, a F_b + F_{b+1})
    b = 2
    while fibonacci(b) < q:
        fbm, fb = fibonacci(b - 1), fibonacci(b)
        num = q - fb
        if num > 0 and num % fbm == 0:
            a = num // fbm
            if (a >= 1
                    and a * fibonacci(b + 1) + fibonacci(b + 2) == p
                    and a * fb + fibonacci(b + 1) == r):
                return TorusMatch(True, a=a, b=b, torus_p=a + 1,
                                  torus_q=a if b % 2 == 0 else -a)
        b += 1
    return TorusMatch(False)


@dataclass
class CorollaryReport:
    seed_m: int
    seed_n: int
    maximal: bool
    per_k: list  # (k, matched)
    consistent: bool


def corollary_maximal_pair_check(seed_m, seed_n, k_max):
    """The type-1 knot K(H_{k+2}, H_k, H_{k+1}, -1) is a torus knot
    exactly when (m, n) is a maximal pair; checked for k <= k_max."""
    if not (1 < seed_m < seed_n) or gcd(seed_m, seed_n) != 1:
        raise DomainError("need coprime seeds with 1 < m < n")
    if k_max < 0:
        raise DomainError("need k_max >= 0")
    maximal = is_maximal_pair(seed_m, seed_n)
    seq = HoradamSpec(seed_m, seed_n).terms(k_max + 3)
    per_k = []
    consistent = True
    for k in range(k_max + 1):
        match = lee_torus_qsmall(seq[k + 2], seq[k])
        per_k.append((k, match.matched))
        if match.matched != maximal:
            consistent = False
    return CorollaryReport(seed_m, seed_n, maximal, per_k, consistent)


def type1_reduce(seed_m, seed_n, k):
    """One step of the type-1 reduction: K(H_{k+2}, H_k, H_{k+1}, -1)
    is the mirror image of K(H_{k+1}, H_{k-1}, H_k, -1).  Returns the
    reduced knot (index k-1) and the mirror flag (always True: each
    step contributes one mirror, so parity after k steps is (-1)^k)."""
    if k < 1:
        raise DomainError("reduction needs k >= 1")
    return HoradamTTK(seed_m, seed_n, k - 1, 1), True


# ----------------------------------------------------------------------
# Invariant-based lemma verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Limits:
    tl_ops: int = DEFAULT_TL_OPS

    def __post_init__(self):
        if self.tl_ops < 1:
            raise DomainError("tl_ops must be >= 1")


@dataclass
class VerificationReport:
    claim: str
    params: dict
    invariants: dict  # e.g. {"alexander": "equal", "jones": "mirror"|"mismatch"|"skipped"}
    verdict: str      # "consistent" or "inconsistent"
    details: list = field(default_factory=list)

    def to_json_dict(self):
        return {"claim": self.claim, "params": self.params,
                "invariants": self.invariants, "verdict": self.verdict}


def _verify(claim, params, steps, relation, limits):
    """Compare the closures of each step (k, word_a, word_b) under the
    asserted relation "equal" or "mirror": Alexander always, Jones only
    when the pieces of both words pass the Temperley-Lieb budget up front.
    Each word's invariants are computed once.  Details are kept for the
    steps that have a k.  Jones sums up as "mismatch" if any step
    mismatched, else as the relation if any step computed it, else as
    "skipped"."""
    limits = limits or Limits()
    alexander_of = cache(alexander)
    jones_of = cache(lambda w: jones(w, "tl", limits.tl_ops))
    invs, details = [], []
    for k, word_a, word_b in steps:
        inv = {"alexander": ("equal" if alexander_of(word_a) == alexander_of(word_b)
                             else "unequal"), "jones": "skipped"}
        try:
            for w in (word_a, word_b):
                _check_tl_ops(split_closure(w)[3], limits.tl_ops)
        except BudgetError:
            pass
        else:
            va, vb = jones_of(word_a), jones_of(word_b)
            if relation == "mirror":
                va = va.mirrored()
            inv["jones"] = relation if va == vb else "mismatch"
        invs.append(inv)
        if k is not None:
            details.append({"k": k, **inv})
    alex = "unequal" if any(i["alexander"] == "unequal" for i in invs) else "equal"
    found = {i["jones"] for i in invs}
    jones_sum = next((j for j in ("mismatch", relation) if j in found), "skipped")
    ok = alex == "equal" and jones_sum != "mismatch"
    return VerificationReport(claim, params, {"alexander": alex, "jones": jones_sum},
                              "consistent" if ok else "inconsistent", details)


def _ttk_word(seed_m, seed_n, k, type_index):
    """Braid word of a Horadam twisted torus knot, degenerate seeds allowed."""
    return braid_for(resolve(HoradamTTK(seed_m, seed_n, k, type_index), strict=False))


def verify_lemma7(p, q, limits=None):
    """K(p,q,p-q,+1) isotopic to K(p,p-q,q,+1), for coprime p > 2q."""
    if not (p > 2 * q and q >= 2 and gcd(p, q) == 1):
        raise DomainError("lemma 7 needs coprime p, q >= 2 with p > 2q")
    wa = braid_for(TTKParams(p=p, q=q, r=p - q, twist_n=1))
    wb = braid_for(TTKParams(p=p, q=p - q, r=q, twist_n=1))
    return _verify("lemma7", {"p": p, "q": q}, [(None, wa, wb)], "equal", limits)


def verify_lemma8(p, q, limits=None):
    """K(p,q,p+q,-1) is the mirror image of K(p,p+q,q,+1), p > q."""
    if not (p > q >= 2 and gcd(p, q) == 1):
        raise DomainError("lemma 8 needs coprime p > q >= 2")
    wa = braid_for(TTKParams(p=p, q=q, r=p + q, twist_n=-1))
    wb = braid_for(TTKParams(p=p + q, q=p, r=q, twist_n=1))
    return _verify("lemma8", {"p": p, "q": q}, [(None, wa, wb)], "mirror", limits)


def verify_lemma9(seed_m, seed_n, k, limits=None):
    """K(H_{k+3}, H_{k+2}, H_{k+1}, -1) isotopic to
    K(H_{k+1}, H_k, H_{k+2}, +1): type 3 at k+1 against type 6 at k."""
    if seed_m < 1 or seed_n < 1 or gcd(seed_m, seed_n) != 1 or k < 0:
        raise DomainError("lemma 9 needs positive coprime seeds and k >= 0")
    step = (None, _ttk_word(seed_m, seed_n, k + 1, 3), _ttk_word(seed_m, seed_n, k, 6))
    return _verify("lemma9", {"m": seed_m, "n": seed_n, "k": k}, [step], "equal",
                   limits)


def verify_prop12_1(seed_m, seed_n, k_max, limits=None):
    """The type-1 reduction chain: each K(H_{k+2}, H_k, H_{k+1}, -1) has
    the Alexander polynomial of its reduction (Alexander is mirror
    blind), and the Jones polynomials are mirror images step by step."""
    if seed_m < 1 or seed_n < 1 or gcd(seed_m, seed_n) != 1 or k_max < 1:
        raise DomainError("need positive coprime seeds and k_max >= 1")
    words = [_ttk_word(seed_m, seed_n, k, 1) for k in range(k_max + 1)]
    return _verify("prop12-1", {"m": seed_m, "n": seed_n, "k_max": k_max},
                   [(k, words[k], words[k - 1]) for k in range(k_max, 0, -1)],
                   "mirror", limits)


def verify_corollary(seed_m, seed_n, k_max):
    """Corollary wrapper producing a verification report."""
    rep = corollary_maximal_pair_check(seed_m, seed_n, k_max)
    return VerificationReport(
        "corollary", {"m": seed_m, "n": seed_n, "k_max": k_max},
        {"maximal": rep.maximal,
         "torus": [m for _, m in rep.per_k]},
        "consistent" if rep.consistent else "inconsistent",
        [{"k": k, "torus": m} for k, m in rep.per_k])


# claim name -> (verify function, its parameter names, in order)
CLAIMS = {
    "lemma7": (verify_lemma7, ("p", "q")),
    "lemma8": (verify_lemma8, ("p", "q")),
    "lemma9": (verify_lemma9, ("m", "n", "k")),
    "prop12-1": (verify_prop12_1, ("m", "n", "k_max")),
    "corollary": (verify_corollary, ("m", "n", "k_max")),
}


def verify_lemma(which, params, limits=None):
    """Dispatch by claim name (prop12_1 names prop12-1 too); ``params`` is
    a mapping of arguments, where k defaults to 0 and k_max to 1."""
    claim = "prop12-1" if which == "prop12_1" else which
    if claim not in CLAIMS:
        raise DomainError(f"unknown claim {which!r}")
    fn, names = CLAIMS[claim]
    params = {"k": 0, "k_max": 1, **params}
    missing = [a for a in names if a not in params]
    if missing:
        raise DomainError(f"{claim} needs {', '.join(missing)}")
    args = [params[a] for a in names]
    return fn(*args) if fn is verify_corollary else fn(*args, limits)


def torus_alexander_matches(params, match):
    """Cross-check a qsmall torus detection: the braid's Alexander must
    equal the named torus knot's (mirror-blind)."""
    if not match.matched:
        raise DomainError("no torus match to check")
    delta = alexander(braid_for(params))
    return delta == torus_alexander(match.torus_p, abs(match.torus_q))
