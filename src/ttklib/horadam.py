"""Horadam sequences and the arithmetic built on them.

An (m,n; a,b)-Horadam sequence has H_0 = m, H_1 = n and
H_k = a*H_{k-2} + b*H_{k-1}.  The a = b = 1 case carries all the slope
machinery: the quadratic slope sequences s_k and t_k, the Euclidean
quotient traces, maximal pairs, and the embedding of a maximal pair
into a (+-1, a)-sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError


@dataclass(frozen=True)
class HoradamSpec:
    """Seed pair and recursion coefficients; a = b = 1 by default."""

    h0: int
    h1: int
    a: int = 1
    b: int = 1

    def term(self, k):
        return horadam_term(self, k)

    def terms(self, count):
        """First ``count`` terms H_0 .. H_{count-1}."""
        out = []
        x, y = self.h0, self.h1
        for i in range(count):
            out.append(x)
            x, y = y, self.a * x + self.b * y
        return out

    @property
    def is_unit(self):
        return self.a == 1 and self.b == 1


def horadam_term(spec, k):
    """H_k by the recursion, exact for any k >= 0."""
    if k < 0:
        raise DomainError("Horadam index must be >= 0")
    x, y = spec.h0, spec.h1
    for _ in range(k):
        x, y = y, spec.a * x + spec.b * y
    return x


def fibonacci(k):
    """F_k with F_0 = 0, F_1 = 1."""
    if k < 0:
        raise DomainError("Fibonacci index must be >= 0")
    x, y = 0, 1
    for _ in range(k):
        x, y = y, x + y
    return x


def closed_form_term(m, n, k):
    """H_k = m*F_{k-1} + n*F_k for the (m,n)-sequence, k >= 1."""
    if k < 1:
        raise DomainError("closed form needs k >= 1")
    return m * fibonacci(k - 1) + n * fibonacci(k)


def invariant_s(m, n):
    """The quadratic invariant s = m^2 + m*n - n^2."""
    return m * m + m * n - n * n


def _require_unit(spec):
    if not spec.is_unit:
        raise DomainError("slope sequences are defined only for a = b = 1")


def _s_form(h_prev, h):
    """h^2 + h_prev*h - h_prev^2: s_k at (H_{k-1}, H_k)."""
    return h * h + h_prev * h - h_prev * h_prev


def _t_form(h, h_next):
    """h_next^2 + h_next*h + h^2: t_k at (H_k, H_{k+1})."""
    return h_next * h_next + h_next * h + h * h


def slope_s(spec, k):
    """s_k = H_k^2 + H_{k-1}*H_k - H_{k-1}^2, for k >= 1."""
    _require_unit(spec)
    if k < 1:
        raise DomainError("slope index must be >= 1")
    return _s_form(horadam_term(spec, k - 1), horadam_term(spec, k))


def slope_t(spec, k):
    """t_k = H_{k+1}^2 + H_{k+1}*H_k + H_k^2, for k >= 1."""
    _require_unit(spec)
    if k < 1:
        raise DomainError("slope index must be >= 1")
    return _t_form(horadam_term(spec, k), horadam_term(spec, k + 1))


@dataclass(frozen=True)
class SlopeValue:
    kind: str  # "S" or "T"
    index: int
    value: int


def _require_k_max(k_max):
    if k_max < 1:
        raise DomainError("k_max must be >= 1")


def slope_values(spec, k_max):
    """All s_k, then all t_k, for 1 <= k <= k_max, from one pass over
    H_0 .. H_{k_max+1}."""
    _require_k_max(k_max)
    _require_unit(spec)
    H = spec.terms(k_max + 2)
    out = [SlopeValue("S", k, _s_form(H[k - 1], H[k])) for k in range(1, k_max + 1)]
    out += [SlopeValue("T", k, _t_form(H[k], H[k + 1])) for k in range(1, k_max + 1)]
    return out


@dataclass(frozen=True)
class SlopeRelationReport:
    ok: bool
    k_max: int
    first_violation: dict | None


def check_slope_relations(spec, k_max):
    """Verify the three slope identities for 1 <= k <= k_max.

    1.  H_k^2 + H_{k+1}H_k - H_{k+1}^2 = (-1)^k s
    2.  s_k = (n^2 + mn - m^2) + 2 eps_k s + 2 sum_{i<k} H_i^2
    3.  t-form: part 2's right side plus 2 H_{k-1}^2

    with eps_k = 1 for even k and 0 for odd k.  Returns the first
    violation (never silently passes).
    """
    _require_unit(spec)
    _require_k_max(k_max)
    m, n = spec.h0, spec.h1
    s = invariant_s(m, n)
    base = n * n + m * n - m * m
    H = spec.terms(k_max + 2)
    sq_sum = 0  # sum of H_i^2 for 1 <= i <= k-1
    for k in range(1, k_max + 1):
        eps = 1 if k % 2 == 0 else 0
        lhs1 = H[k] ** 2 + H[k + 1] * H[k] - H[k + 1] ** 2
        rhs1 = (-1) ** k * s
        lhs2 = _s_form(H[k - 1], H[k])
        rhs2 = base + 2 * eps * s + 2 * sq_sum
        lhs3 = _t_form(H[k - 1], H[k])
        rhs3 = rhs2 + 2 * H[k - 1] ** 2
        for part, lhs, rhs in ((1, lhs1, rhs1), (2, lhs2, rhs2), (3, lhs3, rhs3)):
            if lhs != rhs:
                return SlopeRelationReport(
                    False, k_max,
                    {"k": k, "part": part, "lhs": lhs, "rhs": rhs})
        sq_sum += H[k] ** 2
    return SlopeRelationReport(True, k_max, None)


@dataclass(frozen=True)
class EuclidTrace:
    """Division chain for coprime 1 < m < n, ending at remainder 1.

    Quotients and remainders are listed in division order; the paper's
    indexing labels them q_l .. q_0 and r_l .. r_0, so the *last* list
    entries are q_0 and r_0 = 1.
    """

    quotients: tuple
    remainders: tuple

    @property
    def l(self):
        return len(self.quotients) - 1

    @property
    def q0(self):
        return self.quotients[-1]

    def __post_init__(self):
        if not self.quotients or len(self.quotients) != len(self.remainders):
            raise DomainError("malformed Euclid trace")
        if any(q < 1 for q in self.quotients):
            raise DomainError("all quotients must be >= 1")
        rs = self.remainders
        if rs[-1] != 1 or any(r < 1 for r in rs):
            raise DomainError("remainders must be >= 1 and end at 1")
        if any(rs[i] <= rs[i + 1] for i in range(len(rs) - 1)):
            raise DomainError("remainders must strictly decrease")


def euclid_trace(m, n):
    """Run the Euclidean algorithm for 1 < m < n coprime, stopping at
    remainder 1 rather than 0."""
    if not (1 < m < n):
        raise DomainError(f"need 1 < m < n, got ({m}, {n})")
    if gcd(m, n) != 1:
        raise DomainError(f"({m}, {n}) are not coprime")
    qs, rs = [], []
    a, b = n, m
    while True:
        q, r = divmod(a, b)
        qs.append(q)
        rs.append(r)
        if r == 1:
            break
        a, b = b, r
    return EuclidTrace(tuple(qs), tuple(rs))


def is_maximal_pair(m, n):
    """True when every non-final quotient is 1 and the final quotient
    q_0 is 1 or 2."""
    tr = euclid_trace(m, n)
    return all(q == 1 for q in tr.quotients[:-1]) and tr.q0 in (1, 2)


@dataclass(frozen=True)
class Embedding:
    """(m, n) sits as consecutive terms H_start, H_{start+1} of the
    (sign, a)-Horadam sequence."""

    sign: int
    a: int
    start_index: int

    def spec(self):
        return HoradamSpec(self.sign, self.a)


def embed_in_unit_sequence(m, n):
    """Embed a maximal pair into a (+-1, a)-sequence, or return None.

    For q_0 = 1 the sequence is (1, d) and for q_0 = 2 it is (-1, d+1),
    where d is the divisor of the final division (the next-to-last
    remainder, or m itself when the chain has a single division).  The
    embedding is always re-verified by regenerating the sequence.
    """
    if not is_maximal_pair(m, n):
        return None
    tr = euclid_trace(m, n)
    d = tr.remainders[-2] if len(tr.remainders) >= 2 else m
    if tr.q0 == 1:
        emb = Embedding(1, d, tr.l + 1)
    else:
        emb = Embedding(-1, d + 1, tr.l + 2)
    seq = emb.spec().terms(emb.start_index + 2)
    if seq[emb.start_index] != m or seq[emb.start_index + 1] != n:
        raise AssertionError(
            f"embedding regeneration failed for ({m}, {n}): got {emb}")
    return emb
