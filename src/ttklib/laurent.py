"""Sparse exact-integer Laurent polynomials in one formal variable.

Terms are stored as a mapping exponent -> coefficient with no zero
coefficients, so all arithmetic is exact over arbitrary-precision
integers.  The variable is a formal tag: "t" for knot polynomials, "A"
for the Kauffman bracket.  Mixing two different variables is an error
unless one operand is a constant.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?\d*)\s*\*?\s*"
    r"(?:(?:(?P<var>[A-Za-z](?:\^1/2)?)|\((?P<half>[A-Za-z]\^1/2)\))"
    r"(?:\^(?P<exp>-?\d+))?)?$"
)


def mul_terms(a, b):
    """Product of two exponent->coefficient dicts, without zero terms."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def divide_terms(num, den):
    """Exact quotient num / den of two exponent->coefficient dicts in
    Z[x, 1/x]; raises ValueError on a non-integer coefficient or a
    remainder.

    The quotient's exponents are walked upward from the lowest,
    cancelling the lowest remaining term of num at each (units divide
    freely), so the cost is the quotient's exponent span times the
    divisor's terms; a term left past the top exponent is a remainder.
    """
    if not num:
        return {}
    dlo = min(den)
    lead = den[dlo]
    rest = [(de - dlo, dc) for de, dc in den.items() if de != dlo]
    rem, quot = dict(num), {}
    for k in range(min(num), max(num) - max(den) + dlo + 1):
        v = rem.pop(k, 0)
        if not v:
            continue
        c, r = divmod(v, lead)
        if r:
            raise ValueError("inexact polynomial division (coefficient)")
        quot[k - dlo] = c
        for de, dc in rest:
            rem[k + de] = rem.get(k + de, 0) - c * dc
    if any(rem.values()):
        raise ValueError("inexact polynomial division (remainder)")
    return quot


class Laurent:
    __slots__ = ("var", "terms")

    def __init__(self, terms=None, var="t"):
        self.var = var
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[int(e)] = int(c)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var="t"):
        return cls({}, var)

    @classmethod
    def one(cls, var="t"):
        return cls({0: 1}, var)

    @classmethod
    def const(cls, c, var="t"):
        return cls({0: c}, var)

    @classmethod
    def term(cls, coef, exp, var="t"):
        return cls({exp: coef}, var)

    @classmethod
    def gen(cls, var="t"):
        return cls({1: 1}, var)

    @classmethod
    def from_pairs(cls, pairs, var="t"):
        d = {}
        for e, c in pairs:
            d[e] = d.get(e, 0) + c
        return cls(d, var)

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def min_exp(self):
        return min(self.terms) if self.terms else 0

    @property
    def max_exp(self):
        return max(self.terms) if self.terms else 0

    @property
    def breadth(self):
        return self.max_exp - self.min_exp if self.terms else 0

    def coefficient(self, exp):
        return self.terms.get(exp, 0)

    def is_constant(self):
        return not self.terms or set(self.terms) == {0}

    def is_symmetric(self):
        """True when p(x) = p(1/x)."""
        return all(self.terms.get(-e, 0) == c for e, c in self.terms.items())

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Laurent):
            if other.var != self.var and not (other.is_constant() or self.is_constant()):
                raise ValueError(f"variable mismatch: {self.var} vs {other.var}")
            return other
        if isinstance(other, int):
            return Laurent.const(other, self.var)
        return NotImplemented

    def _result_var(self, other):
        return other.var if self.is_constant() and not other.is_constant() else self.var

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        for e, c in other.terms.items():
            d[e] = d.get(e, 0) + c
        return Laurent(d, self._result_var(other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = dict(self.terms)
        for e, c in other.terms.items():
            d[e] = d.get(e, 0) - c
        return Laurent(d, self._result_var(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Laurent({e: -c for e, c in self.terms.items()}, self.var)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Laurent(mul_terms(self.terms, other.terms), self._result_var(other))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Laurent.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k):
        """Multiply by var**k."""
        return Laurent({e + k: c for e, c in self.terms.items()}, self.var)

    def mirrored(self):
        """Substitute var -> 1/var."""
        return Laurent({-e: c for e, c in self.terms.items()}, self.var)

    def divide_exact(self, divisor):
        """Exact division; raises ValueError if the quotient has a
        remainder or non-integer coefficients."""
        divisor = self._coerce(divisor)
        if divisor is NotImplemented or divisor.is_zero:
            raise ValueError("division by zero or bad divisor")
        return Laurent(divide_terms(self.terms, divisor.terms), self.var)

    # -- evaluation ---------------------------------------------------

    def evaluate(self, x):
        """Exact evaluation at an integer or Fraction point; at x = 1 or
        -1, where every power is 1 or -1, in integers alone."""
        if x == 1:
            return sum(self.terms.values())
        if x == -1:
            return sum(-c if e & 1 else c for e, c in self.terms.items())
        val = Fraction(0)
        fx = Fraction(x)
        for e, c in self.terms.items():
            val += c * fx ** e
        if val.denominator == 1:
            return int(val)
        return val

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if isinstance(other, Laurent):
            if self.terms != other.terms:
                return False
            return self.var == other.var or self.is_constant()
        return NotImplemented

    def __hash__(self):
        return hash((self.var if not self.is_constant() else "",
                     tuple(sorted(self.terms.items()))))

    # -- serialization --------------------------------------------------

    def to_pairs(self):
        return [[e, self.terms[e]] for e in sorted(self.terms)]

    def to_json_dict(self):
        return {"var": self.var, "terms": self.to_pairs()}

    @classmethod
    def from_json_dict(cls, d):
        return cls.from_pairs(d["terms"], var=d.get("var", "t"))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                base = f"({self.var})" if "^" in self.var else self.var
                vpart = self.var if e == 1 else f"{base}^{e}"
                body = vpart if abs(c) == 1 else f"{abs(c)}{vpart}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    __repr__ = __str__

    @classmethod
    def parse(cls, text, var=None):
        """Parse the human-readable form emitted by __str__."""
        text = text.strip()
        if text in ("", "0"):
            return cls.zero(var or "t")
        # split on +/- separators, but not the minus of a negative exponent
        parts = re.split(r"(?<!\^)([+-])", text.replace(" ", ""))
        d = {}
        seen_var = None
        sign = 1
        for part in parts:
            if part == "":
                continue
            if part == "+":
                sign = 1
                continue
            if part == "-":
                sign = -1
                continue
            m = _TERM_RE.match(part)
            if not m:
                raise ValueError(f"cannot parse term {part!r}")
            coef_s, exp_s = m.group("coef"), m.group("exp")
            v = m.group("var") or m.group("half")
            coef = int(coef_s) if coef_s else 1
            if v is None:
                exp = 0
            else:
                seen_var = v
                exp = int(exp_s) if exp_s is not None else 1
            d[exp] = d.get(exp, 0) + sign * coef
            sign = 1
        return cls(d, var or seen_var or "t")
