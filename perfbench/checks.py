"""Independent checks of ttklib outputs.

Every check recomputes what it compares against with code of its own:
congruence tests, exact polynomial division, and a reduced Burau matrix
eliminated modulo a prime.  Nothing here calls a ttklib algorithm; the
library's results are read only through their public data
(``Laurent.terms``, report fields, census rows).  Each ``check_*``
function returns a list of error strings, empty when the output is
correct.
"""

from __future__ import annotations

import json
from math import gcd

# 2^64 - 59, the largest prime below 2^64.  Inverse braid letters bring
# in 1/t, so the Burau check at t = 2 needs a field where 2 is a unit.
PRIME = (1 << 64) - 59


# ----------------------------------------------------------------------
# Dense integer polynomials, lowest degree first
# ----------------------------------------------------------------------

def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _div_exact(num, den):
    """num / den for integer coefficient lists; raises ValueError when
    the division leaves a remainder or a fractional coefficient."""
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    quot = [0] * max(len(num) - len(den) + 1, 1)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c, rem = divmod(num[k + len(den) - 1], lead)
        if rem:
            raise ValueError("inexact polynomial division")
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise ValueError("inexact polynomial division")
    return quot


def _centred(coeffs):
    """Dense coefficients as an exponent -> coefficient dict, shifted so
    that the lowest and highest exponents are opposite, with value +1
    at t = 1."""
    nz = [i for i, c in enumerate(coeffs) if c]
    lo, hi = nz[0], nz[-1]
    sign = 1 if sum(coeffs) > 0 else -1
    return {i - (lo + hi) // 2: sign * coeffs[i] for i in nz}


def torus_alexander(a, b):
    """Alexander polynomial of T(a, b) as a symmetric dict:
    (t^ab - 1)(t - 1) / ((t^a - 1)(t^b - 1))."""
    a, b = abs(a), abs(b)
    if min(a, b) <= 1:
        return {0: 1}
    num = _mul([-1] + [0] * (a * b - 1) + [1], [-1, 1])
    den = _mul([-1] + [0] * (a - 1) + [1], [-1] + [0] * (b - 1) + [1])
    return _centred(_div_exact(num, den))


def torus_jones(p, q):
    """Jones polynomial of the positive torus knot T(p, q):
    t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)."""
    num = [0] * (p + q + 1)
    num[0] += 1
    num[p + 1] -= 1
    num[q + 1] -= 1
    num[p + q] += 1
    body = _div_exact(num, [1, 0, -1])
    shift = (p - 1) * (q - 1) // 2
    return {i + shift: c for i, c in enumerate(body) if c}


# ----------------------------------------------------------------------
# Evaluations of library polynomials
# ----------------------------------------------------------------------

def terms(poly):
    return dict(poly.terms)


def value_at_one(poly):
    return sum(poly.terms.values())


def value_at_minus_one(poly):
    """The value at t = -1 of a polynomial in t (knots only: a Jones
    polynomial in t^1/2 has no integer value there)."""
    return sum(c if e % 2 == 0 else -c for e, c in poly.terms.items())


def _eval_mod(tdict, x, p):
    return sum(c * pow(x, e, p) for e, c in tdict.items()) % p


# ----------------------------------------------------------------------
# Reduced Burau modulo a prime
# ----------------------------------------------------------------------

def burau_det_minus_identity(strands, letters, t, p=PRIME):
    """det(B(t) - I) mod p for the reduced Burau matrix B of the word.

    B is the product of the generator images of Kassel and Turaev:
    sigma_i differs from the identity in row i only, where it reads
    (t, -t, 1) in columns i-1, i, i+1.  Right multiplication by such a
    matrix changes three columns, so the product is built column-wise.
    """
    d = strands - 1
    if d == 0:
        return 1
    tinv = pow(t, -1, p)
    cols = [[1 if r == c else 0 for r in range(d)] for c in range(d)]
    for x in letters:
        j = abs(x) - 1
        cj = cols[j]
        if x > 0:
            left, mid, right = t, (-t) % p, 1
        else:
            left, mid, right = 1, (-tinv) % p, tinv
        if j > 0:
            cols[j - 1] = [(u + left * v) % p for u, v in zip(cols[j - 1], cj)]
        if j + 1 < d:
            cols[j + 1] = [(u + right * v) % p for u, v in zip(cols[j + 1], cj)]
        cols[j] = [mid * v % p for v in cj]
    rows = [[(cols[c][r] - (r == c)) % p for c in range(d)] for r in range(d)]
    det = 1
    for k in range(d):
        piv = next((i for i in range(k, d) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        pk = rows[k]
        det = det * pk[k] % p
        inv = pow(pk[k], -1, p)
        for i in range(k + 1, d):
            ri = rows[i]
            f = ri[k] * inv % p
            if f:
                rows[i] = [(u - f * v) % p for u, v in zip(ri, pk)]
    return det % p


def alexander_matches_burau(strands, letters, delta_terms, t=2, p=PRIME):
    """Delta(t) (t^n - 1)/(t - 1) = +-t^k det(B(t) - I) for some k, at
    t = 2 modulo p.  Every Burau entry has exponents within +-c for a
    word of c letters, so |k| <= c (n - 1) + n bounds the search."""
    lhs = _eval_mod(delta_terms, t, p) * (pow(t, strands, p) - 1) % p
    lhs = lhs * pow(t - 1, -1, p) % p
    det = burau_det_minus_identity(strands, letters, t, p)
    if det == 0:
        return lhs == 0
    ratio = lhs * pow(det, -1, p) % p
    bound = len(letters) * max(strands - 1, 1) + strands
    cur = pow(t, -bound, p)
    for _ in range(2 * bound + 1):
        if cur == ratio or cur == p - ratio:
            return True
        cur = cur * t % p
    return False


# ----------------------------------------------------------------------
# Census
# ----------------------------------------------------------------------

def own_pp(p, q, r):
    return (r % p in {1 % p, -1 % p, q % p, -q % p}
            and r % q in {1 % q, -1 % q, p % q, -p % q})


def own_beta(p, q, r):
    beta = 2
    while beta * q < p:
        if r % p in {beta * q % p, -beta * q % p}:
            return beta
        beta += 1
    return None


def own_primitive_second(p, q, r):
    return r % q in {1 % q, -1 % q, p % q, -p % q}


def own_triples(bound):
    for p in range(3, bound + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:
                for r in range(2, p + q + 1):
                    yield p, q, r


def census_row_count(bound):
    """Closed form: the sum of p + q - 1 over coprime 2 <= q < p <= bound."""
    return sum(p + q - 1 for p in range(3, bound + 1)
               for q in range(2, p) if gcd(p, q) == 1)


def _own_shape(p, fam):
    if fam["index"] == 2 and p < 7:
        return "family2-p<7"
    if fam["index"] == 3 and fam["witness"].get("i") == 1:
        return "family3-i=1"
    return None


def check_census_rows(lines, bound):
    """Check JSON census rows: exactly the triple domain, in order, with
    every flag re-derived.  ``lines`` is any iterable of text lines."""
    errors = []
    expected = own_triples(bound)
    count = 0
    for line in lines:
        row = json.loads(line)
        count += 1
        want = next(expected, None)
        p, q, r = row["p"], row["q"], row["r"]
        if want != (p, q, r):
            errors.append(f"row {count}: triple {(p, q, r)}, expected {want}")
            break
        pp = own_pp(p, q, r)
        if row["pp"] != pp:
            errors.append(f"{want}: pp flag {row['pp']}, expected {pp}")
        if bool(row["pp_families"]) != pp:
            errors.append(f"{want}: pp families {row['pp_families']} vs predicate {pp}")
        beta = own_beta(p, q, r)
        ps = beta is not None and own_primitive_second(p, q, r)
        if row["ps"] != ps or row["ps_beta"] != beta:
            errors.append(f"{want}: ps {row['ps']}/{row['ps_beta']}, expected {ps}/{beta}")
        if ps and not row["ps_families"]:
            errors.append(f"{want}: ps triple covered by no family")
        shapes = [] if ps else [_own_shape(p, f) for f in row["ps_families"]]
        if any(s is None for s in shapes):
            errors.append(f"{want}: flagged ps family outside the known shapes")
        if row["flags"] != [f"predicate-invalid:{s}" for s in shapes]:
            errors.append(f"{want}: flags {row['flags']}, expected shapes {shapes}")
        if len(errors) > 20:
            break
    total = census_row_count(bound)
    if not errors and count != total:
        errors.append(f"{count} census rows, closed form gives {total}")
    return errors


def check_census_summary(kind, code, summary):
    errors = []
    if code != 0:
        errors.append(f"census {kind} exited {code}")
    if kind == "pp" and summary != "pp: 0 missing, 0 extra":
        errors.append(f"pp summary {summary!r}")
    if kind == "ps":
        if not summary.startswith("ps: 0 uncovered") or "unexpected" in summary:
            errors.append(f"ps summary {summary!r}")
    return errors


# ----------------------------------------------------------------------
# Horadam seeds
# ----------------------------------------------------------------------

def own_maximal(m, n):
    """Euclid on (n, m) down to remainder 1: every quotient but the last
    is 1 and the last is 1 or 2."""
    qs = []
    a, b = n, m
    while True:
        q, r = divmod(a, b)
        qs.append(q)
        if r <= 1:
            break
        a, b = b, r
    return r == 1 and all(x == 1 for x in qs[:-1]) and qs[-1] in (1, 2)


def check_seed_pair(m, n, result):
    """``result`` is (maximal, embedding, corollary report)."""
    maximal, emb, cor = result
    want = own_maximal(m, n)
    errors = []
    if maximal != want:
        errors.append(f"({m},{n}): maximal {maximal}, expected {want}")
    if (emb is not None) != want:
        errors.append(f"({m},{n}): embedding {emb} for maximal={want}")
    if emb is not None:
        seq = [emb.sign, emb.a]
        while len(seq) < emb.start_index + 2:
            seq.append(seq[-2] + seq[-1])
        if seq[emb.start_index:emb.start_index + 2] != [m, n]:
            errors.append(f"({m},{n}): embedding {emb} regenerates "
                          f"{seq[emb.start_index:emb.start_index + 2]}")
    if not cor.consistent or cor.maximal != want or any(
            matched != want for _, matched in cor.per_k):
        errors.append(f"({m},{n}): corollary {cor.per_k} for maximal={want}")
    return errors


# ----------------------------------------------------------------------
# Verification reports
# ----------------------------------------------------------------------

_RELATION = {"lemma7": "equal", "lemma8": "mirror", "lemma9": "equal",
             "prop12-1": "mirror"}


def check_report(claim, rep, may_skip=frozenset()):
    """Verdict consistent, Alexander equal, and Jones equal (lemmas 7 and
    9) or mirror (lemma 8, every Proposition 12 step).  Jones may read
    "skipped" only for the comparisons in ``may_skip``: the step k of a
    prop12-1 chain, or None for the one comparison of a lemma."""
    errors = []
    label = f"{claim}{tuple(rep.params.values())}"
    relation = _RELATION[claim]
    if rep.claim != claim or rep.verdict != "consistent":
        errors.append(f"{label}: verdict {rep.verdict}")
    if claim == "prop12-1":
        steps = [(d.get("k"), d) for d in rep.details]
        k_max = rep.params["k_max"]
        if [k for k, _ in steps] != list(range(k_max, 0, -1)):
            errors.append(f"{label}: steps {[k for k, _ in steps]}")
        computed = any(d["jones"] != "skipped" for _, d in steps)
        want = {"alexander": "equal", "jones": relation if computed else "skipped"}
        if rep.invariants != want:
            errors.append(f"{label}: summary {rep.invariants}, expected {want}")
    else:
        steps = [(None, rep.invariants)]
    for k, step in steps:
        where = label if k is None else f"{label} k={k}"
        if step["alexander"] != "equal":
            errors.append(f"{where}: alexander {step['alexander']}")
        if step["jones"] == "skipped":
            if k not in may_skip:
                errors.append(f"{where}: jones skipped")
        elif step["jones"] != relation:
            errors.append(f"{where}: jones {step['jones']}")
    return errors


# ----------------------------------------------------------------------
# Invariants of single words
# ----------------------------------------------------------------------

def check_alexander(label, word, delta, expected=None):
    """Symmetric, Delta(1) = 1, the Burau relation at t = 2, and, when
    given, an expected exponent -> coefficient dict."""
    errors = []
    got = terms(delta)
    if expected is not None and got != expected:
        errors.append(f"{label}: alexander {got}, expected {expected}")
    if value_at_one(delta) != 1 or any(got.get(-e) != c for e, c in got.items()):
        errors.append(f"{label}: alexander {got} is not a normalized knot polynomial")
    if not alexander_matches_burau(word.strands, word.letters, got):
        errors.append(f"{label}: alexander {got} fails the Burau relation at t = 2")
    return errors


def check_small_word(label, components, out):
    """One random word and its Markov moves.  ``out`` holds the TL and
    state-sum Jones of the word, TL Jones of the conjugate and the
    stabilisation, and (for knots) the three Alexander polynomials."""
    errors = []
    v = out["jones_tl"]
    if v != out["jones_kauffman"]:
        errors.append(f"{label}: TL jones {v} != state sum {out['jones_kauffman']}")
    if out["jones_conj"] != v or out["jones_stab"] != v:
        errors.append(f"{label}: jones changed under a Markov move")
    if value_at_one(v) != (-2) ** (components - 1):
        errors.append(f"{label}: V(1) = {value_at_one(v)} for {components} components")
    if components == 1:
        d = out["alexander"]
        if out["alexander_conj"] != d or out["alexander_stab"] != d:
            errors.append(f"{label}: alexander changed under a Markov move")
        if abs(value_at_minus_one(v)) != abs(value_at_minus_one(d)):
            errors.append(f"{label}: |V(-1)| != |Delta(-1)|")
        if value_at_one(d) != 1:
            errors.append(f"{label}: Delta(1) = {value_at_one(d)}")
    return errors


def check_torus(p, q, out):
    errors = []
    if terms(out["jones_tl"]) != torus_jones(p, q):
        errors.append(f"T({p},{q}): jones {out['jones_tl']}")
    if terms(out["alexander"]) != torus_alexander(p, q):
        errors.append(f"T({p},{q}): alexander {out['alexander']}")
    return errors
