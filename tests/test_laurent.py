import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ttklib.laurent import Laurent, divide_terms


def L(d, var="t"):
    return Laurent(d, var)


def test_construction_drops_zero_coefficients():
    p = L({0: 1, 3: 0, -2: 5})
    assert p.terms == {0: 1, -2: 5}


def test_basic_arithmetic():
    t = Laurent.gen("t")
    p = t + t ** 3 - t ** 4
    assert p.terms == {1: 1, 3: 1, 4: -1}
    assert (p - p).is_zero
    assert (p * 0) == 0
    assert p * 1 == p
    assert (t * t.mirrored()) == 1
    assert (2 + t) - t == 2


def test_pow_and_shift():
    d = L({2: -1, -2: -1}, var="A")
    assert (d ** 2).terms == {4: 1, 0: 2, -4: 1}
    assert d.shifted(3).terms == {5: -1, 1: -1}
    assert d ** 0 == 1


def test_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        Laurent.gen("t") + Laurent.gen("A")
    # constants mix freely
    assert Laurent.const(2, "t") + Laurent.gen("A") == L({0: 2, 1: 1}, "A")


def test_divide_exact():
    t = Laurent.gen("t")
    num = 1 - t ** 3 - t ** 4 + t ** 5
    assert num.divide_exact(1 - t ** 2) == 1 + t ** 2 - t ** 3
    shifted = num.shifted(-7)
    assert shifted.divide_exact(1 - t ** 2) == (1 + t ** 2 - t ** 3).shifted(-7)
    with pytest.raises(ValueError):
        (t + 1).divide_exact(t - 1)
    with pytest.raises(ValueError):
        (t + 1).divide_exact(2)
    with pytest.raises(ValueError):
        (1 + t ** 2).shifted(-3).divide_exact(1 + t)


def test_evaluate():
    p = L({-1: -1, 0: 1, 1: -1})
    assert p.evaluate(1) == -1
    assert p.evaluate(-1) == 3
    assert L({2: 3}).evaluate(2) == 12


def test_str_canonical_forms():
    t = Laurent.gen("t")
    assert str(t + t ** 3 - t ** 4) == "t + t^3 - t^4"
    assert str(L({-1: -1, 0: 1, 1: -1})) == "-t^-1 + 1 - t"
    assert str(Laurent.zero()) == "0"
    assert str(Laurent.one()) == "1"
    assert str(-Laurent.one()) == "-1"
    assert str(L({2: 3, 0: -2})) == "-2 + 3t^2"


def test_parse_round_trip():
    cases = [
        L({1: 1, 3: 1, 4: -1}),
        L({-1: -1, 0: 1, 1: -1}),
        L({0: 7}),
        L({-5: 2, 5: -2}),
        Laurent.zero(),
    ]
    for p in cases:
        assert Laurent.parse(str(p)) == p


def test_half_variable_powers_print_in_parentheses():
    v = Laurent({-3: 2, 1: -1, 5: -1}, "t^1/2")
    assert str(v) == "2(t^1/2)^-3 - t^1/2 - (t^1/2)^5"
    assert Laurent.parse(str(v)) == v
    assert Laurent.parse(str(v)).var == "t^1/2"


def test_json_round_trip():
    p = L({-2: 4, 0: -1, 7: 3})
    d = p.to_json_dict()
    assert d == {"var": "t", "terms": [[-2, 4], [0, -1], [7, 3]]}
    assert Laurent.from_json_dict(d) == p


def test_symmetry_and_mirror():
    sym = L({-1: 1, 0: -1, 1: 1})
    assert sym.is_symmetric()
    assert not (sym + Laurent.gen("t")).is_symmetric()
    assert sym.mirrored() == sym


@given(st.dictionaries(st.integers(-8, 8), st.integers(-50, 50), max_size=6),
       st.dictionaries(st.integers(-8, 8), st.integers(-50, 50), max_size=6))
def test_product_evaluation_homomorphism(d1, d2):
    a, b = L(d1), L(d2)
    x = 3
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


@given(st.dictionaries(st.integers(-6, 6), st.integers(-20, 20), max_size=5),
       st.dictionaries(st.integers(-6, 6), st.integers(-20, 20), max_size=5))
def test_division_inverts_multiplication(d1, d2):
    a, b = L(d1), L(d2)
    if b.is_zero:
        return
    assert (a * b).divide_exact(b) == a


# -- division against the loop that rescans min(rem) ------------------------
# The lowest-term division loop that rescans min(rem) per quotient term,
# and the plain product loop, kept here as oracles.

def _mul_loop(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _divide_loop(num, den):
    dlo = min(den)
    top = max(num, default=0) - max(den)
    rem, quot = dict(num), {}
    while rem:
        e = min(rem) - dlo
        if e > top:
            raise ValueError("remainder")
        c, r = divmod(rem[e + dlo], den[dlo])
        if r:
            raise ValueError("coefficient")
        quot[e] = c
        for de, dc in den.items():
            v = rem.get(e + de, 0) - c * dc
            if v:
                rem[e + de] = v
            else:
                rem.pop(e + de, None)
    return quot


def _random_terms(rng, size, lo=-6, hi=6, bound=40):
    d = {}
    while len(d) < size:
        d[rng.randint(lo, hi)] = rng.choice([-1, 1]) * rng.randint(1, bound)
    return d


def test_evaluate_at_plus_minus_one_matches_fraction_route():
    rng = random.Random(1968)
    for _ in range(200):
        p = L(_random_terms(rng, rng.randint(0, 8), -9, 9, 1 << 70))
        for x in (1, -1, Fraction(1), Fraction(-1)):
            want = sum((c * Fraction(x) ** e for e, c in p.terms.items()), Fraction(0))
            got = p.evaluate(x)
            assert type(got) is int and got == want, (p, x)


def test_divide_terms_equals_general_loop():
    rng = random.Random(8)
    for _ in range(300):
        den = _random_terms(rng, rng.choice([1, 1, 2, 3, 4]), bound=3)
        exact = _mul_loop(_random_terms(rng, rng.randint(0, 6)), den)
        assert divide_terms(exact, den) == _divide_loop(exact, den)
        num = _random_terms(rng, rng.randint(1, 6))
        try:
            want = _divide_loop(num, den)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                divide_terms(num, den)
        else:
            assert divide_terms(num, den) == want


def test_divide_terms_error_kinds():
    with pytest.raises(ValueError, match="coefficient"):
        divide_terms({1: 3, 0: 1}, {3: 2})
    with pytest.raises(ValueError, match="coefficient"):
        # (t + 1) / (t + 2): the lowest quotient term would be 1/2
        divide_terms({1: 1, 0: 1}, {1: 1, 0: 2})
    with pytest.raises(ValueError, match="remainder"):
        # t^2 + 1 = (t + 1)(t - 1) + 2
        divide_terms({2: 1, 0: 1}, {1: 1, 0: 1})
