from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ttklib import horadam
from ttklib.errors import DomainError
from ttklib.horadam import (Embedding, HoradamSpec, SlopeValue,
                            check_slope_relations, closed_form_term,
                            embed_in_unit_sequence, euclid_trace, fibonacci,
                            horadam_term, invariant_s, is_maximal_pair,
                            slope_s, slope_t, slope_values)


def test_horadam_term_examples():
    assert horadam_term(HoradamSpec(0, 1), 6) == 8
    assert horadam_term(HoradamSpec(2, 3), 4) == 13
    assert horadam_term(HoradamSpec(1, 2, a=3, b=2), 2) == 7


def test_fibonacci_examples():
    assert fibonacci(0) == 0
    assert fibonacci(2) == 1
    assert fibonacci(7) == 13


def test_closed_form_examples():
    assert closed_form_term(2, 7, 3) == 16
    assert closed_form_term(0, 1, 5) == 5
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert closed_form_term(m, n, 1) == n


def test_invariant_s_examples():
    assert invariant_s(2, 3) == 1
    assert invariant_s(0, 1) == -1
    assert invariant_s(2, 7) == -31


def test_slope_examples():
    spec = HoradamSpec(2, 7)
    assert slope_s(spec, 1) == 59
    assert slope_s(spec, 2) == 95
    assert slope_t(spec, 1) == 193
    # Lemma 3.2 route to the same value: s_2 = s_1 + 2*eps*s + 2*H_1^2
    assert 59 + 2 * invariant_s(2, 7) + 2 * 49 == 95


def test_slope_requires_unit_coefficients():
    with pytest.raises(DomainError):
        slope_s(HoradamSpec(1, 2, a=2, b=1), 1)


def test_slope_values_listing():
    vals = slope_values(HoradamSpec(2, 7), 2)
    d = {(v.kind, v.index): v.value for v in vals}
    assert d[("S", 1)] == 59 and d[("S", 2)] == 95 and d[("T", 1)] == 193


def test_slope_values_equal_per_k_slopes_in_one_pass(monkeypatch):
    cases = [(HoradamSpec(2, 7), 1), (HoradamSpec(0, 1), 8),
             (HoradamSpec(-1, 4), 25), (HoradamSpec(5, 3), 60),
             (HoradamSpec(13, -8), 60)]
    wants = [[SlopeValue("S", k, slope_s(spec, k)) for k in range(1, k_max + 1)]
             + [SlopeValue("T", k, slope_t(spec, k)) for k in range(1, k_max + 1)]
             for spec, k_max in cases]

    def refuse(spec, k):
        raise AssertionError("slope_values must not recompute each term")

    # one pass over spec.terms, not one horadam_term per index
    monkeypatch.setattr(horadam, "horadam_term", refuse)
    for (spec, k_max), want in zip(cases, wants):
        assert slope_values(spec, k_max) == want, spec
    with pytest.raises(DomainError):
        slope_values(HoradamSpec(1, 2, a=2, b=1), 3)


@given(st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=120)
def test_closed_form_matches_recursion(m, n):
    spec = HoradamSpec(m, n)
    for k in range(1, 21):
        assert horadam_term(spec, k) == closed_form_term(m, n, k)


def test_slope_relations_hold_small_grid():
    for m in range(1, 15):
        for n in range(1, 15):
            assert check_slope_relations(HoradamSpec(m, n), 12).ok


def test_slope_relations_fibonacci():
    assert check_slope_relations(HoradamSpec(0, 1), 10).ok


def test_slope_monotonicity_and_gaps():
    for m in range(1, 12):
        for n in range(1, 12):
            spec = HoradamSpec(m, n)
            ss = [slope_s(spec, k) for k in range(1, 12)]
            ts = [slope_t(spec, k) for k in range(1, 12)]
            # {s_k}_{k>=2} increases with gaps >= 2; same for {t_k}_{k>=1}
            assert all(b - a >= 2 for a, b in zip(ss[1:], ss[2:]))
            assert all(b - a >= 2 for a, b in zip(ts, ts[1:]))
            if m < n:
                assert all(b > a for a, b in zip(ss, ss[1:]))
            # distinctness with gap > 1 across the whole range (k, l >= 1)
            for i, a in enumerate(ss):
                for b in ss[i + 1:]:
                    assert abs(b - a) > 1
            for i, a in enumerate(ts):
                for b in ts[i + 1:]:
                    assert abs(b - a) > 1


def test_euclid_trace_examples():
    tr = euclid_trace(8, 13)
    assert tr.quotients == (1, 1, 1, 1)
    assert tr.remainders == (5, 3, 2, 1)
    assert tr.l == 3 and tr.q0 == 1
    tr = euclid_trace(2, 7)
    assert tr.quotients == (3,) and tr.remainders == (1,)
    tr = euclid_trace(3, 7)
    assert tr.quotients == (2,) and tr.remainders == (1,)


def test_euclid_trace_rejects_bad_input():
    with pytest.raises(DomainError):
        euclid_trace(1, 5)
    with pytest.raises(DomainError):
        euclid_trace(5, 5)
    with pytest.raises(DomainError):
        euclid_trace(7, 3)
    with pytest.raises(DomainError):
        euclid_trace(6, 9)


def test_maximal_pair_examples():
    assert is_maximal_pair(8, 13)
    assert is_maximal_pair(3, 7)
    assert not is_maximal_pair(2, 7)


def test_embedding_examples():
    assert embed_in_unit_sequence(4, 7) == Embedding(1, 3, 2)
    assert embed_in_unit_sequence(3, 7) == Embedding(-1, 4, 2)
    assert embed_in_unit_sequence(2, 7) is None
    # single-division chains
    assert embed_in_unit_sequence(2, 3) == Embedding(1, 2, 1)
    assert embed_in_unit_sequence(4, 5) == Embedding(1, 4, 1)
    assert embed_in_unit_sequence(2, 5) == Embedding(-1, 3, 2)


def test_embedding_sequences_regenerate():
    emb = embed_in_unit_sequence(4, 7)
    assert emb.spec().terms(4) == [1, 3, 4, 7]
    emb = embed_in_unit_sequence(3, 7)
    assert emb.spec().terms(5) == [-1, 4, 3, 7, 10]


def test_embed_iff_maximal_small():
    for n in range(3, 80):
        for m in range(2, n):
            if gcd(m, n) != 1:
                continue
            assert (embed_in_unit_sequence(m, n) is not None) == is_maximal_pair(m, n)


def test_maximal_pair_propagation():
    # consecutive terms of H_{m,n} are maximal pairs iff (m, n) is one
    for m in range(2, 21):
        for n in range(m + 1, 21):
            if gcd(m, n) != 1:
                continue
            base = is_maximal_pair(m, n)
            H = HoradamSpec(m, n).terms(9)
            for j in range(1, 7):
                assert is_maximal_pair(H[j], H[j + 1]) == base, (m, n, j)
