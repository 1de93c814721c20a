from math import gcd

import pytest

from ttklib.braids import TTKParams, braid_for
from ttklib.errors import DomainError
from ttklib.horadam import HoradamSpec, slope_s, slope_t
from ttklib.invariants import alexander, torus_alexander
from ttklib.knots import (HoradamTTK, Limits, corollary_maximal_pair_check,
                          lee_torus_neg_kq, lee_torus_pos, lee_torus_qsmall,
                          resolve, surface_slope, type1_reduce,
                          verify_corollary, verify_lemma, verify_lemma7,
                          verify_lemma8, verify_lemma9, verify_prop12_1)


def test_resolve_examples():
    assert resolve(HoradamTTK(2, 7, 0, 1)) == TTKParams(p=9, q=2, r=7, twist_n=-1)
    assert resolve(HoradamTTK(2, 7, 0, 3)) == TTKParams(p=9, q=7, r=2, twist_n=-1)
    assert resolve(HoradamTTK(1, 2, 1, 5)) == TTKParams(p=3, q=2, r=5, twist_n=-1)
    assert resolve(HoradamTTK(2, 7, 0, 2)).twist_n == 1


def test_resolve_rejects_degenerate_strict():
    with pytest.raises(DomainError):
        resolve(HoradamTTK(1, 2, 0, 1))  # H_0 = 1 < 2
    assert resolve(HoradamTTK(1, 2, 0, 1), strict=False).q == 1


def test_surface_slope_examples():
    assert surface_slope(TTKParams(p=9, q=7, r=2, twist_n=-1)) == 59
    assert surface_slope(TTKParams(p=9, q=7, r=16, twist_n=-1)) == -193
    assert surface_slope(TTKParams(p=5, q=2, r=3, twist_n=-1)) == 1


def test_surface_slope_matches_slope_sequences():
    # type 3 at k has slope s_{k+1}; type 5 at k has slope -t_k
    for m in range(1, 11):
        for n in range(1, 11):
            if gcd(m, n) != 1:
                continue
            spec = HoradamSpec(m, n)
            for k in range(0, 9):
                p3 = resolve(HoradamTTK(m, n, k, 3), strict=False)
                assert surface_slope(p3) == slope_s(spec, k + 1), (m, n, k)
                if k >= 1:
                    p5 = resolve(HoradamTTK(m, n, k, 5), strict=False)
                    assert surface_slope(p5) == -slope_t(spec, k), (m, n, k)


def test_slope_distinctness_across_indices():
    # the surface slopes of distinct K_i, K_j (and K'_i, K'_j) differ by
    # at least 2, the arithmetic core of the knot-type distinctness
    for m in range(2, 11):
        for n in range(2, 11):
            if gcd(m, n) != 1:
                continue
            spec = HoradamSpec(m, n)
            s_vals = [slope_s(spec, k + 1) for k in range(9)]
            t_vals = [slope_t(spec, k) for k in range(1, 9)]
            for i in range(len(s_vals)):
                for j in range(i + 1, len(s_vals)):
                    assert abs(s_vals[i] - s_vals[j]) >= 2
            for i in range(len(t_vals)):
                for j in range(i + 1, len(t_vals)):
                    assert abs(t_vals[i] - t_vals[j]) >= 2


def test_lee_torus_pos_examples():
    assert lee_torus_pos(7, 3, 2, 1) == lee_torus_pos(7, 3, 2, 1)
    m = lee_torus_pos(7, 3, 2, 1)
    assert m.matched and (m.a, m.b) == (2, 3)
    assert not lee_torus_pos(7, 3, 2, 2).matched
    assert not lee_torus_pos(8, 3, 2, 1).matched
    with pytest.raises(DomainError):
        lee_torus_pos(7, 3, 7, 1)  # r = p
    with pytest.raises(DomainError):
        lee_torus_pos(7, 3, 6, 1)  # q | r


def test_lee_torus_neg_kq_examples():
    m = lee_torus_neg_kq(11, 4, 2)
    assert m.matched and (m.a, m.b) == (2, 4)
    assert not lee_torus_neg_kq(13, 5, 2).matched
    m = lee_torus_neg_kq(7, 4, 1)
    assert m.matched and (m.a, m.b) == (1, 4)
    with pytest.raises(DomainError):
        lee_torus_neg_kq(11, 4, 1)  # p - kq = 7 >= q


def test_lee_torus_qsmall_examples():
    m = lee_torus_qsmall(7, 3)
    assert m.matched and (m.a, m.b) == (2, 2)
    assert (m.torus_p, m.torus_q) == (3, 2)
    assert not lee_torus_qsmall(9, 2).matched
    m = lee_torus_qsmall(11, 4)
    assert m.matched and (m.torus_p, m.torus_q) == (3, -2)
    # Fibonacci triples match at a = 1, naming the trivial torus knot
    m = lee_torus_qsmall(5, 2)
    assert m.matched and m.a == 1 and m.torus_p == 2
    assert alexander(braid_for(TTKParams(p=5, q=2, r=3, twist_n=-1))) == \
        torus_alexander(m.torus_p, abs(m.torus_q))
    with pytest.raises(DomainError):
        lee_torus_qsmall(5, 3)  # q >= p - q


def test_lee_torus_qsmall_cross_checked_by_alexander():
    from ttklib.knots import torus_alexander_matches
    m = lee_torus_qsmall(7, 3)
    assert torus_alexander_matches(TTKParams(p=7, q=3, r=4, twist_n=-1), m)
    d = alexander(braid_for(TTKParams(p=9, q=2, r=7, twist_n=-1)))
    assert d != torus_alexander(3, 2) and d != torus_alexander(5, 2)


def test_corollary_examples():
    assert corollary_maximal_pair_check(4, 7, 4).consistent
    assert all(m for _, m in corollary_maximal_pair_check(4, 7, 4).per_k)
    rep = corollary_maximal_pair_check(2, 7, 4)
    assert rep.consistent and not any(m for _, m in rep.per_k)
    assert corollary_maximal_pair_check(3, 7, 4).consistent


def test_corollary_refuses_negative_k_max():
    # k_max = -1 would check no k at all and read "consistent"
    with pytest.raises(DomainError, match="k_max >= 0"):
        corollary_maximal_pair_check(2, 7, -1)
    assert corollary_maximal_pair_check(2, 7, 0).per_k == [(0, False)]


def test_type1_reduce():
    h, mirrored = type1_reduce(2, 7, 1)
    assert h == HoradamTTK(2, 7, 0, 1) and mirrored
    assert resolve(h) == TTKParams(p=9, q=2, r=7, twist_n=-1)
    with pytest.raises(DomainError):
        type1_reduce(2, 7, 0)


def test_type1_reduce_invariant_step():
    # K(16,7,9,-1) reduces to the mirror of K(9,2,7,-1); Alexander agrees
    top = braid_for(TTKParams(p=16, q=7, r=9, twist_n=-1))
    bottom = braid_for(resolve(HoradamTTK(2, 7, 0, 1)))
    assert alexander(top) == alexander(bottom)


def test_verify_lemma7():
    rep = verify_lemma7(5, 2)
    assert rep.verdict == "consistent"
    assert rep.invariants == {"alexander": "equal", "jones": "equal"}
    with pytest.raises(DomainError):
        verify_lemma7(5, 3)  # p <= 2q


def test_verify_lemma8():
    rep = verify_lemma8(3, 2)
    assert rep.verdict == "consistent"
    assert rep.invariants["jones"] == "mirror"
    d = rep.to_json_dict()
    assert d["claim"] == "lemma8" and d["verdict"] == "consistent"


def test_verify_lemma9_small():
    rep = verify_lemma9(1, 2, 1)
    assert rep.verdict == "consistent"
    assert rep.invariants["alexander"] == "equal"


def test_verify_prop12_small():
    rep = verify_prop12_1(1, 2, 2)
    assert rep.verdict == "consistent"
    assert rep.invariants["alexander"] == "equal"
    assert len(rep.details) == 2


def test_verify_dispatch():
    rep = verify_lemma("corollary", {"m": 2, "n": 7, "k_max": 3})
    assert rep.verdict == "consistent"
    with pytest.raises(DomainError):
        verify_lemma("lemma99", {})
    # a missing parameter is a domain error, not a KeyError
    for name, params in [("lemma7", {"p": 5}), ("lemma9", {"n": 2}),
                         ("prop12_1", {"m": 1}), ("corollary", {})]:
        with pytest.raises(DomainError, match="needs"):
            verify_lemma(name, params)


# At 400 TL operations prop12-1 (1,2,3) computes Jones on its k = 1 step
# only, so its details mix "mirror" and "skipped".
@pytest.mark.parametrize("name, params, named", [
    ("lemma7", {"p": 5, "q": 2}, lambda lim: verify_lemma7(5, 2, lim)),
    ("lemma8", {"p": 3, "q": 2}, lambda lim: verify_lemma8(3, 2, lim)),
    ("lemma9", {"m": 1, "n": 2, "k": 1}, lambda lim: verify_lemma9(1, 2, 1, lim)),
    ("lemma9", {"m": 1, "n": 2}, lambda lim: verify_lemma9(1, 2, 0, lim)),
    ("prop12-1", {"m": 1, "n": 2, "k_max": 3},
     lambda lim: verify_prop12_1(1, 2, 3, lim)),
    ("prop12_1", {"m": 1, "n": 2}, lambda lim: verify_prop12_1(1, 2, 1, lim)),
    ("corollary", {"m": 2, "n": 7, "k_max": 3}, lambda lim: verify_corollary(2, 7, 3)),
    ("corollary", {"m": 3, "n": 7}, lambda lim: verify_corollary(3, 7, 1)),
])
def test_verify_lemma_matches_named_function(name, params, named):
    limits = Limits(tl_ops=400)
    rep, want = verify_lemma(name, params, limits), named(limits)
    assert rep.to_json_dict() == want.to_json_dict()
    assert rep.details == want.details


def test_six_types_are_primitive_primitive():
    # every resolved Horadam triple has r = p + q or |p - q|, hence pp
    from ttklib.classify import is_pp, normalized_triple
    for m in range(1, 26):
        for n in range(1, 26):
            if gcd(m, n) != 1:
                continue
            for k in range(0, 7):
                for ty in range(1, 7):
                    try:
                        params = resolve(HoradamTTK(m, n, k, ty))
                    except DomainError:
                        continue  # degenerate parameters below the triple domain
                    t = normalized_triple(params.p, params.q, params.r)
                    if t is None:
                        continue
                    assert is_pp(t), (m, n, k, ty)


def test_lemma9_type_shift_identity():
    # type 6 at k is isotopic to type 3 at k+1; Alexander agrees
    for (m, n, k) in [(1, 2, 0), (2, 3, 0), (1, 2, 1)]:
        a = braid_for(resolve(HoradamTTK(m, n, k, 6), strict=False))
        b = braid_for(resolve(HoradamTTK(m, n, k + 1, 3), strict=False))
        assert alexander(a) == alexander(b), (m, n, k)
