from math import gcd

import pytest

from ttklib.braids import (BraidWord, TTKParams, _block_power,
                           _descending_run, braid_for, pass_under_block,
                           torus_braid)
from ttklib.errors import DomainError
from ttklib.invariants import alexander, jones, torus_alexander
from ttklib.knots import lee_torus_pos

# Two kinds of check on ``braid_for``.
#
# Oracle checks compare its words with two other words for the same
# knots: the p-strand word for r <= p, and the (p+q)-strand word for
# every r (it shares ``pass_under_block`` with the builder).  Agreement
# only corroborates the construction, since the words could share a
# mistake.
#
# Independent checks rest on theorems about the knot, not on another
# word: a positive braid closes to a fibered knot, and Lee's
# positive-twist theorem says which K(p,q,r,+1) are torus knots.
#
# No lemma being verified chooses a word: the lemmas are checked in
# tests/test_acceptance.py on whatever ``braid_for`` builds.


def _p_strand_word(params):
    """Oracle: K(p,q,r,n) with r <= p on p strands,
    (s_{p-1}...s_1)^q (s_{r-1}...s_1)^{n*r}."""
    p, q, r, n = params.p, params.q, params.r, params.twist_n
    assert r <= p
    return BraidWord(p, _block_power(_descending_run(p - 1), q)
                     + _block_power(_descending_run(r - 1), n * r))


def _full_word(params):
    """Oracle: K(p,q,r,n) on p+q strands, n full twists on the r leftmost
    strands, then U(q, p)."""
    p, q, r, n = params.p, params.q, params.r, params.twist_n
    return BraidWord(p + q, _block_power(_descending_run(r - 1), n * r)
                     + pass_under_block(q, p))


def _params(p_max, q_max, twists=(-1, 1), q_min=1):
    """Every valid TTKParams with p <= p_max, q <= q_max, the given
    twists and 1 <= r <= p+q."""
    for p in range(2, p_max + 1):
        for q in range(q_min, q_max + 1):
            if gcd(p, q) != 1:
                continue
            for r in range(1, p + q + 1):
                for n in twists:
                    yield TTKParams(p=p, q=q, r=r, twist_n=n)


def test_torus_braid_examples():
    assert torus_braid(2, 3).letters == (1, 1, 1)
    assert torus_braid(3, 2).letters == (2, 1, 2, 1)
    assert torus_braid(2, -3).letters == (-1, -1, -1)
    with pytest.raises(DomainError):
        torus_braid(1, 3)


def test_ttk_braid_examples():
    w = braid_for(TTKParams(p=5, q=2, r=3, twist_n=-1))
    assert w.strands == 5
    assert w.letters == (4, 3, 2, 1, 4, 3, 2, 1, -1, -2, -1, -2, -1, -2)
    assert w.crossing_count == 14

    # the lemma-7 word: twist exponent is r*n with n = +1
    p, q = 7, 3
    w = braid_for(TTKParams(p=p, q=q, r=p - q, twist_n=1))
    run = tuple(range(p - 1, 0, -1))
    twist = tuple(range(p - q - 1, 0, -1)) * (p - q)
    assert w.letters == run * q + twist

    # r <= q < p: the torus braid on q strands, then the twist block
    w = braid_for(TTKParams(p=3, q=2, r=2, twist_n=1))
    assert w == BraidWord(2, (1, 1, 1, 1, 1))
    assert _p_strand_word(TTKParams(p=3, q=2, r=2, twist_n=1)).letters == \
        (2, 1, 2, 1, 1, 1)
    assert braid_for(TTKParams(p=5, q=3, r=2, twist_n=-1)) == \
        BraidWord(3, (2, 1) * 5 + (-1, -1))


def test_ttk_braid_full_examples():
    w = braid_for(TTKParams(p=3, q=2, r=5, twist_n=-1))
    assert w.strands == 5
    assert w.crossing_count == 26
    assert w.letters[:20] == (-1, -2, -3, -4) * 5
    assert w.letters[20:] == (2, 3, 4, 1, 2, 3)
    assert w.component_count() == 1

    assert pass_under_block(1, 2) == [1, 2]

    # max(p,q) < r < p+q: the twist block on p+q strands, then U(q, p)
    w = braid_for(TTKParams(p=5, q=3, r=6, twist_n=1))
    assert w.to_text() == ("B8: " + "5 4 3 2 1 " * 6
                           + "3 4 5 6 7 2 3 4 5 6 1 2 3 4 5")
    # at r = p+q the word is the (p+q)-strand oracle's, n full twists then U(q, p)
    for params in _params(9, 9):
        if params.r == params.p + params.q:
            assert braid_for(params) == _full_word(params), params


def _fewest_strands(p, q, r):
    small, big = min(p, q), max(p, q)
    if r <= small and small >= 2:
        return small
    if r <= big:
        return big
    return p + q


def test_braid_dispatch():
    """The strand rule, on every valid (p, q, r, +-1) with p, q <= 9."""
    count = 0
    for params in _params(9, 9):
        w = braid_for(params)
        assert w.strands == _fewest_strands(params.p, params.q, params.r), params
        count += 1
    assert count == 2 * sum(p + q for p in range(2, 10) for q in range(1, 10)
                            if gcd(p, q) == 1)
    with pytest.raises(DomainError):
        braid_for(TTKParams(p=5, q=3, r=4, twist_n=1, cable_m=2))


def test_invariants_equal_p_strand_oracle():
    """Oracle: for r <= p, p <= 7, the word's Alexander and Jones
    polynomials equal the p-strand word's.  Only r <= q < p changes the
    word."""
    changed = 0
    for params in _params(7, 9):
        if not 2 <= params.r <= params.p:
            continue
        w, oracle = braid_for(params), _p_strand_word(params)
        if w == oracle:
            continue
        changed += 1
        assert w.strands == params.q < params.p
        assert alexander(w) == alexander(oracle), params
        assert jones(w, "tl") == jones(oracle, "tl"), params
    assert changed == 56


def test_q_strand_words_equal_full_oracle():
    """Oracle: every word on p or q strands with p, q <= 7 has the
    Alexander polynomial of the (p+q)-strand word, including the words
    for p < r <= q, which the p-strand oracle does not cover."""
    count = 0
    for params in _params(7, 7):
        w = braid_for(params)
        if params.r >= 2 and w.strands < params.p + params.q:
            assert alexander(w) == alexander(_full_word(params)), params
            count += 1
    assert count == 250


def test_swap_symmetry_between_max_and_p_plus_q():
    """Oracle: K(p,q,r,n) and K(q,p,r,n) have equal Alexander
    polynomials for max(p,q) < r < p+q, p, q <= 8, and equal Jones
    polynomials where p+q <= 9.  The two words differ: U(q,p) against
    U(p,q)."""
    compared = jones_compared = 0
    for params in _params(8, 8, q_min=2):
        p, q, r, n = params.p, params.q, params.r, params.twist_n
        if not q < p < r < p + q:
            continue
        a = braid_for(params)
        b = braid_for(TTKParams(p=q, q=p, r=r, twist_n=n))
        assert a != b
        assert alexander(a) == alexander(b), params
        compared += 1
        if p + q <= 9:
            assert jones(a, "tl") == jones(b, "tl"), params
            jones_compared += 1
    assert (compared, jones_compared) == (80, 20)


def test_positive_words_close_to_fibered_knots():
    """Independent: with n = +1 the word is a positive braid, so its
    closure is a fibered knot (Stallings), whose Alexander polynomial is
    monic of breadth 2g = crossings - strands + 1."""
    count = 0
    for params in _params(9, 9, twists=(1,)):
        w = braid_for(params)
        assert all(x > 0 for x in w.letters)
        assert w.is_knot(), params
        delta = alexander(w)
        assert delta.breadth == w.crossing_count - w.strands + 1, params
        assert abs(delta.terms[delta.max_exp]) == 1, params
        count += 1
    assert count == sum(p + q for p in range(2, 10) for q in range(1, 10)
                        if gcd(p, q) == 1)


def test_positive_twists_past_p_are_not_torus_knots():
    """Independent: by Lee's positive-twist theorem K(p,q,r,+1) with
    2 <= q < p and p < r < p+q (q not dividing r) is not a torus knot;
    no torus knot of the same Alexander breadth has its Alexander
    polynomial."""
    count = 0
    for params in _params(9, 8, twists=(1,), q_min=2):
        p, q, r = params.p, params.q, params.r
        if not (q < p < r < p + q) or r % q == 0:
            continue
        assert not lee_torus_pos(p, q, r, 1).matched
        delta = alexander(braid_for(params))
        breadth = delta.breadth
        # T(x, y) with 2 <= y < x has breadth (x-1)(y-1)
        for y in range(2, breadth + 1):
            x, rem = divmod(breadth, y - 1)
            x += 1
            if rem == 0 and x > y and gcd(x, y) == 1:
                assert torus_alexander(x, y) != delta, (params, x, y)
        count += 1
    assert count == 42


def test_crossing_count_and_writhe_formulas():
    for (p, q, r, n) in [(5, 2, 3, -1), (7, 3, 4, 1), (8, 3, 5, -2), (9, 2, 7, 3)]:
        w = braid_for(TTKParams(p=p, q=q, r=r, twist_n=n))
        assert w.crossing_count == q * (p - 1) + abs(n) * r * (r - 1)
        assert w.writhe == q * (p - 1) + n * r * (r - 1)
    # on s in {p, q} strands the torus braid has (p+q-s)(s-1) crossings;
    # on p+q strands U(q, p) has pq
    for params in _params(9, 9, twists=(-2, 1)):
        p, q, r, n = params.p, params.q, params.r, params.twist_n
        w = braid_for(params)
        s = w.strands
        torus = p * q if s == p + q else (p + q - s) * (s - 1)
        assert w.crossing_count == torus + abs(n) * r * (r - 1), params
        assert w.writhe == torus + n * r * (r - 1), params


def test_mirror():
    w = BraidWord(2, (1, 1, 1))
    assert w.mirror().letters == (-1, -1, -1)
    assert w.mirror().mirror() == w
    assert w.mirror().writhe == -w.writhe


def test_component_count_gcd():
    for p in range(2, 13):
        for q in range(2, 13):
            assert torus_braid(p, q).component_count() == gcd(p, q)


def test_ttk_closures_are_knots():
    """Full twists are pure braids, so every K(p,q,r,n) closes to a
    knot, on every construction."""
    for (p, q) in [(5, 2), (7, 3), (8, 3), (9, 2), (13, 5), (2, 9), (3, 8)]:
        for r in range(1, p + q + 1):
            for n in (-1, 1):
                params = TTKParams(p=p, q=q, r=r, twist_n=n)
                assert braid_for(params).component_count() == 1, params
                assert _full_word(params).component_count() == 1, params


def test_text_round_trip():
    w = braid_for(TTKParams(p=5, q=2, r=3, twist_n=-1))
    assert w.to_text() == "B5: 4 3 2 1 4 3 2 1 -1 -2 -1 -2 -1 -2"
    assert BraidWord.from_text(w.to_text()) == w
    assert BraidWord.from_text("B3:") == BraidWord(3, ())
    with pytest.raises(DomainError):
        BraidWord.from_text("5: 1 2")


def test_letter_validation():
    with pytest.raises(DomainError):
        BraidWord(3, (3,))
    with pytest.raises(DomainError):
        BraidWord(3, (0,))


def test_params_validation():
    with pytest.raises(DomainError):
        TTKParams(p=4, q=2, r=3, twist_n=1)     # gcd
    with pytest.raises(DomainError):
        TTKParams(p=5, q=2, r=8, twist_n=1)     # r > p+q
    with pytest.raises(DomainError):
        TTKParams(p=5, q=2, r=3, twist_n=0)     # zero twists
    with pytest.raises(DomainError):
        TTKParams(p=5, q=2, r=3, twist_n=2, cable_m=2)  # cable/twist gcd
    # degenerate q = 1 and r = 1 stay constructible (Fibonacci family)
    assert braid_for(TTKParams(p=2, q=1, r=1, twist_n=-1)).letters == (1,)


def test_labels():
    assert TTKParams(p=5, q=2, r=3, twist_n=-1).label() == "K(5,2,3,-1)"
    assert TTKParams(p=5, q=3, r=4, twist_n=1, cable_m=2).label() == "K(5,3,4,2,1)"
