import itertools
import math
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttklib import invariants
from ttklib.braids import BraidWord, TTKParams, braid_for, torus_braid
from ttklib.errors import BudgetError, DomainError, NotAKnotError
from ttklib.horadam import HoradamSpec, fibonacci
from ttklib.invariants import (alexander, burau_matrix, det_laurent,
                               equal_up_to_mirror, invariant_report, jones,
                               kauffman_bracket, knot_determinant, tl_bracket,
                               torus_alexander, torus_jones, tl_predicted_ops,
                               _normalize_alexander)
from ttklib.knots import lee_torus_qsmall
from ttklib.laurent import Laurent

TREFOIL = BraidWord(2, (1, 1, 1))
FIGURE8 = BraidWord(3, (1, -2, 1, -2))


def random_word(rng, max_strands=5, max_len=12):
    n = rng.randint(2, max_strands)
    L = rng.randint(1, max_len)
    alphabet = [i for i in range(-(n - 1), n) if i != 0]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(L)))


# -- Kauffman bracket ---------------------------------------------------

def test_bracket_unknots():
    assert kauffman_bracket(BraidWord(1, ())) == 1
    two = kauffman_bracket(BraidWord(2, ()))
    assert two == Laurent({2: -1, -2: -1}, "A")


def test_bracket_trefoil():
    br = kauffman_bracket(TREFOIL)
    assert br == Laurent({-7: 1, -3: -1, 5: -1}, "A")
    assert br.max_exp - br.min_exp == 12


def test_bracket_budget_error():
    w = BraidWord(2, (1,) * 10)
    with pytest.raises(BudgetError) as exc:
        kauffman_bracket(w, budget=8)
    assert exc.value.kind == "crossings" and exc.value.count == 10


# -- Kauffman state sum against the per-state sum ----------------------------

def power_closure_sum(pairs):
    """Oracle: sum of terms * delta^(loops-1), one Laurent power of delta
    and one product per loop count."""
    delta = Laurent({2: -1, -2: -1}, var="A")
    by_loops = {}
    for loops, terms in pairs:
        acc = by_loops.setdefault(loops, {})
        for e, c in terms.items():
            acc[e] = acc.get(e, 0) + c
    bracket = Laurent.zero("A")
    for loops, terms in by_loops.items():
        bracket = bracket + Laurent(terms, "A") * delta ** (loops - 1)
    return bracket


def state_loops(letters, n, state):
    """Loop count of the closure after smoothing every crossing:
    bit 0 = strands pass straight through, bit 1 = cup-cap."""
    parent = list(range(n))
    pos = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    loops = 0
    for idx in range(len(letters)):
        if not (state >> idx) & 1:
            continue
        i = abs(letters[idx]) - 1
        a, b = find(pos[i]), find(pos[i + 1])
        if a == b:
            loops += 1
        else:
            parent[a] = b
        fresh = len(parent)
        parent.append(fresh)
        pos[i] = fresh
        pos[i + 1] = fresh
    for j in range(n):
        a, b = find(pos[j]), find(j)
        if a == b:
            loops += 1
        else:
            parent[a] = b
    return loops


def per_state_bracket(word):
    """Oracle: the state sum with each of the 2^c states on a fresh
    union-find and its A-exponent recomputed bit by bit."""
    letters, n, c = word.letters, word.strands, word.crossing_count
    signs = [1 if x > 0 else -1 for x in letters]
    counts = {}
    for state in range(1 << c):
        exp = sum(-s if (state >> idx) & 1 else s for idx, s in enumerate(signs))
        key = (exp, state_loops(letters, n, state))
        counts[key] = counts.get(key, 0) + 1
    return power_closure_sum((loops, {exp: cnt}) for (exp, loops), cnt in counts.items())


def test_state_sum_equals_per_state_sum():
    rng = random.Random(20261019)
    words = [BraidWord(n, ()) for n in range(1, 5)]
    for n in range(2, 8):
        words += [random_word_on(rng, n, rng.randint(1, 10)) for _ in range(40)]
    # strands that no letter touches: letters on a window of the positions
    for n in range(4, 8):
        for _ in range(6):
            lo = rng.randint(1, n - 2)
            alphabet = [i for i in range(lo, rng.randint(lo, n - 2) + 1)]
            words.append(BraidWord(n, tuple(rng.choice(alphabet) * rng.choice((1, -1))
                                            for _ in range(rng.randint(1, 9)))))
    links = {2: [], 3: []}
    while len(links[2]) < 20 or len(links[3]) < 10:
        w = random_word_on(rng, rng.randint(2, 6), rng.randint(2, 12))
        comps = w.component_count()
        if comps in links and len(links[comps]) < (20 if comps == 2 else 10):
            links[comps].append(w)
    words += links[2] + links[3]
    words += [random_word_on(rng, n, c) for n, c in ((2, 14), (4, 13), (5, 14))]
    assert len(words) >= 300
    assert {x > 0 for w in words for x in w.letters} == {True, False}
    assert max(w.crossing_count for w in words) == 14
    assert any(len({abs(x) for x in w.letters} | {abs(x) + 1 for x in w.letters})
               < w.strands for w in words if w.letters)
    for w in words:
        assert kauffman_bracket(w) == per_state_bracket(w), w


def test_state_sum_many_arcs_equals_tl():
    # 12 strands, 16 crossings: 32 arcs and a walk 16 levels deep
    rng = random.Random(12)
    w = BraidWord(12, tuple(range(1, 12)) + tuple(
        rng.choice((1, -1)) * rng.randint(1, 11) for _ in range(5)))
    assert w.crossing_count == 16
    assert kauffman_bracket(w) == tl_bracket(w)


def test_closure_sum_equals_delta_powers():
    rng = random.Random(31)
    for _ in range(400):
        used = rng.sample(range(1, 13), rng.randint(0, 5))  # gaps in loops
        pairs = []
        for loops in used:
            for _ in range(rng.randint(1, 3)):
                terms = {rng.randint(-20, 20): rng.randint(-9, 9)
                         for _ in range(rng.randint(0, 4))}
                pairs.append((loops, terms))
                if rng.random() < 0.3:  # cancelling terms
                    pairs.append((loops, {e: -c for e, c in terms.items()}))
        assert invariants._closure_sum(pairs) == power_closure_sum(pairs), pairs
    assert invariants._closure_sum([]) == 0
    assert invariants._closure_sum([(12, {3: 5}), (12, {3: -5})]) == 0


# -- Jones --------------------------------------------------------------

def test_jones_trefoil_both_methods():
    expected = Laurent({1: 1, 3: 1, 4: -1})
    assert jones(TREFOIL, "kauffman") == expected
    assert jones(TREFOIL, "tl") == expected


def test_jones_mirror_trefoil():
    assert jones(TREFOIL.mirror(), "tl") == torus_jones(2, 3).mirrored()


def test_jones_unknot_family_member():
    w = braid_for(TTKParams(p=5, q=2, r=3, twist_n=-1))
    assert jones(w, "tl") == 1
    assert jones(w, "kauffman") == 1


def test_torus_jones_closed_form_values():
    assert torus_jones(2, 3) == Laurent({1: 1, 3: 1, 4: -1})
    assert torus_jones(2, 5) == Laurent({2: 1, 4: 1, 5: -1, 6: 1, 7: -1})
    assert torus_jones(3, 1) == 1
    assert torus_jones(1, 0) == 1
    assert torus_jones(-2, 3) == torus_jones(2, 3).mirrored()


def test_torus_closed_forms_match_braids():
    for p in range(3, 8):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            w = torus_braid(p, q)
            assert jones(w, "tl") == torus_jones(p, q), (p, q)
            assert alexander(w) == torus_alexander(p, q), (p, q)


def test_tl_equals_kauffman_on_random_words():
    rng = random.Random(20240811)
    for _ in range(60):
        w = random_word(rng)
        assert jones(w, "tl") == jones(w, "kauffman"), w


def test_jones_mirror_contract_random():
    rng = random.Random(7)
    for _ in range(25):
        w = random_word(rng)
        assert jones(w.mirror(), "tl") == jones(w, "tl").mirrored(), w


def test_jones_link_half_integer_variable():
    hopf = BraidWord(2, (1, 1))
    v = jones(hopf, "tl")
    assert v.var == "t^1/2"
    # V(Hopf+) = -t^(1/2) - t^(5/2), exponents doubled in the half variable
    assert v == Laurent({1: -1, 5: -1}, "t^1/2")


def test_tl_budget_behaviour():
    w = braid_for(TTKParams(p=13, q=5, r=8, twist_n=-1))
    with pytest.raises(BudgetError) as exc:
        tl_bracket(w, ops_budget=100_000)
    assert exc.value.kind == "tl-ops"
    with pytest.raises(BudgetError) as exc:
        jones(w, tl_ops=100_000)
    assert exc.value.kind == "tl-ops"
    assert tl_predicted_ops(2, 3) == 1 + 2 + 2


def test_jones_auto_method_refused():
    # one production route: the state sum is reached only by name
    with pytest.raises(DomainError):
        jones(FIGURE8, "auto")
    assert jones(FIGURE8) == jones(FIGURE8, "kauffman")


# -- Splitting the closure before the transfer ----------------------------

@st.composite
def splittable_words(draw):
    """Words biased toward the cuts of split_closure: each generator
    occurs never, once or a few times, and cancelling pairs may wrap
    round the word.  Unused generators and even counts make links."""
    n = draw(st.integers(2, 7))
    letters = []
    for i in range(1, n):
        count = draw(st.sampled_from((0, 1, 1, 2, 3)))
        letters += [draw(st.sampled_from((i, -i))) for _ in range(count)]
    letters = draw(st.permutations(letters))
    for x in draw(st.lists(st.integers(1, n - 1), max_size=2)):
        x = draw(st.sampled_from((x, -x)))
        letters = [x] + letters + [-x]
    return BraidWord(n, tuple(letters))


@settings(max_examples=150, deadline=None)
@given(splittable_words())
def test_split_jones_equals_unsplit(word):
    v = jones(word, "tl")
    assert v == invariants._bracket_to_jones(tl_bracket(word), word.writhe)
    if word.crossing_count <= 12:
        assert v == jones(word, "kauffman")


def test_split_closure_pieces():
    # sigma_2 never occurs: trefoil and Hopf link, a split union
    sign, shift, loops, pieces = invariants.split_closure(BraidWord(4, (1, 3, 1, 3, 1)))
    assert (sign, shift, loops) == (1, 0, 2)
    assert sorted(p.letters for p in pieces) == [(1, 1), (1, 1, 1)]
    # a pair cancelling round the wrap; then sigma_2^-1 once, sigma_3 never
    sign, shift, loops, pieces = invariants.split_closure(
        BraidWord(4, (-3, 1, 1, -2, 1, 3)))
    assert (sign, shift, loops) == (-1, -3, 2)
    assert sorted(p.letters for p in pieces) == [(1, 1, 1)]
    assert invariants.split_closure(BraidWord(3, (2, -2))) == (1, 0, 3, [])
    # a pair cancelling inside the word, which leaves sigma_2 unused
    sign, shift, loops, pieces = invariants.split_closure(BraidWord(3, (1, 2, -2, 1, 1)))
    assert (sign, shift, loops) == (1, 0, 2)
    assert [(p.strands, p.letters) for p in pieces] == [(2, (1, 1, 1))]


# The reference words: each splits into one piece that the transfer
# answers far within the budget that the unsplit word exceeds.
B18 = BraidWord(18, tuple(range(1, 18)) + (1, 2, 3, 4))
B14 = BraidWord(14, tuple(range(1, 14)) + tuple(range(1, 10)))


@pytest.mark.parametrize("word, expected, predicted", [
    (B18, torus_jones(2, 5), 147),  # (s1 s2 s3 s4)^2: T(5,2)
    (B14, Laurent({9: -1, **{e: (-1) ** ((e - 11) // 2) for e in range(13, 30, 2)}},
                  "t^1/2"), 83_155),  # (s1 ... s9)^2: the torus link T(10,2)
], ids=["B18", "B14"])
def test_reference_words_split(word, expected, predicted):
    pieces = invariants.split_closure(word)[3]
    assert len(pieces) == 1
    assert sum(tl_predicted_ops(p.strands, p.crossing_count) for p in pieces) == predicted
    assert predicted <= 100_000 < tl_predicted_ops(word.strands, word.crossing_count)
    assert jones(word) == expected


# -- Temperley-Lieb transfer against the dict transfer ---------------------

def dict_tl_bracket(word):
    """Oracle: the transfer that keeps each diagram's coefficient as an
    {A-exponent: coefficient} dict and, per crossing, adds A^s times it
    to the diagram and A^-s times it to the diagram with e_i below
    (times delta on a loop)."""
    def add(new, diag, terms, shifts, scale):
        tgt = new.setdefault(diag, {})
        for e, c in terms.items():
            for k in shifts:
                tgt[e + k] = tgt.get(e + k, 0) + scale * c

    n = word.strands
    vec = {invariants._identity_diagram(n): {0: 1}}
    for letter in word.letters:
        i = abs(letter) - 1
        s = 1 if letter > 0 else -1
        new = {}
        for diag, terms in vec.items():
            add(new, diag, terms, (s,), 1)
            nd, loop = invariants._compose_e(diag, i, n)
            if loop:
                add(new, nd, terms, (2 - s, -2 - s), -1)
            else:
                add(new, nd, terms, (-s,), 1)
        vec = {d: t for d, t in ((d, {e: c for e, c in t.items() if c})
                                 for d, t in new.items()) if t}
    return invariants._closure_sum((invariants._closure_loops(d, n), t)
                                   for d, t in vec.items())


def random_word_on(rng, n, length):
    alphabet = [i for i in range(1 - n, n) if i]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length)))


def biased_word_on(rng, n, length, positive):
    """A random word whose letters are positive with probability ``positive``."""
    return BraidWord(n, tuple(rng.randint(1, n - 1) * (1 if rng.random() < positive else -1)
                              for _ in range(length)))


def tied_word_on(rng, n, length):
    """A random word with as many positive as negative letters."""
    signs = [1, -1] * (length // 2)
    rng.shuffle(signs)
    return BraidWord(n, tuple(s * rng.randint(1, n - 1) for s in signs))


def mirror_side(word):
    """+1 when most letters are positive (the transfer runs on the mirror
    word), -1 when most are negative, 0 for a tie."""
    pos = sum(x > 0 for x in word.letters)
    return (2 * pos > word.crossing_count) - (2 * pos < word.crossing_count)


def test_tl_bracket_equals_dict_transfer():
    rng = random.Random(20261018)
    words = [BraidWord(n, ()) for n in range(1, 9)]
    for n in range(2, 9):
        words += [random_word_on(rng, n, rng.randint(1, 20 if n <= 5 else 14))
                  for _ in range(25)]
    links = []
    while len(links) < 20:
        w = random_word_on(rng, rng.randint(2, 6), rng.randint(2, 14))
        if w.component_count() == 2:
            links.append(w)
    long3 = random_word_on(rng, 3, 160)  # slot width k = 162 bits
    words += links + [long3, long3.mirror(),
                      braid_for(TTKParams(p=9, q=2, r=7, twist_n=1)),
                      braid_for(TTKParams(p=9, q=7, r=2, twist_n=1))]
    # both sides of the mirror choice, and the tie between them, also on
    # long words of 3 and 4 strands, where k > 100
    for n in range(2, 8):
        words += [biased_word_on(rng, n, rng.randint(4, 16), positive)
                  for positive in (0.85, 0.15) for _ in range(4)]
        words += [tied_word_on(rng, n, 2 * rng.randint(2, 8)) for _ in range(4)]
    long4 = biased_word_on(rng, 4, 120, 0.7)  # k = 122 bits
    words += [long4, long4.mirror(), tied_word_on(rng, 3, 140), tied_word_on(rng, 4, 110)]
    assert len(words) >= 280
    assert {x > 0 for w in words for x in w.letters} == {True, False}
    assert {mirror_side(w) for w in words if w.crossing_count > 100} == {1, 0, -1}
    for w in words:
        assert tl_bracket(w) == dict_tl_bracket(w), w
    for w in links:
        assert jones(w, "tl").var == "t^1/2", w


@st.composite
def short_words(draw, max_strands=6, max_crossings=12):
    n = draw(st.integers(1, max_strands))
    if n == 1:
        return BraidWord(1, ())
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=max_crossings))))


@settings(max_examples=60, deadline=None)
@given(short_words())
def test_tl_bracket_equals_state_sum(word):
    assert tl_bracket(word) == kauffman_bracket(word)


@st.composite
def one_sign_words(draw, max_strands=6, max_crossings=12):
    """Words with most letters of one drawn sign: fewer than a third of
    them take the other sign."""
    n = draw(st.integers(2, max_strands))
    sign = draw(st.sampled_from((1, -1)))
    gens = draw(st.lists(st.integers(1, n - 1), max_size=max_crossings))
    flipped = draw(st.sets(st.integers(0, max(len(gens) - 1, 0)), max_size=len(gens) // 3))
    return BraidWord(n, tuple(-sign * g if j in flipped else sign * g
                              for j, g in enumerate(gens)))


@settings(max_examples=80, deadline=None)
@given(one_sign_words())
def test_tl_bracket_equals_state_sum_on_one_sign_words(word):
    assert mirror_side(word) != 0 or not word.letters
    assert tl_bracket(word) == kauffman_bracket(word)


@pytest.mark.parametrize("n", range(1, 8))
def test_loop_free_moves_fix_each_diagrams_parity(n):
    # the u^2 packing of tl_bracket: every TL_n diagram is reached from the
    # identity, and only ever by an even or only by an odd number of
    # loop-free e-moves, which is the parity of its closure's loop count
    # minus n (each e-move is a saddle on the closure)
    start = invariants._identity_diagram(n)
    parity, todo = {start: 0}, [start]
    while todo:
        diag = todo.pop()
        for i in range(n - 1):
            nd, loop = invariants._compose_e(diag, i, n)
            if loop:
                continue
            if nd not in parity:
                parity[nd] = parity[diag] ^ 1
                todo.append(nd)
            assert parity[nd] == parity[diag] ^ 1, (diag, i)
    assert len(parity) == math.comb(2 * n, n) // (n + 1)
    for diag, odd in parity.items():
        assert (invariants._closure_loops(diag, n) - n) % 2 == odd, diag


@settings(max_examples=60, deadline=None)
@given(short_words(max_crossings=10))
def test_state_sum_equals_per_state_sum_hypothesis(word):
    assert kauffman_bracket(word) == per_state_bracket(word)


def test_unpack_balanced_digits_at_range_edge():
    for k in (2, 3, 8, 31, 162):
        edge = (1 << (k - 1)) - 1
        for digits in ({}, {0: edge}, {0: -edge}, {2: -1},
                       {0: edge, 3: -edge},        # zero interior slots
                       {0: -edge, 1: edge, 5: -1},  # negative top slot
                       {j: (-1) ** j * edge for j in range(6)}):
            value = sum(c << (k * j) for j, c in digits.items())
            assert invariants._unpack(value, k) == digits, (k, digits)


# -- Alexander ----------------------------------------------------------

def test_alexander_trefoil_and_figure8():
    assert alexander(TREFOIL) == Laurent({-1: 1, 0: -1, 1: 1})
    d8 = alexander(FIGURE8)
    assert d8 == Laurent({-1: -1, 0: 3, 1: -1})
    assert knot_determinant(d8) == 5
    assert knot_determinant(alexander(TREFOIL)) == 3


def test_alexander_mirror_blind():
    rng = random.Random(99)
    done = 0
    while done < 12:
        w = random_word(rng)
        if not w.is_knot():
            continue
        assert alexander(w.mirror()) == alexander(w)
        done += 1


def test_alexander_unknot_family_large():
    w = braid_for(TTKParams(p=13, q=5, r=8, twist_n=-1))
    assert w.crossing_count == 116
    assert alexander(w) == 1


def test_alexander_unknot_family_to_n8():
    from ttklib.horadam import fibonacci
    for n in range(7, 9):
        p, q, r = fibonacci(n + 2), fibonacci(n), fibonacci(n + 1)
        w = braid_for(TTKParams(p=p, q=q, r=r, twist_n=-1))
        assert alexander(w) == 1, n


def test_alexander_rejects_links():
    with pytest.raises(NotAKnotError):
        alexander(torus_braid(4, 2))


def test_alexander_normalization_properties():
    rng = random.Random(5)
    done = 0
    while done < 15:
        w = random_word(rng)
        if not w.is_knot():
            continue
        d = alexander(w)
        assert d.is_symmetric()
        assert d.evaluate(1) == 1
        assert knot_determinant(d) >= 0
        done += 1


def test_torus_alexander_values():
    assert torus_alexander(2, 3) == Laurent({-1: 1, 0: -1, 1: 1})
    assert torus_alexander(5, 1) == 1
    assert torus_alexander(2, -3) == torus_alexander(2, 3)


# -- Markov moves and free reduction ------------------------------------

def test_markov_conjugation_invariance():
    rng = random.Random(4242)
    done = 0
    while done < 15:
        w = random_word(rng, max_strands=4, max_len=8)
        g = rng.choice([i for i in range(-(w.strands - 1), w.strands) if i != 0])
        conj = BraidWord(w.strands, (g,) + w.letters + (-g,))
        assert jones(conj, "tl") == jones(w, "tl")
        if w.is_knot():
            assert alexander(conj) == alexander(w)
            done += 1
        else:
            done += 1


def test_markov_stabilization_invariance():
    rng = random.Random(777)
    for _ in range(15):
        w = random_word(rng, max_strands=4, max_len=8)
        for sign in (1, -1):
            stab = BraidWord(w.strands + 1, w.letters + (sign * w.strands,))
            assert jones(stab, "tl") == jones(w, "tl")
            if w.is_knot():
                assert alexander(stab) == alexander(w)


def test_free_reduction_invariance():
    w = braid_for(TTKParams(p=5, q=2, r=3, twist_n=-1))
    li = list(w.letters)
    li[7:7] = [2, -2]
    padded = BraidWord(w.strands, tuple(li))
    assert jones(padded, "tl") == jones(w, "tl")
    assert alexander(padded) == alexander(w)


# -- reduced Burau matrix --------------------------------------------------

T = Laurent.gen("t")
T_INV = Laurent.term(1, -1, "t")


def _identity(d):
    return [[Laurent.one() if r == k else Laurent.zero() for k in range(d)] for r in range(d)]


def _generator_matrix(d, letter):
    """Kassel-Turaev reduced Burau matrix of one generator, written out
    densely: the identity except column i-1, which holds (t, -t, 1) on
    rows i-2, i-1, i for sigma_i and (1, -1/t, 1/t) for its inverse."""
    c = abs(letter) - 1
    column = (T, -T, Laurent.one()) if letter > 0 else (Laurent.one(), -T_INV, T_INV)
    m = _identity(d)
    for r, entry in zip((c - 1, c, c + 1), column):
        if 0 <= r < d:
            m[r][c] = entry
    return m


def _matmul(a, b):
    n = len(b)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Laurent.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


def test_burau_matrix_equals_product_of_generator_matrices():
    for n in range(2, 9):
        for i in range(1, n):
            product = _matmul(_generator_matrix(n - 1, i), _generator_matrix(n - 1, -i))
            assert product == _identity(n - 1)
    rng = random.Random(8)
    for _ in range(40):
        w = random_word(rng, max_strands=8, max_len=16)
        product = _identity(w.strands - 1)
        for letter in w.letters:
            product = _matmul(product, _generator_matrix(w.strands - 1, letter))
        assert burau_matrix(w) == product, w


# -- determinant paths ---------------------------------------------------

def burau_minus_identity(word):
    rows = burau_matrix(word)
    for i in range(len(rows)):
        rows[i][i] = rows[i][i] - 1
    return rows


def leibniz_det(rows):
    total = Laurent.zero()
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = Laurent.const(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


# -- modular determinant oracle --------------------------------------------
# Evaluation at integer points modulo 31-bit primes, Newton interpolation
# and CRT reconstruction: an independent route to det_laurent's result.

def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIME_CACHE = []


def _get_primes(count):
    """The ``count`` largest primes below 2^31, descending."""
    while len(_PRIME_CACHE) < count:
        n = _PRIME_CACHE[-1] - 2 if _PRIME_CACHE else (1 << 31) - 1
        while not _is_probable_prime(n):
            n -= 2
        _PRIME_CACHE.append(n)
    return _PRIME_CACHE[:count]


def _modpow_vec(base, exp, p):
    result = np.ones_like(base)
    b = base % p
    e = exp
    while e:
        if e & 1:
            result = result * b % p
        b = b * b % p
        e >>= 1
    return result


def _batch_det_mod(mats, p):
    """Determinants of a batch of integer matrices modulo p.
    mats has shape (N, d, d) and is consumed."""
    m = mats % p
    N, d, _ = m.shape
    det = np.ones(N, dtype=np.int64)
    for k in range(d):
        sub = m[:, k:, k]
        nz = sub != 0
        pividx = nz.argmax(axis=1)
        need = pividx > 0
        if need.any():
            idx = np.nonzero(need)[0]
            rk = k + pividx[idx]
            tmp = m[idx, k, :].copy()
            m[idx, k, :] = m[idx, rk, :]
            m[idx, rk, :] = tmp
            det[idx] = (p - det[idx]) % p
        piv = m[:, k, k].copy()
        det = det * piv % p
        if k + 1 < d:
            piv_safe = np.where(piv == 0, 1, piv)
            inv = _modpow_vec(piv_safe, p - 2, p)
            factor = m[:, k + 1:, k] * inv[:, None] % p
            m[:, k + 1:, k:] = (m[:, k + 1:, k:] - factor[:, :, None]
                                * m[:, k, k:][:, None, :]) % p
    return det


def _modinv_vec(a, p):
    return _modpow_vec(a % p, p - 2, p)


def _interp_mod(xs, ys, p):
    """Coefficients of the unique polynomial of degree < N through the
    points (xs, ys), all arithmetic modulo p (Newton form)."""
    N = len(xs)
    c = ys.copy() % p
    for k in range(1, N):
        num = (c[k:] - c[k - 1:N - 1]) % p
        den = (xs[k:] - xs[:N - k]) % p
        c[k:] = num * _modinv_vec(den, p) % p
    coeffs = np.zeros(N, dtype=np.int64)
    coeffs[0] = c[N - 1]
    for k in range(N - 2, -1, -1):
        shifted = np.empty(N, dtype=np.int64)
        shifted[0] = 0
        shifted[1:] = coeffs[:-1]
        coeffs = (shifted - xs[k] * coeffs) % p
        coeffs[0] = (coeffs[0] + c[k]) % p
    return coeffs


def _isqrt_ceil(n):
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _det_coeff_bound(rows):
    """Rigorous bound on coefficient magnitudes of det(rows): at each
    |z| = 1, Hadamard gives |det(z)| <= prod_i ||row_i(z)||_2, and every
    coefficient of det is bounded by that maximum.  Rows and columns
    both bound; take the smaller."""
    d = len(rows)
    best = None
    for axis in (0, 1):
        prod = 1
        for i in range(d):
            entries = rows[i] if axis == 0 else [rows[j][i] for j in range(d)]
            sq = sum(sum(abs(c) for c in e.terms.values()) ** 2 for e in entries)
            prod *= _isqrt_ceil(sq)
        best = prod if best is None else min(best, prod)
    return max(best, 1)


def _det_modular(rows):
    """Exact determinant via evaluation at integer points modulo enough
    31-bit primes, Newton interpolation, and CRT reconstruction.  The
    prime count comes from a rigorous Hadamard-style coefficient bound,
    so the result is deterministic."""
    d = len(rows)
    if d == 0:
        return Laurent.one("t")
    lo = hi = 0
    for i in range(d):
        nz = [e for e in rows[i] if not e.is_zero]
        if not nz:
            return Laurent.zero("t")
        lo += min(e.min_exp for e in nz)
        hi += max(e.max_exp for e in nz)
    N = hi - lo + 1
    bound = _det_coeff_bound(rows)
    primes = []
    prod = 1
    idx = 0
    while prod <= 2 * bound:
        primes = _get_primes(idx + 1)
        prod *= primes[idx]
        idx += 1
    primes = primes[:idx]

    # group matrix terms by exponent once
    by_exp = {}
    for i in range(d):
        for j in range(d):
            for e, c in rows[i][j].terms.items():
                by_exp.setdefault(e, []).append((i, j, c))
    pos_exps = sorted(e for e in by_exp if e >= 0)
    neg_exps = sorted((e for e in by_exp if e < 0), reverse=True)

    residues = []
    for p in primes:
        xs = np.arange(1, N + 1, dtype=np.int64)
        acc = np.zeros((N, d, d), dtype=np.int64)
        pw = np.ones(N, dtype=np.int64)
        last = 0
        for e in pos_exps:
            pw = pw * _modpow_vec(xs, e - last, p) % p if e - last > 1 else (
                pw * xs % p if e != last else pw)
            last = e
            for i, j, c in by_exp[e]:
                acc[:, i, j] = (acc[:, i, j] + (c % p) * pw) % p
        if neg_exps:
            invx = _modinv_vec(xs, p)
            pw = np.ones(N, dtype=np.int64)
            last = 0
            for e in neg_exps:
                steps = last - e
                pw = pw * _modpow_vec(invx, steps, p) % p if steps > 1 else pw * invx % p
                last = e
                for i, j, c in by_exp[e]:
                    acc[:, i, j] = (acc[:, i, j] + (c % p) * pw) % p
        dets = _batch_det_mod(acc, p)
        # P(x) = x^(-lo) * det(x) is a polynomial of degree <= N-1
        shift = _modpow_vec(xs, (-lo) % (p - 1), p)
        ys = dets * shift % p
        residues.append(_interp_mod(xs, ys, p))

    half = prod // 2
    terms = {}
    for k in range(N):
        # CRT combine coefficient k
        val, mod = 0, 1
        for p, res in zip(primes, residues):
            r = int(res[k])
            inv = pow(mod % p, p - 2, p)
            val = val + mod * ((r - val) * inv % p)
            mod *= p
        if val > half:
            val -= prod
        if val:
            terms[lo + k] = val
    return Laurent(terms, var="t")


def _oracle_words():
    """Burau inputs of the paper's families: the Fibonacci unknots, the
    Lemma 9 pairs and Lee's q-small torus matches."""
    for n in range(1, 8):
        yield TTKParams(p=fibonacci(n + 2), q=fibonacci(n), r=fibonacci(n + 1), twist_n=-1)
    for m, n in ((1, 2), (2, 3), (2, 7)):
        H = HoradamSpec(m, n).terms(5)
        for k in range(2):
            yield TTKParams(p=H[k + 3], q=H[k + 2], r=H[k + 1], twist_n=-1)
            yield TTKParams(p=H[k + 1], q=H[k], r=H[k + 2], twist_n=1)
    for p in range(5, 21):
        for q in range(2, p):
            if gcd(p, q) == 1 and q < p - q and lee_torus_qsmall(p, q).matched:
                yield TTKParams(p=p, q=q, r=p - q, twist_n=-1)


def test_bareiss_equals_modular_on_burau_matrices():
    rng = random.Random(31337)
    for _ in range(25):
        w = random_word(rng, max_strands=6, max_len=14)
        rows = burau_minus_identity(w)
        a = det_laurent([row[:] for row in rows])
        b = _det_modular([row[:] for row in rows])
        assert a == b, w


def test_bareiss_equals_modular_on_paper_families():
    for params in _oracle_words():
        rows = burau_minus_identity(braid_for(params))
        assert det_laurent(rows) == _det_modular(rows), params


def test_bareiss_equals_modular_on_dense_random_words():
    rng = random.Random(1968)
    for n in (8, 10, 12):
        alphabet = [i for i in range(1 - n, n) if i]
        w = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(6 * n)))
        rows = burau_minus_identity(w)
        # well above the 2.5 to 4.2 terms per row of the paper's families
        assert sum(len(e.terms) for row in rows for e in row) > 8 * (n - 1)
        assert det_laurent(rows) == _det_modular(rows), w


def test_det_small_and_degenerate_matrices():
    L = Laurent.parse
    cases = [
        [],
        [[L("3t^-2 - t")]],
        # zero pivot in the corner: needs a row swap
        [[L("0"), L("t"), L("1")], [L("t^-1"), L("2"), L("0")],
         [L("1 - t"), L("0"), L("t^2")]],
        [[L("0"), L("1")], [L("1"), L("0")]],
        # negative exponents throughout
        [[L("t^-3 + 2"), L("-t^-1"), L("t^-2 - t")], [L("t^-1"), L("t^-4"), L("5")],
         [L("2t^-2 + t^3"), L("1 - t^-5"), L("-t^-1")]],
        # third row is t^-1 * first + second: singular
        [[L("1 + t"), L("t^-1"), L("2")], [L("t^2"), L("-3"), L("t^-1 - 1")],
         [L("t^-1 + 1 + t^2"), L("t^-2 - 3"), L("3t^-1 - 1")]],
    ]
    for rows in cases:
        want = leibniz_det(rows) if rows else Laurent.one()
        assert det_laurent(rows) == want, rows
        assert _det_modular(rows) == want, rows
    assert leibniz_det(cases[-1]) == 0
    assert leibniz_det(cases[3]) == -1


def test_det_laurent_equals_modular_on_three_matrices():
    sparse = burau_minus_identity(braid_for(TTKParams(p=34, q=13, r=21, twist_n=-1)))
    twisted = burau_minus_identity(braid_for(TTKParams(p=13, q=5, r=8, twist_n=4)))
    rng = random.Random(10)
    alphabet = [i for i in range(-9, 10) if i]
    dense = burau_minus_identity(BraidWord(10, tuple(rng.choice(alphabet) for _ in range(80))))
    for rows in (sparse, twisted, dense):
        assert det_laurent(rows) == _det_modular(rows)


def test_det_singular_matrix():
    one = Laurent.one("t")
    rows = [[one, one], [one, one]]
    assert det_laurent(rows) == 0
    assert _det_modular(rows) == 0


def test_det_unit_and_nonunit_pivots_equal_modular():
    L = Laurent.parse
    units = [Laurent({a: s}) for a in range(-2, 3) for s in (1, -1)]
    others = [L("2"), L("1 + t"), L("3t - 1"), L("t^-1 - 2t^2")]
    rng = random.Random(1968)
    for _ in range(150):
        d = rng.randint(1, 6)
        rows = [[rng.choice([Laurent.zero(), rng.choice(units), rng.choice(others)])
                 for _ in range(d)] for _ in range(d)]
        assert det_laurent([row[:] for row in rows]) == _det_modular(rows), rows
    # pivots 2, 1, t^2: the fewest-terms rule takes row k at each step
    # (column 0 holds 2, 1 + 2t, 1 + t; after step 0 column 1 holds 1
    # and t - 1), and step 1 pivots on 1 with a division by 2
    rows = [[L("2"), L("1"), L("1")],
            [L("1 + 2t"), L("1 + t"), L("0")],
            [L("1 + t"), L("t"), L("1 + t")]]
    assert det_laurent([row[:] for row in rows]) == _det_modular(rows) == L("t^2")
    # pivots t (made 1), 2, 1 + t^-1, 1 + t^-1: after step 0 column 1
    # holds 2 and 1 - t^-1, and step 1 pivots on 2 with no division,
    # over a column the pivot row has and one it lacks
    rows = [[L("t"), L("1"), L("0"), L("0")],
            [L("0"), L("2"), L("1"), L("0")],
            [L("1 + t"), L("2"), L("1"), L("1")],
            [L("0"), L("0"), L("0"), L("1")]]
    assert det_laurent([row[:] for row in rows]) == _det_modular(rows) == L("1 + t")
    # a singular one: the last row is t^-1 times the first plus the second
    rows = [[L("2"), L("t"), L("1 + t")], [L("-t^2"), L("3t - 1"), L("t^-1 - 2t^2")]]
    rows.append([x.shifted(-1) + y for x, y in zip(*rows)])
    assert det_laurent([row[:] for row in rows]) == 0 == _det_modular(rows)


def test_det_modular_many_primes():
    # coefficients around 2^40 force a determinant with ~300-bit
    # coefficients, exercising the CRT across 20+ primes
    rng = random.Random(12)
    d = 8
    rows = [[Laurent({e: rng.randrange(-(1 << 40), 1 << 40) for e in range(-2, 3)})
             for _ in range(d)] for _ in range(d)]
    a = det_laurent([row[:] for row in rows])
    b = _det_modular([row[:] for row in rows])
    assert a == b
    assert max(abs(c) for c in a.terms.values()).bit_length() > 250


def test_det_modular_long_words():
    rng = random.Random(2)
    for _ in range(4):
        n = 7
        letters = tuple(rng.choice([i for i in range(-(n - 1), n) if i != 0])
                        for _ in range(60))
        w = BraidWord(n, letters)
        rows = burau_matrix(w)
        for i in range(n - 1):
            rows[i][i] = rows[i][i] - 1
        assert det_laurent([r[:] for r in rows]) == _det_modular([r[:] for r in rows])


def test_alexander_equals_modular_determinant():
    w = braid_for(TTKParams(p=8, q=3, r=5, twist_n=-1))
    want = _normalize_alexander(_det_modular(burau_minus_identity(w)), w.strands)
    assert alexander(w) == want


# -- misc ----------------------------------------------------------------

def test_equal_up_to_mirror():
    f = Laurent({1: 1, 3: 1, 4: -1})
    assert equal_up_to_mirror(f, f.mirrored()) == "mirror"
    assert equal_up_to_mirror(Laurent.one(), Laurent.one()) == "equal"
    assert equal_up_to_mirror(Laurent({-1: 1, 0: -1, 1: 1}),
                              Laurent({-2: 1, 0: -1, 2: 1})) == "neither"


def test_invariant_report():
    rep = invariant_report(TREFOIL)
    assert rep.jones == torus_jones(2, 3)
    assert rep.alexander == torus_alexander(2, 3)
    assert rep.determinant == 3
    assert rep.crossing_count == 3 and rep.strand_count == 2
    d = rep.to_json_dict()
    assert d["determinant"] == 3
    assert d["jones"]["terms"] == [[1, 1], [3, 1], [4, -1]]


def test_invariant_report_on_a_link():
    hopf = BraidWord(2, (1, 1))
    rep = invariant_report(hopf)
    assert rep.jones == Laurent({1: -1, 5: -1}, "t^1/2")
    assert rep.alexander is None and rep.determinant is None
    d = rep.to_json_dict()
    assert d["alexander"] is None and d["determinant"] is None
    with pytest.raises(NotAKnotError):
        invariant_report(hopf, want_jones=False)
    with pytest.raises(BudgetError):
        invariant_report(hopf, tl_ops=1)


def test_invariant_report_jones_skipped():
    w = braid_for(TTKParams(p=13, q=5, r=8, twist_n=-1))
    rep = invariant_report(w, tl_ops=1000)
    assert rep.jones is None
    assert rep.jones_status.startswith("skipped")
    assert rep.alexander == 1
