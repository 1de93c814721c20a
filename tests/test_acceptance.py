"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Every tolerance is exact integer or
exact polynomial equality; invariant comparisons corroborate isotopy
claims and any mismatch fails the build.
"""

import random
from math import gcd

from ttklib.braids import BraidWord, TTKParams, braid_for, torus_braid
from ttklib.classify import (Triple, all_triples, pp_census, pp_families,
                             ps_census, ps_flag_shape)
from ttklib.errors import BudgetError
from ttklib.horadam import (HoradamSpec, embed_in_unit_sequence, fibonacci,
                            is_maximal_pair)
from ttklib.invariants import (alexander, jones, torus_alexander, torus_jones)
from ttklib.knots import (corollary_maximal_pair_check, lee_torus_neg_kq,
                          lee_torus_pos, lee_torus_qsmall, verify_lemma7,
                          verify_lemma8, verify_lemma9, verify_prop12_1)


def _report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} ({label})")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_unknot_family():
    ok = True
    jones_computed = 0
    for n in range(1, 7):
        p, q, r = fibonacci(n + 2), fibonacci(n), fibonacci(n + 1)
        w = braid_for(TTKParams(p=p, q=q, r=r, twist_n=-1))
        if alexander(w) != 1:
            ok = False
        try:
            v = jones(w)
            if v != 1:
                ok = False
            jones_computed += 1
        except BudgetError:
            pass
    ok = ok and jones_computed >= 3
    _report(1, "Fibonacci family is unknotted", ok)


def test_criterion_2_horadam_identities():
    fib = [fibonacci(k) for k in range(22)]
    ok = True
    for m in range(1, 41):
        for n in range(1, 41):
            if gcd(m, n) != 1:
                continue
            spec = HoradamSpec(m, n)
            H = spec.terms(23)
            # closed form vs recursion (k <= 20)
            for k in range(1, 21):
                if H[k] != m * fib[k - 1] + n * fib[k]:
                    ok = False
            # the three slope identities, exact
            s = m * m + m * n - n * n
            base = n * n + m * n - m * m
            sq = 0
            for k in range(1, 21):
                eps = 1 if k % 2 == 0 else 0
                if H[k] ** 2 + H[k + 1] * H[k] - H[k + 1] ** 2 != (-1) ** k * s:
                    ok = False
                rhs = base + 2 * eps * s + 2 * sq
                if H[k] ** 2 + H[k] * H[k - 1] - H[k - 1] ** 2 != rhs:
                    ok = False
                if H[k] ** 2 + H[k] * H[k - 1] + H[k - 1] ** 2 != rhs + 2 * H[k - 1] ** 2:
                    ok = False
                sq += H[k] ** 2
            # monotone gaps: {s_k}_{k>=2} and {t_k}_{k>=1} step by >= 2
            sv = [H[k] ** 2 + H[k - 1] * H[k] - H[k - 1] ** 2 for k in range(1, 21)]
            tv = [H[k + 1] ** 2 + H[k + 1] * H[k] + H[k] ** 2 for k in range(1, 21)]
            if any(b - a < 2 for a, b in zip(sv[1:], sv[2:])):
                ok = False
            if any(b - a < 2 for a, b in zip(tv, tv[1:])):
                ok = False
    _report(2, "Horadam identities, exact, m,n <= 40, k <= 20", ok)


def test_criterion_3_maximal_pairs():
    ok = True
    for n in range(3, 201):
        for m in range(2, n):
            if gcd(m, n) != 1:
                continue
            emb = embed_in_unit_sequence(m, n)  # regeneration-verified
            if (emb is not None) != is_maximal_pair(m, n):
                ok = False
    for n in range(3, 41):
        for m in range(2, n):
            if gcd(m, n) != 1:
                continue
            base = is_maximal_pair(m, n)
            H = HoradamSpec(m, n).terms(9)
            for j in range(1, 7):
                if is_maximal_pair(H[j], H[j + 1]) != base:
                    ok = False
    _report(3, "maximal pair <=> unit-sequence embedding, plus propagation", ok)


def test_criterion_4_pp_census():
    rep = pp_census(60)
    fams = pp_families(60)
    ok = (not rep.missing and not rep.extra
          and Triple(4, 3, 5) in fams and Triple(5, 3, 7) in fams
          and all(not (t.p == 6 and t.q == 3 and t.r == 9) for t in all_triples(60)))
    _report(4, "primitive/primitive census at bound 60", ok)


def test_criterion_5_ps_census():
    rep = ps_census(60)
    ok = not rep.missing
    for triple, match, shape in rep.flagged:
        if shape not in ("family2-p<7", "family3-i=1"):
            ok = False
    _report(5, "primitive/middle-Seifert census at bound 60", ok)


def test_criterion_6_isotopy_mirror_lemmas():
    ok = True
    steps = []  # the Jones outcome of every comparison, prop12-1 step by step
    for (p, q) in [(5, 2), (7, 2), (7, 3), (9, 2)]:
        rep = verify_lemma7(p, q)
        steps.append(rep.invariants["jones"])
        if rep.verdict != "consistent" or rep.invariants["jones"] != "equal":
            ok = False
    for (p, q) in [(3, 2), (4, 3), (5, 2)]:
        rep = verify_lemma8(p, q)
        steps.append(rep.invariants["jones"])
        if rep.verdict != "consistent" or rep.invariants["jones"] != "mirror":
            ok = False
    for (m, n) in [(1, 2), (2, 3), (2, 7), (3, 4)]:
        for k in range(0, 3):
            rep = verify_lemma9(m, n, k)
            steps.append(rep.invariants["jones"])
            if rep.verdict != "consistent" or rep.invariants["alexander"] != "equal":
                ok = False
            # computable since the braids use the fewest strands
            if (m, n, k) in {(1, 2, 2), (2, 3, 1), (2, 7, 0)} and \
                    rep.invariants["jones"] != "equal":
                ok = False
        rep = verify_prop12_1(m, n, 2)
        steps += [d["jones"] for d in rep.details]
        if rep.verdict != "consistent" or rep.invariants["alexander"] != "equal":
            ok = False
    # a skip is a coverage gap: a regression back to skipping fails here
    ok = ok and "mismatch" not in steps and steps.count("skipped") <= 9
    _report(6, "isotopy/mirror lemmas by invariant comparison", ok)


def _torus_delta_candidates(breadth):
    """Nontrivial torus knots with Alexander breadth at most ``breadth``."""
    out = []
    for b in range(2, breadth + 3):
        for a in range(b + 1, breadth + 4):
            if gcd(a, b) == 1 and (a - 1) * (b - 1) <= breadth:
                out.append((a, b))
    return out


def test_criterion_7_torus_detection():
    ok = True
    # Theorem-13 matches with p <= 15: exact named target T(a+1, (-1)^b a)
    n_matched = 0
    for p in range(3, 16):
        for q in range(2, p):
            if gcd(p, q) != 1 or not q < p - q:
                continue
            m = lee_torus_qsmall(p, q)
            if not m.matched:
                continue
            n_matched += 1
            d = alexander(braid_for(TTKParams(p=p, q=q, r=p - q, twist_n=-1)))
            if d != torus_alexander(m.torus_p, abs(m.torus_q)):
                ok = False
    ok = ok and n_matched >= 10
    # Theorems 10/11 matches with p <= 15: the braid's Alexander must be
    # a torus-knot Alexander of the full candidate genus
    for b in range(3, 8):
        for a in range(1, 15):
            p = a * b + 1
            if p > 15 or gcd(p, b) != 1:
                continue
            if not lee_torus_pos(p, b, b - 1, 1).matched:
                ok = False
                continue
            d = alexander(braid_for(TTKParams(p=p, q=b, r=b - 1, twist_n=1)))
            hits = [ab for ab in _torus_delta_candidates(d.breadth)
                    if torus_alexander(*ab) == d]
            if not hits:
                ok = False
            p11 = (a + 1) * b - 1
            if p11 <= 15 and gcd(p11, b) == 1 and b - 1 < b:
                if not lee_torus_neg_kq(p11, b, a).matched:
                    ok = False
                    continue
                d = alexander(braid_for(TTKParams(p=p11, q=b, r=b - 1, twist_n=-1)))
                hits = [ab for ab in _torus_delta_candidates(d.breadth)
                        if torus_alexander(*ab) == d]
                if not hits:
                    ok = False
    # >= 20 unmatched triples with p <= 12: Alexander differs from every
    # nontrivial torus Alexander within the candidate's genus bound
    unmatched = []
    for p in range(3, 13):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            if q < p - q and not lee_torus_qsmall(p, q).matched:
                unmatched.append(TTKParams(p=p, q=q, r=p - q, twist_n=-1))
    for p in range(5, 13):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            for r in range(2, p):
                if r % q == 0:
                    continue
                if not lee_torus_pos(p, q, r, 1).matched:
                    unmatched.append(TTKParams(p=p, q=q, r=r, twist_n=1))
    unmatched = unmatched[:24]
    if len(unmatched) < 20:
        ok = False
    for params in unmatched:
        d = alexander(braid_for(params))
        for ab in _torus_delta_candidates(d.breadth):
            if torus_alexander(*ab) == d:
                ok = False
    _report(7, "torus detection cross-validated by Alexander", ok)


def test_criterion_8_corollary():
    ok = True
    for n in range(3, 26):
        for m in range(2, n):
            if gcd(m, n) != 1:
                continue
            if not corollary_maximal_pair_check(m, n, 5).consistent:
                ok = False
    _report(8, "torus <=> maximal pair for seeds up to 25, k <= 5", ok)


def _random_word(rng, max_strands=5, max_len=12):
    n = rng.randint(2, max_strands)
    L = rng.randint(1, max_len)
    alphabet = [i for i in range(-(n - 1), n) if i != 0]
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(L)))


def test_criterion_9_engine_self_consistency():
    ok = True
    rng = random.Random(1729)
    # dual-route Jones on >= 500 random words
    for _ in range(500):
        w = _random_word(rng)
        if jones(w, "tl") != jones(w, "kauffman"):
            ok = False
    # Markov invariance on >= 200 random words
    for _ in range(200):
        w = _random_word(rng, max_strands=4, max_len=8)
        g = rng.choice([i for i in range(-(w.strands - 1), w.strands) if i != 0])
        conj = BraidWord(w.strands, (g,) + w.letters + (-g,))
        sign = rng.choice((1, -1))
        stab = BraidWord(w.strands + 1, w.letters + (sign * w.strands,))
        v = jones(w, "tl")
        if jones(conj, "tl") != v or jones(stab, "tl") != v:
            ok = False
        if w.is_knot():
            d = alexander(w)
            if alexander(conj) != d or alexander(stab) != d:
                ok = False
    # torus closed forms against direct computation
    for p in range(3, 8):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            w = torus_braid(p, q)
            if jones(w, "tl") != torus_jones(p, q):
                ok = False
            if alexander(w) != torus_alexander(p, q):
                ok = False
    _report(9, "invariant-engine self-consistency", ok)
