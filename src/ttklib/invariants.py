"""Knot invariants of braid closures.

Jones has one route: the closure is cut into connected and split
summands, each through a Temperley-Lieb transfer that, per crossing,
writes one sum of sources per capped target diagram, on mostly negative
letters (a mostly positive word runs as its mirror) and on coefficients
packed as ints in A^4.  The unsplit transfer and the Kauffman state sum
over 2^c smoothings, walked depth first on an undoable union-find, are
its oracles; all end in one Horner sum over loop counts.  Alexander comes from
the reduced Burau representation; its determinant is computed exactly
by sparse fraction-free Bareiss elimination, its one route, which
makes each unit pivot +-t^a into 1 so that the many unit steps of
Burau matrices neither multiply by the pivot nor divide.  Modular
evaluation/interpolation with CRT reconstruction checks it as an
independent oracle in the tests.  Closed forms for torus knots provide
the reference values for torus-detection cross-checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .braids import BraidWord
from .errors import BudgetError, DomainError, NotAKnotError
from .laurent import Laurent, divide_terms, mul_terms

DEFAULT_CROSSING_BUDGET = 22
DEFAULT_TL_OPS = 4_000_000

# ----------------------------------------------------------------------
# Kauffman bracket state sum (oracle path)
# ----------------------------------------------------------------------

def kauffman_bracket(word, budget=DEFAULT_CROSSING_BUDGET):
    """Bracket polynomial of the closure by the Kauffman state sum: the
    sum over the 2^c smoothings of A^(a-b) * delta^(loops-1), walked
    depth first so that states sharing a prefix share its work.

    The nodes are the arcs of the closed diagram between crossings, at
    most 2c + n of them: the closure makes a position's last arc its
    first.  Crossing idx smoothed straight (bit 0) joins in to out on
    each side, with A-exponent +sign; smoothed cup-cap (bit 1) joins
    the two ins and the two outs, with exponent -sign.  A state's loops
    are the components left after every join.  The walk keeps one
    union-find without path compression or rank (union by rank was
    slower on every word timed, by 4-35%, up to 21 crossings), so a join is
    one parent write, undone by popping it off a trail on the way back
    up; the exponent and the component count ride down in one int
    ``key``.  An explicit stack keeps the c levels off Python's
    recursion limit.  The last crossing's two smoothings are counted
    from the roots of its four arcs, without joining.
    """
    c = word.crossing_count
    if c > budget:
        raise BudgetError(
            f"state sum needs 2^{c} smoothings; crossing budget is {budget}",
            kind="crossings", count=c)
    n = word.strands
    if not c:
        return _closure_sum([(n, {0: 1})])
    last = {}
    for idx, x in enumerate(word.letters):
        last[abs(x) - 1] = last[abs(x)] = idx
    pos = list(range(n))
    nodes = n
    arcs = []  # (in_l, out_l, in_r, out_r, sign) per crossing
    for idx, x in enumerate(word.letters):
        i = abs(x) - 1
        in_l, in_r = pos[i], pos[i + 1]
        for j in (i, i + 1):
            if last[j] > idx:
                pos[j] = nodes
                nodes += 1
            else:
                pos[j] = j
        arcs.append((in_l, pos[i], in_r, pos[i + 1], 1 if x > 0 else -1))
    # key = (exponent + c) * stride + components
    stride = nodes + 1
    moves = [((a, b, x, y, s * stride), (a, x, b, y, -s * stride))
             for a, b, x, y, s in arcs]
    parent = list(range(nodes))
    trail = []  # the roots joined, in order
    counts = [0] * ((2 * c + 1) * stride)
    l1, l2, l3, l4, s = arcs[-1]
    straight_step, cupcap_step = s * stride, -s * stride
    final = c - 1
    stack = [(0, c * stride + nodes, 0, None)]
    pop, push, undo = stack.pop, stack.append, trail.pop
    while stack:
        depth, key, mark, move = pop()
        while len(trail) > mark:
            v = undo()
            parent[v] = v
        if move is not None:
            a, b, x, y, step = move
            key += step
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[a] = b
                trail.append(a)
                key -= 1
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            if x != y:
                parent[x] = y
                trail.append(x)
                key -= 1
        if depth < final:
            mark = len(trail)
            straight, cupcap = moves[depth]
            push((depth + 1, key, mark, cupcap))
            push((depth + 1, key, mark, straight))
            continue
        r1, r2, r3, r4 = l1, l2, l3, l4
        while parent[r1] != r1:
            r1 = parent[r1]
        while parent[r2] != r2:
            r2 = parent[r2]
        while parent[r3] != r3:
            r3 = parent[r3]
        while parent[r4] != r4:
            r4 = parent[r4]
        # straight joins r1-r2 then r3-r4; cup-cap joins r1-r3 then r2-r4
        counts[key + straight_step - (r1 != r2) - (
            r3 != r4 and not (r3 == r1 and r4 == r2 or r3 == r2 and r4 == r1))] += 1
        counts[key + cupcap_step - (r1 != r3) - (
            r2 != r4 and not (r2 == r1 and r4 == r3 or r2 == r3 and r4 == r1))] += 1
    return _closure_sum((k % stride, {k // stride - c: cnt})
                        for k, cnt in enumerate(counts) if cnt)


def _closure_sum(pairs):
    """Sum of terms * delta^(loops-1) over (loops, {A-exponent: coefficient})
    pairs, adding the terms that share a loop count, then summing by
    Horner in delta = -A^2 - A^-2 from the largest loop count down:
    acc = acc * delta + terms, where a product by delta is two shifted
    adds on a raw dict."""
    by_loops = {}
    for loops, terms in pairs:
        group = by_loops.setdefault(loops, {})
        for e, c in terms.items():
            group[e] = group.get(e, 0) + c
    acc = {}
    for loops in range(max(by_loops, default=0), 0, -1):
        nxt = dict(by_loops.get(loops, ()))
        for e, c in acc.items():
            nxt[e + 2] = nxt.get(e + 2, 0) - c
            nxt[e - 2] = nxt.get(e - 2, 0) - c
        acc = nxt
    return Laurent(acc, "A")


# ----------------------------------------------------------------------
# Temperley-Lieb transfer (main Jones path)
# ----------------------------------------------------------------------

def _identity_diagram(n):
    return tuple(list(range(n, 2 * n)) + list(range(n)))


def _compose_e(diag, i, n):
    """Stack the cup-cap e_{i+1} below ``diag``; returns (diagram, loop)."""
    a, b = n + i, n + i + 1
    x, y = diag[a], diag[b]
    if x == b:
        return diag, True
    lst = list(diag)
    lst[x] = y
    lst[y] = x
    lst[a] = b
    lst[b] = a
    return tuple(lst), False


def _closure_loops(diag, n):
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = diag[cur]
            seen[cur] = True
            cur = cur + n if cur < n else cur - n
    return loops


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def tl_predicted_ops(strands, crossings):
    """Upper bound on diagram operations for the transfer: the basis
    support at most doubles per crossing and is capped by the Catalan
    number.  A transfer that passes ``_check_tl_ops`` stays within it."""
    cap = _catalan(strands)
    total, cur = 0, 1
    for _ in range(crossings):
        total += cur
        cur = min(cur * 2, cap)
    return total


def _check_tl_ops(words, ops_budget):
    """Refuse the transfers of ``words`` before any work, when their
    predicted diagram operations add up to more than ``ops_budget``."""
    predicted = sum(tl_predicted_ops(w.strands, w.crossing_count) for w in words)
    if predicted > ops_budget:
        raise BudgetError(
            f"Temperley-Lieb transfer needs an estimated {predicted} diagram "
            f"operations; budget is {ops_budget}", kind="tl-ops", count=predicted)


def _unpack(value, k):
    """Balanced base-2^k digits of ``value`` as {slot: digit}, each digit
    in [-2^(k-1), 2^(k-1)): the inverse of value = sum(digit << k*slot)."""
    half, full = 1 << (k - 1), 1 << k
    digits = {}
    for slot in range(abs(value).bit_length() // k + 1):
        digit = value & (full - 1)
        if digit >= half:
            digit -= full
        if digit:
            digits[slot] = digit
        value = (value - digit) >> k
    return digits


# Steps between the scans for common low zero slots to drop.  Medians of
# 15 runs (2-CPU x86-64, CPython 3.11) at every 1, 2, 4, 8 steps: the
# piece of K(9,2,7,+1) (9 strands, 58 crossings) took 0.055, 0.049,
# 0.044, 0.045 s, at a tracemalloc peak of 3.0, 2.5, 2.5, 2.5 MB; the
# piece of K(16,9,7,-1) (9 strands, 158 crossings) took 0.62, 0.47,
# 0.45, 0.40 s, at 14.7, 15.1, 14.8, 15.2 MB.
_TL_RENORM_STEPS = 4


def tl_bracket(word, ops_budget=DEFAULT_TL_OPS):
    """Bracket polynomial via the Temperley-Lieb transfer: push the word
    through the diagram basis one crossing at a time.

    When more than half of the letters are positive, the transfer runs
    on the mirror word and maps A to A^-1 at the end, so that most
    letters are negative.  With A^writhe pulled out and u = A^2,
    sigma_i^-1 acts as 1 + u e_i, and sigma_i, scaled by u^2, as
    u^2 + u e_i.  e_i sends a diagram without a cap at bottom (i, i+1)
    to a diagram with that cap, and a diagram with the cap to delta
    times itself.  So in a step each uncapped diagram keeps its value
    (a negative letter leaves the same int object), and each capped
    diagram gets u times the sum of its sources plus its own value
    times 1 + u*delta = -u^2 (-1 for a scaled positive letter).  Per
    call and per generator, the capped targets with their source ids
    are built as new diagrams appear, so ``_compose_e`` runs once per
    (diagram, generator) pair and a step reads no dict.

    Coefficients are packed in u^2 = A^4.  An e-move is a saddle on the
    closure, which changes its loop count by one, so a diagram D reached
    from the identity by m loop-free e-moves has m = loops(D) - n
    (mod 2): the parity of m is a function of D, as the isomorphism
    e_i -> -e_i, delta -> -delta of TL_n(delta) onto TL_n(-delta) also
    shows.  Each loop-free move brings a factor u and every other factor
    is even in u, so D's coefficient has only u-powers of that parity:
    it is u^(2*off + m mod 2) * P(u^2), kept as the one int P(2^k)
    (Kronecker substitution).  A target of odd parity takes its sources'
    sum as it is, one of even parity shifted one slot up; a scaled
    positive letter lowers ``off`` by 1, so every product by a power of
    u^2 is a left shift.

    Slot width: a diagram without the cap splits its coefficient into
    two terms of the same L1 norm and one with the cap keeps it, so
    after c crossings the L1 norms of all coefficients sum to at most
    2^c.  Every coefficient of a diagram, or of a sum of diagrams, is
    then at most 2^c < 2^(k-1) in absolute value for k = c + 2.  So
    balanced base-2^k digits decode it exactly, and a nonzero value's
    lowest nonzero slot is its trailing-zero count // k.  Every few
    steps all values are shifted down by the zero slots they share, an
    exact division; the identity diagram is never capped, so its value
    is never zero.  The values are summed per closure loop count, which
    fixes the parity, and decoded once, at the end.
    """
    _check_tl_ops((word,), ops_budget)
    n = word.strands
    k = word.crossing_count + 2
    letters = word.letters
    writhe = word.writhe
    mirror = writhe > 0  # more positive than negative letters
    if mirror:
        letters = [-x for x in letters]
    diags = [_identity_diagram(n)]
    ids = {diags[0]: 0}
    odd = [0]  # parity of the loop-free e-moves that reach each diagram
    vals = [1]
    # per generator: diagrams scanned, sources by capped target, and the
    # (target, sources) pairs of even and of odd targets
    tables = [[0, {}, [], []] for _ in range(n - 1)]
    off = 0
    for step, letter in enumerate(letters, 1):
        i = abs(letter) - 1
        table = tables[i]
        d, sources, evens, odds = table
        while d < len(diags):
            nd, loop = _compose_e(diags[d], i, n)
            c = d if loop else ids.get(nd)
            if c is None:
                c = ids[nd] = len(diags)
                diags.append(nd)
                odd.append(odd[d] ^ 1)
                vals.append(0)
            srcs = sources.get(c)
            if srcs is None:
                srcs = sources[c] = []
                (odds if odd[c] else evens).append((c, srcs))
            if not loop:
                srcs.append(d)
            d += 1
        table[0] = d
        get = vals.__getitem__
        if letter < 0:
            new = vals[:]
            for c, srcs in evens:
                new[c] = (sum(map(get, srcs)) - vals[c]) << k
            for c, srcs in odds:
                new[c] = sum(map(get, srcs)) - (vals[c] << k)
        else:
            off -= 1
            new = [v << k for v in vals]
            for c, srcs in evens:
                new[c] = (sum(map(get, srcs)) << k) - vals[c]
            for c, srcs in odds:
                new[c] = sum(map(get, srcs)) - vals[c]
        vals = new
        if step % _TL_RENORM_STEPS == 0:
            low = reduce(or_, vals)
            slots = ((low & -low).bit_length() - 1) // k
            if slots:
                off += slots
                vals = [v >> (slots * k) for v in vals]
    groups = {}
    for d, value in enumerate(vals):
        if value:
            loops = _closure_loops(diags[d], n)
            groups[loops] = groups.get(loops, 0) + value
    sign = -1 if mirror else 1
    return _closure_sum(
        (loops, {writhe + sign * (4 * (off + j) + 2 * ((loops + n) & 1)): c
                 for j, c in _unpack(v, k).items()})
        for loops, v in groups.items())


def _bracket_to_jones(bracket, writhe):
    """V = (-A)^(-3w) * bracket with t = A^-4.  Knots give integer
    exponents in t; two-component parity lands in the variable t^1/2."""
    sign = -1 if writhe % 2 else 1
    v = bracket.shifted(-3 * writhe) * sign
    if all(e % 4 == 0 for e in v.terms):
        return Laurent({-e // 4: c for e, c in v.terms.items()}, var="t")
    if all(e % 2 == 0 for e in v.terms):
        return Laurent({-e // 2: c for e, c in v.terms.items()}, var="t^1/2")
    raise AssertionError("bracket exponents of mixed parity")


def split_closure(word):
    """The closure of ``word`` cut into pieces, as (sign, shift, loops,
    pieces): its bracket is sign * A^shift * delta^(loops-1) times the
    pieces' brackets.  A piece is freely reduced as a cyclic word, which
    keeps its bracket and writhe.  If sigma_i then occurs once, as
    sigma_i^e, the closure is the connected sum of the closures on
    strands 1..i and i+1..n, and smoothing that crossing gives
    A^e * delta + A^-e = (-A)^(3e) times their brackets; if never, their
    split union, a factor delta.  Both sides are cut again, so in a piece
    every generator occurs at least twice and c crossings span at most
    c/2 + 1 strands.  Pieces of one strand, unknots, are dropped.
    """
    sign, shift, loops, pieces = 1, 0, 1, []
    todo = [(word.strands, word.letters)]
    while todo:
        n, letters = todo.pop()
        reduced = []
        for x in letters:
            if reduced and reduced[-1] == -x:
                reduced.pop()
            else:
                reduced.append(x)
        lo = 0
        while 2 * lo + 1 < len(reduced) and reduced[lo] == -reduced[-1 - lo]:
            lo += 1
        letters = reduced[lo:len(reduced) - lo]
        counts = Counter(map(abs, letters))
        cut = next((i for i in range(1, n) if counts[i] < 2), 0)
        if not cut:
            if n > 1:
                pieces.append(BraidWord(n, letters))
            continue
        if counts[cut]:
            sign = -sign
            shift += 3 if cut in letters else -3
        else:
            loops += 1
        todo.append((cut, [x for x in letters if abs(x) < cut]))
        todo.append((n - cut, [x - cut if x > 0 else x + cut
                               for x in letters if abs(x) > cut]))
    return sign, shift, loops, pieces


def jones(word, method="tl", tl_ops=DEFAULT_TL_OPS):
    """Jones polynomial of the closure.

    method "tl" cuts the closure by ``split_closure`` and runs the
    Temperley-Lieb transfer on each piece, refused before any work when
    the pieces' predicted operations add up to more than ``tl_ops``;
    "kauffman" is the unsplit state-sum oracle.
    """
    if method == "tl":
        sign, shift, loops, pieces = split_closure(word)
        _check_tl_ops(pieces, tl_ops)
        bracket = _closure_sum([(loops, {shift: sign})])
        for piece in pieces:
            bracket = bracket * tl_bracket(piece, tl_ops)
    elif method == "kauffman":
        bracket = kauffman_bracket(word)
    else:
        raise DomainError(f"unknown jones method {method!r}")
    return _bracket_to_jones(bracket, word.writhe)


# ----------------------------------------------------------------------
# Reduced Burau and the Alexander polynomial
# ----------------------------------------------------------------------

def _axpy(dst, src, shift, scale):
    """dst += scale * t^shift * src on raw exponent->coefficient dicts."""
    for e, c in src.items():
        k = e + shift
        v = dst.get(k, 0) + scale * c
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)


# (neighbour column offset, t-shift, scale) of the column a generator rewrites
_BURAU_STEPS = {1: ((-1, 1, 1), (0, 1, -1), (1, 0, 1)),
                -1: ((-1, 0, 1), (0, -1, -1), (1, -1, 1))}


def burau_matrix(word):
    """Reduced Burau matrix of the word, as rows of Laurent entries.

    Each generator differs from the identity in one column, so the
    product is built by single-column updates:
      sigma_i:    col_i <- t*col_{i-1} - t*col_i + col_{i+1}
      sigma_i^-1: col_i <- col_{i-1} - (1/t)*col_i + (1/t)*col_{i+1}
    A column is kept as {row: {exponent: coefficient}} over its nonzero
    entries only, so an update costs the nonzeros it reads.
    """
    d = word.strands - 1
    cols = [{c: {0: 1}} for c in range(d)]
    for letter in word.letters:
        c = abs(letter) - 1
        new = {}
        for offset, shift, scale in _BURAU_STEPS[1 if letter > 0 else -1]:
            if 0 <= c + offset < d:
                for r, src in cols[c + offset].items():
                    _axpy(new.setdefault(r, {}), src, shift, scale)
        cols[c] = {r: e for r, e in new.items() if e}
    return [[Laurent(cols[c].get(r), var="t") for c in range(d)] for r in range(d)]


def det_laurent(rows):
    """Exact determinant of a matrix of Laurent polynomials by
    fraction-free (Bareiss) elimination over sparse rows of raw dicts.

    Step k pivots on the row whose column-k entry has the fewest terms
    (then the shortest row); any choice is sound, since it is Bareiss on
    a row-permuted matrix, and on sparse Burau matrices it keeps the
    fill-in small.  A unit pivot u = +-t^a is made 1: the pivot row is
    divided by u and u goes into the result's sign and shift.  Each
    entry at step k is a minor linear in its original row, so this is
    Bareiss on that row scaled by 1/u from the start, and the
    determinant is u times the scaled one.  Under a pivot of 1 the
    update is x - a*y, and after one there is no division; a row with
    no entry in the pivot column is left as it is when the pivot equals
    the previous one.  A non-unit pivot takes the plain Bareiss step.
    A product with a zero entry is skipped, and every division by a
    previous pivot other than 1 is checked exact.
    """
    d = len(rows)
    mat = [{j: e.terms for j, e in enumerate(row) if not e.is_zero} for row in rows]
    one = {0: 1}
    sign, shift, prev = 1, 0, one
    for k in range(d):
        live = [i for i in range(k, d) if k in mat[i]]
        if not live:
            return Laurent.zero("t")
        p = min(live, key=lambda i: (len(mat[i][k]), len(mat[i])))
        if p != k:
            mat[k], mat[p] = mat[p], mat[k]
            sign = -sign
        prow = mat[k]
        piv = prow.pop(k)
        if len(piv) == 1:
            (s, u), = piv.items()
            if u in (1, -1):
                if s or u < 0:
                    sign *= u
                    shift += s
                    prow = {j: {e - s: u * c for e, c in y.items()} for j, y in prow.items()}
                piv = one
        for i in range(k + 1, d):
            row = mat[i]
            a = row.pop(k, None)
            if a is None and piv == prev:
                continue
            new = {}
            for j in row.keys() | prow.keys() if a else row:
                x, y = row.get(j), prow.get(j)
                if a and y:
                    num = (dict(x) if piv is one else mul_terms(piv, x)) if x else {}
                    for e, c in a.items():
                        _axpy(num, y, e, -c)
                else:
                    num = x if piv is one else mul_terms(piv, x)
                if num:
                    new[j] = num if prev is one else divide_terms(num, prev)
            mat[i] = new
        prev = piv
    return Laurent({e + shift: sign * c for e, c in prev.items()}, var="t")


def _normalize_alexander(poly, strands):
    """Divide out (t^n - 1)/(t - 1) and normalize to the symmetric
    representative with value 1 at t = 1."""
    quot = poly.divide_exact(Laurent({e: 1 for e in range(strands)}, var="t"))
    if quot.is_zero:
        raise AssertionError("vanishing Alexander determinant on a knot")
    lo, hi = quot.min_exp, quot.max_exp
    if (lo + hi) % 2:
        raise AssertionError("Alexander polynomial with odd breadth")
    delta = quot.shifted(-(lo + hi) // 2)
    at_one = delta.evaluate(1)
    if at_one == -1:
        delta = -delta
    elif at_one != 1:
        raise AssertionError(f"Alexander value at 1 is {at_one}, not a unit")
    if not delta.is_symmetric():
        raise AssertionError("Alexander normalization failed symmetry")
    return delta


def alexander(word):
    """Alexander polynomial of the knot closure, from the reduced Burau
    matrix: Delta = det(B(w) - I) * (t-1)/(t^n - 1), symmetrized with
    Delta(1) = 1."""
    if not word.is_knot():
        raise NotAKnotError(
            f"closure has {word.component_count()} components; "
            "the Alexander route needs a knot")
    n = word.strands
    if n == 1:
        return Laurent.one("t")
    rows = burau_matrix(word)
    d = n - 1
    for i in range(d):
        rows[i][i] = rows[i][i] - 1
    return _normalize_alexander(det_laurent(rows), n)


def knot_determinant(delta):
    """|Delta(-1)|."""
    return abs(delta.evaluate(-1))


# ----------------------------------------------------------------------
# Torus knot closed forms
# ----------------------------------------------------------------------

def _torus_normalize(p, q):
    mirror = (p < 0) != (q < 0)
    p, q = abs(p), abs(q)
    if p < q:
        p, q = q, p
    return p, q, mirror


def torus_jones(p, q):
    """Closed-form Jones polynomial of T(p,q); a negative parameter
    mirrors (t -> 1/t).  T(1,.) and T(0,.) degenerate to the unknot."""
    p, q, mirror = _torus_normalize(p, q)
    if q <= 1:
        return Laurent.one("t")
    if math.gcd(p, q) != 1:
        raise DomainError(f"T({p},{q}) is a link, not a knot")
    num = (Laurent.one("t") - Laurent.term(1, p + 1, "t")
           - Laurent.term(1, q + 1, "t") + Laurent.term(1, p + q, "t"))
    body = num.divide_exact(Laurent({0: 1, 2: -1}, var="t"))
    v = body.shifted((p - 1) * (q - 1) // 2)
    return v.mirrored() if mirror else v


def torus_alexander(p, q):
    """Closed-form Alexander polynomial of T(p,q), symmetric with
    Delta(1) = 1.  Mirror-blind."""
    p, q, _ = _torus_normalize(p, q)
    if q <= 1:
        return Laurent.one("t")
    if math.gcd(p, q) != 1:
        raise DomainError(f"T({p},{q}) is a link, not a knot")
    num = ((Laurent.term(1, p * q, "t") - 1) * (Laurent.gen("t") - 1))
    den = (Laurent.term(1, p, "t") - 1) * (Laurent.term(1, q, "t") - 1)
    quot = num.divide_exact(den)
    lo, hi = quot.min_exp, quot.max_exp
    delta = quot.shifted(-(lo + hi) // 2)
    if delta.evaluate(1) == -1:
        delta = -delta
    return delta


def equal_up_to_mirror(f, g):
    """Classify g against f: "equal" (g = f), "mirror" (g = f(1/t)),
    or "neither"."""
    if f == g:
        return "equal"
    if g == f.mirrored():
        return "mirror"
    return "neither"


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

@dataclass
class InvariantReport:
    jones: Laurent | None
    jones_status: str  # "ok" or "skipped (<reason>)"
    alexander: Laurent | None  # None for a link
    determinant: int | None
    crossing_count: int
    strand_count: int

    def to_json_dict(self):
        return {
            "jones": self.jones.to_json_dict() if self.jones is not None else None,
            "jones_status": self.jones_status,
            "alexander": (self.alexander.to_json_dict()
                          if self.alexander is not None else None),
            "determinant": self.determinant,
            "crossing_count": self.crossing_count,
            "strand_count": self.strand_count,
        }


def invariant_report(word, want_jones=True, tl_ops=DEFAULT_TL_OPS):
    """Alexander, determinant, and (when within ``tl_ops``) Jones of a
    braid closure.  A link has no Alexander polynomial or determinant
    here (both None), so it is refused without ``want_jones``
    (NotAKnotError) and when Jones exceeds the budget (BudgetError)."""
    delta = None if want_jones and not word.is_knot() else alexander(word)
    v = None
    status = "not requested"
    if want_jones:
        try:
            v = jones(word, "tl", tl_ops)
            status = "ok"
        except BudgetError as exc:
            if delta is None:  # a link: nothing else would be answered
                raise
            status = f"skipped ({exc.kind} budget: {exc.count})"
    return InvariantReport(v, status, delta,
                           None if delta is None else knot_determinant(delta),
                           word.crossing_count, word.strands)
