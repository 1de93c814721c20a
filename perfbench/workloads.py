"""The four workloads: their inputs, one pass over them, and the checks.

A workload object has
  prepare(seed)            -> inputs, made from the seed only;
  run_pass(inputs)         -> (outputs, attempted, failed), the timed part;
  check(inputs, outputs)   -> list of errors, run outside the timed part;
  trace_counts(inputs, outputs) -> per-layer counts read from the outputs;
  cleanup(inputs)          -> removes what the passes wrote.
Library functions are looked up on their modules at call time, so the
traced run's wrappers see every call.  An operation that raises counts
as failed and has no output to check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from math import gcd

import ttklib.braids as braids
import ttklib.cli as cli
import ttklib.horadam as horadam
import ttklib.invariants as invariants
import ttklib.knots as knots

import checks


def _attempt(fn, *args):
    """(result, failed) of one operation."""
    try:
        return fn(*args), 0
    except Exception:  # any exception is a failed operation, counted
        return None, 1


def _components(strands, letters):
    """Components of the closure, counted here so that the checks do not
    rest on the library's own count."""
    perm = list(range(strands))
    for x in letters:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, count = set(), 0
    for i in range(strands):
        if i not in seen:
            count += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return count


class Workload:
    # Whether wall_s is in reference seconds (see reference.py).  The
    # loop's data fit in cache, and only passes whose data do followed
    # its speed.  The alexander and verify passes run through 40 to 85 MB
    # of numpy arrays or Temperley-Lieb diagrams; when the loop ran 30%
    # faster, they did not, so their wall_s is in plain seconds.
    reference_scaled = False

    def trace_counts(self, inputs, outputs):
        return {}

    def cleanup(self, inputs):
        pass


# ----------------------------------------------------------------------
# census: `ttk census pp|ps` plus the maximal-pair / corollary sweep
# ----------------------------------------------------------------------

class Census(Workload):
    reference_scaled = True
    bound = 80          # one bound above the paper's 60
    seed_limit = 200    # Horadam seed pairs 1 < m < n <= seed_limit
    pairs_each = 60     # maximal and non-maximal pairs per pass
    k_max = 5

    def __init__(self, workdir):
        self.workdir = workdir
        self._checked = set()   # digests of census files already checked

    def prepare(self, seed):
        rng = random.Random(seed)
        maximal, other = [], []
        for n in range(3, self.seed_limit + 1):
            for m in range(2, n):
                if gcd(m, n) == 1:
                    (maximal if checks.own_maximal(m, n) else other).append((m, n))
        pairs = rng.sample(maximal, self.pairs_each) + rng.sample(other, self.pairs_each)
        rng.shuffle(pairs)
        os.makedirs(self.workdir, exist_ok=True)
        paths = {kind: os.path.join(self.workdir, f"census-{kind}.jsonl")
                 for kind in ("pp", "ps")}
        return {"pairs": pairs, "paths": paths}

    def _census(self, kind, path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["census", kind, "--bound", str(self.bound),
                             "--out", path])
        return code, buf.getvalue()

    def _sweep(self, m, n):
        return (horadam.is_maximal_pair(m, n),
                horadam.embed_in_unit_sequence(m, n),
                knots.corollary_maximal_pair_check(m, n, self.k_max))

    def run_pass(self, inp):
        out, failed = {"census": {}, "pairs": {}}, 0
        for kind, path in inp["paths"].items():
            out["census"][kind], f = _attempt(self._census, kind, path)
            failed += f
        for m, n in inp["pairs"]:
            out["pairs"][m, n], f = _attempt(self._sweep, m, n)
            failed += f
        return out, 2 + len(inp["pairs"]), failed

    def check(self, inp, out):
        errors = []
        for kind, res in out["census"].items():
            if res is None:
                continue
            code, stdout = res
            errors += checks.check_census_summary(kind, code, stdout.strip())
            path = inp["paths"][kind]
            digest = _digest(path)
            if digest not in self._checked:
                with open(path) as fh:
                    file_errors = checks.check_census_rows(fh, self.bound)
                errors += [f"census {kind}: {e}" for e in file_errors]
                if not file_errors:
                    self._checked.add(digest)
        for (m, n), res in out["pairs"].items():
            if res is not None:
                errors += checks.check_seed_pair(m, n, res)
        return errors

    def trace_counts(self, inp, out):
        size = sum(os.path.getsize(p) for p in inp["paths"].values())
        text = sum(len(r[1].encode()) for r in out["census"].values() if r)
        return {"cli.bytes_out": size + text}

    def cleanup(self, inp):
        for path in inp["paths"].values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        with contextlib.suppress(OSError):
            os.rmdir(self.workdir)


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.digest()


# ----------------------------------------------------------------------
# alexander: invariant_report(word, want_jones=False) on three knot sets
# ----------------------------------------------------------------------

LEMMA9_SEEDS = [(1, 2), (2, 3), (2, 7), (3, 4)]


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class Alexander(Workload):
    """Fixed inputs in a fixed order; the seed changes nothing."""

    fib_max = 8       # K(F_{n+2}, F_n, F_{n+1}, -1), Burau dimension up to 54
    torus_p_max = 30  # Lee's q-small torus matches K(p, q, p-q, -1)

    def prepare(self, seed):
        items = []
        for n in range(1, self.fib_max + 1):
            params = braids.TTKParams(p=_fib(n + 2), q=_fib(n), r=_fib(n + 1), twist_n=-1)
            items.append((f"fib{n}", params, {0: 1}))
        for m, n in LEMMA9_SEEDS:
            H = horadam.HoradamSpec(m, n).terms(7)
            for k in range(3):
                for side, params in (
                        ("a", braids.TTKParams(p=H[k + 3], q=H[k + 2], r=H[k + 1], twist_n=-1)),
                        ("b", braids.TTKParams(p=H[k + 1], q=H[k], r=H[k + 2], twist_n=1))):
                    items.append((f"lemma9({m},{n},{k}){side}", params, None))
        for p in range(5, self.torus_p_max + 1):
            for q in range(2, p):
                if gcd(p, q) != 1 or not q < p - q:
                    continue
                match = knots.lee_torus_qsmall(p, q)
                if match.matched:
                    params = braids.TTKParams(p=p, q=q, r=p - q, twist_n=-1)
                    want = checks.torus_alexander(match.torus_p, match.torus_q)
                    items.append((f"torus({p},{q})", params, want))
        return items

    def _report(self, params):
        word = braids.braid_for(params)
        return word, invariants.invariant_report(word, want_jones=False)

    def run_pass(self, items):
        out, failed = {}, 0
        for label, params, _ in items:
            out[label], f = _attempt(self._report, params)
            failed += f
        return out, len(items), failed

    def check(self, items, out):
        errors = []
        for label, _, want in items:
            if out[label] is None:
                continue
            word, rep = out[label]
            errors += checks.check_alexander(label, word, rep.alexander, want)
            if rep.determinant != abs(checks.value_at_minus_one(rep.alexander)):
                errors.append(f"{label}: determinant {rep.determinant}")
        for label, _, _ in items:
            if label.startswith("lemma9") and label.endswith("a"):
                a, b = out[label], out[label[:-1] + "b"]
                if a and b and a[1].alexander != b[1].alexander:
                    errors.append(f"{label[:-1]}: the two sides differ")
        return errors


# ----------------------------------------------------------------------
# verify: the lemma and Proposition 12 checks that `ttk verify` runs
# ----------------------------------------------------------------------

# The acceptance claims at default limits, less those whose Jones work
# would grow as the Jones route gets faster: lemma9 (1,2,2), (2,3,1) and
# (2,7,0) become computable on a braid with fewer strands.  Also left out
# are the claims that alone take longer than a run measures, since one
# pass per run cannot be measured steadily: lemma9 (3,4,0), a 22 s
# transfer, and prop12-1 (3,4,2), two 11-strand transfers of about 9.5 s.
VERIFY_CLAIMS = (
    [("lemma7", pq) for pq in [(5, 2), (7, 2), (7, 3), (9, 2)]]
    + [("lemma8", pq) for pq in [(3, 2), (4, 3), (5, 2)]]
    + [("lemma9", (m, n, k)) for m, n in LEMMA9_SEEDS for k in range(3)
       if (m, n, k) not in {(1, 2, 2), (2, 3, 1), (2, 7, 0), (3, 4, 0)}]
    + [("prop12-1", (m, n, 2)) for m, n in LEMMA9_SEEDS if (m, n) != (3, 4)])

# The comparisons whose Jones polynomial the library refuses at the
# default limits on today's braids: in each, one side has more than 14
# strands or more than 4e6 predicted TL operations.
# The key is (claim, args); the value holds the prop12-1 step k, or None
# for a lemma's one comparison.  Every other comparison must be computed.
# A Jones route that computes one of these is checked like the rest.
VERIFY_JONES_REFUSED = {
    ("lemma9", (2, 3, 2)): {None}, ("lemma9", (2, 7, 1)): {None},
    ("lemma9", (2, 7, 2)): {None}, ("lemma9", (3, 4, 1)): {None},
    ("lemma9", (3, 4, 2)): {None},
    ("prop12-1", (2, 3, 2)): {2}, ("prop12-1", (2, 7, 2)): {1, 2},
}

_VERIFY_FN = {"lemma7": "verify_lemma7", "lemma8": "verify_lemma8",
              "lemma9": "verify_lemma9", "prop12-1": "verify_prop12_1"}


class Verify(Workload):
    """Fixed claims in a fixed order; the seed changes nothing."""

    def prepare(self, seed):
        return list(VERIFY_CLAIMS)

    def run_pass(self, claims):
        out, failed = {}, 0
        for claim, args in claims:
            out[claim, args], f = _attempt(getattr(knots, _VERIFY_FN[claim]), *args)
            failed += f
        return out, len(claims), failed

    def check(self, claims, out):
        errors = []
        for (claim, args), rep in out.items():
            if rep is not None:
                errors += checks.check_report(
                    claim, rep, VERIFY_JONES_REFUSED.get((claim, args), set()))
        return errors

    def trace_counts(self, claims, out):
        used = skipped = 0
        for (claim, _), rep in out.items():
            if rep is None:
                continue
            for step in rep.details if claim == "prop12-1" else [rep.invariants]:
                if step["jones"] == "skipped":
                    skipped += 1
                else:
                    used += 2
        return {"knots.jones_used": used, "knots.jones_skipped": skipped}


# ----------------------------------------------------------------------
# small_words: many tiny calls on random words and small torus braids
# ----------------------------------------------------------------------

class SmallWords(Workload):
    reference_scaled = True
    strands = range(2, 7)
    # words per (strand count, length); the state sum costs 2^length, so
    # long words are few, keeping the state sum near half of a pass
    per_length = {**{L: 12 for L in range(1, 9)}, 9: 4, 10: 4, 11: 2, 12: 2,
                  13: 1}
    torus_max = 7

    def prepare(self, seed):
        rng = random.Random(seed)
        words = []
        for n in self.strands:
            alphabet = [i for i in range(1 - n, n) if i]
            # a closure is a knot only if the permutation is an n-cycle
            for length, count in self.per_length.items():
                want_knot = length >= n - 1 and (length - n + 1) % 2 == 0
                for _ in range(count):
                    while True:
                        letters = tuple(rng.choice(alphabet) for _ in range(length))
                        comps = _components(n, letters)
                        if comps == 1 or not want_knot:
                            break
                    g = rng.choice(alphabet)
                    words.append((
                        comps,
                        braids.BraidWord(n, letters),
                        braids.BraidWord(n, (g,) + letters + (-g,)),
                        braids.BraidWord(n + 1, letters + (rng.choice((1, -1)) * n,))))
        rng.shuffle(words)
        torus = [(p, q) for p in range(2, self.torus_max + 1)
                 for q in range(2, self.torus_max + 1) if p != q and gcd(p, q) == 1]
        return {"words": words, "torus": torus}

    def _word(self, comps, w, conj, stab):
        jones = invariants.jones
        out = {"jones_tl": jones(w, "tl"), "jones_kauffman": jones(w, "kauffman"),
               "jones_conj": jones(conj, "tl"), "jones_stab": jones(stab, "tl")}
        if comps == 1:
            alexander = invariants.alexander
            out["alexander"] = alexander(w)
            out["alexander_conj"] = alexander(conj)
            out["alexander_stab"] = alexander(stab)
        return out

    def _torus(self, p, q):
        w = braids.torus_braid(p, q)
        return {"jones_tl": invariants.jones(w, "tl"),
                "alexander": invariants.alexander(w)}

    def run_pass(self, inp):
        words, torus, failed = [], [], 0
        for item in inp["words"]:
            res, f = _attempt(self._word, *item)
            words.append(res)
            failed += f
        for p, q in inp["torus"]:
            res, f = _attempt(self._torus, p, q)
            torus.append(res)
            failed += f
        return {"words": words, "torus": torus}, len(words) + len(torus), failed

    def check(self, inp, out):
        errors = []
        for item, res in zip(inp["words"], out["words"]):
            if res is not None:
                errors += checks.check_small_word(item[1].to_text(), item[0], res)
        for (p, q), res in zip(inp["torus"], out["torus"]):
            if res is not None:
                errors += checks.check_torus(p, q, res)
        return errors


def make(name, workdir):
    if name == "census":
        return Census(workdir)
    return {"alexander": Alexander, "verify": Verify, "small_words": SmallWords}[name]()


NAMES = ("census", "alexander", "verify", "small_words")
