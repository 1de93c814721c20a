"""Each benchmark checker accepts a correct output and rejects a
corrupted one: a flipped coefficient, a dropped row, a wrong flag."""

import contextlib
import io
import json

import checks
from ttklib import cli
from ttklib.braids import BraidWord, TTKParams, braid_for, torus_braid
from ttklib.horadam import embed_in_unit_sequence, is_maximal_pair
from ttklib.invariants import alexander, jones
from ttklib.knots import corollary_maximal_pair_check, verify_lemma8, verify_prop12_1
from ttklib.laurent import Laurent

BOUND = 12


def _flip(poly):
    """The polynomial with its highest coefficient increased by one."""
    terms = dict(poly.terms)
    terms[max(terms)] += 1
    return Laurent(terms, poly.var)


def _census_lines(tmp_path, kind):
    path = tmp_path / f"{kind}.jsonl"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["census", kind, "--bound", str(BOUND), "--out", str(path)])
    return code, buf.getvalue().strip(), path.read_text().splitlines()


def test_census_rows(tmp_path):
    code, summary, lines = _census_lines(tmp_path, "ps")
    assert checks.check_census_summary("ps", code, summary) == []
    assert checks.check_census_rows(lines, BOUND) == []
    assert checks.check_census_rows(lines[:10] + lines[11:], BOUND)
    assert checks.check_census_rows(lines[:-1], BOUND)
    for field in ("pp", "ps"):
        row = json.loads(lines[5])
        row[field] = not row[field]
        assert checks.check_census_rows(
            lines[:5] + [json.dumps(row)] + lines[6:], BOUND)
    flagged = next(i for i, line in enumerate(lines) if json.loads(line)["flags"])
    row = json.loads(lines[flagged])
    row["flags"] = ["predicate-invalid:unexpected"]
    assert checks.check_census_rows(
        lines[:flagged] + [json.dumps(row)] + lines[flagged + 1:], BOUND)


def test_census_summary(tmp_path):
    code, summary, _ = _census_lines(tmp_path, "pp")
    assert checks.check_census_summary("pp", code, summary) == []
    assert checks.check_census_summary("pp", code, "pp: 1 missing, 0 extra")
    assert checks.check_census_summary("pp", 1, summary)
    assert checks.check_census_summary("ps", 0, "ps: 0 uncovered, 1 flagged (unexpected: 1)")


def test_seed_pair():
    for m, n in [(4, 7), (3, 10)]:
        res = (is_maximal_pair(m, n), embed_in_unit_sequence(m, n),
               corollary_maximal_pair_check(m, n, 3))
        assert checks.check_seed_pair(m, n, res) == []
        assert checks.check_seed_pair(m, n, (not res[0],) + res[1:])
    maximal, emb, cor = (is_maximal_pair(4, 7), embed_in_unit_sequence(4, 7),
                         corollary_maximal_pair_check(4, 7, 3))
    moved = type(emb)(emb.sign, emb.a, emb.start_index + 1)
    assert checks.check_seed_pair(4, 7, (maximal, moved, cor))


def test_alexander():
    word = braid_for(TTKParams(p=7, q=3, r=4, twist_n=-1))
    delta = alexander(word)
    assert checks.check_alexander("K(7,3,4,-1)", word, delta) == []
    assert checks.check_alexander("K(7,3,4,-1)", word, _flip(delta))
    assert checks.check_alexander("K(7,3,4,-1)", word, delta, {0: 1})
    unknot = braid_for(TTKParams(p=8, q=3, r=5, twist_n=-1))
    assert checks.check_alexander("fib4", unknot, alexander(unknot), {0: 1}) == []
    # a symmetric, normalized polynomial that is not this knot's
    assert checks.check_alexander("fib4", unknot, Laurent({-1: 1, 0: -1, 1: 1}))


def test_verify_reports():
    rep = verify_lemma8(3, 2)
    assert checks.check_report("lemma8", rep) == []
    rep.invariants["jones"] = "equal"
    assert checks.check_report("lemma8", rep)
    # a skipped Jones comparison passes only where it is expected
    rep.invariants["jones"] = "skipped"
    assert checks.check_report("lemma8", rep)
    assert checks.check_report("lemma8", rep, {None}) == []
    rep = verify_prop12_1(1, 2, 2)
    assert checks.check_report("prop12-1", rep) == []
    rep.details[0]["jones"] = "mismatch"
    assert checks.check_report("prop12-1", rep)
    rep.details[0]["jones"] = "skipped"
    assert checks.check_report("prop12-1", rep)
    assert checks.check_report("prop12-1", rep, {2}) == []
    rep.details.pop()
    assert checks.check_report("prop12-1", rep, {2})
    rep = verify_prop12_1(1, 2, 2)
    rep.verdict = "inconsistent"
    assert checks.check_report("prop12-1", rep)


def test_small_word():
    w = BraidWord(3, (1, -2, 1, -2))
    conj = BraidWord(3, (2, 1, -2, 1, -2, -2))
    stab = BraidWord(4, (1, -2, 1, -2, 3))
    out = {"jones_tl": jones(w, "tl"), "jones_kauffman": jones(w, "kauffman"),
           "jones_conj": jones(conj, "tl"), "jones_stab": jones(stab, "tl"),
           "alexander": alexander(w), "alexander_conj": alexander(conj),
           "alexander_stab": alexander(stab)}
    assert checks.check_small_word("w", 1, out) == []
    for key in out:
        assert checks.check_small_word("w", 1, {**out, key: _flip(out[key])}), key
    link = BraidWord(3, (1, 1, 2))
    out = {"jones_tl": jones(link, "tl"), "jones_kauffman": jones(link, "kauffman"),
           "jones_conj": jones(link, "tl"), "jones_stab": jones(link, "tl")}
    assert checks.check_small_word("link", 2, out) == []
    assert checks.check_small_word("link", 3, out)


def test_torus():
    w = torus_braid(5, 3)
    out = {"jones_tl": jones(w, "tl"), "alexander": alexander(w)}
    assert checks.check_torus(5, 3, out) == []
    assert checks.check_torus(5, 3, {**out, "jones_tl": _flip(out["jones_tl"])})
    assert checks.check_torus(5, 3, {**out, "alexander": _flip(out["alexander"])})
    assert checks.check_torus(5, 2, out)
