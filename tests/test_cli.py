import hashlib
import json
import os
import subprocess
import sys

import pytest

import ttklib
from ttklib import cli
from ttklib.classify import census_rows
from ttklib.cli import _decimal_digits, main
from ttklib.horadam import SlopeValue


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_horadam_term(capsys):
    code, out, _ = run(capsys, "horadam", "term", "-m", "2", "-n", "7", "-k", "4")
    assert code == 0 and out == "25\n"


def test_horadam_term_general_coefficients(capsys):
    code, out, _ = run(capsys, "horadam", "term", "-m", "1", "-n", "2",
                       "-k", "2", "--coef-a", "3", "--coef-b", "2")
    assert code == 0 and out == "7\n"


def test_horadam_maximal(capsys):
    code, out, _ = run(capsys, "horadam", "maximal", "-m", "3", "-n", "7")
    assert code == 0 and out == "true (q0=2)\n"
    code, out, _ = run(capsys, "horadam", "maximal", "-m", "2", "-n", "7")
    assert code == 0 and out == "false (q0=3)\n"


def test_horadam_embed(capsys):
    code, out, _ = run(capsys, "horadam", "embed", "-m", "4", "-n", "7")
    assert code == 0 and out == "sign=+1 a=3 start=2\n"
    code, out, _ = run(capsys, "horadam", "embed", "-m", "2", "-n", "7")
    assert code == 0 and out == "none (not a maximal pair)\n"


def test_horadam_euclid(capsys):
    code, out, _ = run(capsys, "horadam", "euclid", "-m", "8", "-n", "13")
    assert code == 0
    assert out == "quotients: 1 1 1 1\nremainders: 5 3 2 1\n"


def test_horadam_slopes(capsys):
    code, out, _ = run(capsys, "horadam", "slopes", "-m", "2", "-n", "7",
                       "--kmax", "2")
    assert code == 0
    # t_2 = 16^2 + 16*9 + 9^2 = 481 for the (2,7)-sequence 2,7,9,16
    assert out.splitlines() == ["k=1 s=59 t=193", "k=2 s=95 t=481"]


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_slopes_kmax_below_one_exit_1(capsys, kmax):
    # both slope commands refuse an empty range alike, before any work
    for command in (("horadam", "slopes"), ("verify", "slopes")):
        result = run(capsys, *command, "-m", "2", "-n", "7", "--kmax", kmax)
        assert result == (1, "", "error: k_max must be >= 1\n"), command


def test_horadam_term_too_long_to_print_exit_1(capsys):
    # H_30000 of the (2,7)-sequence has 6,271 digits: refused before
    # printing, under the interpreter's default limit of 4,300
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int-to-text conversion")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        result = run(capsys, "horadam", "term", "-m", "2", "-n", "7", "-k", "30000")
        assert result == (1, "", "error: the result has 6271 decimal digits; this "
                          "Python prints integers of at most 4300 "
                          "(sys.set_int_max_str_digits)\n")
        code, out, _ = run(capsys, "horadam", "term", "-m", "2", "-n", "7", "-k", "20000")
        assert code == 0 and len(out) == 4181 + 1  # digits and newline
    finally:
        sys.set_int_max_str_digits(saved)


def test_horadam_slopes_too_long_to_print_exit_1(capsys, monkeypatch):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int-to-text conversion")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    # s_k passes 4,300 digits near k = 10,300, too slow to reach here
    monkeypatch.setattr(cli, "slope_values", lambda spec, k_max: [
        SlopeValue("S", 1, 5), SlopeValue("T", 1, -10 ** 4300)])
    try:
        code, out, err = run(capsys, "horadam", "slopes", "-m", "1", "-n", "1",
                             "--kmax", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: the result has 4301 decimal digits;")
    finally:
        sys.set_int_max_str_digits(saved)


def test_decimal_digits_at_powers_of_ten():
    for k in range(1, 2000, 37):
        assert _decimal_digits(10 ** k - 1) == k
        assert _decimal_digits(10 ** k) == _decimal_digits(-10 ** k) == k + 1
    assert _decimal_digits(0) == _decimal_digits(9) == 1


def test_horadam_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "horadam", "euclid", "-m", "4", "-n", "10")
    assert code == 1 and "error:" in err


def test_braid_command(capsys):
    code, out, _ = run(capsys, "braid", "-p", "5", "-q", "2", "-r", "3", "-n", "-1")
    assert code == 0
    assert out == "B5: 4 3 2 1 4 3 2 1 -1 -2 -1 -2 -1 -2\n"


def test_braid_between_max_and_p_plus_q(capsys):
    code, out, _ = run(capsys, "braid", "-p", "5", "-q", "3", "-r", "6", "-n", "1")
    assert code == 0
    assert out == ("B8: 5 4 3 2 1 5 4 3 2 1 5 4 3 2 1 5 4 3 2 1 5 4 3 2 1 "
                   "5 4 3 2 1 3 4 5 6 7 2 3 4 5 6 1 2 3 4 5\n")


def test_invariant_command(capsys):
    code, out, _ = run(capsys, "invariant", "-p", "5", "-q", "2", "-r", "3",
                       "-n", "-1", "--jones")
    assert code == 0
    assert out == "jones: 1\nalexander: 1\ndeterminant: 1\n"


def test_invariant_torus(capsys):
    code, out, _ = run(capsys, "invariant", "--torus", "2", "3", "--jones")
    assert code == 0
    assert out.splitlines()[0] == "jones: t + t^3 - t^4"


def test_invariant_word_json(capsys):
    code, out, _ = run(capsys, "invariant", "--word", "B2: 1 1 1",
                       "--jones", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["determinant"] == 3
    assert data["jones"]["terms"] == [[1, 1], [3, 1], [4, -1]]


def test_invariant_link_jones(capsys):
    code, out, _ = run(capsys, "invariant", "--word", "B2: 1 1", "--jones")
    assert code == 0
    assert out == ("jones: -t^1/2 - (t^1/2)^5\n"
                   "alexander: n/a (closure has 2 components)\n"
                   "determinant: n/a\n")
    code, out, _ = run(capsys, "invariant", "--word", "B2: 1 1", "--jones",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["alexander"] is None and data["determinant"] is None
    assert data["jones"] == {"terms": [[1, -1], [5, -1]], "var": "t^1/2"}
    # without --jones there is nothing to answer for a link
    code, out, err = run(capsys, "invariant", "--word", "B2: 1 1")
    assert code == 1 and out == ""
    assert err == "error: closure has 2 components; the Alexander route needs a knot\n"
    # nor when its Jones polynomial is over the limits
    code, out, err = run(capsys, "--tl-ops", "1",
                         "invariant", "--word", "B2: 1 1", "--jones")
    assert code == 1 and out == "" and err.startswith("error: ")


def test_invariant_budget_error(capsys):
    code, out, _ = run(capsys, "--tl-ops", "1",
                       "invariant", "--word", "B2: 1 1 1", "--jones")
    assert code == 0  # jones skipped, not fatal
    assert out.splitlines()[0] == "jones: skipped (tl-ops budget: 5)"


def test_census_pp(capsys):
    code, out, err = run(capsys, "census", "pp", "--bound", "20")
    assert code == 0
    assert err.strip() == "pp: 0 missing, 0 extra"
    first = json.loads(out.splitlines()[0])
    assert set(first) == {"p", "q", "r", "pp", "pp_families", "ps",
                          "ps_beta", "ps_families", "flags"}


def test_census_ps_csv_out(capsys, tmp_path):
    path = tmp_path / "ps.csv"
    code, out, _ = run(capsys, "census", "ps", "--bound", "30",
                       "--format", "csv", "--out", str(path))
    assert code == 0
    assert out.startswith("ps: 0 uncovered")
    lines = path.read_text().splitlines()
    assert lines[0] == "p,q,r,pp,pp_families,ps,ps_beta,ps_families,flags"
    assert len(lines) > 100


def test_census_json_row_equals_json_dumps(capsys, tmp_path):
    # every line the column writer emits is json.dumps of census_rows' row
    rows = list(census_rows(40))
    assert len(rows) == 18357
    for kind in ("pp", "ps"):
        path = tmp_path / f"{kind}.jsonl"
        code, _, _ = run(capsys, "census", kind, "--bound", "40", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            assert line == json.dumps(row, sort_keys=True), (kind, row)
    # the rows with families and flags take the writer's other branch
    assert any(row["pp_families"] for row in rows)
    assert any(row["ps_families"] and not row["flags"] for row in rows)
    assert any(row["flags"] for row in rows)


@pytest.mark.parametrize("argv", [
    ["census", "pp", "--bound", "2"],
    ["census", "ps", "--bound", "2", "--format", "csv"],
])
def test_census_bad_bound_refused_before_out_is_opened(capsys, tmp_path, argv):
    path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: bound must be >= ") and "Traceback" not in err
    assert not path.exists()
    path.write_bytes(b"kept\n")
    assert run(capsys, *argv, "--out", str(path))[0] == 1
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize("bound", ["3", "4"])
def test_census_floor_names_the_ps_families(capsys, bound):
    code, out, err = run(capsys, "census", "pp", "--bound", bound)
    assert code == 1 and out == ""
    assert err == ("error: bound must be >= 5, since census rows carry "
                   "the ps families\n")


def test_census_out_unwritable_exit_2(capsys, tmp_path):
    path = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run(capsys, "census", "pp", "--bound", "10",
                         "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert not path.parent.exists()


def test_census_closed_pipe_exits_quietly():
    src = os.path.dirname(os.path.dirname(ttklib.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ttklib.cli", "census", "pp", "--bound", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""
    assert [json.loads(line)["r"] for line in head] == [2, 3, 4]


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(ttklib.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, ttklib, ttklib.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_census_rows_deterministic(capsys):
    _, out1, _ = run(capsys, "census", "pp", "--bound", "12")
    _, out2, _ = run(capsys, "census", "pp", "--bound", "12")
    assert out1 == out2


def test_verify_lemma7(capsys):
    code, out, _ = run(capsys, "verify", "lemma7", "-p", "5", "-q", "2")
    assert code == 0 and "consistent" in out


def test_verify_corollary(capsys):
    code, out, _ = run(capsys, "verify", "corollary", "-m", "2", "-n", "7",
                       "--kmax", "4")
    assert code == 0
    assert "torus=[False, False, False, False, False]" in out


def test_verify_prop12_json(capsys):
    code, out, _ = run(capsys, "verify", "prop12-1", "-m", "1", "-n", "2",
                       "--kmax", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["claim"] == "prop12-1"
    assert data["verdict"] == "consistent"
    assert data["invariants"]["alexander"] == "equal"


def test_verify_slopes(capsys):
    code, out, _ = run(capsys, "verify", "slopes", "-m", "2", "-n", "7",
                       "--kmax", "12")
    assert code == 0 and out.strip() == "consistent"


def test_verify_missing_args_usage(capsys):
    code, _, err = run(capsys, "verify", "lemma7", "-m", "2", "-n", "7")
    assert code == 2 and "error" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_invalid_budget_exit_2(capsys):
    code, _, err = run(capsys, "--tl-ops", "0", "invariant", "--word", "B2: 1")
    assert code == 2 and "must be >= 1" in err
    # --tl-ops is the one work limit; --budget is not an option
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "5", "invariant", "--word", "B2: 1 1 1", "--jones"])
    assert exc.value.code == 2


def test_env_budget_is_ignored(capsys, monkeypatch):
    # TTK_BUDGET is not read: Jones has one route and one budget, --tl-ops
    monkeypatch.setenv("TTK_BUDGET", "2")
    code, out, _ = run(capsys, "invariant", "--word", "B2: 1 1 1", "--jones")
    assert code == 0
    assert out.splitlines()[0] == "jones: t + t^3 - t^4"


def test_env_budget_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("TTK_BUDGET", "abc")  # not read
    code, out, _ = run(capsys, "horadam", "term", "-m", "2", "-n", "7", "-k", "4")
    assert code == 0 and out == "25\n"


# Byte-exact outputs: the census files and summaries at bound 60 (pp and
# ps write the same rows), and sample horadam, invariant and verify output.
_CENSUS_60_SHA256 = {
    "json": "2802d630a4de95314c59343b5f15e73dab6d96b23075c7e47620550068b0cfe7",
    "csv": "bb6301291528ca87e1ba4d70365fc922f9e2946a05f462b1440f9177d9af1778",
}
_CENSUS_60_SUMMARY = {
    "pp": "pp: 0 missing, 0 extra",
    "ps": "ps: 0 uncovered, 40 flagged (family2-p<7: 2, family3-i=1: 38)",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_golden_census_60(capsys, tmp_path, fmt):
    digests = {}
    for kind in ("pp", "ps"):
        path = tmp_path / f"{kind}.{fmt}"
        code, out, err = run(capsys, "census", kind, "--bound", "60",
                             "--format", fmt, "--out", str(path))
        assert code == 0 and err == ""
        assert out == _CENSUS_60_SUMMARY[kind] + "\n"
        digests[kind] = hashlib.sha256(path.read_bytes()).hexdigest()
    # the rows do not depend on the census kind
    assert digests == {"pp": _CENSUS_60_SHA256[fmt], "ps": _CENSUS_60_SHA256[fmt]}


def test_golden_horadam(capsys):
    assert run(capsys, "horadam", "maximal", "-m", "4", "-n", "7") == (
        0, "true (q0=1)\n", "")
    assert run(capsys, "horadam", "maximal", "-m", "3", "-n", "10") == (
        0, "false (q0=3)\n", "")
    assert run(capsys, "horadam", "embed", "-m", "4", "-n", "7") == (
        0, "sign=+1 a=3 start=2\n", "")


def test_golden_invariant_and_verify_json(capsys):
    code, out, _ = run(capsys, "invariant", "-p", "5", "-q", "2", "-r", "3",
                       "-n", "-1", "--jones", "--format", "json")
    assert code == 0
    assert out == ('{"alexander": {"terms": [[0, 1]], "var": "t"}, '
                   '"crossing_count": 14, "determinant": 1, '
                   '"jones": {"terms": [[0, 1]], "var": "t"}, '
                   '"jones_status": "ok", "strand_count": 5}\n')
    code, out, _ = run(capsys, "verify", "prop12-1", "-m", "2", "-n", "7",
                       "--kmax", "2", "--format", "json")
    assert code == 0
    assert out == ('{"claim": "prop12-1", "invariants": {"alexander": "equal", '
                   '"jones": "skipped"}, "params": {"k_max": 2, "m": 2, "n": 7}, '
                   '"verdict": "consistent"}\n')


# `ttk verify` byte for byte: every claim in text and JSON, each scope
# refusal (exit 1), each missing-flag usage error (exit 2), and Jones
# skipped by --tl-ops, in whole and in part (prop12-1 to k_max = 3 at 400
# ops computes only its k = 1 step).
_VERIFY_GOLDEN = [
    ('verify lemma7 -p 5 -q 2', 0,
     'lemma7(p=5,q=2): alexander=equal jones=equal -> consistent\n', ''),
    ('verify lemma7 -p 5 -q 2 --format json', 0,
     '{"claim": "lemma7", "invariants": {"alexander": "equal", "jones": '
     '"equal"}, "params": {"p": 5, "q": 2}, "verdict": "consistent"}\n', ''),
    ('verify lemma8 -p 3 -q 2', 0,
     'lemma8(p=3,q=2): alexander=equal jones=mirror -> consistent\n', ''),
    ('verify lemma8 -p 3 -q 2 --format json', 0,
     '{"claim": "lemma8", "invariants": {"alexander": "equal", "jones": '
     '"mirror"}, "params": {"p": 3, "q": 2}, "verdict": "consistent"}\n', ''),
    ('verify lemma9 -m 1 -n 2 -k 1', 0,
     'lemma9(m=1,n=2,k=1): alexander=equal jones=equal -> consistent\n', ''),
    ('verify lemma9 -m 1 -n 2 -k 1 --format json', 0,
     '{"claim": "lemma9", "invariants": {"alexander": "equal", "jones": '
     '"equal"}, "params": {"k": 1, "m": 1, "n": 2}, "verdict": '
     '"consistent"}\n', ''),
    ('verify lemma9 -m 1 -n 2', 0,
     'lemma9(m=1,n=2,k=0): alexander=equal jones=equal -> consistent\n', ''),
    ('verify prop12-1 -m 1 -n 2 --kmax 2', 0,
     'prop12-1(m=1,n=2,k_max=2): alexander=equal jones=mirror -> '
     'consistent\n', ''),
    ('verify prop12-1 -m 1 -n 2 --kmax 2 --format json', 0,
     '{"claim": "prop12-1", "invariants": {"alexander": "equal", '
     '"jones": "mirror"}, "params": {"k_max": 2, "m": 1, "n": 2}, '
     '"verdict": "consistent"}\n', ''),
    ('verify prop12-1 -m 1 -n 3', 0,
     'prop12-1(m=1,n=3,k_max=2): alexander=equal jones=mirror -> '
     'consistent\n', ''),
    ('verify corollary -m 2 -n 7 --kmax 3', 0,
     'corollary(m=2,n=7,k_max=3): maximal=False torus=[False, False, '
     'False, False] -> consistent\n', ''),
    ('verify corollary -m 2 -n 7 --kmax 3 --format json', 0,
     '{"claim": "corollary", "invariants": {"maximal": false, "torus": '
     '[false, false, false, false]}, "params": {"k_max": 3, "m": 2, "n": '
     '7}, "verdict": "consistent"}\n', ''),
    ('verify corollary -m 3 -n 7 --kmax 0', 0,
     'corollary(m=3,n=7,k_max=0): maximal=True torus=[True] -> '
     'consistent\n', ''),
    ('verify slopes -m 2 -n 7 --kmax 3', 0,
     'consistent\n', ''),
    ('verify slopes -m 2 -n 7 --kmax 3 --format json', 0,
     '{"claim": "slopes", "first_violation": null, "ok": true}\n', ''),
    ('verify lemma7 -p 5 -q 3', 1,
     '', 'error: lemma 7 needs coprime p, q >= 2 with p > 2q\n'),
    ('verify lemma8 -p 2 -q 3', 1,
     '', 'error: lemma 8 needs coprime p > q >= 2\n'),
    ('verify lemma9 -m 2 -n 4', 1,
     '', 'error: lemma 9 needs positive coprime seeds and k >= 0\n'),
    ('verify lemma9 -m 1 -n 2 -k -1', 1,
     '', 'error: lemma 9 needs positive coprime seeds and k >= 0\n'),
    ('verify prop12-1 -m 1 -n 2 --kmax 0', 1,
     '', 'error: need positive coprime seeds and k_max >= 1\n'),
    ('verify corollary -m 3 -n 2', 1,
     '', 'error: need coprime seeds with 1 < m < n\n'),
    ('verify corollary -m 2 -n 7 --kmax -1', 1,
     '', 'error: need k_max >= 0\n'),
    ('verify slopes -m 2 -n 7 --kmax 0', 1,
     '', 'error: k_max must be >= 1\n'),
    ('verify lemma7 -q 2', 2,
     '', 'error: verify lemma7 needs -p and -q\n'),
    ('verify lemma8 -m 1 -n 2', 2,
     '', 'error: verify lemma8 needs -p and -q\n'),
    ('verify lemma9 -p 2 -q 4', 2,
     '', 'error: verify lemma9 needs -m and -n\n'),
    ('verify prop12-1 -m 1', 2,
     '', 'error: verify prop12-1 needs -m and -n\n'),
    ('verify corollary -n 7', 2,
     '', 'error: verify corollary needs -m and -n\n'),
    ('verify slopes -p 2 -q 7', 2,
     '', 'error: verify slopes needs -m and -n\n'),
    ('--tl-ops 10 verify lemma9 -m 1 -n 2 -k 1', 0,
     'lemma9(m=1,n=2,k=1): alexander=equal jones=skipped -> consistent\n', ''),
    ('--tl-ops 10 verify prop12-1 -m 1 -n 2 --kmax 2 --format json', 0,
     '{"claim": "prop12-1", "invariants": {"alexander": "equal", '
     '"jones": "skipped"}, "params": {"k_max": 2, "m": 1, "n": 2}, '
     '"verdict": "consistent"}\n', ''),
    ('--tl-ops 400 verify prop12-1 -m 1 -n 2 --kmax 3', 0,
     'prop12-1(m=1,n=2,k_max=3): alexander=equal jones=mirror -> '
     'consistent\n', ''),
    ('--tl-ops 0 verify lemma7 -p 5 -q 2', 2,
     '', 'error: tl_ops must be >= 1\n'),
]


@pytest.mark.parametrize("argv, code, out, err", _VERIFY_GOLDEN,
                         ids=[g[0] for g in _VERIFY_GOLDEN])
def test_golden_verify(capsys, argv, code, out, err):
    assert run(capsys, *argv.split()) == (code, out, err)
