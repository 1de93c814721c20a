"""Command-line front end.

Exit codes: 0 on success / consistent verification, 1 on domain errors,
exceeded budgets, a result too long to print, or an inconsistent
verification, 2 on usage errors.
--tl-ops is the one work limit: the Temperley-Lieb operation budget of
a Jones computation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

from .braids import BraidWord, TTKParams, braid_for
from .classify import CensusReport, _census, _rows
from .errors import DomainError, TTKError
from .horadam import (HoradamSpec, check_slope_relations,
                      embed_in_unit_sequence, euclid_trace, horadam_term,
                      is_maximal_pair, slope_values)
from .invariants import (DEFAULT_TL_OPS, invariant_report, torus_alexander,
                         torus_jones)
from .knots import CLAIMS, Limits, verify_lemma

_CSV_COLUMNS = ["p", "q", "r", "pp", "pp_families", "ps", "ps_beta",
                "ps_families", "flags"]


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ttk",
        description="Twisted torus knot braids, invariants, censuses, "
                    "and lemma verification.")
    ap.add_argument("--tl-ops", type=int, default=DEFAULT_TL_OPS,
                    help="diagram-operation budget for the Temperley-Lieb path")
    sub = ap.add_subparsers(dest="command", required=True)

    hor = sub.add_parser("horadam", help="sequence queries")
    hor.set_defaults(run=_cmd_horadam)
    hsub = hor.add_subparsers(dest="subcommand", required=True)
    for name in ("term", "slopes", "euclid", "maximal", "embed"):
        hp = hsub.add_parser(name)
        hp.add_argument("-m", type=int, required=True)
        hp.add_argument("-n", type=int, required=True)
        if name == "term":
            hp.add_argument("-k", type=int, required=True)
            hp.add_argument("--coef-a", type=int, default=1)
            hp.add_argument("--coef-b", type=int, default=1)
        if name == "slopes":
            hp.add_argument("--kmax", type=int, default=8)

    br = sub.add_parser("braid", help="emit a twisted torus knot braid word")
    br.set_defaults(run=_cmd_braid)
    _add_ttk_args(br)

    inv = sub.add_parser("invariant", help="invariants of a braid closure")
    inv.set_defaults(run=_cmd_invariant)
    _add_ttk_args(inv, required=False)
    inv.add_argument("--torus", nargs=2, type=int, metavar=("P", "Q"),
                     help="closed-form invariants of the torus knot T(P,Q)")
    inv.add_argument("--word", type=str, default=None,
                     help="explicit braid word, e.g. 'B5: 4 3 2 1 ...'")
    inv.add_argument("--jones", action="store_true", help="also compute Jones")
    inv.add_argument("--format", choices=["text", "json"], default="text")

    cen = sub.add_parser("census", help="classification censuses")
    cen.set_defaults(run=_cmd_census)
    cen.add_argument("kind", choices=["pp", "ps"])
    cen.add_argument("--bound", type=int, default=60)
    cen.add_argument("--format", choices=["json", "csv"], default="json")
    cen.add_argument("--out", type=str, default=None)

    ver = sub.add_parser("verify", help="invariant-based verification")
    ver.set_defaults(run=_cmd_verify)
    ver.add_argument("claim", choices=[*CLAIMS, "slopes"])
    ver.add_argument("-p", type=int)
    ver.add_argument("-q", type=int)
    ver.add_argument("-m", type=int)
    ver.add_argument("-n", type=int)
    ver.add_argument("-k", type=int, default=0)
    ver.add_argument("--kmax", dest="k_max", metavar="KMAX", type=int, default=2)
    ver.add_argument("--format", choices=["text", "json"], default="text")
    return ap


def _add_ttk_args(parser, required=True):
    parser.add_argument("-p", type=int, required=required)
    parser.add_argument("-q", type=int, required=required)
    parser.add_argument("-r", type=int, required=required)
    parser.add_argument("-n", dest="twist", type=int, required=required)


def _decimal_digits(value):
    """Decimal digit count of ``value``, without converting it to text."""
    value = abs(value)
    digits = max(1, int((value.bit_length() - 1) * math.log10(2)))
    while value >= 10 ** digits:
        digits += 1
    return digits


def _require_printable(values):
    """Refuse, before anything is printed, an integer longer than the
    interpreter's limit on int-to-text conversion."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        digits = _decimal_digits(max(values, key=abs))
        if digits > limit:
            raise TTKError(
                f"the result has {digits} decimal digits; this Python prints "
                f"integers of at most {limit} (sys.set_int_max_str_digits)")


def _cmd_horadam(args, limits):
    m, n = args.m, args.n
    if args.subcommand == "term":
        spec = HoradamSpec(m, n, args.coef_a, args.coef_b)
        term = horadam_term(spec, args.k)
        _require_printable([term])
        print(term)
    elif args.subcommand == "slopes":
        vals = slope_values(HoradamSpec(m, n), args.kmax)
        _require_printable([v.value for v in vals])
        for s, t in zip(vals[:args.kmax], vals[args.kmax:]):
            print(f"k={s.index} s={s.value} t={t.value}")
    elif args.subcommand == "euclid":
        tr = euclid_trace(m, n)
        print("quotients: " + " ".join(str(q) for q in tr.quotients))
        print("remainders: " + " ".join(str(r) for r in tr.remainders))
    elif args.subcommand == "maximal":
        verdict = "true" if is_maximal_pair(m, n) else "false"
        print(f"{verdict} (q0={euclid_trace(m, n).q0})")
    elif args.subcommand == "embed":
        emb = embed_in_unit_sequence(m, n)
        if emb is None:
            print("none (not a maximal pair)")
        else:
            sign = "+1" if emb.sign > 0 else "-1"
            print(f"sign={sign} a={emb.a} start={emb.start_index}")
    return 0


def _cmd_braid(args, limits):
    params = TTKParams(p=args.p, q=args.q, r=args.r, twist_n=args.twist)
    print(braid_for(params).to_text())
    return 0


def _cmd_invariant(args, limits):
    if args.torus:
        p, q = args.torus
        lines = {}
        if args.jones:
            lines["jones"] = torus_jones(p, q)
        lines["alexander"] = torus_alexander(p, q)
        lines["determinant"] = abs(lines["alexander"].evaluate(-1))
        if args.format == "json":
            out = {k: (v.to_json_dict() if hasattr(v, "to_json_dict") else v)
                   for k, v in lines.items()}
            print(json.dumps(out, sort_keys=True))
        else:
            for k, v in lines.items():
                print(f"{k}: {v}")
        return 0
    if args.word:
        word = BraidWord.from_text(args.word)
    else:
        if args.p is None or args.q is None or args.r is None or args.twist is None:
            print("error: need -p -q -r -n, --word, or --torus", file=sys.stderr)
            return 2
        word = braid_for(TTKParams(p=args.p, q=args.q, r=args.r, twist_n=args.twist))
    rep = invariant_report(word, want_jones=args.jones, tl_ops=limits.tl_ops)
    if args.format == "json":
        print(json.dumps(rep.to_json_dict(), sort_keys=True))
    else:
        if args.jones:
            print(f"jones: {rep.jones if rep.jones is not None else rep.jones_status}")
        if rep.alexander is None:
            print(f"alexander: n/a (closure has {word.component_count()} components)")
            print("determinant: n/a")
        else:
            print(f"alexander: {rep.alexander}")
            print(f"determinant: {rep.determinant}")
    return 0


def _json_list(value):
    """json.dumps(value, sort_keys=True) for a census row's list."""
    return json.dumps(value, sort_keys=True) if value else "[]"


def _json_prefix(p, q, pp, ps, beta, pp_matches=(), ps_matches=(), flags=()):
    """json.dumps(row, sort_keys=True) for a census row, up to the value
    of its last key, "r"; only a non-empty list goes to json.dumps."""
    pp_families = [m.to_json_dict() for m in pp_matches]
    ps_families = [m.to_json_dict() for m in ps_matches]
    return (f'{{"flags": {_json_list(flags)}, "p": {p}, '
            f'"pp": {"true" if pp else "false"}, '
            f'"pp_families": {_json_list(pp_families)}, '
            f'"ps": {"true" if ps else "false"}, '
            f'"ps_beta": {"null" if beta is None else beta}, '
            f'"ps_families": {_json_list(ps_families)}, "q": {q}, "r": ')


def _write_json(fh, pairs, bound):
    """JSON lines from the census columns, one write per pair: a row
    without families is its (pp, ps, ps_beta) prefix, formatted once per
    pair, and its r."""
    r_tail = [f"{r}}}\n" for r in range(2, 2 * bound)]
    for p, q, pp, ps, beta, special in pairs:
        keys = list(zip(pp, ps, beta))
        prefix = {k: _json_prefix(p, q, *k) for k in set(keys)}
        lines = [prefix[k] + tail for k, tail in zip(keys, r_tail)]
        for r, families in special.items():
            i = r - 2
            lines[i] = _json_prefix(p, q, pp[i], ps[i], beta[i], *families) + r_tail[i]
        fh.write("".join(lines))


def _cmd_census(args, limits):
    report = CensusReport(args.kind, args.bound, [], [], [])
    pairs = _census(args.bound, report)
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    with out as fh:
        if args.format == "json":
            _write_json(fh, pairs, args.bound)
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_COLUMNS)
            for row in _rows(pairs):
                writer.writerow([_json_list(row[c]) if isinstance(row[c], list)
                                 else row[c] for c in _CSV_COLUMNS])
    print(report.summary(), file=sys.stdout if args.out else sys.stderr)
    return 0 if report.ok else 1


def _cmd_verify(args, limits):
    names = CLAIMS[args.claim][1] if args.claim in CLAIMS else ("m", "n")
    if any(vars(args)[a] is None for a in names):
        print(f"error: verify {args.claim} needs -{names[0]} and -{names[1]}",
              file=sys.stderr)
        return 2
    if args.claim == "slopes":
        rep = check_slope_relations(HoradamSpec(args.m, args.n), args.k_max)
        if args.format == "json":
            print(json.dumps({"claim": "slopes", "ok": rep.ok,
                              "first_violation": rep.first_violation},
                             sort_keys=True))
        else:
            print("consistent" if rep.ok else f"violation: {rep.first_violation}")
        return 0 if rep.ok else 1
    rep = verify_lemma(args.claim, {a: vars(args)[a] for a in names}, limits)
    if args.format == "json":
        print(json.dumps(rep.to_json_dict(), sort_keys=True))
    else:
        inv = " ".join(f"{k}={v}" for k, v in rep.invariants.items())
        pstr = ",".join(f"{k}={v}" for k, v in rep.params.items())
        print(f"{rep.claim}({pstr}): {inv} -> {rep.verdict}")
    return 0 if rep.verdict == "consistent" else 1


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        limits = Limits(tl_ops=args.tl_ops)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args, limits)
    except TTKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (say `ttk census pp | head`): stop
        # quietly, and point stdout at devnull so that the flush at exit
        # does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
