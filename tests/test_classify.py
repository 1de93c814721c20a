import pytest

from ttklib.braids import TTKParams
from ttklib.classify import (Triple, all_triples, census_rows,
                             is_p_hyperseifert, is_pp, is_primitive_Hprime,
                             middle_seifert_beta, normalized_triple,
                             pp_census, pp_families, ps_census, ps_families,
                             ps_flag_shape)
from ttklib.errors import DomainError


def test_triple_validation_and_normalization():
    assert normalized_triple(3, 5, 4) == Triple(5, 3, 4)
    assert normalized_triple(6, 3, 5) is None      # gcd
    assert normalized_triple(5, 3, 9) is None      # r > p+q
    assert normalized_triple(5, 1, 3) is None      # q < 2
    with pytest.raises(DomainError):
        Triple(3, 5, 4)


def test_is_pp_examples():
    assert is_pp(Triple(4, 3, 5))
    assert is_pp(Triple(5, 3, 4))
    assert not is_pp(Triple(5, 3, 6))


def test_is_pp_swap_invariance():
    for (p, q, r) in [(5, 3, 4), (7, 2, 5), (7, 3, 8), (9, 4, 5)]:
        a = normalized_triple(p, q, r)
        b = normalized_triple(q, p, r)
        assert is_pp(a) == is_pp(b)


def test_pp_family_witnesses():
    fams = pp_families(12)
    m435 = {(m.family_index, tuple(sorted(m.witness.items())))
            for m in fams[Triple(4, 3, 5)]}
    assert (4, (("eps", -1), ("j", 1))) in m435
    m534 = {(m.family_index, tuple(sorted(m.witness.items())))
            for m in fams[Triple(5, 3, 4)]}
    assert (5, (("eps", 1), ("j", 1), ("k", 1))) in m534
    # the excluded corner of family 5
    for matches in fams.values():
        for m in matches:
            if m.family_index == 5:
                assert (m.witness["j"], m.witness["k"], m.witness["eps"]) != (1, 1, -1)


def test_pp_census_bounds():
    rep = pp_census(20)
    assert rep.ok and not rep.missing and not rep.extra
    rep = pp_census(60)
    assert rep.ok
    assert rep.summary() == "pp: 0 missing, 0 extra"


def test_census_rows_floor_is_the_ps_families():
    # the pp report answers below 5; the rows carry the ps families
    assert pp_census(4).ok
    with pytest.raises(DomainError, match="census rows carry the ps families"):
        next(census_rows(4))


def test_census_contains_proof_triples():
    fams = pp_families(60)
    assert Triple(4, 3, 5) in fams
    assert Triple(5, 3, 7) in fams
    assert is_pp(Triple(4, 3, 5)) and is_pp(Triple(5, 3, 7))
    # gcd-3 triple never enters the census space
    assert all(not (t.p == 6 and t.q == 3) for t in all_triples(10))


def test_pp_families_3_to_5_avoid_horadam_r():
    # in raw formula coordinates (before the p/q swap normalization),
    # families 3-5 never produce r = p + q or r = p - q
    from ttklib.classify import pp_family_formula
    fams = pp_families(60)
    for t, matches in fams.items():
        for m in matches:
            p, q, r = pp_family_formula(m.family_index, m.witness)
            assert normalized_triple(p, q, r) == t, (t, m)
            if m.family_index >= 3:
                assert r != p + q and r != p - q, (t, m)


def test_hprime_and_beta_examples():
    assert middle_seifert_beta(Triple(7, 3, 8)) == 2
    assert middle_seifert_beta(Triple(4, 3, 5)) is None
    assert middle_seifert_beta(Triple(11, 2, 7)) == 2
    assert is_primitive_Hprime(Triple(7, 3, 8))
    assert is_primitive_Hprime(Triple(7, 2, 3))


def test_ps_family_examples():
    fams = ps_families(12)
    by_triple = {t: {(m.family_index, tuple(sorted(m.witness.items())))
                     for m in ms} for t, ms in fams.items()}
    assert (1, (("k", 2), ("p", 7), ("q", 2))) in by_triple[Triple(7, 2, 3)]
    assert (2, (("i", 1), ("p", 7))) in by_triple[Triple(7, 3, 8)]
    assert (3, (("eps", 1), ("i", 2), ("j", 1))) in by_triple[Triple(8, 3, 10)]


def test_ps_census_flag_shapes():
    rep = ps_census(60)
    assert rep.ok
    assert not rep.missing
    shapes = {shape for _, _, shape in rep.flagged}
    assert shapes == {"family2-p<7", "family3-i=1"}
    flagged_triples = {t for t, _, _ in rep.flagged}
    assert Triple(4, 3, 5) in flagged_triples
    assert Triple(5, 3, 7) in flagged_triples


def test_ps_flag_shape_classification():
    fams = ps_families(20)
    t = Triple(4, 3, 5)
    m2 = [m for m in fams[t] if m.family_index == 2][0]
    assert ps_flag_shape(t, m2) == "family2-p<7"
    m3 = [m for m in fams[Triple(5, 3, 7)] if m.family_index == 3][0]
    assert ps_flag_shape(Triple(5, 3, 7), m3) == "family3-i=1"


def test_is_p_hyperseifert_examples():
    assert is_p_hyperseifert(TTKParams(p=5, q=3, r=4, twist_n=1, cable_m=2))
    assert not is_p_hyperseifert(TTKParams(p=5, q=3, r=4, twist_n=1, cable_m=1))
    assert not is_p_hyperseifert(TTKParams(p=5, q=3, r=6, twist_n=1, cable_m=3))


def test_census_rows_schema_and_order():
    rows = list(census_rows(8))
    assert rows == sorted(rows, key=lambda r: (r["p"], r["q"], r["r"]))
    row = next(r for r in rows if (r["p"], r["q"], r["r"]) == (4, 3, 5))
    assert row["pp"] is True
    assert row["ps"] is False and row["ps_beta"] is None
    assert any(f.startswith("predicate-invalid") for f in row["flags"])
    assert {"p", "q", "r", "pp", "pp_families", "ps", "ps_beta",
            "ps_families", "flags"} == set(row)


# ----------------------------------------------------------------------
# Oracles: the predicates and the census walk as they were written
# before the per-pair tables, one triple at a time.
# ----------------------------------------------------------------------

def _oracle_is_pp(t):
    rp = t.r % t.p
    rq = t.r % t.q
    ok_p = rp in {1 % t.p, (-1) % t.p, t.q % t.p, (-t.q) % t.p}
    ok_q = rq in {1 % t.q, (-1) % t.q, t.p % t.q, (-t.p) % t.q}
    return ok_p and ok_q


def _oracle_is_primitive_Hprime(t):
    rq = t.r % t.q
    return rq in {1 % t.q, (-1) % t.q, t.p % t.q, (-t.p) % t.q}


def _oracle_middle_seifert_beta(t):
    rp = t.r % t.p
    beta = 2
    while beta * t.q < t.p:
        bq = beta * t.q % t.p
        if rp == bq or rp == (-bq) % t.p:
            return beta
        beta += 1
    return None


def _oracle_census(kind, bound):
    fam = pp_families(bound) if kind == "pp" else ps_families(bound)
    missing, extra, flagged = [], [], []
    for t in all_triples(bound):
        matches = fam.get(t, [])
        if kind == "pp":
            pp = _oracle_is_pp(t)
            if pp != bool(matches):
                (missing if pp else extra).append(t)
            continue
        ps = (_oracle_middle_seifert_beta(t) is not None
              and _oracle_is_primitive_Hprime(t))
        if ps and not matches:
            missing.append(t)
        if not ps:
            flagged += [(t, m, ps_flag_shape(t, m)) for m in matches]
    return missing, extra, flagged


def test_predicates_equal_oracle_up_to_40():
    triples = all_triples(40)
    assert len(triples) == 18357
    for t in triples:
        assert is_pp(t) == _oracle_is_pp(t), t
        assert is_primitive_Hprime(t) == _oracle_is_primitive_Hprime(t), t
        assert middle_seifert_beta(t) == _oracle_middle_seifert_beta(t), t


def test_census_rows_equal_oracle_predicates_up_to_40():
    for row, t in zip(census_rows(40), all_triples(40), strict=True):
        assert (row["p"], row["q"], row["r"]) == (t.p, t.q, t.r)
        beta = _oracle_middle_seifert_beta(t)
        assert row["pp"] is _oracle_is_pp(t), t
        assert row["ps_beta"] == beta, t
        assert row["ps"] is (beta is not None and _oracle_is_primitive_Hprime(t)), t


@pytest.mark.parametrize("kind", ["pp", "ps"])
def test_census_reports_equal_oracle_at_60(kind):
    rep = pp_census(60) if kind == "pp" else ps_census(60)
    missing, extra, flagged = _oracle_census(kind, 60)
    assert rep.missing == missing
    assert rep.extra == extra
    assert rep.flagged == flagged
    assert len(rep.flagged) == (40 if kind == "ps" else 0)
