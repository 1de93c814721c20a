"""Twisted torus knots with recursively defined parameters: braid
constructions, exact knot-polynomial invariants, Horadam sequence
machinery, and closed-form classification censuses."""

from .braids import (BraidWord, TTKParams, braid_for, pass_under_block,
                     torus_braid)
from .classify import (CensusReport, FamilyMatch, Triple, all_triples,
                       census_rows, is_p_hyperseifert, is_pp,
                       is_primitive_Hprime, middle_seifert_beta,
                       normalized_triple, pp_census, pp_families, ps_census,
                       ps_families, ps_flag_shape)
from .errors import BudgetError, DomainError, NotAKnotError, TTKError
from .horadam import (Embedding, EuclidTrace, HoradamSpec, SlopeValue,
                      check_slope_relations, closed_form_term,
                      embed_in_unit_sequence, euclid_trace, fibonacci,
                      horadam_term, invariant_s, is_maximal_pair, slope_s,
                      slope_t, slope_values)
from .invariants import (InvariantReport, alexander, equal_up_to_mirror,
                         invariant_report, jones, kauffman_bracket,
                         knot_determinant, tl_bracket, torus_alexander,
                         torus_jones)
from .knots import (CorollaryReport, HoradamTTK, Limits, TorusMatch,
                    VerificationReport, corollary_maximal_pair_check,
                    lee_torus_neg_kq, lee_torus_pos, lee_torus_qsmall,
                    resolve, surface_slope, type1_reduce, verify_corollary,
                    verify_lemma, verify_lemma7, verify_lemma8, verify_lemma9,
                    verify_prop12_1)
from .laurent import Laurent

__version__ = "0.1.0"
