"""Exact Lyndon-word calculus on free braided algebras.

Lyndon/super-word combinatorics, bracket bases of braided tensor algebras,
braided coproduct and antipode, Nichols and presented graded quotients,
PBW generator extraction, and Hilbert-series factorization checks.
"""

from .words import (Word, SuperWord, is_lyndon, cfl_factorize, shirshov,
                    enumerate_lyndon, compare_superwords, concat,
                    monotonic_superwords, parse_word, format_word)
from .scalars import (PrimeField, RationalField, field_from_json, is_prime,
                      primitive_root, next_prime_with)
from .series import PowerSeries, IdentityReport, lyndon_identity_check
from .freealg import (BraidedSpace, BraidingReport, TensorElement,
                      TensorSquareElement, BracketLetter, validate_braiding,
                      braid_apply, bracket, bracket_word, bracket_element,
                      leading_vector, expand_monotonic_basis, coproduct,
                      counit, antipode, space_from_json, space_from_preset,
                      build_space)
from .nichols import (GradedQuotient, GradedData, MatrixCapExceeded,
                      BadPrimeError, symmetrizer, PBWData, PBWGenerator,
                      pbw_data, pbw_series, SubquotientSeries,
                      subquotient_series, FactorizationReport,
                      verify_factorization, NonnegReport,
                      nonneg_quotient_check, run_guarded)

__version__ = "1.0.0"
