"""Exact cluster mutation with a Frobenius-splitting calculus.

Everything here is computed over exact coefficient fields (the rationals,
or a prime field GF(p)); there is no floating point anywhere.  The
package centers on three layers:

* sparse Laurent polynomials and fractions (`LaurentPoly`,
  `RationalExpr`) with exact division,
* quivers and seeds with matrix/variable mutation (`Quiver`, `Seed`,
  `explore`, `express_in_cluster`),
* p-th root maps in prime characteristic (`standard_split`,
  `SplittingMap`, `freg_witness_sink`) plus the Markov-family showcase
  and the lower-bound splitting machinery.

All of them run on the pure-Python term-map kernels in `kernels`.
"""

from . import budgets, corpus, kernels
from .certificate import Certificate
from .errors import (BadCharacteristicError, BudgetExceededError,
                     ClusterFrobError, FieldMismatchError,
                     LaurentViolationError, MutationAtFrozenError,
                     NoMutableVertexError, NotAcyclicError,
                     NotDivisibleError, NotLaurentError, QuiverFormatError,
                     VerificationFailedError)
from .fields import GF, QQ, PrimeField, RationalField, is_prime
from .frobenius import (InvarianceReport, SinkWitness, SplittingMap,
                        freg_witness_sink, hom_generator, split_apply,
                        splitting_invariance_check, standard_split)
from .laurent import LaurentPoly, RationalExpr, parse_laurent
from .lowerbound import (CompatReport, LowerBoundPresentation, compat_check,
                         degree_bounded_monomials,
                         localization_identity_check, lower_bound_generators,
                         psi_f_apply, verify_lb_splitting)
from .quiver import Quiver, load_quiver_text, quiver_from_dict
from .seed import (ExploreResult, MembershipVerdict, Seed,
                   cluster_substitution, explore, express_in_cluster,
                   express_rational, initial_seed, upper_membership_sample)
from .showcase import (Grading, MarkovCertificate, ObstructionReport,
                       graded_obstruction_check, markov_M,
                       markov_freg_certificate, markov_quiver, markov_seed)
from .volform import mutation_path_sign, volume_form_mutation_sign

__version__ = "0.1.0"

__all__ = [
    "BadCharacteristicError", "BudgetExceededError", "Certificate",
    "ClusterFrobError", "CompatReport", "ExploreResult",
    "FieldMismatchError", "GF", "Grading", "InvarianceReport",
    "LaurentPoly", "LaurentViolationError",
    "LowerBoundPresentation", "MarkovCertificate", "MembershipVerdict",
    "MutationAtFrozenError", "NoMutableVertexError", "NotAcyclicError",
    "NotDivisibleError", "NotLaurentError", "ObstructionReport",
    "PrimeField", "QQ", "Quiver", "QuiverFormatError", "RationalExpr",
    "RationalField", "Seed", "SinkWitness", "SplittingMap",
    "VerificationFailedError", "budgets",
    "cluster_substitution", "compat_check", "corpus",
    "degree_bounded_monomials", "explore", "express_in_cluster",
    "express_rational", "freg_witness_sink", "graded_obstruction_check",
    "hom_generator", "initial_seed", "is_prime", "kernels",
    "load_quiver_text",
    "localization_identity_check", "lower_bound_generators", "markov_M",
    "markov_freg_certificate", "markov_quiver", "markov_seed",
    "mutation_path_sign", "parse_laurent", "psi_f_apply",
    "quiver_from_dict", "split_apply", "splitting_invariance_check",
    "standard_split", "upper_membership_sample", "verify_lb_splitting",
    "volume_form_mutation_sign",
]
