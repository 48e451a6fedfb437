"""loclab: a verification lab for localizations of discrete model structures.

Finite categories are stored as explicit composition tables; reflective
subcategories, Bousfield (co)localizations, idempotent monads, homotopy
categories, the module-category tensor criterion, and K_0 presentations are
all computed and certified by exhaustive search.
"""

from .fincat import (CategoryError, FinCat, FunctorData, NatTransData,
                     is_finitely_bicomplete, iso_classes, limit_search, opposite,
                     validate_category)
from .ktheory import (K0Presentation, WaldhausenData, build_truncated_ab_category,
                      cofiber, k0_group, k0_presentation, waldhausen_from_fincat,
                      waldhausen_truncated)
from .lifting import MorphismClass, is_finitely_well_complete, llp_class, rlp_class
from .modelstruct import (ModelStructure, bijection_suite, colocalizations_via_op,
                          enumerate_localizations, fibrant_replacement_functor,
                          homotopy_category, homotopy_relations,
                          localization_from_reflector,
                          maps_between_fibrants_are_fibrations, verify_model_axioms)
from .monadkit import (MonadData, is_idempotent, monad_from_reflector,
                       monad_morphism_exists, naturally_equivalent,
                       reflector_from_monad, verify_monad)
from .reflect import (Reflector, enumerate_replete_reflective, find_reflector,
                      inverted_class, is_replete)
from .ringmod import (AbPresentation, FiniteRing, RingError, RingHom,
                      localization_exists_verdict, ring_from_spec, tensor_square)
from .snf import SnfResult, cokernel_invariants, smith_normal_form

__version__ = "0.1.0"
