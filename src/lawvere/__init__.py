"""Executable algebraic theories at desk scale.

Terms over finite signatures with per-theory canonical forms; theories as
categories of arities; distributive laws as verified layered-term
rewriters with composite theories; factorisation of composite morphisms
up to zigzags; finite categories, profunctors and coend composition; the
free finite-product completion on profunctor tables; and the dictionary
between theories and finitary monads, brute-force checked.
"""

from .builtin import (ABELIAN_GROUP, BASE_THEORIES, COMMUTATIVE_MONOID,
                      IDENTITY_THEORY, MONOID, POINTED, SEMIGROUP)
from .correspondence import (MonadMap, TheoryFragment,
                             composite_correspondence_check, encode_term,
                             istar_composite, monad_from_theory, phi,
                             roundtrip_check)
from .distlaw import (BUILTIN_LAWS, BUILTIN_SERIES, DistributiveLawSpec,
                      DistributiveSeries, apply_law, check_law_axioms,
                      check_layer_order, check_yang_baxter, composite_theory,
                      layered_normalize, ps_monoid_theory, ring3_series,
                      ring_theory, split_layer)
from .factorization import (FactorizationPair, ZigzagStep, ZigzagWitness,
                            canonicalize, check_fs_over_base,
                            check_strict_fs, factorize, zigzag_equivalent)
from .fincat import (FiniteCategory, FiniteFunctor, Morphism,
                     chain_category, discrete_category, iso_pair_category,
                     monoid_category)
from .fragments import (FRAGMENTS, FREE_MONOID_MONAD, FREE_RING_MONAD,
                        FREE_SEMIGROUP_MONAD, FinitaryMonadFragment,
                        IDENTITY_MONAD, POINTED_MONAD)
from .parser import ParseError, format_term, parse_term
from .pcompletion import p_category, p_on_profunctor, verify_keyprop
from .profunctor import (BimoduleMonad, FiniteProfunctor, compose_prof,
                         functor_to_monad, hom_profunctor, monad_to_functor,
                         prof_iso, representable)
from .report import AxiomReport, Report
from .sampling import Sampler
from .terms import (App, OperationSymbol, StructuralError, Term, TheorySpec,
                    Var, substitute, term_size)
from .theory import (BaseFunction, LawvereTheory, NoDiagonalsTheory,
                     TheoryMorphism, basic_morphism, check_product_structure,
                     compose, identity_morphism, morphism)

__version__ = "0.1.0"
