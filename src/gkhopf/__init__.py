"""Exact symbolic computation in a family of pointed Hopf algebra domains.

The package constructs the Laurent-times-skew families K / B, the quantum
Laurent plane A(n, q) and the differential-operator family C(n); certifies
their ordered-monomial bases through rewriting; computes coproducts,
counits, antipodes and skew primitive spaces exactly over cyclotomic
scalars; and implements the decidable classification criteria on the
parameters (domain, Ext-vanishing, isomorphism, finite global dimension,
the rank-2 diagonal braiding case tables and the subalgebra hypotheses).
"""

from .classify import IsoWitness, a_family_iso, ext_vanishes, gldim_finite, invariant_set, is_domain, iso_test
from .heckenberger import (BraidingMatrix, DiagonalDatum, NicholsVerdict, lemma41_case,
                           omega_checks, prop42_case, remark43_finite, supplementary_type)
from .hopfops import (AxiomReport, PrimitiveSpaceReport, SkewPrimitiveRecord, TensorPoly,
                      ZeroDivisorReport, antipode, check_hopf_axioms, coproduct, counit,
                      ext1_dimension, find_zero_divisors, primitive_weight_scan,
                      skew_primitives, tensor_of, weight_commutator)
from .ncpoly import (Ambiguity, ConfluenceReport, NCPoly, NFMonomial, RewriteSystem, Rule,
                     certify_confluence, enumerate_ambiguities, multiply, normal_form, power)
from .presentations import (AParams, BFormResult, BParams, BuiltPresentation, CParams,
                            HopfPresentation, KParams, ValidationReport, build, to_b_form,
                            validate)
from .scalars import (Cyclo, RootOfUnity, is_primitive_pth_root, make_root,
                      nth_root_in_cyclotomics, order_of, qbinom)

__version__ = "0.1.0"
