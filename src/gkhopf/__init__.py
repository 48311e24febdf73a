"""Exact symbolic computation in a family of pointed Hopf algebra domains.

The package constructs the Laurent-times-skew families K / B, the quantum
Laurent plane A(n, q) and the differential-operator family C(n); certifies
their ordered-monomial bases through rewriting; computes coproducts,
counits, antipodes and skew primitive spaces exactly over cyclotomic
scalars; and implements the decidable classification criteria on the
parameters (domain, Ext-vanishing, isomorphism, finite global dimension,
the rank-2 diagonal braiding case tables and the subalgebra hypotheses).
"""

import importlib

_HOME = {
    "classify": "IsoWitness a_family_iso ext_vanishes gldim_finite invariant_set is_domain iso_test",
    "heckenberger": "BraidingMatrix DiagonalDatum NicholsVerdict lemma41_case omega_checks prop42_case"
                    " remark43_finite supplementary_type",
    "hopfops": "AxiomReport PrimitiveSpaceReport SkewPrimitiveRecord TensorPoly ZeroDivisorReport antipode"
               " check_hopf_axioms coproduct counit ext1_dimension find_zero_divisors primitive_weight_scan"
               " skew_primitives tensor_of weight_commutator",
    "ncpoly": "Ambiguity ConfluenceReport NCPoly NFMonomial RewriteSystem Rule certify_confluence"
              " enumerate_ambiguities multiply normal_form power",
    "presentations": "AParams BFormResult BParams BuiltPresentation CParams HopfPresentation KParams"
                     " ValidationReport build to_b_form validate",
    "scalars": "Cyclo RootOfUnity is_primitive_pth_root make_root nth_root_in_cyclotomics order_of qbinom",
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(__getattr__(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
