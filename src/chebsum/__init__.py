"""Exact closed forms for multivariate Chebyshev generating sums.

The package builds the common denominator polynomials w_n, the numerators of
the mixed first/second-kind generating functions, the correlation-matrix
lattice sums f_T/f_U, and their q-deformed relatives, all over exact
rational arithmetic, and verifies every closed form against independent
brute-force series oracles.
"""

from .cheb import ChebIndex, cheb_eval, cheb_poly, geom_trig_sum, multi_trig_sum
from .denom import WPoly, build_w, build_w_recursive, w_specialize_one
from .errors import (ArityError, ChebsumError, ConvergenceError, DegeneratePivot,
                     DomainError, ExponentError, MarkerError, MissingAssignment,
                     ScaleError, SingularAngle, UnknownId)
from .forms import compare_form, registry_ids, transcribed_form
from .genfun import (GenSpec, chi_angle_eval, chi_closed_value, chi_series_oracle_grid,
                     marginal_check, numerator_l, series_convolution_residual)
from .kibble import (CorrMatrix, f_U3_closed, f_U3_compare, kibble_closed_eval,
                     kibble_denominator, kibble_series_oracle)
from .poly import Poly
from .qseries import (QContext, conjecture_probe, d2_coeff, d_coeff, hb_poly,
                      idb_check, tn_construct)

__all__ = [
    "ChebIndex", "cheb_eval", "cheb_poly", "geom_trig_sum",
    "multi_trig_sum", "WPoly", "build_w", "build_w_recursive", "w_specialize_one",
    "compare_form", "registry_ids", "transcribed_form", "GenSpec", "chi_angle_eval",
    "chi_closed_value", "chi_series_oracle_grid", "marginal_check", "numerator_l",
    "series_convolution_residual", "CorrMatrix", "f_U3_closed", "f_U3_compare",
    "kibble_closed_eval", "kibble_denominator", "kibble_series_oracle", "Poly",
    "QContext", "conjecture_probe", "d2_coeff", "d_coeff", "hb_poly", "idb_check",
    "tn_construct", "ChebsumError", "ArityError", "ConvergenceError", "DegeneratePivot",
    "DomainError", "ExponentError", "MarkerError", "MissingAssignment", "ScaleError",
    "SingularAngle", "UnknownId",
]
