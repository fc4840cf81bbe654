"""Smoothness-increasing, accuracy-conserving post-processing for 1D DG.

Builds symmetric and position-dependent boundary spline filters over
exact rational arithmetic, applies them to the output of the built-in
discontinuous-Galerkin advection solver, and measures boundary errors
and superconvergence rates.
"""

from .errors import UsageError
from .exact import RatMatrix, RatPoly, invert_exact, rat, solve_exact
from .filters import (FilterSpec, build_spec, custom_spec, reproduction_matrix,
                      shifted_coefficient_polynomials, static_coefficients)
from .spline import bspline_moment, unit_bspline_piecewise
from .dg import DGField, Mesh, dg_solve, get_problem, l2_project, to_bernstein
from .psiac import (MonomialPieces, filter_boundary, q_matrix, reference_convolve, sample,
                    symmetric_filter_eval)
from .harness import (Record, RunConfig, convergence_rate, region_norms,
                      time_series_experiment, write_csv)

__version__ = "0.1.0"
