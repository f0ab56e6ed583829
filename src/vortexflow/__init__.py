"""Traveling vortex-pair and vortex-ring solitons for sphere-valued
geometric flows: construction, solving, and verification."""

from .ansatz import (ModelParams, Regime, build_ansatz, build_pair, build_ring,
                     build_ring_phase, error_field, factor_axisym_laplacian,
                     kernel_Zd, vortex_geometry)
from .diagnostics import (DiagnosticsReport, build_report, corrector_norms,
                          detect_vortices, energy_charge, winding_number)
from .fields import (ComplexField, GridSpec, ScalarField, Symmetry, diff_ops,
                     discrete_norms, reflect_full)
from .profile import (VortexProfile, eval_profile, ode_residual,
                      profile_integrals, solve_profile)
from .reconstruct import SpacetimeSample, pde_residual, spacetime_field, unscale
from .reduction import ReducedCurve, leading_c, numeric_c_curve, predict_d
from .solver import (SolveResult, apply_S, build_case, linearize_apply,
                     solve_at_separation, solve_balanced, solve_projected)
from .stereo import SpherePoint, nonlinearity_F, project, unproject

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
