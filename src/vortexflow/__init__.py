"""Traveling vortex-pair and vortex-ring solitons for sphere-valued
geometric flows: construction, solving, and verification."""

from .ansatz import (ModelParams, Regime, build_ansatz, build_case, build_pair,
                     build_ring, build_ring_phase, kernel_Zd)
from .diagnostics import (DiagnosticsReport, build_report, corrector_norms,
                          detect_vortices, energy_charge, error_field)
from .fields import ComplexField, GridSpec, ScalarField, Symmetry, diff_ops
from .profile import (VortexProfile, eval_profile, ode_residual,
                      profile_integrals, solve_profile)
from .reconstruct import pde_residual, unscale
from .reduction import leading_c, predict_d
from .solver import (SolveResult, apply_S, solve_at_separation, solve_balanced,
                     solve_projected)
from .stereo import nonlinearity_F

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
