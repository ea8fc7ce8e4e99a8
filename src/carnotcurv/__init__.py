"""Curvature invariants of rank-two Carnot groups.

Exact and numerical machinery for the Goursat family J^n (n >= 3, including
the Heisenberg and Engel groups) and the Cartan group: polynomial frame
models, an exact bracket calculus on T*R^n, the normal Hamiltonian flow with
variational equations, pendulum strata and Jacobi elliptic closed forms,
growth-vector/regularity analysis, the closed-form curvature invariants, and
independent verification oracles (exact canonical-frame brackets, Jacobi-curve
Laurent fitting, and a boundary-value cost probe).
"""

from .errors import (CarnotError, DegreeOverflow, DimensionMismatch,
                     IllConditioned, IndexOutOfRange, LemmaConditionFailed,
                     LossTimeMismatch, ModulusOutOfRange, NotAmple,
                     NotAmpleEquiregular, NotUnitSpeed, RankUnstable,
                     RealizationMismatch, ShootingDiverged, SingularCovector,
                     SingularFrame, StepTooLarge, StepUnbalanced,
                     UnsupportedGroup, WrongStratum)
from .groups import (Covector, GroupModel, build_group, cartan_h_from_chart,
                     engel_h_from_chart, fiber_transform, parse_group_spec)
from .symfields import Poly, Rat, RatVecField, sigma_pair, sigma_pair_fields
from .frames import frame_fields, h_frame, verify_bracket_identities
from .hamiltonian import Trajectory, conserved_quantities, integrate_flow
from .elliptic import (PendulumChart, classify_pendulum, complete_K,
                       elliptic_coords, jacobi_sn_cn_dn, pendulum_closed_form)
from .regularity import (GrowthReport, equiregularity_loss_times,
                         growth_report, growth_vector_closed_form,
                         growth_vector_rank_oracle)
from .curvature import (CurvatureReport, coeff_A, coeff_A_sums,
                        curvature_operator, energy_bound, omega, r11,
                        r11_cartan, r11_goursat)
from .oracle import (aij_coefficients, canonical_E_top, cost_hessian_probe,
                     frame_darboux_check, higher_diagonal_invariants,
                     r11_exact, sflat_fit)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
