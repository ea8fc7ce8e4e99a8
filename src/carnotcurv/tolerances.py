"""Every threshold that decides pass/fail, zero, pole, unit speed, drift or
agreement, each named once.

Exact inputs never meet these: an exact value is zero only when it is 0.
Algorithm parameters (step sizes, fit grids, probe offsets, iteration caps)
and the convergence constants of the special functions are not thresholds
of this kind; they stay next to the code that uses them.
"""

# -- pole, zero, unit speed and strata --------------------------------------
# a float pole coordinate (h1 Goursat, h3 Cartan) strictly below this is a
# pole of R11, where the geodesic stops being equiregular
POLE_TOL = 1e-8
# a float pole coordinate, or h1 h4 + h2 h5, at most this large is zero in
# the growth-vector criteria and at both ends of the loss-time scan
ZERO_TOL = 1e-9
# |2H - 1| at most this is a unit-speed covector
UNIT_SPEED_TOL = 1e-9
# pendulum strata: a distance to a boundary (|E -+ alpha|, alpha, |c|) at
# most this is on it; the pendulum abnormality test uses the same width
STRATUM_TOL = 1e-10

# -- conservation drift -------------------------------------------------------
# H drift bound of geodesics and of the Jacobi-curve fit
DRIFT_TOL = 1e-8
# H drift bound of flows that feed only a rank, sign or pull-back check
SCAN_DRIFT_TOL = 1e-6

# -- rank oracle ----------------------------------------------------------------
# singular values at most this times the largest are dropped; the closed-form
# classification it is compared with uses the same zero width
RANK_TOL = 1e-8
# a kept/dropped singular-value ratio below this is RankUnstable
RANK_GAP_RATIO = 1e2
# a dropped singular value above this times the largest is RankUnstable
RANK_NOISE_CEIL = 1e-10
# bracket fields whose canonical norm is at most this are left out of the rank
RANK_NORM_FLOOR = 1e-13

# -- loss-of-equiregularity times ---------------------------------------------
# scan and elliptic closed form agree on each loss time to within this, and
# a closed-form zero this close to 0 or T is the scan's end zero
LOSS_TIME_TOL = 1e-6
# scan zeros closer than this are one zero
LOSS_TIME_MERGE = 1e-9
# closed-form zero times this far outside [0, T] still count (clamped)
ZERO_TIME_WINDOW = 1e-12

# -- oracle checks ------------------------------------------------------------------
# sigma(E^(n_a), E^(n_a-1)) = 1 at a float covector
NORM_TOL = 1e-10
# a Darboux pairing of the canonical frame at a float covector
PAIRING_TOL = 1e-10
# graph-map solves of the Laurent fit with a larger condition number are dropped
FIT_COND_MAX = 1e12
# end-point residual of Newton shooting
SHOOT_TOL = 1e-10
# the projected frame directions of the cost probe are unit to within this
PROBE_UNIT_TOL = 1e-8
# relative disagreement of probe entries at steps h and h/2 that is StepUnbalanced
PROBE_BALANCE_TOL = 0.05

# -- verification suites (relative) ----------------------------------------------
# leading Laurent coefficients -n_a^2, -n_b^2
FIT_LEAD_TOL = 1e-6
# linear Laurent coefficient Omega R11
FIT_LIN_TOL = 1e-3
# absolute: the fitted entries with a b index (the linear b coefficient, and
# the a-b entries of t S_flat^-1 on the grid) are 0 in theory; measured at
# most 2.2e-12 and 6.0e-11 over 80 covectors of each fit group
FIT_B_ZERO_TOL = 1e-8
# cost-Hessian diagonal against n^2 / t^2
PROBE_REL_TOL = 0.05
