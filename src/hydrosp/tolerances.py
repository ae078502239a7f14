"""Central numerical tolerances shared by the solver stack."""

# primal feasibility (residuals on rows and bounds)
FEASIBILITY_TOL = 1e-8
# dual feasibility / reduced-cost threshold
OPTIMALITY_TOL = 1e-7
# distance from an integer at which a value counts as integral
INTEGRALITY_TOL = 1e-6
# an inverse H of a basis matrix B is used only if B (H v) matches the
# simplex kernel's probe vector v (entries in [1, 2)) to this, absolutely:
# a start inverse when it is computed, an updated one every REFACTOR_AGE
# pivots; a numerically singular B or a drifted H fails it, and an updated
# H that fails is computed afresh
FACTOR_PROBE_TOL = 1e-6
# the largest row residual |B x_B - r|_i / (1 + |b_i|) of the basic values
# accepted at the end of a simplex phase before B^-1 is computed afresh;
# a tenth of FEASIBILITY_TOL, which the certificate applies to A x - b
BASIS_RESIDUAL_TOL = 1e-9
