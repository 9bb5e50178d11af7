"""Every numerical tolerance of the package, each with its reason.

All are absolute.  Inputs are probabilities, so entries lie in [0, 1]
and an absolute tolerance is a fixed fraction of the scale.
"""

# an input pmf or channel column may miss sum 1 by rounding in the file
# that held it; farther off it is rejected, closer it is renormalised
PROB_ATOL = 1e-9

# a P_{X|Y} row whose entries span no more than this is constant on the
# simplex, so its form vanishes there and would only double the regions
ZERO_FORM_TOL = 1e-10
# forms are rows of a stochastic matrix, so entries lie in [0, 1]; this
# only absorbs the rounding of rescaling one such row onto another
DIRECTION_TOL = 1e-12
# a point whose smallest region slack is above -MEMBERSHIP_TOL is inside;
# p_Y, every region's certificate, has slack 0 up to rounding
MEMBERSHIP_TOL = 1e-9
# singular-value cut-off of a candidate basis; the augmented systems hold
# probability rows, slack unit columns and a row of ones
RANK_TOL = 1e-10
# a basic solution entry above -DEDUP_TOL is nonnegative, and two vertices
# within DEDUP_TOL in max-abs distance are one vertex: solve rounding is
# far below it, distinct vertices at desk scale far above
DEDUP_TOL = 1e-9

# the simplex treats reduced costs, pivot entries and ratio ties smaller
# than this as zero, so rounding cannot choose a pivot
PIVOT_TOL = 1e-10
# phase one declares infeasible when the artificials keep more mass than
# this at its optimum
FEAS_TOL = 1e-9

# an LP weight above this is a release symbol; below it is pivot rounding
SUPPORT_TOL = 1e-9
# I(X;Y) at or below this counts as X independent of Y, where the
# mutual-information chord bound would divide by zero
INDEPENDENCE_TOL = 1e-12

# post-processing and linkage inequalities of T are checked to this slack,
# the rounding of two sums of at most a few dozen probability products
CHAIN_TOL = 1e-9
# verify suites: leakage, 4LT and LP duality bounds hold to this slack;
# they pass through logarithms and a solve, so it is looser than CHAIN_TOL
BOUND_TOL = 1e-8
# the log-loss inference gain equals I(X;U) to this absolute gap
IDENTITY_TOL = 1e-9
