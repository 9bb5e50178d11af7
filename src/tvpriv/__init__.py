"""tvpriv: exact utility-privacy trade-offs for finite-alphabet data
release, with average total-variation distance as the privacy measure.

All information quantities are in bits (log base 2).
"""

from .leakage import (LeakageReport, MarkovChain, SlackResult,
                      avg_pnorm_leakage, avg_tv_leakage, bounds_from_tv,
                      is_linkage_consistent, is_postprocessing_consistent,
                      leakage_report, lp_linkage_slack, max_info_leakage,
                      maximal_leakage, mutual_information, tv_distance)
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, LpSolution
from .lp import feasible as lp_feasible
from .lp import solve as lp_solve
from .probability import (Channel, DimensionMismatch, JointSource, Mechanism,
                          NegativeEntry, Pmf, SumNotOne, ZeroMassSymbol,
                          bayes_invert, compose, entropy)
from .regions import (LinearForm, Region, SPointSet, TooManyForms,
                      build_linear_forms, enumerate_regions,
                      enumerate_spoints, f_value, region_extreme_points)
from .threats import (CostFunction, CostKind, EmptyMenu, ThreatReport,
                      inference_gain, optimal_belief)
from .tradeoff import (EmptySupport, MissingYValues, NotBinary,
                       TradeoffPoint, TradeoffSolution, UtilityKind,
                       mechanism_from_weights, mi_binary, mi_tradeoff_bounds,
                       mmse_binary, perr_binary, solve_tradeoff, sweep_curve,
                       t_xy)

__version__ = "0.1.0"
