"""torusgibbs: Gibbs ensembles and measure concentration for truncations of
the periodic NLS, KdV, Zakharov and Gross-Pitaevskii equations."""

__version__ = "0.1.0"

from .spectral import FourierField, Lattice, lp_integral, sobolev_norm
from .hamiltonians import (KdV, NLS, GrossPitaevskii, GrossPitaevskiiProjected,
                           HessianProbe, Zakharov, ZakharovState, convexity_margin,
                           energy, lsi_constant_predicted, number_operator)
from .sampling import (ChainConfig, GaussianReference, PhaseDomain,
                       SampleEnsemble, decay_domain_mass, decay_domain_mass_grid,
                       normalizability_probe, run_pcn_chain, tail_mass_estimate)
from .flows import (DuhamelResult, FlowConfig, Trajectory, evolve, flow_step,
                    gp_fixed_point, invariance_test)
from .concentration import (IncrementSeries, MetricSpec, TestFunctional,
                            entropy_of_functional, exp_square_moment,
                            lsi_gap_report, multiplicative_increments)
from .transport import (CostSpec, EmpiricalMeasure, TransportPlan,
                        gaussian_tail_bound, relative_entropy_levels,
                        relative_entropy_truncation, sinkhorn, truncation_coupling_bound,
                        wasserstein_exact)
