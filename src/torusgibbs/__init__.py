"""torusgibbs: Gibbs ensembles and measure concentration for truncations of
the periodic NLS, KdV, Zakharov and Gross-Pitaevskii equations."""

__version__ = "0.1.0"

from .spectral import (FourierField, Lattice, ProjectionSpec, lp_integral, project,
                       sobolev_norm)
from .hamiltonians import (KdV, NLS, GrossPitaevskii, GrossPitaevskiiProjected,
                           HessianProbe, Zakharov, ZakharovState,
                           block_convexity_probe, convexity_margin, energy,
                           gradient, hessian_quadratic_form,
                           lsi_constant_predicted, nls_convexity_identity,
                           number_operator)
from .sampling import (ChainConfig, GaussianReference, PhaseDomain,
                       SampleEnsemble, decay_domain_mass, normalizability_probe,
                       partition_estimate, run_pcn_chain, tail_mass_estimate)
from .flows import (DuhamelResult, FlowConfig, Trajectory, duhamel_phi, evolve,
                    flow_step, gp_fixed_point, invariance_test)
from .concentration import (IncrementSeries, MetricSpec, TestFunctional,
                            dirichlet_energy, entropy_of_functional,
                            exp_square_moment, lipschitz_concentration,
                            lsi_gap_report, multiplicative_increments)
from .transport import (CostSpec, EmpiricalMeasure, TransportPlan,
                        gaussian_tail_bound, relative_entropy_truncation,
                        sinkhorn, transport_inequality_check,
                        truncation_coupling_bound, wasserstein_exact)
