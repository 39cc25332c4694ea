"""asynclab: consensus of sampled-data multi-agent systems.

Exact event-driven simulation of identical LTI agents coupled through
asynchronously sampled, delayed, error-corrupted, zero-order-held signals,
plus certified maximum sampling-period/delay budgets and Riccati-based gain
design from Lyapunov stability conditions.
"""

from .bounds import (BoundQuery, BoundReport, InfeasibleError, SearchParams,
                     SetMembershipError, corollary1_budget, corollary2_budget,
                     theorem1_budget, theorem1_margin, theorem2_budget,
                     theorem3_budget, theorem4_bound_opt_beta,
                     theorem4_error_bound, theorem5_budget)
from .design import (DesignError, GainDesign, design_constants, riccati_design,
                     verify_lyapunov_family)
from .graphs import (GraphAlgebra, InteractionGraph, InvalidGraphError,
                     build_algebra, cycle_graph, is_connected, path_graph,
                     star_graph)
from .matan import DimensionError, LtiModel, SpectralConstants
from .sampling import (ChannelSchedule, ErrorModel, ScheduleError,
                       generate_schedule, log_quantize, saturation_scale,
                       validate_schedule)
from .sim import Scenario, ScenarioError, ScheduleParams, Trace, metrics, run

__version__ = "0.1.0"
