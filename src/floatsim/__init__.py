"""floatsim: floating-content simulation and strategy planning on road grids."""

from .roadnet import (
    Link, RoadGrid, RasterEmbedding, build_manhattan, link_of, raster_embed,
    grid_to_json, grid_from_json,
)
from .mobility import (
    ContactEvent, ContactTable, MobilityFeatures, NodeTrack, SpeedModel, TrajectorySet,
    detect_contacts, load_traces, mobility_features, simulate_manhattan, KMH,
)
from .fcsim import (
    ChannelModel, SimContext, SimOutcome, capacity, run_fc, success_ratio,
    UndefinedRatioError,
)
from .scheme import (
    CostWeights, FcScheme, ServiceRequest, all_on, all_zero, is_feasible,
    safe_ratio, scheme_cost, zoi_alpha,
)
from .dataset import (
    CommFeatures, Normalizer, TrainingPair, build_dataset,
    feasibility_labels, fit_normalizer, gen_random_schemes, load_dataset,
    save_dataset,
)
from .plan import (
    AnchorZoneResult, PlannerOptions, PlanResult, ProblemInfeasibleError, Verification,
    bootstrap, circular_az_baseline, circular_scheme, full_infrastructure_baseline,
    replan, verify,
)
from . import learn

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
