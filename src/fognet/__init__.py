"""fognet: flow-level simulator of a rural fog-controlled access network."""

from .engine import Engine, Event, EventKind, FairShareIndex, recompute_fair_shares
from .scenario import ScenarioConfig, load_scenario, parse_scenario
from .simulation import Simulation, run_scenario
from .topology import Topology, TopologyGenParams, build_from_config, generate_clustered, validate

__version__ = "0.1.0"

__all__ = [
    "Engine",
    "Event",
    "EventKind",
    "FairShareIndex",
    "recompute_fair_shares",
    "ScenarioConfig",
    "load_scenario",
    "parse_scenario",
    "Simulation",
    "run_scenario",
    "Topology",
    "TopologyGenParams",
    "build_from_config",
    "generate_clustered",
    "validate",
    "__version__",
]
