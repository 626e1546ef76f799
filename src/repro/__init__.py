"""Reproduction of "Less Pain, Most of the Gain: Incrementally Deployable
ICN" (Fayazbakhsh et al., SIGCOMM 2013).

Top-level convenience re-exports; the subpackages are:

* :mod:`repro.topology` — PoP maps and access trees,
* :mod:`repro.cache` — replacement policies and provisioning,
* :mod:`repro.workload` — Zipf workloads, CDN logs, fitting,
* :mod:`repro.core` — the caching design-space simulator,
* :mod:`repro.treeopt` — the Section 2.2 tree-placement optimizer,
* :mod:`repro.idicn` — the incrementally deployable ICN design,
* :mod:`repro.analysis` — table/figure assembly helpers.
"""

from .core import (
    BASELINE_ARCHITECTURES,
    Architecture,
    ExperimentConfig,
    ExperimentResult,
    Improvements,
    NO_CACHE,
    SimulationResult,
    Simulator,
    run_experiment,
    simulate_no_cache,
)
from .topology import AccessTree, Network, PopTopology, topology
from .workload import Workload, ZipfDistribution, generate_workload

__version__ = "1.0.0"

__all__ = [
    "AccessTree",
    "Architecture",
    "BASELINE_ARCHITECTURES",
    "ExperimentConfig",
    "ExperimentResult",
    "Improvements",
    "NO_CACHE",
    "Network",
    "PopTopology",
    "SimulationResult",
    "Simulator",
    "Workload",
    "ZipfDistribution",
    "__version__",
    "generate_workload",
    "run_experiment",
    "simulate_no_cache",
    "topology",
]
