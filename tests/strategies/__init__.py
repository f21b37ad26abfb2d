"""Hypothesis strategies for property-based tests.

Re-exports commonly used strategies for convenience::

    from tests.strategies import dpf_cases, domain_sizes, STANDARD_SETTINGS
"""

from tests.strategies.backends import BACKEND_FACTORIES
from tests.strategies.dpf import (
    DpfCase,
    alphas_for_domain,
    awkward_domain_sizes,
    batch_sizes,
    betas,
    domain_sizes,
    dpf_cases,
    fast_prf_names,
    key_ranges,
    prf_names,
    rng_seeds,
)
from tests.strategies.faults import BackendFault, FaultPlan, FlakyBackend
from tests.strategies.serving import (
    SLO_CONFIGS,
    cancel_turns,
    clock_steps,
    fault_patterns,
    picks,
    request_indices,
)
from tests.strategies.settings import (
    DETERMINISM_SETTINGS,
    STANDARD_SETTINGS,
    STATEFUL_SETTINGS,
)
from tests.strategies.tiles import TILES, tile_rules, tiled

__all__ = [
    "BACKEND_FACTORIES",
    "DETERMINISM_SETTINGS",
    "SLO_CONFIGS",
    "STANDARD_SETTINGS",
    "STATEFUL_SETTINGS",
    "TILES",
    "BackendFault",
    "DpfCase",
    "FaultPlan",
    "FlakyBackend",
    "alphas_for_domain",
    "awkward_domain_sizes",
    "batch_sizes",
    "betas",
    "cancel_turns",
    "clock_steps",
    "domain_sizes",
    "dpf_cases",
    "fast_prf_names",
    "fault_patterns",
    "key_ranges",
    "picks",
    "prf_names",
    "request_indices",
    "rng_seeds",
    "tile_rules",
    "tiled",
]
