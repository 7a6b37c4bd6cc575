"""Differential greybox fuzzer for timing and space side channels.

A target runs twice per input, once per secret, with a shared public input
and a deterministic cost meter. Inputs that raise the cost difference or
reach new code survive into the corpus; a nonzero difference that persists
under replay indicates a side channel in the metered dimension.
"""

from .campaign import (
    CampaignConfig,
    CampaignReport,
    replay,
    run_campaign,
    verdict,
)
from .corpus import FuzzQueue, HighScore, QueueEntry, load_seeds
from .coverage import CoverageMap, GlobalCoverage, bucketize
from .driver import (
    CHARSETS,
    ConfigError,
    Constraints,
    DiffResult,
    DriverSpec,
    ParseReject,
    Statistic,
    driver_names,
    get_driver,
    register_driver,
    run_driver,
    with_domain,
)
from .metering import DIMENSIONS, CostReading, HarnessError, Meter
from .mutation import deterministic_stage, havoc, splice
from .oracle import OracleResult, exhaustive_max_delta, structured_max_delta

from . import benchmarks  # noqa: E402  (import registers the stock drivers)

__version__ = "0.1.0"

__all__ = [
    "CHARSETS",
    "DIMENSIONS",
    "CampaignConfig",
    "CampaignReport",
    "ConfigError",
    "Constraints",
    "CostReading",
    "CoverageMap",
    "DiffResult",
    "DriverSpec",
    "FuzzQueue",
    "GlobalCoverage",
    "HarnessError",
    "HighScore",
    "Meter",
    "OracleResult",
    "ParseReject",
    "QueueEntry",
    "Statistic",
    "benchmarks",
    "bucketize",
    "deterministic_stage",
    "driver_names",
    "exhaustive_max_delta",
    "get_driver",
    "havoc",
    "load_seeds",
    "register_driver",
    "replay",
    "run_campaign",
    "run_driver",
    "splice",
    "structured_max_delta",
    "verdict",
    "with_domain",
]
