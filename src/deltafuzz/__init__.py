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
from .corpus import FuzzQueue, QueueEntry, load_seeds
from .coverage import CoverageMap, GlobalCoverage
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

from . import benchmarks  # noqa: E402  (import registers the stock drivers)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The oracle module and its public names, imported on first use, since
    no campaign runs it (PEP 562)."""
    if name in ("oracle", "OracleResult", "exhaustive_max_delta", "structured_max_delta"):
        from importlib import import_module

        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "Meter",
    "OracleResult",
    "ParseReject",
    "QueueEntry",
    "Statistic",
    "benchmarks",
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
