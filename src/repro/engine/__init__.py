"""Sharded parallel fleet-execution engine for campaigns.

Scales the paper's batch experiments (the Table VII attack x defense
grid, the Section VI-A 924-install field test) from one simulated
device in one process to a sharded fleet across a worker pool, with a
hard determinism contract: one top-level seed produces bit-identical
merged stats for any shard count and worker count.

- :mod:`repro.engine.spec` — picklable campaign/shard specs.
- :mod:`repro.engine.executor` — worker pool, retries, serial fallback.
- :mod:`repro.engine.merge` — associative stat merging + fleet aggregates.
- :mod:`repro.engine.progress` — progress/throughput hooks.
"""

from repro.engine.executor import (
    FleetExecutor,
    WarmPool,
    default_workers,
    multiprocessing_usable,
    run_fleet,
    run_shard,
    wait_for_result,
)
from repro.engine.merge import (
    FleetReport,
    OutcomeRecord,
    ShardResult,
    compact_stats,
    merge_stats,
    wilson_interval,
)
from repro.engine.progress import (
    ConsoleProgress,
    FleetProgress,
    MetricsProgress,
    NullProgress,
    TeeProgress,
)
from repro.engine.spec import (
    ATTACKS,
    CHAOS_MODES,
    DEVICES,
    CampaignSpec,
    ShardSpec,
    parse_chaos,
)

__all__ = [
    "ATTACKS",
    "CHAOS_MODES",
    "DEVICES",
    "CampaignSpec",
    "ConsoleProgress",
    "FleetExecutor",
    "FleetProgress",
    "FleetReport",
    "MetricsProgress",
    "NullProgress",
    "OutcomeRecord",
    "ShardResult",
    "ShardSpec",
    "TeeProgress",
    "WarmPool",
    "compact_stats",
    "default_workers",
    "merge_stats",
    "multiprocessing_usable",
    "parse_chaos",
    "run_fleet",
    "run_shard",
    "wait_for_result",
    "wilson_interval",
]
