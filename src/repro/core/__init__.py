"""PG-HIVE core: the paper's primary contribution.

Contains the full schema discovery pipeline of Algorithm 1 --
vectorization (section 4.1), adaptive LSH clustering (section 4.2), type
extraction and merging (Algorithm 2 / section 4.3), constraint, datatype
and cardinality inference (section 4.4), and the incremental engine
(section 4.6).  The entry point is :class:`PGHive`.
"""

from repro.core.config import LSHMethod, PGHiveConfig
from repro.core.faults import FaultInjector, FaultPlan, FaultSpec, InjectedFault
from repro.core.parallel import (
    ParallelDiscovery,
    ShardRecoveryError,
    ShardResult,
    combine_shard_results,
)
from repro.core.pipeline import PGHive
from repro.core.postprocess import (
    TypeStats,
    apply_partial_stats,
    attach_partial_stats,
)
from repro.core.result import DiscoveryResult, ShardFailure
from repro.core.adaptive import AdaptiveParameters, choose_parameters
from repro.core.datatypes import (
    infer_datatype,
    infer_datatype_sampled,
    infer_value_type,
    is_value_compatible,
)
from repro.core.cardinality_bounds import (
    CardinalityBounds,
    compute_cardinality_bounds,
)
from repro.core.value_profiles import (
    PropertyPartial,
    ValueProfile,
    profile_values,
)

__all__ = [
    "AdaptiveParameters",
    "CardinalityBounds",
    "DiscoveryResult",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "LSHMethod",
    "PGHive",
    "PGHiveConfig",
    "ParallelDiscovery",
    "PropertyPartial",
    "ShardFailure",
    "ShardRecoveryError",
    "ShardResult",
    "TypeStats",
    "ValueProfile",
    "apply_partial_stats",
    "attach_partial_stats",
    "choose_parameters",
    "combine_shard_results",
    "compute_cardinality_bounds",
    "infer_datatype",
    "infer_datatype_sampled",
    "infer_value_type",
    "is_value_compatible",
    "profile_values",
]
