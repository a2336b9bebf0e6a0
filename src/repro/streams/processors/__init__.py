"""Stream processors for the temporal operators of Section 4."""

from .aggregate import (
    AggregateMetrics,
    GroupedAggregate,
    finalize_average,
    grouped_average,
    grouped_count,
    grouped_sum,
)
from .base import StreamProcessor, te_key, ts_key
from .baseline import (
    NestedLoopJoin,
    NestedLoopSelfSemijoin,
    NestedLoopSemijoin,
    before_predicate,
    conjoin,
    contain_predicate,
    contained_predicate,
    overlap_predicate,
    same_surrogate,
)
from .before import BeforeJoinSortedInner, BeforeJoinSweep, BeforeSemijoin
from .contain_join import ContainJoinTsTe, ContainJoinTsTs
from .equality_merge import (
    EndpointMergeJoin,
    EqualJoin,
    FinishesJoin,
    MeetsJoin,
    StartsJoin,
)
from .contain_semijoin import (
    ContainedSemijoinTeTs,
    ContainedSemijoinTsTs,
    ContainSemijoinTsTe,
    ContainSemijoinTsTs,
)
from .mirror import MirroredProcessor, mirror_stream, mirror_tuple
from .overlap import OverlapJoin, OverlapSemijoin
from .self_semijoin import (
    SelfContainedSemijoin,
    SelfContainSemijoin,
    SelfContainSemijoinDesc,
)
from .semijoin import HeldSideSweep, RunningExtremum, TwoBufferMerge
from .sweep import SymmetricSweepJoin
from .unbounded import UnboundedStateJoin

__all__ = [
    "AggregateMetrics",
    "BeforeJoinSortedInner",
    "BeforeJoinSweep",
    "BeforeSemijoin",
    "ContainJoinTsTe",
    "ContainJoinTsTs",
    "ContainSemijoinTsTe",
    "ContainSemijoinTsTs",
    "ContainedSemijoinTeTs",
    "EndpointMergeJoin",
    "EqualJoin",
    "FinishesJoin",
    "MeetsJoin",
    "StartsJoin",
    "ContainedSemijoinTsTs",
    "GroupedAggregate",
    "HeldSideSweep",
    "MirroredProcessor",
    "NestedLoopJoin",
    "NestedLoopSelfSemijoin",
    "NestedLoopSemijoin",
    "OverlapJoin",
    "OverlapSemijoin",
    "RunningExtremum",
    "SelfContainSemijoin",
    "SelfContainSemijoinDesc",
    "SelfContainedSemijoin",
    "StreamProcessor",
    "SymmetricSweepJoin",
    "TwoBufferMerge",
    "UnboundedStateJoin",
    "before_predicate",
    "conjoin",
    "contain_predicate",
    "contained_predicate",
    "finalize_average",
    "grouped_average",
    "grouped_count",
    "grouped_sum",
    "mirror_stream",
    "mirror_tuple",
    "overlap_predicate",
    "same_surrogate",
    "te_key",
    "ts_key",
]
