"""Execution metrics reported by every stream processor.

These are the quantities the paper's Tables 1-3 are about: workspace
high-water marks, buffers, tuples read, and passes over each input
stream.  Benchmarks read them off the processor after a run instead of
inferring costs from timing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from .workspace import WorkspaceReport


@dataclass
class ProcessorMetrics:
    """Counters gathered during one stream-processor execution."""

    #: Tuples pulled from the X (left / outer) stream.
    tuples_read_x: int = 0
    #: Tuples pulled from the Y (right / inner) stream; 0 for unary ops.
    tuples_read_y: int = 0
    #: Passes over each stream (1 == the single-scan claim).
    passes_x: int = 0
    passes_y: int = 0
    #: Per-pass breakdown of the read totals (one entry per pass), so a
    #: DEGRADE re-sort run reports each pass separately instead of one
    #: aggregated total.
    pass_reads_x: list[int] = field(default_factory=list)
    pass_reads_y: list[int] = field(default_factory=list)
    #: Input buffers the algorithm uses (the paper counts these
    #: separately from state tuples: <Buffer-x, Buffer-y>).
    buffers: int = 2
    #: Number of output tuples / pairs emitted.
    output_count: int = 0
    #: Join-condition (or state-maintenance) comparisons performed — a
    #: CPU-side cost proxy for comparing against nested-loop baselines.
    comparisons: int = 0
    #: Liveness tests spent rediscovering dead state entries (the lazy
    #: eviction overhead of the batch backends); kept out of
    #: ``comparisons`` so the column stays comparable across backends.
    eviction_checks: int = 0
    #: Which backend label executed the operator ("tuple", "columnar",
    #: or its second name "fused") — audit records distinguish
    #: executions per shard by this.
    backend: str = "tuple"
    #: Name of the batch kernel that ran, if any (``None`` on the
    #: tuple-at-a-time backend).
    kernel: Optional[str] = None
    #: Joint workspace accounting across the operator's state spaces.
    workspace: WorkspaceReport = field(
        default_factory=lambda: WorkspaceReport(0, 0, 0, 0)
    )
    #: Per-state-space high-water marks, keyed by workspace name.
    state_high_water: dict[str, int] = field(default_factory=dict)
    #: Snapshot of the :class:`~repro.resilience.recovery.
    #: ExecutionReport` when the run went through the resilient
    #: executor (``None`` for plain runs).
    resilience: Optional[dict] = None

    @property
    def workspace_high_water(self) -> int:
        """Peak number of state tuples held at once (buffers excluded)."""
        return self.workspace.high_water

    @property
    def total_footprint(self) -> int:
        """Peak state tuples plus input buffers — the paper's complete
        'local workspace'."""
        return self.workspace.high_water + self.buffers

    def to_dict(self) -> dict:
        """The operator row's one dict form: what an ``operator:`` span
        carries, and so what EXPLAIN ANALYZE, the audit record and the
        benchmark JSON reports read (everything JSON-serialisable)."""
        out = asdict(self)
        out["workspace_high_water"] = self.workspace.high_water
        return out

    def fold(self, shard: "ProcessorMetrics") -> None:
        """Fold one shard's row into the merged row of a sharded run:
        totals sum; passes and high-water marks take the per-shard
        maximum — the Tables-1/2/3 bound (and the single-scan claim)
        hold *per shard*, which is the shard-local workspace guarantee
        the partitioner is built on.  Backend and kernel say what ran;
        the shards of one run share them."""
        self.tuples_read_x += shard.tuples_read_x
        self.tuples_read_y += shard.tuples_read_y
        self.passes_x = max(self.passes_x, shard.passes_x)
        self.passes_y = max(self.passes_y, shard.passes_y)
        self.buffers += shard.buffers
        self.comparisons += shard.comparisons
        self.eviction_checks += shard.eviction_checks
        self.backend = shard.backend
        self.kernel = shard.kernel or self.kernel
        mine, theirs = self.workspace, shard.workspace
        self.workspace = WorkspaceReport(
            max(mine.high_water, theirs.high_water),
            mine.total_inserted + theirs.total_inserted,
            mine.total_discarded + theirs.total_discarded,
            mine.residual + theirs.residual,
        )
        for name, value in shard.state_high_water.items():
            self.state_high_water[name] = max(
                self.state_high_water.get(name, 0), value
            )

    def summary(self) -> str:
        """One-line human-readable report (used by example scripts)."""
        return (
            f"read x={self.tuples_read_x} (passes={self.passes_x}) "
            f"y={self.tuples_read_y} (passes={self.passes_y}) | "
            f"state high-water={self.workspace.high_water} "
            f"buffers={self.buffers} | out={self.output_count} "
            f"comparisons={self.comparisons}"
        )
