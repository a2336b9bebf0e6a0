"""Deterministic, seeded worker-level fault injection.

A :class:`WorkerFaultPlan` perturbs one parallel shard's *carrier*:
the worker process dies, stalls, or hands back a torn result segment.
It is how the worker-containment sweep
(:func:`~repro.resilience.harness.worker_chaos_sweep`) probes the
pool's re-dispatch machinery.  Every draw comes from
:func:`derived_rng`, so one seed replays the same fault.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass


def derived_rng(*parts: object) -> random.Random:
    """A :class:`random.Random` seeded by a structured key.

    ``Random`` only accepts scalar seeds, so the key is serialised via
    ``repr`` — stable across runs and processes (``repr`` of ints,
    strings and enums does not depend on hash randomisation), which is
    what makes fault targets and generated data reproducible from a
    seed.
    """
    return random.Random(repr(parts))


class WorkerFaultKind(enum.Enum):
    """Worker-level fault species the parallel chaos sweep injects."""

    KILL = "kill"  # worker dies mid-shard (os._exit before the run)
    STALL = "stall"  # worker sleeps long enough to look like a straggler
    CORRUPT_RESULT = "corrupt-result"  # result segment fails its crc32


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A seeded, deterministic worker-level fault for one shard.

    The target shard is a pure function of ``(seed, cell key, shard
    count)``, so a chaos run replays identically; the fault is gated on
    the dispatch attempt (``attempts=1`` fires on the first dispatch
    only), so the containment machinery's single re-dispatch
    deterministically heals it — the property the differential oracle
    asserts.

    Parameters
    ----------
    seed:
        Root of the target-shard draw.
    kind:
        Which carrier fault to inject.
    attempts:
        Dispatch attempts for which the fault persists; keep it below
        the shard-retry cap for the differential to hold.
    stall_seconds:
        Sleep injected by ``STALL`` (the speculation threshold in tests
        must sit below this).
    exit_code:
        Process exit status used by ``KILL``.
    """

    seed: int
    kind: WorkerFaultKind = WorkerFaultKind.KILL
    attempts: int = 1
    stall_seconds: float = 2.0
    exit_code: int = 3

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("a worker fault must persist for >=1 attempt")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")

    def target_shard(self, key: str, shard_count: int) -> int:
        """Which shard of ``shard_count`` carries the fault for ``key``
        (typically ``"<operator>/<backend>"``)."""
        if shard_count < 1:
            raise ValueError("shard_count must be positive")
        rng = derived_rng("worker-fault", self.seed, key)
        return rng.randrange(shard_count)

    def task_fault(self) -> dict:
        """The plain-dict form shipped inside the shard task (tasks
        cross the process boundary as dicts, never dataclasses)."""
        return {
            "kind": self.kind.value,
            "attempts": self.attempts,
            "stall_seconds": self.stall_seconds,
            "exit_code": self.exit_code,
        }
