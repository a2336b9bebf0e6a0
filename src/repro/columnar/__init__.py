"""The two batch-sweep execution backends, ``columnar`` and ``fused``
(the paper's Tables 1-3 algorithms over endpoint columns).

The tuple-at-a-time processors in :mod:`repro.streams.processors` are
faithful to the paper's one-buffer stream model; this package provides
the physically different but semantically identical batch backends:
operands as parallel endpoint columns, operators as batch sweep kernels
whose state is disposed of lazily, at probe time — one :data:`CELLS`
row per admissible cell, run by the one :class:`ColumnarProcessor`.
Select one per plan through ``RegistryEntry.build(..., backend=...)``
or ``TemporalJoinPlanner(..., backend=...)``.
"""

from .backend import CELLS, ColumnarProcessor
from .kernels import SweepStats
from .relation import IntervalColumns

__all__ = [
    "CELLS",
    "ColumnarProcessor",
    "IntervalColumns",
    "SweepStats",
]
