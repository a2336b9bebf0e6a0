"""Columnar batch-sweep execution backend (Piatov et al.,
arXiv:2008.12665, applied to the paper's Tables 1-3 algorithms).

The tuple-at-a-time processors in :mod:`repro.streams.processors` are
faithful to the paper's one-buffer stream model; this package provides
the physically different but semantically identical *columnar* backend:
operands as parallel endpoint columns, operators as batch sweep kernels
with lazily evicted active lists — one :data:`CELLS` row per admissible
cell, run by the one :class:`ColumnarProcessor`.  Select it per plan
through ``RegistryEntry.build(..., backend="columnar")`` or
``TemporalJoinPlanner(..., backend="columnar")``.
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
