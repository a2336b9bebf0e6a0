"""The join output of the batch backends, and the ``fused`` label's
view of the kernels.

``fused`` is a second label for the batch backend: it runs the same
:class:`~repro.columnar.backend.ColumnarProcessor`, the same
:mod:`repro.columnar.kernels` sweep per cell and the same comparison
charge as ``columnar``.  The kernels are re-exported below so that every
kernel name a batch run reports resolves in this module too.

:class:`LazyPairs` wraps a join kernel's ``(xi, yj)`` index columns and
builds payload pairs only when something touches them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..columns import gather
from .kernels import (  # noqa: F401 - the shared sweeps, re-exported
    before_semijoin,
    contain_join_ts_te,
    contain_join_ts_ts,
    contain_semijoin_ts_te,
    contain_semijoin_ts_ts,
    contained_semijoin_te_ts,
    contained_semijoin_ts_ts,
    overlap_join_ts_ts,
    overlap_semijoin_ts_ts,
    self_contain_semijoin_ts,
    self_contain_semijoin_ts_te_desc,
    self_contained_semijoin_ts_te,
)

#: A join kernel's output: parallel ``(xi, yj)`` position columns.
IndexColumns = Tuple[List[int], List[int]]


class LazyPairs(Sequence):
    """The join output of a batch run: a sequence of payload pairs that
    materialises on first touch.

    ``columns`` is what the kernel returned — its ``(xi, yj)`` index
    columns.  ``len()`` reads their length; indexing, iteration or
    containment triggers one payload gather whose result is cached.
    EXPLAIN and metrics read only ``len()``, and the hybrid executor
    reads only :meth:`index_columns`, so neither pays for payload
    pairs.
    """

    __slots__ = ("_columns", "x_payload", "y_payload", "_pairs")

    def __init__(self, columns: IndexColumns, x_payload, y_payload) -> None:
        self._columns = columns
        #: The *sorted* operands' payload columns, which
        #: :meth:`index_columns` positions point into.
        self.x_payload = x_payload
        self.y_payload = y_payload
        self._pairs: Optional[list] = None

    def __len__(self) -> int:
        return len(self._columns[0])

    @property
    def materialized(self) -> bool:
        return self._pairs is not None

    def index_columns(self) -> IndexColumns:
        """The kernel's own parallel ``(xi, yj)`` columns, one entry
        per output pair in emission order; each is a position into the
        sorted operand (``x_payload[xi[k]]`` pairs with
        ``y_payload[yj[k]]``)."""
        return self._columns

    def _materialise(self) -> list:
        pairs = self._pairs
        if pairs is None:
            xi, yj = self._columns
            pairs = list(
                zip(gather(self.x_payload, xi), gather(self.y_payload, yj))
            )
            self._pairs = pairs
        return pairs

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self):
        return iter(self._materialise())

    def __eq__(self, other):
        """Value equality against any pair sequence (materialises):
        the differential suites compare outputs across backends by
        ``==``."""
        if isinstance(other, LazyPairs):
            other = other._materialise()
        if isinstance(other, (list, tuple)):
            return self._materialise() == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "materialized" if self._pairs is not None else "lazy"
        return f"LazyPairs(n={len(self)}, {state})"
