"""Columnar interval storage for the batch-sweep backend.

Piatov et al. ("Cache-Efficient Sweeping-Based Interval Joins for
Extended Allen Relation Predicates", arXiv:2008.12665) observe that the
sweep algorithms of the source paper run an order of magnitude faster
when the operand relations are held as *gapless parallel columns* of
interval endpoints instead of streams of record objects: the sweep then
touches two machine-word arrays sequentially and the per-element work is
a handful of integer comparisons.

:class:`IntervalColumns` is that representation: three parallel columns

* ``ts`` — ValidFrom endpoints (``array('q')``),
* ``te`` — ValidTo endpoints (``array('q')``),
* ``payload`` — what each position stands for, positionally aligned
  with the endpoint columns: the original
  :class:`~repro.model.tuples.TemporalTuple` objects of an operand born
  as tuples (:meth:`IntervalColumns.from_tuples`), or plain row
  positions for one born as columns (the hybrid executor's bridge,
  which never builds the tuples unless a tuple-at-a-time consumer asks
  for :attr:`IntervalColumns.tuples`),

sorted by a :class:`~repro.model.sortorder.SortOrder`.  Kernels in
:mod:`repro.columnar.kernels` operate on the endpoint columns only and
return positional indexes; payloads are materialised once per output.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice
from operator import ge, le, neg
from typing import Iterable, NamedTuple, Optional, Sequence

from ..columns import gather
from ..errors import StreamOrderError
from ..model.sortorder import Direction, SortAttribute, SortOrder, sort_tuples
from ..model.tuples import TemporalTuple


class SortedView(NamedTuple):
    """A relation's endpoint columns in one sort order, kept on the
    relation (``TemporalRelation.orders``) for every query that reads
    it in that order: read, never write."""

    ts: Sequence[int]
    te: Sequence[int]
    #: Row positions in that order: the argsort's permutation, or the
    #: identity ``range`` over the relation's own arrays.
    permutation: Sequence[int]
    #: ``id(attribute column)`` -> that column put through
    #: ``permutation``, filled by the bridge's gather; the relation
    #: memoises its columns, so an id stays its column's.
    gathered: dict


class IntervalColumns:
    """A relation as parallel ``(TS, TE, payload)`` columns.

    The endpoint columns are gapless: position ``i`` of ``ts``/``te``
    always describes ``payload[i]``, and deleted entries never leave
    holes (kernels compact their *active lists* lazily instead, per
    Piatov et al.).

    Endpoint columns are any int64 buffer the kernels can index — an
    ``array('q')``, or a ``memoryview`` cast to ``'q'`` over a
    ``multiprocessing.shared_memory`` segment (the zero-copy shard
    runtime maps published columns read-only this way), or a tuple of
    ints (a selection's, gathered per query from a relation's validated
    columns).
    ``payload`` may be ``None`` for endpoint-only views: kernels return
    positional indexes, and the payloads materialise lazily on
    whichever side of the process boundary owns the tuple objects.
    """

    __slots__ = (
        "ts", "te", "payload", "order", "name", "_tuples", "statistics",
        "orders", "selected_from",
    )

    def __init__(
        self,
        ts: Sequence[int],
        te: Sequence[int],
        payload: Optional[Sequence],
        order: Optional[SortOrder],
        name: str = "columns",
    ) -> None:
        if len(ts) != len(te) or (
            payload is not None and len(payload) != len(ts)
        ):
            payload_len = "-" if payload is None else len(payload)
            raise ValueError(
                "endpoint and payload columns must be positionally "
                f"aligned (got {len(ts)}/{len(te)}/{payload_len})"
            )
        self.ts = ts
        self.te = te
        self.payload = payload
        self.order = order
        self.name = name
        self._tuples: Optional[Sequence[TemporalTuple]] = None
        #: Its relation's, when the hybrid executor has them to hand over
        #: (:func:`repro.stats.collect_statistics` then gathers nothing).
        self.statistics = None
        #: Likewise its relation's ``{order: SortedView}`` memo, when
        #: these columns are the relation's own or one of those views.
        self.orders: Optional[dict] = None
        #: The columns these are some rows of, in the same order (what a
        #: selection below a join keeps); both payloads are positions
        #: of the same rows, ``len(selected_from)`` of them.
        self.selected_from: Optional[IntervalColumns] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls,
        tuples: Iterable[TemporalTuple],
        order: Optional[SortOrder] = None,
        name: str = "columns",
        presorted: bool = False,
    ) -> "IntervalColumns":
        """Columnise ``tuples``; sorts by ``order`` unless the caller
        vouches for the input with ``presorted=True``."""
        rows = list(tuples)
        if order is not None and not presorted:
            rows = sort_tuples(rows, order)
        ts = array("q", (t.valid_from for t in rows))
        te = array("q", (t.valid_to for t in rows))
        return cls(ts, te, rows, order, name=name)

    @classmethod
    def from_views(
        cls,
        ts: Sequence[int],
        te: Sequence[int],
        order: Optional[SortOrder] = None,
        name: str = "columns",
    ) -> "IntervalColumns":
        """Endpoint-only columns over existing buffers (typically
        shared-memory ``memoryview`` slices); no payloads, no copy."""
        return cls(ts, te, None, order, name=name)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ts)

    @property
    def tuples(self) -> Sequence[TemporalTuple]:
        """These columns as :class:`TemporalTuple` values, for
        consumers that are tuple-at-a-time by nature (cursors, nested
        loops, the recovery ladder's re-sort and spill).  An operand
        born as tuples (:meth:`from_tuples`) answers with its payload
        itself; one born as columns (payload = row positions) builds
        one validated tuple per position, its surrogate the payload
        entry, no value — on first use, and kept."""
        if self._tuples is None:
            payload = self.payload
            if len(payload) and isinstance(payload[0], TemporalTuple):
                self._tuples = payload
            else:
                self._tuples = [
                    TemporalTuple(position, None, start, end)
                    for position, start, end in zip(
                        payload, self.ts, self.te
                    )
                ]
        return self._tuples

    @property
    def tuples_built(self) -> int:
        """How many tuples :attr:`tuples` has constructed so far (none
        for an operand born as tuples)."""
        tuples = self._tuples
        return 0 if tuples is None or tuples is self.payload else len(tuples)

    def _key_columns(self, order: SortOrder) -> Optional[list]:
        """``(column, descending)`` per sort key, or ``None`` when the
        order has a non-endpoint component (no column to read)."""
        keys = []
        for sort_key in order.keys:
            if sort_key.attribute is SortAttribute.VALID_FROM:
                column: Sequence[int] = self.ts
            elif sort_key.attribute is SortAttribute.VALID_TO:
                column = self.te
            else:
                return None
            keys.append((column, sort_key.direction is Direction.DESC))
        return keys

    @staticmethod
    def _in_order(keys: list) -> bool:
        """One C-level pass: do the key columns already obey their
        order?  A compound order compares rows as tuples of their keys,
        a descending key negated."""
        if len(keys) == 1:
            ((column, descending),) = keys
            in_order = ge if descending else le
            return all(map(in_order, column, islice(column, 1, None)))
        rows = list(
            zip(*(map(neg, c) if descending else c for c, descending in keys))
        )
        return all(map(le, rows, islice(rows, 1, None)))

    def sorted_by(self, order: SortOrder) -> "IntervalColumns":
        """These columns in ``order`` (endpoint keys only), exactly as
        :func:`~repro.model.sortorder.sort_tuples` would leave the
        tuples (stable, keys applied least-significant first).  Columns
        already in that order are shared, not copied — the payload
        object is the same iff no argsort ran; otherwise the argsort's
        permutation carries ``ts``, ``te`` and the payload along.  A
        relation's own columns (``orders`` set, no row moved) are
        sorted once per order: the view is kept on the relation.  A
        selection is its source's sorted form, filtered: a stable sort
        cut down to some rows is the stable sort of those rows."""
        if self.selected_from is not None:
            return self._kept_rows_of(self.selected_from.sorted_by(order))
        kept = self.orders if isinstance(self.payload, range) else None
        view = None if kept is None else kept.get(order)
        if view is None:
            keys = self._key_columns(order)
            ts, te, payload = self.ts, self.te, self.payload
            if not self._in_order(keys):
                permutation = list(range(len(self)))
                for column, descending in reversed(keys):
                    permutation.sort(
                        key=column.__getitem__, reverse=descending
                    )
                ts = array("q", gather(ts, permutation))
                te = array("q", gather(te, permutation))
                payload = list(gather(payload, permutation))
            view = SortedView(ts, te, payload, {})
            if kept is not None:
                kept[order] = view
        columns = IntervalColumns(*view[:3], order, self.name)
        columns.orders = kept
        return columns

    def _kept_rows_of(self, view: "IntervalColumns") -> "IntervalColumns":
        """This selection's rows in the order of ``view``, its source
        sorted: shared when no row moved, else ``view`` filtered by
        payload position — one C-level ``compress`` per column."""
        permutation = view.payload
        if isinstance(permutation, range) or (
            permutation is self.selected_from.payload
        ):
            ts, te, payload = self.ts, self.te, self.payload
        else:
            selected = [False] * len(view)
            for position in self.payload:
                selected[position] = True
            keep = gather(selected, permutation)
            ts, te, payload = (
                list(compress(column, keep))
                for column in (view.ts, view.te, permutation)
            )
        columns = IntervalColumns(ts, te, payload, view.order, self.name)
        columns.selected_from = view
        return columns

    def verify_order(self) -> None:
        """Check the endpoint columns against the declared sort order,
        columnar-ly (no per-tuple attribute extraction).

        Raises :class:`~repro.errors.StreamOrderError` on the first
        violation — the batch backend's counterpart of the verifying
        stream cursor.  A relation's kept view was sorted or checked
        when it was kept; a relation's own columns that pass are kept
        as the view (a declared order is checked once per relation, not
        per query), and a failure keeps nothing.  A selection of columns
        in this order is in it wherever they are.
        """
        order, kept, source = self.order, self.orders, self.selected_from
        if order is None:
            return
        if source is not None and source.order == order:
            source.verify_order()
            return
        view = None if kept is None else kept.get(order)
        if view is not None and view.ts is self.ts and view.te is self.te:
            return
        keys = self._key_columns(order)
        if keys is None:
            # Non-endpoint components have no column; fall back to
            # the tuple-level check for the whole order (requires
            # payloads — endpoint-only views have none to check).
            if self.payload is not None and not order.is_sorted(
                list(self.payload)
            ):
                raise StreamOrderError(
                    f"columns {self.name!r} violate declared order "
                    f"[{order}]"
                )
            return
        if not self._in_order(keys):
            self._raise_first_violation(keys)
        if kept is not None:
            kept[order] = SortedView(self.ts, self.te, self.payload, {})

    def _raise_first_violation(self, keys: list) -> None:
        """The slow pass, run only to name the violation the C-level
        one found."""
        for i in range(1, len(self.ts)):
            for column, descending in keys:
                a, b = column[i - 1], column[i]
                if a == b:
                    continue
                if (a < b) == (not descending):
                    break  # strictly ordered on this key: pair is fine
                before = (
                    self.payload[i - 1]
                    if self.payload is not None
                    else f"({self.ts[i - 1]}, {self.te[i - 1]})"
                )
                after = (
                    self.payload[i]
                    if self.payload is not None
                    else f"({self.ts[i]}, {self.te[i]})"
                )
                raise StreamOrderError(
                    f"columns {self.name!r} declared order "
                    f"[{self.order}] but position {i - 1} holds "
                    f"{before} before {after}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IntervalColumns({self.name!r}, n={len(self)}, "
            f"order={self.order})"
        )
