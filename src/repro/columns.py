"""The one column gather of the column-wise paths.

Every place that reads a column at a list of positions — a join's
output pairs becoming rows, a selection's kept rows, a sorted view's
permutation — calls :func:`gather`, so each runs as one C-level call
with no Python-level step per entry.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence


def gather(column: Sequence, index: Sequence[int]) -> tuple:
    """``column``'s entries at ``index`` (any positions, repeats
    allowed), in index order, as a tuple: one ``itemgetter(*index)``
    call.  ``itemgetter()`` raises and ``itemgetter(i)`` returns the
    bare entry, so 0 and 1 positions are answered here."""
    if len(index) > 1:
        return itemgetter(*index)(column)
    return (column[index[0]],) if len(index) else ()
