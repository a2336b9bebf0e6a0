"""Histogram summaries of temporal relations (Section 6).

The paper's future work asks "how this [statistical] information can be
obtained efficiently and summarized in a suitable form for the
optimizer".  The single-number model of
:mod:`repro.stats.estimators` (one arrival rate, one mean duration)
misleads the optimizer on *non-stationary* data — e.g. a relation with
a dense burst and a sparse tail.  An equi-width
:class:`TemporalHistogram` summarises where lifespans start and how
long they last per time bucket, enabling:

* :meth:`TemporalHistogram.open_tuples_profile` — expected number of
  open (live) tuples per bucket, whose *maximum* predicts the stream
  operators' workspace high-water mark far better than the stationary
  estimate on bursty data;
* :func:`estimate_overlap_pairs` — an output-cardinality estimate for
  Overlap-join by combining two histograms bucket-wise.

Histograms are built in one pass and hold ``2 * buckets`` counters —
cheap enough to piggyback on any scan, answering the paper's
"obtained efficiently" requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..model.relation import TemporalRelation
from ..model.tuples import TemporalTuple


@dataclass(frozen=True)
class TemporalHistogram:
    """Equi-width summary of lifespan starts and coverage.

    ``starts[i]`` counts tuples whose ValidFrom falls in bucket ``i``;
    ``coverage[i]`` sums, over all tuples, the number of timepoints of
    bucket ``i`` their lifespan covers (so ``coverage[i] / width`` is
    the average number of tuples alive during the bucket).
    """

    lo: int
    hi: int
    starts: tuple[int, ...]
    coverage: tuple[int, ...]

    @property
    def buckets(self) -> int:
        return len(self.starts)

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.buckets if self.buckets else 0.0

    def bucket_of(self, point: int) -> int:
        """The bucket index covering ``point`` (clamped to range)."""
        if self.width == 0:
            return 0
        index = int((point - self.lo) / self.width)
        return max(0, min(self.buckets - 1, index))

    def open_tuples_profile(self) -> list[float]:
        """Average number of live tuples per bucket."""
        if self.width == 0:
            return [0.0] * self.buckets
        return [c / self.width for c in self.coverage]

    def peak_open_tuples(self) -> float:
        """The workspace predictor: the busiest bucket's live-tuple
        average."""
        profile = self.open_tuples_profile()
        return max(profile) if profile else 0.0



def build_histogram(
    tuples: Iterable[TemporalTuple] | TemporalRelation,
    buckets: int = 32,
) -> TemporalHistogram:
    """One-pass equi-width histogram over a temporal relation."""
    if buckets < 1:
        raise ValueError("need at least one bucket")
    materialised = list(tuples)
    if not materialised:
        return TemporalHistogram(0, 0, (0,) * buckets, (0,) * buckets)
    lo = min(t.valid_from for t in materialised)
    hi = max(t.valid_to for t in materialised)
    span = max(1, hi - lo)
    width = span / buckets
    starts = [0] * buckets
    coverage = [0] * buckets
    for tup in materialised:
        start_bucket = min(buckets - 1, int((tup.valid_from - lo) / width))
        starts[start_bucket] += 1
        # Distribute the lifespan's coverage across the buckets it
        # touches.
        first = min(buckets - 1, int((tup.valid_from - lo) / width))
        last = min(buckets - 1, int((tup.valid_to - 1 - lo) / width))
        for bucket in range(first, last + 1):
            bucket_lo = lo + bucket * width
            bucket_hi = lo + (bucket + 1) * width
            covered = min(tup.valid_to, bucket_hi) - max(
                tup.valid_from, bucket_lo
            )
            if covered > 0:
                coverage[bucket] += int(round(covered))
    return TemporalHistogram(lo, hi, tuple(starts), tuple(coverage))


def estimate_overlap_pairs(
    x_hist: TemporalHistogram, y_hist: TemporalHistogram
) -> float:
    """Rough Overlap-join output-cardinality estimate.

    Every overlapping pair has exactly one later starter (ties aside),
    so summing "X tuples starting in a bucket x Y tuples alive there"
    with the symmetric Y-starts term counts each pair once:
    """
    if x_hist.width == 0 or y_hist.width == 0:
        return 0.0
    y_profile = y_hist.open_tuples_profile()
    x_profile = x_hist.open_tuples_profile()
    total = 0.0
    for bucket, count in enumerate(x_hist.starts):
        point = x_hist.lo + (bucket + 0.5) * x_hist.width
        total += count * y_profile[y_hist.bucket_of(int(point))]
    for bucket, count in enumerate(y_hist.starts):
        point = y_hist.lo + (bucket + 0.5) * y_hist.width
        total += count * x_profile[x_hist.bucket_of(int(point))]
    return total


def estimate_peak_workspace(
    x_hist: TemporalHistogram, y_hist: TemporalHistogram
) -> float:
    """Histogram-based workspace predictor for symmetric sweeps: the
    busiest *combined* live-tuple load across time."""
    x_profile = x_hist.open_tuples_profile()
    y_profile = y_hist.open_tuples_profile()
    if not x_profile and not y_profile:
        return 0.0
    peak = 0.0
    for bucket, live in enumerate(x_profile):
        point = x_hist.lo + (bucket + 0.5) * x_hist.width
        combined = live + y_profile[y_hist.bucket_of(int(point))]
        peak = max(peak, combined)
    return peak
