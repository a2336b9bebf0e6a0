"""A tie group is swept once: the Overlap-join kernel lets the rest of
an equal-ValidFrom group of one operand reuse the opposite state its
first element left behind.  Nothing observable may change — pairs and
their order, the five ``SweepStats`` counts, the Figure-5 trace and the
insertion at which a workspace limit raises are the pre-change kernel's
(kept below as the reference) — only how often the state is visited."""

import builtins
import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path
from sys import maxsize

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra import optimize
from repro.columnar import kernels
from repro.columnar.kernels import SweepStats, _overflow
from repro.errors import WorkspaceOverflowError
from repro.optimizer import TemporalJoinPlanner, execute_hybrid
from repro.query import parse_query, run_query, translate
from repro.streams import TemporalOperator


def reference_columnar(x_ts, x_te, y_ts, y_te, limit=None, trace=None):
    """``kernels.overlap_join_ts_ts`` as it stood before tie groups: every
    element probe-scans the opposite list, two appends per pair."""
    stats = SweepStats()
    budget = maxsize if limit is None else limit
    nx, ny = len(x_ts), len(y_ts)
    x_active = []  # (TE, index)
    y_active = []
    out_x = []
    out_y = []
    emit_x = out_x.append
    emit_y = out_y.append
    comparisons = eviction_checks = inserted = discarded = cur = high = 0
    i = j = 0
    while True:
        if i < nx and (j >= ny or x_ts[i] <= y_ts[j]):
            p = x_ts[i]
            w = 0
            for ent in y_active:
                if ent[0] <= p:
                    continue  # ended at or before p: evict
                y_active[w] = ent
                w += 1
                emit_x(i)  # alive at p: overlap
                emit_y(ent[1])
            dead = len(y_active) - w
            comparisons += w
            eviction_checks += dead
            if dead:
                del y_active[w:]
                discarded += dead
                cur -= dead
                if trace is not None:
                    trace.append(cur)
            if j < ny:  # an X tuple only joins future Y if any remain
                x_active.append((x_te[i], i))
                inserted += 1
                cur += 1
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            i += 1
        elif j < ny:
            p = y_ts[j]
            w = 0
            for ent in x_active:
                if ent[0] <= p:
                    continue
                x_active[w] = ent
                w += 1
                emit_x(ent[1])
                emit_y(j)
            dead = len(x_active) - w
            comparisons += w
            eviction_checks += dead
            if dead:
                del x_active[w:]
                discarded += dead
                cur -= dead
                if trace is not None:
                    trace.append(cur)
            if i < nx:
                y_active.append((y_te[j], j))
                inserted += 1
                cur += 1
                if cur > high:
                    high = cur
                    if high > budget:
                        raise _overflow(budget)
                if trace is not None:
                    trace.append(cur)
            j += 1
        else:
            break
    discarded += cur
    if trace is not None and cur:
        trace.append(0)
    stats.comparisons = comparisons
    stats.eviction_checks = eviction_checks
    stats.inserted = inserted
    stats.discarded = discarded
    stats.high_water = high
    return (out_x, out_y), stats



def observed(kernel, operands, limit=None):
    """Everything a caller can see of one sweep, the trace included —
    up to the raise, when the workspace limit is breached."""
    trace = []
    try:
        (xi, yj), stats = kernel(*operands, limit, trace)
    except WorkspaceOverflowError as error:
        return "overflow", str(error), trace
    counts = {name: getattr(stats, name) for name in SweepStats.__slots__}
    return list(zip(xi, yj)), counts, trace


def assert_matches_reference(operands):
    kernel, reference = kernels.overlap_join_ts_ts, reference_columnar
    expected = observed(reference, operands)
    assert observed(kernel, operands) == expected
    high_water = expected[1]["high_water"]
    # Every limit below the high-water mark raises at the same insertion
    # after the same trace prefix, whether it falls at a tie group's
    # first member, inside the group or at its last.
    for limit in range(high_water):
        breached = observed(reference, operands, limit)
        assert breached[0] == "overflow"
        assert observed(kernel, operands, limit) == breached
    assert observed(kernel, operands, high_water) == expected


def columns(spans):
    """``(start, duration)`` pairs as the sorted ``(TS, TE)`` columns."""
    spans = sorted(spans)
    return [a for a, _ in spans], [a + d for a, d in spans]


def operands(x_spans, y_spans):
    return (*columns(x_spans), *columns(y_spans))


def gridded(step, points, longest):
    """Intervals whose endpoints all sit on a ``step`` grid of
    ``points`` points: the coarser the grid, the larger the tie groups
    (duplicates included)."""
    return st.lists(
        st.tuples(
            st.integers(0, points - 1).map(lambda a: a * step),
            st.integers(1, longest).map(lambda d: d * step),
        ),
        max_size=40,
    )


#: A Y tie group of four stored at once, from a store of one: a limit
#: of 3 is crossed by its third member, inside the group.
GROUP_BREACH = ([(0, 10), (8, 1)], [(2, 5)] * 4)


class TestKernelsAgainstTheParent:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from((1, 16)).flatmap(
            lambda step: st.tuples(
                gridded(step, 6, 4), gridded(step, 6, 4)
            )
        )
    )
    @example(GROUP_BREACH)
    def test_coarse_grid(self, sides):
        assert_matches_reference(operands(*sides))

    def test_a_limit_crossed_inside_a_tie_group(self):
        """The trace holds the sizes the group's members reached up to
        the limit, and nothing after: [1] for X0, then 2 and 3 for the
        first two Y members; the third would make 4."""
        sweep = operands(*GROUP_BREACH)
        _, counts, trace = observed(kernels.overlap_join_ts_ts, sweep)
        assert (counts["high_water"], trace) == (5, [1, 2, 3, 4, 5, 1, 0])
        assert observed(kernels.overlap_join_ts_ts, sweep, 3) == (
            "overflow",
            str(_overflow(3)),
            [1, 2, 3],
        )

    @settings(max_examples=100, deadline=None)
    @given(gridded(1, 1, 5), gridded(1, 1, 5))
    def test_every_start_equal(self, x_spans, y_spans):
        assert_matches_reference(operands(x_spans, y_spans))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 9), max_size=12),
        st.lists(st.integers(1, 9), max_size=12),
        st.integers(0, 6),
    )
    def test_one_group_per_side(self, x_durations, y_durations, gap):
        """X is one group at 3; Y is one group before, at, or after it."""
        assert_matches_reference(
            operands(
                [(3, d) for d in x_durations], [(gap, d) for d in y_durations]
            )
        )

    @pytest.mark.parametrize("late", ("x", "y"))
    def test_a_group_met_after_the_other_operand_is_exhausted(self, late):
        """Its members still probe, but are not stored: nothing is left
        for them to join ("only if the other side has more")."""
        early = [(0, 9), (0, 20), (2, 30)]
        group = [(5, 1), (5, 4), (5, 4), (5, 8)]
        sides = (group, early) if late == "x" else (early, group)
        assert_matches_reference(operands(*sides))
        _, counts, _ = observed(kernels.overlap_join_ts_ts, operands(*sides))
        assert counts["inserted"] == len(early)

    @pytest.mark.parametrize(
        "x_spans, y_spans",
        [
            ([], []),
            ([(4, 2)] * 5, []),
            ([], [(4, 2)] * 5),
            ([(4, 2)] * 5, [(4, 2)] * 5),  # duplicates, and X at p before Y at p
            ([(0, 3)] * 3 + [(3, 1)] * 3, [(3, 2)] * 4),  # zero gap: no overlap
            ([(0, 1), (0, 1)], [(1, 1), (1, 1)]),  # a group probing an all-dead list
        ],
    )
    def test_edges(self, x_spans, y_spans):
        assert_matches_reference(operands(x_spans, y_spans))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 60), unique=True, max_size=25),
        st.integers(1, 12),
    )
    def test_tie_free(self, starts, longest):
        """No two elements of either side share a ValidFrom (X on even
        chronons, Y on odd): the tail loop never runs."""
        x_spans = [(2 * a, 1 + a % longest) for a in starts[::2]]
        y_spans = [(2 * a + 1, 1 + a % longest) for a in starts[1::2]]
        assert_matches_reference(operands(x_spans, y_spans))


def bench_instance(scale):
    """``tie_overlap`` as the benchmark generates it (8 starts per grid
    point per side), loaded without putting ``bench/`` on ``sys.path``."""
    path = Path(__file__).resolve().parents[2] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.tie_overlap(1990, scale=scale)


@pytest.fixture(scope="module")
def tie_overlap():
    return bench_instance(16)


@pytest.fixture(scope="module")
def tie_operands(tie_overlap):
    """The join's operands as the planner's cell receives them."""
    return operands(
        *(
            [(t.valid_from, t.valid_to - t.valid_from) for t in side]
            for side in (
                operand.tuples(tie_overlap.catalog)
                for operand in tie_overlap.operands
            )
        )
    )


class CCalls(Counter):
    """C calls by qualified name.  A name the running interpreter's
    profiler cannot report (a C type's, before 3.12) raises instead of
    reading 0, so a count of it can never pass vacuously."""

    def __missing__(self, name):
        if not TYPE_CALLS_SEEN and any(
            isinstance(getattr(module, name, None), type)
            for module in (builtins, itertools)
        ):
            raise LookupError(
                f"the profiler does not report calls of the type {name!r}"
                " on this interpreter"
            )
        return 0


def c_calls(function, *args):
    """How often ``function`` calls each C function (by qualified name)."""
    calls = CCalls()

    def profiler(_frame, event, arg):
        if event == "c_call":  # ``get``: counting never asks ``__missing__``
            name = arg.__qualname__
            calls[name] = calls.get(name, 0) + 1

    sys.setprofile(profiler)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return result, calls


#: Whether the profiler reports calling a C *type* (``zip(...)``,
#: ``repeat(...)``) as a ``c_call``: CPython does not before 3.12.
TYPE_CALLS_SEEN = "zip" in c_calls(zip)[1]


def test_the_call_counter_reads_only_what_it_can_see():
    _, calls = c_calls(lambda: [len(()) for _ in zip((1,))])
    assert calls["len"] == 1 and calls["list.extend"] == 0
    if TYPE_CALLS_SEEN:
        assert calls["zip"] == 1
    else:
        with pytest.raises(LookupError, match="'zip'"):
            calls["zip"]
        with pytest.raises(LookupError, match="'repeat'"):
            calls["repeat"]


class TestTheStateIsVisitedOncePerGroup:
    def test_the_workload_is_mostly_tie_group_tails(self, tie_operands):
        x_ts, _, y_ts, _ = tie_operands
        steps = len(x_ts) + len(y_ts)
        groups = len(set(x_ts)) + len(set(y_ts))
        assert (steps - groups) / steps > 0.8

    def test_columnar_appends_less_than_once_per_pair(self, tie_operands):
        ((xi, _), _), calls = c_calls(
            kernels.overlap_join_ts_ts, *tie_operands
        )
        assert 0 < calls["list.append"] < len(xi)
        _, before = c_calls(reference_columnar, *tie_operands)
        assert before["list.append"] >= 2 * len(xi)

    def test_tails_emit_lists_not_repeat_iterators(
        self, tie_operands, monkeypatch
    ):
        # ``repeat`` is a type, which the profiler does not report as a
        # C call before Python 3.12: a module-level spy counts it.
        built = []

        def spy(*args):
            built.append(args)
            return itertools.repeat(*args)

        monkeypatch.setattr(kernels, "repeat", spy, raising=False)
        ((xi, _), _), calls = c_calls(
            kernels.overlap_join_ts_ts, *tie_operands
        )
        assert built == []
        x_ts, _, y_ts, _ = tie_operands
        tails = len(x_ts) - len(set(x_ts)) + len(y_ts) - len(set(y_ts))
        # Each tail member extends each index column once, by a list.
        assert 0 < calls["list.extend"] <= 2 * tails


class TestTheQuery:
    """``tie_overlap``'s text (a selection under the join, a three-column
    projection over it) through the hybrid executor."""

    MODES = {
        "serial": {},
        "inline-2": {"parallelism": 2, "parallel_mode": "inline"},
    }

    def rows(self, instance, backend, mode):
        plan = optimize(
            translate(parse_query(instance.text), instance.catalog)
        )
        planner = TemporalJoinPlanner(backend=backend, **self.MODES[mode])
        executed = execute_hybrid(plan, instance.catalog, planner=planner)
        (join,) = executed.stream_joins
        assert join.operator is TemporalOperator.OVERLAP_JOIN
        # The 2-shard plan wins here, so the shard merge is exercised.
        assert (join.parallel is None) == (mode == "serial")
        return executed.rows

    @pytest.mark.parametrize("mode", MODES)
    def test_every_backend_answers_the_conventional_plan(
        self, tie_overlap, mode
    ):
        oracle = Counter(
            run_query(
                tie_overlap.text, tie_overlap.catalog, streams=False
            ).rows
        )
        assert oracle
        answers = {
            backend: self.rows(tie_overlap, backend, mode)
            for backend in ("columnar", "fused", "auto")
        }
        for backend, rows in answers.items():
            assert Counter(rows) == oracle, backend
        assert answers["columnar"] == answers["fused"]
