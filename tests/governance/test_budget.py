"""Unit behaviour of QueryBudget, CancellationToken, and the
thread-local ``governed`` installation: deadlines fire at checkpoints,
caps are terminal, and tokens nest."""

import threading

import pytest

from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    QueryCancelledError,
)
from repro.governance import (
    CancellationToken,
    QueryBudget,
    active_token,
    governed,
    install_token,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestQueryBudget:
    def test_default_is_unbounded(self):
        budget = QueryBudget()
        assert not budget.is_bounded()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": 5.0},
            {"workspace_tuple_cap": 10},
            {"page_read_cap": 100},
            {"shm_byte_cap": 1 << 20},
        ],
    )
    def test_any_cap_makes_it_bounded(self, kwargs):
        assert QueryBudget(**kwargs).is_bounded()

    def test_with_deadline_keeps_the_tighter_one(self):
        loose = QueryBudget(deadline_seconds=10.0)
        assert loose.with_deadline(2.0).deadline_seconds == 2.0
        tight = QueryBudget(deadline_seconds=1.0)
        assert tight.with_deadline(5.0) is tight

    def test_with_deadline_preserves_other_caps(self):
        budget = QueryBudget(workspace_tuple_cap=7)
        merged = budget.with_deadline(3.0)
        assert merged.deadline_seconds == 3.0
        assert merged.workspace_tuple_cap == 7


class TestCancellationToken:
    def test_deadline_raises_at_next_checkpoint(self):
        clock = FakeClock()
        token = CancellationToken(
            QueryBudget(deadline_seconds=1.0), clock=clock
        )
        token.check()  # within budget
        clock.advance(1.5)
        with pytest.raises(DeadlineExceededError) as info:
            token.check()
        assert info.value.elapsed == pytest.approx(1.5)

    def test_remaining_goes_negative_past_the_deadline(self):
        clock = FakeClock()
        token = CancellationToken(
            QueryBudget(deadline_seconds=1.0), clock=clock
        )
        assert token.remaining() == pytest.approx(1.0)
        clock.advance(2.0)
        assert token.remaining() == pytest.approx(-1.0)
        assert CancellationToken(QueryBudget()).remaining() is None

    def test_cancel_observed_at_checkpoint_from_any_thread(self):
        token = CancellationToken()
        thread = threading.Thread(
            target=token.cancel, args=("client disconnect",)
        )
        thread.start()
        thread.join()
        with pytest.raises(QueryCancelledError) as info:
            token.check()
        assert info.value.reason == "client disconnect"

    def test_page_cap_is_terminal(self):
        token = CancellationToken(QueryBudget(page_read_cap=2))
        token.charge_pages()
        token.charge_pages()
        with pytest.raises(BudgetExceededError) as info:
            token.charge_pages()
        assert info.value.resource == "pages"
        assert info.value.spent == 3 and info.value.cap == 2

    def test_workspace_cap_tracks_peak_not_total(self):
        token = CancellationToken(QueryBudget(workspace_tuple_cap=5))
        token.charge_workspace(3)
        token.charge_workspace(2)  # shrank — concurrent size, not sum
        assert token.workspace_peak == 3
        with pytest.raises(BudgetExceededError) as info:
            token.charge_workspace(6)
        assert info.value.resource == "workspace"

    def test_shm_cap_accumulates(self):
        token = CancellationToken(QueryBudget(shm_byte_cap=100))
        token.charge_shm(60)
        with pytest.raises(BudgetExceededError) as info:
            token.charge_shm(60)
        assert info.value.resource == "shm_bytes"
        assert info.value.spent == 120

    def test_as_dict_reports_spend(self):
        token = CancellationToken(QueryBudget(deadline_seconds=9.0))
        token.charge_pages(4)
        token.charge_workspace(2)
        summary = token.as_dict()
        assert summary["pages_read"] == 4
        assert summary["workspace_peak"] == 2
        assert summary["budget"]["deadline_seconds"] == 9.0
        assert summary["cancelled"] is False


class TestGoverned:
    def test_no_token_by_default(self):
        assert active_token() is None

    def test_governed_installs_and_restores(self):
        with governed(deadline=5.0) as token:
            assert active_token() is token
            assert token.budget.deadline_seconds == 5.0
        assert active_token() is None

    def test_governed_blocks_nest(self):
        with governed(deadline=10.0) as outer:
            with governed(deadline=1.0) as inner:
                assert active_token() is inner
            assert active_token() is outer
        assert active_token() is None

    def test_governed_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with governed(deadline=5.0):
                raise RuntimeError("boom")
        assert active_token() is None

    def test_existing_token_passes_through(self):
        token = CancellationToken()
        with governed(token=token) as active:
            assert active is token

    def test_install_token_returns_previous(self):
        first = CancellationToken()
        assert install_token(first) is None
        assert install_token(None) is first
        assert active_token() is None

    def test_tokens_are_thread_local(self):
        seen = []
        with governed(deadline=5.0):
            thread = threading.Thread(
                target=lambda: seen.append(active_token())
            )
            thread.start()
            thread.join()
        assert seen == [None]
