"""Query-level execution governance.

The paper bounds every stream operator's *workspace* (Tables 1-3), but
a production runtime also has to bound the *query*: how long it may
run, how many pages it may touch, and how much shared memory it may
map.  This package is that layer:

* :class:`QueryBudget` — declarative per-query caps (wall-clock
  deadline, workspace tuples, page reads, shared-memory bytes);
* :class:`CancellationToken` — the cooperative runtime carrier of a
  budget, checked at cheap existing checkpoints (page reads, pass
  boundaries, batch drains, shard-collect polls) and cancellable from
  any thread.

Breaches raise the typed :class:`~repro.errors.GovernanceError`
hierarchy, which the resilience ladder treats as non-retryable.
"""

from .budget import (
    CancellationToken,
    QueryBudget,
    active_token,
    governed,
    install_token,
)

__all__ = [
    "CancellationToken",
    "QueryBudget",
    "active_token",
    "governed",
    "install_token",
]
