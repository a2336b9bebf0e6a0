"""FIG4 — Figure 4: the grouped-sum stream processor.

Claims reproduced:

* on department-grouped input the processor's state is one
  (group, partial sum) pair regardless of stream length;
* it reads every record once (single pass);
* results equal a reference dictionary fold.
"""

from repro.streams import grouped_sum
from repro.workload import PayrollWorkload, expected_sums

from .conftest import print_table


def run_sum(records):
    processor = grouped_sum(
        records, key=lambda r: r.department, value=lambda r: r.salary
    )
    return processor.run(), processor.metrics


def test_fig4_grouped_sum():
    records = PayrollWorkload(
        departments=50, employees_per_department=100
    ).generate(seed=3)
    sums, metrics = run_sum(records)

    assert dict(sums) == expected_sums(records)
    assert metrics.state_high_water == 1
    assert metrics.records_read == len(records)


def test_fig4_state_constant_in_stream_length():
    rows = []
    for departments in (5, 50, 500):
        records = PayrollWorkload(
            departments=departments, employees_per_department=40
        ).generate(seed=4)
        _sums, metrics = run_sum(records)
        rows.append(
            f"{len(records):8d} {departments:12d} "
            f"{metrics.state_high_water:12d}"
        )
        assert metrics.state_high_water == 1
    print_table(
        "Figure 4 reproduced: workspace vs stream length",
        f"{'records':>8s} {'departments':>12s} {'peak state':>12s}",
        rows,
    )
