"""The paper's Tables 1-3, checked before anything runs.

The paper's claims are structural: which (operator, sort-order) cells
of Tables 1-3 admit single-pass evaluation and how much workspace each
retains.  The test suite enforces those claims dynamically; this
package re-derives them symbolically:

* :mod:`repro.analysis.tables` — Tables 1-3 encoded as data plus a
  symbolic derivation of single-pass admissibility from each cell's
  sort orders and operator condition (an inequality-closure theorem
  check built on :mod:`repro.semantic.inequality_graph`);
* :mod:`repro.analysis.check_registry` — fails when the code's
  registry disagrees with the paper's tables or with the derivation.

CLI: ``python -m repro.analysis [--json FILE]`` (exit 0 when all 120
cells agree, 1 otherwise).  See ``docs/STATIC_ANALYSIS.md``.
"""
