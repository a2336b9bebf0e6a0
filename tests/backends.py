"""The backends that are distinct physical paths, for tests that run
each one: the tuple processors (the oracle) and the batch sweep.
"fused" is a second name for the batch path, so it adds no path."""

PHYSICAL_BACKENDS = ("tuple", "columnar")
