"""REP010 violating twin: Span construction outside the sanctioned
modules."""


def ad_hoc_span(tracer, Span):
    span = Span(tracer, "adhoc", 1, None, 0, {})
    span.end_ns = 1
    return span
