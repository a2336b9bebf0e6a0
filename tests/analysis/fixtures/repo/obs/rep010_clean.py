"""REP010 clean twin: with-scoped spans."""


def traced_work(tracer, work):
    with tracer.span("work"):
        work()
