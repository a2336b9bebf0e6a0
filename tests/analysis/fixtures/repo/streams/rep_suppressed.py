"""Suppression fixture: noqa comments silence rules per line."""


def tolerated(value):
    assert value is not None  # repro: noqa(REP006)
    return value


def blanket(a, b):
    return a.valid_from < b.valid_from  # repro: noqa


def wrong_code(a, b):
    return a.valid_to < b.valid_to  # repro: noqa(REP003)


def in_string():
    return "# repro: noqa"
