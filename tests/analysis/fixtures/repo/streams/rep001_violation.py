"""REP001 fixture: raw ordered endpoint comparisons and sort keys."""


def strong_compare(a, b):
    return a.valid_from < b.valid_from


def strong_one_side(a, point):
    return point >= a.valid_to


def weak_pair(x, y):
    return x.start <= y.end


def chained(a, point):
    return a.valid_from <= point < a.valid_to


def sort_in_place(items):
    items.sort(key=lambda t: t.valid_from)


def sort_copy(items):
    return sorted(items, key=lambda t: (t.valid_from, t.valid_to))


def pick_latest(items):
    return max(items, key=lambda t: t.valid_to)


def restated_probe(state, ts):
    return [c for c in state if c.valid_from < ts]
