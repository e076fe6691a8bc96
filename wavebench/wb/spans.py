"""The traced run's span model.

A span is ``(name, request, parent, start_ns, end_ns)``; all spans of one
request share the request id, and ``parent`` indexes the enclosing span
(None at the top). A span's self time is its duration minus the part of
its interval that its children cover.
"""

import collections

NAME, REQ, PARENT, START, END = range(5)


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time (ns) of every span, by index."""
    children = collections.defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [s[END] - s[START] - covered(children[i]) for i, s in enumerate(spans)]


def by_request(spans):
    """Per request id: {span name: [(duration ns, self ns), ...]}."""
    selfs = self_times(spans)
    out = collections.defaultdict(lambda: collections.defaultdict(list))
    for span, self_ns in zip(spans, selfs):
        out[span[REQ]][span[NAME]].append((span[END] - span[START], self_ns))
    return out


def total(entry, name):
    """Summed duration (ns) of every span called ``name``."""
    return sum(d for d, _ in entry.get(name, ()))


def self_total(entry, name):
    return sum(s for _, s in entry.get(name, ()))
