"""Small finite group multiplication tables used throughout the tests
and the bundled corpus."""

from __future__ import annotations

import itertools


def cyclic_table(n: int):
    """(table, unit, elements) for Z/n with elements g0..g{n-1}."""
    els = ["g%d" % k for k in range(n)]
    table = {(els[a], els[b]): els[(a + b) % n]
             for a in range(n) for b in range(n)}
    return table, els[0], els


def symmetric_table(n: int):
    """(table, unit, elements) for the symmetric group on n letters (n <= 4)."""
    perms = sorted(itertools.permutations(range(n)))
    names = {p: "s" + "".join(str(i) for i in p) for p in perms}
    table = {}
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(n))
            table[(names[p], names[q])] = names[pq]
    unit = names[tuple(range(n))]
    return table, unit, [names[p] for p in perms]
