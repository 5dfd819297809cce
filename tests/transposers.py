"""Permutation helpers for the block-witness tests.

No construction route needs these, so they live with the tests that use
them: find_commuting_transposer is checked against a brute force over
every loopless digraph of order <= 4 in test_iso.
"""

from dsrg import BinMatrix, PermSpec


def block_diag(parts):
    """Concatenate permutations acting on consecutive index blocks."""
    images = []
    for p in parts:
        offset = len(images)
        images.extend(offset + v for v in p.images)
    return PermSpec(tuple(images))


def compose(p, q):
    """The permutation i -> p(q(i))."""
    return PermSpec(tuple(p.images[i] for i in q.images))


def find_commuting_transposer(a: BinMatrix):
    """Permutation p whose matrix P satisfies P*A = A^T = A*P, if any.

    P*A = A^T pins row p(i) of A to column i of A, so column i takes the
    first unused row equal to it.  The other side needs no check: P*A = A^T
    transposes to A^T*P^T = A, and P^T = P^-1 gives A*P = A^T (so p is
    also an automorphism of A).  A greedy O(n^2) pass with no search.
    """
    by_row = {}
    for w, row in enumerate(a.rows):
        by_row.setdefault(row, []).append(w)
    # rows with equal values are interchangeable, so handing out equal rows
    # in ascending order finds a bijection whenever one exists and never
    # needs to backtrack
    supply = {value: iter(ws) for value, ws in by_row.items()}
    images = []
    for value in a.transpose().rows:
        w = next(supply.get(value, iter(())), None)
        if w is None:
            return None
        images.append(w)
    return PermSpec(tuple(images))
