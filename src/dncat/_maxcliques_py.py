"""Pure-Python maximal-clique enumeration over bitset adjacency rows."""

from __future__ import annotations

BACKEND = "python"


def maximal_cliques(masks, m: int) -> list[tuple[int, ...]]:
    """All maximal cliques of the graph whose row i has bit j set iff i~j.

    Bron-Kerbosch over Python integer bitsets, candidates taken in ascending
    index order; the result is sorted lexicographically.  The recursion is
    one level per clique vertex plus one, so n + 1 on the compatibility
    graph of the n-gon, far inside the interpreter's default limit.
    """
    masks = list(masks)
    out: list[tuple[int, ...]] = []

    def expand(clique: list[int], cand: int, done: int) -> None:
        if cand == 0 and done == 0:
            out.append(tuple(clique))
            return
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            clique.append(v)
            expand(clique, cand & masks[v], done & masks[v])
            clique.pop()
            cand ^= low
            done |= low

    expand([], (1 << m) - 1, 0)
    out.sort()
    return out
