"""Pure-Python maximal-clique enumeration over bitset adjacency rows."""

from __future__ import annotations

BACKEND = "python"


def maximal_cliques(masks, m: int) -> list[bytes]:
    """All maximal cliques of the graph whose row i has bit j set iff i~j
    (no row has its own bit set).

    Bron-Kerbosch over Python integer bitsets, pivoting on the highest
    candidate: only the candidates outside its row are tried.  Any vertex of
    cand | done is a valid pivot, so each maximal clique is found once; this
    rule needs no scan per node, and on the compatibility graphs the package
    enumerates (n = 4..12) it measured faster than Tomita's most-neighbours
    pivot and the other scan-free choices, despite a larger search tree.  Each
    clique is packed as bytes(sorted(clique)), one byte per vertex, so every
    vertex index must be below 256; bytes sort lexicographically as the
    tuples of the same indices do, and the result is sorted that way.
    The recursion is one level per clique vertex plus one, so n + 1 on the
    compatibility graph of the n-gon, far inside the interpreter's default
    limit.
    """
    masks = list(masks)
    out: list[bytes] = []

    def expand(clique: list[int], cand: int, done: int) -> None:
        if cand == 0:
            if done == 0:
                out.append(bytes(sorted(clique)))
            return
        branch = cand & ~masks[cand.bit_length() - 1]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            clique.append(v)
            expand(clique, cand & masks[v], done & masks[v])
            clique.pop()
            cand ^= low
            done |= low
            branch ^= low

    expand([], (1 << m) - 1, 0)
    out.sort()
    return out
