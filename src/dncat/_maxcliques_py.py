"""Pure-Python maximal-clique enumeration over bitset adjacency rows."""

from __future__ import annotations

BACKEND = "python"


def maximal_cliques(masks, m: int) -> list[bytes]:
    """All maximal cliques of the graph whose row i has bit j set iff i~j
    (no row has its own bit set).

    Bron-Kerbosch with Tomita pivoting over Python integer bitsets: at each
    step the pivot is the vertex of cand | done with the most neighbours in
    cand, and only the candidates outside the pivot's row are tried.  Each
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
        pool, pivot, most = cand | done, 0, -1
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            count = (cand & masks[u]).bit_count()
            if count > most:
                pivot, most = u, count
            pool ^= low
        branch = cand & ~masks[pivot]
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
