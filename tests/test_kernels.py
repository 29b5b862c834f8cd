from hypothesis import example, given, settings, strategies as st

import dncat
from dncat._maxcliques_py import maximal_cliques
from dncat.edges import compatibility_masks
from dncat.triangulations import _flip_index, fan


def test_backend_selected():
    assert dncat.BACKEND == "python"


def test_maximal_cliques_small_graph():
    # triangle plus an isolated vertex
    masks = [0b0110, 0b0101, 0b0011, 0b0000]
    assert maximal_cliques(masks, 4) == [(0, 1, 2), (3,)]


def test_cliques_equal_flip_bfs_set():
    # Bron-Kerbosch on the compatibility graph and the flip-graph walk from
    # the fan reach the triangulations independently
    for n in (4, 5, 6, 7):
        masks = list(compatibility_masks(n))
        cliques = maximal_cliques(masks, len(masks))
        reached = [key for key, _ in reference_walk(n)]
        assert len(reached) == len(set(reached))
        assert set(cliques) == set(reached)


def reference_walk(n):
    """The breadth-first walk of the whole flip graph from the fan, every
    replacement found by _flip_index: (key, [(m, key2, m2) per edge m])."""
    key = fan(n).key
    seen, queue, out = {key}, [key], []
    for key in queue:
        flips = []
        for m in key:
            key2, m2 = _flip_index(n, key, m)
            if key2 not in seen:
                seen.add(key2)
                queue.append(key2)
            flips.append((m, key2, m2))
        out.append((key, flips))
    return out


def brute_force_maximal_cliques(masks, m):
    """Every vertex subset that is a clique and that no vertex extends, as
    sorted tuples in lexicographic order."""
    def clique(s):
        return all(s & ~(1 << v) & ~masks[v] == 0 for v in range(m) if s >> v & 1)

    def extendable(s):
        return any(not s >> u & 1 and s & ~masks[u] == 0 for u in range(m))

    found = [s for s in range(1, 1 << m) if clique(s) and not extendable(s)]
    return sorted(tuple(v for v in range(m) if s >> v & 1) for s in found)


def graphs():
    """(m, one bool per vertex pair i < j in lexicographic order)."""
    return st.integers(1, 10).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.booleans(), min_size=m * (m - 1) // 2,
                             max_size=m * (m - 1) // 2)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(graphs())
@example((10, [False] * 45))  # ten isolated vertices
@example((10, [True] * 45))  # the complete graph
@example((4, [True, True, False, True, False, False]))  # triangle plus an isolated vertex
def test_maximal_cliques_match_brute_force(graph):
    m, present = graph
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    masks = [0] * m
    for (i, j), edge in zip(pairs, present):
        if edge:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    assert maximal_cliques(masks, m) == brute_force_maximal_cliques(masks, m)
