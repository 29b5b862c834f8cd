import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import dncat
from dncat import edges as ed
from dncat import quivers as qv
from dncat import triangulations as tr
from dncat._maxcliques_py import maximal_cliques
from dncat.edges import compatibility_masks
from dncat.errors import UnsupportedSizeError
from dncat.triangulations import _flip_index, fan


def test_backend_selected():
    assert dncat.BACKEND == "python"


def test_maximal_cliques_small_graph():
    # triangle plus an isolated vertex; each clique packed one byte a vertex
    masks = [0b0110, 0b0101, 0b0011, 0b0000]
    assert maximal_cliques(masks, 4) == [bytes([0, 1, 2]), bytes([3])]


def test_cliques_equal_flip_bfs_set():
    # Bron-Kerbosch on the compatibility graph and the flip-graph walk from
    # the fan reach the triangulations independently
    for n in (4, 5, 6, 7, 8):
        masks = list(compatibility_masks(n))
        cliques = maximal_cliques(masks, len(masks))
        reached = [key for key, _ in reference_walk(n)]
        assert len(reached) == len(set(reached))
        assert set(map(tuple, cliques)) == set(reached)


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


def moon_moser(m):
    """The complete multipartite graph with parts of 3: 3^(m/3) maximal
    cliques, the worst case for a pivoting search."""
    return m, [i // 3 != j // 3 for i in range(m) for j in range(i + 1, m)]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(graphs())
@example(moon_moser(9))
@example(moon_moser(12))
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
    # the packed cliques in the order of the sorted tuples
    assert maximal_cliques(masks, m) == list(map(bytes, brute_force_maximal_cliques(masks, m)))


def test_index_sets_are_the_flip_walk_in_order():
    for n in (4, 5, 6, 7):
        keys = tr._index_sets(n)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert list(map(tuple, keys)) == sorted(key for key, _ in reference_walk(n))


def test_enumerate_all_yields_tuple_keys():
    tris = list(tr.enumerate_all(5))
    assert all(type(t.key) is tuple for t in tris)
    assert [t.key for t in tris] == list(map(tuple, tr._index_sets(5)))


def test_packed_enumeration_memory():
    # 9,438 keys of 8 edges: 1.13 MB held as tuples, 0.46 MB as bytes
    ed.alphabet(8)
    tr._all_index_sets.cache_clear()
    tracemalloc.start()
    try:
        tr._all_index_sets(8)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 700_000


def test_class_walk_keeps_one_n():
    qv.transport_table.cache_clear()
    tr.class_graph.cache_clear()
    qv.transport_table(6)
    qv.transport_table(5)
    assert tr.class_graph.cache_info().currsize == 1


def test_enumeration_refuses_n_17_before_the_kernel(monkeypatch):
    # edge indices reach 17 * 17 - 1 = 288, past one byte
    def no_kernel(masks, m):
        raise AssertionError(f"kernel ran on {m} edges")

    monkeypatch.setattr(tr, "maximal_cliques", no_kernel)
    with pytest.raises(UnsupportedSizeError, match="n <= 16"):
        tr.count_all(17)
