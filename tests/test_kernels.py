import dncat
from dncat._maxcliques_py import maximal_cliques
from dncat.edges import compatibility_masks
from dncat.triangulations import walk_flip_graph


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
        reached = [key for key, _ in walk_flip_graph(n)]
        assert len(reached) == len(set(reached))
        assert set(cliques) == set(reached)
