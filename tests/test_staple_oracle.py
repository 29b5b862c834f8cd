import pytest

from dncat.edges import all_edges, crossing_number, plain, spoke
from dncat.staple import least_crossings, realizations, staple_crossing_number


def test_oracle_values():
    assert staple_crossing_number(6, plain(1, 4), plain(3, 2)) == 2
    assert staple_crossing_number(6, plain(1, 4), spoke(2, 1)) == 1
    assert staple_crossing_number(6, plain(1, 4), plain(4, 1)) == 0
    # nested arcs sharing an endpoint can always dodge each other
    assert staple_crossing_number(8, plain(1, 3), plain(1, 4)) == 0
    assert staple_crossing_number(5, plain(1, 3), plain(3, 1)) == 0


def test_oracle_rejects_spoke_pairs():
    with pytest.raises(ValueError):
        staple_crossing_number(5, spoke(1, 1), spoke(2, -1))


def test_oracle_matches_crossing_rule_exhaustively():
    for n in range(4, 10):
        edges = all_edges(n)
        for i, m in enumerate(edges):
            for other in edges[i:]:
                if m.is_spoke and other.is_spoke:
                    continue
                assert staple_crossing_number(n, m, other) == crossing_number(n, m, other), (
                    n, m.token(), other.token(),
                )


def test_realizations_built_once_give_the_oracle():
    # the crossing suite builds each edge's staples once and takes the
    # minimum pair by pair; staple_crossing_number is the reference
    for n in range(4, 9):
        edges = all_edges(n)
        curves = [realizations(n, e) for e in edges]
        for i, m in enumerate(edges):
            for j in range(i + 1, len(edges)):
                if m.is_spoke and edges[j].is_spoke:
                    continue
                assert least_crossings(curves[i], curves[j]) == (
                    staple_crossing_number(n, m, edges[j])), (n, m.token(), edges[j].token())
