import pytest

from dncat import triangulations as tr
from dncat.edges import (
    CLOSE_TO_BORDER,
    TaggedEdge,
    alphabet,
    classify_edge,
    edge_index,
    ext_dim,
    plain,
    spoke,
    tau,
    wrap,
)
from dncat.errors import (
    InvalidEdgeError,
    InvalidQuotientError,
    ModelInconsistencyError,
    NotATriangulationError,
    UnsupportedSizeError,
)
from dncat.quivers import delete_vertex, quiver_of
from dncat.triangulations import (
    Triangulation,
    _quotient_rows,
    apply_sigma,
    apply_tau,
    canonical_form,
    class_census,
    class_count_formula,
    classify_type,
    cluster_count_formula,
    count_all,
    enumerate_all,
    equivalence_classes,
    fan,
    flip,
    is_triangulation,
    orbit,
    pairwise_hom_matrix,
    parse_triangulation,
    quotient,
    quotient_map,
    type_census,
)

ALL_SPOKES_5 = [spoke(v, 1) for v in range(1, 6)]


def test_is_triangulation_examples():
    assert is_triangulation(5, fan(5).edges)
    assert is_triangulation(5, ALL_SPOKES_5)
    assert not is_triangulation(5, [spoke(1, 1), spoke(2, -1)])
    assert not is_triangulation(5, fan(5).edges[:4])  # not maximal


def test_from_edges_reports_witnesses():
    with pytest.raises(NotATriangulationError, match="cross"):
        Triangulation.from_edges(5, [spoke(1, 1), spoke(2, -1), plain(3, 5),
                                     plain(3, 1), plain(1, 3)])
    with pytest.raises(NotATriangulationError, match="not maximal"):
        Triangulation.from_edges(5, fan(5).edges[:4])


def test_enumeration_counts_match_formula():
    assert count_all(4) == 50
    assert count_all(5) == 182
    assert cluster_count_formula(4) == 50
    assert cluster_count_formula(5) == 182
    assert cluster_count_formula(6) == 672
    for n in range(4, 9):
        assert count_all(n) == cluster_count_formula(n)


def test_enumeration_is_sorted_and_sized():
    for n in (4, 5, 6):
        previous = None
        for tri in enumerate_all(n):
            assert len(tri.edges) == n
            key = tri.key
            if previous is not None:
                assert previous < key
            previous = key


def test_enumeration_bound():
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_all(3))


def test_fan_flip_examples():
    tri, replacement = flip(fan(5), spoke(1, 1))
    assert replacement == spoke(5, -1)
    tri2, replacement2 = flip(fan(5), plain(1, 3))
    assert replacement2 == plain(2, 4)
    back, again = flip(tri, replacement)
    assert back == fan(5) and again == spoke(1, 1)


def test_every_flip_is_unique_and_involutive():
    for n in (4, 5, 6):
        for tri in enumerate_all(n):
            for m in tri.edges:
                flipped, replacement = flip(tri, m)
                assert replacement != m
                assert m not in flipped.edges
                assert flip(flipped, replacement) == (tri, m)


def test_flip_requires_membership():
    with pytest.raises(NotATriangulationError):
        flip(fan(5), plain(2, 4))


def test_canonical_form_orbit():
    tri = Triangulation.from_edges(5, ALL_SPOKES_5)
    rep, size = canonical_form(tri)
    assert size == 2  # the orbit is {all +1, all -1}
    assert {t.token() for t in orbit(tri)} == {
        "s:1:+,s:2:+,s:3:+,s:4:+,s:5:+",
        "s:1:-,s:2:-,s:3:-,s:4:-,s:5:-",
    }
    for n in (4, 5, 6):
        for tri in list(enumerate_all(n))[::17]:
            rep, size = canonical_form(tri)
            assert canonical_form(apply_tau(tri))[0] == rep
            assert canonical_form(apply_sigma(tri))[0] == rep
            assert canonical_form(rep) == (rep, size)
            assert size == len(orbit(tri))
            assert (2 * n) % size == 0  # orbit size divides the group order


def test_classification_examples():
    assert classify_type(fan(5)) == 1
    type2 = Triangulation.from_edges(
        5, [spoke(1, 1), spoke(1, -1), plain(1, 3), plain(3, 1), plain(3, 5)])
    assert classify_type(type2) == 2
    type3 = Triangulation.from_edges(
        5, [spoke(1, 1), spoke(3, 1), plain(1, 3), plain(3, 1), plain(3, 5)])
    assert classify_type(type3) == 3
    assert classify_type(Triangulation.from_edges(5, ALL_SPOKES_5)) == 4


def test_census_at_five():
    assert type_census(5) == {1: 100, 2: 20, 3: 20, 4: 42}
    assert class_census(5) == {1: 15, 2: 4, 3: 2, 4: 5}
    assert len(equivalence_classes(5)) == 26


def test_class_count_matches_the_mutation_class_formula():
    # Classes correspond to the quivers of Mut(D_n), whose number is
    # (1/2n) sum_{d | n} phi(n/d) C(2d, d) (Buan-Torkildsen, arXiv:0812.2240).
    for n in range(4, 10):
        assert len(equivalence_classes(n)) == class_count_formula(n)


def test_class_count_formula_values():
    assert [class_count_formula(n) for n in range(4, 11)] == [
        10, 26, 80, 246, 810, 2704, 9252]


def test_class_representatives_are_canonical():
    for n in (4, 5):
        total = 0
        for cls in equivalence_classes(n):
            assert canonical_form(cls.representative) == (cls.representative,
                                                          cls.orbit_size)
            assert classify_type(cls.representative) == cls.type
            total += cls.orbit_size
        assert total == count_all(n)


def test_group_lists_each_element_once():
    # for odd n, tau^n is the tag swap: the order-2n translation and the
    # swap generate 2n elements, not 4n
    for n in range(4, 12):
        group = tr._group(n)
        assert len(set(group)) == len(group) == 2 * n
        assert group[:2] == (tuple(range(n * n)), alphabet(n).sigma)


def test_equivalence_classes_refuse_an_orbit_outside_the_enumeration(monkeypatch):
    # a group element that breaks a triangulation marks no other key
    group = tr._group(5)
    swap = list(group[0])
    swap[0], swap[-1] = swap[-1], swap[0]  # p:1-3 <-> a spoke
    monkeypatch.setattr(tr, "_group", lambda n: group + (tuple(swap),))
    with pytest.raises(ModelInconsistencyError, match="leaves the enumeration"):
        equivalence_classes.__wrapped__(5)


def test_quotient_examples():
    assert quotient(fan(6), plain(1, 3)) == fan(5)
    all_spokes = Triangulation.from_edges(5, ALL_SPOKES_5)
    with pytest.raises(InvalidQuotientError):
        quotient(all_spokes, spoke(1, 1))
    with pytest.raises(InvalidQuotientError):
        quotient(fan(6), plain(1, 4))


def test_quotient_preserves_spokes_and_validity():
    for tri in list(enumerate_all(6))[::7]:
        for m in tri.edges:
            if classify_edge(6, m) != CLOSE_TO_BORDER:
                continue
            reduced = quotient(tri, m)
            assert reduced.n == 5
            assert is_triangulation(5, reduced.edges)
            assert (len([e for e in reduced.edges if e.is_spoke])
                    == len([e for e in tri.edges if e.is_spoke]))


def test_quotient_map_carries_the_cut_quiver_onto_the_quotient_quiver():
    # labelled, not up to isomorphism: the quiver of tri minus m, renamed by
    # the quotient's edge map, is the quotient's quiver
    checked = 0
    for n in (5, 6, 7):
        for tri in enumerate_all(n):
            q = quiver_of(tri)
            for i, m in zip(tri.key, tri.edges):
                if classify_edge(n, m) != CLOSE_TO_BORDER:
                    continue
                reduced = quotient(tri, m)
                emap = quotient_map(tri, m)
                assert tuple(sorted(emap.values())) == reduced.key
                moved = delete_vertex(q, i).relabel(emap)
                expected = quiver_of(reduced)
                assert (moved.vertices, moved.arrows) == (expected.vertices, expected.arrows)
                checked += 1
    assert checked == 6046


def test_quotient_rows_equal_the_edge_relabel():
    # per close-to-border arc M(a, a+2): every edge not at a+1, relabelled
    # down past it, and checked as an edge of the (n-1)-gon
    for n in range(5, 11):
        edges = alphabet(n).edges
        rows = _quotient_rows(n)
        assert sorted(rows) == [i for i, e in enumerate(edges)
                                if classify_edge(n, e) == CLOSE_TO_BORDER]
        for i, row in rows.items():
            dropped = wrap(n, edges[i].a + 1)
            want = []
            for e in edges:
                if dropped in (e.a, e.b):
                    want.append(None)
                    continue
                a, b = (v if v < dropped else v - 1 for v in (e.a, e.b))
                try:
                    want.append(edge_index(n - 1, TaggedEdge(a, b, e.tag)))
                except InvalidEdgeError:  # an arc over a+1 left too short
                    want.append(None)
            assert row == tuple(want)


def test_quotient_wraparound_labels():
    # deleting vertex n (arc n-1 -> 1) and vertex 1 (arc n -> 2)
    tri = fan(5)
    shifted = apply_tau(tri)  # fan at vertex 5, contains p:5-2
    reduced = quotient(shifted, plain(5, 2))
    assert reduced.n == 4
    assert is_triangulation(4, reduced.edges)


def test_hom_matrix():
    matrix = pairwise_hom_matrix(fan(5))
    assert matrix[0][1] == 1  # hom(p:1-3, p:1-4)
    assert sum(map(sum, matrix)) == 14
    for n in (5, 6):
        for tri in list(enumerate_all(n))[::23]:
            matrix = pairwise_hom_matrix(tri)
            image = apply_tau(tri)
            translated = pairwise_hom_matrix(image)
            # entries are translation invariant once the re-sorted edge
            # positions are matched up
            perm = [image.edges.index(tau(n, m)) for m in tri.edges]
            for i in range(n):
                for j in range(n):
                    assert translated[perm[i]][perm[j]] == matrix[i][j]
            for i, m in enumerate(tri.edges):
                for j, other in enumerate(tri.edges):
                    if i != j:
                        assert ext_dim(n, m, other) == 0


def test_degenerate_edge_facts():
    for n in (4, 5, 6):
        for tri in enumerate_all(n):
            spokes = [e for e in tri.edges if e.is_spoke]
            assert len(spokes) >= 2
            bases = [s.a for s in spokes]
            if len(set(bases)) == len(bases):  # no double
                assert len({s.tag for s in spokes}) == 1


def test_parse_round_trip():
    for n in (4, 5):
        for tri in list(enumerate_all(n))[::11]:
            assert parse_triangulation(n, tri.token()) == tri
