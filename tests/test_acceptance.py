"""Acceptance criteria, one test per criterion, each printing a PASS line.

All checks are exact; run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion report.
"""

import sys

from dncat import edges as ed
from dncat import quivers as qv
from dncat import triangulations as tr
from dncat import verify as vf
from dncat.arquiver import build_ar, phi, phi_inv, sigma_ar, tau_ar


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion:2d}: {text}", file=sys.stderr, flush=True)


def test_criterion_01_triangulation_sizes():
    masks_checked = 0
    for n in range(4, 9):
        masks = ed.compatibility_masks(n)
        for tri in tr.enumerate_all(n):
            assert len(tri.edges) == n
            member_bits = 0
            inter = (1 << len(masks)) - 1
            for i in tri.key:
                member_bits |= 1 << i
                inter &= masks[i]
            assert inter & ~member_bits == 0  # maximal: no compatible edge left
            masks_checked += 1
    report(1, f"every maximal non-crossing set has n edges for n=4..8 "
              f"({masks_checked} sets)")


def test_criterion_02_enumeration_counts():
    for n in (4, 5, 6):
        got = tr.count_all(n)
        want = tr.cluster_count_formula(n)
        assert got == want, (n, got, want)
    report(2, "brute-force counts equal the cluster-count formula at n=4,5,6 "
              "(50, 182, 672)")


def test_criterion_03_type1_class_count_at_five():
    census = tr.class_census(5)
    assert census[1] == 15
    report(3, "fifteen type-1 classes at n=5")


def test_criterion_04_classification_totality():
    total = 0
    for n in range(4, 9):
        for tri in tr.enumerate_all(n):
            preds = vf._type_predicates(tri)
            assert sum(preds) == 1
            assert preds.index(True) + 1 == tr.classify_type(tri)
            total += 1
    report(4, f"every triangulation at n=4..8 matches exactly one type "
              f"({total} triangulations)")


def test_criterion_05_flip_mutation_commutation():
    checked = 0
    for n in range(4, 8):
        qv.transport_table(n)  # raises on any path dependence
        for tri in tr.enumerate_all(n):
            q = qv.quiver_of(tri)
            for m in tri.edges:
                tri2, m2 = tr.flip(tri, m)
                i, i2 = ed.edge_index(n, m), ed.edge_index(n, m2)
                moved = qv.mutate(q, i).relabel({i: i2})
                assert moved == qv.quiver_of(tri2)
                checked += 1
    report(5, f"transport commutes with every flip and is path independent "
              f"at n=4..7 ({checked} flips)")


def test_criterion_06_oracle_equivalence():
    checked = 0
    for n in range(4, 8):
        for tri in tr.enumerate_all(n):
            direct = qv.direct_quiver_of(tri)
            assert direct == qv.quiver_of(tri)
            checked += 1
    report(6, f"template construction equals mutation transport at n=4..7 "
              f"({checked} quivers)")


def test_criterion_07_class_quiver_bijection():
    for n in (5, 6, 7):
        classes = tr.equivalence_classes(n)
        keys = {}
        for cls in classes:
            key = qv.canonical_key(qv.quiver_of(cls.representative))
            assert key not in keys, (
                f"classes {keys[key].representative.token()} and "
                f"{cls.representative.token()} share a quiver at n={n}"
            )
            keys[key] = cls
        assert len(keys) == len(classes)
    report(7, "classes map bijectively onto quiver iso-classes at n=5,6,7")


def test_criterion_08_d4_failure():
    witness = vf.find_d4_witness()
    assert witness is not None
    a, b = witness
    assert tr.canonical_form(a.representative)[0] != tr.canonical_form(b.representative)[0]
    iso, mapping = qv.is_isomorphic(qv.quiver_of(a.representative),
                                    qv.quiver_of(b.representative))
    assert iso and mapping
    report(8, f"inequivalent pair with isomorphic quivers at n=4: "
              f"{a.representative.token()} vs {b.representative.token()}")


def test_criterion_09_quotient_laws():
    checked = 0
    for n in (5, 6):
        for tri in tr.enumerate_all(n):
            q = qv.quiver_of(tri)
            for m in tri.edges:
                kind = ed.classify_edge(n, m)
                cut = qv.delete_vertex(q, ed.edge_index(n, m))
                connected = qv.is_connected(cut)
                in_d = connected and qv.in_mutation_class_d(cut, n - 1)
                in_a = connected and qv.in_mutation_class_a(cut, n - 1)
                assert in_d == (kind == ed.CLOSE_TO_BORDER), (tri.token(), m.token())
                assert in_a == (kind == ed.DEGENERATE), (tri.token(), m.token())
                checked += 1
    report(9, f"deletion lands in D(n-1) iff close to border and in A(n-1) "
              f"iff degenerate, n=5,6 ({checked} deletions)")


def test_criterion_10_local_structure():
    for n in (5, 6, 7):
        suite = vf.suite_types(n)
        for name, fails in suite.checks:
            assert not fails, (n, name, fails[:3])
    report(10, "separation, region-neighbor, border-vertex structure, and "
               "no-multiple-arrow facts hold at n=5,6,7")


def test_criterion_11_ar_model_coherence():
    for n in range(4, 9):
        edges = ed.all_edges(n)
        images = {phi(n, e) for e in edges}
        assert len(images) == n * n
        for e in edges:
            assert phi_inv(n, phi(n, e)) == e
            assert phi(n, ed.tau(n, e)) == tau_ar(n, phi(n, e))
            assert phi(n, ed.sigma(n, e)) == sigma_ar(n, phi(n, e))
        arrows = set(build_ar(n).arrows)
        for s, t in arrows:
            assert (tau_ar(n, s), tau_ar(n, t)) in arrows
    report(11, "edge correspondence is a bijection intertwining translation "
               "and tag swap for n=4..8")
