import math
from collections import Counter

import pytest

from dncat.arquiver import (
    ARVertex,
    build_ar,
    phi,
    phi_inv,
    sigma_ar,
    tau_ar,
    tau_ar_inv,
    tau_orbits,
)
from dncat.edges import all_edges, plain, sigma, spoke, tau, wrap
from dncat.errors import InvalidVertexError


def test_vertex_count_matches_alphabet():
    for n in (5, 6):
        ar = build_ar(n)
        assert len(ar.vertices()) == n * n == len(all_edges(n))


def test_tau_examples():
    assert tau_ar(5, ARVertex(0, 5)) == ARVertex(4, 4)
    assert tau_ar(5, ARVertex(0, 4)) == ARVertex(4, 5)
    assert tau_ar(5, ARVertex(2, 3)) == ARVertex(1, 3)
    assert tau_ar(6, ARVertex(0, 6)) == ARVertex(5, 6)
    with pytest.raises(InvalidVertexError):
        tau_ar(5, ARVertex(5, 1))


def test_tau_is_a_bijection_of_known_order():
    for n in range(4, 9):
        vertices = build_ar(n).vertices()
        assert sorted(tau_ar(n, v).token() for v in vertices) == sorted(
            v.token() for v in vertices)
        for v in vertices:
            assert tau_ar_inv(n, tau_ar(n, v)) == v
        order = 1
        for orbit in tau_orbits(n):
            order = math.lcm(order, len(orbit))
        assert order == (n if n % 2 == 0 else 2 * n)


def test_sigma_examples():
    assert sigma_ar(7, ARVertex(3, 7)) == ARVertex(3, 6)
    assert sigma_ar(7, ARVertex(3, 6)) == ARVertex(3, 7)
    assert sigma_ar(7, ARVertex(2, 1)) == ARVertex(2, 1)
    for n in (5, 6):
        for v in build_ar(n).vertices():
            assert sigma_ar(n, sigma_ar(n, v)) == v


def test_phi_anchors():
    for n in (5, 8):
        for i in range(n):
            a = n if i == 0 else i
            assert phi(n, plain(a, wrap(n, a + 2))) == ARVertex(i, 1)
    # at the seam slice the plus spoke sits in the first fork column
    for n in (5, 6):
        assert phi(n, spoke(n, 1)) == ARVertex(0, n - 1)
        assert phi(n, spoke(n, -1)) == ARVertex(0, n)


def test_phi_bijection_and_intertwining():
    for n in range(4, 9):
        edges = all_edges(n)
        images = {phi(n, e) for e in edges}
        assert len(images) == n * n
        for e in edges:
            assert phi_inv(n, phi(n, e)) == e
            assert phi(n, tau(n, e)) == tau_ar(n, phi(n, e))
            assert phi(n, sigma(n, e)) == sigma_ar(n, phi(n, e))


def test_arrow_set():
    ar = build_ar(5)
    arrows = set(ar.arrows)
    assert (ARVertex(0, 1), ARVertex(0, 2)) in arrows
    assert (ARVertex(0, 2), ARVertex(1, 1)) in arrows  # mesh arrow to tau^-1 (0, 1)
    assert len(ar.arrows) == 2 * 4 * 5


def test_mesh_axiom():
    # every arrow x -> y of a stable translation quiver has its partner tau y -> x
    for n in range(4, 17):
        arrows = set(build_ar(n).arrows)
        for s, t in arrows:
            assert (tau_ar(n, t), s) in arrows, (n, s, t)


def test_arrows_are_translation_stable():
    for n in range(4, 9):
        arrows = set(build_ar(n).arrows)
        assert len(arrows) == 2 * (n - 1) * n
        for s, t in arrows:
            assert (tau_ar(n, s), tau_ar(n, t)) in arrows


def test_degree_profile_uniform_per_column():
    for n in (5, 6, 7):
        ar = build_ar(n)
        indeg = Counter()
        outdeg = Counter()
        for s, t in ar.arrows:
            outdeg[s] += 1
            indeg[t] += 1
        for j in range(1, n + 1):
            profiles = {(indeg[ARVertex(i, j)], outdeg[ARVertex(i, j)])
                        for i in range(n)}
            assert len(profiles) == 1


def test_tokens_and_dot():
    assert ARVertex(2, 3).token() == "t:2:3"
    dot = build_ar(5).to_dot(tau_ranks=True)
    assert '"t:0:1" -> "t:0:2"' in dot
    assert "rank=same" in dot
    payload = build_ar(4).to_json()
    assert payload["n"] == 4 and len(payload["vertices"]) == 16
