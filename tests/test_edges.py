import os
import subprocess
import sys
from pathlib import Path

import pytest

import dncat
from dncat import edges as ed
from dncat.edges import (
    Alphabet,
    alphabet,
    all_edges,
    classify_edge,
    compatibility_masks,
    crossing_number,
    delta_length,
    edge_index,
    ext_dim,
    hom_dim,
    parse_edge,
    plain,
    sigma,
    spoke,
    tau,
    tau_inv,
    tau_order,
)
from dncat.errors import InvalidEdgeError, InvalidVertexError, UnsupportedSizeError

import test_faults as tf


def test_delta_length_examples():
    assert delta_length(8, 1, 2) == 2
    assert delta_length(8, 3, 3) == 9  # full loop is n + 1
    assert delta_length(8, 3, 1) == 7  # count 3,4,5,6,7,8,1 by hand


def test_delta_length_rejects_bad_vertices():
    with pytest.raises(InvalidVertexError):
        delta_length(8, 0, 3)
    with pytest.raises(InvalidVertexError):
        delta_length(8, 1, 9)


def test_alphabet_sizes():
    assert len(all_edges(4)) == 16  # 8 plain + 8 spokes
    assert len(all_edges(5)) == 25  # 15 plain + 10 spokes
    for n in range(4, 9):
        edges = all_edges(n)
        assert len(edges) == n * n
        assert sum(1 for e in edges if e.is_plain) == n * (n - 2)
        assert all(3 <= delta_length(n, e.a, e.b) <= n for e in edges if e.is_plain)


def test_alphabet_rejects_small_polygons():
    with pytest.raises(UnsupportedSizeError):
        all_edges(3)


def test_edge_classification():
    assert classify_edge(8, plain(1, 3)) == "closeToBorder"
    assert classify_edge(8, spoke(2, 1)) == "degenerate"
    assert classify_edge(8, plain(1, 5)) == "connected"


def test_illegal_edges_rejected():
    with pytest.raises(InvalidEdgeError):
        classify_edge(8, plain(1, 2))  # length 2
    with pytest.raises(InvalidEdgeError):
        crossing_number(5, spoke(1, 0), spoke(2, 1))


def test_crossing_examples():
    assert crossing_number(8, spoke(2, 1), spoke(3, -1)) == 1
    assert crossing_number(8, spoke(2, 1), spoke(3, 1)) == 0
    assert crossing_number(8, spoke(2, 1), spoke(2, -1)) == 0
    # values frozen from the staple arrangement oracle
    assert crossing_number(6, plain(1, 4), plain(3, 2)) == 2
    assert crossing_number(6, plain(1, 4), spoke(2, 1)) == 1
    assert crossing_number(6, plain(1, 4), spoke(2, -1)) == 1
    assert crossing_number(6, plain(1, 4), plain(4, 1)) == 0
    for n in range(4, 8):
        for e in all_edges(n):
            assert crossing_number(n, e, e) == 0


def test_crossing_symmetry_and_invariance_exhaustive():
    for n in range(4, 8):
        edges = all_edges(n)
        for i, m in enumerate(edges):
            for other in edges[i:]:
                e = crossing_number(n, m, other)
                assert e == crossing_number(n, other, m)
                assert e in (0, 1, 2)
                if e == 2:
                    assert m.is_plain and other.is_plain
                assert e == crossing_number(n, tau(n, m), tau(n, other))
                assert e == crossing_number(n, sigma(n, m), sigma(n, other))


def test_tau_examples():
    assert tau(8, plain(1, 3)) == plain(8, 2)
    assert tau(8, spoke(1, 1)) == spoke(8, -1)
    for n in (5, 8):
        for e in all_edges(n):
            assert tau_inv(n, tau(n, e)) == e
            if e.is_plain:
                img = e
                for _ in range(n):
                    img = tau(n, img)
                assert img == e


def test_sigma_examples():
    assert sigma(8, plain(1, 4)) == plain(1, 4)
    assert sigma(8, spoke(3, 1)) == spoke(3, -1)
    for n in (5, 6):
        for e in all_edges(n):
            assert sigma(n, sigma(n, e)) == e
            assert sigma(n, tau(n, e)) == tau(n, sigma(n, e))


def test_tau_sigma_are_bijections_with_known_order():
    for n in range(4, 9):
        edges = all_edges(n)
        assert sorted(tau(n, e).token() for e in edges) == sorted(e.token() for e in edges)
        assert sorted(sigma(n, e).token() for e in edges) == sorted(e.token() for e in edges)
        order = tau_order(n)
        assert order == (n if n % 2 == 0 else 2 * n)
        for e in edges:
            img = e
            for _ in range(order):
                img = tau(n, img)
            assert img == e


def test_hom_and_ext_dimensions():
    assert hom_dim(8, plain(1, 3), plain(1, 4)) == 1  # orients the base arrow
    assert hom_dim(8, plain(1, 3), plain(1, 4)) == crossing_number(8, plain(1, 3), plain(2, 5))
    for n in (5, 6):
        for m in all_edges(n):
            assert ext_dim(n, m, m) == 0
            for other in all_edges(n):
                assert ext_dim(n, m, other) == ext_dim(n, other, m)
                assert ext_dim(n, m, other) == hom_dim(n, m, tau(n, other))


def test_tokens_round_trip():
    for n in (4, 7):
        for e in all_edges(n):
            assert parse_edge(e.token()) == e
    assert parse_edge("p:1-3") == plain(1, 3)
    assert parse_edge("s:2:-") == spoke(2, -1)
    with pytest.raises(InvalidEdgeError):
        parse_edge("q:1-3")
    with pytest.raises(InvalidEdgeError):
        parse_edge("s:2:x")
    with pytest.raises(InvalidEdgeError):
        parse_edge("p:1-1")  # not the spoke s:1:+


def test_canonical_order_and_index():
    edges = all_edges(5)
    assert [e.token() for e in edges[:4]] == ["p:1-3", "p:1-4", "p:1-5", "p:2-4"]
    assert edges[15].token() == "s:1:+"
    assert edges[16].token() == "s:1:-"
    for i, e in enumerate(edges):
        assert edge_index(5, e) == i


def test_compatibility_masks_match_crossings():
    # the per-n tables against the validated per-edge rules
    for n in range(4, 13):
        table = alphabet(n)
        edges = all_edges(n)
        masks = compatibility_masks(n)
        assert table.edges == edges and table.masks == masks
        for i, m in enumerate(edges):
            assert table.index[m] == i
            assert table.tokens[i] == m.token()
            assert table.by_token[table.tokens[i]] == i
            assert parse_edge(table.tokens[i]) == m
            assert edges[table.tau[i]] == tau(n, m)
            assert edges[table.tau_inv[i]] == tau_inv(n, m)
            assert edges[table.sigma[i]] == sigma(n, m)
            assert table.kind[i] == classify_edge(n, m)
            for j, other in enumerate(edges):
                e = crossing_number(n, m, other)
                assert table.cross[i][j] == e
                assert bool(masks[i] >> j & 1) == (i != j and e == 0)


def _five_lift_crossing(n, m, other):
    """The plain-arc rule over five lifts of the other arc, unshifted: a
    reference for the two-lift loop in the library."""
    if m == other:
        return 0
    if m.is_spoke and other.is_spoke:
        return 1 if (m.a != other.a and m.tag != other.tag) else 0
    if m.is_spoke or other.is_spoke:
        s, p = (m, other) if m.is_spoke else (other, m)
        return 1 if 0 < (s.a - p.a) % n < (p.b - p.a) % n else 0
    a, hi = m.a, m.a + (m.b - m.a) % n
    q = (other.b - other.a) % n
    count = 0
    for k in (-2, -1, 0, 1, 2):
        x = other.a + k * n
        y = x + q
        x_in, y_in = a < x < hi, a < y < hi
        x_out, y_out = x < a or x > hi, y < a or y > hi
        if (x_in and y_out) or (y_in and x_out):
            count += 1
    return count


def test_crossing_table_matches_five_lifts():
    # whole rows: only the rows at vertex 1 come from the rule, the rest
    # are translated, so neither triangle mirrors the other
    for n in range(4, 26):
        table = alphabet(n)
        edges = table.edges
        for i, m in enumerate(edges):
            assert list(table.cross[i]) == [
                _five_lift_crossing(n, m, other) for other in edges], (n, m.token())


def reference_alphabet(n):
    """The tables built pairwise: the crossing rule once per unordered pair
    (the lower triangle mirrored), each mask bit by bit, and the
    permutations and kinds through the checked tau, tau_inv, sigma and
    classify_edge, edge by edge."""
    edges = [plain(a, (a + length - 2) % n + 1)
             for a in range(1, n + 1) for length in range(3, n + 1)]
    edges += [spoke(a, tag) for a in range(1, n + 1) for tag in (1, -1)]
    cross = []
    for i, m in enumerate(edges):
        cross.append(bytes([row[i] for row in cross]
                           + [ed._crossing(n, m, e) for e in edges[i:]]))
    masks = tuple(sum(1 << j for j, c in enumerate(row) if c == 0 and j != i)
                  for i, row in enumerate(cross))
    index = {e: i for i, e in enumerate(edges)}
    tokens = tuple(e.token() for e in edges)
    perms = [tuple(index[image(n, e)] for e in edges) for image in (tau, tau_inv, sigma)]
    return Alphabet(tuple(edges), index, tokens, {t: i for i, t in enumerate(tokens)},
                    tuple(cross), masks, *perms, tuple(classify_edge(n, e) for e in edges))


def test_alphabet_matches_the_pairwise_reference():
    for n in range(4, 31):
        got, want = alphabet(n), reference_alphabet(n)
        for field in Alphabet._fields:
            assert getattr(got, field) == getattr(want, field), (n, field)


# the crossing suite's fault tests keep their names and run their rows of
# the table in tests/test_faults.py


def test_crossing_suite_catches_a_swapped_crossing_pair(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.swapped_crossing_pair)


def test_crossing_suite_catches_a_flipped_mask_bit(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.flipped_mask_bit)


def test_import_builds_no_tables():
    # the per-n tables are built on first use, never at import
    code = "import dncat; print(dncat.edges.alphabet.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(dncat.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"
