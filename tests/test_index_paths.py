"""Property tests of the table-based paths against the per-edge rules: the
mask-based validation and flips against the pairwise crossing-number
reference (the crossing loop over input pairs and the extension scan in
canonical edge order), and the morphism-space matrix read off the crossing
table against hom_dim."""

import random

from hypothesis import given, settings, strategies as st

from dncat import edges as ed
from dncat.errors import DncatError, ModelInconsistencyError, NotATriangulationError
from dncat.triangulations import fan, flip, pairwise_hom_matrix, validate_triangulation


def reference_validate(n, items):
    items = tuple(items)
    for e in items:
        ed.check_edge(n, e)
    if len(set(items)) != len(items):
        raise NotATriangulationError("duplicate edges in set")
    for i, m in enumerate(items):
        for other in items[i + 1:]:
            if ed.crossing_number(n, m, other) != 0:
                raise NotATriangulationError(
                    f"edges cross: {m.token()} x {other.token()}"
                )
    witness = next((c for c in ed.all_edges(n) if c not in items
                    and all(ed.crossing_number(n, c, m) == 0 for m in items)), None)
    maximal = witness is None
    if maximal != (len(items) == n):
        raise ModelInconsistencyError(
            f"maximality ({maximal}) and size-n ({len(items)}=={n}) checks disagree"
        )
    if not maximal:
        raise NotATriangulationError(
            f"set is not maximal: {witness.token()} is compatible with all members"
        )


def reference_replacements(n, kept, m):
    return [c for c in ed.all_edges(n) if c != m and c not in kept
            and all(ed.crossing_number(n, c, e) == 0 for e in kept)]


def random_walk(n, rng, steps):
    tri = fan(n)
    for _ in range(steps):
        tri, _ = flip(tri, tri.edges[rng.randrange(n)])
    return tri


def outcome(check, n, items):
    try:
        check(n, items)
    except DncatError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def edge_lists(draw):
    """Edge lists at n=4..9: arbitrary draws (duplicates and crossings
    included) or a triangulation with a few edges dropped and added, in
    random order."""
    n = draw(st.integers(4, 9))
    universe = ed.all_edges(n)
    if draw(st.booleans()):
        items = draw(st.lists(st.sampled_from(universe), max_size=n + 2))
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        tri = random_walk(n, random.Random(seed), 3 * n)
        items = list(tri.edges)
        for _ in range(draw(st.integers(0, 2))):
            items.pop(draw(st.integers(0, len(items) - 1)))
        items += draw(st.lists(st.sampled_from(universe), max_size=2))
        items = draw(st.permutations(items))
    return n, items


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edge_lists())
def test_validation_matches_reference(case):
    n, items = case
    assert outcome(validate_triangulation, n, items) == outcome(reference_validate, n, items)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(4, 20), st.integers(0, 2**32 - 1))
def test_flip_matches_reference_on_random_walks(n, seed):
    rng = random.Random(seed)
    tri = fan(n)
    for _ in range(10):
        m = tri.edges[rng.randrange(n)]
        kept = [e for e in tri.edges if e != m]
        tri2, m2 = flip(tri, m)
        assert reference_replacements(n, kept, m) == [m2]
        assert set(tri2.edges) == set(kept) | {m2}
        back, m3 = flip(tri2, m2)
        assert back == tri and m3 == m
        tri = tri2


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(10, 20), st.integers(0, 2**32 - 1))
def test_hom_matrix_matches_hom_dim_on_random_walks(n, seed):
    tri = random_walk(n, random.Random(seed), 3 * n)
    matrix = pairwise_hom_matrix(tri)
    for a, e_a in enumerate(tri.edges):
        for b, e_b in enumerate(tri.edges):
            assert matrix[a][b] == ed.hom_dim(n, e_a, e_b)
