"""Property tests of the table-based paths against the per-edge rules: the
mask-based validation and flips against the pairwise crossing-number
reference (the crossing loop over input pairs and the extension scan in
canonical edge order), the token-table parser against parse_edge per
token, the morphism-space matrix read off the crossing table against
hom_dim, and the template layer on edge indices (the arc/spoke split of a
key, classify_type, decompose and the algebra-dimension count) against its
TaggedEdge formulation."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dncat import edges as ed
from dncat import quivers as qv
from dncat import relations as rl
from dncat import triangulations as tr
from dncat.errors import DncatError, ModelInconsistencyError, NotATriangulationError
from dncat.triangulations import Triangulation, fan, flip, pairwise_hom_matrix


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
    assert outcome(Triangulation.from_edges, n, items) == outcome(reference_validate, n, items)


def reference_parse(n, text):
    return tr.Triangulation.from_edges(
        n, [ed.parse_edge(tok) for tok in text.split(",") if tok.strip()])


# other spellings of one token: surrounding spaces, a leading zero on the
# first vertex, a doubled (or trailing) comma
RESPELLINGS = [lambda tok: f" {tok} ", lambda tok: tok[:2] + "0" + tok[2:],
               lambda tok: tok + ","]


def stray_tokens(n):
    """Blank, malformed, out-of-range and short-arc tokens, and two
    canonical ones, at size n."""
    return [" ", "zz", "s:1:*", "p:1", "p:1-2", f"p:1-{n + 1}", "s:0:+",
            f"s:{n}:+", f"p:{n}-2"]


@st.composite
def token_texts(draw):
    """The token string of an edge_lists() case, with a few tokens
    respelled or stray tokens inserted; now and then read at n = 3, below
    the minimal size."""
    n, items = draw(edge_lists())
    tokens = [e.token() for e in items]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens)))
        if i < len(tokens) and draw(st.booleans()):
            tokens[i] = draw(st.sampled_from(RESPELLINGS))(tokens[i])
        else:
            tokens.insert(i, draw(st.sampled_from(stray_tokens(n))))
    if draw(st.integers(0, 9)) == 9:
        n = 3
    return n, ",".join(tokens)


def parse_outcome(parse, n, text):
    try:
        return parse(n, text).key
    except DncatError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(token_texts())
@example((3, "zz,p:1-3"))
@example((3, ""))
@example((4, ""))
@example((4, "p:1-3,p:2-4,s:1:+,s:1:-"))
@example((4, "p:2-4,p:1-3,s:1:+,s:1:-"))
@example((4, "s:1:-,p:1-4,s:1:+,p:1-3"))
def test_parse_matches_reference(case):
    n, text = case
    assert parse_outcome(tr.parse_triangulation, n, text) == parse_outcome(reference_parse, n, text)


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


# ---------------------------------------------------------------------------
# the template layer against its TaggedEdge formulation


def reference_region_triangles(index, corners, diagonals):
    """Triangles of a region whose diagonals are unordered corner pairs,
    found by the first apex in corner order, sides named through the
    alphabet's index map."""
    m = len(corners)

    def side(i, j):
        return None if j == i + 1 else index[ed.plain(corners[i], corners[j])]

    def has_edge(i, j):
        if j == i + 1 or (i, j) == (0, m - 1):
            return True
        return frozenset((corners[i], corners[j])) in diagonals

    triangles = []

    def split(i, j):
        if j <= i + 1:
            return
        for k in range(i + 1, j):
            if has_edge(i, k) and has_edge(k, j):
                triangles.append((side(i, k), side(k, j), side(i, j)))
                split(i, k)
                split(k, j)
                return
        raise ModelInconsistencyError(f"region {corners} not triangulated")

    split(0, m - 1)
    return triangles


def reference_split(tri):
    """The arcs and the spokes of tri, each filtered from tri.edges."""
    return (tuple(e for e in tri.edges if e.is_plain),
            tuple(e for e in tri.edges if e.is_spoke))


def reference_classify_type(tri):
    """classify_type on the filtered split, with arc lengths by delta_length."""
    plains, spokes = reference_split(tri)
    if any(ed.delta_length(tri.n, e.a, e.b) == tri.n for e in plains):
        return tr.TYPE1
    if len(spokes) == 2:
        return tr.TYPE2 if spokes[0].a == spokes[1].a else tr.TYPE3
    assert len(spokes) >= 3
    return tr.TYPE4


def test_classify_type_matches_reference_on_every_triangulation():
    for n in range(4, 9):
        for tri in tr.enumerate_all(n):
            assert tr.classify_type(tri) == reference_classify_type(tri)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(10, 30), st.integers(0, 2**32 - 1))
def test_classify_type_matches_reference_on_random_walks(n, seed):
    rng = random.Random(seed)
    tri = random_walk(n, rng, 3 * n)
    for _ in range(4):
        assert tr.classify_type(tri) == reference_classify_type(tri)
        for _ in range(n):
            tri, _ = flip(tri, tri.edges[rng.randrange(n)])


def reference_decompose(tri):
    """decompose on TaggedEdge objects: the arcs and spokes are filtered
    from tri.edges, the interior edges of each region are scanned from the
    arcs minus the junctions, every template role is an edge looked up in
    the alphabet's index map, the type-4 laps are measured by
    delta_length between neighboring spoke bases, and the region arrows and
    zero paths come from its own triangle rule, ahead of the central ones."""
    n = tri.n
    index = ed.alphabet(n).index
    kind = reference_classify_type(tri)
    plains, spokes = reference_split(tri)
    spokes = sorted(spokes, key=lambda s: (s.a, -s.tag))
    eset = set(tri.edges)
    triangles, central, zero, comm = [], [], [], []

    def span(a, b):
        return [ed.wrap(n, a + t) for t in range((b - a) % n + 1)]

    def add_region(a, b, exclude):
        corners = span(a, b)
        pos = {v: i for i, v in enumerate(corners)}
        diagonals = {frozenset((e.a, e.b)) for e in plains if e not in exclude
                     and e.a in pos and e.b in pos and pos[e.a] < pos[e.b]}
        triangles.extend(reference_region_triangles(index, corners, diagonals))

    if kind == tr.TYPE1:
        m = next(e for e in plains if (e.b - e.a) % n == n - 1)
        add_region(m.a, m.b, {m})
        central += [(m, s) if s.a == m.a else (s, m) for s in spokes]
    elif kind in (tr.TYPE2, tr.TYPE3):
        if kind == tr.TYPE2:
            a = spokes[0].a
            b = next(x for x in range(1, n + 1) if x != a
                     and ed.plain(a, x) in eset and ed.plain(x, a) in eset)
        else:
            a, b = spokes[0].a, spokes[1].a
        j_out, j_in = ed.plain(a, b), ed.plain(b, a)
        add_region(a, b, {j_out, j_in})
        add_region(b, a, {j_out, j_in})
        if kind == tr.TYPE2:
            s_plus, s_minus = spokes
            central += [(j_out, s_plus), (s_plus, j_in),
                        (j_out, s_minus), (s_minus, j_in), (j_in, j_out)]
            comm.append(((j_out, s_plus, j_in), (j_out, s_minus, j_in)))
            # the return arrow j_in -> j_out composed with each spoke route
            for s in (s_plus, s_minus):
                zero += [(j_in, j_out, s), (s, j_in, j_out)]
        else:
            s_a, s_b = spokes
            central += [(j_out, s_a), (s_a, j_in), (j_in, s_b), (s_b, j_out)]
            square = [j_out, s_a, j_in, s_b]
            zero += [tuple(square[(i + k) % 4] for k in range(4)) for i in range(4)]
    else:
        t = len(spokes)
        for i in range(t):
            s, s_next = spokes[i], spokes[(i + 1) % t]
            central.append((s, s_next))
            if ed.delta_length(n, s.a, s_next.a) == 2:
                continue
            j = ed.plain(s.a, s_next.a)
            assert j in eset
            central += [(s_next, j), (j, s)]
            zero += [(s, s_next, j), (s_next, j, s), (j, s, s_next)]
            add_region(s.a, s_next.a, {j})
        for i in range(t):
            # one lap, or one arrow less when the closing gap is a neighbor pair
            steps = t - 1 if ed.delta_length(n, spokes[i - 1].a, spokes[i].a) == 2 else t
            zero.append(tuple(spokes[(i + k) % t] for k in range(steps + 1)))

    def indices(paths):
        return tuple(tuple(index[e] for e in path) for path in paths)

    # the triangle rule: arrows run clockwise between the edge sides, and a
    # triangle of three edges is a 3-cycle, whose length-2 subpaths vanish
    arrows, cycles = [], []
    for x_k, k_y, x_y in triangles:
        sides = [x_k, x_y, k_y]  # the cycle x_k -> x_y -> k_y -> x_k
        arrows += [(s, t) for s, t in ((k_y, x_k), (x_y, k_y), (x_k, x_y))
                   if s is not None and t is not None]
        if None not in sides:
            cycles += [tuple(sides[(i + k) % 3] for k in range(3)) for i in range(3)]
    return qv.Decomposition(tuple(triangles), indices(central) + tuple(arrows),
                            tuple(cycles) + indices(zero),
                            tuple(indices(pair) for pair in comm))


def test_decompose_matches_reference_on_every_triangulation():
    for n in range(4, 8):
        for tri in tr.enumerate_all(n):
            assert qv.decompose(tri) == reference_decompose(tri)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(8, 30), st.integers(0, 2**32 - 1))
def test_decompose_matches_reference_on_random_walks(n, seed):
    rng = random.Random(seed)
    tri = random_walk(n, rng, 3 * n)
    for _ in range(4):
        assert qv.decompose(tri) == reference_decompose(tri)
        for _ in range(n):
            tri, _ = flip(tri, tri.edges[rng.randrange(n)])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(10, 30), st.integers(0, 2**32 - 1))
def test_algebra_dimension_equals_hom_total_on_random_walks(n, seed):
    # the query path past desk scale, four triangulations per walk: the
    # quiver and the relations of one object read one decomposition, the
    # count skips the closure of one-path classes (type 2 brings the only
    # commutativity pairs), and the hom rows are gathered through tau^-1
    rng = random.Random(seed)
    tri = random_walk(n, rng, 3 * n)
    for _ in range(4):
        q = qv.direct_quiver_of(tri)
        rels = rl.relations_of(tri)
        assert rl.path_algebra_dimension(q, rels) == sum(map(sum, pairwise_hom_matrix(tri)))
        for _ in range(n):
            tri, _ = flip(tri, tri.edges[rng.randrange(n)])


def test_plain_index_is_the_alphabet_order():
    for n in range(4, 31):
        index = ed.alphabet(n).index
        for e in ed.all_edges(n):
            if e.is_plain:
                assert ed._plain_index(n, e.a, e.b) == index[e]


def reference_path_algebra_dimension(q, rels):
    """The dimension count comparing every zero generator at every offset
    of every class member, each class counted once over all lengths (a
    commutativity pair's sides may differ in length); returns the dimension
    and the number of arrows of the longest path that survives the
    relations."""
    zero = set(rels.zero_paths)
    rewrites = [r for p, alt in rels.commutativity_pairs for r in ((p, alt), (alt, p))]
    out = {v: sorted(t for s, t in q.arrows if s == v) for v in q.vertices}

    def closure(path):
        seen, stack = {path}, [path]
        while stack:
            cur = stack.pop()
            for lhs, rhs in rewrites:
                for i in range(len(cur) - len(lhs) + 1):
                    if cur[i:i + len(lhs)] == lhs:
                        nxt = cur[:i] + rhs + cur[i + len(lhs):]
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
        return frozenset(seen)

    def is_zero(cls):
        return any(member[i:i + len(z)] == z for member in cls for z in zero
                   for i in range(len(member) - len(z) + 1))

    total, longest = len(q.vertices), 0
    current = [(v,) for v in q.vertices]
    met = set()  # the class keys of every length so far
    while current:
        classes = {}
        for path in current:
            for t in out[path[-1]]:
                cls = closure(path + (t,))
                if min(cls) not in met:
                    classes[min(cls)] = cls
        met.update(classes)
        current = [rep for rep, cls in classes.items() if not is_zero(cls)]
        total += len(current)
        longest += bool(current)
    return total, longest


# The count closes at the longest surviving path, which the reference
# measures: on these walks the dimensions run from 26 (n=10) to 182 (n=29)
# and the longest surviving path has 3 to 14 arrows, inside the default
# length cap 2n + 2.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(10, 30), st.integers(0, 2**32 - 1))
def test_algebra_dimension_matches_reference_and_hom_total(n, seed):
    tri = random_walk(n, random.Random(seed), 3 * n)
    q = qv.direct_quiver_of(tri)
    rels = rl.relations_of(tri)
    dim, longest = reference_path_algebra_dimension(q, rels)
    assert rl.path_algebra_dimension(q, rels) == dim
    assert dim == sum(map(sum, pairwise_hom_matrix(tri)))
    assert longest < 2 * n + 2
    assert rl.path_algebra_dimension(q, rels, max_length=longest + 1) == dim
    with pytest.raises(ModelInconsistencyError):
        rl.path_algebra_dimension(q, rels, max_length=longest)


def test_reference_counts_an_unequal_length_pair_once():
    # BMR's generators at n = 5, written out: j = p:1-3 and sk = s:k:+.  The
    # sides of the commutativity pair have two and three arrows
    tri = tr.parse_triangulation(5, "p:1-3,s:1:+,s:3:+,s:4:+,s:5:+")
    index = ed.alphabet(5).by_token
    j, s1, s3, s4, s5 = (index[t] for t in ("p:1-3", "s:1:+", "s:3:+", "s:4:+", "s:5:+"))
    rels = rl.RelationSet(
        ((j, s1, s3), (s1, s3, j), (s4, s5, s1, s3), (s5, s1, s3, s4), (s1, s3, s4, s5)),
        (((s3, j, s1), (s3, s4, s5, s1)),), 5)
    q = qv.direct_quiver_of(tri)
    assert rl.path_algebra_dimension(q, rels) == 16
    assert reference_path_algebra_dimension(q, rels)[0] == 16
    assert sum(map(sum, pairwise_hom_matrix(tri))) == 16


def test_algebra_dimension_matches_reference_on_every_triangulation():
    for n in range(4, 9):
        for tri in tr.enumerate_all(n):
            q = qv.direct_quiver_of(tri)
            rels = rl.relations_of(tri)
            assert rl.path_algebra_dimension(q, rels) == \
                reference_path_algebra_dimension(q, rels)[0], tri


def test_decompose_refuses_an_untriangulated_region():
    # the fan at n=6 without p:1-4 leaves the square 1, 3, 4, 5 untriangulated
    key = tuple(i for i in fan(6).key if i != ed._plain_index(6, 1, 4))
    with pytest.raises(ModelInconsistencyError,
                       match="p:3-5 missing from the region closed by p:1-6 in "
                             r"p:1-3,p:1-5,p:1-6,s:1:\+,s:1:-"):
        qv.decompose(Triangulation(6, key))
