import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from dncat import quivers as qv
from dncat.edges import alphabet, edge_index, plain, spoke
from dncat.errors import ModelInconsistencyError, UnsupportedSizeError
from dncat.quivers import (
    Quiver,
    _canonical_labeling,
    _index_graph,
    _mutate_arrows,
    base_quiver,
    base_quiver_d,
    canonical_key,
    connected_components,
    delete_vertex,
    direct_quiver_of,
    in_mutation_class_a,
    in_mutation_class_d,
    is_isomorphic,
    linear_a_quiver,
    mutate,
    mutation_class_a,
    mutation_class_a_count,
    mutation_class_d,
    quiver_of,
    simple_cycles,
    transport_table,
)
from dncat.triangulations import (
    Triangulation,
    _flip_index,
    _orbit,
    apply_sigma,
    apply_tau,
    class_count_formula,
    enumerate_all,
    equivalence_classes,
    fan,
    flip,
)
from dncat.verify import _witness_failures, find_d4_witness


def b_matrix_mutate(matrix, k):
    """Independent skew-symmetric matrix mutation, the classical formula."""
    size = len(matrix)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == k or j == k:
                out[i][j] = -matrix[i][j]
            else:
                out[i][j] = matrix[i][j] + (
                    abs(matrix[i][k]) * matrix[k][j] + matrix[i][k] * abs(matrix[k][j])
                ) // 2
    return out


def to_b_matrix(q):
    index = {v: i for i, v in enumerate(q.vertices)}
    size = len(q.vertices)
    matrix = [[0] * size for _ in range(size)]
    for s, t in q.arrows:
        matrix[index[s]][index[t]] += 1
        matrix[index[t]][index[s]] -= 1
    return matrix


def test_mutate_sink_reflection():
    q = Quiver.build([1, 2], [(1, 2)])
    assert mutate(q, 2) == Quiver.build([1, 2], [(2, 1)])


def test_mutate_path_to_cycle():
    path = Quiver.build([1, 2, 3], [(1, 2), (2, 3)])
    cycle = mutate(path, 2)
    assert cycle == Quiver.build([1, 2, 3], [(1, 3), (3, 2), (2, 1)])
    assert mutate(cycle, 2) == path


def test_mutate_involution_and_matrix_oracle():
    count = 0
    for tri in list(enumerate_all(5)) + list(enumerate_all(4)):
        q = quiver_of(tri)
        for v in q.vertices:
            mutated = mutate(q, v)
            assert mutate(mutated, v) == q
            k = q.vertices.index(v)
            assert to_b_matrix(mutated) == b_matrix_mutate(to_b_matrix(q), k)
            count += 1
        if count > 500:
            break
    assert count > 100


def reference_mutate(q, v):
    """Mutation as counted in three passes: reverse at v while counting,
    compose through v, then cancel each opposite pair from its lower end."""
    if v not in q.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    counts = {}
    ins, outs = [], []
    for s, t in q.arrows:
        if s == v or t == v:
            counts[(t, s)] = counts.get((t, s), 0) + 1
            if t == v:
                ins.append(s)
            else:
                outs.append(t)
        else:
            counts[(s, t)] = counts.get((s, t), 0) + 1
    for u in ins:
        for w in outs:
            if u == w:
                raise ModelInconsistencyError("2-cycle through mutation vertex")
            counts[(u, w)] = counts.get((u, w), 0) + 1
    for s, t in list(counts):
        if s < t:
            cancel = min(counts[(s, t)], counts.get((t, s), 0))
            if cancel:
                counts[(s, t)] -= cancel
                counts[(t, s)] -= cancel
    arrows = []
    for pair, c in counts.items():
        arrows.extend([pair] * c)
    return Quiver(q.vertices, tuple(sorted(arrows)), q.n)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ModelInconsistencyError) as exc:
        return type(exc), str(exc)


def test_mutate_equals_the_three_pass_reference_on_random_multigraphs():
    # multiple arrows, loops, 2-cycles and unknown vertices included: the
    # same quiver or the same error at every vertex
    rng = random.Random(20)
    errors = 0
    for _ in range(3000):
        arrows = [(rng.randrange(6), rng.randrange(6)) for _ in range(rng.randrange(13))]
        q = Quiver.build(range(6), arrows)
        for v in range(7):
            got = _outcome(mutate, q, v)
            assert got == _outcome(reference_mutate, q, v), (arrows, v)
            errors += not isinstance(got, Quiver)
    assert 0 < errors < 3000 * 7


def test_base_quiver_shape():
    q = base_quiver(5)
    assert q.to_json()["arrows"] == [
        ["p:1-3", "p:1-4"], ["p:1-4", "p:1-5"],
        ["p:1-5", "s:1:+"], ["p:1-5", "s:1:-"],
    ]
    for n in range(4, 9):
        q = base_quiver(n)
        assert len(q.vertices) == n and len(q.arrows) == n - 1
        assert not simple_cycles(q)


def test_quiver_of_fan_and_all_spokes():
    assert quiver_of(fan(5)) == base_quiver(5)
    all_spokes = Triangulation.from_edges(5, [spoke(v, 1) for v in range(1, 6)])
    q = quiver_of(all_spokes)
    cycle5 = Quiver.build(range(5), [(i, (i + 1) % 5) for i in range(5)])
    ok, _ = is_isomorphic(q, cycle5)
    assert ok


def test_quiver_is_symmetry_equivariant():
    for n in (4, 5):
        tau_map = dict(enumerate(alphabet(n).tau))
        sigma_map = dict(enumerate(alphabet(n).sigma))
        for tri in enumerate_all(n):
            q = quiver_of(tri)
            assert q.relabel(tau_map) == quiver_of(apply_tau(tri))
            assert q.relabel(sigma_map) == quiver_of(apply_sigma(tri))


def test_transport_table_holds_one_quiver_per_class():
    for n in (4, 5, 6):
        table = transport_table(n)
        assert sorted(table) == [cls.representative.key for cls in equivalence_classes(n)]
        assert all(q.vertices == key and q.n == n for key, q in table.items())


def test_flip_mutation_commutation():
    for n in (4, 5):
        for tri in enumerate_all(n):
            q = quiver_of(tri)
            for m in tri.edges:
                tri2, m2 = flip(tri, m)
                i, i2 = edge_index(n, m), edge_index(n, m2)
                moved = mutate(q, i).relabel({i: i2})
                assert moved == quiver_of(tri2)


def class_graph_edges(n):
    """Each edge of the class graph once, as its two ends: the mutation
    calls (representative, m, replacement) that transport makes across it,
    one from each class."""
    edges = set()
    for cls in equivalence_classes(n):
        key = cls.representative.key
        for m in key:
            key2, m2 = _flip_index(n, key, m)
            orbit = _orbit(n, key2)
            rep = min(orbit)
            g = orbit[rep]
            edges.add(tuple(sorted([(key, m, m2), (rep, g[m2], g[m])])))
    return sorted(edges)


@pytest.mark.parametrize("n", [5, 6])
def test_transport_catches_one_corrupted_flip_edge(monkeypatch, n):
    # the table mutates every class-graph edge from both ends; a mutation
    # that returns the opposite quiver on one edge, in both directions,
    # must still break path independence, whether the edge first reaches a
    # class or closes a cycle
    edges = class_graph_edges(n)
    for bad in edges[::len(edges) // 12]:
        bad = set(bad)

        def corrupt(arrows, v, v2, bad=bad):
            out = _mutate_arrows(arrows, v, v2)
            vertices = tuple(sorted({x for a in arrows for x in a}))
            if (vertices, v, v2) in bad:
                out = tuple(sorted((t, s) for s, t in out))
            return out

        monkeypatch.setattr(qv, "_mutate_arrows", corrupt)
        with pytest.raises(ModelInconsistencyError, match="depends on the flip path"):
            transport_table.__wrapped__(n)


def test_direct_equals_transport():
    for n in (4, 5, 6):
        for tri in enumerate_all(n):
            assert direct_quiver_of(tri) == quiver_of(tri)


def quiver_along(n, walk):
    """Mutate the fan's quiver along a flip sequence (the edge index flipped
    at each step), with no table: the triangulation and its transported
    quiver after every flip."""
    edges, index = alphabet(n).edges, alphabet(n).index
    tri, arrows = fan(n), base_quiver(n).arrows
    steps = []
    for m in walk:
        tri, replacement = flip(tri, edges[m])
        arrows = _mutate_arrows(arrows, m, index[replacement])
        steps.append((tri, Quiver(tri.key, arrows, n)))
    return steps


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(10, 30), st.integers(0, 2**32 - 1))
def test_template_equals_transport_on_random_walks(n, seed):
    # past the sizes where transport tables can be built
    rng = random.Random(seed)
    tri, walk, back = fan(n), [], []
    for _ in range(2 * n):
        m = tri.key[rng.randrange(n)]
        tri, replacement = flip(tri, alphabet(n).edges[m])
        walk.append(m)
        back.append(alphabet(n).index[replacement])
    steps = quiver_along(n, walk + back[::-1])
    for tri, q in steps[:len(walk)]:
        assert direct_quiver_of(tri) == q
    assert steps[-1] == (fan(n), base_quiver(n))


def test_direct_type_two_shape():
    tri = Triangulation.from_edges(
        5, [spoke(1, 1), spoke(1, -1), plain(1, 3), plain(3, 1), plain(3, 5)])
    q = direct_quiver_of(tri)
    assert len(q.vertices) == 5
    cycles = simple_cycles(q)
    # two 3-cycles sharing the return arrow
    assert sorted(len(c) for c in cycles) == [3, 3]
    assert ["p:3-1", "p:1-3"] in q.to_json()["arrows"]


def test_isomorphism_examples():
    for tri in list(enumerate_all(5))[::13]:
        q = quiver_of(tri)
        ok, witness = is_isomorphic(q, q)
        assert ok and witness is not None
    cycle = Quiver.build([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    path = Quiver.build([1, 2, 3], [(1, 2), (2, 3)])
    ok, witness = is_isomorphic(cycle, path)
    assert not ok and witness is None


def test_isomorphism_witness_maps_arrows():
    a = Quiver.build("wxyz", [("w", "x"), ("x", "y"), ("y", "w"), ("y", "z")])
    b = Quiver.build("abcd", [("b", "c"), ("c", "d"), ("d", "b"), ("d", "a")])
    ok, witness = is_isomorphic(a, b)
    assert ok
    mapped = sorted((witness[s], witness[t]) for s, t in a.arrows)
    assert mapped == sorted(b.arrows)
    assert canonical_key(a) == canonical_key(b)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(5, 14), st.integers(0, 2**32 - 1))
def test_isomorphism_witness_on_relabelled_walk_quivers(n, seed):
    # quivers from seeded flip walks, renamed by a random vertex permutation
    rng = random.Random(seed)
    tri = fan(n)
    for _ in range(3 * n):
        tri, _ = flip(tri, tri.edges[rng.randrange(n)])
    q = direct_quiver_of(tri)
    image = list(q.vertices)
    rng.shuffle(image)
    renamed = q.relabel(dict(zip(q.vertices, image)))
    ok, witness = is_isomorphic(q, renamed)
    assert ok
    assert sorted(witness) == list(q.vertices)
    assert list(witness.values()) == list(renamed.vertices)
    assert tuple(sorted((witness[s], witness[t]) for s, t in q.arrows)) == renamed.arrows
    # a mutation that changes the key leaves no isomorphism
    key = canonical_key(q)
    changed = [v for v in q.vertices if canonical_key(mutate(q, v)) != key]
    assert changed
    for v in changed:
        assert is_isomorphic(renamed, mutate(q, v)) == (False, None)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(5, 12), st.integers(0, 2**32 - 1))
def test_mutation_commutes_with_relabelling_on_walk_quivers(n, seed):
    # the law that carries verify's commutation check from a class
    # representative to its orbit: mutate(pi.Q, pi(v)) == pi.mutate(Q, v)
    # for a renaming pi of the vertices into the edge indices
    rng = random.Random(seed)
    tri = fan(n)
    for _ in range(3 * n):
        tri, _ = flip(tri, tri.edges[rng.randrange(n)])
    q = direct_quiver_of(tri)
    pi = dict(zip(q.vertices, rng.sample(range(n * n), n)))
    for v in q.vertices:
        assert mutate(q.relabel(pi), pi[v]) == mutate(q, v).relabel(pi)


def reference_refine_colors(n_verts, adj_out, adj_in, colors):
    """Color refinement run until a round changes no color."""
    while True:
        sig = [
            (colors[v],
             tuple(sorted(colors[w] for w in adj_out[v])),
             tuple(sorted(colors[w] for w in adj_in[v])))
            for v in range(n_verts)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def reference_canonical_labeling(q):
    """Individualization-refinement over reference_refine_colors: the
    minimal sorted arrow list and the vertex order that produces it."""
    n_verts = len(q.vertices)
    idx, adj_out, adj_in = _index_graph(q)
    arrow_pairs = [(idx[s], idx[t]) for s, t in q.arrows]
    best = [None, None]

    def search(colors):
        classes = {}
        for v in range(n_verts):
            classes.setdefault(colors[v], []).append(v)
        split = next((c for c in sorted(classes) if len(classes[c]) > 1), None)
        if split is None:
            cand = tuple(sorted((colors[s], colors[t]) for s, t in arrow_pairs))
            if best[0] is None or cand < best[0]:
                best[0] = cand
                best[1] = sorted(range(n_verts), key=lambda v: colors[v])
            return
        for v in classes[split]:
            new = list(colors)
            new[v] = -1
            palette = {c: i for i, c in enumerate(sorted(set(new)))}
            search(reference_refine_colors(n_verts, adj_out, adj_in,
                                           [palette[c] for c in new]))

    search(reference_refine_colors(n_verts, adj_out, adj_in, [0] * n_verts))
    return (n_verts, best[0]), [q.vertices[v] for v in best[1]]


def test_canonical_labeling_equals_the_reference():
    # the key and the vertex order, on seeded flip-walk quivers and on the
    # vertex deletions that prop45 keys at n = 7
    quivers = []
    for n in range(5, 21):
        rng = random.Random(n)
        tri = fan(n)
        for step in range(4 * n):
            tri, _ = flip(tri, tri.edges[rng.randrange(n)])
            if step % n == 0:
                quivers.append(direct_quiver_of(tri))
    table = transport_table(7)
    for cls in equivalence_classes(7):
        q = table[cls.representative.key]
        quivers.extend(delete_vertex(q, v) for v in q.vertices)
    for q in quivers:
        assert _canonical_labeling(q) == reference_canonical_labeling(q)


def mutation_class_quivers(seed):
    """Every quiver met by mutating from seed until no new isomorphism
    class appears, classes told apart by reference_canonical_labeling."""
    seen, met = {reference_canonical_labeling(seed)[0]}, [seed]
    frontier = [seed]
    while frontier:
        nxt = []
        for q in frontier:
            for v in q.vertices:
                q2 = mutate(q, v)
                met.append(q2)
                key = reference_canonical_labeling(q2)[0]
                if key not in seen:
                    seen.add(key)
                    nxt.append(q2)
        frontier = nxt
    return seen, met


def test_canonical_labeling_equals_the_reference_on_mutation_classes():
    # the key and the vertex order on abstract integer labels, on every
    # quiver met in Mut(A_k) and Mut(D_k) for k <= 7
    cases = [(linear_a_quiver(k), mutation_class_a(k)) for k in range(1, 8)]
    cases += [(base_quiver_d(k), mutation_class_d(k)) for k in range(4, 8)]
    for seed, keys in cases:
        found, met = mutation_class_quivers(seed)
        assert found == keys
        for q in met:
            assert _canonical_labeling(q) == reference_canonical_labeling(q)


def reference_simple_cycles(q):
    """The directed simple cycles by recursion, each rooted at its minimal
    vertex, in the order simple_cycles lists them."""
    pos = {v: i for i, v in enumerate(q.vertices)}
    cycles = []

    def walk(root, v, path):
        for w in sorted(set(q.out_neighbors(v))):
            if w == root:
                cycles.append(tuple(path))
            elif pos[w] > pos[root] and w not in path:
                walk(root, w, path + [w])

    for root in q.vertices:
        walk(root, root, [root])
    return cycles


def test_simple_cycles_equal_the_recursive_walk():
    quivers = list(transport_table(6).values())
    for seed in (linear_a_quiver(6), base_quiver_d(6)):
        quivers.extend(mutation_class_quivers(seed)[1][:400])
    assert any(len(simple_cycles(q)) > 1 for q in quivers)
    for q in quivers:
        assert simple_cycles(q) == reference_simple_cycles(q)


def test_canonical_key_and_simple_cycles_leave_no_reference_cycles():
    # the searches run from explicit stacks: nothing is left for the
    # cycle collector
    q = base_quiver(6)  # the tables at n = 6, built before the count
    gc.disable()
    try:
        gc.collect()
        canonical_key(base_quiver(6))
        assert gc.collect() == 0
        simple_cycles(q)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_d4_witness_pairs_the_canonical_labelings():
    a, b = find_d4_witness()
    qa, qb = quiver_of(a.representative), quiver_of(b.representative)
    ok, witness = is_isomorphic(qa, qb)
    assert ok
    assert [(qa.label(v), qb.label(w)) for v, w in witness.items()] == [
        ("s:1:+", "p:1-3"), ("p:1-4", "p:4-3"), ("p:1-3", "s:3:+"), ("s:4:+", "s:3:-"),
    ]


def test_d4_witness_check_tests_orbits_and_arrows():
    a, b = find_d4_witness()
    ta, tb = a.representative, b.representative
    qa, qb = quiver_of(ta), quiver_of(tb)
    _, witness = is_isomorphic(qa, qb)
    assert _witness_failures(ta, tb, qa, qb, witness) == []
    assert _witness_failures(ta, apply_tau(ta), qa, qb, witness) == [
        "representatives lie in one orbit"]
    # rotating the images breaks the arrows; None and a non-injective map
    # are no witnesses at all
    images = list(witness.values())
    rotated = dict(zip(witness, images[1:] + images[:1]))
    collapsed = dict.fromkeys(witness, images[0])
    for bad in (rotated, collapsed, None):
        assert _witness_failures(ta, tb, qa, qb, bad) == [
            "vertex map does not carry the arrows onto the second quiver"]


def test_canonical_key_separates():
    cycle = Quiver.build([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    path = Quiver.build([1, 2, 3], [(1, 2), (2, 3)])
    assert canonical_key(cycle) != canonical_key(path)
    relabeled = Quiver.build("abc", [("c", "a"), ("a", "b"), ("b", "c")])
    assert canonical_key(cycle) == canonical_key(relabeled)


def test_delete_vertex_and_components():
    q = base_quiver(6)
    trimmed = delete_vertex(q, edge_index(6, spoke(1, -1)))
    ok, _ = is_isomorphic(trimmed, linear_a_quiver(5))
    assert ok
    assert connected_components(q) == 1
    assert connected_components(delete_vertex(q, edge_index(6, plain(1, 4)))) == 2
    with pytest.raises(ValueError):
        delete_vertex(q, "p:9-9")


def test_mutation_class_membership():
    assert in_mutation_class_a(linear_a_quiver(3), 3)
    cycle3 = Quiver.build([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    assert in_mutation_class_a(cycle3, 3)
    cycle4 = Quiver.build([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert not in_mutation_class_a(cycle4, 4)
    assert in_mutation_class_d(cycle4, 4)  # the all-spokes quiver at n=4
    assert in_mutation_class_d(base_quiver_d(4), 4)
    assert not in_mutation_class_d(linear_a_quiver(4), 4)
    with pytest.raises(UnsupportedSizeError):
        mutation_class_a(0)
    with pytest.raises(UnsupportedSizeError):
        mutation_class_d(3)


def test_mutation_class_a_sizes_match_torkildsen():
    # Mut(A_k) is in bijection with the triangulations of a (k+3)-gon up to
    # rotation (Torkildsen, arXiv:0801.3762)
    sizes = [len(mutation_class_a(k)) for k in range(1, 9)]
    assert sizes == [mutation_class_a_count(k) for k in range(1, 9)] == [
        1, 1, 4, 6, 19, 49, 150, 442]


def test_mutation_class_d_sizes_match_the_class_count_formula():
    # equal from n = 5 on; at n = 4 the ten classes share six quivers (d4)
    assert [len(mutation_class_d(k)) for k in range(5, 9)] == [
        class_count_formula(k) for k in range(5, 9)] == [26, 80, 246, 810]
    assert len(mutation_class_d(4)) == 6 < class_count_formula(4)


def test_every_size_five_quiver_is_in_the_d_class():
    keys = {canonical_key(quiver_of(t)) for t in enumerate_all(5)}
    assert keys == set(mutation_class_d(5))


def test_dot_and_json_exports():
    q = base_quiver(5)
    dot = q.to_dot()
    assert '1 [label="p:1-3"];' in dot
    assert "3 -> 4;" in dot and "3 -> 5;" in dot
    payload = q.to_json()
    assert payload["vertices"][0] == "p:1-3"
    assert ["p:1-5", "s:1:+"] in payload["arrows"]


FAN5_TOKENS = "p:1-3,p:1-4,p:1-5,s:1:+,s:1:-"


@pytest.mark.parametrize("arrows, fault", [
    # the fan at n = 5 has vertices p:1-3 < p:1-4 < p:1-5 < s:1:+ < s:1:-
    ([(0, 1), (1, 1)], "loop at 'p:1-4'"),
    ([(0, 1), (1, 2), (1, 2)], "multiple arrow 'p:1-4'->'p:1-5'"),
    ([(0, 1), (2, 1), (1, 2)], "2-cycle 'p:1-4'<->'p:1-5'"),
    # two faults: the first in arrow order is named
    ([(0, 1), (1, 0), (2, 2)], "2-cycle 'p:1-3'<->'p:1-4'"),
    ([(0, 0), (0, 1), (0, 1)], "loop at 'p:1-3'"),
    ([(2, 3), (2, 3), (3, 3)], "multiple arrow 'p:1-5'->'s:1:+'"),
], ids=["loop", "multiple", "2-cycle", "2-cycle-first", "loop-first", "multiple-first"])
@pytest.mark.parametrize("context", ["", "direct at"])
def test_assert_cluster_quiver_names_the_first_fault(arrows, fault, context):
    key = fan(5).key
    q = Quiver(key, tuple(sorted((key[s], key[t]) for s, t in arrows)), 5)
    with pytest.raises(ModelInconsistencyError) as info:
        qv.assert_cluster_quiver(q, context)
    suffix = f"({context} {FAN5_TOKENS})" if context else ""
    assert str(info.value) == f"{fault} {suffix}"


def test_assert_cluster_quiver_labels_an_abstract_quiver_by_value():
    with pytest.raises(ModelInconsistencyError) as info:
        qv.assert_cluster_quiver(Quiver((1, 2), ((1, 2), (2, 1))), "at")
    assert str(info.value) == "2-cycle 1<->2 (at 1,2)"
    qv.assert_cluster_quiver(linear_a_quiver(4))  # healthy: no error
