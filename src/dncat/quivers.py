"""Quivers of the cluster-tilted algebras attached to triangulations.

Two independent constructions are provided.  Transport (what `verify`
reads) stores one quiver per translation/tag-swap class, mutated along the
class graph from the fan's class; a member's quiver is its class's moved by
the group element carrying the representative onto it.  The template (what
`dncat quiver` and the catalog print) reads the quiver off the
triangulation: each polygon region cut out by the central configuration
contributes a type-A quiver by the triangle rule, and the central
configuration one of four templates, a region's triangles found from its
arcs alone.  The two must agree edge for edge.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import chain

from . import edges as ed
from . import triangulations as tr
from .errors import ModelInconsistencyError, UnsupportedSizeError


class Quiver(namedtuple("Quiver", "vertices arrows n", defaults=(None,))):
    """Finite directed multigraph; vertices sorted, arrows a sorted multiset
    of ordered pairs.  The quiver of a triangulation of the n-gon has edge
    indices as vertices and carries n; the abstract type-A/D shapes have
    n = None and any sortable labels."""

    __slots__ = ()

    @classmethod
    def build(cls, vertices, arrows, n: int | None = None) -> "Quiver":
        known = set(vertices)
        if not known.issuperset(chain.from_iterable(arrows)):
            for s, t in arrows:  # the first arrow with an unknown end
                if s not in known or t not in known:
                    raise ValueError(f"arrow ({s},{t}) uses unknown vertex")
        return cls(tuple(sorted(known)), tuple(sorted(arrows)), n)

    @property
    def arrow_counts(self) -> Counter:
        return Counter(self.arrows)

    def out_neighbors(self, v) -> list:
        return [t for s, t in self.arrows if s == v]

    def in_neighbors(self, v) -> list:
        return [s for s, t in self.arrows if t == v]

    def neighbors(self, v) -> set:
        return {t for s, t in self.arrows if s == v} | {s for s, t in self.arrows if t == v}

    def relabel(self, mapping: dict) -> "Quiver":
        # the arrows run between the quiver's own vertices, so no check
        f = lambda v: mapping.get(v, v)
        return Quiver(tuple(sorted({f(v) for v in self.vertices})),
                      tuple(sorted((f(s), f(t)) for s, t in self.arrows)), self.n)

    def label(self, v):
        """Export name of vertex v: its edge token in a triangulation's
        quiver, v itself in an abstract shape."""
        return v if self.n is None else ed.alphabet(self.n).tokens[v]

    def to_json(self) -> dict:
        """Vertices and arrows by name, sorted by name.  A triangulation's
        quiver names its vertices by edge token, so p:1-10 sorts before
        p:1-3."""
        if self.n is None:
            return {"vertices": sorted(self.vertices),
                    "arrows": sorted([[s, t] for s, t in self.arrows])}
        tokens = ed.alphabet(self.n).tokens
        return {"vertices": sorted([tokens[v] for v in self.vertices]),
                "arrows": sorted([[tokens[s], tokens[t]] for s, t in self.arrows])}

    def to_dot(self, name: str = "Q") -> str:
        payload = self.to_json()
        index = {v: i + 1 for i, v in enumerate(payload["vertices"])}
        lines = [f"digraph {name} {{"]
        for v in payload["vertices"]:
            lines.append(f'  {index[v]} [label="{v}"];')
        for s, t in payload["arrows"]:
            lines.append(f"  {index[s]} -> {index[t]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


def mutate(q: Quiver, v) -> Quiver:
    """Fomin-Zelevinsky mutation at v: compose through v, reverse at v,
    cancel opposite arrow pairs maximally."""
    if v not in q.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    counts: dict = {}
    ins, outs = [], []
    for pair in q.arrows:  # each arrow at v reversed as it is counted
        s, t = pair
        if t == v:
            ins.append(s)
            pair = (t, s)
        elif s == v:
            outs.append(t)
            pair = (t, s)
        counts[pair] = counts.get(pair, 0) + 1
    for u in ins:
        for w in outs:
            if u == w:
                raise ModelInconsistencyError("2-cycle through mutation vertex")
            counts[(u, w)] = counts.get((u, w), 0) + 1
    # each opposite pair cancelled once, from its side with the larger count;
    # a loop is its own opposite and stays
    arrows = []
    for pair, c in counts.items():
        s, t = pair
        if s != t:
            c -= counts.get((t, s), 0)
        if c > 0:
            arrows += [pair] * c
    return Quiver(q.vertices, tuple(sorted(arrows)), q.n)


def assert_cluster_quiver(q: Quiver, context: str = "") -> None:
    """No loops, no 2-cycles, no multiple arrows; raised as a model bug.
    A non-empty context is followed by the triangulation's edge tokens."""
    arrows = q.arrows
    pairs = set(arrows)
    # a loop is its own reverse, so one disjointness test finds loops and
    # 2-cycles; the loop below names the first fault
    if len(pairs) == len(arrows) and pairs.isdisjoint([(t, s) for s, t in arrows]):
        return
    counts = q.arrow_counts
    for (s, t), c in counts.items():
        if s != t and c == 1 and not counts.get((t, s)):
            continue
        s, t = q.label(s), q.label(t)
        if context:
            context = f"({context} {','.join(map(str, map(q.label, q.vertices)))})"
        if s == t:
            raise ModelInconsistencyError(f"loop at {s!r} {context}")
        if c > 1:
            raise ModelInconsistencyError(f"multiple arrow {s!r}->{t!r} {context}")
        raise ModelInconsistencyError(f"2-cycle {s!r}<->{t!r} {context}")


def base_quiver(n: int) -> Quiver:
    """The fan's quiver: a chain through the plain arcs, forking into the
    two spokes at the end."""
    key = tr.fan(n).key
    chain, forks = key[:-2], key[-2:]
    arrows = list(zip(chain, chain[1:]))
    arrows += [(chain[-1], forks[0]), (chain[-1], forks[1])]
    return Quiver.build(key, arrows, n)


def _mutate_arrows(arrows, v: int, v2: int) -> tuple:
    """Fomin-Zelevinsky mutation of a cluster quiver given by its index
    arrows, at vertex v, which is renamed v2 (the flip's replacement).
    Returns the sorted arrow tuple; a composition through v that closes a
    2-cycle or doubles an arrow is a model bug."""
    ins = [s for s, t in arrows if t == v]
    outs = [t for s, t in arrows if s == v]
    result = {a for a in arrows if v not in a}
    for u in ins:
        for w in outs:
            if u == w:
                raise ModelInconsistencyError("2-cycle through mutation vertex")
            if (w, u) in result:
                result.remove((w, u))
            elif (u, w) in result:
                raise ModelInconsistencyError(
                    f"multiple arrow {u}->{w} after mutation at {v}"
                )
            else:
                result.add((u, w))
    result.update((v2, u) for u in ins)
    result.update((w, v2) for w in outs)
    return tuple(sorted(result))


def _moved(g, arrows) -> tuple:
    """The arrows with each end moved by the index map g, sorted."""
    return tuple(sorted([(g[s], g[t]) for s, t in arrows]))


@lru_cache(maxsize=None)
def transport_table(n: int) -> dict:
    """The quiver Q(R) of every translation/tag-swap class, keyed by its
    representative R, transported along tr.class_graph: where flipping m
    in R gives a key that g carries onto R', Q(R) mutated at m and moved by
    g is Q(R'), the same on every visit.  _mutate_arrows refuses a 2-cycle
    or a doubled arrow, so every entry is a cluster quiver."""
    # one tuple per distinct arrow, shared by the entries (7 MB less at n = 10)
    pairs: dict = {}
    group = tr._group(n)
    start, flips, _ = tr.class_graph(n)
    rep = next(iter(flips))
    table = {rep: Quiver(rep, _moved(group[start], base_quiver(n).arrows), n)}
    for key, row in flips.items():  # the classes in the order they are reached
        arrows = table[key].arrows
        for m, (m2, rep, g) in zip(key, row):
            moved = _moved(group[g], _mutate_arrows(arrows, m, m2))
            known = table.get(rep)
            if known is None:
                table[rep] = Quiver(rep, tuple(map(pairs.setdefault, moved, moved)), n)
            elif known.arrows != moved:
                raise ModelInconsistencyError(
                    "transported quiver depends on the flip path at "
                    + tr.Triangulation(n, rep).token()
                )
    if len(table) != len(tr.equivalence_classes(n)):
        raise ModelInconsistencyError(
            f"class graph disconnected at n={n}: reached {len(table)} classes"
        )
    return table


def quiver_of(tri: tr.Triangulation) -> Quiver:
    """The quiver of the cluster-tilted algebra of the triangulation: its
    class's transported quiver, moved from the representative onto tri."""
    rep, g = tr._class_of(tri.n, tri.key)
    g = tr._group(tri.n)[g]
    back = {g[v]: v for v in tri.key}  # g carries tri onto rep
    return Quiver(tri.key, _moved(back, transport_table(tri.n)[rep].arrows), tri.n)


# ---------------------------------------------------------------------------
# direct construction


class Decomposition(namedtuple("Decomposition", "triangles arrows zero_paths comm_pairs")):
    """A triangulation cut along its central configuration, on edge indices:
    the whole template of its quiver with relations.

    triangles: the triangles of every polygon region, region by region, in
    the preorder of the split under each closing arc, each as its three
    sides (x -> k, k -> y, x -> y around its apex k); a side is an edge
    index or None for a boundary segment.  arrows: the central template's
    arrows between junction and spoke edges, then region_arrows over the
    triangles.  zero_paths and comm_pairs: the relation generators, as
    vertex tuples read left to right along the arrows.  The zero paths
    start with the regions': for each triangle whose three sides are
    edges, in triangle order, the three length-2 subpaths of its 3-cycle
    (s1, s3, s2), from s1 on.  The central template's generators follow,
    per type:

      type 1: nothing.
      type 2: the commutativity of the two spoke routes j_out -> s -> j_in,
              and the four length-2 zero paths through the return arrow
              j_in -> j_out.
      type 3: the four length-3 subpaths of the central 4-cycle.
      type 4: per connecting arc j between spokes s_i and s_(i+1), the three
              length-2 paths of the 3-cycle s_i -> s_(i+1) -> j -> s_i;
              then from each spoke the path along the spoke cycle, one lap
              long when the gap it closes carries a connecting arc and one
              arrow shorter when that gap is a neighbor pair.
    """

    __slots__ = ()


# the last triangulation decomposed and its decomposition, replaced as one
# entry; holding the object keeps its id from being reused while it is the key
_last_decomposed: tuple = (None, None)


def decompose(tri: tr.Triangulation) -> Decomposition:
    """Cut the triangulation along its degenerate and length-n edges.

    The result for the last triangulation object asked is kept, so
    direct_quiver_of(tri) then relations_of(tri) cut tri once.  The memo
    is keyed by the object, not its key: a fresh object with the same key
    is cut again, and one entry keeps no set of triangulations alive."""
    global _last_decomposed
    last, dec = _last_decomposed
    if last is not tri:
        dec = _decompose(tri)
        _last_decomposed = (tri, dec)
    return dec


def _decompose(tri: tr.Triangulation) -> Decomposition:
    """The decomposition of tri, computed.

    Everything is read off the sorted key by index arithmetic: arc i runs
    from x = i // (n-2) + 1 by i % (n-2) + 2 boundary steps, so the arcs
    at x are a run of the key in step order, and the spoke n(n-2) + 2(x-1)
    + (0 for +, 1 for -) sits at x."""
    n = tri.n
    m = n - 2
    kind = tr.classify_type(tri)
    key = tri.key
    split = bisect_left(key, n * m)
    arcs = key[:split]
    at = dict(zip(arcs, range(split)))  # arc index -> position in the key
    # the spokes close the key, sorted by base and +1 before -1
    spokes = key[split:]
    base = [(s - n * m) // 2 + 1 for s in spokes]

    def arc(x: int, y: int) -> int:
        return (x - 1) * m + (y - x) % n - 2

    triangles = []
    cycles = []  # the zero paths of the regions' 3-cycles
    central = []
    zero = []
    comm = []

    def add_region(a: int, b: int) -> None:
        """The triangles of the polygon region from a to b ccw, closed by the
        arc (a, b).  Each side x -> y that is not a boundary segment must be
        an arc; the triangle on it has its apex k at the farthest vertex
        inside (x, y) that an arc joins to x, or at x + 1 when none does.
        That arc is the one before x -> y in the key, if it starts at x.
        A triangle of three edges adds the subpaths of its 3-cycle."""
        stack = [(a, b)] if (b - a) % n > 1 else []
        while stack:
            x, y = stack.pop()
            first = (x - 1) * m  # the arc from x two steps long
            i = first + (y - x) % n - 2
            p = at.get(i)
            if p is None:
                raise ModelInconsistencyError(
                    f"{ed.plain(x, y).token()} missing from the region closed by "
                    f"{ed.plain(a, b).token()} in {tri.token()}"
                )
            j = arcs[p - 1] if p else -1
            if j >= first:
                k = (x + j - first + 1) % n + 1
            else:
                j = None
                k = x % n + 1
            rest = (y - k) % n
            if rest == 1:  # a boundary segment
                triangles.append((j, None, i))
            else:
                side = (k - 1) * m + rest - 2
                triangles.append((j, side, i))
                stack.append((k, y))
                if j is not None:  # the 3-cycle j -> i -> side -> j
                    cycles.extend(((j, i, side), (i, side, j), (side, j, i)))
            if j is not None:
                stack.append((x, k))  # split first

    if kind == tr.TYPE1:
        j = next((i for i in arcs if i % m == m - 1), None)  # length n
        if j is None:
            raise ModelInconsistencyError(
                f"type 1 needs an arc of length {n}, found none in {tri.token()}"
            )
        a = j // m + 1
        b = (a - 2) % n + 1
        add_region(a, b)
        for s, x in zip(spokes, base):
            if x == a:
                central.append((j, s))
            elif x == b:
                central.append((s, j))
            else:
                raise ModelInconsistencyError(
                    f"type 1 spoke {ed.alphabet(n).tokens[s]} away from the long "
                    f"arc {ed.plain(a, b).token()}"
                )
    elif kind == tr.TYPE2:
        a = base[0]
        bases = [x for x in range(1, n + 1) if 2 <= (x - a) % n <= n - 2
                 and arc(a, x) in at and arc(x, a) in at]
        if len(bases) != 1:
            raise ModelInconsistencyError(
                f"type 2 needs one return vertex, found {bases} in {tri.token()}"
            )
        b = bases[0]
        j_out, j_in = arc(a, b), arc(b, a)
        add_region(a, b)
        add_region(b, a)
        s_plus, s_minus = spokes
        central += [
            (j_out, s_plus), (s_plus, j_in),
            (j_out, s_minus), (s_minus, j_in),
            (j_in, j_out),
        ]
        comm.append(((j_out, s_plus, j_in), (j_out, s_minus, j_in)))
        zero += [
            (j_in, j_out, s_plus), (s_plus, j_in, j_out),
            (j_in, j_out, s_minus), (s_minus, j_in, j_out),
        ]
    elif kind == tr.TYPE3:
        s_a, s_b = spokes
        a, b = base
        j_out, j_in = arc(a, b), arc(b, a)
        add_region(a, b)
        add_region(b, a)
        central += [(j_out, s_a), (s_a, j_in), (j_in, s_b), (s_b, j_out)]
        zero += [
            (j_out, s_a, j_in, s_b), (s_a, j_in, s_b, j_out),
            (j_in, s_b, j_out, s_a), (s_b, j_out, s_a, j_in),
        ]
    else:
        t = len(spokes)
        closed = []  # per gap: does a connecting arc close it
        for i in range(t):
            s, s_next = spokes[i], spokes[(i + 1) % t]
            a, nxt = base[i], base[(i + 1) % t]
            central.append((s, s_next))
            closed.append((nxt - a) % n != 1)
            if not closed[-1]:  # neighbor bases: no connecting arc
                continue
            j = arc(a, nxt)
            central += [(s_next, j), (j, s)]
            zero += [(s, s_next, j), (s_next, j, s), (j, s, s_next)]
            add_region(a, nxt)
        lap = 2 * spokes
        # the path from spoke i closes gap i-1 last
        zero += [lap[i:i + t + closed[i - 1]] for i in range(t)]

    return Decomposition(tuple(triangles), tuple(central + region_arrows(triangles)),
                         tuple(cycles + zero), tuple(comm))


def region_arrows(triangles) -> list:
    """Triangle rule: within each triangle, arrows run clockwise between the
    sides that carry triangulation edges."""
    arrows = []
    for s1, s2, s3 in triangles:
        for src, dst in ((s2, s1), (s3, s2), (s1, s3)):
            if src is not None and dst is not None:
                arrows.append((src, dst))
    return arrows


def direct_quiver_of(tri: tr.Triangulation) -> Quiver:
    """Template assembly of the quiver, independent of mutation transport."""
    q = Quiver.build(tri.key, decompose(tri).arrows, tri.n)
    assert_cluster_quiver(q, "direct at")
    return q


# ---------------------------------------------------------------------------
# isomorphism, canonical keys, vertex deletion


def _refine_colors(n_verts: int, adj_out, adj_in, colors, count: int):
    """Refine the colors 0..count-1 by the colors of each vertex's out- and
    in-neighbors until no class splits; returns the colors and their count.
    A round gives each vertex the rank of (old color, sorted out-colors,
    sorted in-colors), so a round that splits nothing leaves the colors
    unchanged, and a round that leaves every class a singleton is the last.
    As the old color sorts first, each class is ranked on its own, above
    the signatures of the classes below it; a singleton cannot split, so it
    takes that offset without being signed.  The colors must refine the
    (out-degree, in-degree) partition, as _canonical_search's do: then the
    members of a class have out-lists of one length, and the out-colors
    followed by the in-colors, as one list, sort as the pair does."""
    while count < n_verts:
        cells = [[] for _ in range(count)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        get = colors.__getitem__
        new = [0] * n_verts
        base = 0
        for cell in cells:
            if len(cell) > 1:
                signed = sorted([(sorted(map(get, adj_out[v])) + sorted(map(get, adj_in[v])), v)
                                 for v in cell])
                last = signed[0][0]
                for sig, v in signed:
                    if sig != last:
                        base += 1
                        last = sig
                    new[v] = base
                base += 1
            else:
                new[cell[0]] = base
                base += 1
        if base == count:
            break
        colors, count = new, base
    return colors, count


def _index_graph(q: Quiver):
    n_verts = len(q.vertices)
    idx = dict(zip(q.vertices, range(n_verts)))
    adj_out = [[] for _ in range(n_verts)]
    adj_in = [[] for _ in range(n_verts)]
    for s, t in q.arrows:
        s, t = idx[s], idx[t]
        adj_out[s].append(t)
        adj_in[t].append(s)
    return idx, adj_out, adj_in


def _canonical_search(q: Quiver):
    """Individualization-refinement: over the vertex orderings it reaches,
    the one whose sorted arrow list is minimal.  Returns that encoding as
    the key and the colors that produce it, each vertex's rank.

    Refinement starts from the rank of each vertex's (out-degree,
    in-degree), which is the first round from uniform colors.  The search
    branches on the lowest color class with more than one member, in
    vertex order, and individualizes each of its vertices v ahead of every
    class: v takes color 0 and every other color goes up by one, depth
    first from an explicit stack.  The keys and orders depend on this rule."""
    n_verts = len(q.vertices)
    idx, adj_out, adj_in = _index_graph(q)
    sources = [idx[s] for s, _ in q.arrows]
    targets = [idx[t] for _, t in q.arrows]
    degrees = [(len(adj_out[v]), len(adj_in[v])) for v in range(n_verts)]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    best = best_colors = None
    stack = [([rank[d] for d in degrees], len(rank))]
    while stack:
        colors, count = _refine_colors(n_verts, adj_out, adj_in, *stack.pop())
        if count == n_verts:
            # colors are distinct here: each is its vertex's rank
            get = colors.__getitem__
            cand = tuple(sorted(zip(map(get, sources), map(get, targets))))
            if best is None or cand < best:
                best, best_colors = cand, colors
            continue
        sizes = [0] * count
        for c in colors:
            sizes[c] += 1
        split = next(c for c, size in enumerate(sizes) if size > 1)
        for v in reversed([v for v, c in enumerate(colors) if c == split]):
            new = [c + 1 for c in colors]
            new[v] = 0  # individualize ahead of every class
            stack.append((new, count + 1))  # the first vertex is popped first
    return (n_verts, best), best_colors


def _canonical_labeling(q: Quiver):
    """The canonical key and the vertices in the rank order producing it."""
    key, colors = _canonical_search(q)
    return key, [v for _, v in sorted(zip(colors, q.vertices))]


def canonical_key(q: Quiver):
    """Label-free canonical encoding: minimal sorted arrow list over all
    vertex orderings consistent with individualization-refinement."""
    return _canonical_search(q)[0]


def is_isomorphic(q1: Quiver, q2: Quiver):
    """Vertex-bijection test preserving the arrow multiset; returns
    (bool, witness dict or None).  The quivers are isomorphic iff their
    canonical keys agree, and the witness pairs the two canonical labelings
    rank by rank, listed in q2's vertex order."""
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return False, None
    key1, order1 = _canonical_labeling(q1)
    key2, order2 = _canonical_labeling(q2)
    if key1 != key2:
        return False, None
    rank2 = {w: r for r, w in enumerate(order2)}
    witness = {order1[rank2[w]]: w for w in q2.vertices}
    if sorted((witness[s], witness[t]) for s, t in q1.arrows) != sorted(q2.arrows):
        raise ModelInconsistencyError("canonical labelings do not map the arrows")
    return True, witness


def delete_vertex(q: Quiver, v) -> Quiver:
    if v not in q.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    return Quiver(tuple([w for w in q.vertices if w != v]),
                  tuple([(s, t) for s, t in q.arrows if s != v and t != v]), q.n)


def reachable(seeds, step) -> set:
    """The seeds and every vertex reached from them by repeated steps;
    step(v) gives the vertices one step from v (q.neighbors for undirected
    reachability, q.out_neighbors along the arrows)."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for w in step(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def connected_components(q: Quiver) -> int:
    remaining = set(q.vertices)
    count = 0
    while remaining:
        count += 1
        remaining -= reachable([next(iter(remaining))], q.neighbors)
    return count


def is_connected(q: Quiver) -> bool:
    return connected_components(q) <= 1


# ---------------------------------------------------------------------------
# mutation classes


def linear_a_quiver(k: int) -> Quiver:
    return Quiver.build(range(1, k + 1), [(i, i + 1) for i in range(1, k)])


def base_quiver_d(k: int) -> Quiver:
    """The base type-D shape on integer vertices 1..k."""
    arrows = [(i, i + 1) for i in range(1, k - 1)]
    arrows.append((k - 2, k))
    return Quiver.build(range(1, k + 1), arrows)


def simple_cycles(q: Quiver) -> list[tuple]:
    """All directed simple cycles, each rooted at its minimal vertex."""
    verts = list(q.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    out = {v: sorted(set(q.out_neighbors(v))) for v in verts}
    cycles = []
    for root in verts:
        path, stack = [root], [iter(out[root])]
        while stack:
            for w in stack[-1]:
                if w == root:
                    cycles.append(tuple(path))
                elif pos[w] > pos[root] and w not in path:
                    path.append(w)
                    stack.append(iter(out[w]))
                    break
            else:  # every out-neighbor of the path's end is done
                stack.pop()
                path.pop()
    return cycles


def _three_cycles_through(q: Quiver, v) -> list[tuple]:
    found = []
    outs = set(q.out_neighbors(v))
    ins = set(q.in_neighbors(v))
    for x in outs:
        for y in set(q.out_neighbors(x)):
            if y in ins and y != v and x != y:
                found.append((v, x, y))
    return found


def check_type_a_shape(q: Quiver) -> None:
    """Structural facts that every quiver mutation-equivalent to a linear
    type-A orientation satisfies."""
    for cyc in simple_cycles(q):
        if len(cyc) != 3:
            raise ModelInconsistencyError(
                f"type-A member with a {len(cyc)}-cycle {cyc}"
            )
    for v in q.vertices:
        nbrs = q.neighbors(v)
        if len(nbrs) > 4:
            raise ModelInconsistencyError(f"type-A member with degree {len(nbrs)}")
        tri_nbrs = [frozenset((x, y)) for _, x, y in _three_cycles_through(q, v)]
        covered = set().union(*tri_nbrs) if tri_nbrs else set()
        if len(nbrs) == 4:
            if len(tri_nbrs) != 2 or covered != nbrs or (tri_nbrs[0] & tri_nbrs[1]):
                raise ModelInconsistencyError(
                    f"degree-4 vertex {v!r} not split into two 3-cycles"
                )
        if len(nbrs) == 3:
            if len(tri_nbrs) != 1 or len(covered) != 2:
                raise ModelInconsistencyError(
                    f"degree-3 vertex {v!r} without the 3-cycle pattern"
                )


def _mutation_class_keys(seed: Quiver, check_a: bool) -> frozenset:
    """The canonical keys of the quivers reached from seed by mutations.
    A quiver is not mutated again at the vertex it was reached by: mutation
    is an involution on these 2-acyclic quivers, so that gives back its
    parent, whose key is already seen."""
    seen = {canonical_key(seed)}
    frontier = [(seed, None)]
    if check_a:
        check_type_a_shape(seed)
    while frontier:
        nxt = []
        for q, back in frontier:
            for v in q.vertices:
                if v == back:
                    continue
                q2 = mutate(q, v)
                key = canonical_key(q2)
                if key not in seen:
                    seen.add(key)
                    if check_a:
                        check_type_a_shape(q2)
                    nxt.append((q2, v))
        frontier = nxt
    return frozenset(seen)


@lru_cache(maxsize=None)
def mutation_class_a(k: int) -> frozenset:
    if k < 1:
        raise UnsupportedSizeError("k must be at least 1")
    return _mutation_class_keys(linear_a_quiver(k), check_a=True)


def mutation_class_a_count(k: int) -> int:
    """Closed-form size of the mutation class of A_k, in exact integer
    arithmetic.  Its quivers are the triangulations of an N-gon, N = k + 3,
    up to rotation (Torkildsen, arXiv:0801.3762): C_(N-2)/N, plus
    C_(N/2-1)/2 for even N, plus 2 C_(N/3-1)/3 when 3 divides N."""
    from math import comb

    def catalan(m: int) -> int:
        return comb(2 * m, m) // (m + 1)

    big = k + 3
    num = 6 * catalan(big - 2)  # the count times 6N
    if big % 2 == 0:
        num += 3 * big * catalan(big // 2 - 1)
    if big % 3 == 0:
        num += 4 * big * catalan(big // 3 - 1)
    if num % (6 * big):
        raise ModelInconsistencyError(f"type-A class count not integral at k={k}")
    return num // (6 * big)


@lru_cache(maxsize=None)
def mutation_class_d(k: int) -> frozenset:
    if k < 4:
        raise UnsupportedSizeError("type D needs k >= 4")
    return _mutation_class_keys(base_quiver_d(k), check_a=False)


def in_mutation_class_a(q: Quiver, k: int) -> bool:
    if len(q.vertices) != k:
        return False
    return canonical_key(q) in mutation_class_a(k)


def in_mutation_class_d(q: Quiver, k: int) -> bool:
    if len(q.vertices) != k:
        return False
    return canonical_key(q) in mutation_class_d(k)
