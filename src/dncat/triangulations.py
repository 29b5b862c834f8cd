"""Triangulations of the punctured polygon: enumeration, flips, the
translation/tag-swap equivalence with canonical orbit representatives and
its class graph, the four structural types, and quotients."""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from . import edges as ed
from .edges import TaggedEdge
from .errors import (
    InvalidQuotientError,
    ModelInconsistencyError,
    NotATriangulationError,
    UnsupportedSizeError,
)
from ._maxcliques_py import maximal_cliques

TYPE1, TYPE2, TYPE3, TYPE4 = 1, 2, 3, 4


class Triangulation(namedtuple("Triangulation", "n key")):
    """A maximal set of n pairwise non-crossing tagged edges, held as the
    sorted tuple of its edge indices (its key).  The constructor trusts the
    key; from_edges and parse_triangulation validate outside input."""

    __slots__ = ()

    @classmethod
    def from_edges(cls, n: int, items) -> "Triangulation":
        """Validating constructor; raises NotATriangulationError with a
        witness when the set is not a triangulation."""
        return cls(n, _checked_key(n, _edge_indices(n, tuple(items))))

    @property
    def edges(self) -> tuple[TaggedEdge, ...]:
        """The edges in canonical order."""
        universe = ed.alphabet(self.n).edges
        return tuple(universe[i] for i in self.key)

    def token(self) -> str:
        tokens = ed.alphabet(self.n).tokens
        return ",".join([tokens[i] for i in self.key])

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [e.to_json() for e in self.edges]}

    def plains(self) -> tuple[TaggedEdge, ...]:
        """The arcs: the n(n-2) arcs open the alphabet, so the key below n(n-2)."""
        universe, key = ed.alphabet(self.n).edges, self.key
        return tuple([universe[i] for i in key[:bisect_left(key, self.n * (self.n - 2))]])

    def spokes(self) -> tuple[TaggedEdge, ...]:
        """The spokes, by base and +1 before -1: the key from n(n-2) on."""
        universe, key = ed.alphabet(self.n).edges, self.key
        return tuple([universe[i] for i in key[bisect_left(key, self.n * (self.n - 2)):]])

    def __repr__(self) -> str:
        return f"Triangulation[n={self.n}: {self.token()}]"


def fan(n: int) -> Triangulation:
    """The fan at vertex 1: arcs 1->3 .. 1->n plus both spokes at 1."""
    index = ed.alphabet(n).index
    items = [ed.plain(1, k) for k in range(3, n + 1)] + [ed.spoke(1, 1), ed.spoke(1, -1)]
    return Triangulation(n, tuple(sorted(index[e] for e in items)))


def parse_triangulation(n: int, text: str) -> Triangulation:
    """Parse a comma-separated token list and validate it.  When every
    token is canonical (an entry of the alphabet's tokens) each maps
    straight to its edge index.  Otherwise (another spelling, a malformed
    or blank token, a vertex out of range, a short arc, n below the
    minimum) every non-blank token is parsed by parse_edge and then checked
    by check_edge, in input order.  The duplicate, crossing and maximality
    checks then run on the indices either way, as for from_edges."""
    tokens = text.split(",")
    by_token = ed.alphabet(n).by_token if n >= ed.MIN_N else {}
    keys = list(map(by_token.get, tokens))
    if None in keys:
        keys = _edge_indices(n, [ed.parse_edge(tok) for tok in tokens if tok.strip()])
    return Triangulation(n, _checked_key(n, keys))


def _edge_indices(n: int, items) -> list[int]:
    """The canonical index of each edge, every edge checked first."""
    for e in items:
        ed.check_edge(n, e)
    index = ed.alphabet(n).index
    return [index[e] for e in items]


def _checked_key(n: int, keys: list[int]) -> tuple[int, ...]:
    """The sorted key of a set of edge indices, given in input order, after
    the duplicate, crossing and maximality checks."""
    if len(set(keys)) != len(keys):
        raise NotATriangulationError("duplicate edges in set")
    alpha = ed.alphabet(n)
    masks, tokens = alpha.masks, alpha.tokens
    members = 0
    for a in keys:
        members |= 1 << a
    # distinct edges cross exactly when their compatibility bit is clear.
    # Pairs are tested in input order, so the first crossing pair is the
    # witness: the first member whose row misses another member crosses
    # only later ones (crossing is symmetric), the first of them is its
    # partner.  common collects the edges compatible with every member;
    # the lowest is the first extension in canonical order.
    common = (1 << len(masks)) - 1
    for i, a in enumerate(keys):
        row = masks[a]
        if members & ~row != 1 << a:
            b = next(b for b in keys[i + 1:] if not row >> b & 1)
            raise NotATriangulationError(f"edges cross: {tokens[a]} x {tokens[b]}")
        common &= row
    maximal = common == 0
    if maximal != (len(keys) == n):
        raise ModelInconsistencyError(
            f"maximality ({maximal}) and size-n ({len(keys)}=={n}) checks disagree"
        )
    if not maximal:
        witness = tokens[(common & -common).bit_length() - 1]
        raise NotATriangulationError(
            f"set is not maximal: {witness} is compatible with all members"
        )
    return tuple(sorted(keys))


def is_triangulation(n: int, items) -> bool:
    """True iff the set is pairwise non-crossing and maximal (see
    Triangulation.from_edges)."""
    try:
        Triangulation.from_edges(n, items)
    except NotATriangulationError:
        return False
    return True


@lru_cache(maxsize=None)
def _all_index_sets(n: int) -> list[bytes] | str:
    """The keys of every triangulation, as the kernel's sorted list of
    packed keys (bytes, one edge index per byte), or the message of the
    kernel's size guard when it refuses a maximal set: a refusal is
    remembered per n like a result, so a broken kernel runs once per n and
    not once per ask.  The n * n edge indices fit in a byte up to n = 16,
    so a larger n is refused before the kernel runs (the enumeration there
    has over 10^9 keys)."""
    if n * n > 256:
        raise UnsupportedSizeError(
            f"the enumeration packs each edge index in a byte, so n <= 16; got n={n}")
    masks = ed.alphabet(n).masks
    cliques = maximal_cliques(masks, len(masks))
    for c in cliques:
        if len(c) != n:
            return f"maximal non-crossing set of size {len(c)} at n={n}"
    return cliques


def _index_sets(n: int) -> list[bytes]:
    """The packed keys of every triangulation, in lexicographic order;
    raises the remembered refusal."""
    sets = _all_index_sets(n)
    if isinstance(sets, str):
        raise ModelInconsistencyError(sets)
    return sets


def enumerate_all(n: int):
    """Every triangulation exactly once, in lexicographic canonical order."""
    for key in _index_sets(n):
        yield Triangulation(n, tuple(key))


def count_all(n: int) -> int:
    return len(_index_sets(n))


def cluster_count_formula(n: int) -> int:
    """Closed-form cross-check for the number of triangulations: the type-D
    cluster count (3n-2)/n * C(2n-2, n-1), in exact integer arithmetic."""
    from math import comb

    num = (3 * n - 2) * comb(2 * n - 2, n - 1)
    if num % n:
        raise ModelInconsistencyError(f"cluster count formula not integral at n={n}")
    return num // n


def class_count_formula(n: int) -> int:
    """Closed-form cross-check for the number of classes,
    (1/2n) sum over d | n of phi(n/d) C(2d, d) (Buan-Torkildsen), in exact
    integer arithmetic.  For n >= 5 it is also the size of the mutation
    class of D_n; at n = 4 the ten classes have only six quivers between
    them (the d4 collision)."""
    from math import comb, gcd

    def phi(k: int) -> int:
        return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)

    num = sum(phi(n // d) * comb(2 * d, d) for d in range(1, n + 1) if n % d == 0)
    if num % (2 * n):
        raise ModelInconsistencyError(f"class count formula not integral at n={n}")
    return num // (2 * n)


def _flip_index(n: int, key: tuple[int, ...], m: int) -> tuple[tuple[int, ...], int]:
    """Flip edge index m out of the sorted index tuple key: the replacement is
    the single edge other than m compatible with every kept edge.  Returns
    the new sorted key and the replacement's index."""
    alpha = ed.alphabet(n)
    masks = alpha.masks
    kept = [i for i in key if i != m]
    cand = (1 << len(masks)) - 1
    for i in kept:
        cand &= masks[i]
    cand &= ~(1 << m)
    if cand == 0 or cand & (cand - 1):
        found = [alpha.tokens[j] for j in range(len(masks)) if cand >> j & 1]
        raise ModelInconsistencyError(
            f"flip of {alpha.tokens[m]} has {len(found)} replacements {found}; "
            "expected 1"
        )
    m2 = cand.bit_length() - 1
    insort(kept, m2)
    return tuple(kept), m2


def flip(tri: Triangulation, m: TaggedEdge) -> tuple[Triangulation, TaggedEdge]:
    """Exchange edge m for the unique other edge restoring maximality."""
    n = tri.n
    alpha = ed.alphabet(n)
    i = alpha.index.get(m)
    if i not in tri.key:
        raise NotATriangulationError(f"{m.token()} is not an edge of the triangulation")
    key2, m2 = _flip_index(n, tri.key, i)
    return Triangulation(n, key2), alpha.edges[m2]


def _class_of(n: int, key: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The representative of key's class, min(_orbit(n, key)), and the index
    in _group(n) of the first element carrying key onto it."""
    images = list(map(sorted, map(itemgetter(*key), _group(n))))
    rep = min(images)
    return tuple(rep), images.index(rep)


@lru_cache(maxsize=1)
def class_graph(n: int) -> tuple:
    """Breadth-first walk of the translation/tag-swap classes from the
    fan's, as (start, flips, revisits).  Only the last n walked is kept:
    its readers (flip connectivity, the transport build, commutation) run
    at one n before the next n is walked.  start: the index in _group(n) of
    the element carrying the fan onto the first representative.  flips: per
    representative R, in the order reached, one (m2, R', g) per edge m of
    R: flipping m gives the replacement m2 and a key that element g carries
    onto R'.  revisits: per flip onto an R' reached before, x.g^-1.x'^-1,
    where x carries R (x' carries R') into the fan's component C of the
    flip graph; each fixes C, as the alphabet laws make every element a
    flip-graph automorphism."""
    group = _group(n)
    products = [[group.index(tuple([a[j] for j in b])) for b in group] for a in group]
    inverse = [row.index(0) for row in products]  # index 0 is the identity
    rep, start = _class_of(n, fan(n).key)
    reached = {rep: (rep, inverse[start])}  # R: (the one tuple of R, x)
    order = [rep]
    flips, revisits = {}, set()
    for key in order:
        x = reached[key][1]
        row = []
        for m in key:
            key2, m2 = _flip_index(n, key, m)
            rep, g = _class_of(n, key2)
            first = rep, products[x][inverse[g]]  # x.g^-1
            known = reached.setdefault(rep, first)
            if known is first:
                order.append(rep)
            else:
                rep = known[0]
                revisits.add(products[first[1]][inverse[known[1]]])
            row.append((m2, rep, g))
        flips[key] = tuple(row)
    return start, flips, frozenset(revisits)


def _apply(tri: Triangulation, perm: tuple[int, ...]) -> Triangulation:
    return Triangulation(tri.n, tuple(sorted(perm[i] for i in tri.key)))


def apply_tau(tri: Triangulation) -> Triangulation:
    return _apply(tri, ed.alphabet(tri.n).tau)


def apply_sigma(tri: Triangulation) -> Triangulation:
    return _apply(tri, ed.alphabet(tri.n).sigma)


@lru_cache(maxsize=None)
def _group(n: int) -> tuple[tuple[int, ...], ...]:
    """The group generated by the translation and the tag swap, as index
    permutations in the order tau^0, sigma tau^0, tau^1, sigma tau^1, ...
    up to tau_order(n), each once (for odd n, tau^n is sigma)."""
    alpha = ed.alphabet(n)
    tau, sigma = alpha.tau, alpha.sigma
    perms = []
    g = tuple(range(len(tau)))
    for _ in range(ed.tau_order(n)):
        perms.append(g)
        perms.append(tuple(sigma[i] for i in g))
        g = tuple(tau[i] for i in g)
    return tuple(dict.fromkeys(perms))


def _orbit(n: int, key: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The orbit of key under the translation and the tag swap: each member's
    sorted index tuple, mapped to the first group element (in _group order)
    that carries key onto it."""
    images = itemgetter(*key)  # key has n >= 4 entries: always a tuple
    orbit: dict[tuple[int, ...], tuple[int, ...]] = {}
    for g in _group(n):
        orbit.setdefault(tuple(sorted(images(g))), g)
    return orbit


def _orbit_keys(n: int, key: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sorted index tuples of the orbit of key, deduplicated and in
    lexicographic order."""
    return sorted(_orbit(n, key))


def orbit(tri: Triangulation) -> list[Triangulation]:
    """The orbit under the group generated by the translation and the tag
    swap, as a deduplicated list sorted by edge indices."""
    return [Triangulation(tri.n, k) for k in _orbit_keys(tri.n, tri.key)]


def canonical_form(tri: Triangulation) -> tuple[Triangulation, int]:
    """Lexicographic minimum of the orbit plus the orbit's cardinality, the
    number of distinct images: one pass over the group, the orbit not
    sorted."""
    images = itemgetter(*tri.key)
    orbit = {tuple(sorted(images(g))) for g in _group(tri.n)}
    return Triangulation(tri.n, min(orbit)), len(orbit)


def classify_type(tri: Triangulation) -> int:
    """The structural type: 1 with a length-n arc, else by the degenerate
    edge configuration (double / two separate spokes / three or more)."""
    n, key = tri.n, tri.key
    m = n - 2
    split = bisect_left(key, n * m)
    # arc i has i % (n-2) + 2 boundary steps, spoke n(n-2) + 2(a-1) + tag bit
    if any(i % m == m - 1 for i in key[:split]):  # length n
        return TYPE1
    spokes = key[split:]
    if len(spokes) == 2:
        return TYPE2 if (spokes[0] - n * m) // 2 == (spokes[1] - n * m) // 2 else TYPE3
    if len(spokes) >= 3:
        return TYPE4
    raise ModelInconsistencyError(
        f"triangulation with {len(spokes)} degenerate edges: {tri.token()}"
    )


class TriangulationClass(namedtuple("TriangulationClass", "representative orbit_size type")):
    """An equivalence class under translation and tag swap."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "representative": self.representative.token(),
            "orbitSize": self.orbit_size,
            "type": self.type,
        }


@lru_cache(maxsize=None)
def equivalence_classes(n: int) -> tuple[TriangulationClass, ...]:
    """Orbit representatives of all triangulations, in canonical order."""
    # The keys come in lexicographic order, so the first key met of each
    # orbit is its minimum; the rest of the orbit is marked by position.
    keys = _index_sets(n)
    marked = bytearray(len(keys))
    classes = []
    for key, seen in zip(keys, marked):
        if seen:
            continue
        rep = Triangulation(n, tuple(key))
        orbit = _orbit_keys(n, rep.key)
        for other in orbit[1:]:
            packed = bytes(other)
            at = bisect_left(keys, packed)
            if keys[at:at + 1] != [packed]:
                raise ModelInconsistencyError(f"orbit of {rep.key} leaves the enumeration")
            marked[at] = 1
        classes.append(TriangulationClass(rep, len(orbit), classify_type(rep)))
    return tuple(classes)


def type_census(n: int) -> dict[int, int]:
    census = {TYPE1: 0, TYPE2: 0, TYPE3: 0, TYPE4: 0}
    for tri in enumerate_all(n):
        census[classify_type(tri)] += 1
    return census


def class_census(n: int) -> dict[int, int]:
    census = {TYPE1: 0, TYPE2: 0, TYPE3: 0, TYPE4: 0}
    for cls in equivalence_classes(n):
        census[cls.type] += 1
    return census


def quotient(tri: Triangulation, m: TaggedEdge) -> Triangulation:
    """Factor out a close-to-border arc M(a, a+2): delete boundary vertex
    a+1 and relabel downward, yielding a triangulation one size smaller."""
    universe = ed.alphabet(tri.n - 1).edges
    return Triangulation.from_edges(
        tri.n - 1, [universe[j] for j in quotient_map(tri, m).values()])


def quotient_map(tri: Triangulation, m: TaggedEdge) -> dict[int, int]:
    """The quotient's explicit edge map: each edge index of tri other than
    m to the index of its relabelled edge in quotient(tri, m)."""
    n = tri.n
    alpha = ed.alphabet(n)
    i = alpha.index.get(m)
    if i not in tri.key:
        raise InvalidQuotientError(f"{m.token()} is not an edge of the triangulation")
    if alpha.kind[i] != ed.CLOSE_TO_BORDER:
        raise InvalidQuotientError(f"{m.token()} is not close to the border")
    if n - 1 < ed.MIN_N:
        raise UnsupportedSizeError(f"quotient would leave n={n - 1} < {ed.MIN_N}")
    row = _quotient_rows(n)[i]
    edge_map = {j: row[j] for j in tri.key if j != i}
    if None in edge_map.values():
        raise ModelInconsistencyError(
            f"edge at deleted vertex {ed.wrap(n, m.a + 1)} survived the quotient"
        )
    return edge_map


@lru_cache(maxsize=None)
def _quotient_rows(n: int) -> dict[int, tuple]:
    """Per close-to-border arc index i, M(a, a+2): the index at n - 1 of
    every edge once boundary vertex a+1 is deleted and the labels above it
    move down, or None for an edge at a+1 or one whose image is no edge.
    In a triangulation holding M(a, a+2), every other edge avoids a+1, and
    an arc over it keeps at least three boundary vertices."""
    alpha = ed.alphabet(n)
    index = ed.alphabet(n - 1).index
    rows = {}
    for i, m in enumerate(alpha.edges):
        if alpha.kind[i] != ed.CLOSE_TO_BORDER:
            continue
        dropped = ed.wrap(n, m.a + 1)
        rows[i] = tuple(
            None if dropped in (e.a, e.b) else index.get(TaggedEdge(
                e.a - (e.a > dropped), e.b - (e.b > dropped), e.tag))
            for e in alpha.edges)
    return rows


def pairwise_hom_matrix(tri: Triangulation) -> list[list[int]]:
    """Matrix of morphism-space dimensions between the edges, in canonical
    edge order; the diagonal records each edge's endomorphisms."""
    alpha = ed.alphabet(tri.n)
    cross, tau_inv = alpha.cross, alpha.tau_inv
    # dim Hom(a, b) = e(a, tau^{-1} b), read off the crossing table: row a
    # gathered at the tau^{-1} images of the key (n >= 4 entries, a tuple)
    row = itemgetter(*[tau_inv[b] for b in tri.key])
    return [list(row(cross[a])) for a in tri.key]
