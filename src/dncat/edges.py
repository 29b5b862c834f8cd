"""Tagged edges of the punctured polygon.

Boundary vertices are labelled 1..n counterclockwise.  An edge is either a
plain arc M(a,b) between distinct boundary vertices, homotopic to the
counterclockwise boundary path from a to b, or a tagged spoke M(a,a)^tag
from vertex a to the central puncture.  All label arithmetic is mod n with
representatives in 1..n.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import InvalidEdgeError, InvalidVertexError, UnsupportedSizeError

MIN_N = 4

CLOSE_TO_BORDER = "closeToBorder"
CONNECTED = "connected"
DEGENERATE = "degenerate"


class TaggedEdge(namedtuple("TaggedEdge", "a b tag", defaults=(1,))):
    """A plain arc (a != b, tag == +1) or a tagged spoke (a == b, tag == +-1)."""

    __slots__ = ()

    @property
    def is_spoke(self) -> bool:
        return self.a == self.b

    @property
    def is_plain(self) -> bool:
        return self.a != self.b

    def token(self) -> str:
        if self.is_spoke:
            return f"s:{self.a}:{'+' if self.tag == 1 else '-'}"
        return f"p:{self.a}-{self.b}"

    def to_json(self) -> dict:
        if self.is_spoke:
            return {"kind": "spoke", "a": self.a, "tag": self.tag}
        return {"kind": "plain", "a": self.a, "b": self.b}

    def __repr__(self) -> str:
        return f"TaggedEdge[{self.token()}]"


def plain(a: int, b: int) -> TaggedEdge:
    return TaggedEdge(a, b, 1)


def spoke(a: int, tag: int) -> TaggedEdge:
    return TaggedEdge(a, a, tag)


def check_size(n: int) -> None:
    if n < MIN_N:
        raise UnsupportedSizeError(f"polygon size n={n} unsupported, need n >= {MIN_N}")


def check_vertex(n: int, v: int) -> None:
    if not 1 <= v <= n:
        raise InvalidVertexError(f"vertex {v} out of range 1..{n}")


def wrap(n: int, v: int) -> int:
    """Reduce a label to the representative in 1..n."""
    return (v - 1) % n + 1


def delta_length(n: int, a: int, b: int) -> int:
    """Number of vertices on the counterclockwise boundary path from a to b,
    both endpoints included; the full loop a -> a counts n + 1."""
    check_size(n)
    check_vertex(n, a)
    check_vertex(n, b)
    if a == b:
        return n + 1
    return (b - a) % n + 1


def check_edge(n: int, e: TaggedEdge) -> None:
    check_size(n)
    check_vertex(n, e.a)
    check_vertex(n, e.b)
    if e.tag not in (1, -1):
        raise InvalidEdgeError(f"tag must be +1 or -1, got {e.tag}")
    if e.is_plain:
        if e.tag != 1:
            raise InvalidEdgeError("plain edges carry no tag (tag must be +1)")
        if delta_length(n, e.a, e.b) < 3:
            raise InvalidEdgeError(
                f"{e.token()} is not an edge: |delta({e.a},{e.b})| >= 3 is required"
            )


def classify_edge(n: int, e: TaggedEdge) -> str:
    check_edge(n, e)
    if e.is_spoke:
        return DEGENERATE
    if delta_length(n, e.a, e.b) == 3:
        return CLOSE_TO_BORDER
    return CONNECTED


def all_edges(n: int) -> tuple[TaggedEdge, ...]:
    """All n*n tagged edges in canonical order: n(n-2) plain arcs by (a,
    length), then 2n spokes by (a, tag) with +1 before -1."""
    return alphabet(n).edges


def edge_index(n: int, e: TaggedEdge) -> int:
    check_edge(n, e)
    return alphabet(n).index[e]


def crossing_number(n: int, m: TaggedEdge, other: TaggedEdge) -> int:
    """Minimal number of interior intersections of two tagged edges.

    Spoke pairs follow the tag rule: spokes at distinct vertices cross once
    exactly when their tags differ.  A spoke crosses a plain arc exactly when
    its base lies strictly inside the arc's counterclockwise interval.  Two
    plain arcs are compared on the universal cover of the annulus: each lift
    of one arc forces a crossing when exactly one of its endpoints falls
    strictly inside the other arc's interval and the other falls strictly
    outside (endpoint coincidences never force a crossing, since curves may
    pick their side at a shared corner).
    """
    check_edge(n, m)
    check_edge(n, other)
    return _crossing(n, m, other)


def _crossing(n: int, m: TaggedEdge, other: TaggedEdge) -> int:
    a, b, tag = m
    oa, ob, otag = other
    if a == b:
        if oa == ob:
            return 1 if (a != oa and tag != otag) else 0
        return 1 if 0 < (a - oa) % n < (ob - oa) % n else 0
    span = (b - a) % n
    if oa == ob:
        return 1 if 0 < (oa - a) % n < span else 0
    # plain vs plain, on the line shifted so m starts at 0: window (0, span),
    # lifts (x, x+q).  The window is shorter than n and so is q, so only the
    # lifts starting at d and d-n (d in 0..n-1) can put an endpoint strictly
    # inside it, and a lift crosses when exactly one endpoint is strictly
    # inside and the other strictly outside.  The lift at d >= 0 ends past
    # its start, so it crosses when it starts inside and ends beyond span;
    # the lift at d - n < 0 starts outside, so it crosses when it ends
    # inside.  Equal arcs meet only at the window's ends and count 0.
    q = (ob - oa) % n
    d = (oa - a) % n
    return (0 < d < span < d + q) + (0 < d + q - n < span)


def tau(n: int, e: TaggedEdge) -> TaggedEdge:
    """Translation: rotate both endpoints clockwise; spoke tags flip."""
    check_edge(n, e)
    if e.is_spoke:
        return spoke(wrap(n, e.a - 1), -e.tag)
    return plain(wrap(n, e.a - 1), wrap(n, e.b - 1))


def tau_inv(n: int, e: TaggedEdge) -> TaggedEdge:
    check_edge(n, e)
    if e.is_spoke:
        return spoke(wrap(n, e.a + 1), -e.tag)
    return plain(wrap(n, e.a + 1), wrap(n, e.b + 1))


def sigma(n: int, e: TaggedEdge) -> TaggedEdge:
    """Tag swap: fixes plain edges, flips the tag of every spoke."""
    check_edge(n, e)
    if e.is_spoke:
        return spoke(e.a, -e.tag)
    return e


def tau_order(n: int) -> int:
    """Order of the translation on the full edge alphabet: n for even n,
    2n for odd n (the tag flip only closes up after an even number of laps)."""
    return n if n % 2 == 0 else 2 * n


def ext_dim(n: int, m: TaggedEdge, other: TaggedEdge) -> int:
    """dim Ext^1 between the two objects: the crossing number."""
    return crossing_number(n, m, other)


def hom_dim(n: int, m: TaggedEdge, other: TaggedEdge) -> int:
    """dim Hom between the two objects: crossing number against the
    translate tau^{-1} of the target."""
    return crossing_number(n, m, tau_inv(n, other))


def parse_edge(token: str) -> TaggedEdge:
    """Parse "p:a-b" or "s:a:+" / "s:a:-"."""
    token = token.strip()
    try:
        if token.startswith("p:"):
            a, b = map(int, token[2:].split("-"))
            if a == b:  # plain(a, a) would be the spoke s:a:+
                raise ValueError(token)
            return plain(a, b)
        if token.startswith("s:"):
            a_s, t_s = token[2:].split(":")
            if t_s not in ("+", "-"):
                raise ValueError(t_s)
            return spoke(int(a_s), 1 if t_s == "+" else -1)
    except (ValueError, IndexError) as exc:
        raise InvalidEdgeError(f"malformed edge token {token!r}") from exc
    raise InvalidEdgeError(f"malformed edge token {token!r}")


def compatibility_masks(n: int) -> tuple[int, ...]:
    """Bitset row per edge index: bit j set iff edge j is distinct from and
    non-crossing with edge i."""
    return alphabet(n).masks


class Alphabet(namedtuple("Alphabet", "edges index tokens by_token cross masks "
                                    "tau tau_inv sigma kind")):
    """The per-n edge tables on canonical edge indices: the edges in order,
    the index of each edge, the token of each edge (tokens) and the index of
    each token (by_token), the crossing numbers as one bytes row per edge,
    the compatibility masks, the translation, its inverse and the tag swap
    as index permutations, and classify_edge of each edge.

    Only the n rows of the edges at vertex 1 come from the crossing rule;
    every other crossing row is a translate of one of them, and each mask
    is read off its crossing row (see alphabet)."""

    __slots__ = ()


# bytes.translate table: crossing number 0 -> "1", any other -> "0"
_FREE = b"1" + b"0" * 255


@lru_cache(maxsize=None)
def alphabet(n: int) -> Alphabet:
    """The edge tables of the n-gon, built on first use.  The edges are
    generated in canonical order, and the permutations and kinds come from
    the index formulas.  The crossing rule runs unchecked on the rows of
    the n edges at vertex 1 (n - 2 arcs and 2 spokes), n**3 calls.  Every
    other row is translated: the crossing number is tau-invariant, so
    cross[j][k] = cross[tau j][tau k], and row j is row tau(j) permuted by
    tau, a few bytes slices per row.  Mask row i sets bit j where row i
    reads 0, with bit i cleared.  verify's crossing suite compares every
    entry of both tables with the rule."""
    check_size(n)
    arcs = n * (n - 2)
    # each edge's (a, b, tag) as a plain tuple, which the moves and the
    # crossing rule unpack faster than the edge itself
    ends = [(a, wrap(n, a + length - 1), 1)
            for a in range(1, n + 1) for length in range(3, n + 1)]
    ends += [(a, a, tag) for a in range(1, n + 1) for tag in (1, -1)]
    edges = tuple(map(TaggedEdge._make, ends))
    index = {e: i for i, e in enumerate(edges)}
    tokens = tuple(e.token() for e in edges)

    def moved(step: int, e: tuple) -> int:
        # the index of e turned by step vertices; tau, tau^-1 and sigma
        # (step -1, 1, 0) all swap spoke tags
        a, b, tag = e
        if a == b:
            return arcs + 2 * (wrap(n, a + step) - 1) + (tag == 1)
        return _plain_index(n, wrap(n, a + step), wrap(n, b + step))

    tau_, tau_inv_, sigma_ = (tuple(moved(step, e) for e in ends) for step in (-1, 1, 0))
    kind = ((CLOSE_TO_BORDER,) + (CONNECTED,) * (n - 3)) * n + (DEGENERATE,) * (2 * n)

    back = arcs - (n - 2)

    def turn(row: bytes) -> bytes:
        # entry k moves from entry tau(k): the arcs turn back one start
        # vertex (n - 2 places), the spokes one vertex (2 places), and each
        # spoke pair swaps its tags
        ring = row[-2:] + row[arcs:-2]
        spokes = bytearray(2 * n)
        spokes[0::2], spokes[1::2] = ring[1::2], ring[0::2]
        return row[back:arcs] + row[:back] + spokes

    cross = [b""] * len(edges)
    for i in (*range(n - 2), arcs, arcs + 1):  # the edges at vertex 1
        cross[i] = bytes([_crossing(n, ends[i], e) for e in ends])
    for i in range(len(edges)):  # tau(i) < i off vertex 1, so its row is built
        if not cross[i]:
            cross[i] = turn(cross[tau_[i]])
    masks = tuple(int(row.translate(_FREE)[::-1], 2) & ~(1 << i)
                  for i, row in enumerate(cross))
    return Alphabet(edges, index, tokens, {t: i for i, t in enumerate(tokens)},
                    tuple(cross), masks, tau_, tau_inv_, sigma_, kind)


def _plain_index(n: int, a: int, b: int) -> int:
    """Canonical index of the plain arc M(a, b), unchecked: the arcs come
    first, by start vertex a and then by length (b - a) mod n + 1, exactly
    as alphabet generates them."""
    return (a - 1) * (n - 2) + (b - a) % n - 2
