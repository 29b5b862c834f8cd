"""Combinatorial stable translation quiver on Z_n x {1..n} and the
correspondence with tagged edges.

Vertices are (i, j) with i mod n and 1 <= j <= n; the quiver is n copies of
the base fork shape, one per slice.  Each arrow x -> y of a slice is paired
with the mesh arrow y -> tau^-1 x into the next slice, so every arrow x -> y
has its partner tau y -> x: the quiver is a stable translation quiver, the
shape ZD_n / tau^-1[1] of the Auslander-Reiten quiver of the cluster
category (Buan-Marsh-Reineke-Reiten-Todorov).  For odd n the translation
swaps the two fork columns when it steps across the seam i = 0, and the
mesh arrows into those columns follow it.

The edge correspondence sends a plain arc to the column given by its length;
the two spokes at a vertex land in the fork columns, with the assignment
alternating between slices so that translation on edges (which flips spoke
tags at every step) matches the quiver translation (which only swaps the
fork at the seam, and only for odd n).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import edges as ed
from .edges import TaggedEdge
from .errors import InvalidVertexError


class ARVertex(namedtuple("ARVertex", "i j")):
    __slots__ = ()

    def token(self) -> str:
        return f"t:{self.i}:{self.j}"

    def __repr__(self) -> str:
        return f"ARVertex[{self.token()}]"


def check_ar_vertex(n: int, v: ARVertex) -> None:
    if not (0 <= v.i < n and 1 <= v.j <= n):
        raise InvalidVertexError(f"{v.token()} outside Z_{n} x 1..{n}")


def tau_ar(n: int, v: ARVertex) -> ARVertex:
    """Quiver translation: step one slice clockwise; for odd n the two fork
    columns swap when stepping across the seam i = 0."""
    check_ar_vertex(n, v)
    if n % 2 == 1 and v.i == 0 and v.j == n:
        return ARVertex(n - 1, n - 1)
    if n % 2 == 1 and v.i == 0 and v.j == n - 1:
        return ARVertex(n - 1, n)
    return ARVertex((v.i - 1) % n, v.j)


def tau_ar_inv(n: int, v: ARVertex) -> ARVertex:
    check_ar_vertex(n, v)
    if n % 2 == 1 and v.i == n - 1 and v.j == n:
        return ARVertex(0, n - 1)
    if n % 2 == 1 and v.i == n - 1 and v.j == n - 1:
        return ARVertex(0, n)
    return ARVertex((v.i + 1) % n, v.j)


def sigma_ar(n: int, v: ARVertex) -> ARVertex:
    """Swap the two fork columns, fix everything else."""
    check_ar_vertex(n, v)
    if v.j == n:
        return ARVertex(v.i, n - 1)
    if v.j == n - 1:
        return ARVertex(v.i, n)
    return v


def _spoke_column(n: int, i: int, tag: int) -> int:
    # fork assignment alternates with the slice parity
    return n - 1 if tag == (1 if i % 2 == 0 else -1) else n


def phi(n: int, e: TaggedEdge) -> ARVertex:
    """Edge-to-vertex correspondence: plain arcs by (start, length - 2),
    spokes into the fork columns with parity-alternating tags."""
    ed.check_edge(n, e)
    i = e.a % n
    if e.is_plain:
        return ARVertex(i, ed.delta_length(n, e.a, e.b) - 2)
    return ARVertex(i, _spoke_column(n, i, e.tag))


def phi_inv(n: int, v: ARVertex) -> TaggedEdge:
    check_ar_vertex(n, v)
    a = n if v.i == 0 else v.i
    if v.j <= n - 2:
        return ed.plain(a, ed.wrap(n, a + v.j + 1))
    plus_column = _spoke_column(n, v.i, 1)
    return ed.spoke(a, 1 if v.j == plus_column else -1)


class ARQuiver(namedtuple("ARQuiver", "n arrows")):
    __slots__ = ()

    def vertices(self) -> list[ARVertex]:
        return [ARVertex(i, j) for i in range(self.n) for j in range(1, self.n + 1)]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": [v.token() for v in self.vertices()],
            "arrows": [[s.token(), t.token()] for s, t in self.arrows],
        }

    def to_dot(self, tau_ranks: bool = False) -> str:
        lines = ["digraph AR {"]
        if tau_ranks:
            for orbit in tau_orbits(self.n):
                members = " ".join(f'"{v.token()}"' for v in orbit)
                lines.append(f"  {{ rank=same; {members} }}")
        for v in self.vertices():
            lines.append(f'  "{v.token()}";')
        for s, t in self.arrows:
            lines.append(f'  "{s.token()}" -> "{t.token()}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _base_arrows(n: int) -> list[tuple[int, int]]:
    pairs = [(j, j + 1) for j in range(1, n - 2)]
    pairs.append((n - 2, n - 1))
    pairs.append((n - 2, n))
    return pairs


@lru_cache(maxsize=None)
def build_ar(n: int) -> ARQuiver:
    """n slices of the fork shape: each base arrow j -> l gives the arrow
    (i, j) -> (i, l) in slice i and the mesh arrow from (i, l) to the
    translate tau^-1 (i, j), which lies in the next slice (with the fork
    columns swapped across the seam for odd n)."""
    ed.check_size(n)
    arrows = []
    for i in range(n):
        for j, l in _base_arrows(n):
            arrows.append((ARVertex(i, j), ARVertex(i, l)))
            arrows.append((ARVertex(i, l), tau_ar_inv(n, ARVertex(i, j))))
    arrows.sort(key=lambda a: (a[0].i, a[0].j, a[1].i, a[1].j))
    return ARQuiver(n, tuple(arrows))


def tau_orbits(n: int) -> list[list[ARVertex]]:
    """Orbits of the translation, each listed from its minimal member."""
    seen = set()
    orbits = []
    for i in range(n):
        for j in range(1, n + 1):
            v = ARVertex(i, j)
            if v in seen:
                continue
            orbit = [v]
            seen.add(v)
            w = tau_ar(n, v)
            while w != v:
                orbit.append(w)
                seen.add(w)
                w = tau_ar(n, w)
            orbits.append(orbit)
    return orbits
