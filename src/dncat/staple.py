"""Independent crossing oracle: explicit staple-curve arrangements.

A plain arc M(a,b) is realized as a three-piece polyline ("staple"): a radial
leg descending from the boundary at vertex a to a fixed radius, a circular
run at that radius sweeping counterclockwise from a to b, and a radial leg
back out to the boundary at b.  Each curve gets its own radius, so circular
runs never meet; crossings only happen where a radial piece of one curve
punches through the circular run of the other.  A spoke is a straight radial
segment from its base vertex to the centre.

All coordinates are small integers: angles live on a circle of circumference
6n with vertex v at 6(v-1), and each curve nudges its legs off the vertex ray
by a curve-specific offset so that legs of different curves never coincide,
even at a shared vertex.  The oracle enumerates every radius assignment and
every side choice, counts exact intersections, and returns the minimum.
Spoke-spoke pairs are not geometric in this picture (the tag rule decides
them) and are rejected.

staple_crossing_number builds the curves of its one pair.  A check over
many pairs builds each edge's curves once (realizations) and takes the
same minimum pair by pair (least_crossings).
"""

from __future__ import annotations

from itertools import product

from .edges import TaggedEdge, check_edge

_R_OUT = 100  # boundary radius; circular runs sit at small positive radii


class _Staple:
    """One realized curve: radial legs plus, for plain arcs, a circular run."""

    def __init__(self, n: int, edge: TaggedEdge, sides: tuple[int, ...],
                 magnitude: int, radius: int):
        self.circle = 6 * n
        base = (edge.a - 1) * 6 + sides[0] * magnitude
        if edge.is_spoke:
            # straight segment from the boundary to the centre
            self.legs = ((base, 0, _R_OUT),)
            self.run = None
        else:
            sweep = ((edge.b - edge.a) % n) * 6
            end = base + sweep - sides[0] * magnitude + sides[1] * magnitude
            self.legs = ((base, radius, _R_OUT), (end, radius, _R_OUT))
            self.run = (base, end, radius)

    def crossings_with(self, other: "_Staple") -> int:
        count = 0
        for mine, theirs in ((self, other), (other, self)):
            if mine.run is None:
                continue
            start, end, radius = mine.run
            for angle, r_lo, r_hi in theirs.legs:
                if not r_lo < radius < r_hi:
                    continue
                if 0 < (angle - start) % mine.circle < end - start:
                    count += 1
        return count


def staple_crossing_number(n: int, m: TaggedEdge, other: TaggedEdge) -> int:
    """Minimal intersection count over all staple realizations of the pair.

    Valid for plain-plain and plain-spoke pairs only.
    """
    check_edge(n, m)
    check_edge(n, other)
    if m.is_spoke and other.is_spoke:
        raise ValueError("staple oracle does not apply to spoke-spoke pairs")
    if m == other:
        return 0

    sides_m = list(product((-1, 1), repeat=1 if m.is_spoke else 2))
    sides_o = list(product((-1, 1), repeat=1 if other.is_spoke else 2))
    best = None
    for radius_m, radius_o in ((1, 2), (2, 1)):
        # each curve is built once per side choice and radius
        curves_m = [_Staple(n, m, cm, 2, radius_m) for cm in sides_m]
        curves_o = [_Staple(n, other, co, 3, radius_o) for co in sides_o]
        for a in curves_m:
            for b in curves_o:
                total = a.crossings_with(b)
                if best is None or total < best:
                    best = total
    return best


def _curves(n: int, edge: TaggedEdge, magnitude: int, radius: int) -> list[_Staple]:
    return [_Staple(n, edge, sides, magnitude, radius)
            for sides in product((-1, 1), repeat=1 if edge.is_spoke else 2)]


def realizations(n: int, edge: TaggedEdge) -> tuple:
    """Every staple of a validated edge that the oracle compares, per
    radius 1 and 2: its curves as the first edge of a pair (magnitude 2),
    then as the second (magnitude 3)."""
    return tuple((_curves(n, edge, 2, r), _curves(n, edge, 3, r)) for r in (1, 2))


def least_crossings(first: tuple, second: tuple) -> int:
    """staple_crossing_number of two distinct edges, not both spokes, from
    their realizations: the minimum over both radius orders and every side
    choice, ended at the first realization without a crossing."""
    best = None
    for r_first, r_second in ((0, 1), (1, 0)):
        for a in first[r_first][0]:
            for b in second[r_second][1]:
                total = a.crossings_with(b)
                if not total:
                    return 0
                if best is None or total < best:
                    best = total
    return best
