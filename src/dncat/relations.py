"""Relation ideals of the cluster-tilted algebras, read off the templates.

Paths are written left to right along the arrows, as edge-index tuples.
Every type-A region contributes the length-2 subpaths of its triangle-rule
3-cycles.  The central configuration adds, per type:

  type 1: nothing beyond the region relations.
  type 2: the commutativity of the two spoke routes between the junction
          arcs, and the four length-2 zero paths through the return arrow h.
  type 3: the four length-3 subpaths of the central 4-cycle.
  type 4: per connecting arc, the three length-2 paths of its f g h
          3-cycle; plus the cyclic spoke paths, one lap long when the gap
          being closed carries a connecting arc and one arrow shorter when
          that gap is a neighbor pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import edges as ed
from . import quivers as qv
from . import triangulations as tr
from .errors import ModelInconsistencyError


@dataclass(frozen=True, slots=True)
class RelationSet:
    """Relation generators as vertex tuples: edge indices for a
    triangulation of the n-gon, abstract labels when n is None."""

    zero_paths: tuple = field(default_factory=tuple)
    commutativity_pairs: tuple = field(default_factory=tuple)
    n: int | None = None

    def is_empty(self) -> bool:
        return not self.zero_paths and not self.commutativity_pairs

    def to_json(self) -> dict:
        """Paths by vertex name: edge tokens for a triangulation."""
        universe = None if self.n is None else ed.alphabet(self.n).edges

        def names(path: tuple) -> list:
            return list(path) if universe is None else [universe[v].token() for v in path]

        return {
            "zeroPaths": [names(p) for p in self.zero_paths],
            "commutativityPairs": [
                [names(p), names(q)] for p, q in self.commutativity_pairs
            ],
        }


def _check_composable(arrows: set, path: tuple, universe) -> None:
    for s, t in zip(path, path[1:]):
        if (s, t) not in arrows:
            raise ModelInconsistencyError(
                f"relation path {tuple(universe[v].token() for v in path)} not "
                f"composable: missing arrow {universe[s].token()}->{universe[t].token()}"
            )


def _cycle_subpaths(cycle: tuple, length: int) -> list[tuple]:
    k = len(cycle)
    doubled = cycle + cycle
    return [tuple(doubled[i:i + length + 1]) for i in range(k)]


def relations_of(tri: tr.Triangulation) -> RelationSet:
    """Generators of the relation ideal, on edge-index vertices."""
    n = tri.n
    universe = ed.alphabet(n).edges
    dec = qv.decompose(tri)
    zero: list[tuple] = []
    comm: list[tuple] = []

    for _, _, triangles in dec.regions:
        for cycle in qv.region_three_cycles(triangles):
            zero.extend(_cycle_subpaths(cycle, 2))

    if dec.type == tr.TYPE2:
        (f1, f2), (g1, g2), h = _type2_roles(dec, universe)
        comm.append(((f1[0], f1[1], f2[1]), (g1[0], g1[1], g2[1])))
        zero.append((h[0], h[1], f1[1]))    # h f1
        zero.append((f2[0], f2[1], h[1]))   # f2 h
        zero.append((h[0], h[1], g1[1]))    # h g1
        zero.append((g2[0], g2[1], h[1]))   # g2 h
    elif dec.type == tr.TYPE3:
        cycle = _type3_cycle(dec, universe)
        zero.extend(_cycle_subpaths(cycle, 3))
    elif dec.type == tr.TYPE4:
        spokes = dec.spoke_cycle
        t = len(spokes)
        for i, junction in enumerate(dec.junctions):
            if junction is None:
                continue
            nxt = spokes[(i + 1) % t]
            zero.append((spokes[i], nxt, junction))      # f_i g_i
            zero.append((nxt, junction, spokes[i]))      # g_i h_i
            zero.append((junction, spokes[i], nxt))      # h_i f_i
        lap = spokes + spokes
        for i in range(t):
            a_prev = universe[spokes[i - 1]].a
            a_here = universe[spokes[i]].a
            steps = t - 1 if ed.delta_length(n, a_prev, a_here) == 2 else t
            zero.append(tuple(lap[i:i + steps + 1]))

    arrows = set(dec.arrows())
    for p in zero + [p for pair in comm for p in pair]:
        _check_composable(arrows, p, universe)
    return RelationSet(tuple(zero), tuple(comm), n)


def _type2_roles(dec: qv.Decomposition, universe):
    """Recover (f1,f2), (g1,g2), h from the central arrows: the two spoke
    routes out of the junction arc and the return arrow between the arcs."""
    spoke_targets = {}
    spoke_sources = {}
    h = None
    for s, t in dec.central_arrows:
        s_spoke = universe[s].is_spoke
        t_spoke = universe[t].is_spoke
        if not s_spoke and t_spoke:
            spoke_targets[t] = (s, t)
        elif s_spoke and not t_spoke:
            spoke_sources[s] = (s, t)
        else:
            h = (s, t)
    plus = next(k for k in spoke_targets if universe[k].tag == 1)
    minus = next(k for k in spoke_targets if universe[k].tag == -1)
    return (
        (spoke_targets[plus], spoke_sources[plus]),
        (spoke_targets[minus], spoke_sources[minus]),
        h,
    )


def _type3_cycle(dec: qv.Decomposition, universe) -> tuple:
    """The central 4-cycle as a vertex tuple, starting at a junction arc."""
    arrows = dict(dec.central_arrows)
    start = next(s for s, _ in dec.central_arrows if universe[s].is_plain)
    cycle = [start]
    v = arrows[start]
    while v != start:
        cycle.append(v)
        v = arrows[v]
    if len(cycle) != 4:
        raise ModelInconsistencyError(f"central cycle of length {len(cycle)} in type 3")
    return tuple(cycle)


def path_algebra_dimension(q: qv.Quiver, rels: RelationSet,
                           max_length: int | None = None) -> int:
    """Dimension of the path algebra modulo the relation ideal.

    Paths are grouped into classes under the commutativity rewrites; a class
    vanishes when any member contains a zero generator as a contiguous
    subpath.  Used as an oracle: the dimension must equal the total of the
    morphism-space dimension matrix of the triangulation.
    """
    zero = set(rels.zero_paths)
    lengths = sorted({len(z) for z in zero})
    rewrites = []
    for p, alt in rels.commutativity_pairs:
        rewrites.append((p, alt))
        rewrites.append((alt, p))
    out = {v: [] for v in q.vertices}
    for s, t in q.arrows:
        out[s].append(t)
    cap = max_length if max_length is not None else 2 * len(q.vertices) + 2

    def closure(path: tuple) -> frozenset:
        seen = {path}
        stack = [path]
        while stack:
            cur = stack.pop()
            for lhs, rhs in rewrites:
                size = len(lhs)
                for i in range(len(cur) - size + 1):
                    if cur[i:i + size] == lhs:
                        nxt = cur[:i] + rhs + cur[i + size:]
                        if nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
        return frozenset(seen)

    def is_zero(cls: frozenset) -> bool:
        # one window per offset and zero-path length, looked up in the set
        for member in cls:
            for size in lengths:
                for i in range(len(member) - size + 1):
                    if member[i:i + size] in zero:
                        return True
        return False

    total = len(q.vertices)
    current = [(v,) for v in q.vertices]
    for _ in range(cap):
        extended = []
        for path in current:
            for t in out[path[-1]]:
                extended.append(path + (t,))
        classes = {}
        for path in extended:
            cls = closure(path)
            classes[min(cls)] = cls
        alive = [rep for rep, cls in classes.items() if not is_zero(cls)]
        if not alive:
            return total
        total += len(alive)
        current = alive
    raise ModelInconsistencyError("path algebra does not terminate; relations broken")
