"""Relation ideals of the cluster-tilted algebras, read off the templates.

Paths are written left to right along the arrows, as edge-index tuples.
The generators are the ones quivers.decompose writes with the template's
arrows: the length-2 subpaths of the regions' triangle-rule 3-cycles, then
the central configuration's (the per-type table is in the Decomposition
docstring).  relations_of checks each path composable along those arrows.
"""

from __future__ import annotations

from collections import namedtuple

from . import edges as ed
from . import quivers as qv
from . import triangulations as tr
from .errors import ModelInconsistencyError


class RelationSet(namedtuple("RelationSet", "zero_paths commutativity_pairs n",
                             defaults=((), (), None))):
    """Relation generators as vertex tuples: edge indices for a
    triangulation of the n-gon, abstract labels when n is None."""

    __slots__ = ()

    def to_json(self) -> dict:
        """Paths by vertex name: edge tokens for a triangulation."""
        tokens = None if self.n is None else ed.alphabet(self.n).tokens

        def names(path: tuple) -> list:
            return list(path) if tokens is None else [tokens[v] for v in path]

        return {
            "zeroPaths": [names(p) for p in self.zero_paths],
            "commutativityPairs": [
                [names(p), names(q)] for p, q in self.commutativity_pairs
            ],
        }


def _check_composable(arrows: set, path: tuple, tokens) -> None:
    for s, t in zip(path, path[1:]):
        if (s, t) not in arrows:
            raise ModelInconsistencyError(
                f"relation path {tuple(tokens[v] for v in path)} not "
                f"composable: missing arrow {tokens[s]}->{tokens[t]}"
            )


def relations_of(tri: tr.Triangulation) -> RelationSet:
    """Generators of the relation ideal, on edge-index vertices: the region
    relations, then the central template's generators, each checked
    composable along the template's arrows."""
    dec = qv.decompose(tri)
    arrows = set(dec.arrows)
    paths = dec.zero_paths + sum(dec.comm_pairs, ())
    if not arrows.issuperset([step for p in paths for step in zip(p, p[1:])]):
        tokens = ed.alphabet(tri.n).tokens
        for p in paths:  # names the first path with a missing arrow
            _check_composable(arrows, p, tokens)
    return RelationSet(dec.zero_paths, dec.comm_pairs, tri.n)


def path_algebra_dimension(q: qv.Quiver, rels: RelationSet,
                           max_length: int | None = None) -> int:
    """Dimension of the path algebra modulo the relation ideal.

    Paths are grouped into classes under the commutativity rewrites; a class
    vanishes when any member contains a zero generator as a contiguous
    subpath.  A class whose members differ in length is counted and
    extended once, at the first length where it appears.  Used as an
    oracle: the dimension must equal the total of the morphism-space
    dimension matrix of the triangulation.

    The count runs length by length and extends whole classes: each member
    of an alive class followed by one arrow from the class's least member.
    Such a member has an alive prefix, so it can only meet a zero generator
    or a rewrite in a window that ends at the new arrow; the members that
    rewrites produce are tested whole.  Without commutativity pairs every
    class is a single path and no closure runs.  With them, a one-path
    class whose extension has no rewrite window at its end is again one
    path, and skips the closure: its prefix had no rewrite window, and
    rewrites are symmetric, so no other path rewrites onto it.  The first
    length tests every window, as the one-vertex paths are not classes
    checked before; but the one window of a one-arrow path that does not
    end at its end is its first vertex, so without one-vertex generators
    the first length is tested as the later ones.

    The cap, max_length or else 2|V| + 2 arrows (beyond any path of an
    acyclic quiver), bounds both the lengths counted and the members a
    rewrite closure may reach: past it the count raises "path algebra does
    not terminate", as commutativity sides of unequal length on an
    oriented cycle can rewrite a path into ever longer ones.
    """
    zero = set(rels.zero_paths)
    lengths = sorted({len(z) for z in zero})
    rewrites = {}  # each side of a commutativity pair -> the other sides
    for p, alt in rels.commutativity_pairs:
        rewrites.setdefault(p, []).append(alt)
        rewrites.setdefault(alt, []).append(p)
    rewrite_lengths = sorted({len(p) for p in rewrites})
    out = {v: [] for v in q.vertices}
    for s, t in dict.fromkeys(q.arrows):
        out[s].append(t)
    cap = max_length if max_length is not None else 2 * len(q.vertices) + 2
    unbounded = "path algebra does not terminate; relations broken"

    def dead(path: tuple) -> bool:
        # one window per offset and zero-path length, looked up in the set
        for size in lengths:
            for i in range(len(path) - size + 1):
                if path[i:i + size] in zero:
                    return True
        return False

    def dead_at_end(path: tuple) -> bool:
        # a window longer than the path is the path itself, which a window
        # of its own length finds as well
        for size in lengths:
            if path[-size:] in zero:
                return True
        return False

    total = len(q.vertices)
    if not rewrites:
        # the paths of each length, one arrow on from those of the last;
        # the first length tests every window (a zero path longer than
        # two vertices has none there), later ones (inline dead_at_end)
        # the windows that end at the new arrow
        current = [(v, t) for v in q.vertices for t in out[v]]
        if lengths and lengths[0] <= 2:
            current = [path for path in current if not dead(path)]
        for _ in range(cap):
            if not current:
                return total
            total += len(current)
            alive = []
            for path in current:
                for t in out[path[-1]]:
                    path_t = path + (t,)
                    for size in lengths:
                        if path_t[-size:] in zero:
                            break
                    else:
                        alive.append(path_t)
            current = alive
        raise ModelInconsistencyError(unbounded)

    def rewritten(path: tuple) -> list:
        # every rewrite of one window of path
        found = []
        for size in rewrite_lengths:
            for i in range(len(path) - size + 1):
                for rhs in rewrites.get(path[i:i + size], ()):
                    found.append(path[:i] + rhs + path[i + size:])
        return found

    def rewritten_at_end(path: tuple) -> list:
        # the rewrites of the windows that end at the last vertex
        found = []
        for size in rewrite_lengths:
            for rhs in rewrites.get(path[-size:], ()):
                found.append(path[:-size] + rhs)
        return found

    # a path ending at a vertex where no rewrite side ends has no rewrite
    # window at its end
    no_rewrite_end = set(q.vertices).difference([p[-1] for p in rewrites])
    current = [((v,),) for v in q.vertices]  # alive classes, members sorted
    seen = set()  # class keys of every length so far
    if 1 in lengths or 1 in rewrite_lengths:
        # the first vertex of a one-arrow path is its one window not at the end
        test, rewrite, quick = dead, rewritten, ()
    else:
        test, rewrite, quick = dead_at_end, rewritten_at_end, no_rewrite_end
    for _ in range(cap):
        classes = {}
        for members in current:
            for t in out[members[0][-1]]:
                if len(members) == 1:
                    path = members[0] + (t,)
                    todo = () if t in quick else rewrite(path)
                    if not todo:
                        # one path that no rewrite reaches: its class is itself
                        if path not in classes and path not in seen:
                            classes[path] = None if test(path) else (path,)
                        continue
                    seeds = [path]
                else:
                    seeds = [m + (t,) for m in members]
                    todo = [r for p in seeds for r in rewrite(p)]
                cls = set(seeds)
                produced = []
                while todo:
                    path = todo.pop()
                    if path not in cls:
                        if len(path) > cap + 1:  # more than cap arrows
                            raise ModelInconsistencyError(unbounded)
                        cls.add(path)
                        produced.append(path)
                        todo += rewritten(path)
                key = min(cls)
                if key in classes or key in seen:
                    continue
                if any(map(test, seeds)) or any(map(dead, produced)):
                    classes[key] = None
                else:
                    classes[key] = sorted(cls)
        alive = [cls for cls in classes.values() if cls is not None]
        seen.update(classes)
        if not alive:
            return total
        total += len(alive)
        current = alive
        test, rewrite, quick = dead_at_end, rewritten_at_end, no_rewrite_end
    raise ModelInconsistencyError(unbounded)
