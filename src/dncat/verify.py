"""Named verification suites over exhaustive enumeration.

Every suite returns a report of (check name, failure list) pairs; failures
are formatted strings.  Most checks sort them as strings (_gather, the
crossing axioms, the staple oracle, prop47), which is not canonical order:
from n = 10 on, p:1-10... sorts before p:1-3....  The rest keep the order
they find them in: the maximality check in enumeration order, the symmetry
check in key order when run alone, and _check_flip_connected,
_check_commutation and _check_census in their own order, any carried-law
failures last (on the dimension line, after its sorted member failures).
Suites: crossing, flip, transport, types, prop45, prop47, d4, all.  Each
suite asks for the enumeration once, up front; when the clique kernel's
size guard refuses it, every check that needs it fails with "enumeration
stopped: ..." instead of running.  Each suite that reads the transport
table then asks for it the same way: a class walk or a build that stops
fails each of its checks with "transport table at n=... stopped: ...".

The translation tau and the tag swap sigma carry a triangulation T to the
members g.T of its orbit, and Gamma(T), Gamma(tau T) and Gamma(sigma T) are
isomorphic.  The transport table holds one quiver Q(R) per class, and
quiver_of(g.R) is g.Q(R), its arrows' ends moved by g: well defined as
every g fixing R fixes Q(R) (the stabilizer check, in transport and
prop45, which also runs it at n - 1).  So the costly per-triangulation
checks run once per class, at its representative, and reach every other
member through a law that the same suite checks, each suite sound when
run alone:

- flip, uniqueness and involution: at the representatives.  A flip reads
  only the compatibility rows, and the alphabet laws (below) make each row
  tau- and sigma-equivariant, so flip(g.T, g.m) = g.flip(T, m).
- flip, connectivity: on the class graph that transport reads.  When it
  reaches every class and its revisits generate the group, the fan's
  component meets every class and every element fixes it: it is everything.
- transport, mutation against quiver_of the flip: at the representatives,
  at every flip.  The stabilizer check gives quiver_of(g.T) =
  g.quiver_of(T), the alphabet laws move the flip, and mutation commutes
  with relabelling.
- types, local structure, and prop45, deletions: at the representatives;
  the alphabet laws keep the edge kinds and the arcs inside connected arcs.
- prop45, quotients: at the representatives, against the class table at
  n - 1, the edge map read off the per-n quotient rows.  The quotient-row
  law (_quotient_row_law_failures) gives quotient(g.T, g.m) =
  h.quotient(T, m) for some h of the group at n - 1, and the stabilizer
  check at n - 1 makes quiver_of there equivariant under h.
- types, dimension count: at the representatives, against the hom total.
  On every member the relation generators (each commutativity pair
  unordered) must be the representative's moved by g, and the hom law
  (_hom_law_failures) makes the hom total of g.T equal T's.

The per-n crossing and mask tables are built by translation from the rows
at vertex 1, not by the crossing rule pair by pair.  The crossing suite's
first check compares every entry of both tables with the rule at each
pair it visits, and that pair comparison is what ties the tables (and so
every suite that reads them) to the rule.

The work that flip, transport, types and prop45 share at n is one run
value (_Run), built by run_suite for the suites it runs and by each of
those suites when called alone.  It holds n, the worker count, and four
parts: the arcs inside each arc as one bitmask per edge (_inner_masks),
the alphabet laws (_alphabet_law_failures), the stabilizer check at n
(_check_symmetry_invariance) and the member pass (below).  The first
suite to read a part computes it, in its own span, and every later
suite of the run reads the same value: in all, flip computes the masks
and the alphabet laws, and transport the stabilizer check and the member
pass.  A broken law is a failure of every check it carries.

The type templates, direct template == transport and relations_of run on
every member, in one pass over each orbit (_member_pass) that builds and
cuts each member once and also runs the local structure and the
dimension count at the representative.  Members are compared in the
representative's frame: the template's arrows, moved back by g^-1, as
one sorted tuple against Q(R)'s, no member canonicalized, R itself
included.  A member that disagrees is built by direct_quiver_of, whose
cluster-quiver assertion gives a failure its message.  The pass returns the
failure lists of transport and types, which both read it from the run.
A member whose cut fails is a failure of both the template check and the
dimension count.

Every check line has a fault that fails it: the table of faults in
tests/test_faults.py, whose coverage test requires a row for each line of
all at n = 6, so a new line needs a row there.

prop45 keys its close-to-border deletions through the quotient class.
Where the labelled quotient check finds the cut quiver equal to the class
quiver Q(R') at n - 1 (the cut is the quotient's quiver, the Iyama-Yoshino
reduction), its key is Q(R')'s, computed once per class at n - 1 per run,
before any fork.  Any other cut, and every degenerate deletion, is keyed
itself.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cached_property, partial
from operator import itemgetter

from . import edges as ed
from . import quivers as qv
from . import relations as rl
from . import triangulations as tr
from .errors import ModelInconsistencyError, UnsupportedSizeError
from .staple import least_crossings, realizations


# the class walk's cache, bound at import so that it is reached through any
# wrapper later put around tr.class_graph
_release_class_walk = tr.class_graph.cache_clear


class SuiteReport(namedtuple("SuiteReport", "suite n checks")):
    """checks: (name, failures) per check, in order.  lines() prints each
    failing check's first failure as its "smallest": the least string where
    the check sorts its failures, else the first one found (the module
    docstring says which checks do which)."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(not fails for _, fails in self.checks)

    def lines(self) -> list[str]:
        out = []
        for name, fails in self.checks:
            if fails:
                out.append(f"FAIL {name}: {len(fails)} failure(s); smallest: {fails[0]}")
            else:
                out.append(f"ok   {name}")
        status = "PASS" if self.ok else "FAIL"
        out.append(f"{status} suite={self.suite} n={self.n}")
        return out


def _parallel(fn, items, jobs: int):
    """fn over items, in order, on at most one worker process per core."""
    items = list(items)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(items) < 4:
        return [fn(x) for x in items]
    from multiprocessing import get_context

    chunk = max(1, len(items) // (jobs * 4))
    with get_context("fork").Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=chunk)


def _gather(results) -> list[str]:
    failures = []
    for r in results:
        failures.extend(r)
    return sorted(failures)


def _class_keys(n: int) -> list[tuple[int, ...]]:
    return [cls.representative.key for cls in tr.equivalence_classes(n)]


# ---------------------------------------------------------------------------
# laws carrying a check along an orbit


def _inside(n: int, m: ed.TaggedEdge, e: ed.TaggedEdge) -> bool:
    """True iff e is a plain arc inside the plain arc m: both its ends lie,
    in order, on the boundary path from m's start to m's end."""
    if e.is_spoke:
        return False
    start, end = (e.a - m.a) % n, (e.b - m.a) % n
    return start < end <= (m.b - m.a) % n


def _inner_masks(n: int) -> list[int]:
    """Per edge index m, the bitmask of the edges that _inside puts inside
    m: bit m itself for an arc, and 0 for a spoke.  Built once per run
    (_Run.inner) and read by the inner-arc law and the local structure."""
    edges = ed.alphabet(n).edges
    return [sum(1 << j for j, e in enumerate(edges) if _inside(n, m, e)) for m in edges]


def _alphabet_law_failures(n: int, inner: list[int]) -> list[str]:
    """The translation and the tag swap preserve each compatibility row
    (bit j of row i is bit g(j) of row g(i)), each edge kind, and the arcs
    inside each connected arc (inner: _inner_masks(n); bit j of inner[i]
    is bit g(j) of inner[g(i)])."""
    alpha = ed.alphabet(n)
    edges, masks, kind = alpha.edges, alpha.masks, alpha.kind
    fails = []
    for name, perm in (("translation", alpha.tau), ("tag swap", alpha.sigma)):
        for i, m in enumerate(edges):
            row = masks[i]
            image = sum(1 << perm[j] for j in range(len(edges)) if row >> j & 1)
            if masks[perm[i]] != image:
                fails.append(f"{m.token()}: compatibility row not {name} equivariant")
            if kind[perm[i]] != kind[i]:
                fails.append(f"{m.token()}: edge kind not {name} invariant")
            if kind[i] == ed.CONNECTED:
                moved = inner[perm[i]]
                if inner[i] != sum(1 << j for j, k in enumerate(perm) if moved >> k & 1):
                    fails.append(f"{m.token()}: inner arcs not {name} equivariant")
    return fails


class _Run:
    """The work that flip, transport, types and prop45 share at n, each part
    computed when a suite first reads it (the module docstring); jobs is the
    worker count of the per-class chunks."""

    def __init__(self, n: int, jobs: int = 1) -> None:
        self.n, self.jobs = n, jobs

    @cached_property
    def inner(self) -> list[int]:
        return _inner_masks(self.n)

    @cached_property
    def alphabet(self) -> list[str]:
        return _alphabet_law_failures(self.n, self.inner)

    @cached_property
    def symmetry(self) -> list[str]:
        return _check_symmetry_invariance(self.n)

    @cached_property
    def members(self) -> tuple[list[str], ...]:
        return _member_pass(self.n, self.jobs, self.inner)


def _hom_law_failures(n: int) -> list[str]:
    """The translation and the tag swap preserve each crossing row and
    commute with tau^-1, so dim Hom(g a, g b) = e(g a, tau^-1 g b) is
    dim Hom(a, b) and the hom total of g.T is T's."""
    alpha = ed.alphabet(n)
    cross, tau_inv = alpha.cross, alpha.tau_inv
    fails = []
    for name, perm in (("translation", alpha.tau), ("tag swap", alpha.sigma)):
        gather = itemgetter(*perm)  # row[g j], j in order
        for i, token in enumerate(alpha.tokens):
            if gather(cross[perm[i]]) != tuple(cross[i]):
                fails.append(f"{token}: crossing row not {name} equivariant")
            if tau_inv[perm[i]] != perm[tau_inv[i]]:
                fails.append(f"{token}: {name} does not commute with tau^-1")
    return fails


def _quotient_row_law_failures(n: int) -> list[str]:
    """The translation and the tag swap carry each quotient row onto the row
    of the moved arc, up to an element h of the group at n - 1: for every
    close-to-border arc i, generator g and edge j, rows[g i][g j] is
    h[rows[i][j]], None where rows[i][j] is None.  Then the quotient of
    g.T at g.i is h moved onto the quotient of T at i."""
    alpha = ed.alphabet(n)
    rows = tr._quotient_rows(n)
    group = tr._group(n - 1)
    fails = []
    for name, perm in (("translation", alpha.tau), ("tag swap", alpha.sigma)):
        gather = itemgetter(*perm)
        for i, row in rows.items():
            if perm[i] not in rows:
                fails.append(f"{alpha.tokens[i]}: {name} carries the arc off the "
                             "quotient rows")
                continue
            moved = gather(rows[perm[i]])  # rows[g i][g j], j in order
            if not any(moved == tuple([None if r is None else h[r] for r in row])
                       for h in group):
                fails.append(f"{alpha.tokens[i]}: quotient row not {name} equivariant")
    return fails


# ---------------------------------------------------------------------------
# crossing


def _check_crossing_axioms(n: int) -> list[str]:
    """The rule's symmetry, range and invariances, and both per-n tables
    against the rule at every ordered pair: entry (i, j) of the crossing
    table and bit j of mask row i."""
    fails = []
    alpha = ed.alphabet(n)
    universe, tokens, cross, masks = alpha.edges, alpha.tokens, alpha.cross, alpha.masks
    # ed.tau and ed.sigma validate each edge, and each image is validated
    # here, once; every pair then reads the rule through ed._crossing
    taus = [ed.tau(n, m) for m in universe]
    sigmas = [ed.sigma(n, m) for m in universe]
    for image in taus + sigmas:
        ed.check_edge(n, image)
    crossing = partial(ed._crossing, n)

    def check_tables(i: int, j: int, e: int) -> None:
        if cross[i][j] != e:
            fails.append(f"table e({tokens[i]},{tokens[j]}) = {cross[i][j]}, rule {e}")
        if bool(masks[i] >> j & 1) != (i != j and e == 0):
            fails.append(f"mask bit at {tokens[i]},{tokens[j]} disagrees with the rule")

    for i, m in enumerate(universe):
        e = crossing(m, m)
        if e != 0:
            fails.append(f"e({m.token()},{m.token()}) != 0")
        check_tables(i, i, e)
    for i, m in enumerate(universe):
        for j in range(i + 1, len(universe)):
            other = universe[j]
            e = crossing(m, other)
            back = crossing(other, m)
            check_tables(i, j, e)
            check_tables(j, i, back)
            pair = f"{m.token()},{other.token()}"
            if e != back:
                fails.append(f"asymmetric at {pair}")
            if e not in (0, 1, 2):
                fails.append(f"e({pair}) = {e} out of range")
            if e == 2 and not (m.is_plain and other.is_plain):
                fails.append(f"e({pair}) = 2 on a spoke pair")
            if e != crossing(taus[i], taus[j]):
                fails.append(f"not translation invariant at {pair}")
            if e != crossing(sigmas[i], sigmas[j]):
                fails.append(f"not tag-swap invariant at {pair}")
            if m.is_spoke and other.is_spoke:
                want = 1 if (m.a != other.a and m.tag != other.tag) else 0
                if e != want:
                    fails.append(f"spoke rule broken at {pair}")
    return sorted(fails)


def _check_staple_agreement(n: int) -> list[str]:
    """The rule against the staple oracle at every pair but two spokes,
    each edge's staples built once (staple_crossing_number builds a pair's)."""
    fails = []
    universe = ed.all_edges(n)
    curves = [realizations(n, m) for m in universe]
    for i, m in enumerate(universe):
        for j, other in enumerate(universe[i:], i):
            if m.is_spoke and other.is_spoke:
                continue
            got = ed._crossing(n, m, other)  # both edges come from the alphabet
            want = 0 if i == j else least_crossings(curves[i], curves[j])
            if got != want:
                fails.append(
                    f"{m.token()},{other.token()}: rule {got} vs staple {want}"
                )
    return sorted(fails)


def _check_maximal_sizes(n: int) -> list[str]:
    fails = []
    masks = ed.alphabet(n).masks
    for tri in tr.enumerate_all(n):
        member_bits = 0
        inter = (1 << len(masks)) - 1
        for i in tri.key:
            member_bits |= 1 << i
            inter &= masks[i]
        if inter & ~member_bits:
            fails.append(f"{tri.token()}: extendable, not maximal")
    return fails


def _check_count_formula(n: int) -> list[str]:
    got = tr.count_all(n)
    want = tr.cluster_count_formula(n)
    if got != want:
        return [f"enumerated {got} != formula {want}"]
    return []


def _enumeration_stopped(*sizes: int) -> list[str]:
    """[] when the enumeration runs at each of the sizes, else the one
    failure that every check needing it reports instead of running: the
    clique kernel's size guard refused a maximal set.  A suite asks once,
    up front, so a broken kernel gives FAIL lines and not a bare error."""
    for k in sizes:
        try:
            tr.count_all(k)
        except ModelInconsistencyError as exc:
            return [f"enumeration stopped: {exc}"]
    return []


def _table_stopped(*sizes: int) -> list[str]:
    """[] when the transport table builds at each of the sizes, else the one
    failure that every check of a suite reading it reports instead of
    running: the class walk or the build met a model inconsistency.  A
    suite asks once, up front, after the enumeration, so a stopped walk
    gives FAIL lines and not a bare error.  Workers forked after the ask
    inherit the table."""
    for k in sizes:
        try:
            qv.transport_table(k)
        except ModelInconsistencyError as exc:
            return [f"transport table at n={k} stopped: {exc}"]
    return []


def _stopped_report(suite: str, n: int, names, stopped: list[str]) -> SuiteReport:
    return SuiteReport(suite, n, [(name, stopped) for name in names])


def suite_crossing(n: int) -> SuiteReport:
    # one enumeration for the last two checks; a refused one fails both
    stopped = _enumeration_stopped(n)
    checks = [
        ("crossing symmetry, range, translation and tag-swap invariance",
         _check_crossing_axioms(n)),
        ("staple arrangement oracle agreement", _check_staple_agreement(n)),
        ("every maximal non-crossing set has n edges",
         stopped or _check_maximal_sizes(n)),
        ("triangulation count matches the cluster-count formula",
         stopped or _check_count_formula(n)),
    ]
    return SuiteReport("crossing", n, checks)


# ---------------------------------------------------------------------------
# flip


def _flip_chunk(n: int, indices) -> list[str]:
    fails = []
    tri = tr.Triangulation(n, indices)
    for m in tri.edges:
        try:
            tri2, m2 = tr.flip(tri, m)
            if m2 == m or m in tri2.edges:
                fails.append(f"{tri.token()} at {m.token()}: exchange did not move")
            back, m3 = tr.flip(tri2, m2)
        except Exception as exc:  # noqa: BLE001 - failure is the signal here
            fails.append(f"{tri.token()} at {m.token()}: {exc}")
            continue
        if back != tri or m3 != m:
            fails.append(f"{tri.token()} at {m.token()}: flip not an involution")
    return fails


def _check_flip_connected(n: int, laws: list[str]) -> list[str]:
    try:
        _, flips, revisits = tr.class_graph(n)
    except ModelInconsistencyError as exc:
        return [f"walk from the fan stopped: {exc}"] + laws
    fails = []
    total = len(tr.equivalence_classes(n))
    if len(flips) != total:
        fails.append(f"reached {len(flips)} of {total} classes from the fan")
    group = tr._group(n)
    order = len(qv.reachable([group[0]], lambda a: [  # a after each revisit
        tuple([a[j] for j in group[y]]) for y in revisits]))
    if order != len(group):
        fails.append(f"revisits generate {order} of {len(group)} group elements")
    return fails + laws


def suite_flip(n: int, run: _Run | None = None) -> SuiteReport:
    """run: the shared work at n, built here if not given."""
    run = run or _Run(n)
    names = ("every edge of every triangulation flips uniquely and involutively",
             "flip graph is connected from the fan")
    stopped = _enumeration_stopped(n)
    if stopped:
        return _stopped_report("flip", n, names, stopped)
    # at the class representatives; the compatibility-row law moves each
    # flip to the other orbit members
    results = _parallel(partial(_flip_chunk, n), _class_keys(n), run.jobs)
    return SuiteReport("flip", n, list(zip(names, [
        _gather([run.alphabet, *results]), _check_flip_connected(n, run.alphabet)])))


# ---------------------------------------------------------------------------
# transport


def _check_commutation(n: int, laws: list[str]) -> list[str]:
    """Mutate the quiver of every class representative at every flip with
    the public `mutate` and compare with quiver_of the flipped key, the
    table entry that the class walk carries it onto: the mutated arrows
    moved by g, with m, renamed m2, moved to g[m2].  The table itself is
    built by the separate mutation on arrow tuples inside `quivers`, so
    this cross-checks two implementations of the mutation rule.  A member
    g.T of the class has the quiver g.quiver_of(T) (the stabilizer check)
    and the flips g.flip(T, m) (the alphabet laws, checked here), and
    mutation commutes with relabelling, so the comparison holds at g.T.
    laws: the alphabet law failures at n."""
    try:
        _, flips, _ = tr.class_graph(n)
    except ModelInconsistencyError as exc:
        return [f"walk from the fan stopped: {exc}"] + laws
    fails = []
    table, group = qv.transport_table(n), tr._group(n)
    universe = ed.alphabet(n).edges
    for key, row in sorted(flips.items()):
        for m, (m2, rep, g) in zip(key, row):
            g = group[g]
            moved = [*g]
            moved[m] = g[m2]
            if qv._moved(moved, qv.mutate(table[key], m).arrows) != table[rep].arrows:
                fails.append(f"{tr.Triangulation(n, key).token()} "
                             f"at {universe[m].token()}: mutation != flip")
    return fails + laws


def _check_symmetry_invariance(n: int) -> list[str]:
    """Every g fixing a representative R fixes Q(R): then quiver_of(g.T) is
    g.quiver_of(T) for every g and T."""
    group = tr._group(n)
    return [f"{tr.Triangulation(n, key).token()}: quiver not fixed by its stabilizer"
            for key, q in sorted(qv.transport_table(n).items())
            if any(tuple(sorted([g[i] for i in key])) == key
                   and qv._moved(g, q.arrows) != q.arrows for g in group)]


def suite_transport(n: int, run: _Run | None = None) -> SuiteReport:
    """run: the shared work at n, built here if not given."""
    run = run or _Run(n)
    names = ("mutation commutes with every flip (path independence)",
             "direct template equals mutation transport",
             "quivers are translation and tag-swap equivariant")
    # building the table already fails on any path dependence
    stopped = _enumeration_stopped(n) or _table_stopped(n)
    if stopped:
        return _stopped_report("transport", n, names, stopped)
    return SuiteReport("transport", n, list(zip(names, [
        _check_commutation(n, run.alphabet), run.members[0], run.symmetry])))


# ---------------------------------------------------------------------------
# the member pass (transport's template check and the types suite)


def _member_chunk(n: int, inverse: dict, inner: list[int], rep_key) -> tuple[list[str], ...]:
    """The failures of the direct template, the type templates, the local
    structure and the relation dimension on the orbit of one class
    representative R.  Each member g.T is built once and cut once, and
    checked in R's frame: the template's arrows, moved back by inverse[g],
    must be Q(R)'s (no member canonicalized, R itself included), and
    relations_of reads the same decompose.  A member whose arrows disagree
    runs direct_quiver_of, its build and its cluster-quiver assertion,
    which give the failure its message.  The templates and relations_of run on
    every member; the local structure and the dimension count run at R and
    carry to g.T: its quiver is g.Q(R), its relation generators moved back
    by inverse[g] must be R's, and the hom law gives it R's hom total.  A
    member whose cut fails fails the template check and the dimension check."""
    q = qv.transport_table(n)[rep_key]
    local = _local_structure_failures(n, rep_key, q, inner)
    direct, templates, dims = [], [], []
    gens = dim = None
    for key, g in tr._orbit(n, rep_key).items():  # the representative first
        tri = tr.Triangulation(n, key)
        templates.extend(_template_failures(tri))
        back = inverse[g]
        try:
            if qv._moved(back, qv.decompose(tri).arrows) != q.arrows:
                if qv.direct_quiver_of(tri).arrows != qv._moved(g, q.arrows):
                    direct.append(f"{tri.token()}: template and transport disagree")
        except Exception as exc:  # noqa: BLE001
            direct.append(f"{tri.token()}: {exc}")
        try:
            rels = rl.relations_of(tri)
        except Exception as exc:  # noqa: BLE001
            dims.append(f"{tri.token()}: {exc}")
            continue
        member = _generators(rels, back)
        if key == rep_key:
            gens, dim = member, rl.path_algebra_dimension(q, rels)
            expected = sum(map(sum, tr.pairwise_hom_matrix(tri)))
            if dim != expected:
                dims.append(f"{tri.token()}: algebra dimension {dim} != hom total {expected}")
        elif gens is not None and member != gens:  # else R's failure is recorded
            dims.append(f"{tri.token()}: relations are not its representative's "
                        f"{tr.Triangulation(n, rep_key).token()} moved by the orbit map")
    return direct, templates, local, dims


def _member_pass(n: int, jobs: int, inner: list[int]) -> tuple[list[str], ...]:
    """_member_chunk over every class, each of its four failure lists
    gathered; the inverse of each group element is computed once, and
    inner is _inner_masks(n)."""
    # g is a permutation of the indices, so its argsort is its inverse
    inverse = {g: sorted(range(len(g)), key=g.__getitem__) for g in tr._group(n)}
    results = _parallel(partial(_member_chunk, n, inverse, inner), _class_keys(n), jobs)
    return tuple(map(_gather, zip(*results)))


def _generators(rels: rl.RelationSet, g) -> tuple[frozenset, frozenset]:
    """The zero paths and the commutativity pairs, each pair unordered, as
    sets of vertex tuples moved by the index map g (the identity at R).
    Most members have no commutativity pair, and skip building that set."""
    zero = frozenset([itemgetter(*path)(g) for path in rels.zero_paths])
    pairs = rels.commutativity_pairs
    if not pairs:
        return zero, frozenset()
    return zero, frozenset([frozenset([itemgetter(*path)(g) for path in pair])
                            for pair in pairs])


# ---------------------------------------------------------------------------
# types


def _edge_ends(tri: tr.Triangulation) -> tuple[list, list]:
    """The arcs' (start, end) and the spokes' (base, tag), in key order,
    read off the alphabet's edge table."""
    edges = ed.alphabet(tri.n).edges
    arcs, spokes = [], []
    for a, b, tag in map(edges.__getitem__, tri.key):
        if a == b:
            spokes.append((a, tag))
        else:
            arcs.append((a, b))
    return arcs, spokes


def _type_predicates(tri: tr.Triangulation, ends=None) -> tuple[bool, bool, bool, bool]:
    """The four type templates on the edges' ends (ends: _edge_ends(tri)),
    independent of classify_type's index arithmetic."""
    n = tri.n
    arcs, spokes = _edge_ends(tri) if ends is None else ends
    has_long = any((b - a) % n == n - 1 for a, b in arcs)
    double = len(spokes) == 2 and spokes[0][0] == spokes[1][0]
    p1 = has_long
    p2 = not has_long and double
    p3 = not has_long and len(spokes) == 2 and not double
    p4 = not has_long and len(spokes) >= 3
    return p1, p2, p3, p4


def _template_failures(tri: tr.Triangulation) -> list[str]:
    fails = []  # each reason is prefixed by the token on return
    n = tri.n
    ends = arcs, spokes = _edge_ends(tri)
    arc_set = set(arcs)
    preds = _type_predicates(tri, ends)
    if sum(preds) != 1:
        fails.append(f"{sum(preds)} type predicates hold")
    elif preds.index(True) + 1 != tr.classify_type(tri):
        fails.append("classifier disagrees with the predicates")
    if len(spokes) < 2:
        fails.append("fewer than two degenerate edges")
    bases = [a for a, _ in spokes]
    distinct = sorted(set(bases))
    if len(distinct) == len(bases) and len({tag for _, tag in spokes}) > 1:
        fails.append("mixed spoke tags without a double")

    long_edges = [(a, b) for a, b in arcs if (b - a) % n == n - 1]
    if long_edges:
        if len(spokes) != 2:
            fails.append(f"long arc with {len(spokes)} spokes")
        else:
            a, b = long_edges[0]
            double = bases[0] == bases[1]
            pairing = (not double and {bases[0], bases[1]} == {a, b}
                       and spokes[0][1] == spokes[1][1])
            if not (double and bases[0] in (a, b)) and not pairing:
                fails.append("long-arc spokes form no double or pairing")
    if preds[1]:  # type 2: a double and no long arc
        a = bases[0]
        if not any(x != a and (a, x) in arc_set and (x, a) in arc_set
                   for x in range(1, n + 1)):
            fails.append("double without its return arcs")
    if preds[2]:  # type 3: two spokes at distinct bases and no long arc
        a, b = distinct
        if (b - a) % n == 1 or (a - b) % n == 1:
            fails.append("non-double spoke pair is a pairing")
    # consecutive spokes at non-neighbor vertices must be joined by an arc
    if len(distinct) >= 2:
        for i, a in enumerate(distinct):
            b = distinct[(i + 1) % len(distinct)]
            if a == b or (b - a) % n == 1:
                continue
            if (a, b) not in arc_set:
                fails.append(f"missing connecting arc {ed.plain(a, b).token()}")
    return [f"{tri.token()}: {reason}" for reason in fails]


def _local_structure_failures(n: int, key, q: qv.Quiver, inner_masks) -> list[str]:
    """The local structure of the quiver q of the triangulation key, on
    edge indices, its in, out and undirected adjacency built once; the arcs
    inside each connected arc are read off inner_masks (_inner_masks(n))."""
    fails = []
    alpha = ed.alphabet(n)
    kinds = alpha.kind
    token = tr.Triangulation(n, key).token()
    outs = {v: [] for v in q.vertices}
    ins = {v: [] for v in q.vertices}
    nbrs = {v: set() for v in q.vertices}
    for s, t in q.arrows:
        outs[s].append(t)
        ins[t].append(s)
        nbrs[s].add(t)
        nbrs[t].add(s)
    try:
        qv.assert_cluster_quiver(q)
    except Exception as exc:  # noqa: BLE001
        fails.append(f"{token}: {exc}")
    if len(qv.reachable(q.vertices[:1], nbrs.__getitem__)) < len(q.vertices):
        fails.append(f"{token}: quiver disconnected")

    for m in key:
        kind = kinds[m]
        vm = alpha.tokens[m]
        if kind == ed.CONNECTED:
            inner = {i for i in key if i != m and inner_masks[m] >> i & 1}
            outer = set(key) - inner - {m}
            for s, t in q.arrows:
                if (s in inner and t in outer) or (s in outer and t in inner):
                    fails.append(f"{token}: arrow across {vm} between "
                                 f"{q.label(s)} and {q.label(t)}")
            if qv.reachable(inner, lambda v: nbrs[v] - {m}) & outer:
                fails.append(f"{token}: path around {vm} after deletion")
            side_neighbors = nbrs[m] & inner
            if len(side_neighbors) not in (1, 2):
                fails.append(
                    f"{token}: {vm} has {len(side_neighbors)} region neighbors"
                )
            if len(side_neighbors) == 2 and not any(
                    y in ins[m] and y != m and x != y for x in outs[m] for y in outs[x]):
                fails.append(f"{token}: {vm} with two region neighbors off 3-cycles")
        elif kind == ed.CLOSE_TO_BORDER:
            on_cycle = m in qv.reachable(outs[m], outs.__getitem__)
            if outs[m] and ins[m] and not on_cycle:
                fails.append(f"{token}: {vm} neither source, sink, nor on a cycle")
    return fails


def _check_census(n: int) -> list[str]:
    fails = []
    census, classes = tr.type_census(n), tr.equivalence_classes(n)
    weighted = dict.fromkeys(census, 0)  # the classes' orbits, per recorded type
    for cls in classes:
        weighted[cls.type] += cls.orbit_size
    for kind, total in weighted.items():
        if total != census[kind]:
            fails.append(f"type {kind} classes' orbits hold {total} triangulations, "
                         f"type census {census[kind]}")
    if len(classes) != tr.class_count_formula(n):
        fails.append(f"{len(classes)} classes, but |Mut(D_{n})| = {tr.class_count_formula(n)}")
    if n == 5:
        if census != {1: 100, 2: 20, 3: 20, 4: 42}:
            fails.append(f"n=5 type census {census}")
        if tr.class_census(n) != {1: 15, 2: 4, 3: 2, 4: 5}:
            fails.append(f"n=5 class census {tr.class_census(n)}")
    return fails


def suite_types(n: int, run: _Run | None = None) -> SuiteReport:
    """run: the shared work at n, built here if not given."""
    run = run or _Run(n)
    names = ("each triangulation matches exactly one type template",
             "type and class censuses are consistent",
             "separation, region-neighbor, and border-vertex structure",
             "relation ideals give the morphism-space dimensions")
    stopped = _enumeration_stopped(n) or _table_stopped(n)
    if stopped:
        return _stopped_report("types", n, names, stopped)
    _, templates, local, dims = run.members
    return SuiteReport("types", n, list(zip(names, [
        templates, _check_census(n), _gather([run.alphabet, local]),
        dims + _hom_law_failures(n)])))


# ---------------------------------------------------------------------------
# prop45 (quotient laws)


def _prop45_chunk(n: int, class_keys: dict, rep_key) -> list[str]:
    """prop45 on the orbit of one class representative, run at the
    representative.  Its deletions are keyed and tested against A(n-1) and
    D(n-1), and its quotients compared with the class table at n - 1.
    A close-to-border deletion whose cut quiver, labelled through the
    quotient's edge map, is the class quiver Q(R') at n - 1 has that
    quiver's key, class_keys[R']; any other is keyed itself.  Every other
    member is the image of the representative under a group element g, and
    its quiver is the class quiver relabelled by g; with the edge kinds
    invariant under the group the membership and connectivity facts carry
    over, and with the quotient rows equivariant (up to h at n - 1) and the
    n - 1 table fixed by its stabilizers, so does the quotient law."""
    fails = []
    alpha = ed.alphabet(n)
    class_d, class_a = qv.mutation_class_d(n - 1), qv.mutation_class_a(n - 1)
    rep = tr.Triangulation(n, rep_key)
    q = qv.transport_table(n)[rep_key]
    reduced = qv.transport_table(n - 1)
    group = tr._group(n - 1)

    def minus(i: int) -> str:
        return f"{rep.token()} minus {alpha.tokens[i]}"

    connected_cuts = _connected_deletions(q)
    for i in rep_key:
        kind = alpha.kind[i]
        connected = i in connected_cuts
        quotient = None
        if kind == ed.CLOSE_TO_BORDER:
            # labelled equality through the quotient's edge map, in its class's frame
            edge_map = tr.quotient_map(rep, alpha.edges[i])
            rep2, h = tr._class_of(n - 1, tuple(sorted(edge_map.values())))
            h = group[h]
            entry = reduced.get(rep2)
            if entry is None:
                quotient = "quotient is not a triangulation"
            elif tuple(sorted([(h[edge_map[s]], h[edge_map[t]]) for s, t in q.arrows
                               if s != i and t != i])) != entry.arrows:
                quotient = "quotient quiver differs"
        if not connected:
            key = None
        elif kind == ed.CLOSE_TO_BORDER and quotient is None:
            key = class_keys[rep2]  # the cut quiver is Q(rep2) relabelled
        else:
            key = qv.canonical_key(qv.delete_vertex(q, i))
        in_d = key in class_d
        in_a = key in class_a
        if in_d != (kind == ed.CLOSE_TO_BORDER):
            fails.append(f"{minus(i)}: D-membership {in_d}, {kind}")
        if in_a != (kind == ed.DEGENERATE):
            fails.append(f"{minus(i)}: A-membership {in_a}, {kind}")
        if kind == ed.CONNECTED and connected:
            fails.append(f"{minus(i)}: connected arc left it connected")
        if quotient:
            fails.append(f"{minus(i)}: {quotient}")
    return fails


def _connected_deletions(q: qv.Quiver) -> set:
    """The vertices of q whose deletion leaves it connected: one undirected
    adjacency bitmask per vertex (bit p for the p-th vertex), and per
    deletion a breadth-first search that expands its whole frontier at
    once."""
    bit = {v: 1 << p for p, v in enumerate(q.vertices)}
    adjacent = {b: 0 for b in bit.values()}
    for s, t in q.arrows:
        adjacent[bit[s]] |= bit[t]
        adjacent[bit[t]] |= bit[s]
    everything = (1 << len(bit)) - 1
    found = set()
    for v, b in bit.items():
        rest = everything ^ b
        seen = frontier = rest & -rest  # the lowest vertex left
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adjacent[low]
                frontier ^= low
            frontier = reach & rest & ~seen
            seen |= frontier
        if seen == rest:
            found.add(v)
    return found


def _class_size_failures(k: int) -> list[str]:
    """The membership tests run against counted sets: |Mut(A_k)| by
    Torkildsen's formula, and |Mut(D_k)| by the class count from k = 5 on
    (at k = 4 the ten classes share six quivers, the d4 collision)."""
    fails = []
    size, want = len(qv.mutation_class_a(k)), qv.mutation_class_a_count(k)
    if size != want:
        fails.append(f"|Mut(A_{k})| = {size}, formula {want}")
    size, want = len(qv.mutation_class_d(k)), tr.class_count_formula(k)
    if k >= 5 and size != want:
        fails.append(f"|Mut(D_{k})| = {size}, formula {want}")
    return fails


def suite_prop45(n: int, run: _Run | None = None) -> SuiteReport:
    """run: the shared work at n, built here if not given."""
    if n < 5:
        raise UnsupportedSizeError(
            f"prop45 needs n >= 5, as it deletes a vertex into size n-1; got n={n}"
        )
    run = run or _Run(n)
    name = "vertex deletion lands in D(n-1) iff close to border, in A(n-1) iff degenerate"
    stopped = _enumeration_stopped(n, n - 1) or _table_stopped(n, n - 1)
    if stopped:
        return _stopped_report("prop45", n, [name], stopped)
    sizes = _class_size_failures(n - 1)  # builds both classes before forking
    # one key per class at n - 1, before forking, for the cuts that are its quiver
    class_keys = {key: qv.canonical_key(q) for key, q in qv.transport_table(n - 1).items()}
    results = _parallel(partial(_prop45_chunk, n, class_keys), _class_keys(n), run.jobs)
    return SuiteReport("prop45", n, [
        (name, _gather([sizes, run.alphabet, _quotient_row_law_failures(n),
                        run.symmetry, _check_symmetry_invariance(n - 1), *results]))])


# ---------------------------------------------------------------------------
# prop47 (classes vs quiver isomorphism classes)


def _classes_by_quiver(n: int) -> dict:
    """Classes grouped by the canonical key of their representative's
    quiver, the transport table's entry, groups and members in class order."""
    by_key: dict = {}
    table = qv.transport_table(n)
    for cls in tr.equivalence_classes(n):
        # the key's text: one string per class, not a tuple per arrow
        key = repr(qv.canonical_key(table[cls.representative.key]))
        by_key.setdefault(key, []).append(cls)
    return by_key


def suite_prop47(n: int) -> SuiteReport:
    stopped = _enumeration_stopped(n) or _table_stopped(n)
    if stopped:
        return _stopped_report(
            "prop47", n, ["classes map bijectively onto quiver iso-classes"], stopped)
    by_key = _classes_by_quiver(n)
    fails = [f"distinct classes share a quiver: "
             f"{' vs '.join(c.representative.token() for c in group[:2])}"
             for group in by_key.values() if len(group) > 1]
    checks = [
        (f"classes ({len(tr.equivalence_classes(n))}) map bijectively onto quiver "
         f"iso-classes ({len(by_key)})", sorted(fails)),
    ]
    return SuiteReport("prop47", n, checks)


# ---------------------------------------------------------------------------
# d4 (the size-4 collision)


def find_d4_witness():
    """Two inequivalent triangulations at n=4 with isomorphic quivers: of
    the groups sharing a quiver, the first to gain a second class."""
    classes = tr.equivalence_classes(4)
    pairs = [tuple(g[:2]) for g in _classes_by_quiver(4).values() if len(g) > 1]
    return min(pairs, key=lambda pair: classes.index(pair[1]), default=None)


def suite_d4(n: int = 4) -> SuiteReport:
    if n != 4:
        raise UnsupportedSizeError(f"the d4 suite is the witness at n=4 only; got n={n}")
    name = "inequivalent triangulations with isomorphic quivers exist at n=4"
    stopped = _enumeration_stopped(4) or _table_stopped(4)
    if stopped:
        return _stopped_report("d4", 4, [name], stopped)
    fails = []
    witness = find_d4_witness()
    if witness is None:
        fails.append("no pair of inequivalent size-4 triangulations shares a quiver")
    report = SuiteReport("d4", 4, [(name, fails)])
    if witness is not None:
        a, b = witness
        table = qv.transport_table(4)
        qa, qb = table[a.representative.key], table[b.representative.key]
        _, mapping = qv.is_isomorphic(qa, qb)
        fails = _witness_failures(a.representative, b.representative, qa, qb, mapping)
        if mapping is not None:
            mapping = {qa.label(v): qb.label(w) for v, w in mapping.items()}
        report.checks.append(
            (f"witness: {a.representative.token()} (type {a.type}) ~/~ "
             f"{b.representative.token()} (type {b.type}); vertex map {mapping}",
             fails),
        )
    return report


def _witness_failures(a: tr.Triangulation, b: tr.Triangulation,
                      qa: qv.Quiver, qb: qv.Quiver, mapping) -> list[str]:
    """The witness pair lies in two orbits, and its vertex map is a
    bijection carrying qa's arrows exactly onto qb's."""
    fails = []
    if b.key in tr._orbit(a.n, a.key):
        fails.append("representatives lie in one orbit")
    if (mapping is None or sorted(mapping) != list(qa.vertices)
            or sorted(mapping.values()) != list(qb.vertices)
            or tuple(sorted((mapping[s], mapping[t]) for s, t in qa.arrows)) != qb.arrows):
        fails.append("vertex map does not carry the arrows onto the second quiver")
    return fails


# ---------------------------------------------------------------------------


def run_suite(suite: str, n: int, jobs: int = 1) -> list[SuiteReport]:
    run = _Run(n, jobs)
    if suite == "crossing":
        return [suite_crossing(n)]
    if suite == "flip":
        return [suite_flip(n, run)]
    if suite == "transport":
        return [suite_transport(n, run)]
    if suite == "types":
        return [suite_types(n, run)]
    if suite == "prop45":
        return [suite_prop45(n, run)]
    if suite == "prop47":
        return [suite_prop47(n)]
    if suite == "d4":
        return [suite_d4(n)]
    if suite == "all":
        reports = [suite_crossing(n), suite_flip(n, run), suite_transport(n, run)]
        _release_class_walk()  # commutation was the walk's last reader
        reports.append(suite_types(n, run))
        if n >= 5:
            # prop45 and prop47 assume n >= 5; at n=4 the d4 suite documents
            # the failure of the class-quiver bijection instead
            reports.append(suite_prop45(n, run))
            reports.append(suite_prop47(n))
        reports.append(suite_d4(4))
        return reports
    from .cli import SUITES

    raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
