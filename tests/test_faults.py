"""One table of faults for `dncat verify`: each row names a check line
that a fault must fail.

A row gives the fault, the line (a key of LINES), the line's failure
count, its smallest failure, and the n.  Under the fault, the suite of
each row alone and `all` exit 1, print nothing to stderr, and show the
row's line as a FAIL with that count and failure.  The rows of an exact
fault name every line it fails.  Lines are found by name, never by
position.

A fault patches a function or a table entry.  It returns the caches to
be rebuilt under it, if any; `applied` undoes the patches and drops
whatever was built under the fault.

Each law that carries a check to the non-representative members has a
fault on what only such a member reads (README, the law table).  The
coverage test requires a row for every check line: a new line needs one.
"""

import re
from collections import namedtuple
from contextlib import contextmanager

import pytest

from dncat import edges as ed
from dncat import quivers as qv
from dncat import relations as rl
from dncat import triangulations as tr
from dncat import verify as vf
from dncat.cli import main
from dncat.errors import ModelInconsistencyError

LINES = {
    "axioms": ("crossing", "crossing symmetry, range, translation and tag-swap invariance"),
    "staple": ("crossing", "staple arrangement oracle agreement"),
    "maximal": ("crossing", "every maximal non-crossing set has n edges"),
    "count": ("crossing", "triangulation count matches the cluster-count formula"),
    "flips": ("flip", "every edge of every triangulation flips uniquely and involutively"),
    "connected": ("flip", "flip graph is connected from the fan"),
    "commutation": ("transport", "mutation commutes with every flip (path independence)"),
    "direct": ("transport", "direct template equals mutation transport"),
    "equivariant": ("transport", "quivers are translation and tag-swap equivariant"),
    "templates": ("types", "each triangulation matches exactly one type template"),
    "census": ("types", "type and class censuses are consistent"),
    "local": ("types", "separation, region-neighbor, and border-vertex structure"),
    "dims": ("types", "relation ideals give the morphism-space dimensions"),
    "prop45": ("prop45", "vertex deletion lands in D(n-1) iff close to border, "
                         "in A(n-1) iff degenerate"),
    "prop47": ("prop47", "classes map bijectively onto quiver iso-classes"),
    "d4": ("d4", "inequivalent triangulations with isomorphic quivers exist at n=4"),
    "witness": ("d4", "witness"),
}

FAILURES = re.compile(r": \d+ failure\(s\); smallest: .*")
COUNTS = re.compile(r" \(\d+\)")


def by_name(out: str) -> dict:
    """verify's stdout as {suite: {name: line}}, each line named by its text
    after the status, without its failures, prop47's class counts or d4's
    witness text; a suite's closing line is named `suite=<suite> n=<n>`."""
    suites, block = {}, {}
    for line in out.splitlines():
        assert line[:5] in ("ok   ", "FAIL ", "PASS "), line
        text = line[5:]
        block[COUNTS.sub("", FAILURES.sub("", text, 1)).partition(": ")[0]] = line
        if text.startswith("suite="):
            suites[text.split()[0][len("suite="):]] = block
            block = {}
    return suites


def verify(capsys, suite: str, n: int, *options) -> dict:
    """The lines by name of a verify run that exits 1 with an empty stderr."""
    code = main(["verify", "--suite", suite, "--n", str(n), *options])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")  # no error: line, no traceback
    return by_name(out)


CACHES = (tr._all_index_sets, tr.equivalence_classes, tr._group, tr._quotient_rows,
          qv.transport_table, qv.mutation_class_a, qv.mutation_class_d)


@contextmanager
def applied(fault, monkeypatch):
    """fault on healthy tables: each table the rows read is built first and
    the class walk, cached for one n, dropped.  Afterwards the patches are
    undone and every table built under the fault is dropped."""
    for k in (4, 5, 6):
        # a cleared cache drops every n, and a cached transport table does
        # not rebuild the enumeration the crossing suite reads
        tr._all_index_sets(k)
        qv.transport_table(k)
    for k in (4, 5):
        qv.mutation_class_a(k)
        qv.mutation_class_d(k)
        tr._quotient_rows(k + 1)
    tr.class_graph.cache_clear()
    misses = [cache.cache_info().misses for cache in CACHES]
    rebuilt = fault(monkeypatch) or ()
    for cache in rebuilt:
        cache.cache_clear()  # which restarts its misses from 0
    try:
        yield
    finally:
        monkeypatch.undo()
        tr.class_graph.cache_clear()
        for cache, before in zip(CACHES, misses):
            if cache in rebuilt or cache.cache_info().misses != before:
                cache.cache_clear()


def check_fault(capsys, monkeypatch, fault, runs=None) -> None:
    """Under fault, run the suite of each of its rows alone and all (or
    the given runs).  Each row's line is `FAIL <name>: <count> failure(s);
    smallest: <smallest>` and its suite's closing line a FAIL; under an
    exact fault every other line is ok and every other suite a PASS."""
    rows = [row for row in ROWS if row.fault is fault]
    (n,) = {row.n for row in rows}  # one n per fault
    want = {LINES[row.line]: f": {row.count} failure(s); smallest: {row.smallest}"
            for row in rows}
    assert len(want) == len(rows)  # one row per line
    with applied(fault, monkeypatch):
        for run in runs or [*dict.fromkeys(suite for suite, _ in want), "all"]:
            lines = verify(capsys, run, 4 if run == "d4" else n)
            printed = {key: want[key] for key in want if run in (key[0], "all")}
            failing = {suite for suite, _ in printed}
            for (suite, name), failure in printed.items():
                line = lines[suite][name]
                assert line == f"FAIL {FAILURES.sub('', line[5:], 1)}{failure}", line
            for suite, block in lines.items():
                summary = f"suite={suite} n={4 if suite == 'd4' else n}"
                if suite in failing:
                    assert block[summary] == f"FAIL {summary}", run
                elif fault in EXACT:
                    assert block[summary] == f"PASS {summary}", run
                if fault in EXACT:
                    assert all(line.startswith("ok   ") for name, line in block.items()
                               if name != summary and (suite, name) not in printed), run


def _serve(mp, module, name: str, n: int, value) -> None:
    """module.name(n) returns value; other sizes are served as before."""
    real = getattr(module, name)
    mp.setattr(module, name, lambda k: value if k == n else real(k))


def _edit_at(mp, module, name: str, key, edit) -> None:
    """module.name(tri) returns edit of its result where tri has the key."""
    real = getattr(module, name)
    mp.setattr(module, name, lambda tri: edit(real(tri)) if tri.key == key else real(tri))


def _one_more(mp, module, name: str) -> None:
    real = getattr(module, name)
    mp.setattr(module, name, lambda k: real(k) + 1)


def _alphabet(mp, n: int, **fields) -> None:
    _serve(mp, ed, "alphabet", n, ed.alphabet(n)._replace(**fields))


def _clear_a_bit(mp, n: int, token: str) -> None:
    """The compatibility row of token at n loses its lowest set bit."""
    alpha = ed.alphabet(n)
    masks = list(alpha.masks)
    masks[alpha.by_token[token]] &= masks[alpha.by_token[token]] - 1
    _alphabet(mp, n, masks=tuple(masks))


def _rep(n: int, index: int) -> tuple:
    return tr.equivalence_classes(n)[index].representative.key


def _entry(mp, n: int, key, arrows) -> None:
    """The class table at n holds the given arrows for the class key."""
    mp.setitem(qv.transport_table(n), key, qv.Quiver(key, tuple(sorted(arrows)), n))


# at n = 6: the representatives of classes 0 and 9, and the first member of
# class 9 other than its representative
FAN_CLASS = "p:1-3,p:1-4,p:1-5,p:1-6,s:1:+,s:1:-"
CLASS9 = "p:1-3,p:1-4,p:1-5,s:1:+,s:5:+,s:6:+"
MEMBER = "p:1-3,p:1-4,p:1-5,s:1:-,s:5:-,s:6:-"


def _member() -> tuple:
    key = tr.parse_triangulation(6, MEMBER).key
    assert key == tr._orbit_keys(6, _rep(6, 9))[1] != _rep(6, 9)
    return key


# ---------------------------------------------------------------------------
# the faults, in the order of the lines they break


def swapped_crossing_pair(mp):
    # a 0 and a 1 of the first crossing row at n = 6; the dimension count
    # reads each representative's hom total off the crossing rows, and the
    # hom law the rows of every member
    row = bytearray(ed.alphabet(6).cross[0])
    j, k = row.index(0), row.index(1)
    row[j], row[k] = row[k], row[j]
    _alphabet(mp, 6, cross=(bytes(row), *ed.alphabet(6).cross[1:]))


def member_cross_entry(mp):
    # the p:1-3 entry of p:2-5's crossing row, 1 to 0: p:2-5 is in no
    # representative, so only the hom law reads its row
    alpha = ed.alphabet(6)
    i, j = alpha.by_token["p:2-5"], alpha.by_token["p:1-3"]
    assert all(i not in key for key in vf._class_keys(6))
    row = bytearray(alpha.cross[i])
    assert row[j] == 1
    row[j] = 0
    _alphabet(mp, 6, cross=(*alpha.cross[:i], bytes(row), *alpha.cross[i + 1:]))


def member_tau_inv(mp):
    # the tau^-1 images of p:2-5 and p:2-4 swapped: both are in no
    # representative, so only the hom law reads them
    alpha = ed.alphabet(6)
    i, j = alpha.by_token["p:2-5"], alpha.by_token["p:2-4"]
    assert all(i not in key and j not in key for key in vf._class_keys(6))
    tau_inv = list(alpha.tau_inv)
    tau_inv[i], tau_inv[j] = tau_inv[j], tau_inv[i]
    _alphabet(mp, 6, tau_inv=tuple(tau_inv))


def flipped_mask_bit(mp):
    masks = list(ed.alphabet(6).masks)
    masks[3] ^= 1 << 7
    _alphabet(mp, 6, masks=tuple(masks))


def staple_swapped(mp):
    # the staple curves of p:1-3 at n = 6 are those of p:2-4
    realizations, p13, p24 = vf.realizations, ed.plain(1, 3), ed.plain(2, 4)
    mp.setattr(vf, "realizations", lambda n, e: realizations(n, p24 if (n, e) == (6, p13) else e))


def short_kernel(mp):
    """A clique kernel that drops one vertex from the first clique: the
    enumeration stops at every n."""
    kernel = tr.maximal_cliques

    def short(masks, m):
        cliques = kernel(masks, m)
        return [cliques[0][1:]] + cliques[1:]

    mp.setattr(tr, "maximal_cliques", short)
    return [tr._all_index_sets]


def count_formula_off(mp):
    _one_more(mp, tr, "cluster_count_formula")


def cleared_spoke_bit(mp):
    # s:1:+ is an edge of the fan: the flip back of p:1-3 and the class walk
    # meet a row with no replacement, and the row law names it
    _clear_a_bit(mp, 6, "s:1:+")


def cleared_member_bit(mp):
    # s:2:- is an edge of no representative: only the row law reads its row
    _clear_a_bit(mp, 6, "s:2:-")


def unreachable_class(mp):
    # the one flip into the class of the all-spoke triangulation sent back
    # onto its own triangulation
    _, flips, _ = tr.class_graph(6)
    into = {}
    for key, row in flips.items():
        for m, (_, rep, _) in zip(key, row):
            if rep != key:
                into.setdefault(rep, []).append((key, m))
    (lone, [(rep, m)]), = [(rep, e) for rep, e in into.items() if len(e) == 1]
    assert tr.Triangulation(6, lone).token() == "s:1:+,s:2:+,s:3:+,s:4:+,s:5:+,s:6:+"
    flip_index = tr._flip_index
    mp.setattr(tr, "_flip_index", lambda n, key, i: (
        (key, i) if (n, key, i) == (6, rep, m) else flip_index(n, key, i)))
    return [tr.class_graph]


def translation_revisits(mp):
    # only the revisits that are translations, which prove nothing about the
    # fan component's images under the tag swap
    start, flips, revisits = tr.class_graph(6)
    assert len(revisits) == len(tr._group(6)) == 12
    translations = frozenset(y for y in revisits if y % 2 == 0)  # tau^k sits at 2k
    _serve(mp, tr, "class_graph", 6, (start, flips, translations))


def stopped_walk(mp):
    # cleared_spoke_bit with no table cached: the walk stops inside the build
    _clear_a_bit(mp, 6, "s:1:+")
    return [qv.transport_table]


def stopped_walk_below(mp):
    # the same at n - 1 = 5, which prop45 reads
    _clear_a_bit(mp, 5, "s:1:+")
    return [qv.transport_table]


def path_dependent(mp):
    # a mutation that drops an arrow: the transported quivers disagree
    mutate_arrows = qv._mutate_arrows
    mp.setattr(qv, "_mutate_arrows", lambda arrows, v, v2: mutate_arrows(arrows, v, v2)[1:])
    return [qv.transport_table]


def entry_cut_off(mp):
    # class 9's quiver loses a vertex: every member's quiver is read from it
    key = _rep(6, 9)
    _entry(mp, 6, key, [a for a in qv.transport_table(6)[key].arrows if key[0] not in a])


def stabilizer_moved(mp):
    # an arrow of Q(R) reversed that an element g fixing R moves: R read
    # through g, the one member a stabilizer fault reaches, has another quiver
    key = _rep(6, 0)
    g = next(g for g in tr._group(6) if tuple(sorted(g[i] for i in key)) == key
             and any(g[i] != i for i in key))
    arrows = qv.transport_table(6)[key].arrows
    s, t = next(a for a in arrows if (g[a[0]], g[a[1]]) != a)
    _entry(mp, 6, key, [(t, s) if a == (s, t) else a for a in arrows])


def member_cut_refused(mp):
    def refuse(dec):
        raise ModelInconsistencyError("cut refused")

    _edit_at(mp, qv, "_decompose", _member(), refuse)


def dropped_template_arrow(mp):
    # an arrow that no relation generator uses: relations_of and the
    # dimension count are untouched, and the member's template, moved back,
    # is not Q(R)
    dec = qv._decompose(tr.Triangulation(6, _member()))
    used = {step for path in dec.zero_paths + sum(dec.comm_pairs, ())
            for step in zip(path, path[1:])}
    arrow = next(a for a in dec.arrows if a not in used)
    _edit_at(mp, qv, "_decompose", _member(), lambda dec: dec._replace(
        arrows=tuple(a for a in dec.arrows if a != arrow)))


def two_cycle(mp):
    # the member is built whole, and direct_quiver_of's assertion names it
    _edit_at(mp, qv, "_decompose", _member(), lambda dec: dec._replace(
        arrows=dec.arrows + (dec.arrows[0][::-1],)))


def dropped_generator(mp):
    _edit_at(mp, rl, "relations_of", _member(), lambda rels: rels._replace(
        zero_paths=rels.zero_paths[1:]))


def wrong_classifier(mp):
    _edit_at(mp, tr, "classify_type", _member(), lambda kind: tr.TYPE1)


def type_three_for_four(mp):
    # the three-spoke member called type 3: the template oracle branches on
    # its own predicates, and the cut names the spoke count
    _edit_at(mp, tr, "classify_type", _member(), lambda kind: tr.TYPE3)


def swapped_class_types(mp):
    # the types of classes 0 (type 1, orbit 6) and 4 (type 3, orbit 12)
    # swapped: the class census per type is unchanged, and only the orbit
    # sums per type move
    classes = list(tr.equivalence_classes(6))
    a, b = classes[0], classes[4]
    assert (a.type, a.orbit_size, b.type, b.orbit_size) == (1, 6, 3, 12)
    classes[0], classes[4] = a._replace(type=b.type), b._replace(type=a.type)
    _serve(mp, tr, "equivalence_classes", 6, tuple(classes))


def member_edge_kind(mp):
    # p:2-5 is a connected arc of no representative
    kinds = list(ed.alphabet(6).kind)
    kinds[ed.alphabet(6).by_token["p:2-5"]] = ed.CLOSE_TO_BORDER
    _alphabet(mp, 6, kind=tuple(kinds))


def member_inner_arcs(mp):
    # the arcs inside p:2-5, an arc of no representative, lose the lowest
    inner, i = vf._inner_masks(6), ed.alphabet(6).by_token["p:2-5"]
    inner[i] &= inner[i] - 1
    _serve(mp, vf, "_inner_masks", 6, inner)


def reversed_entry_below(mp):
    # one arrow of class 9's quiver at n = 5 reversed: the deletions at
    # n = 6 whose quotient lands in that class fail the labelled check
    key = _rep(5, 9)
    (s, t), *rest = qv.transport_table(5)[key].arrows
    _entry(mp, 5, key, [(t, s), *rest])


def quotient_row(mp):
    # p:2-4 is in no representative: only the row law reads its row
    i = ed.alphabet(6).by_token["p:2-4"]
    assert all(i not in key for key in vf._class_keys(6))
    row = list(tr._quotient_rows(6)[i])
    a, b = [j for j, r in enumerate(row) if r is not None][:2]
    row[a], row[b] = row[b], row[a]
    _serve(mp, tr, "_quotient_rows", 6, {**tr._quotient_rows(6), i: tuple(row)})


def a_count_off(mp):
    _one_more(mp, qv, "mutation_class_a_count")


def d_count_off(mp):
    _one_more(mp, tr, "class_count_formula")


def shared_quiver(mp):
    # class 1's quiver is class 0's, its vertices renamed in order
    a, b = _rep(6, 0), _rep(6, 1)
    rename = dict(zip(a, b))
    _entry(mp, 6, b, [(rename[s], rename[t]) for s, t in qv.transport_table(6)[a].arrows])


def no_witness(mp):
    # canonical keys at n = 4 that keep the labels: no two classes share one
    canonical_key = qv.canonical_key
    mp.setattr(qv, "canonical_key", lambda q: q.arrows if q.n == 4 else canonical_key(q))


def wrong_vertex_map(mp):
    # the isomorphism witness with the images of two vertices swapped
    is_isomorphic = qv.is_isomorphic

    def swapped(qa, qb):
        found, mapping = is_isomorphic(qa, qb)
        v, w = list(mapping)[:2]
        return found, {**mapping, v: mapping[w], w: mapping[v]}

    mp.setattr(qv, "is_isomorphic", swapped)


# ---------------------------------------------------------------------------
# the table

Row = namedtuple("Row", "fault line count smallest n", defaults=(6,))

STOPPED = "enumeration stopped: maximal non-crossing set of size 4 at n=5"
WALK = "flip of s:2:+ has 0 replacements []; expected 1"
SPOKE_FLIPS = f"{FAN_CLASS} at p:1-3: flip of p:2-4 has 0 replacements []; expected 1"
PATH = "transport table at n=5 stopped: transported quiver depends on the flip path at "

ROWS = [
    Row(swapped_crossing_pair, "axioms", 2, "table e(p:1-3,p:1-3) = 1, rule 0"),
    Row(swapped_crossing_pair, "dims", 81, f"{FAN_CLASS}: algebra dimension 20 != hom total 19"),
    Row(member_cross_entry, "axioms", 1, "table e(p:2-5,p:1-3) = 0, rule 1"),
    Row(member_cross_entry, "dims", 2, "p:2-5: crossing row not translation equivariant"),
    Row(member_tau_inv, "dims", 4, "p:2-4: translation does not commute with tau^-1"),
    Row(flipped_mask_bit, "axioms", 1, "mask bit at p:1-6,p:2-1 disagrees with the rule"),
    Row(staple_swapped, "staple", 17, "p:1-3,p:2-1: rule 1 vs staple 0"),
    *[Row(short_kernel, line, 1, STOPPED, 5) for line in [
        "maximal", "count", "flips", "connected", "commutation", "direct", "equivariant",
        "templates", "census", "local", "dims", "prop45", "prop47"]],
    Row(short_kernel, "d4", 1, STOPPED.replace("4 at n=5", "3 at n=4"), 5),
    Row(count_formula_off, "count", 1, "enumerated 672 != formula 673"),
    Row(cleared_spoke_bit, "flips", 33, SPOKE_FLIPS),
    Row(cleared_spoke_bit, "connected", 5, f"walk from the fan stopped: {WALK}"),
    Row(cleared_member_bit, "flips", 4, "s:2:+: compatibility row not tag swap equivariant"),
    Row(cleared_member_bit, "connected", 4,
        "s:2:-: compatibility row not translation equivariant"),
    Row(unreachable_class, "connected", 1, "reached 79 of 80 classes from the fan"),
    Row(translation_revisits, "connected", 1, "revisits generate 6 of 12 group elements"),
    *[Row(stopped_walk, line, 1, f"transport table at n=6 stopped: {WALK}") for line in [
        "commutation", "direct", "equivariant", "templates", "census", "local", "dims",
        "prop45", "prop47"]],
    Row(stopped_walk, "axioms", 1, "mask bit at s:1:+,p:1-3 disagrees with the rule"),
    Row(stopped_walk, "flips", 33, SPOKE_FLIPS),
    Row(stopped_walk, "connected", 5, f"walk from the fan stopped: {WALK}"),
    Row(stopped_walk_below, "prop45", 1, f"transport table at n=5 stopped: {WALK}"),
    *[Row(path_dependent, line, 1, PATH + "p:1-3,p:1-4,p:1-5,s:1:+,s:1:-", 5)
      for line in ["commutation", "direct", "equivariant"]],
    Row(entry_cut_off, "commutation", 12, "p:1-3,p:1-4,p:1-5,p:1-6,s:1:+,s:6:+ at p:1-6: "
                                          "mutation != flip"),
    Row(entry_cut_off, "direct", 12, f"{CLASS9}: template and transport disagree"),
    Row(entry_cut_off, "local", 2, f"{CLASS9}: p:1-4 has 0 region neighbors"),
    Row(entry_cut_off, "dims", 1, f"{CLASS9}: algebra dimension 14 != hom total 17"),
    Row(entry_cut_off, "prop45", 3, f"{CLASS9} minus s:1:+: A-membership False, degenerate"),
    Row(stabilizer_moved, "equivariant", 1, f"{FAN_CLASS}: quiver not fixed by its stabilizer"),
    Row(stabilizer_moved, "prop45", 2, f"{FAN_CLASS} minus p:1-3: quotient quiver differs"),
    Row(member_cut_refused, "direct", 1, f"{MEMBER}: cut refused"),
    Row(member_cut_refused, "dims", 1, f"{MEMBER}: cut refused"),
    Row(dropped_template_arrow, "direct", 1, f"{MEMBER}: template and transport disagree"),
    Row(two_cycle, "direct", 1, f"{MEMBER}: 2-cycle 's:1:-'<->'s:5:-' (direct at {MEMBER})"),
    Row(dropped_generator, "dims", 1, f"{MEMBER}: relations are not its representative's "
                                      f"{CLASS9} moved by the orbit map"),
    Row(wrong_classifier, "templates", 1, f"{MEMBER}: classifier disagrees with the predicates"),
    *[Row(wrong_classifier, line, 1, f"{MEMBER}: type 1 needs an arc of length 6, found none "
                                     f"in {MEMBER}") for line in ["direct", "dims"]],
    Row(wrong_classifier, "census", 2, "type 1 classes' orbits hold 336 triangulations, "
                                       "type census 337"),
    Row(type_three_for_four, "templates", 1,
        f"{MEMBER}: classifier disagrees with the predicates"),
    *[Row(type_three_for_four, line, 1, f"{MEMBER}: type 3 needs two spokes, found 3 "
                                        f"in {MEMBER}") for line in ["direct", "dims"]],
    Row(type_three_for_four, "census", 2, "type 3 classes' orbits hold 84 triangulations, "
                                          "type census 85"),
    Row(swapped_class_types, "census", 2, "type 1 classes' orbits hold 342 triangulations, "
                                          "type census 336"),
    Row(member_edge_kind, "local", 2, "p:2-5: edge kind not translation invariant"),
    Row(member_edge_kind, "prop45", 2, "p:2-5: edge kind not translation invariant"),
    Row(member_inner_arcs, "local", 2, "p:2-5: inner arcs not translation equivariant"),
    Row(reversed_entry_below, "prop45", 5, f"{CLASS9} minus p:1-3: quotient quiver differs"),
    Row(quotient_row, "prop45", 2, "p:2-4: quotient row not translation equivariant"),
    Row(a_count_off, "prop45", 1, "|Mut(A_5)| = 19, formula 20"),
    Row(d_count_off, "prop45", 1, "|Mut(D_5)| = 26, formula 27"),
    Row(shared_quiver, "prop47", 1, f"distinct classes share a quiver: {FAN_CLASS} vs "
                                    "p:1-3,p:1-4,p:1-5,p:1-6,s:1:+,s:6:+"),
    Row(no_witness, "d4", 1, "no pair of inequivalent size-4 triangulations shares a quiver", 4),
    Row(wrong_vertex_map, "witness", 1, "vertex map does not carry the arrows onto the second "
                                        "quiver", 4),
]

# the faults whose rows name every line they fail
EXACT = {swapped_crossing_pair, member_cross_entry, member_tau_inv, staple_swapped,
         short_kernel, count_formula_off, translation_revisits, stopped_walk,
         stopped_walk_below, entry_cut_off, member_cut_refused, dropped_template_arrow,
         two_cycle, dropped_generator, wrong_classifier, type_three_for_four,
         swapped_class_types, reversed_entry_below, quotient_row, a_count_off, no_witness,
         wrong_vertex_map}

FAULTS = list(dict.fromkeys(row.fault for row in ROWS))


@pytest.mark.parametrize("fault", FAULTS, ids=[fault.__name__ for fault in FAULTS])
def test_each_fault_fails_its_lines(capsys, monkeypatch, fault):
    check_fault(capsys, monkeypatch, fault)


def test_every_check_line_has_a_row(capsys):
    assert main(["verify", "--suite", "all", "--n", "6"]) == 0
    lines = by_name(capsys.readouterr().out)
    assert {(suite, name) for suite, block in lines.items() for name in block
            if not name.startswith("suite=")} == {LINES[row.line] for row in ROWS}


@pytest.mark.parametrize("fault, line", [(dropped_template_arrow, "direct"),
                                         (reversed_entry_below, "prop45")],
                         ids=["member-pass", "prop45"])
def test_forked_chunks_print_the_serial_line(capsys, monkeypatch, fault, line):
    # the per-class chunks run in forked workers, which inherit the fault;
    # on one core _parallel maps in this process, and both runs are serial
    suite, name = LINES[line]
    with applied(fault, monkeypatch):
        serial = verify(capsys, "all", 6)[suite][name]
        forked = verify(capsys, "all", 6, "--jobs", "2")[suite][name]
    assert serial.startswith("FAIL ") and forked == serial
