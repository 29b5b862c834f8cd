import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import dncat
from dncat import edges as ed
from dncat import quivers as qv
from dncat import relations as rl
from dncat import triangulations as tr
from dncat import verify as vf
from dncat.cli import main
from dncat.errors import UnsupportedSizeError

import test_faults as tf

FAN5 = "p:1-3,p:1-4,p:1-5,s:1:+,s:1:-"
ALL_SPOKES5 = "s:1:+,s:2:+,s:3:+,s:4:+,s:5:+"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--count")
    assert code == 0 and out.strip() == "182"
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--count")
    assert code == 0 and out.strip() == "50"


def test_enumerate_classes_type_filter(capsys):
    code, out, _ = run(capsys, "classes", "--n", "5", "--type", "1", "--count")
    assert code == 0 and out.strip() == "15"


def test_enumerate_stream_and_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 50
    assert lines[0].startswith("p:") or lines[0].startswith("s:")
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--json")
    payload = json.loads(out.strip().splitlines()[0])
    assert payload["n"] == 4 and len(payload["edges"]) == 4


def test_edges_listing(capsys):
    code, out, _ = run(capsys, "edges", "--n", "4")
    assert code == 0 and len(out.strip().splitlines()) == 16


def test_quiver_dot(capsys):
    code, out, _ = run(capsys, "quiver", "--n", "5", "--edges", FAN5, "--dot")
    assert code == 0
    assert "1 -> 2;" in out and "2 -> 3;" in out
    assert "3 -> 4;" in out and "3 -> 5;" in out
    assert '[label="p:1-3"]' in out


def test_quiver_all_spokes_cycle(capsys):
    code, out, _ = run(capsys, "quiver", "--n", "5", "--edges", ALL_SPOKES5)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["arrows"]) == 5
    assert ["s:5:+", "s:1:+"] in payload["arrows"]


def test_quiver_relations_attached(capsys):
    code, out, _ = run(capsys, "quiver", "--n", "5", "--edges", FAN5,
                       "--json", "--relations")
    payload = json.loads(out)
    assert code == 0 and payload["relations"] == {
        "zeroPaths": [], "commutativityPairs": []}


def test_quiver_invalid_edge_exits_3(capsys):
    code, _, err = run(capsys, "quiver", "--n", "5",
                       "--edges", "p:1-2,p:1-4,p:1-5,s:1:+,s:1:-")
    assert code == 3
    assert ">= 3" in err
    code, _, err = run(capsys, "quiver", "--n", "5",
                       "--edges", "p:1-3,p:1-4,s:1:+,s:1:-")
    assert code == 3 and "not maximal" in err
    code, _, err = run(capsys, "quiver", "--n", "5",
                       "--edges", "p:1-3,p:2-4,p:1-4,s:1:+,s:1:-")
    assert code == 3 and "cross" in err
    # a plain arc with equal ends is no edge, not the spoke s:1:+
    code, out, err = run(capsys, "quiver", "--n", "5",
                         "--edges", "p:1-3,p:1-4,p:1-5,p:1-1,s:1:-")
    assert code == 3 and out == "" and "'p:1-1'" in err
    code, out, err = run(capsys, "flip", "--n", "5", "--edges", FAN5, "--edge", "p:1-1")
    assert code == 3 and out == "" and "'p:1-1'" in err


def test_quiver_with_relations_decomposes_once(capsys, monkeypatch):
    calls = []
    cut = qv._decompose
    monkeypatch.setattr(qv, "_decompose", lambda tri: calls.append(tri) or cut(tri))
    code, out, _ = run(capsys, "quiver", "--n", "5", "--edges", FAN5, "--json", "--relations")
    assert code == 0 and json.loads(out)["relations"] == {"zeroPaths": [],
                                                          "commutativityPairs": []}
    assert len(calls) == 1


def test_dot_and_json_mutually_exclusive(capsys):
    code, *_ = run(capsys, "quiver", "--n", "5", "--edges", FAN5,
                   "--dot", "--json")
    assert code == 2


def test_flip_command(capsys):
    code, out, _ = run(capsys, "flip", "--n", "5", "--edges", FAN5,
                       "--edge", "s:1:+", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["replacement"] == "s:5:-"


def test_relations_command(capsys):
    code, out, _ = run(capsys, "relations", "--n", "5",
                       "--edges", "p:1-3,p:3-5,p:3-1,s:1:+,s:1:-")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["commutativityPairs"]) == 1
    assert len(payload["zeroPaths"]) == 4


def test_ar_command(capsys):
    code, out, _ = run(capsys, "ar", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 25
    code, out, _ = run(capsys, "ar", "--n", "5", "--dot", "--tau-ranks")
    assert code == 0 and "rank=same" in out


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--suite", "prop47")
    assert code == 0 and "bijectively" in out
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "d4")
    assert code == 0 and "witness" in out
    code, out, _ = run(capsys, "verify", "--n", "5", "--suite", "flip")
    assert code == 0


def test_verify_failure_exits_1_with_counterexample(capsys):
    # the class-quiver bijection genuinely fails at n=4
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "prop47")
    assert code == 1
    assert "FAIL" in out and "share a quiver" in out


def test_verify_prop45_names_its_own_bound(capsys):
    # prop45 deletes a vertex into size n-1: the refusal names n=4, not n=3
    code, out, err = run(capsys, "verify", "--n", "4", "--suite", "prop45")
    assert code == 3 and out == ""
    assert err == "error: prop45 needs n >= 5, as it deletes a vertex into size n-1; got n=4\n"


def test_verify_all_suite(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--suite", "all")
    assert code == 0
    assert "suite=crossing" in out and "suite=d4" in out
    assert "suite=prop47" not in out  # bijection hypothesis needs n >= 5


def test_classes_subcommand(capsys):
    code, out, _ = run(capsys, "classes", "--n", "5", "--count")
    assert code == 0 and out.strip() == "26"
    code, out, _ = run(capsys, "classes", "--n", "5", "--json")
    first = json.loads(out.strip().splitlines()[0])
    assert set(first) == {"representative", "orbitSize", "type"}


def test_verify_jobs_deterministic(capsys):
    _, serial, _ = run(capsys, "verify", "--n", "5", "--suite", "types")
    _, parallel, _ = run(capsys, "verify", "--n", "5", "--suite", "types",
                         "--jobs", "2")
    assert serial == parallel


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, jobs):
    code, out, err = run(capsys, "verify", "--n", "5", "--suite", "types", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err.endswith(f"error: --jobs must be at least 1, not {jobs}\n")


def test_parallel_starts_at_most_one_worker_per_core(monkeypatch):
    # a fake pool records the worker count and maps in this process
    workers = []

    class Pool:
        def __init__(self, processes):
            workers.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    items = list(range(-8, 0))
    assert vf._parallel(abs, items, 10**6) == [abs(x) for x in items]
    assert vf._parallel(abs, items, 2) == [abs(x) for x in items]
    assert workers == [3, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert vf._parallel(abs, items, 10**6) == [abs(x) for x in items]
    assert workers == [3, 2]


def test_verify_all_decomposes_each_triangulation_once(monkeypatch):
    # one member pass serves the template quiver (transport suite) and the
    # relation ideal (types suite): direct_quiver_of and relations_of read
    # one object, so the one-entry memo in decompose cuts each member once;
    # the dimension oracle reads the transported quiver.  Counted where the
    # cut is computed, in all and in each suite alone
    calls = []
    cut = qv._decompose
    monkeypatch.setattr(qv, "_decompose", lambda tri: calls.append(tri) or cut(tri))
    reports = vf.run_suite("all", 6)
    assert all(r.ok for r in reports)
    assert len(calls) == tr.count_all(6) == 672
    for suite in ("transport", "types"):
        calls.clear()
        assert vf.run_suite(suite, 6)[0].ok
        assert len(calls) == 672


def test_prop45_keys_degenerate_deletions_and_each_class_below_once(monkeypatch):
    # one canonical key per connected degenerate deletion of each class
    # representative, and one per class at n - 1: a close-to-border cut
    # that the labelled quotient check finds equal to a class quiver at
    # n - 1 takes that quiver's key.  The other orbit members are checked by
    # relabelling
    canonical_key = qv.canonical_key
    for n, degenerate, want in ((6, 185, 211), (7, 567, 647)):
        qv.mutation_class_a(n - 1)
        qv.mutation_class_d(n - 1)
        kinds = ed.alphabet(n).kind
        assert sum(kinds[i] == ed.DEGENERATE and i in vf._connected_deletions(q)
                   for key, q in qv.transport_table(n).items() for i in key) == degenerate
        assert degenerate + len(tr.equivalence_classes(n - 1)) == want
        calls = []
        monkeypatch.setattr(qv, "canonical_key",
                            lambda q: calls.append(q) or canonical_key(q))
        assert vf.suite_prop45(n).ok
        assert len(calls) == want


def test_all_computes_the_laws_once_per_n(monkeypatch):
    # flip, transport, types and prop45 read one computation of each law at
    # n; prop45 also checks the stabilizers at n - 1
    calls = []
    for name in ("_alphabet_law_failures", "_check_symmetry_invariance"):
        law = getattr(vf, name)
        monkeypatch.setattr(vf, name, lambda n, *rest, law=law, name=name: (
            calls.append((name, n)) or law(n, *rest)))
    assert all(r.ok for r in vf.run_suite("all", 6))
    assert sorted(calls) == [("_alphabet_law_failures", 6),
                             ("_check_symmetry_invariance", 5),
                             ("_check_symmetry_invariance", 6)]


def _shared_work(monkeypatch) -> list:
    """(name, n, suite) of each call of the run's parts, suite the innermost
    vf.suite_* call active at the time (None outside every suite)."""
    calls, active = [], []
    for suite in ("crossing", "flip", "transport", "types", "prop45", "prop47", "d4"):
        fn = getattr(vf, f"suite_{suite}")

        def within(*args, fn=fn, suite=suite):
            active.append(suite)
            try:
                return fn(*args)
            finally:
                active.pop()

        monkeypatch.setattr(vf, f"suite_{suite}", within)
    for name in ("_inner_masks", "_alphabet_law_failures", "_check_symmetry_invariance",
                 "_member_pass"):
        fn = getattr(vf, name)
        monkeypatch.setattr(vf, name, lambda n, *rest, fn=fn, name=name: (
            calls.append((name, n, active[-1] if active else None)) or fn(n, *rest)))
    return calls


def test_all_computes_each_part_once_in_the_first_suite_to_read_it(monkeypatch):
    # flip reads the masks and the alphabet laws first, transport the
    # stabilizer check and the member pass; nothing runs between suites
    calls = _shared_work(monkeypatch)
    assert all(r.ok for r in vf.run_suite("all", 6))
    assert sorted(calls) == [("_alphabet_law_failures", 6, "flip"),
                             ("_check_symmetry_invariance", 5, "prop45"),
                             ("_check_symmetry_invariance", 6, "transport"),
                             ("_inner_masks", 6, "flip"),
                             ("_member_pass", 6, "transport")]


def test_a_suite_alone_computes_only_the_parts_it_reads(monkeypatch):
    calls = _shared_work(monkeypatch)
    assert vf.run_suite("flip", 6)[0].ok
    assert sorted(calls) == [("_alphabet_law_failures", 6, "flip"), ("_inner_masks", 6, "flip")]
    calls.clear()
    assert vf.run_suite("types", 6)[0].ok  # the masks once, for the laws and the pass
    assert sorted(calls) == [("_alphabet_law_failures", 6, "types"),
                             ("_inner_masks", 6, "types"), ("_member_pass", 6, "types")]


# Each fault test below keeps the name it had before the table of faults
# in tests/test_faults.py and runs its fault's rows, which hold what it
# asserted (the table's own runner repeats them); a few add a fact.


def test_prop45_keys_a_cut_directly_when_its_class_entry_below_is_corrupted(capsys, monkeypatch):
    # the deletions whose quotient lands in the reversed class at n - 1 fail
    # the labelled check, and each is keyed from its own cut quiver
    rep = tr.parse_triangulation(6, tf.CLASS9)
    cut = qv.delete_vertex(qv.transport_table(6)[rep.key], ed.alphabet(6).by_token["p:1-3"])
    canonical_key = qv.canonical_key
    calls = []
    monkeypatch.setattr(qv, "canonical_key", lambda q: calls.append(q) or canonical_key(q))
    tf.check_fault(capsys, monkeypatch, tf.reversed_entry_below)
    assert cut in calls


def test_a_corrupted_class_entry_fails_transport_types_and_prop45(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.entry_cut_off)
    assert all(r.ok for r in (vf.suite_transport(6), vf.suite_types(6), vf.suite_prop45(6)))


def test_a_member_whose_cut_fails_is_a_fail_line(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.member_cut_refused)


def test_a_dropped_template_arrow_fails_the_template_check(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.dropped_template_arrow)


def test_a_member_whose_cut_gains_a_2_cycle_fails_with_the_assertion(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.two_cycle)


def test_an_entry_not_fixed_by_its_stabilizer_fails_equivariance(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.stabilizer_moved)
    assert vf.suite_transport(6).ok


def test_types_alone_catches_a_dropped_generator(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.dropped_generator)


def test_flip_alone_catches_a_cleared_mask_bit(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.cleared_spoke_bit)
    # the row law names the cleared row in both checks
    with tf.applied(tf.cleared_spoke_bit, monkeypatch):
        for _, fails in vf.suite_flip(6).checks:
            assert "s:1:+: compatibility row not translation equivariant" in fails


def test_connectivity_catches_an_unreachable_class(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.unreachable_class)


def test_connectivity_catches_revisits_of_a_proper_subgroup(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.translation_revisits)


@pytest.mark.parametrize("suite", ["all", "transport", "types", "prop45", "prop47"])
def test_a_stopped_class_walk_fails_each_suite_reading_the_table(capsys, monkeypatch, suite):
    tf.check_fault(capsys, monkeypatch, tf.stopped_walk, [suite])


def test_prop45_reports_a_stopped_walk_at_n_minus_1(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.stopped_walk_below)


def test_a_path_dependent_transport_fails_its_checks(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.path_dependent)


def test_crossing_alone_catches_a_short_maximal_set(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.short_kernel, ["crossing"])


@pytest.mark.parametrize("suite", ["all", "flip", "transport", "types", "prop45", "prop47"])
def test_every_suite_reports_a_short_maximal_set(capsys, monkeypatch, suite):
    tf.check_fault(capsys, monkeypatch, tf.short_kernel, [suite])


def test_prop45_alone_catches_a_corrupted_quotient_row(capsys, monkeypatch):
    tf.check_fault(capsys, monkeypatch, tf.quotient_row)


@pytest.mark.parametrize("fault", [tf.a_count_off, tf.d_count_off], ids=["A", "D"])
def test_prop45_checks_the_class_sizes(capsys, monkeypatch, fault):
    tf.check_fault(capsys, monkeypatch, fault)


def test_all_releases_the_class_walk_before_types(monkeypatch):
    # commutation, in transport, is the last reader of the walk at n
    held = []
    suite_types = vf.suite_types
    monkeypatch.setattr(vf, "suite_types", lambda *args: held.append(
        tr.class_graph.cache_info().currsize) or suite_types(*args))
    assert all(r.ok for r in vf.run_suite("all", 6))
    assert held == [0]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_connected_deletions_match_the_cut_quivers(n):
    # prop45's bitmask search against is_connected on each cut quiver
    for key, q in qv.transport_table(n).items():
        assert vf._connected_deletions(q) == {
            i for i in key if qv.is_connected(qv.delete_vertex(q, i))}, key


@pytest.fixture
def short_kernel(monkeypatch):
    with tf.applied(tf.short_kernel, monkeypatch):
        yield


def test_a_refused_enumeration_runs_the_kernel_once_per_n(capsys, monkeypatch, short_kernel):
    # every suite asks for the enumeration, but the refusal is remembered:
    # one kernel run at n = 5 and one at n = 4 (prop45's n - 1 and d4)
    short, sizes = tr.maximal_cliques, []

    def counted(masks, m):
        sizes.append(m)
        return short(masks, m)

    monkeypatch.setattr(tr, "maximal_cliques", counted)
    code, _, err = run(capsys, "verify", "--suite", "all", "--n", "5")
    assert code == 1 and "error:" not in err
    assert sorted(sizes) == [4 * 4, 5 * 5]


def _trusted(n, text):
    """A key from tokens through the trusted constructor, unvalidated."""
    by_token = ed.alphabet(n).by_token
    return tr.Triangulation(n, tuple(sorted(by_token[t] for t in text.split(","))))


@pytest.fixture(scope="module")
def healthy_catalog(tmp_path_factory):
    """A catalog at n = 5, written before any test of the module patches
    the kernel."""
    directory = tmp_path_factory.mktemp("catalog")
    assert main(["catalog", "build", "--n", "5", "--dir", str(directory)]) == 0
    return directory


def test_show_reads_a_healthy_catalog_under_a_refused_enumeration(
        capsys, healthy_catalog, short_kernel):
    # the refusal sends the reader down the full parse, which accepts
    code, out, err = run(capsys, "catalog", "show", "--n", "5", "--dir", str(healthy_catalog))
    assert (code, err) == (0, "")
    assert out == "n=5: 182 triangulations, 26 classes (type 1: 15, type 2: 4, type 3: 2, type 4: 5)\n"


def test_template_checks_pass_every_triangulation():
    assert [f for t in tr.enumerate_all(6) for f in vf._template_failures(t)] == []


@pytest.mark.parametrize("text, want", [
    ("p:1-3,p:3-5,s:1:+,s:3:+,s:5:+", "missing connecting arc p:5-1"),
    ("p:1-4,p:4-1,s:1:+,s:4:-", "mixed spoke tags without a double"),
    ("p:1-3,s:1:+,s:2:+", "non-double spoke pair is a pairing"),
    ("p:1-4,s:1:+,s:1:-", "double without its return arcs"),
])
def test_template_checks_fail_on_a_broken_clause(text, want):
    # each key breaks one clause of the templates
    assert f"{text}: {want}" in vf._template_failures(_trusted(6, text))


def test_template_checks_catch_a_wrong_classifier(monkeypatch):
    tri = tr.fan(6)
    assert vf._template_failures(tri) == []
    monkeypatch.setattr(tr, "classify_type", lambda t: tr.TYPE4)
    assert vf._template_failures(tri) == [
        f"{tri.token()}: classifier disagrees with the predicates"]


def test_alphabet_laws_name_a_broken_row_kind_and_side(monkeypatch):
    alphabet = ed.alphabet
    alpha = alphabet(6)
    assert vf._alphabet_law_failures(6, vf._inner_masks(6)) == []
    index = alpha.index
    spoke = index[ed.spoke(1, 1)]
    masks = list(alpha.masks)
    masks[spoke] &= masks[spoke] - 1
    kinds = list(alpha.kind)
    kinds[index[ed.plain(1, 3)]] = ed.CONNECTED
    tau = list(alpha.tau)  # two connected arcs of different lengths swapped
    x, y = index[ed.plain(1, 4)], index[ed.plain(1, 5)]
    tau[x], tau[y] = tau[y], tau[x]
    for edit, want in ((dict(masks=tuple(masks)), "s:1:+: compatibility row not"),
                       (dict(kind=tuple(kinds)), "p:1-3: edge kind not"),
                       (dict(tau=tuple(tau)), "p:1-4: inner arcs not translation")):
        bad = alpha._replace(**edit)
        monkeypatch.setattr(ed, "alphabet", lambda n: bad if n == 6 else alphabet(n))
        assert any(f.startswith(want)
                   for f in vf._alphabet_law_failures(6, vf._inner_masks(6)))


def test_verify_all_jobs_deterministic(capsys):
    _, serial, _ = run(capsys, "verify", "--n", "6", "--suite", "all")
    _, parallel, _ = run(capsys, "verify", "--n", "6", "--suite", "all", "--jobs", "2")
    assert serial == parallel and serial.count("PASS suite=") == 7


@pytest.mark.parametrize("n", ["3", "5", "100"])
def test_verify_d4_is_the_n4_witness_only(capsys, n):
    code, out, err = run(capsys, "verify", "--suite", "d4", "--n", n)
    assert code == 2 and out == ""
    assert err.endswith(f"error: the d4 suite is the witness at n=4 only; "
                        f"pass --n 4, not {n}\n")
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "5")
    assert code == 0 and "PASS suite=d4 n=4" in out


@pytest.mark.parametrize("n", [3, 5, 7])
def test_run_suite_d4_refuses_other_sizes(n):
    # the library refuses as the CLI does; all still runs d4 at n = 4
    with pytest.raises(UnsupportedSizeError, match=f"n=4 only; got n={n}$"):
        vf.run_suite("d4", n)
    assert [r.n for r in vf.run_suite("d4", 4)] == [4]


def test_prop45_jobs_deterministic(capsys):
    _, serial, _ = run(capsys, "verify", "--n", "6", "--suite", "prop45")
    _, parallel, _ = run(capsys, "verify", "--n", "6", "--suite", "prop45",
                         "--jobs", "2")
    assert serial == parallel and "PASS suite=prop45 n=6" in serial


def test_quotient_row_law_names_an_arc_carried_off_the_rows(monkeypatch):
    n = 6
    rows = tr._quotient_rows
    i = ed.alphabet(n).index[ed.plain(2, 4)]
    bad = {k: row for k, row in rows(n).items() if k != i}
    monkeypatch.setattr(tr, "_quotient_rows", lambda k: bad if k == n else rows(k))
    assert vf._quotient_row_law_failures(n) == [
        "p:3-5: translation carries the arc off the quotient rows"]


def test_mutation_classes_are_built_once(monkeypatch):
    # the suite's warm-up and the membership tests share one cache entry per k
    qv.mutation_class_a.cache_clear()
    qv.mutation_class_d.cache_clear()
    seeds = []
    build = qv._mutation_class_keys
    monkeypatch.setattr(qv, "_mutation_class_keys",
                        lambda seed, check_a: seeds.append(check_a) or build(seed, check_a))
    assert vf.suite_prop45(5).ok
    assert qv.in_mutation_class_a(qv.linear_a_quiver(4), 4)
    assert qv.in_mutation_class_d(qv.base_quiver_d(4), 4)
    assert sorted(seeds) == [False, True]  # D(4) once, A(4) once


def test_module_entry_point_runs_without_install():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(dncat.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "dncat", "--version"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("dncat ")


def test_each_suite_alone_prints_its_lines_of_all():
    # each suite in a fresh process, so none reads a table or a law that
    # only another suite of the same run built or checked
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(dncat.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    reports = vf.run_suite("all", 6)
    assert [r.suite for r in reports] == [
        "crossing", "flip", "transport", "types", "prop45", "prop47", "d4"]
    for report in reports:
        proc = subprocess.run(
            [sys.executable, "-m", "dncat", "verify", "--suite", report.suite,
             "--n", str(report.n)], env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "\n".join(report.lines()) + "\n")


def test_usage_errors(capsys):
    assert run(capsys, "enumerate")[0] == 2          # missing --n
    assert run(capsys, "nonsense", "--n", "5")[0] == 2
    assert run(capsys, "verify", "--n", "5", "--suite", "bogus")[0] == 2
    # --jobs and --max-n only where they are read
    assert run(capsys, "edges", "--n", "5", "--jobs", "2")[0] == 2
    assert run(capsys, "flip", "--n", "5", "--edges", FAN5, "--edge", "s:1:+",
               "--max-n", "12")[0] == 2
    assert run(capsys, "quiver", "--n", "5", "--edges", FAN5, "--max-n", "12")[0] == 2
    assert run(capsys, "catalog", "show", "--n", "4", "--jobs", "2")[0] == 2
    assert run(capsys, "catalog", "show", "--n", "4", "--max-n", "12")[0] == 2
    assert run(capsys, "catalog", "build", "--n", "4", "--jobs", "2")[0] == 2
    # one path per command: classes lists classes, quiver is the template
    assert run(capsys, "enumerate", "--n", "5", "--classes")[0] == 2
    assert run(capsys, "quiver", "--n", "5", "--edges", FAN5, "--direct")[0] == 2
    # no option is silently dropped
    assert run(capsys, "enumerate", "--n", "5", "--count", "--json")[0] == 2
    assert run(capsys, "classes", "--n", "5", "--count", "--json")[0] == 2
    assert run(capsys, "quiver", "--n", "5", "--edges", FAN5, "--dot",
               "--relations")[0] == 2
    assert run(capsys, "ar", "--n", "5", "--tau-ranks")[0] == 2


def test_model_inconsistency_exits_1(capsys, short_kernel):
    # a failed internal check is a bug, not bad input: exit 1, not 3 (verify
    # reports one as FAIL lines; the other commands end on an error: line)
    code, out, err = run(capsys, "enumerate", "--n", "5", "--count")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_max_n_bound(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "10", "--count")
    assert code == 3 and "--max-n" in err


def test_max_n_reaches_classes(capsys):
    # the orbit sizes must add up to the closed-form cluster count
    code, out, _ = run(capsys, "classes", "--json", "--n", "10", "--max-n", "10")
    assert code == 0
    sizes = [json.loads(line)["orbitSize"] for line in out.splitlines()]
    assert sum(sizes) == tr.cluster_count_formula(10) == 136136


def _forbid_enumeration(monkeypatch):
    def no_work(n):
        raise AssertionError(f"enumerated at n={n}")

    monkeypatch.setattr(tr, "_all_index_sets", no_work)
    monkeypatch.setattr(tr, "class_graph", no_work)


def test_non_enumerating_commands_ignore_the_bound(capsys, monkeypatch):
    # flip, relations and quiver read one triangulation and never enumerate,
    # so n=10 needs no --max-n
    tri = tr.fan(10)
    flipped, replacement = tr.flip(tri, ed.spoke(1, 1))
    _forbid_enumeration(monkeypatch)
    code, out, _ = run(capsys, "flip", "--n", "10", "--edges", tri.token(),
                       "--edge", "s:1:+", "--json")
    assert code == 0 and json.loads(out) == {
        "replacement": replacement.token(), "triangulation": flipped.token()}
    code, out, _ = run(capsys, "relations", "--n", "10", "--edges", flipped.token())
    assert code == 0 and json.loads(out) == rl.relations_of(flipped).to_json()
    code, out, _ = run(capsys, "quiver", "--n", "10", "--edges", flipped.token())
    assert code == 0 and json.loads(out) == qv.direct_quiver_of(flipped).to_json()
    code, out, _ = run(capsys, "quiver", "--n", "10", "--edges", flipped.token(),
                       "--dot")
    assert code == 0 and out == qv.direct_quiver_of(flipped).to_dot()


@pytest.mark.parametrize("argv", [
    ["enumerate", "--count"],
    ["classes"],
    ["verify", "--suite", "crossing"],
    ["catalog", "build"],
], ids=lambda argv: argv[0])
def test_bound_checked_before_enumerating(capsys, monkeypatch, tmp_path, argv):
    # the CLI owns the size bound; a refusal is a data error (exit 3), like
    # n < 4, and comes before any enumeration or flip-graph walk
    _forbid_enumeration(monkeypatch)
    monkeypatch.setenv("DNCAT_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv, "--n", "10")
    assert code == 3 and out == ""
    assert err.startswith("error: n=10 above the bound 9") and "--max-n" in err
    assert len(err.splitlines()) == 1


def test_verify_honours_max_n(capsys):
    code, out, err = run(capsys, "verify", "--suite", "crossing", "--n", "10",
                         "--max-n", "10")
    assert code == 0 and out.endswith("PASS suite=crossing n=10\n")
    assert err.startswith("warning: enumeration at n=10")


def test_catalog_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "build", "--n", "4",
                       "--dir", str(tmp_path))
    assert code == 0 and "50 triangulations" in out
    code, out, _ = run(capsys, "catalog", "show", "--n", "4",
                       "--dir", str(tmp_path))
    assert code == 0 and "50 triangulations" in out
    code, _, err = run(capsys, "catalog", "show", "--n", "5",
                       "--dir", str(tmp_path))
    assert code == 3


def test_catalog_show_corrupted_exits_3(capsys, tmp_path):
    run(capsys, "catalog", "build", "--n", "4", "--dir", str(tmp_path))
    victim = tmp_path / "n=4" / "classes.jsonl"
    victim.write_text(victim.read_text().replace("p:1-3", "p:1-4"), encoding="utf-8")
    code, out, err = run(capsys, "catalog", "show", "--n", "4",
                         "--dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("error: checksum mismatch") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def _rewrite(path, edit, **fields):
    """Apply edit to the record lines of a catalog file and fields to its
    header, then fix up its header count and its checksum in meta.json."""
    header, *records = path.read_text(encoding="utf-8").splitlines()
    records = edit(records)
    header = json.dumps({**json.loads(header), **fields, "count": len(records)},
                        sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
    meta_path = path.parent / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["checksums"][path.name] = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    meta_path.write_text(json.dumps(meta), encoding="utf-8")


def _retype_first(lines):
    record = {**json.loads(lines[0]), "type": 2}
    return [json.dumps(record, sort_keys=True, separators=(",", ":")), *lines[1:]]


def _dropping(i, field, entry):
    """An edit that drops the first item of record[field][entry] on record
    line i."""
    def edit(lines):
        record = json.loads(lines[i])
        del record[field][entry][0]
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return [*lines[:i], line, *lines[i + 1:]]
    return edit


@pytest.mark.parametrize("name, edit, want", [
    ("classes.jsonl", lambda lines: lines[:-1], "9 classes, but the class count is 10"),
    ("classes.jsonl", lambda lines: lines[:-1] + lines[:1],
     "class orbit sizes sum to 52, not 50"),
    ("triangulations.jsonl", lambda lines: lines[:-1],
     "49 triangulations, but the cluster count is 50"),
    # the counts still hold on the three below
    ("triangulations.jsonl", lambda lines: lines[:1] + lines[:1] + lines[2:],
     "triangulations out of canonical order: "
     "p:1-3,p:1-4,s:1:+,s:1:- before p:1-3,p:1-4,s:1:+,s:1:-"),
    ("classes.jsonl", lambda lines: lines[2:3] + lines[1:],  # both of orbit size 4
     "class representatives out of canonical order: "
     "p:1-3,p:1-4,s:4:+,s:4:- before p:1-3,p:1-4,s:1:+,s:4:+"),
    ("classes.jsonl", _retype_first,
     "class p:1-3,p:1-4,s:1:+,s:1:- recorded as type 2, but it is of type 1"),
    # JSON true is not the integer 1, though Python's bool is an int
    ("classes.jsonl", lambda lines: [json.dumps({**json.loads(lines[0]), "type": True}),
                                     *lines[1:]],
     "classes.jsonl must be a JSON object with representative: str, orbitSize: int, "
     "type: int"),
    # a class payload that is not its template (record 3 is of type 2)
    ("classes.jsonl", _dropping(0, "quiver", "arrows"),
     "class p:1-3,p:1-4,s:1:+,s:1:- has a quiver field unlike its template's"),
    ("classes.jsonl", _dropping(3, "relations", "zeroPaths"),
     "class p:1-3,p:3-1,s:1:+,s:1:- has a relations field unlike its template's"),
    ("classes.jsonl", _dropping(3, "relations", "commutativityPairs"),
     "class p:1-3,p:3-1,s:1:+,s:1:- has a relations field unlike its template's"),
    # a triangulation line that is not a triangulation
    ("triangulations.jsonl",
     lambda lines: ['{"edges":"p:1-3,p:2-4,s:1:+,s:1:-"}', *lines[1:]],
     "edges cross: p:1-3 x p:2-4"),
    ("triangulations.jsonl",
     lambda lines: ['{"edges":"p:1-3,p:1-3,s:1:+,s:1:-"}', *lines[1:]],
     "duplicate edges in set"),
    ("triangulations.jsonl",
     lambda lines: ['{"edges":"p:1-3,zz,s:1:+,s:1:-"}', *lines[1:]],
     "malformed edge token 'zz'"),
], ids=["class-dropped", "class-repeated", "triangulation-dropped",
        "triangulation-overwritten", "class-overwritten", "class-retyped", "class-typed-true",
        "class-arrow-dropped", "class-zero-path-dropped", "class-pair-dropped",
        "triangulation-crossing", "triangulation-repeated-edge",
        "triangulation-malformed"])
def test_catalog_show_checks_the_counts(capsys, tmp_path, name, edit, want):
    run(capsys, "catalog", "build", "--n", "4", "--dir", str(tmp_path))
    _rewrite(tmp_path / "n=4" / name, edit)
    code, out, err = run(capsys, "catalog", "show", "--n", "4", "--dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err == f"error: {want}\n"


def test_catalog_show_accepts_other_json_spellings(capsys, monkeypatch, tmp_path):
    # triangulation lines that are not the writer's bytes go through the
    # full parse, one parse per line, and give the same summary
    run(capsys, "catalog", "build", "--n", "5", "--dir", str(tmp_path))
    _, want, _ = run(capsys, "catalog", "show", "--n", "5", "--dir", str(tmp_path))
    _rewrite(tmp_path / "n=5" / "triangulations.jsonl",
             lambda lines: [json.dumps(json.loads(line)) for line in lines])
    assert '{"edges": "' in (tmp_path / "n=5" / "triangulations.jsonl").read_text()
    parsed = []
    parse = tr.parse_triangulation
    monkeypatch.setattr(tr, "parse_triangulation",
                        lambda n, text: parsed.append(text) or parse(n, text))
    code, out, err = run(capsys, "catalog", "show", "--n", "5", "--dir", str(tmp_path))
    assert (code, out, err) == (0, want, "")
    assert len(parsed) == 182 + 26


@pytest.mark.parametrize("name, n", [
    ("triangulations.jsonl", 7), ("classes.jsonl", 7), ("classes.jsonl", "4"),
    ("triangulations.jsonl", None),
], ids=["triangulations", "classes", "classes-string", "triangulations-null"])
def test_catalog_show_checks_the_header_n(capsys, tmp_path, name, n):
    # a record file of another size, with its checksum fixed up
    run(capsys, "catalog", "build", "--n", "4", "--dir", str(tmp_path))
    _rewrite(tmp_path / "n=4" / name, lambda lines: lines, n=n)
    code, out, err = run(capsys, "catalog", "show", "--n", "4", "--dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err == f"error: {name} header is for n={n!r}, not n=4\n"


def test_out_file(capsys, tmp_path):
    target = tmp_path / "edges.txt"
    code, out, _ = run(capsys, "edges", "--n", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert len(target.read_text().strip().splitlines()) == 16


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


def test_unwritable_out_file_exits_3(capsys, tmp_path):
    code, out, err = run(capsys, "edges", "--n", "5", "--out", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _show_with_meta(capsys, tmp_path, text):
    run(capsys, "catalog", "build", "--n", "4", "--dir", str(tmp_path))
    (tmp_path / "n=4" / "meta.json").write_text(text, encoding="utf-8")
    return run(capsys, "catalog", "show", "--n", "4", "--dir", str(tmp_path))


def test_catalog_show_malformed_meta_exits_3(capsys, tmp_path):
    code, out, err = _show_with_meta(capsys, tmp_path, '{"version": ')
    assert code == 3 and out == ""
    assert err.startswith("error: malformed JSON in meta.json")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("meta", ['{"version": "0.1.0", "n": 4}', '{"checksums": []}'])
def test_catalog_show_meta_without_checksums_exits_3(capsys, tmp_path, meta):
    code, out, err = _show_with_meta(capsys, tmp_path, meta + "\n")
    assert code == 3 and out == ""
    assert err == "error: meta.json must be a JSON object with checksums: dict\n"
    assert len(err.splitlines()) == 1


def test_catalog_show_unknown_version_exits_3(capsys, tmp_path):
    meta = '{"checksums":{},"n":4,"version":"9.0.0"}\n'
    code, out, err = _show_with_meta(capsys, tmp_path, meta)
    assert code == 3 and out == ""
    assert err == "error: unknown catalog version '9.0.0' in meta.json (this dncat reads 0.1.0)\n"


def _drop_first_quiver_arrow(lines):
    # a class line that has lost one quiver arrow and all its zero paths
    record = json.loads(lines[0])
    record["quiver"]["arrows"] = record["quiver"]["arrows"][1:]
    record["relations"]["zeroPaths"] = []
    return [json.dumps(record, sort_keys=True, separators=(",", ":")), *lines[1:]]


@pytest.mark.parametrize("meta, edit, want", [
    ({"n": 5}, None, "meta.json is for n=5, not n=4"),
    ({"checksums": {}}, _drop_first_quiver_arrow,
     "meta.json checksums must name triangulations.jsonl and classes.jsonl, not []"),
    ({"checksums": {"classes.jsonl": None}}, None,
     "meta.json checksums must name triangulations.jsonl and classes.jsonl, "
     "not ['classes.jsonl']"),
    ({"counts": {"triangulations": 7, "classes": 1, "typeCensus": {"9": 1}}}, None,
     'meta.json counts {"classes":1,"triangulations":7,"typeCensus":{"9":1}} disagree '
     'with the files: {"classes":10,"triangulations":50,'
     '"typeCensus":{"1":6,"2":1,"3":1,"4":2}}'),
    ({"counts": None}, None,
     'meta.json counts null disagree with the files: {"classes":10,"triangulations":50,'
     '"typeCensus":{"1":6,"2":1,"3":1,"4":2}}'),
], ids=["n", "no-checksums", "one-checksum", "counts", "no-counts"])
def test_catalog_show_checks_the_meta(capsys, tmp_path, meta, edit, want):
    # every field of meta.json is read; none of them can be rewritten away
    run(capsys, "catalog", "build", "--n", "4", "--dir", str(tmp_path))
    if edit is not None:
        victim = tmp_path / "n=4" / "classes.jsonl"
        header, *records = victim.read_text(encoding="utf-8").splitlines()
        victim.write_text("\n".join([header, *edit(records)]) + "\n", encoding="utf-8")
    meta_path = tmp_path / "n=4" / "meta.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **meta}),
                         encoding="utf-8")
    code, out, err = run(capsys, "catalog", "show", "--n", "4", "--dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err == f"error: {want}\n"
