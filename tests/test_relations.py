import os
import subprocess
import sys
from pathlib import Path

import pytest

from dncat import quivers as qv
from dncat.edges import plain, spoke
from dncat.errors import ModelInconsistencyError
from dncat.quivers import direct_quiver_of
from dncat.relations import RelationSet, path_algebra_dimension, relations_of
from dncat.triangulations import (
    Triangulation,
    classify_type,
    enumerate_all,
    fan,
    pairwise_hom_matrix,
)

TYPE2_5 = [spoke(1, 1), spoke(1, -1), plain(1, 3), plain(3, 1), plain(3, 5)]
# its edge indices: 0 = p:1-3, 6 = p:3-5, 7 = p:3-1, 15 = s:1:+, 16 = s:1:-


def test_fan_has_no_relations():
    for n in (4, 5, 6):
        assert relations_of(fan(n)).is_empty()


def test_type_two_relations():
    tri = Triangulation.from_edges(
        5, [spoke(1, 1), spoke(1, -1), plain(1, 3), plain(3, 1), plain(3, 5)])
    rels = relations_of(tri)
    assert len(rels.commutativity_pairs) == 1
    left, right = rels.to_json()["commutativityPairs"][0]
    assert left == ["p:1-3", "s:1:+", "p:3-1"]
    assert right == ["p:1-3", "s:1:-", "p:3-1"]
    assert len(rels.zero_paths) == 4
    assert all(len(p) == 3 for p in rels.zero_paths)  # four length-2 paths


def test_type_three_relations():
    tri = Triangulation.from_edges(
        5, [spoke(1, 1), spoke(3, 1), plain(1, 3), plain(3, 1), plain(3, 5)])
    rels = relations_of(tri)
    assert not rels.commutativity_pairs
    assert len(rels.zero_paths) == 4
    assert all(len(p) == 4 for p in rels.zero_paths)  # length-3 central paths


def test_all_spokes_relations():
    tri = Triangulation.from_edges(5, [spoke(v, 1) for v in range(1, 6)])
    rels = relations_of(tri)
    assert not rels.commutativity_pairs
    # the cycle paths degenerate to length t-1 = 4
    assert len(rels.zero_paths) == 5
    assert all(len(p) == 5 for p in rels.zero_paths)


def test_type_four_with_junction():
    tri = Triangulation.from_edges(
        5, [spoke(1, 1), spoke(2, 1), spoke(3, 1), plain(3, 1), plain(3, 5)])
    rels = relations_of(tri)
    zero = {tuple(p) for p in rels.to_json()["zeroPaths"]}
    assert ("s:1:+", "s:2:+", "s:3:+", "s:1:+") in zero  # lap closing the junction gap
    assert ("s:2:+", "s:3:+", "s:1:+") in zero           # neighbor gap, one lap short
    assert ("s:3:+", "s:1:+", "s:2:+") in zero
    assert ("s:3:+", "s:1:+", "p:3-1") in zero           # f g around the junction
    assert ("s:1:+", "p:3-1", "s:3:+") in zero           # g h
    assert ("p:3-1", "s:3:+", "s:1:+") in zero           # h f


def test_relation_paths_are_composable():
    for n in (4, 5):
        for tri in enumerate_all(n):
            rels = relations_of(tri)
            counts = direct_quiver_of(tri).arrow_counts
            for path in rels.zero_paths:
                assert all(counts[(s, t)] for s, t in zip(path, path[1:]))
            for left, right in rels.commutativity_pairs:
                assert left[0] == right[0] and left[-1] == right[-1]


def test_relations_decompose_once(monkeypatch):
    calls = []
    decompose = qv.decompose
    monkeypatch.setattr(qv, "decompose", lambda tri: calls.append(tri) or decompose(tri))
    tri = Triangulation.from_edges(
        5, [spoke(1, 1), spoke(1, -1), plain(1, 3), plain(3, 1), plain(3, 5)])
    relations_of(tri)
    assert calls == [tri]


def test_quiver_then_relations_cut_the_triangulation_once(monkeypatch):
    # counted where the cut is computed, not at the calls to decompose
    calls = []
    cut = qv._decompose
    monkeypatch.setattr(qv, "_decompose", lambda tri: calls.append(tri) or cut(tri))
    tri = Triangulation.from_edges(5, TYPE2_5)
    q = direct_quiver_of(tri)
    rels = relations_of(tri)
    assert calls == [tri]
    # a fresh object with the same key is cut again, to equal results
    again = Triangulation(5, tri.key)
    assert direct_quiver_of(again) == q and relations_of(again) == rels
    assert len(calls) == 2 and calls[1] is again


def test_json_shape():
    tri = Triangulation.from_edges(
        5, [spoke(1, 1), spoke(1, -1), plain(1, 3), plain(3, 1), plain(3, 5)])
    payload = relations_of(tri).to_json()
    assert set(payload) == {"zeroPaths", "commutativityPairs"}
    assert payload["commutativityPairs"][0][0][0] == "p:1-3"


def test_algebra_dimension_matches_hom_total():
    # independent check of the whole presentation: the quotient of the path
    # algebra by the emitted relations must have the dimension given by the
    # crossing-number hom matrix
    for n in (4, 5, 6):
        for tri in enumerate_all(n):
            dim = path_algebra_dimension(direct_quiver_of(tri), relations_of(tri))
            assert dim == sum(map(sum, pairwise_hom_matrix(tri))), (
                tri.token(), classify_type(tri),
            )


def test_dimension_counts_a_class_once_across_lengths():
    # 1 -> 2 -> 4 commutes with 1 -> 3 -> 5 -> 4: 5 vertices, 5 arrows, the
    # paths 1-3-5 and 3-5-4 and one class of paths from 1 to 4
    q = qv.Quiver.build(range(1, 6), [(1, 2), (2, 4), (1, 3), (3, 5), (5, 4)])
    rels = RelationSet(commutativity_pairs=(((1, 2, 4), (1, 3, 5, 4)),))
    assert path_algebra_dimension(q, rels) == 13


def test_unequal_commutativity_sides_on_a_cycle_do_not_terminate():
    # (0,1,0) ~ (0,1,0,1,0) on a 2-cycle rewrites a path into ever longer
    # ones; the cap bounds the closure, so the documented error is raised.
    # A child process with a bounded address space and a timeout keeps a
    # closure that runs away from taking the test run down with it.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from dncat import quivers as qv\n"
        "from dncat.errors import ModelInconsistencyError\n"
        "from dncat.relations import RelationSet, path_algebra_dimension\n"
        "q = qv.Quiver.build([0, 1], [(0, 1), (1, 0)])\n"
        "rels = RelationSet((), (((0, 1, 0), (0, 1, 0, 1, 0)),))\n"
        "for cap in (6, None):\n"
        "    try:\n"
        "        print(path_algebra_dimension(q, rels, max_length=cap))\n"
        "    except ModelInconsistencyError as exc:\n"
        "        print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("path_algebra_dimension still running after 30 s")
    assert proc.stdout == "path algebra does not terminate; relations broken\n" * 2, proc.stderr


@pytest.mark.parametrize("zero, comm, want", [
    (((0, 15, 6),), (), "('p:1-3', 's:1:+', 'p:3-5') not composable: "
                        "missing arrow s:1:+->p:3-5"),
    ((), (((0, 15, 7), (0, 16, 6)),), "('p:1-3', 's:1:-', 'p:3-5') not composable: "
                                       "missing arrow s:1:-->p:3-5"),
    # the zero paths are checked before the commutativity sides, and a path
    # names its first missing arrow
    (((6, 0, 16, 15),), (((0, 15, 7), (0, 16, 6)),),
     "('p:3-5', 'p:1-3', 's:1:-', 's:1:+') not composable: missing arrow p:3-5->p:1-3"),
], ids=["zero", "commutativity", "first"])
def test_template_relations_name_the_first_missing_arrow(zero, comm, want, monkeypatch):
    tri = Triangulation.from_edges(5, TYPE2_5)
    dec = qv.decompose(tri)
    bad = dec._replace(zero_paths=dec.zero_paths + zero, comm_pairs=dec.comm_pairs + comm)
    monkeypatch.setattr(qv, "decompose", lambda _: bad)
    with pytest.raises(ModelInconsistencyError) as info:
        relations_of(tri)
    assert str(info.value) == f"relation path {want}"


def test_quiver_then_relations_build_the_region_arrows_once(monkeypatch):
    calls = []
    arrows = qv.region_arrows
    monkeypatch.setattr(qv, "region_arrows", lambda tri: calls.append(tri) or arrows(tri))
    tri = Triangulation.from_edges(5, TYPE2_5)
    q = direct_quiver_of(tri)
    rels = relations_of(tri)
    assert len(calls) == 1
    # a fresh object builds them again, to equal results
    again = Triangulation(5, tri.key)
    assert direct_quiver_of(again) == q and relations_of(again) == rels
    assert len(calls) == 2
