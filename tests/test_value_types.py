"""Value semantics of the package's value types, which are slotted named
tuples: equal values are equal and hash alike (as the tuple of their
fields), the repr text is fixed, attributes cannot be set, and a pickle
round trip (what `--jobs` workers send) returns an equal value of the
same type."""

import pickle

import pytest

from dncat import arquiver as ar
from dncat import catalog as ca
from dncat import edges as ed
from dncat import quivers as qv
from dncat import relations as rl
from dncat import triangulations as tr
from dncat import verify as vf

TYPE2_5 = "p:1-3,p:3-5,p:3-1,s:1:+,s:1:-"


def _alphabet():
    e = ed.TaggedEdge(1, 3)
    return ed.Alphabet((e,), {e: 0}, ("p:1-3",), {"p:1-3": 0}, (b"\x00",), (0,), (0,),
                       (0,), (0,), ("connected",))


# each case: a builder called twice for two equal, separately built values,
# and the value's repr
CASES = {
    "TaggedEdge": (lambda: ed.TaggedEdge(1, 3), "TaggedEdge[p:1-3]"),
    "TaggedEdge spoke": (lambda: ed.spoke(2, -1), "TaggedEdge[s:2:-]"),
    "Alphabet": (_alphabet,
                 "Alphabet(edges=(TaggedEdge[p:1-3],), index={TaggedEdge[p:1-3]: 0}, "
                 "tokens=('p:1-3',), by_token={'p:1-3': 0}, cross=(b'\\x00',), masks=(0,), "
                 "tau=(0,), tau_inv=(0,), sigma=(0,), kind=('connected',))"),
    "Triangulation": (lambda: tr.parse_triangulation(4, "p:1-3,p:1-4,s:1:+,s:1:-"),
                      "Triangulation[n=4: p:1-3,p:1-4,s:1:+,s:1:-]"),
    "TriangulationClass": (
        lambda: tr.TriangulationClass(tr.fan(4), 4, 1),
        "TriangulationClass(representative=Triangulation[n=4: p:1-3,p:1-4,s:1:+,s:1:-], "
        "orbit_size=4, type=1)"),
    "Quiver": (lambda: qv.Quiver.build((1, 2), [(1, 2)]), "Quiver(2 vertices, 1 arrows)"),
    "Decomposition": (
        lambda: qv._decompose(tr.parse_triangulation(5, TYPE2_5)),
        "Decomposition(triangles=((None, None, 0), (6, None, 7), (None, None, 6)), "
        "arrows=((0, 15), (15, 7), (0, 16), (16, 7), (7, 0), (6, 7)), "
        "zero_paths=((7, 0, 15), (15, 7, 0), (7, 0, 16), (16, 7, 0)), "
        "comm_pairs=(((0, 15, 7), (0, 16, 7)),))"),
    "RelationSet": (lambda: rl.relations_of(tr.parse_triangulation(5, TYPE2_5)),
                    "RelationSet(zero_paths=((7, 0, 15), (15, 7, 0), (7, 0, 16), (16, 7, 0)), "
                    "commutativity_pairs=(((0, 15, 7), (0, 16, 7)),), n=5)"),
    "Catalog": (lambda: ca.Catalog(4, 50, {"1": 2}), "Catalog(n=4, count=50, census={'1': 2})"),
    "SuiteReport": (lambda: vf.SuiteReport("crossing", 4, [("rule", [])]),
                    "SuiteReport(suite='crossing', n=4, checks=[('rule', [])])"),
    "ARVertex": (lambda: ar.ARVertex(0, 1), "ARVertex[t:0:1]"),
    "ARQuiver": (lambda: ar.ARQuiver(4, ((ar.ARVertex(0, 1), ar.ARVertex(0, 2)),)),
                 "ARQuiver(n=4, arrows=((ARVertex[t:0:1], ARVertex[t:0:2]),))"),
}


@pytest.mark.parametrize("case", CASES)
def test_value_semantics(case):
    build, text = CASES[case]
    value, other = build(), build()
    assert value is not other and value == other and not value != other
    fields = tuple(getattr(value, name) for name in type(value)._fields)
    assert tuple(value) == fields  # equal to the plain tuple of its fields
    try:
        assert hash(value) == hash(other) == hash(fields)
    except TypeError:  # a dict or list field: unhashable, as the fields are
        with pytest.raises(TypeError):
            hash(fields)
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None  # no instance dictionary
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value and repr(back) == text


def test_defaults():
    assert ed.TaggedEdge(1, 3) == ed.TaggedEdge(1, 3, 1) and ed.TaggedEdge(1, 3).tag == 1
    assert qv.Quiver((1,), ()).n is None
    empty = rl.RelationSet()
    assert (empty.zero_paths, empty.commutativity_pairs, empty.n) == ((), (), None)
    assert empty == rl.RelationSet((), (), None)
