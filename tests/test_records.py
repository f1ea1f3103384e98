"""The record contract: the six result and query records are immutable named tuples.

Each record is built by keyword and checked for immutability, hashing,
pickle and deepcopy round trips, its ``repr`` and its tuple semantics.
The two validating records, ``GrassmannContext`` and ``MorphismQuery``,
check their fields on every route that builds an instance: the
constructor, unpickling, ``copy.deepcopy`` and ``_replace``.
"""

import copy
import pickle

import pytest

from schubcalc import (
    MUST_BE_CONSTANT,
    ClassificationOutcome,
    GrassmannContext,
    MdPair,
    MorphismQuery,
    SearchReport,
    VerificationReport,
)

C13 = GrassmannContext(1, 3)
PAIR = MdPair(ctx=C13, a=(1, 1), b=(2, 0))

# (record type, keyword fields, pinned repr)
RECORDS = [
    (GrassmannContext, {"k": 2, "n": 6}, "GrassmannContext(k=2, n=6)"),
    (
        MdPair,
        {"ctx": C13, "a": (1, 1), "b": (2, 0)},
        "MdPair(ctx=GrassmannContext(k=1, n=3), a=(1, 1), b=(2, 0))",
    ),
    (
        SearchReport,
        {
            "ctx": C13, "scanned_pair_count": 4, "zero_pairs": (((1, 1), (2, 0), 3),),
            "computed_egd": 2, "md_pairs": (PAIR,), "elapsed_ms": 0,
        },
        "SearchReport(ctx=GrassmannContext(k=1, n=3), scanned_pair_count=4, "
        "zero_pairs=(((1, 1), (2, 0), 3),), computed_egd=2, md_pairs=(MdPair("
        "ctx=GrassmannContext(k=1, n=3), a=(1, 1), b=(2, 0)),), elapsed_ms=0)",
    ),
    (
        VerificationReport,
        {
            "claim": "egd", "k": 1, "n": 3, "status": "pass", "counterexamples": (),
            "hypothesis_count": 4, "exceptional_pairs": (((1, 1), (2, 0)),),
        },
        "VerificationReport(claim='egd', k=1, n=3, status='pass', counterexamples=(), "
        "hypothesis_count=4, exceptional_pairs=(((1, 1), (2, 0)),))",
    ),
    (MorphismQuery, {"l": 1, "k": 2, "n": 6}, "MorphismQuery(l=1, k=2, n=6)"),
    (
        ClassificationOutcome,
        {
            "l": 1, "k": 2, "n": 6, "verdict": MUST_BE_CONSTANT, "branch": "no-md-pair",
            "details": "d", "identity": "G(1,6)",
        },
        "ClassificationOutcome(l=1, k=2, n=6, verdict='MUST_BE_CONSTANT', "
        "branch='no-md-pair', details='d', identity='G(1,6)')",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.fixture(params=RECORDS, ids=IDS)
def record(request):
    cls, fields, text = request.param
    return cls, fields, text, cls(**fields)


def test_keyword_construction_reads_back_every_field(record):
    cls, fields, _, r = record
    assert type(r) is cls
    assert {name: getattr(r, name) for name in fields} == fields


def test_fields_and_new_attributes_cannot_be_set(record):
    _, fields, _, r = record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    with pytest.raises(AttributeError):
        r.extra = 0
    assert not hasattr(r, "__dict__")
    assert {name: getattr(r, name) for name in fields} == fields


def test_equal_records_hash_equal(record):
    cls, fields, _, r = record
    twin = cls(**fields)
    assert twin is not r
    assert twin == r and hash(twin) == hash(r)


def test_pickle_and_deepcopy_round_trip(record):
    cls, _, _, r = record
    for copied in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert type(copied) is cls and copied == r and hash(copied) == hash(r)


def test_repr_is_pinned(record):
    _, _, text, r = record
    assert repr(r) == text


def test_records_are_tuples_of_their_fields(record):
    _, fields, _, r = record
    values = tuple(fields.values())
    assert r == values and tuple(r) == values and hash(r) == hash(values)
    assert r[0] == values[0] and len(r) == len(values)


def test_defaults():
    report = VerificationReport(claim="thm-md", k=2, n=6, status="pass")
    assert report[4:] == ((), 0, None)
    outcome = ClassificationOutcome(l=1, k=2, n=6, verdict=MUST_BE_CONSTANT,
                                    branch="dimension", details="d")
    assert outcome.identity is None
    assert "identity" not in outcome.to_json_dict()["reason"]


def test_contexts_sort_by_k_then_n():
    contexts = [GrassmannContext(3, 6), GrassmannContext(1, 7), GrassmannContext(1, 4),
                GrassmannContext(2, 5)]
    assert [(c.k, c.n) for c in sorted(contexts)] == [(1, 4), (1, 7), (2, 5), (3, 6)]


@pytest.mark.parametrize(
    "valid,bad,message",
    [
        (C13, (7, 3), r"invalid Grassmannian G\(7,3\)"),
        (C13, (1.5, 3), "non-integer part"),
        (MorphismQuery(1, 2, 4), (9, 1, 4), r"invalid query G\(9,4\) -> G\(1,4\)"),
        (MorphismQuery(1, 2, 4), (1, "1", 4), "non-integer part"),
    ],
    ids=["context-range", "context-float", "query-range", "query-str"],
)
def test_every_route_to_an_instance_validates(valid, bad, message):
    cls = type(valid)
    # tuple.__new__ skips the checks, standing in for a corrupted pickle.
    forged = tuple.__new__(cls, bad)
    for route in (
        lambda: cls(*bad),
        lambda: pickle.loads(pickle.dumps(forged)),
        lambda: copy.deepcopy(forged),
        lambda: cls._make(bad),
        lambda: valid._replace(**dict(zip(cls._fields, bad))),
    ):
        with pytest.raises(ValueError, match=message):
            route()


def test_validated_fields_are_plain_ints():
    ctx = GrassmannContext(True, 3)
    query = pickle.loads(pickle.dumps(MorphismQuery(True, True, 3)))
    assert ctx == (1, 3) and type(ctx.k) is int
    assert query == (1, 1, 3) and {type(v) for v in query} == {int}
