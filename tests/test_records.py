"""The record contract: the eight records are immutable named tuples whose
constructor checks hold on every route to an instance."""

import pickle

import pytest

import circulant_ci
from circulant_ci import (
    ClassificationReport,
    ConnectionSet,
    CiVerdict,
    DomainError,
    IsoVerdict,
    decide_ci,
    factorize,
    key_of_set,
    m_property,
    muzychuk_isomorphic,
    solving_set,
    witnesses,
)

S = ConnectionSet(8, (1, 2, 5))
K = key_of_set(S)

# one instance of each record; the report carries two counterexamples
RECORDS = {
    "Factorization": factorize(72),
    "ConnectionSet": S,
    "Key": K,
    "GenuineMultiplier": next(iter(solving_set(K))),
    "IsoVerdict": muzychuk_isomorphic(S, ConnectionSet(8, (2, 3, 7))),
    "CiVerdict": decide_ci(S),
    "ClassificationReport": m_property(8, 3),
    "WitnessFamily": witnesses(8)[0],
}

# a field of each validated record, a value its constructor refuses, and
# the refusal
INVALID = {
    "Factorization": ("parts", ((2, 3),), "multiply to 8, not 72"),
    "ConnectionSet": ("members", (0,), "0 is excluded"),
    "Key": ("rows", ((0, 1, 0),), "nondecreasing"),
    "GenuineMultiplier": ("rows", ((2, 1, 1),), "genuine range"),
}


def test_the_records_are_the_exported_tuple_types():
    exported = {
        name
        for name in circulant_ci.__all__
        if isinstance(getattr(circulant_ci, name), type)
        and issubclass(getattr(circulant_ci, name), tuple)
    }
    assert exported == set(RECORDS)
    assert all(type(r).__name__ == name for name, r in RECORDS.items())


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_without_dict(name):
    record = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field(name):
    record = RECORDS[name]
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"


def test_repr_keeps_the_keyword_form():
    assert repr(S) == "ConnectionSet(n=8, members=(1, 2, 5), mode='digraph')"
    assert repr(CiVerdict(True)) == "CiVerdict(is_ci=True, witness=None, fast_path='none')"


@pytest.mark.parametrize("name", RECORDS)
def test_records_equal_the_plain_tuple_of_their_fields(name):
    # a decision: records iterate over their fields and compare as tuples
    record = RECORDS[name]
    plain = tuple(getattr(record, f) for f in record._fields)
    assert tuple(record) == plain
    assert record == plain and hash(record) == hash(plain)


def test_records_of_different_types_compare_by_fields():
    assert S == (8, (1, 2, 5), "digraph")
    assert IsoVerdict(True, None, "none") == CiVerdict(True, None, "none")


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record = RECORDS[name]
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)
    assert repr(back) == repr(record)


def test_report_round_trip_keeps_its_counterexamples():
    # the --workers path: reports come back from the workers pickled
    report = RECORDS["ClassificationReport"]
    assert len(report.counterexamples) == 2
    back = pickle.loads(pickle.dumps(report))
    assert [[type(s) for s in pair] for pair in back.counterexamples] == [
        [ConnectionSet, ConnectionSet]
    ] * 2


def test_unpickling_reruns_the_constructor_checks():
    # an instance built past __new__ is refused when it is loaded again
    bad = tuple.__new__(ConnectionSet, (8, (0,), "digraph"))
    with pytest.raises(DomainError, match="0 is excluded"):
        pickle.loads(pickle.dumps(bad))
    report = ClassificationReport(8, 1, "digraph", False, ((bad, S),), None, None)
    with pytest.raises(DomainError, match="0 is excluded"):
        pickle.loads(pickle.dumps(report))


@pytest.mark.parametrize("name", INVALID)
def test_make_and_replace_run_the_constructor_checks(name):
    record = RECORDS[name]
    field, value, message = INVALID[name]
    with pytest.raises(DomainError, match=message):
        record._replace(**{field: value})
    fields = [value if f == field else getattr(record, f) for f in record._fields]
    with pytest.raises(DomainError, match=message):
        type(record)._make(fields)
    assert record._replace() == record and type(record._replace()) is type(record)
