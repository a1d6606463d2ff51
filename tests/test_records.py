"""Record semantics of the immutable result and spec classes.

Each record keeps its field names and order, positional and keyword
construction, equality within its class, hashing, its repr, pickling and
copying, and refuses assignment and deletion.  The expected reprs were
taken from the frozen-dataclass versions these classes replaced.
"""

import copy
import pickle

import pytest

from eulab.bounds import (
    BoundReport, PrimeConstant, RefinementTrace, RhoConstants, SplitRecord,
    c_constants,
)
from eulab.core import EInt
from eulab.factor import (
    EFactorization, RationalFactorization, factor_e, factor_rational,
)
from eulab.polyprod import IndependenceReport, SparsePolySpec, VectorSet
from eulab.search import SearchResult


def _trace(checks, sector=0):
    return RefinementTrace(
        "t1", None, (EInt(1, 0),), sector, ((EInt(1, 0),),),
        (SplitRecord(EInt(2, 0), "uv", (1, 0), 0),), checks)


# (class, field names in order, factory of an instance, a different
#  instance of the same class, the instance's repr)
CASES = [
    (RationalFactorization, ("sign", "factors"),
     lambda: factor_rational(-360),
     lambda: factor_rational(360),
     "RationalFactorization(sign=-1, factors=((2, 3), (3, 2), (5, 1)))"),
    (EFactorization, ("unit", "factors"),
     lambda: factor_e(EInt(3, 0)),
     lambda: factor_e(EInt(7, 0)),
     "EFactorization(unit=EInt(0, -1), factors=((EInt(2, 1), 2),))"),
    (SearchResult,
     ("k", "max_element", "primitive_only", "all_witnesses", "minimum",
      "witness_count", "witnesses", "nodes_visited", "seconds"),
     lambda: SearchResult(3, 10, True, False, 2, 1, ((1, 2, 3),), 17, 0.5),
     lambda: SearchResult(3, 10, True, False, 2, 1, ((1, 2, 3),), 18, 0.5),
     "SearchResult(k=3, max_element=10, primitive_only=True, "
     "all_witnesses=False, minimum=2, witness_count=1, "
     "witnesses=((1, 2, 3),), nodes_visited=17, seconds=0.5)"),
    (PrimeConstant, ("pi", "gamma", "delta", "c"),
     lambda: c_constants(EInt(2, 1)).primes[0],
     lambda: c_constants(EInt(2, 1)).primes[1],
     "PrimeConstant(pi=EInt(2, 1), gamma=1, delta=0, c=1)"),
    (RhoConstants,
     ("rho", "primes", "c_rho", "tau", "threshold", "bound_constant"),
     lambda: c_constants(EInt(2, 1)),
     lambda: c_constants(EInt(-2, -1)),
     "RhoConstants(rho=EInt(2, 1), primes=(PrimeConstant(pi=EInt(2, 1), "
     "gamma=1, delta=0, c=1), PrimeConstant(pi=EInt(3, 1), gamma=0, "
     "delta=1, c=1)), c_rho=EInt(5, 4), tau=24, threshold=578, "
     "bound_constant=5.788733599896589)"),
    (BoundReport,
     ("theorem", "rho", "seed", "elements", "omega", "bound", "comparison",
      "passed", "flagged_zero_factor", "witness_primes"),
     lambda: BoundReport("t1", None, 7, (EInt(1, 0), EInt(2, 0)), 1, 0.5,
                         ">", True, False, (EInt(2, 0),)),
     lambda: BoundReport("t1", None, 7, (EInt(1, 0), EInt(2, 0)), 1, 0.5,
                         ">", False, False, (EInt(2, 0),)),
     "BoundReport(theorem='t1', rho=None, seed=7, elements=(EInt(1, 0), "
     "EInt(2, 0)), omega=1, bound=0.5, comparison='>', passed=True, "
     "flagged_zero_factor=False, witness_primes=(EInt(2, 0),))"),
    (IndependenceReport,
     ("independent", "dimension", "subsets_checked", "singular_subset"),
     lambda: IndependenceReport(False, 2, 3, ((1, 2), (2, 4))),
     lambda: IndependenceReport(True, 2, 3, None),
     "IndependenceReport(independent=False, dimension=2, subsets_checked=3, "
     "singular_subset=((1, 2), (2, 4)))"),
    (SparsePolySpec, ("n", "r", "m"),
     lambda: SparsePolySpec(2, (1, 3), (2,)),
     lambda: SparsePolySpec(2, (1, 3), (1,)),
     "SparsePolySpec(n=2, r=(1, 3), m=(2,))"),
    (VectorSet, ("dimension", "vectors"),
     lambda: VectorSet(2, ((1, 2), (3, 4))),
     lambda: VectorSet(2, ((1, 2),)),
     "VectorSet(dimension=2, vectors=((1, 2), (3, 4)))"),
    (RefinementTrace,
     ("mode", "rho", "initial", "sector", "snapshots", "steps", "checks"),
     lambda: _trace({"ok": True}),
     lambda: _trace({"ok": True}, sector=1),
     "RefinementTrace(mode='t1', rho=None, initial=(EInt(1, 0),), sector=0, "
     "snapshots=((EInt(1, 0),),), steps=(SplitRecord(prime=EInt(2, 0), "
     "rule='uv', sizes=(1, 0), kept=0),), checks={'ok': True})"),
]
IDS = [case[0].__name__ for case in CASES]


def _values(record, names):
    return [getattr(record, name) for name in names]


@pytest.mark.parametrize("cls, names, make, other, text", CASES, ids=IDS)
class TestRecord:
    def test_repr(self, cls, names, make, other, text):
        assert repr(make()) == text

    def test_positional_and_keyword_construction(self, cls, names, make,
                                                 other, text):
        record = make()
        values = _values(record, names)
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert type(by_position) is type(by_keyword) is cls
        assert by_position == record and by_keyword == record
        assert repr(by_keyword) == text

    def test_equality_and_hash(self, cls, names, make, other, text):
        record, same, different = make(), cls(*_values(make(), names)), other()
        assert record == same and not record != same
        assert hash(record) == hash(same)
        assert record != different and not record == different
        # the hash of the tuple of compared fields, as the dataclass had
        compared = [n for n in names if n != "checks"]
        assert hash(record) == hash(tuple(_values(record, compared)))
        assert hash(different) == hash(tuple(_values(different, compared)))

    def test_assignment_and_deletion_refused(self, cls, names, make, other,
                                             text):
        record = make()
        for name in (names[0], names[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
        for name in (names[0], names[-1]):
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text

    def test_pickle_and_deepcopy_round_trip(self, cls, names, make, other,
                                            text):
        record = make()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is cls and back == record, protocol
            assert repr(back) == text, protocol
        back = copy.deepcopy(record)
        assert type(back) is cls and back == record and repr(back) == text
        assert copy.copy(record) == record


def test_trace_equality_ignores_checks():
    a, b = _trace({"ok": True}), _trace({"ok": False, "pairs": 3})
    assert a == b and hash(a) == hash(b)
    assert a.checks != b.checks


def test_spec_stores_tuples():
    spec = SparsePolySpec(3, [1, 2, 3], [4, 5])
    assert spec.r == (1, 2, 3) and type(spec.r) is tuple
    assert spec.m == (4, 5) and type(spec.m) is tuple
    assert spec == SparsePolySpec(3, (1, 2, 3), (4, 5))
    assert hash(spec) == hash(SparsePolySpec(n=3, r=(1, 2, 3), m=(4, 5)))


@pytest.mark.parametrize("n, r, m, message", [
    (2.0, (1, 1), (1,), "n must be an integer"),
    (True, (1,), (), "n must be an integer"),
    (1, (1,), (), "n must be at least 2"),
    (2, (1.5, 1), (1,), "coefficients and exponents must be integers"),
    (2, (1, 1), (True,), "coefficients and exponents must be integers"),
    (3, (1, 1), (2, 1), "expected 3 coefficients"),
    (3, (1, 1, 1), (2,), "expected 2 exponents"),
    (3, (1, 0, 1), (2, 1), "coefficients must be positive"),
    (3, (1, 1, 1), (2, -1), "exponents must be nonnegative"),
])
def test_spec_validation_messages(n, r, m, message):
    with pytest.raises(ValueError) as info:
        SparsePolySpec(n, r, m)
    assert str(info.value) == message


def test_vector_set_length_and_validation():
    assert len(VectorSet(2, ((1, 2), (3, 4), (5, 6)))) == 3
    assert len(VectorSet(4, ())) == 0
    with pytest.raises(ValueError) as info:
        VectorSet(3, ((1, 2),))
    assert str(info.value) == "vector length differs from the dimension"


def test_independence_report_truth():
    assert IndependenceReport(True, 2, 3, None)
    assert not IndependenceReport(False, 2, 3, ((1, 2), (2, 4)))
