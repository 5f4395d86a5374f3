"""The contract every value type keeps: equality and hashing by fields,
immutability, a field-wise repr, pickling and copying, and validation."""

import copy
import pickle

import pytest

from gf2bup import (
    BupRecord, CandidateTuple, Factorization, Gf2Poly, MersenneForm,
    PrimePower, X, X1, catalog, enumerate_mersenne_primes,
    exhaustive_low_degree_scan, odd_exponent_form, parse, power,
)
from gf2bup.bup_search import CaseSearchResult


def _fields_of(record):
    return (record.poly, record.factorization, record.candidate,
            record.case_tag, record.conjugate_class, record.catalog_index)


# Per type: the fields of a value, the fields of a different value, the
# value's repr, and arguments the type rejects with the error each raises.
CASES = {
    Factorization: (
        (((X, 3), (X1, 4)),), (((X, 3),),),
        "Factorization(factors=((Gf2Poly('x'), 3), (Gf2Poly('x+1'), 4)))",
        []),
    PrimePower: (
        (X, 2), (X, 3), "PrimePower(base=Gf2Poly('x'), exp=2)",
        [((parse("x^2+1"), 2), ValueError), ((X, -1), ValueError),
         ((Gf2Poly(0), 1), ValueError)]),
    MersenneForm: (
        (1, 2), (2, 1), "MersenneForm(a=1, b=2)",
        [((2, 2), ValueError), ((0, 1), ValueError), ((1, 0), ValueError)]),
    CandidateTuple: (
        (3, 4, (1, 0, 0, 0, 0)), (4, 3, (1, 0, 0, 0, 0)),
        "CandidateTuple(a=3, b=4, h=(1, 0, 0, 0, 0))",
        [((-1, 0, (0, 0, 0, 0, 0)), ValueError),
         ((0, 0, (0, 0, 0, 0)), ValueError),
         ((0, 0, (0, 0, 0, 0, -1)), ValueError),
         ((2, 2, (0, 1, 2, 0, 0)), ValueError)]),
    BupRecord: (
        _fields_of(catalog()[0]), _fields_of(catalog()[1]),
        "BupRecord(poly=Gf2Poly('x^9+x^8+x^7+x^5+x^4+x^3'), "
        "factorization=Factorization(factors=((Gf2Poly('x'), 3), "
        "(Gf2Poly('x+1'), 4), (Gf2Poly('x^2+x+1'), 1))), "
        "candidate=CandidateTuple(a=3, b=4, h=(1, 0, 0, 0, 0)), "
        "case_tag='odd-even', conjugate_class='C1', catalog_index=1)",
        []),
    CaseSearchResult: (
        ("even-even", (), 35000, 0.5), ("even-even", (), 35000, 0.25),
        "CaseSearchResult(case_tag='even-even', records=(), "
        "candidate_count=35000, seconds=0.5)",
        []),
}


# Per type: the fields of two different values and the repr of the first,
# for a subclass of the type that declares __slots__ = ()
SLOTLESS_CASES = [(cls, fields, other, "Sub" + text)
                  for cls, (fields, other, text, _) in CASES.items()]
SLOTLESS_CASES.append((Gf2Poly, (5,), (6,), "SubGf2Poly('x^2+1')"))


@pytest.mark.parametrize("cls, fields, other_fields, text", SLOTLESS_CASES,
                         ids=[case[0].__name__ for case in SLOTLESS_CASES])
def test_a_slotless_subclass_keeps_the_fields(cls, fields, other_fields,
                                              text):
    # the fields come from every class in the MRO, not the subclass's
    # empty __slots__
    subclass = type("Sub" + cls.__name__, (cls,), {"__slots__": ()})
    value, other = subclass(*fields), subclass(*other_fields)
    assert value != other and len({value, other}) == 2
    assert repr(value) == text != repr(other)
    for twin in (copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is subclass
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


class TestFieldTypes:
    def test_exponents_must_be_ints(self):
        # a float or bool exponent would be built and then misbehave, as
        # expand() does on a float
        for args in ((3.0, 4, (1, 0, 0, 0, 0)), (True, 4, (1, 0, 0, 0, 0)),
                     (3, 4, (1, 0, 0, 0, 1.0)), (3, 4, (1, 0, 0, False, 0))):
            with pytest.raises(TypeError):
                CandidateTuple(*args)
        for args in ((True, 2), (1, 2.0)):
            with pytest.raises(TypeError):
                MersenneForm(*args)
        for exp in (2.0, True):
            with pytest.raises(TypeError):
                PrimePower(X, exp)
            with pytest.raises(TypeError):
                X ** exp
            with pytest.raises(TypeError):
                power(X, exp)
        # an odd exponent, or a degree bound, is refused the same way
        for f, bad in ((odd_exponent_form, (True, 3.0)),
                       (exhaustive_low_degree_scan, (True, 4.0)),
                       (enumerate_mersenne_primes, (True, 4.0))):
            for arg in bad:
                with pytest.raises(TypeError, match="^expected an int"):
                    f(arg)

    def test_factorization_from_a_list_hashes_and_compares_as_a_tuple(self):
        listed = Factorization([(X, 3), (X1, 4)])
        tupled = Factorization(((X, 3), (X1, 4)))
        assert listed.factors == ((X, 3), (X1, 4))
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert {listed, tupled} == {tupled}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
class TestValueTypeContract:
    def test_equal_fields_give_equal_values_and_hashes(self, cls):
        fields, other_fields, _, _ = CASES[cls]
        value, twin = cls(*fields), cls(*fields)
        assert value is not twin
        assert value == twin and hash(value) == hash(twin)
        assert {value, twin} == {value}
        assert value != cls(*other_fields)

    def test_another_class_never_compares_equal(self, cls):
        fields = CASES[cls][0]
        value = cls(*fields)
        subclass = type("Sub" + cls.__name__, (cls,), {"__slots__": ()})
        others = [subclass(*fields), fields, None, Gf2Poly(3)]
        others += [other(*CASES[other][0]) for other in CASES
                   if other is not cls]
        for other in others:
            assert value.__eq__(other) is NotImplemented
            assert value != other and not value == other

    def test_attributes_cannot_be_set_or_deleted(self, cls):
        fields = CASES[cls][0]
        value = cls(*fields)
        for name in cls.__slots__ + ("extra",):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(value, name, 0)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
        assert value == cls(*fields)

    def test_repr_names_every_field(self, cls):
        fields, _, expected, _ = CASES[cls]
        assert repr(cls(*fields)) == expected

    def test_pickle_and_copy_round_trip(self, cls):
        value = cls(*CASES[cls][0])
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is cls
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)

    def test_invalid_fields_rejected(self, cls):
        for args, error in CASES[cls][3]:
            with pytest.raises(error):
                cls(*args)
