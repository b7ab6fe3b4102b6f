"""The immutable value classes: repr, equality, hashing, frozenness, copying and pickling.

The reprs are pinned to the frozen-dataclass form, and a value hashes as the
tuple of its field values does, so printed values, sets and dict keys stay
the same.
"""

import copy
import pickle

import pytest

from posetmatrix.bmatrix import BoolMatrix, Permutation
from posetmatrix.domination import domination_orbit
from posetmatrix.enumeration import classify_index_vectors
from posetmatrix.posetcore import PosetMatrix, validate

M = BoolMatrix(3, (1, 3, 5))
CANON_2 = PosetMatrix(BoolMatrix(2, (1, 2)))

# (value, its repr, its field values in order, keyword arguments that build it again)
CASES = [
    (M, "BoolMatrix(n=3, rows=(1, 3, 5))", (3, (1, 3, 5)), {"n": 3, "rows": [1, 3, 5]}),
    (BoolMatrix(0, ()), "BoolMatrix(n=0, rows=())", (0, ()), {"n": 0, "rows": ()}),
    (Permutation((2, 0, 1)), "Permutation(mapping=(2, 0, 1))", ((2, 0, 1),), {"mapping": [2, 0, 1]}),
    (
        validate(M),
        "PosetMatrix(matrix=BoolMatrix(n=3, rows=(1, 3, 5)))",
        (M,),
        {"matrix": BoolMatrix(3, (1, 3, 5))},
    ),
    (
        domination_orbit((1, 2), 2),
        "OrbitResult(alpha=(1, 2), n=2, members=((1, 2),), exhausted=True, states_visited=1)",
        ((1, 2), 2, ((1, 2),), True, 1),
        {"alpha": (1, 2), "n": 2, "members": ((1, 2),), "exhausted": True, "states_visited": 1},
    ),
    (
        classify_index_vectors(2)[0],
        "ClassReport(n=2, canonical=PosetMatrix(matrix=BoolMatrix(n=2, rows=(1, 2))), class_size_labelled=1,"
        " index_vector_count=1, sample_index_vectors=((1, 2),))",
        (2, CANON_2, 1, 1, ((1, 2),)),
        {
            "n": 2,
            "canonical": CANON_2,
            "class_size_labelled": 1,
            "index_vector_count": 1,
            "sample_index_vectors": ((1, 2),),
        },
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, text, fields, kwargs", CASES, ids=IDS)
def test_repr_is_pinned(value, text, fields, kwargs):
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields, kwargs", CASES, ids=IDS)
def test_keyword_construction_equals_and_hashes_alike(value, text, fields, kwargs):
    again = type(value)(**kwargs)
    assert again == value and not again != value
    assert hash(again) == hash(value) == hash(fields)
    assert len({value, again}) == 1
    assert {value: "a"}[again] == "a"


@pytest.mark.parametrize("value, text, fields, kwargs", CASES, ids=IDS)
def test_other_classes_are_never_equal(value, text, fields, kwargs):
    others = [fields, fields[0] if len(fields) == 1 else fields[1:], None, 0]
    for other in others + [case[0] for case in CASES if type(case[0]) is not type(value)]:
        assert value != other and not value == other
        assert value.__eq__(other) is NotImplemented
    assert len({value, fields}) == 2  # equal hashes, still two members


def test_differing_fields_are_unequal():
    assert BoolMatrix(3, (1, 3, 5)) != BoolMatrix(3, (1, 3, 7))
    assert Permutation((0, 1)) != Permutation((1, 0))
    assert validate(M) != validate(BoolMatrix(3, (1, 2, 4)))
    assert domination_orbit((1, 2), 2) != domination_orbit((1, 2), 2, budget=0)
    first, second = classify_index_vectors(2)[:2]
    assert first != second


@pytest.mark.parametrize("value, text, fields, kwargs", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value, text, fields, kwargs):
    for name in [*kwargs, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value, text, fields, kwargs", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(value, text, fields, kwargs):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value) and repr(other) == text
