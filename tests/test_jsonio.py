"""Wire-format parsing and its failure modes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conductor.errors import InputError
from conductor.groups import GroupAutomorphism, SemidirectData
from conductor.jsonio import (
    alpha_images_from_json,
    base_field,
    dump_json,
    field_from_json,
    group_from_json,
    load_json,
    presentation_from_json,
)


def test_group_from_permutations():
    g = group_from_json({"name": "S3", "perm_gens": [[1, 0, 2], [1, 2, 0]], "degree": 3})
    assert g.order == 6 and g.name == "S3"


def test_group_from_table():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    g = group_from_json({"mult_table": table})
    assert g.order == 4
    assert g.mult(3, 2) == 1


def test_group_rejects_incomplete_input():
    with pytest.raises(InputError):
        group_from_json({"perm_gens": [[1, 0]]})  # no degree
    with pytest.raises(InputError):
        group_from_json({"degree": 3})
    with pytest.raises(InputError):
        group_from_json([1, 2, 3])


def test_alpha_images_accepts_bare_and_wrapped():
    assert alpha_images_from_json([0, 2, 1]) == [0, 2, 1]
    assert alpha_images_from_json({"alpha_images": [0, 2, 1]}) == [0, 2, 1]
    assert alpha_images_from_json({"images": [0, 2, 1]}) == [0, 2, 1]
    with pytest.raises(InputError):
        alpha_images_from_json({"wrong": []})
    with pytest.raises(InputError):
        alpha_images_from_json([0, "x"])
    with pytest.raises(InputError):
        alpha_images_from_json([0, True, 2])


def test_primes_above_2_to_64_are_input_errors():
    table = [[(i + j) % 7 for j in range(7)] for i in range(7)]
    huge = 2**64 + 13
    # the iwasawa command builds its semidirect product this way
    h = group_from_json({"mult_table": table})
    alpha = GroupAutomorphism(h, alpha_images_from_json(list(range(7))))
    with pytest.raises(InputError, match="too large"):
        SemidirectData(h, alpha, huge)
    with pytest.raises(InputError, match="too large"):
        field_from_json({"p": huge, "m": 1})


def test_permutation_degree_is_bounded():
    assert group_from_json({"perm_gens": [], "degree": 100000}).order == 1
    with pytest.raises(InputError, match="group.degree: 100001 exceeds the bound 100000"):
        group_from_json({"perm_gens": [], "degree": 100001})


def test_base_field_conductor_is_bounded():
    assert field_from_json({"p": 3, "m": 9}).m == 9
    with pytest.raises(InputError, match="base.m: 100001 exceeds the bound 100000"):
        field_from_json({"p": 3, "m": 100001}, where="base")


def test_load_json_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": [1, 2,]}')
    with pytest.raises(InputError) as err:
        load_json(str(bad))
    assert "line 1" in str(err.value)


def test_load_json_missing_file():
    with pytest.raises(InputError):
        load_json("/no/such/file.json")


def test_base_field_resolution(tmp_path):
    k = base_field("qp", 5)
    assert (k.p, k.m) == (5, 1)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"p": 3, "m": 9, "stab_gens": []}))
    k = base_field(str(path), 3)
    assert k.ramification_index == 6
    with pytest.raises(InputError):
        base_field(str(path), 5)  # wrong prime


def test_presentation_parsing():
    table = [[(i + j) % 2 for j in range(2)] for i in range(2)]
    g = group_from_json({"mult_table": table})
    obj = {"a": 1, "b": 1, "entries": [[[1, "1/2"]]]}
    pres = presentation_from_json(obj, g)
    assert pres.entries[0][0][1].denominator == 2
    with pytest.raises(InputError):
        presentation_from_json({"a": 1, "b": 1, "entries": [[[1]]]}, g)
    with pytest.raises(InputError):
        presentation_from_json({"a": 2, "b": 1, "entries": [[[1, 0]]]}, g)
    with pytest.raises(InputError):
        presentation_from_json({"a": 1, "b": 1, "entries": [[[1, "x"]]]}, g)
    with pytest.raises(InputError):
        presentation_from_json({"a": True, "b": True, "entries": [[[1, 0]]]}, g)


def test_dump_json_round_trip():
    payload = {"b": [1, 2, {"c": "x"}], "a": True}
    assert json.loads(dump_json(payload)) == payload
    assert dump_json(payload).endswith("\n")


# JSON values over the keys the loaders read, with small integers so that
# any group that parses stays tiny
KEYS = ["name", "perm_gens", "degree", "mult_table", "p", "m", "stab_gens",
        "alpha_images", "images", "a", "b", "entries"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.sampled_from(["", "x", "1/2", "3"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=16,
)
C2 = group_from_json({"mult_table": [[0, 1], [1, 0]]})
LOADERS = [
    group_from_json,
    field_from_json,
    alpha_images_from_json,
    lambda obj: presentation_from_json(obj, C2),
]


@settings(max_examples=60, deadline=None)
@given(JSON)
def test_loaders_return_a_value_or_raise_input_error(obj):
    for load in LOADERS:
        try:
            load(obj)
        except InputError:
            pass
