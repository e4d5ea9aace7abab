import math
import os
import stat

import pytest

from evidencesql.serialize import canonical_json, json_field, write_text_atomic

from reference_serialize import canonical_json as reference_canonical_json

_SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.5e-7, 2.5e-6,
    0.1234565, 1e16, math.nan, math.inf, -math.inf,
]
_SPECIAL_TEXTS = [
    "", "\x00\x1f\x7f", 'say "hi" \\ /', "ß é \U0001f600", "\ud800", "x\udfff\ud83d",
    "\u2028\u2029",
]


def test_one_walk_encoder_matches_the_two_pass_reference():
    """Every tree with string keys gives the reference's text; where the
    reference refuses the tree (a non-finite float value, an unsupported
    value or an int too long to print), the encoder raises a ValueError or
    a TypeError for the first fault in its walk."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(_SPECIAL_FLOATS))
    texts = st.one_of(st.text(st.characters(exclude_categories=()), max_size=8),
                      st.sampled_from(_SPECIAL_TEXTS))
    ints = st.one_of(st.integers(), st.integers(min_value=-10**40, max_value=10**40),
                     st.just(4300).map(lambda digits: 10**digits))
    leaves = st.one_of(
        texts, floats, ints, st.booleans(), st.none(),
        st.sampled_from([b"bytes", 1j, frozenset({1})]),
    )

    def containers(children):
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.lists(st.tuples(texts, children), max_size=4).map(dict),
        )

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.recursive(leaves, containers, max_leaves=10))
    def check(obj):
        try:
            expected = reference_canonical_json(obj)
        except (ValueError, TypeError):
            with pytest.raises((ValueError, TypeError)):
                canonical_json(obj)
        else:
            assert canonical_json(obj) == expected

    check()


@pytest.mark.parametrize("obj", [
    {"a": [1, {}], "b": []},
    {"1.5": "x", "NaN": 1, "-Infinity": 2, "true": None,
     "100000000000000000000": [0.1234565, -0.0]},
    {"null": 1.0000005},
    ("tuple", 2.5e-7, {"ß": " \ud800"}),
    3.0,
])
def test_canonical_json_matches_reference(obj):
    assert canonical_json(obj) == reference_canonical_json(obj)


@pytest.mark.parametrize("obj", [
    {10**20: [0.1234565, -0.0]},
    {1.5: "x"},
    {math.nan: 1},
    {True: None},
    {None: 1.0000005},
    {(1, 2): 1},
    {"a": 1, 2: "b"},
], ids=["int", "float", "nan", "bool", "none", "tuple", "mixed"])
def test_canonical_json_refuses_a_key_that_is_not_a_string(obj):
    with pytest.raises(TypeError):
        canonical_json(obj)


@pytest.mark.parametrize("obj, error", [
    ({"b": math.nan}, ValueError),
    ({"a": {1, 2}}, TypeError),
    ({"a": 1, 2: "b"}, TypeError),
    ({(1, 2): 1}, TypeError),
    ([10**4300], ValueError),
    ([math.inf], ValueError),
])
def test_canonical_json_rejects_what_the_reference_rejects(obj, error):
    with pytest.raises(error):
        reference_canonical_json(obj)
    with pytest.raises(error):
        canonical_json(obj)


@pytest.mark.parametrize("value, kind, nullable, message", [
    (None, str, False, "x must be a string, not NoneType"),
    (5, str, True, "x must be a string or null, not int"),
    (True, float, False, "x must be a number, not bool"),
    ("2", float, False, "x must be a number, not str"),
    ("ab", list, False, "x must be a JSON list, not str"),
    (True, int, False, "x must be an integer, not bool"),
    (1.5, int, False, "x must be an integer, not float"),
    ("2", int, True, "x must be an integer or null, not str"),
])
def test_json_field_rejects_a_wrong_type_instead_of_coercing(value, kind, nullable, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        json_field(value, "x", kind, nullable)



def test_json_field_returns_a_number_as_a_float_and_an_integer_as_is():
    assert type(json_field(2, "x", float)) is float and json_field(2, "x", float) == 2.0
    assert type(json_field(2, "x", int)) is int
    assert json_field(None, "x", int, nullable=True) is None


def test_write_text_atomic_removes_its_temp_file_after_a_failed_write(tmp_path):
    target = tmp_path / "out" / "report.md"
    write_text_atomic(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(target, "half \ud800 written")  # a lone surrogate has no UTF-8
    assert sorted(p.name for p in target.parent.iterdir()) == ["report.md"]
    assert target.read_text(encoding="utf-8") == "old\n"


def test_write_text_atomic_gives_mode_0600_as_mkstemp_does(tmp_path):
    """An artifact, new or replaced, has the mode ``tempfile.mkstemp``
    gives its file under the same umask, 0600 under 022, and no temp file
    is left beside it."""
    import tempfile

    old_umask = os.umask(0o022)
    try:
        fd, reference = tempfile.mkstemp(dir=tmp_path)
        os.close(fd)
        target = tmp_path / "out" / "report.json"
        write_text_atomic(target, "new\n")
        new_mode = stat.S_IMODE(target.stat().st_mode)
        write_text_atomic(target, "replaced\n")
        replaced_mode = stat.S_IMODE(target.stat().st_mode)
    finally:
        os.umask(old_umask)
    assert new_mode == replaced_mode == stat.S_IMODE(os.stat(reference).st_mode) == 0o600
    assert [p.name for p in target.parent.iterdir()] == ["report.json"]
    assert target.read_text(encoding="utf-8") == "replaced\n"
