import math
import os
import random
import stat
import struct
from collections import Counter

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


_UNSUPPORTED = (b"bytes", 1j, frozenset({1}))
_TOO_LONG = 10 ** 4300  # an int too long to print
# Kinds of value in a tree that the reference refuses to encode.
_FAULTS = {"non-finite", "long int", "unsupported"}
# Code point ranges a text's characters are drawn from, each equally often:
# printable ASCII, C0 controls, DEL and Latin-1, the rest of the BMP, lone
# surrogates, and astral characters.
_CHAR_RANGES = ((0x20, 0x7f), (0, 0x20), (0x7f, 0x100), (0x100, 0x10000), (0xd800, 0xe000),
                (0x10000, 0x110000))


def _random_text(rng):
    if rng.random() < 0.2:
        return rng.choice(_SPECIAL_TEXTS)
    return "".join(chr(rng.randrange(*rng.choice(_CHAR_RANGES))) for _ in range(rng.randrange(9)))


def _random_float(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return rng.choice(_SPECIAL_FLOATS)
    if pick == 1:  # any bit pattern: subnormals, huge magnitudes, now and then a NaN
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    if pick == 2:  # seven decimals, so often a tie at the six kept
        return rng.randrange(-10 ** 7, 10 ** 7) / 10 ** 7
    return rng.uniform(-1e6, 1e6)


def _random_int(rng):
    pick = rng.randrange(8)
    if pick == 0:
        return _TOO_LONG
    if pick < 3:
        return rng.randint(-10 ** 40, 10 ** 40)
    if pick < 5:
        return rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 200))
    return rng.randint(-1000, 1000)


def _random_leaf(rng):
    kind = rng.randrange(12)
    if kind < 3:
        return _random_text(rng)
    if kind < 6:
        return _random_float(rng)
    if kind < 9:
        return _random_int(rng)
    if kind == 9:
        return rng.random() < 0.5
    return None if kind == 10 else rng.choice(_UNSUPPORTED)


def _random_tree(rng, leaves, depth=0):
    """A tree of lists, tuples, dicts with text keys and leaves, taking at
    most ``leaves[0]`` leaves and counting them off."""
    if leaves[0] == 1 or depth == 5 or rng.random() < 0.3:
        leaves[0] -= 1
        return _random_leaf(rng)
    kind = rng.randrange(3)
    children = [_random_tree(rng, leaves, depth + 1)
                for _ in range(rng.randrange(5)) if leaves[0]]
    if kind == 0:
        return {_random_text(rng): child for child in children}
    return children if kind == 1 else tuple(children)


def _kinds(obj, seen):
    """Add the kind of ``obj`` and of each value in it to ``seen``."""
    if isinstance(obj, (list, tuple, dict)):
        seen.add(type(obj).__name__)
        for child in obj.values() if isinstance(obj, dict) else obj:
            _kinds(child, seen)
    elif isinstance(obj, str):
        seen.add("text")
    elif obj is None or isinstance(obj, bool):
        seen.add(repr(obj))
    elif isinstance(obj, int):
        seen.add("long int" if obj is _TOO_LONG else "int")
    elif isinstance(obj, float):
        seen.add("float" if math.isfinite(obj) else "non-finite")
    else:
        seen.add("unsupported")


def test_one_walk_encoder_matches_the_two_pass_reference():
    """Every tree with string keys gives the reference's text; where the
    reference refuses the tree (a non-finite float value, an unsupported
    value or an int too long to print), the encoder raises a ValueError or
    a TypeError for the first fault in its walk. Each example builds a tree
    of up to ten leaves from one seed; every kind of value is drawn, and
    each fault is the only one in many trees."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    kinds, lone_faults, clean = Counter(), Counter(), []

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def check(seed):
        obj, seen = _random_tree(random.Random(seed), [10]), set()
        _kinds(obj, seen)
        try:
            expected = reference_canonical_json(obj)
        except (ValueError, TypeError):
            with pytest.raises((ValueError, TypeError)):
                canonical_json(obj)
            refused = True
        else:
            assert canonical_json(obj) == expected
            refused = False
        assert refused == bool(seen & _FAULTS)
        kinds.update(seen)
        if len(seen & _FAULTS) == 1:
            lone_faults.update(seen & _FAULTS)
        clean.append(not refused)

    check()
    assert set(kinds) == {"text", "float", "int", "True", "False", "None", "list", "tuple",
                          "dict", *_FAULTS}, kinds
    assert min(lone_faults[fault] for fault in _FAULTS) >= 20, lone_faults
    assert sum(clean) >= len(clean) // 4, sum(clean)


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


def test_write_text_atomic_makes_the_parent_directory_only_when_it_is_missing(
        tmp_path, monkeypatch):
    made = []
    real_makedirs = os.makedirs

    def logged_makedirs(name, *args, **kwargs):
        made.append(name)
        real_makedirs(name, *args, **kwargs)

    monkeypatch.setattr(os, "makedirs", logged_makedirs)
    target = tmp_path / "a" / "b" / "report.json"
    write_text_atomic(target, "new\n")
    assert made[0] == str(target.parent)  # then its own calls, for the parents
    made.clear()
    write_text_atomic(target, "replaced\n")
    write_text_atomic(target.with_name("report.md"), "beside\n")
    assert made == []
    assert sorted(p.name for p in target.parent.iterdir()) == ["report.json", "report.md"]
    assert target.read_text(encoding="utf-8") == "replaced\n"


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
