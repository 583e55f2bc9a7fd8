"""Emission and parsing: the array route against the recursive emitter, and
the exact messages bad input gets."""

import json
import math
import re

import numpy as np
import pytest

from opuckit import make_pair, pair_to_verblunsky
from opuckit.cli import main
from opuckit.errors import InternalInvariant
from opuckit.serialize import complex_pairs, dumps, write_csv


# ---- the recursive emitter that wrote every float one call at a time,
# ---- kept verbatim as the reference for the array route


def ref_format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InternalInvariant(f"non-finite value {x!r} in output")
    if x == 0.0:
        return "0"  # fold -0.0
    return format(x, ".17g")


def ref_emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(ref_format_float(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            ref_emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            ref_emit(str(key), out)
            out.append(": ")
            ref_emit(value, out)
        out.append("}")
    else:
        raise InternalInvariant(f"cannot serialize {type(obj).__name__}")


def ref_dumps(obj) -> str:
    out: list[str] = []
    ref_emit(obj, out)
    return "".join(out)


CORPUS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,  # subnormal
    -2.5e-320,  # subnormal
    2.2250738585072014e-308,  # smallest normal
    2.225073858507201e-308,  # largest subnormal
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1.0,
    -1.0,
    1e22,
    1e21,
    1e16,
    9007199254740993.0,
    123456.789,
    1.0 / 3.0,
    -2.0 / 3.0,
]


def wide_floats(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * np.exp(rng.uniform(-700.0, 700.0, n))


def test_corpus_matches_recursive_emitter():
    arr = np.array(CORPUS)
    want = ref_dumps(CORPUS)
    assert dumps(arr) == want
    assert dumps(CORPUS) == want
    assert dumps(tuple(CORPUS)) == want
    assert dumps(list(arr)) == want  # numpy float64 elements
    for x in CORPUS:
        assert dumps(x) == ref_dumps(x)
    assert want.startswith("[0, 0, 4.9406564584124654e-324, -4.9406564584124654e-324")


@pytest.mark.parametrize("seed", [1, 2])
def test_arrays_match_recursive_emitter(seed):
    flat = np.concatenate([wide_floats(seed, 4000), CORPUS])
    assert dumps(flat) == ref_dumps(flat.tolist())
    rows = flat[: 2 * (flat.size // 2)].reshape(-1, 2)
    assert dumps(rows) == ref_dumps(rows.tolist())
    z = rows[:, 0] + 1j * rows[:, 1]
    assert dumps(complex_pairs(z)) == ref_dumps([[v.real, v.imag] for v in z.tolist()])
    assert dumps(np.empty(0)) == dumps(np.empty((0, 2))) == ref_dumps([]) == "[]"


def test_mixed_containers_match_recursive_emitter():
    cases = [
        [1, 2.5, -0.0, 3, 10**20, 1e20],
        (0.1, 2),
        [True, 0.5, None, "x"],
        [[1.0, 0.0], [0.5, -0.25]],
        {"a": [1, 0.5], "b": (0.3, 0.7), "c": {"d": [-0.0]}, "e": []},
        [],
        (),
    ]
    for obj in cases:
        assert dumps(obj) == ref_dumps(obj)
    assert dumps([np.array([0.1, -0.0]), [1, 2]]) == ref_dumps([[0.1, -0.0], [1, 2]])


def test_pair2alpha_document_matches_recursive_emitter(capsys):
    rng = np.random.default_rng(5)
    c = rng.uniform(-1.0, 1.0, 10_000)
    m = rng.uniform(0.2, 0.8, 10_000)
    code = main(["pair2alpha", "--input", json.dumps({"c": c.tolist(), "m": m.tolist()})])
    out = capsys.readouterr().out
    assert code == 0
    vs = pair_to_verblunsky(make_pair(c, m=np.concatenate([[0.0], m])))
    payload = {
        "meta": json.loads(out)["meta"],
        "n": 10_000,
        "alpha": [[z.real, z.imag] for z in vs.alpha],
        "tau": [[z.real, z.imag] for z in vs.tau],
    }
    assert out == ref_dumps(payload) + "\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_in_array_names_value(bad, tmp_path):
    message = re.escape(f"non-finite value {bad!r} in output")
    for obj in (
        np.array([0.5, bad, 1.0]),
        np.array([[0.5, 0.0], [1.0, bad]]),
        [0.5, bad],
        {"x": (bad,)},
        bad,
    ):
        with pytest.raises(InternalInvariant, match=message):
            dumps(obj)
    with pytest.raises(InternalInvariant, match=message):
        write_csv(tmp_path / "bad.csv", {"j": np.array([1, 2]), "x": np.array([0.5, bad])})


def test_csv_uses_the_same_float_rule(tmp_path):
    x = np.array(CORPUS)
    write_csv(tmp_path / "rows.csv", {"j": np.arange(x.size), "x": x, "y": -x})
    want = ["j,x,y"] + [
        f"{j},{ref_format_float(v)},{ref_format_float(-v)}" for j, v in enumerate(CORPUS)
    ]
    assert (tmp_path / "rows.csv").read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"j": np.array([1, 2]), "ok": np.array([True, False])}, "cannot write a bool column"),
        ({"j": np.array([1, 2]), "x": np.array([0.5])}, "not 1-D of one length"),
        ({"z": np.array([[0.5, 0.0], [1.0, 0.0]])}, "not 1-D of one length"),
    ],
)
def test_csv_refuses_columns_it_cannot_write(columns, message, tmp_path):
    with pytest.raises(InternalInvariant, match=message):
        write_csv(tmp_path / "bad.csv", columns)
    assert not (tmp_path / "bad.csv").exists()


# ---- bad input: exit 2 with the message the per-element parser gave


def input_error(capsys, argv):
    code = main(argv)
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert err["type"] == "InvalidParameters"
    return err["message"]


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"c": [0.5, true], "m": [0.5, 0.5]}', "c[1] = True is not a real number"),
        ('{"c": [0.5, 0.2], "m": ["x", 0.5]}', "m[0] = 'x' is not a real number"),
        ('{"c": [0.5, [1]], "m": [0.5, 0.5]}', "c[1] = [1] is not a real number"),
        ('{"c": [0.5, 0.2], "d": [0.5, null]}', "d[1] = None is not a real number"),
    ],
)
def test_bad_real_entries(capsys, doc, message):
    assert input_error(capsys, ["pair2alpha", "--input", doc]) == message


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            '{"alpha": [[0.1, 0.2], [1, 2, 3]]}',
            "alpha[1] = [1, 2, 3] must be a real or an [re, im] pair",
        ),
        (
            '{"alpha": [[0.1, 0.2], [0.1, true]]}',
            "alpha[1] = [0.1, True] must be a real or an [re, im] pair",
        ),
        (
            '{"alpha": [0.1, [0.1, 0.2], true]}',
            "alpha[2] = True must be a real or an [re, im] pair",
        ),
        (
            '{"alpha": [[0.1, 0.2], [0.1, "x"]]}',
            "alpha[1] = [0.1, 'x'] must be a real or an [re, im] pair",
        ),
    ],
)
def test_bad_alpha_rows(capsys, doc, message):
    assert input_error(capsys, ["alpha2pair", "--input", doc]) == message


BIG = "1" + "0" * 400  # a JSON integer no float can hold


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "pair2alpha",
            '{"c": [0.5, %s], "m": [0.5, 0.5]}' % BIG,
            "c[1] is an integer too large for a float",
        ),
        (
            "pair2alpha",
            '{"c": [0.5, 0.5], "d": [-%s, 0.5]}' % BIG,
            "d[0] is an integer too large for a float",
        ),
        (
            "alpha2pair",
            '{"alpha": [[0.1, 0.2], [0.1, %s]]}' % BIG,
            "alpha[1][1] is an integer too large for a float",
        ),
        (
            "alpha2pair",
            '{"alpha": [0.1, %s]}' % BIG,
            "alpha[1] is an integer too large for a float",
        ),
    ],
)
def test_integer_too_large_for_a_float(capsys, command, doc, message):
    assert input_error(capsys, [command, "--input", doc]) == message


def test_integer_beyond_the_parser_limit(capsys):
    # json.loads refuses integers over 4300 digits with a plain ValueError
    doc = '{"c": [%s], "m": [0.5]}' % ("1" * 5000)
    assert input_error(capsys, ["pair2alpha", "--input", doc]).startswith(
        "input is not valid JSON: Exceeds the limit (4300 digits)"
    )


def long_doc(key, literal, k=5000, n=10_000):
    """A 10^4-term document with the JSON literal at indices k and k + 2000
    of key; the message must name the first."""
    rows = {
        "c": ["0.25"] * n,
        "m": ["0.5"] * (n + 1 if key == "m" else n),
        "alpha": ["[0.25, -0.125]"] * n,
    }
    if key == "m":
        rows["m"][0] = "0"  # the leading m_0 = 0 is given, so indices match
    rows[key][k] = rows[key][k + 2000] = literal
    family = ("alpha",) if key == "alpha" else ("c", "m")
    return "{" + ", ".join(f'"{f}": [{", ".join(rows[f])}]' for f in family) + "}"


@pytest.mark.parametrize(
    "key, literal, message",
    [
        ("c", "NaN", "c[5000] = nan is not finite"),
        ("c", "Infinity", "c[5000] = inf is not finite"),
        ("m", "-Infinity", "m[5000] = -inf is not finite"),
        ("alpha", "[0.25, NaN]", "alpha[5000] = (0.25+nanj) must have modulus < 1"),
        ("alpha", "Infinity", "alpha[5000] = (inf+0j) must have modulus < 1"),
    ],
)
def test_nonfinite_literal_named_by_index(capsys, key, literal, message):
    command = "alpha2pair" if key == "alpha" else "pair2alpha"
    assert input_error(capsys, [command, "--input", long_doc(key, literal)]) == message
