"""Command-line interface: formats, artifacts, and exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opuckit
from opuckit import full_spectrum, make_pair, pair_to_verblunsky, selfcheck
from opuckit.cli import main

PAIR_TWO = '{"c": [0, 0], "d": [0.5, 0.25]}'
PAIR_FOUR = '{"c": [1, -1, 1, -1], "m": [0.5, 0.5, 0.5, 0.5]}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def _python(*args):
    """A fresh interpreter on this checkout's package: (exit code, stdout, stderr)."""
    src = str(Path(opuckit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    return out.returncode, out.stdout, out.stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "opuckit" in capsys.readouterr().out


def test_alpha2pair_reference(capsys):
    doc = run_json(
        capsys,
        ["alpha2pair", "--input", '{"alpha": [[0.5, 0], [0.3333333333333333, 0]]}'],
    )
    assert doc["meta"]["command"] == "alpha2pair"
    assert doc["n"] == 2
    assert doc["c"] == [0, 0]
    assert abs(doc["m"][0]) == 0 and abs(doc["m"][1] - 0.25) < 1e-15
    assert abs(doc["m"][2] - 1.0 / 3.0) < 1e-15
    assert abs(doc["d"][0] - 0.25) < 1e-15
    assert abs(doc["d"][1] - 0.25) < 1e-15


def test_pair2alpha_round(capsys):
    doc = run_json(capsys, ["pair2alpha", "--input", '{"c": [0, 0], "m": [0.25, 0.3333333333333333]}'])
    assert doc["n"] == 2
    assert abs(doc["alpha"][0][0] - 0.5) < 1e-15
    assert abs(doc["alpha"][1][0] - 1.0 / 3.0) < 1e-12
    assert doc["alpha"][0][1] == 0
    assert doc["tau"][0] == [1, 0]


def test_pair2alpha_accepts_leading_zero_m(capsys):
    with_zero = run_json(
        capsys, ["pair2alpha", "--input", '{"c": [0, 0], "m": [0, 0.25, 0.3333333333333333]}']
    )
    without = run_json(
        capsys, ["pair2alpha", "--input", '{"c": [0, 0], "m": [0.25, 0.3333333333333333]}']
    )
    assert with_zero["alpha"] == without["alpha"]


def test_zeros_reference(capsys):
    doc = run_json(capsys, ["zeros", "--n", "2", "--input", PAIR_TWO])
    assert doc["n"] == 2
    assert abs(doc["theta"][0] - 2.0 * math.pi / 3.0) < 1e-10
    assert abs(doc["theta"][1] - 4.0 * math.pi / 3.0) < 1e-10
    assert abs(doc["x"][0] - 0.5) < 1e-10
    assert abs(doc["x"][1] + 0.5) < 1e-10


def test_zeros_csv_all_levels(capsys, tmp_path):
    code, out, err = run(
        capsys,
        ["zeros", "--n", "2", "--input", PAIR_TWO, "--format", "both", "--outdir", str(tmp_path)],
    )
    assert code == 0
    lines = (tmp_path / "zeros.csv").read_text().split("\n")
    assert lines[0] == "level,j,x,theta"
    rows = [ln.split(",") for ln in lines[1:] if ln]
    assert len(rows) == 3  # one level-1 zero plus two level-2 zeros
    assert [r[0] for r in rows] == ["1", "2", "2"]
    assert [r[1] for r in rows] == ["1", "1", "2"]
    level1_theta = float(rows[0][3])
    assert abs(level1_theta - math.pi) < 1e-10


def test_quadrature_reference(capsys):
    doc = run_json(capsys, ["quadrature", "--n", "2", "--input", PAIR_TWO, "--moments", "2"])
    assert np.allclose(doc["weights"], [1 / 3, 1 / 3, 1 / 3], atol=1e-10)
    assert abs(doc["weight_sum"] - 1.0) < 1e-12
    assert abs(doc["moments"][0][0] - 1.0) < 1e-12 and doc["moments"][0][1] == 0
    assert abs(doc["moments"][1][0]) < 1e-12 and abs(doc["moments"][1][1]) < 1e-12


def test_quadrature_csv(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        ["quadrature", "--input", PAIR_TWO, "--format", "csv", "--outdir", str(tmp_path)],
    )
    assert code == 0
    lines = (tmp_path / "quadrature.csv").read_text().split("\n")
    assert lines[0] == "j,theta,weight"
    rows = [ln.split(",") for ln in lines[1:] if ln]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert abs(float(rows[0][1])) == 0.0
    assert abs(sum(float(r[2]) for r in rows) - 1.0) < 1e-12


def test_format_csv_suppresses_json(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["quadrature", "--input", PAIR_TWO, "--format", "csv", "--outdir", str(tmp_path)],
    )
    assert code == 0
    assert out == ""


def test_cdf_grid(capsys):
    doc = run_json(capsys, ["cdf", "--n", "2", "--grid", "8", "--input", PAIR_TWO])
    assert len(doc["theta"]) == 9 and len(doc["psi"]) == 9
    expect = [0.0, 1 / 3, 1 / 3, 2 / 3, 2 / 3, 2 / 3, 1.0, 1.0, 1.0]
    assert np.allclose(doc["psi"], expect, atol=1e-12)
    assert doc["psi"][0] == 0 and doc["psi"][-1] == 1


def test_cdf_csv(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        ["cdf", "--grid", "4", "--input", PAIR_TWO, "--format", "both", "--outdir", str(tmp_path)],
    )
    assert code == 0
    text = (tmp_path / "cdf.csv").read_text()
    assert text.startswith("theta,psi\n")
    assert "\r" not in text
    assert len([ln for ln in text.split("\n") if ln]) == 6


def test_poly_levels(capsys):
    doc = run_json(capsys, ["poly", "--input", PAIR_TWO])
    assert doc["R"][0] == [[1, 0]]
    assert doc["R"][1] == [[1, 0], [1, 0]]
    assert doc["R"][2] == [[1, 0], [1, 0], [1, 0]]
    assert doc["Q"][0] == []
    assert doc["Q"][1] == [[1, 0]]
    assert doc["Q"][2] == [[1, 0], [1, 0]]


def test_poly_levels_from_one_pass(capsys):
    # 30 levels streamed by poly are the coefficients r_coeffs and q_coeffs
    # give level by level: R_k has k + 1 entries, Q_k has k and Q_0 none
    n = 30
    rng = np.random.default_rng(30)
    c, m = rng.uniform(-2.0, 2.0, n), np.concatenate([[0.0], rng.uniform(0.1, 0.9, n)])
    doc = run_json(capsys, ["poly", "--input", json.dumps({"c": c.tolist(), "m": m.tolist()})])
    pair = make_pair(c, m=m)
    assert len(doc["R"]) == len(doc["Q"]) == n + 1 and doc["Q"][0] == []
    for k in range(n + 1):
        assert len(doc["R"][k]) == k + 1 and len(doc["Q"][k]) == k
        r = opuckit.r_coeffs(pair, k).coeffs
        q = opuckit.q_coeffs(pair, k).coeffs[:k]
        assert doc["R"][k] == np.stack((r.real, r.imag), axis=1).tolist()
        assert doc["Q"][k] == np.stack((q.real, q.imag), axis=1).tolist()


def test_poly_csv(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        ["poly", "--input", PAIR_TWO, "--format", "csv", "--outdir", str(tmp_path)],
    )
    assert code == 0
    r_lines = [ln for ln in (tmp_path / "poly_r.csv").read_text().split("\n") if ln]
    q_lines = [ln for ln in (tmp_path / "poly_q.csv").read_text().split("\n") if ln]
    assert r_lines[0] == "n,k,re,im" and q_lines[0] == "n,k,re,im"
    assert len(r_lines) - 1 == 6  # levels 0..2 hold 1 + 2 + 3 coefficients
    assert len(q_lines) - 1 == 3  # levels 1..2 hold 1 + 2 coefficients


def test_periodic_single(capsys):
    doc = run_json(capsys, ["periodic", "--input", '{"alpha": [[0.5, 0]]}'])
    assert doc["p"] == 1
    assert len(doc["bands"]) == 1
    assert abs(doc["bands"][0]["lo"] - math.pi / 3.0) < 1e-9
    assert doc["pure_points"][0]["theta"] == 0
    assert abs(doc["pure_points"][0]["mass"] - 2.0 / 3.0) < 1e-10
    norm = doc["normalization"]
    assert set(norm) == {"ac_mass", "point_mass", "total", "ac_error", "point_error"}
    assert 0.0 < norm["ac_error"] <= 1e-12
    assert abs(norm["total"] - 1.0) <= norm["ac_error"] + norm["point_error"]


def test_periodic_p_prefix(capsys):
    doc = run_json(
        capsys, ["periodic", "--p", "1", "--input", '{"alpha": [[0.5, 0], [0.5, 0], [0.5, 0]]}']
    )
    assert doc["p"] == 1


def test_weight_explicit_thetas(capsys):
    doc = run_json(capsys, ["weight", "--theta", "3.0,3.3", "--input", '{"alpha": [[0, 0]]}'])
    assert doc["theta"] == [3, 3.3]
    assert np.allclose(doc["w"], [1.0, 1.0], atol=1e-12)


def test_weight_band_sampling(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "weight",
            "--grid", "32",
            "--input", '{"alpha": [[0.5, 0]]}',
            "--format", "both",
            "--outdir", str(tmp_path),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["theta"]) >= 2
    assert all(0.0 <= t <= 2.0 * math.pi for t in doc["theta"])
    assert all(v > 0.0 for v in doc["w"])
    lines = (tmp_path / "weight.csv").read_text().split("\n")
    assert lines[0] == "theta,w"


def csv_columns(path):
    """{name: column} of a CSV table, each cell parsed as an int or a float."""
    lines = path.read_text().splitlines()
    cells = zip(*(line.split(",") for line in lines[1:]))
    return {
        name: [int(v) if name in ("level", "j") else float(v) for v in col]
        for name, col in zip(lines[0].split(","), cells)
    }


def ladder_pair(n):
    return make_pair(np.linspace(0.3, 1.1, n) * (-1.0) ** np.arange(n), m=[0.0] + [0.4] * n)


def pair_json(pair):
    return json.dumps({"c": list(pair.c), "m": list(pair.m)})


@pytest.mark.parametrize(
    "argv",
    [
        ["quadrature", "--n", "9", "--input", pair_json(ladder_pair(12))],
        ["cdf", "--n", "9", "--grid", "40", "--input", pair_json(ladder_pair(12))],
        ["weight", "--grid", "50", "--input", pair_json(ladder_pair(4))],
        ["weight", "--theta", "2.5,1.75,2.5,0.9,1.75,3", "--input", '{"alpha": [0.3]}'],
    ],
)
def test_csv_columns_are_the_report_values(capsys, tmp_path, argv):
    # every column of the table reads back to the report's list, value for
    # value: j counts the quadrature nodes from 1, and weight's rows are
    # sorted by theta, repeated angles included
    doc = run_json(capsys, [*argv, "--format", "both", "--outdir", str(tmp_path)])
    columns = csv_columns(tmp_path / f"{argv[0]}.csv")
    if argv[0] == "quadrature":
        assert columns.pop("j") == list(range(1, 11))
        assert columns.pop("weight") == doc["weights"]
    elif argv[0] == "weight":
        assert columns["theta"] == sorted(columns["theta"]) and len(columns["theta"]) >= 6
    assert columns == {name: doc[name] for name in columns}


def test_zeros_csv_columns_are_the_ladder(capsys, tmp_path):
    # the table holds every level of zero_ladder in order, the report the last
    pair = ladder_pair(9)
    argv = ["zeros", "--input", pair_json(pair), "--format", "both", "--outdir", str(tmp_path)]
    doc = run_json(capsys, argv)
    columns = csv_columns(tmp_path / "zeros.csv")
    ladder = opuckit.zero_ladder(pair, 9)
    assert columns == {
        "level": [zs.n for zs in ladder for _ in zs.x],
        "j": [j for zs in ladder for j in range(1, zs.x.size + 1)],
        "x": [v for zs in ladder for v in zs.x.tolist()],
        "theta": [v for zs in ladder for v in zs.theta.tolist()],
    }
    assert (doc["x"], doc["theta"]) == (ladder[-1].x.tolist(), ladder[-1].theta.tolist())


def alpha_doc(alpha):
    return json.dumps({"alpha": [[a.real, a.imag] for a in alpha]})


def test_weight_past_kappa_overflow(capsys):
    # kappa_p = prod 1/rho_j passes the largest float at alpha[228]
    doc = run_json(capsys, ["weight", "--grid", "300", "--input", alpha_doc([0.999] * 240)])
    assert doc["p"] == 240 and len(doc["w"]) >= 300
    assert all(math.isfinite(v) and v > 0.0 for v in doc["w"])


def test_weight_skips_bands_thinner_than_rounding(capsys):
    # 20 of this block's bands are under 1e-12 wide, and some of their
    # midpoint samples have |Delta| > 2 once rounded; the command drops them
    # instead of blaming the input
    rng = np.random.default_rng(5)
    c = rng.uniform(-1.5, 1.5, 64)
    m = np.concatenate([[0.0], rng.uniform(0.1, 0.9, 64)])
    alpha = pair_to_verblunsky(make_pair(c, m=m)).alpha
    assert min(b.hi - b.lo for b in full_spectrum(alpha).bands) < 1e-12
    doc = run_json(capsys, ["weight", "--grid", "300", "--input", alpha_doc(alpha)])
    assert len(doc["w"]) > 300
    assert all(math.isfinite(v) and v > 0.0 for v in doc["w"])


def test_transform_conjugate(capsys):
    doc = run_json(
        capsys, ["transform", "--op", "conjugate", "--input", '{"c": [1, -2], "d": [0.5, 0.2]}']
    )
    assert doc["c"] == [-1, 2]
    assert doc["d"] == [0.5, 0.2]


def test_transform_rotate(capsys):
    doc = run_json(
        capsys,
        ["transform", "--op", "rotate", "--beta", "0,1", "--input", '{"alpha": [[0.5, 0]]}'],
    )
    assert doc["beta"] == [0, 1]
    assert abs(doc["alpha"][0][0]) < 1e-15
    assert abs(doc["alpha"][0][1] - 0.5) < 1e-15


def test_transform_unfold(capsys):
    doc = run_json(
        capsys,
        ["transform", "--op", "unfold", "--input", '{"c": [-1, 1], "m": [0, 0.35, 0.25]}'],
    )
    assert doc["c_tilde"] == [1, 1]
    assert abs(doc["m_tilde"][1] - 0.65) < 1e-15
    assert abs(doc["m_tilde"][2] - 0.25) < 1e-15


def test_demo_reference(capsys):
    doc = run_json(capsys, ["demo", "--c", "1", "--b1", "0.3", "--b2", "0.5"])
    points = doc["pure_points"]
    assert len(points) == 2
    assert points[0]["theta"] == 0
    assert abs(points[0]["mass"] - 8.0 / 15.0) < 1e-12
    assert abs(points[1]["theta"] - 1.5 * math.pi) < 1e-12
    assert abs(points[1]["mass"] - 2.0 / 15.0) < 1e-12
    assert len(doc["band_edges"]) == 4
    norm = doc["normalization"]
    assert set(norm) == {"ac_mass", "point_mass", "total", "ac_error", "point_error"}
    assert abs(norm["total"] - 1.0) <= norm["ac_error"] + norm["point_error"]


def test_input_from_file(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(PAIR_TWO)
    doc = run_json(capsys, ["zeros", "--input", str(path)])
    assert doc["n"] == 2


def test_input_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(PAIR_TWO))
    doc = run_json(capsys, ["zeros", "--input", "-"])
    assert doc["n"] == 2


def test_determinism_byte_identical(capsys):
    _, out1, _ = run(capsys, ["demo"])
    _, out2, _ = run(capsys, ["demo"])
    assert out1 == out2
    _, z1, _ = run(capsys, ["zeros", "--input", PAIR_TWO])
    _, z2, _ = run(capsys, ["zeros", "--input", PAIR_TWO])
    assert z1 == z2


def error_type(err):
    return json.loads(err)["error"]["type"]


def test_exit_2_bad_json(capsys):
    code, _, err = run(capsys, ["zeros", "--input", '{"c": [0, 0], "d": [0.5'])
    assert code == 2
    assert "error" in json.loads(err)


def test_exit_2_not_a_chain_sequence(capsys):
    code, _, err = run(capsys, ["zeros", "--input", '{"c": [0, 0], "d": [0.5, 0.6]}'])
    assert code == 2
    assert error_type(err) == "NotAChainSequence"


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_exit_2_nonfinite_c(capsys, bad):
    doc = '{"c": [0.1, %s, 0.2], "m": [0.5, 0.5, 0.5]}' % bad
    code, _, err = run(capsys, ["quadrature", "--input", doc])
    assert code == 2
    assert error_type(err) == "InvalidParameters"


def test_exit_2_both_families(capsys):
    code, _, err = run(
        capsys, ["zeros", "--input", '{"c": [0], "d": [0.5], "alpha": [[0.5, 0]]}']
    )
    assert code == 2


def test_exit_2_missing_file(capsys, tmp_path):
    # a directory, or a file that is not UTF-8, is refused as input as a
    # missing path is
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    for path in ("/nonexistent/path.json", str(tmp_path), str(undecodable)):
        code, _, err = run(capsys, ["zeros", "--input", path])
        assert code == 2, path
        assert error_type(err) == "InvalidParameters", path


def test_exit_2_off_band(capsys):
    code, _, err = run(
        capsys, ["weight", "--theta", "0.1", "--input", '{"alpha": [[0.5, 0]]}']
    )
    assert code == 2
    assert error_type(err) == "OffBand"


@pytest.mark.parametrize("theta", ["nan", "inf", "1.0,nan"])
def test_exit_2_non_finite_theta(capsys, theta):
    code, out, err = run(capsys, ["weight", "--theta", theta, "--input", '{"alpha": [[0.5, 0]]}'])
    assert code == 2 and out == ""
    assert error_type(err) == "InvalidParameters"


def test_exit_2_bad_n(capsys):
    code, _, err = run(capsys, ["zeros", "--n", "7", "--input", PAIR_TWO])
    assert code == 2


ALPHA_THREE = '{"alpha": [[0.3, 0.1], [-0.2, 0.4], [0.5, -0.1]]}'


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["periodic", "--p", "4", "--input", ALPHA_THREE], "InvalidParameters"),
        (["weight", "--p", "0", "--input", ALPHA_THREE], "InvalidParameters"),
        (["quadrature", "--moments", "-1", "--input", PAIR_TWO], "InvalidParameters"),
        (["cdf", "--grid", "1", "--input", PAIR_TWO], "InvalidParameters"),
        (["weight", "--theta", "x", "--input", '{"alpha": [[0.5, 0]]}'], "InvalidParameters"),
        (["weight", "--theta", ",", "--input", '{"alpha": [[0.5, 0]]}'], "InvalidParameters"),
        (["transform", "--op", "rotate", "--input", ALPHA_THREE], "InvalidParameters"),
        (
            ["transform", "--op", "rotate", "--beta", "1", "--input", ALPHA_THREE],
            "InvalidParameters",
        ),
        (
            ["transform", "--op", "rotate", "--beta", "a,b", "--input", ALPHA_THREE],
            "InvalidParameters",
        ),
        (
            ["transform", "--op", "unfold", "--input", '{"c": [-1, 1, 1], "m": [0.35, 0.25, 0.3]}'],
            "HypothesisViolated",
        ),
        (
            [
                "transform", "--op", "rotate", "--beta=-0.6,0.8",
                "--input", '{"alpha": [[1.5, 0.1], [0.2, 0.4]]}',
            ],
            "InvalidParameters",
        ),
        (
            ["transform", "--op", "rotate", "--beta=-0.6,0.8", "--input", '{"alpha": [[NaN, 0]]}'],
            "InvalidParameters",
        ),
        (
            ["transform", "--op", "rotate", "--beta=nan,0", "--input", ALPHA_THREE],
            "InvalidParameters",
        ),
    ],
)
def test_exit_2_option_checks(capsys, argv, kind):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert error_type(err) == kind


@pytest.mark.parametrize(
    "argv, option",
    [
        (["zeros", "--input", PAIR_TWO, "--n", "3"], "--n"),
        (["periodic", "--input", ALPHA_THREE, "--p", "4"], "--p"),
        (["cdf", "--input", PAIR_TWO, "--grid", "1"], "--grid"),
        (["quadrature", "--input", PAIR_TWO, "--moments", "-1"], "--moments"),
        (["weight", "--input", ALPHA_THREE, "--grid", "0"], "--grid"),
        (["weight", "--input", ALPHA_THREE, "--grid", "-5"], "--grid"),
    ],
)
def test_exit_2_count_option_names_the_option(capsys, argv, option):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InvalidParameters"
    assert error["message"].startswith(f"{option} must be an integer")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--input", "x"],
        ["demo", "--input", "x"],
        ["pair2alpha", "--format", "json", "--input", PAIR_TWO],
        ["periodic", "--outdir", "x", "--input", '{"alpha": [[0.5, 0]]}'],
    ],
)
def test_options_that_do_nothing_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_2_alpha_within_rounding_of_circle(capsys):
    # 1 - Re(tau_1 alpha_1) rounds to 0, though |alpha_1| < 1: alpha_1 has
    # modulus 1 - 2^-53, so the input is rejected, naming index 1
    alpha = (
        "[[-0.0893891400312834, 0.5333836865171296], "
        "[0.6132609716766605, -0.7898803584203102]]"
    )
    code, _, err = run(capsys, ["alpha2pair", "--input", '{"alpha": %s}' % alpha])
    assert code == 2
    assert error_type(err) == "InvalidParameters"
    assert "at index 1" in err


def test_pair_commands_read_an_alpha_document(capsys):
    # zeros and quadrature on alpha print what they print on the pair that
    # alpha2pair gives for it, tail_period included
    alpha = json.loads(ALPHA_THREE)["alpha"]
    doc = run_json(capsys, ["alpha2pair", "--input", ALPHA_THREE])
    for tail in (None, 2):
        extra = {} if tail is None else {"tail_period": tail}
        by_alpha = json.dumps({"alpha": alpha, **extra})
        by_pair = json.dumps({"c": doc["c"], "m": doc["m"], **extra})
        for command in ("zeros", "quadrature"):
            code, out, err = run(capsys, [command, "--input", by_alpha])
            assert code == 0, err
            assert (code, out, err) == run(capsys, [command, "--input", by_pair])
    past = json.dumps({"alpha": alpha, "tail_period": len(alpha) + 1})
    code, _, err = run(capsys, ["zeros", "--input", past])
    assert code == 2
    assert error_type(err) == "InvalidParameters"


@pytest.mark.parametrize("a", [0.9999999999999999, 0.9999999999999994])
def test_alpha2pair_round_trips_near_one(capsys, a):
    # alpha_0 within a few eps of 1 is the forward image of m_1 = (1 - a)/2
    doc = run_json(capsys, ["alpha2pair", "--input", '{"alpha": [[%r, 0]]}' % a])
    pair = json.dumps({"c": doc["c"], "m": doc["m"]})
    back = run_json(capsys, ["pair2alpha", "--input", pair])
    assert back["alpha"] == [[a, 0]]


def test_float_rendering_no_negative_zero(capsys):
    _, out, _ = run(capsys, ["alpha2pair", "--input", '{"alpha": [[0.5, 0]]}'])
    assert "-0," not in out and "-0]" not in out
    assert out.endswith("\n")


def test_check_command(capsys):
    code, out, _ = run(capsys, ["check"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["checks"]) >= 10
    assert all(entry["ok"] for entry in doc["checks"])
    seconds = [entry["seconds"] for entry in doc["checks"]]
    assert all(math.isfinite(s) and s >= 0.0 for s in seconds), seconds


def test_check_exit_3_on_a_failed_entry(capsys, monkeypatch):
    failed = [{"name": "broken", "ok": False, "detail": "InternalInvariant: planted"}]
    monkeypatch.setattr(selfcheck, "run_checks", lambda: failed)
    code, out, _ = run(capsys, ["check"])
    assert code == 3
    doc = json.loads(out)
    assert doc["ok"] is False and doc["checks"] == failed


def test_exit_3_on_a_nonfinite_csv_cell(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(
        "opuckit.measure.step_eval", lambda meas, theta: np.full(theta.size, np.nan)
    )
    code, out, err = run(
        capsys,
        ["cdf", "--grid", "4", "--input", PAIR_TWO, "--format", "csv", "--outdir", str(tmp_path)],
    )
    assert code == 3 and out == ""
    assert error_type(err) == "InternalInvariant"
    assert not (tmp_path / "cdf.csv").exists()


def test_import_leaves_scipy_solvers_unloaded():
    # the package needs numpy only: the CMV spectra come from numpy.linalg's
    # eigh and eigvalsh, band edges and candidates from eigvals, and the band
    # integrals from numpy; not one scipy module may be loaded
    probe = (
        "import sys, opuckit.cli, opuckit; "
        "alpha = [0.5 * (-1) ** k + 0.05j * k for k in range(16)]; "
        "opuckit.normalization_report(alpha, opuckit.full_spectrum(alpha)); "
        "pair = opuckit.make_pair([0.3, -0.2, 0.4, 0.1], m=[0.0, 0.5, 0.4, 0.6, 0.3]); "
        "opuckit.quadrature(pair, 4); opuckit.zero_ladder(pair, 4); opuckit.w_zeros(pair, 4); "
        "from opuckit.selfcheck import run_checks; assert all(r['ok'] for r in run_checks()); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    code, out, err = _python("-c", probe)
    assert code == 0, err
    assert out.strip() == "[]"


# after `import opuckit` no submodule body has run (a module whose body has
# run is a plain module; reading .__class__ would run it), and pair2alpha runs
# (its input in argv[1]) none of the modules it does not use; then every name
# in the package's and each submodule's __all__ resolves, since a star import
# fails on a name that is gone
LAZY_PROBE = """
import contextlib, io, pkgutil, sys, types
import opuckit

def unrun(names):
    return [n for n in names if type(sys.modules["opuckit." + n]) is not types.ModuleType]

assert "numpy" not in sys.modules, "numpy"
subs = sorted(m.name for m in pkgutil.iter_modules(opuckit.__path__) if m.name != "cli")
assert len(subs) >= 12 and unrun(subs) == subs, subs
assert "opuckit.cli" not in sys.modules
from opuckit import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["pair2alpha", "--input", sys.argv[1]]) == 0
heavy = ["measure", "period_two", "periodic", "polynomials", "selfcheck", "transforms", "zeros"]
assert unrun(heavy) == heavy, unrun(heavy)
star = {}
exec("from opuckit import *", star)
for name in opuckit.__all__:
    assert star[name] is getattr(opuckit, name) is not None, name
for sub in subs + ["cli"]:
    module, star = sys.modules["opuckit." + sub], {}
    exec(f"from opuckit.{sub} import *", star)
    for name in getattr(module, "__all__", ()):
        assert star[name] is getattr(module, name), (sub, name)
"""


def test_import_runs_no_submodule_until_used():
    code, _, err = _python("-W", "error", "-c", LAZY_PROBE, PAIR_FOUR)
    assert code == 0, err


@pytest.mark.parametrize(
    "argv",
    [["demo"], ["pair2alpha", "--input", PAIR_FOUR]],
)
def test_run_as_module_with_warnings_as_errors(argv):
    # `python -m opuckit.cli` warns, fatally under -W error, if opuckit.cli is
    # in sys.modules before it runs
    code, out, err = _python("-W", "error", "-m", "opuckit.cli", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["meta"]["command"] == argv[0]


@pytest.mark.parametrize("command", ["quadrature", "pair2alpha"])
def test_exit_2_alpha_on_the_circle(capsys, command):
    # c_1 = 1e300 puts alpha_0 = 1 - 1e-300 i, which has modulus 1.0
    doc = '{"c": [1e300, 0.5], "m": [0.5, 0.5]}'
    code, out, err = run(capsys, [command, "--input", doc])
    assert code == 2 and out == ""
    message = json.loads(err)["error"]["message"]
    assert error_type(err) == "InvalidParameters"
    assert "at n = 1 (c_n = 1e+300, m_n = 0.5)" in message


def test_large_c_stays_inside_the_disc(capsys):
    doc = run_json(capsys, ["pair2alpha", "--input", '{"c": [1e7, 0.5], "m": [0.5, 0.5]}'])
    re, im = doc["alpha"][0]
    assert re * re + im * im < 1.0
