"""The `cli` workload: cold `opuckit` processes, one after another.

Every round starts, each as a fresh `python3 -m opuckit.cli` process:

* six small runs with README-sized inputs: pair2alpha, zeros, quadrature,
  periodic, weight and demo;
* `check`;
* one convert: pair2alpha on a file holding LONG_N terms of (c, m), then
  alpha2pair on its output file.  The two processes count as one operation.

With --trace 1 every run goes through cli.main in-process instead, so the
tracer sees every layer the commands use.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import harness
import ladder
import oracles
import spectra

LONG_N = 100_000
POOL = 32
SMALL_N = 6

EPS = oracles.EPS
TWO_PI = oracles.TWO_PI

# the end-to-end metrics of this workload, by operation kind
E2E = {"op1_s": "small", "op2_s": "check", "op3_s": "convert"}


def _small_pair(rng, label, make_pair):
    """An alternating pair shaped like the README example, admitted like the
    ladder workload's pairs."""
    while True:
        c = rng.uniform(1.2, 1.8, SMALL_N) * (-1.0) ** np.arange(SMALL_N)
        m = np.concatenate([[0.0], rng.uniform(0.4, 0.6, SMALL_N)])
        case = ladder.Case(label, c, m, make_pair)
        if case.admitted():
            return case


def _small_block(rng, label):
    while True:
        c, b1, b2 = rng.uniform(0.3, 1.5), rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)
        alpha = tuple(complex(a) for a in oracles.period_two_alpha(c, b1, b2))
        block = spectra.Block(label, alpha, family=(c, b1, b2))
        if block.admitted():
            return block


def generate(seed: int, opuckit, work: Path):
    """Small inputs for POOL rounds and the long (c, m) file, from the seed."""
    rng = np.random.default_rng([seed, 3])
    make_pair = opuckit.make_pair
    small = []
    for i in range(POOL):
        small.append({
            "p2a": (rng.uniform(-2.0, 2.0, 4), rng.uniform(0.2, 0.8, 4)),
            "zeros": _small_pair(rng, f"seed {seed} zeros {i}", make_pair),
            "quadrature": _small_pair(rng, f"seed {seed} quadrature {i}", make_pair),
            "periodic": _small_block(rng, f"seed {seed} periodic {i}"),
            "weight": _small_block(rng, f"seed {seed} weight {i}"),
            "demo": _small_block(rng, f"seed {seed} demo {i}"),
        })
    c = rng.uniform(-1.0, 1.0, LONG_N)
    m = rng.uniform(0.2, 0.8, LONG_N)
    long_path = work / "long.json"
    long_path.write_text(json.dumps({"c": c.tolist(), "m": m.tolist()}))
    return {"small": small, "long": (c, np.concatenate([[0.0], m])), "long_path": long_path}


def _pairs_doc(c, m):
    return json.dumps({"c": [float(v) for v in c], "m": [float(v) for v in m]})


def _alpha_doc(alpha):
    return json.dumps({"alpha": [[a.real, a.imag] for a in alpha]})


def _complex(rows):
    arr = np.asarray(rows, dtype=float).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


class Workload(harness.Workload):
    def __init__(self, seed, opuckit, inputs, work, traced):
        self.ok = opuckit
        self.inputs = inputs
        self.work = work
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=str(Path(opuckit.__file__).resolve().parent.parent))
        self.rounds = 0
        self.converts = 0
        self.child_rss = 0.0

    def peak_rss_mb(self):
        return self.child_rss  # the largest cold opuckit process

    # ---- running the program ---- #

    def _cold(self, args, out_name):
        """One fresh opuckit process; its standard output goes to out_name."""
        out = self.work / out_name
        code, _, rss = harness.run_child(
            [sys.executable, "-m", "opuckit.cli", *args], self.env, out, self.work / "stderr"
        )
        self.child_rss = max(self.child_rss, rss)
        if code != 0:
            err = (self.work / "stderr").read_text(errors="replace").strip()
            raise RuntimeError(f"opuckit {args[0]} exited with {code}: {err[-300:]}")
        return out

    def _in_process(self, args, out_name):
        out = self.work / out_name
        with open(out, "w") as stream, contextlib.redirect_stdout(stream):
            code = self.ok.cli.main(list(args))
        if code != 0:
            raise RuntimeError(f"cli.main({args[0]}) returned {code}")
        return out

    def _convert(self, launch):
        # new file names every time: truncating a large file written moments
        # before can cost as much as the conversion itself
        self.converts += 1
        first = launch(["pair2alpha", "--input", str(self.inputs["long_path"])],
                       f"alpha-{self.converts}.json")
        second = launch(["alpha2pair", "--input", str(first)], f"back-{self.converts}.json")
        return first, second

    def round(self, runner):
        for path in [*self.work.glob("alpha-*.json"), *self.work.glob("back-*.json")]:
            path.unlink()  # the last round's convert outputs
        small = self.inputs["small"][self.rounds % POOL]
        self.rounds += 1
        # traced, every run goes through cli.main in this process, where the
        # tracer sees it
        launch = self._in_process if self.traced else self._cold
        c, m = small["p2a"]
        runner.run("small", "pair2alpha",
                   lambda: launch(["pair2alpha", "--input", _pairs_doc(c, m)], "p2a.json"),
                   lambda out: check_pair2alpha(out, c, m))
        case = small["zeros"]
        runner.run("small", "zeros " + case.label,
                   lambda: launch(["zeros", "--input", _pairs_doc(case.c, case.m[1:]),
                                   "--n", str(SMALL_N)], "zeros.json"),
                   lambda out: check_zeros(out, case))
        qcase = small["quadrature"]
        runner.run("small", "quadrature " + qcase.label,
                   lambda: launch(["quadrature", "--input", _pairs_doc(qcase.c, qcase.m[1:]),
                                   "--n", str(SMALL_N)], "quadrature.json"),
                   lambda out: check_quadrature(out, qcase))
        block = small["periodic"]
        runner.run("small", "periodic " + block.label,
                   lambda: launch(["periodic", "--input", _alpha_doc(block.alpha)], "periodic.json"),
                   lambda out: check_periodic(out, block))
        wblock = small["weight"]
        runner.run("small", "weight " + wblock.label,
                   lambda: launch(["weight", "--input", _alpha_doc(wblock.alpha)], "weight.json"),
                   lambda out: check_weight(out, wblock))
        dblock = small["demo"]
        fc, fb1, fb2 = dblock.family
        runner.run("small", "demo " + dblock.label,
                   lambda: launch(["demo", "--c", repr(fc), "--b1", repr(fb1), "--b2", repr(fb2)],
                                  "demo.json"),
                   lambda out: check_demo(out, dblock))
        runner.run("check", "check", lambda: launch(["check"], "check.json"), check_battery)
        runner.run("convert", f"{LONG_N} terms", lambda: self._convert(launch), self.check_convert)

    def check_convert(self, outputs):
        first, second = outputs
        c, m = self.inputs["long"]
        return check_round_trip(_load(first), _load(second), c, m)


# ------------------ checks ------------------ #


def _load(path):
    with open(path) as f:
        return json.load(f)


def check_pair2alpha(out, c, m):
    doc = _load(out)
    want_a, want_t = oracles.alpha_tau(c, np.concatenate([[0.0], m]))
    alpha, tau = _complex(doc["alpha"]), _complex(doc["tau"])
    tol = spectra.alpha_tol(np.arange(want_t.size))
    if doc["n"] != len(c) or alpha.shape != want_a.shape or tau.shape != want_t.shape:
        return [f"pair2alpha returned {alpha.size} coefficients"]
    if np.any(~(np.abs(alpha - want_a) <= tol[:-1])) or np.any(~(np.abs(tau - want_t) <= tol)):
        return ["alpha or tau disagree with the oracle"]
    return []


def check_zeros(out, case):
    doc = _load(out)
    o = case.oracle
    theta = np.asarray(doc["theta"], dtype=float)
    x = np.asarray(doc["x"], dtype=float)
    want = o["theta"][1:]
    if doc["n"] != SMALL_N or theta.shape != want.shape or x.shape != want.shape:
        return [f"zeros returned {theta.size} zeros"]
    problems = []
    if np.any(~(np.abs(theta - want) <= ladder.node_bound(want, SMALL_N))):
        problems.append("zero angles disagree with the oracle")
    if np.any(~(np.abs(x - np.cos(0.5 * want)) <= ladder.LADDER_TOL + 16 * (SMALL_N + 1) * EPS)):
        problems.append("zeros in x disagree with the oracle")
    return problems


def check_quadrature(out, case):
    doc = _load(out)
    meas = SimpleNamespace(theta=doc["theta"], weights=doc["weights"])
    problems = ladder.check_quadrature(case, meas)
    if doc["n"] != SMALL_N or not abs(doc["weight_sum"] - 1.0) <= ladder.SUM_TOL:
        problems.append(f"n = {doc['n']}, weight sum {doc['weight_sum']!r}")
    return problems


def _period_two_doc(block, edges, doc):
    """The period-two closed forms and the total mass of a periodic or demo
    document."""
    points = [(pp["theta"], pp["mass"]) for pp in doc["pure_points"]]
    problems = spectra.period_two_problems(block.family, edges, points)
    masses = [mass for _, mass in points]
    return problems + spectra.normalization_problems(doc["normalization"], masses, 2)


def check_periodic(out, block):
    doc = _load(out)
    edges = [e for band in doc["bands"] for e in (band["lo"], band["hi"])]
    problems = _period_two_doc(block, edges, doc)
    if doc["p"] != 2 or len(doc["candidates"]) != 2:
        problems.append(f"p = {doc['p']}, {len(doc['candidates'])} candidates")
    return problems


def check_weight(out, block):
    doc = _load(out)
    c, b1, b2 = block.family
    theta = np.asarray(doc["theta"], dtype=float)
    w = np.asarray(doc["w"], dtype=float)
    if doc["p"] != 2 or theta.size < 2 or theta.shape != w.shape or np.any(np.diff(theta) < 0.0):
        return ["weight returned no sorted samples"]
    delta = oracles.period_two_discriminant(c, b1, b2, theta)
    if not np.all(np.abs(delta) < 2.0):
        return ["weight sampled outside the bands"]
    want = oracles.period_two_weight(c, b1, b2, theta)
    # sqrt(4 - Delta^2) amplifies a rounding of Delta near the band edges
    tol = 64 * 2 * EPS * (1.0 + 4.0 / (4.0 - delta**2)) * want
    if np.any(~(np.abs(w - want) <= tol)):
        return [f"density off by {float(np.max(np.abs(w - want) / want)):.3e} (relative)"]
    return []


def check_demo(out, block):
    """demo lists the closed forms; its normalization is the program's."""
    doc = _load(out)
    problems = _period_two_doc(block, doc["band_edges"], doc)
    alpha = _complex(doc["alpha"])
    if np.any(~(np.abs(alpha - np.asarray(block.alpha)) <= 8 * EPS)):
        problems.append("alpha disagrees with the closed form")
    return problems


def check_battery(out):
    doc = _load(out)
    bad = [entry["name"] for entry in doc["checks"] if not entry["ok"]]
    if not doc["ok"] or bad or not doc["checks"]:
        return [f"check battery failed: {bad}"]
    return []


def check_round_trip(fwd, back, c, m):
    """pair2alpha against the oracle, then the round trip in alpha-space.

    The (c, m) that come back are not compared with the input: tau carries a
    phase error that grows along the sequence and enters c and m
    ill-conditioned.  Instead the alpha rebuilt from the returned (c, m) must
    match the alpha that went in, to a bound that grows with the index by
    16 eps (1 + 1/(1 - |alpha_j|)) per step.
    """
    problems = []
    n = len(c)
    alpha = _complex(fwd["alpha"])
    want_a, want_t = oracles.alpha_tau(c, m)
    k = np.arange(n)
    if fwd["n"] != n or alpha.size != n:
        return [f"pair2alpha returned {alpha.size} coefficients"]
    if np.any(~(np.abs(alpha - want_a) <= spectra.alpha_tol(k))):
        problems.append(f"alpha off by {float(np.max(np.abs(alpha - want_a))):.3e}")
    c2 = np.asarray(back["c"], dtype=float)
    m2 = np.asarray(back["m"], dtype=float)
    d2 = np.asarray(back["d"], dtype=float)
    if back["n"] != n or c2.size != n or m2.size != n + 1 or d2.size != n:
        return problems + ["alpha2pair returned sequences of the wrong length"]
    if m2[0] != 0.0 or not np.all((m2[1:] > 0.0) & (m2[1:] < 1.0)):
        problems.append("minimal parameters outside (0, 1)")
    if np.any(~(np.abs(d2 - (1.0 - m2[:-1]) * m2[1:]) <= 4 * EPS)):
        problems.append("d is not (1 - m_{n-1}) m_n")
    again, _ = oracles.alpha_tau(c2, m2)
    growth = np.cumsum(16 * EPS * (1.0 + 1.0 / (1.0 - np.abs(alpha))))
    err = np.abs(again - alpha)
    if np.any(~(err <= growth + spectra.alpha_tol(k))):
        j = int(np.argmax(err / growth))
        problems.append(f"round trip moves alpha_{j} by {err[j]:.3e}")
    return problems
