"""The `ladder` workload: psi_n quadrature and the alternating-sign gap check.

Every round runs, at n = 40:

* `quadrature` on the fixed pair that fails today (see FIXED_PAIR_INDEX);
* `quadrature` on QUAD_PER_ROUND seeded pairs drawn like the acceptance
  ensemble, |c| <= 0.5 and m in [0.2, 0.8];
* `support_gap_check` on GAP_PER_ROUND seeded alternating-sign pairs,
  c_k = (-1)^k c~_k with c~ in [0.3, 1.0] and m in [0.3, 0.7], and then
  `zero_ladder` on the same pairs.

`quadrature` needs only the top level of the zero ladder and
`support_gap_check` needs every level.  Each is checked on what it returns;
the `zero_ladder` operation gives every level, which is checked against the
GGT eigenvalue oracle, for interlacing and for the paper's gap.
"""

from __future__ import annotations

import math

import numpy as np

import harness
import oracles

N = 40
QUAD_PER_ROUND = 4
GAP_PER_ROUND = 4
POOL = 256

# the 83rd pair drawn (c, then m) from default_rng(12345); quadrature raises
# InternalInvariant on it today, and it is run in every round so that a fix
# shows as fewer failures
FIXED_PAIR_SEED = 12345
FIXED_PAIR_INDEX = 82

# tolerances the program is asked for: zeros.DEFAULT_TOL certifies every
# ladder zero in x = cos(theta/2); support_gap_check's own default tol
LADDER_TOL = 1e-13
GAP_TOL = 1e-12
# quadrature holds the sum of the weights to 1 within this
SUM_TOL = 1e-10

# Admission of seeded pairs (see README, "Workloads and their inputs").  The
# ladder certifies x to LADDER_TOL, which resolves the angle of a node theta
# away from z = 1 only to about 4 LADDER_TOL / theta; below EDGE_MIN that
# exceeds SUM_TOL.  The brackets of level k are the level k-1 zeros, known
# only to LADDER_TOL; when a level-k zero lies closer than that to one of them
# (consecutive levels nearly sharing a zero, as they do inside a gap of the
# support), no bracket end has a certified sign.  Pairs outside either limit
# are skipped.
EDGE_MIN = 4.0 * LADDER_TOL / SUM_TOL
MARGIN_MIN = 2.0 * LADDER_TOL

EPS = oracles.EPS
TWO_PI = oracles.TWO_PI


def _draw_quad(rng):
    c = rng.uniform(-0.5, 0.5, N)
    m = np.concatenate([[0.0], rng.uniform(0.2, 0.8, N)])
    return c, m


def _draw_gap(rng):
    tilde = rng.uniform(0.3, 1.0, N)
    c = tilde * (-1.0) ** np.arange(1, N + 1)
    m = np.concatenate([[0.0], rng.uniform(0.3, 0.7, N)])
    return c, m


class Case:
    """One pair with its oracle data, computed on first use."""

    def __init__(self, label, c, m, make_pair):
        self.label = label
        self.c = c
        self.m = m
        self.pair = make_pair(c, m=m)
        self._oracle = None

    @property
    def oracle(self):
        if self._oracle is None:
            self._oracle = _oracle_data(self.c, self.m)
        return self._oracle

    def admitted(self) -> bool:
        o = self.oracle
        return o["edge"] >= EDGE_MIN and o["margin"] >= MARGIN_MIN


def _oracle_data(c, m):
    n = len(c)
    alpha, tau = oracles.alpha_tau(c, m)
    theta, weights = oracles.psi_nodes_weights(alpha, tau[n])
    levels = [oracles.level_angles(alpha, tau, k) for k in range(1, n)]
    levels.append(theta[1:])
    xs = [np.sort(np.cos(0.5 * t)) for t in levels]
    margin = math.inf
    for lower, upper in zip(xs[:-1], xs[1:]):
        margin = min(margin, float(np.min(np.abs(upper[:, None] - lower[None, :]))))
    ring = np.concatenate([theta, [theta[0] + oracles.TWO_PI]])
    gaps = np.diff(ring)
    sep = np.minimum(gaps, np.roll(gaps, 1))
    return {
        "theta": theta,
        "weights": weights,
        "sep": sep,
        "levels": levels,
        "xs": xs,
        "edge": float(min(theta[1], oracles.TWO_PI - theta[-1])),
        "margin": margin,
    }


# the end-to-end metrics of this workload, by operation kind
E2E = {"op1_s": "quadrature", "op2_s": "gap_check", "op3_s": "zero_ladder"}


def generate(seed: int, opuckit, work=None):
    """The fixed pair and POOL candidates of each kind, all from the seed."""
    make_pair = opuckit.make_pair
    rng = np.random.default_rng(FIXED_PAIR_SEED)
    for _ in range(FIXED_PAIR_INDEX):
        _draw_quad(rng)
    fixed = Case("fixed pair 83 of default_rng(12345)", *_draw_quad(rng), make_pair)
    rng = np.random.default_rng([seed, 1])
    quad = [Case(f"seed {seed} quad {i}", *_draw_quad(rng), make_pair) for i in range(POOL)]
    gap = [Case(f"seed {seed} gap {i}", *_draw_gap(rng), make_pair) for i in range(POOL)]
    return {"fixed": fixed, "quad": quad, "gap": gap}


class Workload(harness.Workload):
    def __init__(self, seed, opuckit, inputs, work, traced):
        self.ok = opuckit
        self.inputs = inputs
        self.admission = harness.Admission({"quad": inputs["quad"], "gap": inputs["gap"]})

    def round(self, runner):
        ok = self.ok
        fixed = self.inputs["fixed"]
        runner.run("quadrature", fixed.label, lambda: ok.quadrature(fixed.pair, N),
                   lambda r: check_quadrature(fixed, r))
        for _ in range(QUAD_PER_ROUND):
            case = self.admission.next("quad")
            runner.run("quadrature", case.label, lambda: ok.quadrature(case.pair, N),
                       lambda r: check_quadrature(case, r))
        for _ in range(GAP_PER_ROUND):
            case = self.admission.next("gap")
            runner.run("gap_check", case.label, lambda: ok.support_gap_check(case.pair, N),
                       lambda r: check_gap(case, r))
            runner.run("zero_ladder", case.label, lambda: ok.zero_ladder(case.pair, N),
                       lambda r: check_zero_ladder(case, r))


# ------------------ checks ------------------ #


def check_quadrature(case, meas):
    """psi_n against the oracle: nodes, weights, positivity and their sum."""
    problems: list[str] = []
    o = case.oracle
    theta = np.asarray(meas.theta, dtype=float)
    w = np.asarray(meas.weights, dtype=float)
    if theta.shape != o["theta"].shape or w.shape != theta.shape or theta[0] != 0.0:
        return [f"psi_n has {theta.shape} nodes, expected z = 1 plus {o['theta'].size - 1}"]
    n = theta.size - 1
    b_theta = node_bound(o["theta"], n)
    b_theta[0] = 32.0 * (n + 1) * EPS  # the program puts node 0 at z = 1 exactly
    err = np.abs(theta - o["theta"])
    if np.any(~(err <= b_theta)):
        j = int(np.argmax(err / b_theta))
        problems.append(f"node {j} off by {err[j]:.3e} > {b_theta[j]:.3e}")
    b_w = weight_bound(o["theta"], o["weights"], o["sep"], b_theta, n)
    werr = np.abs(w - o["weights"])
    if np.any(~(werr <= b_w)):
        j = int(np.argmax(werr / b_w))
        problems.append(f"weight {j} off by {werr[j]:.3e} > {b_w[j]:.3e}")
    if np.any(~(w > 0.0)):
        problems.append(f"non-positive weight {float(np.min(w))!r}")
    total = float(np.sum(w))
    if not abs(total - 1.0) <= SUM_TOL:
        problems.append(f"weights sum to {total!r}")
    return problems


def gap_of(case):
    """The paper's gap c/sqrt(1 + c^2) for the smallest c~ of the pair, and c."""
    c_floor = float(np.min(np.abs(case.c)))
    return c_floor / math.sqrt(1.0 + c_floor * c_floor), c_floor


def check_zero_ladder(case, ladder):
    """Every level against the oracle; consecutive levels interlace; every
    zero keeps |x| >= c/sqrt(1 + c^2)."""
    if len(ladder) != N:
        return [f"ladder of depth {len(ladder)}, expected {N}"]
    levels = [np.sort(np.asarray(zs.x, dtype=float)) for zs in ladder]
    problems: list[str] = []
    check_ladder(levels, case.oracle, problems)
    g, _ = gap_of(case)
    worst = min(float(np.min(np.abs(x))) for x in levels)
    if not worst >= g - GAP_TOL:
        problems.append(f"ladder zero |x| = {worst!r} inside the gap {g!r}")
    return problems


def check_gap(case, report):
    """The report against the oracle's zeros of every level."""
    problems: list[str] = []
    o = case.oracle
    g, c_floor = gap_of(case)
    if report.n != N or abs(report.c_floor - c_floor) > EPS * c_floor:
        problems.append(f"c floor {report.c_floor!r}, expected {c_floor!r}")
    lo, hi = report.x_excluded
    if abs(hi - g) > 4 * EPS or abs(lo + g) > 4 * EPS:
        problems.append(f"excluded interval {report.x_excluded!r}, expected +-{g!r}")
    theta_c = math.acos((c_floor**2 - 1.0) / (c_floor**2 + 1.0))
    if abs(report.theta_c - theta_c) > 8 * EPS:
        problems.append(f"theta_c {report.theta_c!r}, expected {theta_c!r}")
    # the paper's gap on the oracle's zeros (the zero_ladder operation checks
    # the program's); level 1 has its zero at |x| = g exactly when c~_1 is
    # the smallest c~
    b_x = LADDER_TOL + 16 * (N + 1) * EPS
    worst_oracle = min(float(np.min(np.abs(x))) for x in o["xs"])
    if not worst_oracle >= g - 16 * (N + 1) * EPS:
        problems.append(f"oracle zero |x| = {worst_oracle!r} inside the gap {g!r}")
    margin = worst_oracle - (g - GAP_TOL)
    if not abs(report.margin - margin) <= b_x or not report.margin >= 0.0:
        problems.append(f"gap margin {report.margin!r}, oracle {margin!r}")
    all_theta = np.sort(np.concatenate(o["levels"]))
    expected = []
    for part in (all_theta[all_theta <= math.pi], all_theta[all_theta > math.pi]):
        if part.size:
            expected.append((part[0], part[-1]))
    if len(report.observed_arcs) != len(expected):
        problems.append(f"{len(report.observed_arcs)} observed arcs, oracle {len(expected)}")
    else:
        for got, want in zip(report.observed_arcs, expected):
            bound = node_bound(np.asarray(want), N)
            if np.any(~(np.abs(np.asarray(got) - want) <= bound)):
                problems.append(f"observed arc {got!r}, oracle {want!r}")
    return problems


def node_bound(theta, n):
    """Allowed |theta_prog - theta_oracle| for each node angle.

    x = cos(theta/2) is certified to LADDER_TOL, so theta to
    2 LADDER_TOL / |sin(theta/2)|; the oracle's eigenvalues of a unitary
    matrix carry a backward error of order (n+1) eps.
    """
    s = np.abs(np.sin(0.5 * np.asarray(theta, dtype=float)))
    return 2.0 * LADDER_TOL / np.maximum(s, EPS) + 32.0 * (n + 1) * EPS


def weight_bound(theta, weights, sep, b_theta, n):
    """Allowed |w_prog - w_oracle| for each weight.

    A node error moves a weight by at most about ((n+1) + 2/sep) w db_theta
    (the Christoffel function is a degree-n trigonometric polynomial, and a
    weight scales with the spacing of its node from its neighbours); the
    oracle's eigenvector of an eigenvalue separated by sep is accurate to
    dv = 16 (n+1) eps / sep (Davis-Kahan), so |Z0j|^2 to 2 sqrt(w) dv + dv^2.
    The program forms each weight off z = 1 as q / ((1 - z) R'(z)), which
    rounds to a few eps away from z = 1 and, near it, divides by two factors
    of order t, the node's distance from z = 1: 16 eps (1 + 1/t^2).  The
    weight at z = 1, 1 - q(1)/R(1), cancels against the node nearest to it
    and takes that node's t (an mpmath check put its error at 5.8e-13 with
    the nearest node at 0.0198, eps / t^2 = 5.6e-13).
    """
    dv = 16.0 * (n + 1) * EPS / sep
    t = np.minimum(theta, TWO_PI - theta)
    t[0] = np.min(t[1:])
    rounding = 16.0 * EPS * (1.0 + 1.0 / t**2)
    return ((n + 1) + 2.0 / sep) * weights * b_theta + 2.0 * np.sqrt(weights) * dv + dv * dv + rounding


def check_ladder(levels, o, problems):
    """Every level against the oracle, and consecutive levels interlacing."""
    b_x = LADDER_TOL + 16 * (len(levels) + 1) * EPS
    for k, (got, want) in enumerate(zip(levels, o["xs"]), start=1):
        if got.shape != want.shape:
            problems.append(f"level {k} has {got.size} zeros")
            return
        err = float(np.max(np.abs(got - want)))
        if not err <= b_x:
            problems.append(f"level {k} zero off by {err:.3e} > {b_x:.3e}")
            return
    for k in range(1, len(levels)):
        lower, upper = levels[k - 1], levels[k]
        # upper[i] <= lower[i] <= upper[i+1], to the certification tolerance
        if np.any(upper[:-1] > lower + LADDER_TOL) or np.any(lower > upper[1:] + LADDER_TOL):
            problems.append(f"levels {k} and {k + 1} do not interlace")
            return
