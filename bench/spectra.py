"""The `periodic` workload: spectra of periodic blocks.

Every round runs:

* P16_PER_ROUND p = 16 blocks built the paper's way: c~ in [0.2, 1.0]
  periodic with c_{2n} = -c_{2n-1}, m periodic in [0.3, 0.7], two periods
  stored with tail_period = 16.  Each goes through pair_to_verblunsky,
  is_periodic_pair, full_spectrum, normalization_report and
  maximal_parameters.
* P2_PER_ROUND p = 2 blocks of the period-two family, (c, b1, b2) drawn in
  turn from the cells of a 4 x 4 x 4 grid over c in [0.2, 1.6] and b1, b2 in
  [-0.8, 0.8].  Each goes through full_spectrum and normalization_report.

p = 2 is dominated by per-call overhead, p = 16 by the O(p^2) scans.
"""

from __future__ import annotations

import math

import numpy as np

import harness
import oracles

P = 16
P16_PER_ROUND = 2
P2_PER_ROUND = 8
POOL = 128
C_CELLS = np.linspace(0.2, 1.6, 5)
B_CELLS = np.linspace(-0.8, 0.8, 5)

EPS = oracles.EPS
TWO_PI = oracles.TWO_PI

# what the program is asked for: the bisection tolerance of the band-edge and
# candidate scans, full_spectrum's candidate tolerance on |tau_p(w) - 1|,
# is_periodic_pair's tolerance, maximal_parameters' convergence tolerance,
# and scipy quad's default absolute tolerance in each half-band integral
SCAN_TOL = 1e-12
CANDIDATE_TOL = 1e-6
PERIODIC_TOL = 1e-10
CHAIN_TOL = 1e-12
QUAD_EPSABS = 1.49e-8

# Admission of blocks (see README, "Workloads and their inputs").  A candidate
# w located to SCAN_TOL in angle meets |tau_p(w) - 1| <= CANDIDATE_TOL only
# when tau_p turns slower than CANDIDATE_TOL / SCAN_TOL there.  A candidate
# within EDGE_DELTA_MIN of |Delta| = 2 (a gap closing on a zero of pi) puts a
# near-pole of the density at a band edge, which the band integrals do not
# resolve to quad's tolerance.  Blocks outside either limit are skipped.
SLOPE_MAX = CANDIDATE_TOL / SCAN_TOL
EDGE_DELTA_MIN = 1e-8

# a mass found at a candidate located to SCAN_TOL; the period-two masses move
# by less than 1e2 per radian of candidate error in this parameter range
MASS_TOL = 1e2 * 4 * SCAN_TOL + 1e-12


class Block:
    """One periodic block; its oracle data are computed on first use."""

    def __init__(self, label, alpha, pair=None, c=None, m=None, family=None):
        self.label = label
        self.alpha = alpha  # one period, from the oracle
        self.pair = pair
        self.c = c
        self.m = m
        self.family = family  # (c, b1, b2) for the period-two family
        self._ready = False

    def _prepare(self):
        alpha = self.alpha
        p = len(alpha)
        self.candidates = oracles.candidate_points(alpha)
        slope = oracles.blaschke_slope(oracles.phi_zeros(alpha), self.candidates)
        self.slope = float(np.max(slope))
        self.edge_delta = float(
            np.min(np.abs(oracles.discriminant(alpha, self.candidates).real) - 2.0)
        )
        self.grid = np.linspace(0.0, TWO_PI, 64 * p, endpoint=False)
        self.delta_grid = oracles.discriminant(alpha, self.grid).real
        norm = oracles.transfer_norm_bound(alpha)
        top = float(np.max(np.abs(self.delta_grid)))
        # |Delta| is evaluated with a rounding error below 16 p eps times the
        # norm bound of the transfer product; an edge located to within
        # 4 SCAN_TOL moves Delta by at most that times (p/2) max|Delta|, the
        # Bernstein bound on Delta
        self.delta_tol = 16 * p * EPS * norm + 4 * SCAN_TOL * 0.5 * p * top
        szego_scale = float(np.prod(1.0 + np.abs(np.asarray(alpha))))
        # pi is a degree-p polynomial bounded by 2 prod(1 + |a|) on the circle
        self.pi_tol = (8 * SCAN_TOL * p + 16 * p * EPS) * szego_scale
        self._ready = True

    def admitted(self) -> bool:
        if not self._ready:
            self._prepare()
        return self.slope <= SLOPE_MAX and self.edge_delta >= EDGE_DELTA_MIN


def generate(seed: int, opuckit, work=None):
    rng = np.random.default_rng([seed, 2])
    blocks16 = []
    for i in range(POOL):
        tilde = rng.uniform(0.2, 1.0, P // 2)
        c1 = np.empty(P)
        c1[0::2] = -tilde
        c1[1::2] = tilde
        m1 = rng.uniform(0.3, 0.7, P)
        c = np.tile(c1, 2)
        m = np.concatenate([[0.0], np.tile(m1, 2)])
        pair = opuckit.make_pair(c, m=m, tail_period=P)
        alpha, _ = oracles.alpha_tau(c, m)
        blocks16.append(Block(f"seed {seed} p16 {i}", tuple(complex(a) for a in alpha[:P]),
                              pair=pair, c=c, m=m))
    blocks2 = []
    cells = len(C_CELLS) - 1
    for i in range(POOL):
        k = i % cells**3
        ci, b1i, b2i = k // cells**2, (k // cells) % cells, k % cells
        c = rng.uniform(C_CELLS[ci], C_CELLS[ci + 1])
        b1 = rng.uniform(B_CELLS[b1i], B_CELLS[b1i + 1])
        b2 = rng.uniform(B_CELLS[b2i], B_CELLS[b2i + 1])
        alpha = tuple(complex(a) for a in oracles.period_two_alpha(c, b1, b2))
        blocks2.append(Block(f"seed {seed} p2 {i} (c, b1, b2) = ({c:.4f}, {b1:.4f}, {b2:.4f})",
                             alpha, family=(c, b1, b2)))
    return {"p16": blocks16, "p2": blocks2}


# the end-to-end metrics of this workload, by operation kind
E2E = {"op1_s": "spectrum_p2", "op2_s": "spectrum_p16", "op3_s": "normalization_p16"}


class Workload(harness.Workload):
    def __init__(self, seed, opuckit, inputs, work, traced):
        self.ok = opuckit
        self.admission = harness.Admission(inputs)

    def round(self, runner):
        for _ in range(P16_PER_ROUND):
            self._block16(runner, self.admission.next("p16"))
        for _ in range(P2_PER_ROUND):
            self._block2(runner, self.admission.next("p2"))

    def _block16(self, runner, b):
        ok = self.ok
        runner.run("verblunsky_p16", b.label, lambda: ok.pair_to_verblunsky(b.pair),
                   lambda r: check_verblunsky(b, r))
        runner.run("periodicity_p16", b.label, lambda: ok.is_periodic_pair(b.pair, P),
                   check_periodicity)
        spec = runner.run("spectrum_p16", b.label, lambda: ok.full_spectrum(b.alpha),
                          lambda r: check_spectrum(b, r))
        if spec is None:
            runner.skip("normalization_p16", b.label, "its spectrum failed")
            runner.skip("maximal_p16", b.label, "its spectrum failed")
            return
        runner.run("normalization_p16", b.label,
                   lambda: ok.normalization_report(b.alpha, spec),
                   lambda r: check_normalization(b, spec, r))
        runner.run("maximal_p16", b.label, lambda: ok.maximal_parameters(b.pair.chain),
                   lambda r: check_maximal(b, spec, r))

    def _block2(self, runner, b):
        ok = self.ok
        spec = runner.run("spectrum_p2", b.label, lambda: ok.full_spectrum(b.alpha),
                          lambda r: check_spectrum(b, r) + check_period_two(b, r))
        if spec is None:
            runner.skip("normalization_p2", b.label, "its spectrum failed")
            return
        runner.run("normalization_p2", b.label,
                   lambda: ok.normalization_report(b.alpha, spec),
                   lambda r: check_normalization(b, spec, r))


# ------------------ checks ------------------ #


def circle_distance(a, b):
    """Distance between angles on the circle."""
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + math.pi, TWO_PI) - math.pi)


def alpha_tol(k):
    """alpha_k and tau_k from k unimodular factors, each rounded to a few eps."""
    return 16.0 * (np.asarray(k) + 1) * EPS


def check_verblunsky(b, vs):
    problems = []
    alpha = np.asarray(vs.alpha, dtype=complex)
    tau = np.asarray(vs.tau, dtype=complex)
    want_a, want_t = oracles.alpha_tau(b.c, b.m)
    k = np.arange(alpha.size)
    if alpha.shape != want_a.shape or tau.shape != want_t.shape:
        return [f"{alpha.size} coefficients, expected {want_a.size}"]
    if np.any(~(np.abs(alpha - want_a) <= alpha_tol(k))):
        problems.append(f"alpha off by {np.max(np.abs(alpha - want_a)):.3e}")
    if np.any(~(np.abs(tau - want_t) <= alpha_tol(np.arange(tau.size)))):
        problems.append(f"tau off by {np.max(np.abs(tau - want_t)):.3e}")
    # the paper's theorem: c_{2n} = -c_{2n-1} with periodic c~ and m gives
    # alpha_{n+p} = alpha_n
    drift = np.abs(alpha[P:] - alpha[:-P])
    if np.any(~(drift <= 2 * alpha_tol(k[P:]))):
        problems.append(f"alpha not {P}-periodic: {np.max(drift):.3e}")
    return problems


def check_periodicity(rep):
    problems = []
    if not rep.ok or rep.p != P or rep.checked != P:
        problems.append(f"periodicity report {rep!r}")
    if not (rep.arg_residual <= PERIODIC_TOL and rep.modulus_residual <= PERIODIC_TOL):
        problems.append(f"residuals {rep.arg_residual!r}, {rep.modulus_residual!r}")
    return problems


def check_spectrum(b, spec):
    problems = []
    p = len(b.alpha)
    if spec.p != p or len(spec.bands) != p:
        return [f"{len(spec.bands)} bands for period {p}"]
    if len(spec.plus_solutions) != p or len(spec.minus_solutions) != p:
        problems.append(
            f"{len(spec.plus_solutions)} / {len(spec.minus_solutions)} solutions of Delta = +-2"
        )
    # |Delta| = 2 with the right sign at each of the 2p edges
    for band in spec.bands:
        if not 0.0 < band.hi - band.lo < TWO_PI:
            problems.append(f"band [{band.lo!r}, {band.hi!r}]")
            continue
        d = oracles.discriminant(b.alpha, np.array([band.lo, band.hi])).real
        want = 2.0 * np.array([band.lo_sign, band.hi_sign])
        if np.any(~(np.abs(d - want) <= b.delta_tol)):
            problems.append(f"Delta = {d!r} at band edges, expected {want!r}")
    # the bands are exactly where |Delta| < 2, sampled on a grid
    inside = np.zeros(b.grid.size, dtype=bool)
    for band in spec.bands:
        t = np.mod(b.grid - band.lo, TWO_PI)
        inside |= t <= band.hi - band.lo
    clear_in = np.abs(b.delta_grid) < 2.0 - b.delta_tol
    clear_out = np.abs(b.delta_grid) > 2.0 + b.delta_tol
    if np.any(clear_in & ~inside) or np.any(clear_out & inside):
        problems.append("bands disagree with |Delta| < 2 on the sample grid")
    # candidates: the p zeros of pi, each located to the scan tolerance
    cand = np.asarray(spec.candidate_thetas, dtype=float)
    if cand.size != p:
        problems.append(f"{cand.size} candidates, expected {p}")
    else:
        dist = circle_distance(cand[:, None], b.candidates[None, :])
        nearest = np.argmin(dist, axis=1)
        err = dist[np.arange(p), nearest]
        if len(set(nearest.tolist())) != p or np.any(~(err <= 4 * SCAN_TOL + 32 * p * EPS)):
            problems.append(f"candidate off by {float(np.max(err)):.3e}")
    # pure points lie where |Delta| > 2 and pi = 0, outside every band
    for pp in spec.pure_points:
        d = abs(float(oracles.discriminant(b.alpha, np.array([pp.theta])).real[0]))
        phi, star = oracles.szego(b.alpha, np.array([np.exp(1j * pp.theta)]))
        pi = abs(complex(star[0] - phi[0]))
        if not d > 2.0 - b.delta_tol:
            problems.append(f"pure point at {pp.theta!r} has |Delta| = {d!r}")
        if not pi <= b.pi_tol:
            problems.append(f"pure point at {pp.theta!r} has |pi| = {pi:.3e}")
        if not 0.0 < pp.mass <= 1.0:
            problems.append(f"pure point mass {pp.mass!r}")
    return problems


def period_two_problems(family, band_edges, points):
    """The period-two closed forms for the band edges and the pure points.

    band_edges: the 2p = 4 edge angles in any order; points: (theta, mass).
    """
    c, b1, b2 = family
    problems = []
    edges = oracles.period_two_edges(c, b1, b2)
    got = np.sort(np.mod(np.asarray(band_edges, dtype=float), TWO_PI))
    # acos turns an argument rounded to a few eps into an angle error of
    # about 8 eps / |sin t|
    tol = 4 * SCAN_TOL + 8 * EPS / np.maximum(np.abs(np.sin(edges)), EPS)
    if got.size != 4 or np.any(~(circle_distance(got, edges) <= tol)):
        problems.append(f"band edges {got!r}, closed form {edges!r}")
    want = oracles.period_two_masses(c, b1, b2)
    if len(points) != len(want):
        return problems + [f"{len(points)} pure points, closed form {len(want)}"]
    for theta, mass in want:
        got_theta, got_mass = min(points, key=lambda pt: float(circle_distance(pt[0], theta)))
        if not circle_distance(got_theta, theta) <= 4 * SCAN_TOL + 64 * EPS:
            problems.append(f"pure point at {got_theta!r}, closed form {theta!r}")
        if not abs(got_mass - mass) <= MASS_TOL:
            problems.append(f"mass {got_mass!r}, closed form {mass!r}")
    return problems


def check_period_two(b, spec):
    edges = [e for band in spec.bands for e in (band.lo, band.hi)]
    return period_two_problems(b.family, edges, [(pp.theta, pp.mass) for pp in spec.pure_points])


def normalization_problems(report, masses, p):
    """Total mass 1; the point mass is the sum of the listed masses, each of
    them known to MASS_TOL."""
    # 2p half-band integrals, each asked of quad to QUAD_EPSABS, over 2 pi
    tol = 2 * p * QUAD_EPSABS / TWO_PI + 8 * p * EPS
    problems = []
    if not abs(report["total"] - 1.0) <= tol:
        problems.append(f"total mass {report['total']!r}")
    point_tol = len(masses) * MASS_TOL + 4 * p * EPS
    if not abs(report["point_mass"] - sum(masses)) <= point_tol or not report["ac_mass"] >= 0.0:
        problems.append(f"ac {report['ac_mass']!r}, point {report['point_mass']!r}")
    return problems


def check_normalization(b, spec, rep):
    return normalization_problems(rep, [pp.mass for pp in spec.pure_points], len(b.alpha))


def check_maximal(b, spec, maximal):
    """The chain's M_0 is the mass at z = 1; compare with the periodic route."""
    at_one = [pp.mass for pp in spec.pure_points if circle_distance(pp.theta, 0.0) <= 1e-9]
    mass = at_one[0] if at_one else 0.0
    m0 = maximal.M[0]
    if not abs(m0 - mass) <= 10 * CHAIN_TOL + MASS_TOL:
        return [f"M_0 = {m0!r}, mass at z = 1 = {mass!r}"]
    if len(maximal.M) != len(b.pair) + 1 or maximal.tail_depth < 1:
        return [f"maximal parameters of length {len(maximal.M)}, depth {maximal.tail_depth}"]
    return []
