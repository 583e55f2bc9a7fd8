"""Reference computations that share no code with opuckit.

Each oracle follows a textbook route that differs from the program's:

* alpha and tau from (c, m) by a vectorised product (the program loops);
* psi_n from the eigen-decomposition of the (n+1)x(n+1) unitary GGT matrix
  whose last coefficient is the unimodular alpha_n := conj(tau_n) (Simon,
  OPUC vol. 1 sec. 4.1-4.2; Cantero-Moral-Velazquez, LAA 362 (2003)): the
  nodes are the eigenvalues and the weights |Z[0, j]|^2 (the program brackets
  the zeros of a real trigonometric recurrence and evaluates Christoffel-type
  quotients);
* Delta(theta) by the 2x2 transfer product, pi(z) = phi_p*(z) - phi_p(z) by
  the Szego recurrence, both vectorised over the evaluation points;
* the period-two closed forms for Delta, the band edges and the masses.

Only numpy and scipy.linalg are used.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import schur

EPS = float(np.finfo(float).eps)
TWO_PI = 2.0 * math.pi


def alpha_tau(c, m):
    """alpha_0..alpha_{N-1} and tau_0..tau_N from c_1..c_N and m_0..m_N."""
    c = np.asarray(c, dtype=float)
    m = np.asarray(m, dtype=float)
    factors = (1.0 - 1j * c) / (1.0 + 1j * c)
    tau = np.concatenate([[1.0 + 0.0j], np.cumprod(factors)])
    tau /= np.abs(tau)
    alpha = np.conj(tau[:-1]) * (1.0 - 2.0 * m[1:] - 1j * c) / (1.0 - 1j * c)
    return alpha, tau


def ggt_matrix(alpha) -> np.ndarray:
    """GGT (Hessenberg) matrix of alpha_0..alpha_{N-1}; unitary when |alpha_{N-1}| = 1.

    G[k, l] = -conj(alpha_l) alpha_{k-1} prod_{j=k}^{l-1} rho_j for k <= l,
    G[l + 1, l] = rho_l, zero below, with alpha_{-1} = -1.
    """
    alpha = np.asarray(alpha, dtype=complex)
    N = alpha.size
    rho = np.sqrt(np.maximum(0.0, 1.0 - np.abs(alpha) ** 2))
    log_cum = np.concatenate([[0.0], np.cumsum(np.log(rho[: N - 1]))])
    k = np.arange(N)
    upper = k[:, None] <= k[None, :]
    span = np.where(upper, log_cum[None, :] - log_cum[:, None], -np.inf)
    prev = np.concatenate([[-1.0 + 0.0j], alpha[:-1]])
    G = -np.conj(alpha)[None, :] * prev[:, None] * np.exp(span)
    G[k[1:], k[:-1]] = rho[:-1]
    return G


def psi_nodes_weights(alpha, tau_n):
    """Nodes (angles in [0, 2 pi), ascending) and weights of psi_n.

    alpha holds alpha_0..alpha_{n-1}; the closing coefficient conj(tau_n)
    puts a node at z = 1.
    """
    full = np.concatenate([np.asarray(alpha, dtype=complex), [np.conj(tau_n)]])
    T, Z = schur(ggt_matrix(full), output="complex")
    theta = np.mod(np.angle(np.diag(T)), TWO_PI)
    weights = np.abs(Z[0, :]) ** 2
    order = np.argsort(theta)
    theta = theta[order]
    weights = weights[order]
    # the node at z = 1 may come out just below 2 pi
    if TWO_PI - theta[-1] < theta[0]:
        theta = np.concatenate([[theta[-1] - TWO_PI], theta[:-1]])
        weights = np.concatenate([[weights[-1]], weights[:-1]])
    return theta, weights


def level_angles(alpha, tau, k):
    """The k zeros of R_k (the level-k ladder) as angles in (0, 2 pi), ascending."""
    full = np.concatenate([np.asarray(alpha[:k], dtype=complex), [np.conj(tau[k])]])
    ev = np.linalg.eigvals(ggt_matrix(full))
    theta = np.sort(np.mod(np.angle(ev), TWO_PI))
    # drop the eigenvalue at z = 1 (theta near 0 or near 2 pi)
    dist = np.minimum(theta, TWO_PI - theta)
    return np.delete(theta, int(np.argmin(dist)))


def phi_zeros(alpha):
    """Zeros of the monic phi_p: eigenvalues of the p x p truncated GGT matrix."""
    return np.linalg.eigvals(ggt_matrix(alpha))


def candidate_points(alpha):
    """The p circle zeros of pi(z) = phi_p*(z) - phi_p(z).

    pi(z) = 0 is z phi_{p-1} - conj(beta) phi_{p-1}* = 0 with the unimodular
    beta = (1 + alpha_{p-1})/(1 + conj(alpha_{p-1})), so the zeros are the
    eigenvalues of the unitary GGT matrix closed by beta.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = (1.0 + alpha[-1]) / (1.0 + np.conj(alpha[-1]))
    ev = np.linalg.eigvals(ggt_matrix(np.concatenate([alpha[:-1], [beta]])))
    return np.sort(np.mod(np.angle(ev), TWO_PI))


def blaschke_slope(zeros, theta):
    """|d/dtheta| of the Blaschke product with the given zeros at e^{i theta}.

    This is the rate at which tau_p(w), the unimodular quantity that equals 1
    at a point-mass candidate, turns as w moves along the circle.
    """
    w = np.exp(1j * np.asarray(theta, dtype=float))
    z = np.asarray(zeros, dtype=complex)
    return np.sum((1.0 - np.abs(z[None, :]) ** 2) / np.abs(w[:, None] - z[None, :]) ** 2, axis=1)


def szego(alpha, z):
    """Monic phi_p and phi_p* at the points z."""
    z = np.asarray(z, dtype=complex)
    phi = np.ones_like(z)
    star = np.ones_like(z)
    for a in alpha:
        phi, star = z * phi - np.conj(a) * star, star - a * z * phi
    return phi, star


def discriminant(alpha, theta):
    """Delta(theta) = e^{-i p theta/2} Tr T_p(e^{i theta}), complex-valued.

    T_p is the product of rho^{-1} [[z, -conj a], [-a z, 1]] over one period.
    """
    theta = np.asarray(theta, dtype=float)
    z = np.exp(1j * theta)
    M = np.zeros(theta.shape + (2, 2), dtype=complex)
    M[..., 0, 0] = 1.0
    M[..., 1, 1] = 1.0
    for a in np.asarray(alpha, dtype=complex):
        A = np.empty_like(M)
        A[..., 0, 0] = z
        A[..., 0, 1] = -np.conj(a)
        A[..., 1, 0] = -a * z
        A[..., 1, 1] = 1.0
        M = (A @ M) / math.sqrt(1.0 - abs(a) ** 2)
    p = len(alpha)
    return np.exp(-0.5j * p * theta) * (M[..., 0, 0] + M[..., 1, 1])


def transfer_norm_bound(alpha) -> float:
    """prod_j (1 + |a_j|)/rho_j, a bound on the norm of every partial product."""
    a = np.abs(np.asarray(alpha, dtype=complex))
    return float(np.prod((1.0 + a) / np.sqrt(1.0 - a**2)))


# ------------------ period-two closed forms ------------------ #


def period_two_alpha(c, b1, b2):
    den = 1.0 + 1j * c
    return np.array([(b1 + 1j * c) / den, (b2 - 1j * c) / den])


def period_two_discriminant(c, b1, b2, theta):
    scale = math.sqrt((1.0 - b1 * b1) * (1.0 - b2 * b2))
    return 2.0 * ((1.0 + c * c) * np.cos(theta) + b1 * b2 - c * c) / scale


def period_two_edges(c, b1, b2):
    """The four band edges t1+, t1-, 2 pi - t1-, 2 pi - t1+ in ascending order."""
    root = math.sqrt((1.0 - b1 * b1) * (1.0 - b2 * b2))
    den = 1.0 + c * c
    t_plus = math.acos((root + c * c - b1 * b2) / den)
    t_minus = math.acos((-root + c * c - b1 * b2) / den)
    return np.array([t_plus, t_minus, TWO_PI - t_minus, TWO_PI - t_plus])


def period_two_weight(c, b1, b2, theta):
    """The absolutely continuous density inside the bands."""
    scale = (1.0 - b1 * b1) * (1.0 - b2 * b2)
    x = (1.0 + c * c) * np.cos(theta) + b1 * b2 - c * c
    den = np.abs((1.0 + b2) * (np.sin(theta) + c * (1.0 - np.cos(theta))))
    return np.sqrt(scale - x * x) / den


def period_two_masses(c, b1, b2):
    """(angle, mass) of the point masses: z = 1 when b1 + b2 > 0, and
    z = -(1 + ic)/(1 - ic) when b2 > b1."""
    out = []
    if b1 + b2 > 0.0:
        out.append((0.0, (b1 + b2) / (1.0 + b2)))
    if b2 > b1:
        w = -(1.0 + 1j * c) / (1.0 - 1j * c)
        out.append((math.atan2(w.imag, w.real) % TWO_PI, (b2 - b1) / (1.0 + b2)))
    return out


# ------------------ self-test ------------------ #


def self_test() -> None:
    """Check the oracles on cases with known answers; RuntimeError on a mismatch."""
    problems = []
    for n in (6, 40):
        # alpha = 0 (c = 0, m = 1/2): psi_n is the n+1 roots of unity, equal weights
        alpha, tau = alpha_tau(np.zeros(n), np.concatenate([[0.0], np.full(n, 0.5)]))
        theta, w = psi_nodes_weights(alpha, tau[n])
        want = TWO_PI * np.arange(n + 1) / (n + 1)
        if np.max(np.abs(theta - want)) > 64 * (n + 1) * EPS:
            problems.append(f"roots of unity, n = {n}")
        if np.max(np.abs(w - 1.0 / (n + 1))) > 64 * (n + 1) * EPS:
            problems.append(f"equal weights, n = {n}")
    # the GGT eigenvalues are zeros of the para-orthogonal polynomial, which
    # the independent Szego recurrence evaluates
    rng = np.random.default_rng(0)
    n = 24
    c = rng.uniform(-1.0, 1.0, n)
    m = np.concatenate([[0.0], rng.uniform(0.2, 0.8, n)])
    alpha, tau = alpha_tau(c, m)
    theta, w = psi_nodes_weights(alpha, tau[n])
    z = np.exp(1j * theta)
    phi, star = szego(alpha, z)
    scale = np.prod(1.0 + np.abs(alpha))
    if np.max(np.abs(z * phi - tau[n] * star)) > 64 * (n + 1) * EPS * scale:
        problems.append("para-orthogonal residual")
    if abs(np.sum(w) - 1.0) > 64 * (n + 1) * EPS or abs(theta[0]) > 64 * (n + 1) * EPS:
        problems.append("psi_n mass or node at z = 1")
    # transfer-product discriminant against the period-two closed form
    t = np.linspace(0.0, TWO_PI, 97)
    for c2, b1, b2 in ((1.0, 0.3, 0.5), (0.4, -0.6, 0.2)):
        a2 = period_two_alpha(c2, b1, b2)
        d = discriminant(a2, t)
        if np.max(np.abs(d - period_two_discriminant(c2, b1, b2, t))) > 1e-13:
            problems.append(f"period-two discriminant {c2, b1, b2}")
        edges = period_two_edges(c2, b1, b2)
        if np.max(np.abs(np.abs(discriminant(a2, edges).real) - 2.0)) > 1e-12:
            problems.append(f"period-two band edges {c2, b1, b2}")
    if problems:
        raise RuntimeError("oracle self-test failed: " + ", ".join(problems))
