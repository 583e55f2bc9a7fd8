"""Finite unitary CMV matrices and the para-orthogonal spectra they carry.

alpha_0..alpha_{k-1}, closed with a unimodular alpha_k = beta, give the
(k+1)x(k+1) unitary CMV matrix C = L M (Cantero-Moral-Velazquez, LAA 362
(2003); Simon, OPUC vol. 1 sections 4.1-4.2), where

    Theta_j = [[conj(alpha_j), rho_j], [rho_j, -alpha_j]],  rho_j = sqrt(1 - |alpha_j|^2),
    L = Theta_0 + Theta_2 + ...,   M = 1 + Theta_1 + Theta_3 + ...   (direct sums),

with the block of alpha_k cut to the 1x1 conj(beta).  The eigenvalues of C
are the zeros of the para-orthogonal polynomial z phi_k - conj(beta) phi_k*,
and the spectral measure of e_0 puts the mass |Q[0, j]|^2 on the j-th of them
for unit eigenvectors Q (Gauss-Szego quadrature).  The bijection's
beta = conj(tau_k) makes z = 1 one eigenvalue and the k zeros of R_k the
others.

Both come from one Hermitian eigenproblem.  With V = -e^{-i phi} C, the
Cayley transform H = i (1 - V)(1 + V)^{-1} is Hermitian with C's
eigenvectors, and an eigenvalue e^{i theta} of C becomes h = tan(psi/2),
psi = theta - phi - pi, so theta = phi - pi + 2 arctan(h) mod 2 pi.  H is
formed by one linear solve, made exactly Hermitian as (H + H^*)/2 and
handed to numpy.linalg.eigh (eigvalsh when no weight is needed); its
vectors are orthonormal to rounding, so the weights sum to one.  The pole
e^{i phi} must stay away from the spectrum: zeros._poles places it by Sturm
counts at least pi/(4(n+1)) from every eigenvalue of the (n+1)x(n+1) matrix,
so ||H|| <= cot(pi/(8(n+1))), about 2.5 (n+1), and eigh's backward error
moves an angle by O((n+1) eps).

An even period alpha_0..alpha_{p-1} also gives the p x p Floquet matrix
E(beta) = L M(beta) (Simon, OPUC vol. 2 chapter 11): the block of alpha_{p-1}
wraps from index p - 1 back to index 0 with the unimodular quasi-momentum
beta.  Its eigenvalues are the z = e^{i theta} where the discriminant
e^{-i p theta/2} Tr T_p(z) equals beta + 1/beta, so beta = +1 and beta = -1
give the band edges where it is +2 and -2.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cmv_matrix", "floquet_matrix", "para_orthogonal_angles", "gauss_szego"]


def _theta_sum(a: np.ndarray, rho: np.ndarray, first: int) -> np.ndarray:
    """Direct sum of the Theta_j with j = first, first + 2, ... (and a leading 1 if first = 1)."""
    size = a.size
    out = np.zeros((size, size), dtype=complex)
    if first:
        out[0, 0] = 1.0
    j = np.arange(first, size, 2)
    out[j, j] = np.conj(a[j])
    j = j[j < size - 1]
    out[j, j + 1] = rho[j]
    out[j + 1, j] = rho[j]
    out[j + 1, j + 1] = -a[j]
    return out


def _rho(a: np.ndarray) -> np.ndarray:
    r = np.abs(a)
    return np.sqrt((1.0 - r) * (1.0 + r))


def cmv_matrix(alpha, beta: complex) -> np.ndarray:
    """The (k+1)x(k+1) CMV matrix L M of alpha_0..alpha_{k-1} closed by |beta| = 1."""
    a = np.append(np.asarray(alpha, dtype=complex), complex(beta))
    rho = _rho(a[:-1])
    return _theta_sum(a, rho, 0) @ _theta_sum(a, rho, 1)


def floquet_matrix(alpha, beta: complex) -> np.ndarray:
    """The p x p Floquet CMV matrix L M(beta) of one even period alpha_0..alpha_{p-1}.

    M's last block is closed around the corner: M[p-1, p-1] = conj(alpha_{p-1}),
    M[0, 0] = -alpha_{p-1}, M[p-1, 0] = rho_{p-1} beta, M[0, p-1] = rho_{p-1}/beta.
    """
    a = np.asarray(alpha, dtype=complex)
    rho = _rho(a)
    m = _theta_sum(a, rho, 1)
    m[0, 0] = -a[-1]
    m[-1, 0] = rho[-1] * beta
    m[0, -1] = rho[-1] / beta
    return _theta_sum(a, rho, 0) @ m


def _cayley(alpha, beta: complex, pole: float, vectors: bool):
    """Ascending angles in [0, 2 pi) of the eigenvalues of C, from its Cayley
    transform with the pole at e^{i pole}, and with vectors the first
    components of its unit eigenvectors in the same order (else None)."""
    u = cmv_matrix(alpha, beta)
    eye = np.eye(u.shape[0])
    v = -np.exp(-1j * pole) * u
    h = 1j * np.linalg.solve(eye + v, eye - v)
    h = 0.5 * (h + h.conj().T)
    if vectors:
        x, q = np.linalg.eigh(h)
        first = q[0]
    else:
        x, first = np.linalg.eigvalsh(h), None
    theta = np.mod(pole - math.pi + 2.0 * np.arctan(x), 2.0 * math.pi)
    order = np.argsort(theta)
    return theta[order], None if first is None else first[order]


def _nearest_one(theta: np.ndarray) -> int:
    """Index of the angle nearest z = 1."""
    return int(np.argmin(np.minimum(theta, 2.0 * math.pi - theta)))


def para_orthogonal_angles(alpha, beta: complex, pole: float) -> np.ndarray:
    """Ascending angles of the eigenvalues of C, less the one nearest z = 1;
    pole is an angle far from every eigenvalue (see _cayley)."""
    theta = _cayley(alpha, beta, pole, vectors=False)[0]
    return np.delete(theta, _nearest_one(theta))


def gauss_szego(alpha, beta: complex, pole: float) -> tuple[np.ndarray, np.ndarray]:
    """Angles and weights of the spectral measure of e_0 under C.

    The eigenvalue nearest z = 1 comes first at angle exactly 0, then the
    others with ascending angles; the weight of each is |Q[0, j]|^2 for the
    unit eigenvectors Q of the Cayley transform with its pole at e^{i pole}.
    """
    theta, first = _cayley(alpha, beta, pole, vectors=True)
    j0 = _nearest_one(theta)
    w = np.abs(first) ** 2
    return np.concatenate([[0.0], np.delete(theta, j0)]), np.concatenate([[w[j0]], np.delete(w, j0)])
