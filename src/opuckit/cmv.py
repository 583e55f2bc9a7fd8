"""Finite unitary CMV matrices and the para-orthogonal spectra they carry.

alpha_0..alpha_{k-1}, closed with a unimodular alpha_k = beta, give the
(k+1)x(k+1) unitary CMV matrix C = L M (Cantero-Moral-Velazquez, LAA 362
(2003); Simon, OPUC vol. 1 sections 4.1-4.2), where

    Theta_j = [[conj(alpha_j), rho_j], [rho_j, -alpha_j]],  rho_j = sqrt(1 - |alpha_j|^2),
    L = Theta_0 + Theta_2 + ...,   M = 1 + Theta_1 + Theta_3 + ...   (direct sums),

with the block of alpha_k cut to the 1x1 conj(beta).  The blocks of L and M
are offset by one, so every entry of C is a single product: rows 2j and
2j + 1 are Theta_{2j} times row 2j of M (rho_{2j-1}, -alpha_{2j-1} in columns
2j - 1, 2j) and row 2j + 1 (conj(alpha_{2j+1}), rho_{2j+1} in columns
2j + 1, 2j + 2), the five diagonals of Simon's section 4.2.  _product fills
them from these closed forms; M's leading 1 is the lower right entry of a
Theta_{-1} = diag(-1, 1).

The eigenvalues of C are the zeros of the para-orthogonal polynomial
z phi_k - conj(beta) phi_k*, and the spectral measure of e_0 puts the mass
|Q[0, j]|^2 on the j-th of them for unit eigenvectors Q (Gauss-Szego
quadrature).  The bijection's beta = conj(tau_k) makes z = 1 one eigenvalue
and the k zeros of R_k the others.  All levels k = 1..n come from one
(n+1)x(n+1) matrix U of alpha_0..alpha_{n-1}: level k is the leading block
U[:k+1, :k+1] with one line replaced, since conj(beta) = tau_k is the whole
cut block Theta_k.  For odd k, Theta_k lies in M, and column k becomes
L[:k+1, k] tau_k; for even k it lies in L, and row k becomes tau_k M[k, :k+1].
Either line is tau_k (rho_{k-1}, -alpha_{k-1}) at k - 1, k and 0 elsewhere,
which leaves two entries of the block to replace (cayley_level).

Both come from one Hermitian eigenproblem per level.  With V = -e^{-i phi} C
and g = (1 + V)^{-1}, the Cayley transform H = i (1 - V)(1 + V)^{-1}
= i (2 g - 1) is Hermitian with C's eigenvectors, and an eigenvalue
e^{i theta} of C becomes h = tan(psi/2), psi = theta - phi - pi, so
theta = phi - pi + 2 arctan(h) mod 2 pi (cayley_angles).  One inverse gives
g, whose Hermitian part i (g - g^*) is H made exactly Hermitian; it goes to
numpy.linalg.eigh (eigvalsh when no weight is needed), whose vectors are
orthonormal to rounding, so the weights sum to one.  The pole e^{i phi} must
stay away from the spectrum: zeros._poles places it by Sturm counts at least
pi/(4(n+1)) from every eigenvalue of the (n+1)x(n+1) matrix, so
||H|| <= cot(pi/(8(n+1))), about 2.5 (n+1), and eigh's backward error moves
an angle by O((n+1) eps).

An even period alpha_0..alpha_{p-1} also gives the p x p Floquet matrix
E(beta) = L M(beta) (Simon, OPUC vol. 2 chapter 11): the block of alpha_{p-1}
wraps from index p - 1 back to index 0 with the unimodular quasi-momentum
beta.  Its eigenvalues are the z = e^{i theta} where the discriminant
e^{-i p theta/2} Tr T_p(z) equals beta + 1/beta, so beta = +1 and beta = -1
give the band edges where it is +2 and -2.  The wrapped block makes column
-1 of the fill column p - 1 and column p column 0; at p = 2 these add to
entries of their own, since M is then full.

_product fills a stack of such matrices along a leading axis, so one fill
gives periodic E(+1), E(-1) and its candidate matrix (the CMV matrix of
alpha_0..alpha_{p-2}) at once; each layer is the matrix its single builder
gives, bit for bit.  cmv_matrix and floquet_matrix are the public
single-matrix wrappers over the same fill: they check alpha and beta
(errors), and floquet_matrix refuses an odd period.  periodic and zeros call
the fill unchecked.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameters, _check_disc, _check_unimodular

__all__ = ["cmv_matrix", "floquet_matrix", "cayley_level", "cayley_angles", "nearest_one"]


def _product(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L M of each row of a = (alpha_{-1}, alpha_0, ...) and of rho alike,
    stacked: with P = a.shape[1] // 2 row pairs, the array of shape
    (rows, 2P, 2P + 2) whose column c + 1 holds column c = -1..2P of L M (an
    odd size of L M fills one row more).

    Rows 2j, 2j + 1 in columns 2j - 1, 2j are column 0 of Theta_{2j} times
    row 1 of Theta_{2j-1}, and in columns 2j + 1, 2j + 2 column 1 of
    Theta_{2j} times row 0 of Theta_{2j+1}.  The 2 x 4 window of row pair j
    of a layer starts 2j (width + 1) entries into the layer's part of the
    buffer.  Entry (k, c) of Theta_{i-1} is entry 4 i + 2 k + c of its layer
    of theta, so both factors of every window are strided views of theta,
    and one multiply writes all windows through a strided view of the
    buffer.
    """
    rows, size = a.shape
    pairs = size // 2
    theta = np.zeros((rows, 2 * pairs + 1, 2, 2), dtype=complex)
    np.conjugate(a, out=theta[:, :size, 0, 0])
    theta[:, :size, 0, 1] = theta[:, :size, 1, 0] = rho
    np.negative(a, out=theta[:, :size, 1, 1])
    width = 2 * pairs + 2
    buf = np.zeros(rows * 2 * pairs * width, dtype=complex)
    item = buf.itemsize
    # window[r, j, k, h, c] is entry (k, h) of Theta_{2j} times entry
    # (1 - h, c) of Theta_{2j-1+2h}: entries 8j + 4 + 2k + h and
    # 8j + 2 + 6h + c of layer r of theta
    window = np.ndarray(
        (rows, pairs, 2, 2, 2), dtype=complex, buffer=buf,
        strides=(2 * pairs * width * item, 2 * (width + 1) * item, width * item, 2 * item, item),
    )
    layer = theta.strides[0]
    column = np.ndarray((rows, pairs, 2, 2, 1), dtype=complex, buffer=theta, offset=4 * item,
                        strides=(layer, 8 * item, 2 * item, item, 0))
    row = np.ndarray((rows, pairs, 1, 2, 2), dtype=complex, buffer=theta, offset=2 * item,
                     strides=(layer, 8 * item, 0, 6 * item, item))
    np.multiply(column, row, out=window)
    return buf.reshape(rows, 2 * pairs, width)


def _rho(a: np.ndarray) -> np.ndarray:
    r = np.abs(a)
    return np.sqrt((1.0 - r) * (1.0 + r))


def _floquet(alpha, betas, closure=None) -> np.ndarray:
    """E(beta) for each of betas, of one even period alpha_0..alpha_{p-1},
    stacked; with a closure, the CMV matrix of alpha_0..alpha_{p-2} closed by
    it follows as one more layer of the same fill.  Nothing is checked.

    M's last block is closed around the corner: M[p-1, p-1] = conj(alpha_{p-1}),
    M[0, 0] = -alpha_{p-1}, M[p-1, 0] = rho_{p-1} beta, M[0, p-1] = rho_{p-1}/beta.
    The closing layer is filled as _cmv fills it: a = (-1,
    alpha_0..alpha_{p-2}, closure) and rho = (0, rho_0..rho_{p-2}, 0).
    """
    alpha = np.asarray(alpha, dtype=complex)
    ring = slice(len(betas))
    shape = (len(betas) + (closure is not None), alpha.size + 1)
    a, rho = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    a[:, 0], a[:, 1:] = alpha[-1], alpha
    betas = np.asarray(betas, dtype=complex)
    rho[:, 1:] = r = _rho(alpha)
    rho[ring, 0] = r[-1] / betas
    np.multiply(rho[ring, -1], betas, out=rho[ring, -1])
    if closure is not None:
        a[-1, 0], a[-1, -1] = -1.0, closure
        rho[-1, 0] = rho[-1, -1] = 0.0
    out = _product(a, rho)
    u = out[..., 1:-1]
    last, first = u[ring, :, -1], u[ring, :, 0]
    np.add(last, out[ring, :, 0], out=last)
    np.add(first, out[ring, :, -1], out=first)
    return u


def _cmv(alpha, beta) -> np.ndarray:
    """cmv_matrix without its checks."""
    k = len(alpha)
    a = np.concatenate([[-1.0], alpha, [beta]])
    rho = np.concatenate([[0.0], _rho(a[1:-1]), [0.0]])
    return _product(a[None], rho[None])[0, : k + 1, 1 : k + 2]


def cmv_matrix(alpha, beta: complex) -> np.ndarray:
    """The (k+1)x(k+1) CMV matrix L M of alpha_0..alpha_{k-1} closed by |beta| = 1.

    InvalidParameters unless every |alpha_j| < 1 and beta is unimodular
    (see errors)."""
    a = _check_disc(alpha)
    return _cmv(a, _check_unimodular(beta, "beta"))


def floquet_matrix(alpha, beta: complex) -> np.ndarray:
    """The p x p Floquet CMV matrix L M(beta) of one even period alpha_0..alpha_{p-1}.

    InvalidParameters unless p is even and positive, every |alpha_j| < 1 and
    beta is unimodular (see errors)."""
    a = _check_disc(alpha)
    if a.size == 0 or a.size % 2:
        raise InvalidParameters(f"the Floquet matrix needs an even period p >= 2, got p = {a.size}")
    return _floquet(a, (_check_unimodular(beta, "beta"),))[0]


def cayley_level(u: np.ndarray, k: int, a: complex, tau: complex, pole: float, vectors: bool = False):
    """Ascending eigenvalues h of the Hermitian Cayley transform, pole
    e^{i pole}, of level k: the leading (k+1)x(k+1) block of u, a CMV matrix
    of alpha_0..alpha_{n-1}, n >= k, with its line k set to
    tau (rho_{k-1}, -alpha_{k-1}), a = alpha_{k-1}.  With vectors, also the
    first components of the unit eigenvectors in the same order (else None).
    """
    scale = -complex(math.cos(pole), -math.sin(pole))
    v = scale * u[: k + 1, : k + 1]
    r = abs(a)
    line = scale * tau * math.sqrt((1.0 - r) * (1.0 + r)), -scale * tau * a
    if k % 2:
        v[k - 1, k], v[k, k] = line
    else:
        v[k, k - 1], v[k, k] = line
    v.flat[:: k + 2] += 1.0
    g = np.linalg.inv(v)
    h = 1j * (g - g.conj().T)
    if vectors:
        x, q = np.linalg.eigh(h)
        return x, q[0]
    return np.linalg.eigvalsh(h), None


def cayley_angles(h, pole):
    """Angles in [0, 2 pi) of the eigenvalues h of a Cayley transform with
    its pole at e^{i pole}."""
    return np.mod(pole - math.pi + 2.0 * np.arctan(h), 2.0 * math.pi)


def nearest_one(theta: np.ndarray, first, last):
    """Index of the angle nearest z = 1 in each ascending run
    theta[first..last] of angles in [0, 2 pi): the run's first or its last."""
    ends = np.array([first, last])
    near = np.minimum(theta[ends], 2.0 * math.pi - theta[ends])
    return np.where(near[0] <= near[1], first, last)

