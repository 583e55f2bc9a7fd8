"""Discrete approximating measures built on the para-orthogonal zeros.

psi_n is the Gauss-Szego rule of the (n+1)x(n+1) unitary CMV matrix of
alpha_0..alpha_{n-1} closed with alpha_n = conj(tau_n) (see cmv): its nodes
are z = 1 and the n zeros of R_n, and its weights lambda_{n,j} = |Q[0, j]|^2
come from the eigenvectors Q of the matrix's Hermitian Cayley transform H,
whose pole is that of level n of zeros._poles, so they are non-negative (deep
in a spectral gap one can round to 0.0, below the vectors' accuracy of about
n eps) and sum to one up to rounding.  The cumulative step function uses the
left-open/right-closed branches

    psi_n(0) = 0,   psi_n(theta) = sum_{j<=k} lambda_{n,j}
                    for theta in (theta_{n,k}, theta_{n,k+1}],

so the value at a jump angle is the limit from below plus nothing new: the
function is left-continuous at its jumps and psi_n(2 pi) = 1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bijection import SequencePair, _alpha_tau
from .cmv import gauss_szego
from .errors import InternalInvariant, InvalidParameters, NegativeWeight
from .zeros import _poles

__all__ = ["DiscreteMeasure", "quadrature", "moments", "step_eval"]

_SUM_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms of psi_n: theta[0] = 0 (the node z = 1), then the R_n zeros."""

    n: int
    theta: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray


def quadrature(pair: SequencePair, n: int) -> DiscreteMeasure:
    """Nodes and weights of psi_n; NegativeWeight for a weight below 0 (or NaN),
    InternalInvariant for weights that do not sum to 1 within 1e-10."""
    if not 1 <= n <= len(pair):
        raise InvalidParameters(f"need 1 <= n <= {len(pair)}, got {n}")
    alpha, tau = _alpha_tau(pair.c[:n], pair.m[1 : n + 1])
    theta, lam = gauss_szego(alpha, tau[n].conjugate(), _poles(pair, n)[-1])
    bad = np.flatnonzero(~(lam >= 0.0))
    if bad.size:
        raise NegativeWeight(int(bad[0]), float(lam[bad[0]]))
    total = float(np.sum(lam))
    if not abs(total - 1.0) <= _SUM_TOL:
        raise InternalInvariant(f"weights sum to {total!r}, not 1")
    return DiscreteMeasure(n=n, theta=theta, nodes=np.exp(1j * theta), weights=lam)


def moments(measure: DiscreteMeasure, k_max: int) -> np.ndarray:
    """mu_k = integral of conj(z)^k = sum_j lambda_j e^{-i k theta_j}, k = 0..k_max."""
    if not (isinstance(k_max, (int, np.integer)) and k_max >= 0):
        raise InvalidParameters(f"k_max = {k_max!r} must be an integer >= 0")
    k = np.arange(k_max + 1)
    return np.exp(-1j * np.outer(k, measure.theta)) @ measure.weights


def step_eval(measure: DiscreteMeasure, theta):
    """Evaluate the cumulative step function psi_n on [0, 2 pi]."""
    t = np.asarray(theta, dtype=float)
    scalar = t.shape == ()
    t = np.atleast_1d(t)
    if not np.all((t >= 0.0) & (t <= 2.0 * math.pi)):
        raise InvalidParameters("step_eval requires theta in [0, 2 pi]")
    jumps = measure.theta[1:]
    levels = np.concatenate([[measure.weights[0]], measure.weights[0] + np.cumsum(measure.weights[1:])])
    levels[-1] = 1.0
    idx = np.searchsorted(jumps, t, side="left")
    out = levels[idx]
    out = np.where(t == 0.0, 0.0, out)
    return float(out[0]) if scalar else out
