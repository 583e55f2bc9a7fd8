"""Symmetries of the correspondence: conjugation, rotation, unfolding.

Conjugating the measure flips the sign of every c_n and keeps the chain
sequence.  Rotating the measure by a unimodular beta multiplies alpha_n by
beta^{n+1}.  Unfolding applies to pairs whose c alternates in interleaved
couples (c_{2n} = -c_{2n-1}): a block-diagonal rotation built from
beta_n = -(1 + i c_{2n})/(1 - i c_{2n}) produces an equivalent pair whose c is
constant on each couple and whose odd-index minimal parameters flip to
1 - m_{2n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bijection import (
    SequencePair,
    VerblunskySequence,
    make_pair,
    pair_to_verblunsky,
    running_product,
)
from .errors import HypothesisViolated, _check_disc, _check_unimodular

__all__ = ["UnfoldingData", "conjugate_pair", "rotate_alpha", "unfold_alternating"]

_COUPLE_TOL = 1e-12


def conjugate_pair(pair: SequencePair) -> SequencePair:
    """The pair of the conjugated measure: (c, d) -> (-c, d)."""
    return SequencePair(c=tuple(-ck for ck in pair.c), chain=pair.chain)


def rotate_alpha(alpha, beta: complex) -> tuple[complex, ...]:
    """alpha_n -> beta^{n+1} alpha_n for |beta| = 1 (measure rotated by beta)
    and every |alpha_n| < 1."""
    beta = _check_unimodular(beta, "beta")
    if isinstance(alpha, VerblunskySequence):
        alpha = alpha.alpha
    a = _check_disc(alpha)
    return tuple((running_product(np.full(a.size, beta))[1:] * a).tolist())


@dataclass(frozen=True)
class UnfoldingData:
    beta: tuple[complex, ...]
    alpha_tilde: tuple[complex, ...]
    pair_tilde: SequencePair


def unfold_alternating(pair: SequencePair) -> UnfoldingData:
    """Unfold a pair with c_{2n} = -c_{2n-1} into its constant-couple form.

    Requires an even stored length (the couples must be complete) and
    |c_{2n} + c_{2n-1}| <= 1e-12.  Returns
    the rotation factors beta_n, the transformed reflection coefficients

        alpha~_{2k}   = (prod_{j<=k} beta_j^2) beta_{k+1} alpha_{2k}
        alpha~_{2k+1} = (prod_{j<=k+1} beta_j^2) alpha_{2k+1}      (0-based)

    and the pair they correspond to: c~_{2n-1} = c~_{2n} = c_{2n},
    m~_{2n-1} = 1 - m_{2n-1}, m~_{2n} = m_{2n}.
    """
    N = len(pair)
    if N == 0 or N % 2 != 0:
        raise HypothesisViolated(
            f"unfolding needs a complete even-length prefix, got length {N}"
        )
    for k in range(1, N // 2 + 1):
        if abs(pair.c[2 * k - 1] + pair.c[2 * k - 2]) > _COUPLE_TOL:
            raise HypothesisViolated(
                f"c_{2 * k} = {pair.c[2 * k - 1]!r} is not -c_{2 * k - 1} = "
                f"{-pair.c[2 * k - 2]!r}"
            )
    beta = tuple(
        -(1.0 + 1j * pair.c[2 * k - 1]) / (1.0 - 1j * pair.c[2 * k - 1])
        for k in range(1, N // 2 + 1)
    )
    b = np.array(beta)
    sq = running_product(b * b)  # sq[k] = prod_{j<k} beta_j^2
    alpha = np.array(pair_to_verblunsky(pair).alpha)
    alpha_tilde = np.empty(N, dtype=complex)
    alpha_tilde[0::2] = sq[:-1] * b * alpha[0::2]
    alpha_tilde[1::2] = sq[1:] * alpha[1::2]
    c_tilde: list[float] = []
    m_tilde: list[float] = [0.0]
    for k in range(1, N // 2 + 1):
        c_tilde.extend([pair.c[2 * k - 1], pair.c[2 * k - 1]])
        m_tilde.append(1.0 - pair.m[2 * k - 1])
        m_tilde.append(pair.m[2 * k])
    return UnfoldingData(
        beta=beta,
        alpha_tilde=tuple(alpha_tilde.tolist()),
        pair_tilde=make_pair(c_tilde, m=m_tilde),
    )
