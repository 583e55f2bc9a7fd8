import math

import numpy as np
import pytest

from opuckit import make_pair, pair_to_verblunsky


def random_pair(rng, n, c_scale=0.5, m_lo=0.2, m_hi=0.8):
    """A pair with uniform c and minimal parameters away from 0 and 1.

    The default ranges keep consecutive zero levels separated well above
    1e-12 up to depth 60 or so; deeper ladders, or larger |c|, produce
    spectral gaps whose interior zeros cluster exponentially, until
    consecutive levels share a zero to rounding.
    """
    c = rng.uniform(-c_scale, c_scale, n)
    m = np.concatenate([[0.0], rng.uniform(m_lo, m_hi, n)])
    return make_pair(c, m=m)


def random_alpha(rng, n, radius=0.85):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    return tuple(r * np.exp(1j * phi))


def alternating_block(tilde, m):
    """One period of the paper's blocks, c_{2n} = -c_{2n-1} = c~_n, with
    minimal parameters m_1..m_p, mapped to alpha_0..alpha_{p-1}."""
    c = np.repeat(np.asarray(tilde, dtype=float), 2) * np.tile([-1.0, 1.0], len(tilde))
    return pair_to_verblunsky(make_pair(c, m=np.concatenate([[0.0], m]))).alpha


def alternating_alpha(rng, p, c_lo, c_hi, m_lo, m_hi):
    """alternating_block with c~ and m uniform on the given ranges."""
    tilde = rng.uniform(c_lo, c_hi, p // 2)
    return alternating_block(tilde, rng.uniform(m_lo, m_hi, p))


def cayley_node_bound(n):
    """What an eigenvalue angle of an (n+1)x(n+1) CMV matrix may be off by on
    the Cayley route of cmv: eigh's backward error, taken as 16 eps ||H|| (the
    16 (n+1) eps of the benchmark's bounds with ||U|| = 1 replaced by ||H||),
    with ||H|| <= cot(pi/(8(n+1))) for the pole that zeros._poles places,
    moves theta = pole - pi + 2 arctan(h) by at most twice that."""
    return 32.0 * np.finfo(float).eps / math.tan(math.pi / (8 * (n + 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)
