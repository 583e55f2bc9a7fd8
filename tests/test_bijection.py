"""The two directions of the sequence-pair / reflection-coefficient map."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opuckit import (
    SequencePair,
    VerblunskySequence,
    make_pair,
    pair_to_verblunsky,
    tau_from_c,
    verblunsky_to_pair,
)
from opuckit.bijection import RENORM_EVERY
from opuckit.errors import InvalidParameters
from conftest import random_alpha, random_pair

EPS = np.finfo(float).eps


def test_real_alpha_gives_zero_c():
    # with real alpha every u = tau alpha stays real, so c = 0 and
    # m_n = (1 - u)^2 / (2 (1 - u)) = (1 - alpha_{n-1})/2 ... evaluated by hand:
    # u = 1/2 -> m = 1/4; u = 1/3 -> m = 1/3; u = 1/4 -> m = 3/8
    pair = verblunsky_to_pair([0.5, 1.0 / 3.0, 0.25])
    assert max(abs(v) for v in pair.c) == 0.0
    expect_m = (0.0, 0.25, 1.0 / 3.0, 0.375)
    assert max(abs(a - b) for a, b in zip(pair.m, expect_m)) < 1e-15
    # the d rebuilt from those m is constant 1/4
    assert max(abs(dn - 0.25) for dn in pair.d) < 1e-15


def test_forward_real_case():
    # c = 0 keeps tau = 1, so alpha_{n-1} = 1 - 2 m_n
    pair = make_pair([0.0, 0.0], m=[0.0, 0.25, 1.0 / 3.0])
    vs = pair_to_verblunsky(pair)
    assert np.allclose(vs.alpha, [0.5, 1.0 / 3.0], atol=1e-15)
    assert np.allclose(vs.tau, [1.0, 1.0, 1.0], atol=1e-15)


def test_tau_from_c_single_unit():
    # (1 - i)/(1 + i) = -i
    tau = tau_from_c([1.0])
    assert tau[0] == 1.0 + 0.0j
    assert abs(tau[1] - (-1j)) < 1e-15


def test_tau_matches_forward_map(rng):
    pair = random_pair(rng, 30)
    vs = pair_to_verblunsky(pair)
    assert np.allclose(vs.tau, tau_from_c(pair.c), atol=1e-13)
    assert all(abs(abs(t) - 1.0) < 1e-13 for t in vs.tau)


def test_round_trip_pair_to_alpha_to_pair(rng):
    for _ in range(20):
        pair = random_pair(rng, 30)
        back = verblunsky_to_pair(pair_to_verblunsky(pair).alpha)
        assert max(abs(a - b) for a, b in zip(back.c, pair.c)) < 1e-10
        assert max(abs(a - b) for a, b in zip(back.m, pair.m)) < 1e-10


def test_round_trip_alpha_to_pair_to_alpha(rng):
    for _ in range(20):
        alpha = random_alpha(rng, 30)
        again = pair_to_verblunsky(verblunsky_to_pair(alpha)).alpha
        assert max(abs(a - b) for a, b in zip(again, alpha)) < 1e-10


def test_alpha_modulus_below_one_automatic(rng):
    pair = random_pair(rng, 60)
    vs = pair_to_verblunsky(pair)
    assert max(abs(a) for a in vs.alpha) < 1.0


def round_trip_bounds(c, m, alpha):
    """First-order bounds on the errors of c_n and m_n after a round trip.

    The backward map reads u_n = t_{n-1} alpha_{n-1}, so a relative error E
    of t_{n-1} (a phase error) rotates u_n by E, and t_n = t_{n-1}
    (1 - conj u_n)/(1 - u_n) passes it on times 1 + 2|u_n|/|1 - u_n| <=
    (1 + |u_n|)/(1 - |u_n|).  Each step of either direction adds a few
    roundings to tau, alpha, u and t, 8 eps in all.  c = -Im u/(1 - Re u)
    and m = |1 - u|^2/(2 (1 - Re u)) then move by |grad c| = (1 + c^2)^1.5/(2 m)
    and |grad m| <= (1 + c^2)/2 + |c| per unit of u, and round a few times.
    """
    c, m, u = np.asarray(c), np.asarray(m[1:]), np.abs(np.asarray(alpha))
    E = np.empty(len(c))
    e = 8 * EPS
    for n in range(len(c)):
        E[n] = e
        e = e * (1.0 + u[n]) / (1.0 - u[n]) + 8 * EPS
    h = 1.0 + c * c
    return h**1.5 / (2.0 * m) * E + 4 * EPS * np.abs(c), (h / 2 + np.abs(c)) * E + 4 * EPS * m


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 0.95)),
        min_size=1,
        max_size=15,
    )
)
# |u| = 0.875 from the fourth step on multiplies the phase error by 15 a step:
# c comes back off by 1.7e-9, far above rounding and within the bound
@example([(1.25, 0.125)] + [(0.0, 0.125)] * 2 + [(0.0, 0.0625)] * 4)
def test_round_trip_property(cm):
    c = [t[0] for t in cm]
    m = [0.0] + [t[1] for t in cm]
    pair = make_pair(c, m=m)
    alpha = pair_to_verblunsky(pair).alpha
    back = verblunsky_to_pair(alpha)
    bound_c, bound_m = round_trip_bounds(c, m, alpha)
    assert np.all(np.abs(np.array(back.c) - c) <= bound_c)
    assert np.all(np.abs(np.array(back.m[1:]) - m[1:]) <= bound_m)


def test_backward_rejects_modulus_one():
    with pytest.raises(InvalidParameters):
        verblunsky_to_pair([0.5, 1.0])


# 1 - Re(tau_1 alpha_1) rounds to 0 though |alpha_1| < 1: |tau_1| rounds
# above 1, and alpha_1 has modulus 1 - 2^-53 along conj(tau_1)
DEGENERATE_ALPHA = [
    -0.0893891400312834 + 0.5333836865171296j,
    0.6132609716766605 - 0.7898803584203102j,
]


def test_backward_degenerate_near_one():
    # the input lies within rounding of the circle: an input error
    with pytest.raises(InvalidParameters, match="at index 1"):
        verblunsky_to_pair(DEGENERATE_ALPHA)


@pytest.mark.parametrize("m1", [5.551115123125783e-17, 2.7755575615628914e-16])
def test_backward_map_takes_the_forward_image_near_one(m1):
    # the least m_1 > 0 the eps rule admits, and 5 times it: alpha_0 lies
    # within a few eps of 1, and the backward map gives the pair back
    pair = make_pair([0.0], m=[0.0, m1])
    alpha = pair_to_verblunsky(pair).alpha
    assert 1.0 - abs(alpha[0]) < 1e-15
    back = verblunsky_to_pair(alpha)
    assert back.m == pair.m and back.c == pair.c
    assert pair_to_verblunsky(back).alpha == alpha


def test_make_pair_exactly_one_family():
    with pytest.raises(InvalidParameters):
        make_pair([0.0], m=[0.0, 0.5], d=[0.5])
    with pytest.raises(InvalidParameters):
        make_pair([0.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_make_pair_rejects_nonfinite_c(bad):
    with pytest.raises(InvalidParameters, match=r"c\[1\]"):
        make_pair([0.1, bad, 0.2], m=[0.0, 0.5, 0.5, 0.5])


def test_pair_b_property():
    pair = make_pair([0.0, 0.0], m=[0.0, 0.25, 0.75])
    assert pair.b == (0.5, -0.5)


def test_length_validation():
    with pytest.raises(InvalidParameters):
        make_pair([0.0, 0.0], m=[0.0, 0.5])
    with pytest.raises(InvalidParameters):
        VerblunskySequence(alpha=(0.5 + 0.0j,), tau=(1.0 + 0.0j,))


# ---- the scalar loops the array forms replaced, kept as references


def ref_forward(c, m):
    """alpha and tau one step at a time, renormalised every RENORM_EVERY."""
    alpha, tau, t = [], [1.0 + 0.0j], 1.0 + 0.0j
    for n in range(1, len(c) + 1):
        cn, mn = c[n - 1], m[n]
        alpha.append(t.conjugate() * (1.0 - 2.0 * mn - 1j * cn) / (1.0 - 1j * cn))
        t = t * ((1.0 - 1j * cn) / (1.0 + 1j * cn))
        if n % RENORM_EVERY == 0:
            t /= abs(t)
        tau.append(t)
    return np.array(alpha), np.array(tau)


def ref_backward(alpha):
    """c, m, d and b from alpha with every formula evaluated on scalars."""
    c, m, t = [], [0.0], 1.0 + 0.0j
    for n, a in enumerate(map(complex, alpha), start=1):
        u = t * a
        denom = 1.0 - u.real
        c.append(-u.imag / denom)
        m.append(0.5 * abs(1.0 - u) ** 2 / denom)
        t = t * ((1.0 - u.conjugate()) / (1.0 - u))
        if n % RENORM_EVERY == 0:
            t /= abs(t)
    d = [(1.0 - m[n - 1]) * m[n] for n in range(1, len(m))]
    b = [1.0 - 2.0 * mn for mn in m[1:]]
    return tuple(np.array(v) for v in (c, m, d, b))


@pytest.mark.parametrize(
    "seed, n", [(1, 100_000), (2, 100_000), (3, 100_000), (4, 37), (5, 128), (6, 1000)]
)
def test_forward_agrees_with_scalar_loop(seed, n):
    # tau_k is a product of k factors, each a complex division that the two
    # routes round differently (numpy and CPython scale it differently), so
    # the routes may part by a few eps per factor; alpha_k adds a bounded
    # number of roundings to tau_k.  16 (k + 1) eps covers both, as in the
    # benchmark's oracle.  n = 10^5 and 1000 end in a partial block, 37 is
    # shorter than one block and 128 ends exactly on a renormalisation.
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, n)
    m = np.concatenate([[0.0], rng.uniform(0.2, 0.8, n)])
    vs = pair_to_verblunsky(make_pair(c, m=m))
    want_alpha, want_tau = ref_forward(c.tolist(), m.tolist())
    bound = 16 * (np.arange(n + 1) + 1) * EPS
    assert np.all(np.abs(np.array(vs.tau) - want_tau) <= bound)
    assert np.all(np.abs(np.array(vs.alpha) - want_alpha) <= bound[:-1])
    assert np.all(np.abs(np.abs(np.array(vs.tau)) - 1.0) <= bound)
    assert np.array_equal(np.array(tau_from_c(c)), np.array(vs.tau))


@pytest.mark.parametrize("seed, n", [(7, 100_000), (8, 37), (9, 1000)])
def test_backward_agrees_with_scalar_formulas(seed, n):
    # the t recurrence is the same scalar loop, so u and c = -Im u/(1 - Re u)
    # are equal bit for bit.  m takes |1 - u| from the same hypot but squares
    # it exactly where the scalar code called pow: each square is within one
    # rounding of the true one, so m may differ by 2 eps relative before its
    # division and 4 eps after.  d = (1 - m_{n-1}) m_n and b = 1 - 2 m_n carry
    # those differences through one or two further roundings.
    alpha = random_alpha(np.random.default_rng(seed), n, radius=0.95)
    pair = verblunsky_to_pair(alpha)
    c, m, d, b = ref_backward(alpha)
    assert np.array_equal(np.array(pair.c), c)
    dm = 4 * EPS * m
    assert np.all(np.abs(np.array(pair.m) - m) <= dm)
    dd = dm[:-1] * m[1:] + (1.0 - m[:-1]) * dm[1:] + 2 * EPS * d
    assert np.all(np.abs(np.array(pair.d) - d) <= dd)
    assert np.all(np.abs(np.array(pair.b) - b) <= 2 * dm[1:] + EPS)


# ---- alpha that rounds onto the unit circle


@pytest.mark.parametrize(
    "c, m, n",
    [([1e300, 0.5], [0.5, 0.5], 1), ([0.5, -1e200], [0.5, 0.5], 2), ([0.0], [1e-17], 1)],
)
def test_pair_rejects_alpha_on_the_circle(c, m, n):
    with pytest.raises(InvalidParameters, match=rf"at n = {n} \(c_n = "):
        make_pair(c, m=[0.0] + m)


def test_pair_keeps_large_c_inside_the_disc():
    # 1 - |alpha_0|^2 = 1/(1 + 10^14) = 1e-14, far above eps; |alpha_0| and
    # its square carry a few roundings of size eps, and 1 - |alpha_0|^2 is
    # exact, so it lands within 4 eps of 1e-14
    vs = pair_to_verblunsky(make_pair([1e7, 0.5], m=[0.0, 0.5, 0.5]))
    assert abs(vs.alpha[0]) < 1.0
    assert abs(1.0 - abs(vs.alpha[0]) ** 2 - 1e-14) <= 4 * EPS
