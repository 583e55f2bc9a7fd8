"""The two directions of the sequence-pair / reflection-coefficient map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import (
    SequencePair,
    VerblunskySequence,
    make_pair,
    pair_to_verblunsky,
    tau_from_c,
    verblunsky_to_pair,
)
from opuckit.errors import DegenerateDenominator, InvalidParameters
from conftest import random_alpha, random_pair


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


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 0.95)),
        min_size=1,
        max_size=15,
    )
)
def test_round_trip_property(cm):
    c = [t[0] for t in cm]
    m = [0.0] + [t[1] for t in cm]
    pair = make_pair(c, m=m)
    back = verblunsky_to_pair(pair_to_verblunsky(pair).alpha)
    assert max(abs(a - b) for a, b in zip(back.c, pair.c)) < 1e-9
    assert max(abs(a - b) for a, b in zip(back.m, pair.m)) < 1e-9


def test_backward_rejects_modulus_one():
    with pytest.raises(InvalidParameters):
        verblunsky_to_pair([0.5, 1.0])


def test_backward_degenerate_near_one():
    with pytest.raises(DegenerateDenominator):
        verblunsky_to_pair([0.9999999999999999])


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


def test_pair_c_at_tail():
    pair = make_pair([1.0, -1.0], d=[0.5, 0.2], tail_period=2)
    assert pair.c_at(1) == 1.0
    assert pair.c_at(4) == -1.0
    assert pair.c_at(5) == 1.0
    bare = make_pair([1.0, -1.0], d=[0.5, 0.2])
    with pytest.raises(InvalidParameters):
        bare.c_at(3)


def test_length_validation():
    with pytest.raises(InvalidParameters):
        make_pair([0.0, 0.0], m=[0.0, 0.5])
    with pytest.raises(InvalidParameters):
        VerblunskySequence(alpha=(0.5 + 0.0j,), tau=(1.0 + 0.0j,))
