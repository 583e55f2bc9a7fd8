"""Chain sequence prefixes: the parameter iterations in both directions."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import (
    ChainSequence,
    MaximalParameters,
    d_from_minimal,
    is_determinate,
    maximal_parameters,
    minimal_parameters,
)
from opuckit.errors import InvalidParameters, NoConvergence, NotAChainSequence

EPS = sys.float_info.epsilon


def test_minimal_parameters_constant_quarter():
    # induction on m_n = (1/4)/(1 - m_{n-1}) starting at 0 gives n/(2(n+1))
    n = 40
    m = minimal_parameters([0.25] * n)
    for k in range(n + 1):
        assert abs(m[k] - k / (2.0 * (k + 1))) < 1e-14


def test_minimal_parameters_half_then_quarters():
    # m_1 = 1/2, and every later step repeats (1/4)/(1 - 1/2) = 1/2
    m = minimal_parameters([0.5, 0.25, 0.25, 0.25])
    assert m == (0.0, 0.5, 0.5, 0.5, 0.5)


def test_minimal_rejects_escape():
    # m_2 = 0.6 / 0.5 = 1.2 leaves [0, 1) at index 2
    with pytest.raises(NotAChainSequence) as info:
        minimal_parameters([0.5, 0.6])
    assert info.value.index == 2
    assert abs(info.value.value - 1.2) < 1e-14


def test_minimal_rejects_nonpositive_and_nonfinite():
    with pytest.raises(InvalidParameters):
        minimal_parameters([0.2, 0.0])
    with pytest.raises(InvalidParameters):
        minimal_parameters([0.2, float("nan")])


def test_d_from_minimal_requires_leading_zero():
    with pytest.raises(InvalidParameters):
        d_from_minimal([0.5, 0.5])
    with pytest.raises(InvalidParameters):
        d_from_minimal([0.0, 1.0])


def test_d_round_trip_explicit():
    d = (0.5, 0.25, 0.25)
    m = minimal_parameters(d)
    back = d_from_minimal(m)
    assert max(abs(a - b) for a, b in zip(back, d)) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=20))
def test_parameter_round_trip_property(ms):
    # m_n = d_n / (1 - m_{n-1}) carries the error of m_{n-1} forward with the
    # factor a_n = m_n / (1 - m_{n-1}) and adds a few roundings of m_n, so to
    # first order e_n = a_n e_{n-1} + 4 eps m_n bounds the error of m_n
    m = [0.0] + ms
    d = d_from_minimal(m)
    e = bound = 0.0
    for prev, cur in zip(m, m[1:]):
        e = cur / (1.0 - prev) * e + 4.0 * EPS * cur
        bound = max(bound, e)
    try:
        again = minimal_parameters(d)
    except NotAChainSequence:
        # a bound that reaches the distance to 1 lets the rounded d stop
        # being a chain sequence: [0.85, 0.95] * 20 escapes at m_18 = 1.045
        assert bound >= 1.0 - max(ms)
        return
    assert max(abs(a - b) for a, b in zip(again, m)) <= bound


def test_chain_sequence_shape_validation():
    with pytest.raises(InvalidParameters):
        ChainSequence(d=(0.2, 0.2), m=(0.0, 0.2))
    with pytest.raises(InvalidParameters):
        ChainSequence.from_d((0.2, 0.2), tail_period=3)
    with pytest.raises(InvalidParameters):
        ChainSequence.from_d((0.2, 0.2), tail_period=0)


def test_d_at_periodic_tail():
    chain = ChainSequence.from_d((0.2, 0.3), tail_period=2)
    assert chain.d_at(1) == 0.2
    assert chain.d_at(2) == 0.3
    assert chain.d_at(3) == 0.2
    assert chain.d_at(4) == 0.3
    assert chain.d_at(7) == 0.2
    one = ChainSequence.from_d((0.2, 0.3), tail_period=1)
    assert one.d_at(3) == 0.3
    assert one.d_at(9) == 0.3


def test_d_at_requires_tail_beyond_prefix():
    chain = ChainSequence.from_d((0.2, 0.3))
    with pytest.raises(InvalidParameters):
        chain.d_at(3)
    with pytest.raises(InvalidParameters):
        chain.d_at(0)


def test_maximal_parameters_finite_prefix():
    # backward pass seeded at the stored end: M_2 = 1, M_1 = 1 - (1/4)/1,
    # M_0 = 1 - (1/2)/(3/4) = 1/3
    chain = ChainSequence.from_d((0.5, 0.25))
    res = maximal_parameters(chain)
    assert res.tail_depth == 0
    assert abs(res.M[2] - 1.0) < 1e-15
    assert abs(res.M[1] - 0.75) < 1e-15
    assert abs(res.M[0] - 1.0 / 3.0) < 1e-15


def test_maximal_parameters_constant_below_quarter():
    # for constant d the maximal parameter solves M = 1 - d/M; with d = 0.2
    # the attracting root of the backward map is (1 + sqrt(1 - 0.8))/2
    chain = ChainSequence.from_d((0.2,) * 4, tail_period=1)
    res = maximal_parameters(chain, tol=1e-13)
    target = 0.5 * (1.0 + math.sqrt(0.2))
    assert all(abs(Mn - target) < 1e-10 for Mn in res.M)


def test_maximal_parameters_boundary_rate():
    # at d = 1/4 the backward iterate after s steps is (s + 2)/(2 (s + 1)),
    # so M_0 approaches 1/2 only like 1/(2s); a loose tol must still land there
    chain = ChainSequence.from_d((0.25,) * 2, tail_period=1)
    res = maximal_parameters(chain, tol=1e-4)
    assert abs(res.M[0] - 0.5) < 5e-4
    assert res.tail_depth >= 1024


def test_maximal_parameters_boundary_no_convergence():
    # the 1/s rate cannot meet 1e-12 at any affordable depth
    chain = ChainSequence.from_d((0.25,) * 2, tail_period=1)
    with pytest.raises(NoConvergence):
        maximal_parameters(chain, tol=1e-12, max_depth=2**14)


def test_is_determinate_comparator():
    chain = ChainSequence.from_d((0.2,) * 6, tail_period=1)
    res = maximal_parameters(chain, tol=1e-13)
    # minimal parameters head for the other fixed point, so these differ
    assert not is_determinate(chain, res)
    fake = MaximalParameters(M=chain.m, tail_depth=0, tol=1e-12)
    assert is_determinate(chain, fake)
