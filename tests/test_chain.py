"""Chain sequence prefixes: the parameter iterations in both directions."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import (
    ChainSequence,
    MaximalParameters,
    d_from_minimal,
    is_determinate,
    make_pair,
    maximal_parameters,
    minimal_parameters,
    pair_to_verblunsky,
    verblunsky_to_pair,
)
from opuckit.errors import (
    InputError,
    InvalidParameters,
    NotAChainSequence,
    NumericsError,
)

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
    except NumericsError:
        # a bound that reaches the distance to 1 lets the rounded d stop
        # being a chain sequence: [0.85, 0.95] * 20 escapes at m_18 = 1.045,
        # within minimal_parameters' own bound, which is this one
        assert bound >= 1.0 - max(ms)
        return
    assert max(abs(a - b) for a, b in zip(again, m)) <= bound


def test_minimal_parameters_rounding_escape():
    # the d rebuilt from a valid m by the round trip through alpha: rounding
    # alone drives m_2231 to 1.15, within its bound e_2231 of about 1e10
    rng = np.random.default_rng(0)
    n = 10_000
    pair = make_pair(
        rng.uniform(-2.0, 2.0, n), m=np.concatenate([[0.0], rng.uniform(0.05, 0.95, n)])
    )
    back = verblunsky_to_pair(pair_to_verblunsky(pair).alpha)
    with pytest.raises(NumericsError, match=r"m_2231 = 1\.15\d* left \[0, 1\) .* e_2231 = "):
        minimal_parameters(back.d)


def test_chain_sequence_shape_validation():
    with pytest.raises(InvalidParameters):
        ChainSequence(d=(0.2, 0.2), m=(0.0, 0.2))
    with pytest.raises(InvalidParameters):
        ChainSequence.from_d((0.2, 0.2), tail_period=3)
    with pytest.raises(InvalidParameters):
        ChainSequence.from_d((0.2, 0.2), tail_period=0)


def test_chain_sequence_needs_minimal_parameters():
    # m must be the minimal parameters of d: m_0 = 0, m_n in (0, 1) and
    # d_n = (1 - m_{n-1}) m_n to rounding
    with pytest.raises(InvalidParameters, match=r"m\[1\] = 0\.0 outside"):
        ChainSequence(d=(0.3, 0.3), m=(0.0, 0.0, 0.0))
    with pytest.raises(InvalidParameters, match="m_0 = 0"):
        ChainSequence(d=(0.3, 0.3), m=(0.1, 0.3, 0.3 / 0.7))
    with pytest.raises(InvalidParameters, match=r"d_2 = 0\.31 is not \(1 - m_1\) m_2"):
        ChainSequence(d=(0.3, 0.31), m=(0.0, 0.3, 0.3 / 0.7))
    chain = ChainSequence.from_d((0.3, 0.3))
    assert ChainSequence(d=chain.d, m=chain.m) == chain


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
    res = maximal_parameters(chain)
    target = 0.5 * (1.0 + math.sqrt(0.2))
    assert res.tail_depth == 1
    assert all(abs(Mn - target) < 1e-10 for Mn in res.M)


def test_maximal_parameters_boundary_rate():
    # at d = 1/4 the two fixed points of M -> 1 - d/M merge at 1/2 and
    # g(M) = P(M) - M = -(M - 1/2)^2 / M: Newton halves the distance to 1/2
    # until P's rounding r = eps hides g, so it stops within sqrt(3 r/a) =
    # sqrt(1.5 eps) of 1/2, a = 1/M = 2 (see test_..._at_double_roots)
    chain = ChainSequence.from_d((0.25,) * 2, tail_period=1)
    res = maximal_parameters(chain)
    assert res.tail_depth == 1
    assert all(abs(Mn - 0.5) <= math.sqrt(1.5 * EPS) for Mn in res.M)
    # the minimal parameters (0, 1/4, 1/3) still climb toward 1/2
    assert not is_determinate(chain, res)


@pytest.mark.parametrize(
    "d, message",
    [
        # Newton's first iterate is 1 - 0.3/0.7, its second M_2 = -0.62
        (0.3, r"backward iterate M_2 = -0\.\d+ is not positive"),
        # g(M) = 1 - d/M - M peaks at 1 - 2 sqrt(d) = -2e-7 < 0: Newton lands
        # past the peak at a positive M, where g is far below P's rounding
        (0.25 + 1e-7, r"no fixed point: P\(M\) - M = -\d"),
    ],
)
def test_maximal_parameters_tail_not_a_chain_sequence(d, message):
    chain = ChainSequence.from_d((d, d), tail_period=1)  # a chain sequence prefix
    with pytest.raises(InputError, match=message):
        maximal_parameters(chain)


def test_maximal_parameters_below_zero_mass():
    # d = (0.6, 1/4, 1/4, ...) has M_1 = 1/2 and M_0 = 1 - 0.6/0.5 = -0.2 < 0:
    # no chain sequence; d = (1/2, 1/4, ...) has M_0 = 0, which the seed's
    # error of about sqrt(eps) at the double root 1/2 turns into -6e-9
    with pytest.raises(InvalidParameters, match=r"M_0 = -0\.2\d* is below 0"):
        maximal_parameters(ChainSequence.from_d((0.6, 0.25), tail_period=1))
    assert maximal_parameters(ChainSequence.from_d((0.5, 0.25), tail_period=1)).M[0] == 0.0
    # determinate tails have M_0 = 0, and the pass's rounding takes it below
    # 0 (down to -6e-13) on 66 of these 400 chains: they read M_0 >= 0
    for chain in random_tail_chains() + bench_style_chains():
        assert maximal_parameters(chain).M[0] >= 0.0


def test_is_determinate_comparator():
    chain = ChainSequence.from_d((0.2,) * 6, tail_period=1)
    res = maximal_parameters(chain)
    # minimal parameters head for the other fixed point, so these differ
    assert not is_determinate(chain, res)
    fake = MaximalParameters(M=chain.m, tail_depth=0)
    assert is_determinate(chain, fake)


# ---- the maximal parameters of periodic tails against mpmath


def doubling_loop(d, p, tol=1e-12, initial_depth=64, max_depth=2**21):
    """M_0..M_N by the depth-doubling backward iteration that the fixed point
    replaced: seed 1 at depth past the stored end, double until M_0 moves by
    less than tol.  Kept as the reference for accuracy."""
    N = len(d)

    def backward(depth):
        M, out = 1.0, [0.0] * (N + 1)
        if depth == 0:
            out[N] = M
        for k in range(N + depth, 0, -1):
            M = 1.0 - d[k - 1 if k <= N else N - p + (k - N - 1) % p] / M
            if k - 1 <= N:
                out[k - 1] = M
        return out

    depth = initial_depth
    prev = backward(depth)
    while depth <= max_depth:
        depth *= 2
        cur = backward(depth)
        if abs(cur[0] - prev[0]) < tol:
            return cur
        prev = cur
    raise AssertionError("the doubling loop did not converge")


def mp_maximal(chain):
    """M_0..M_N at 60 digits, the pass seeded at the largest fixed point of
    the period's 2x2 product, with P'(M_N) = prod d_k/M_k^2 over the period."""
    mpmath.mp.dps = 60
    d = [mpmath.mpf(x) for x in chain.d]
    N, p = len(d), chain.tail_period
    T = mpmath.eye(2)
    for dk in d[N - p :]:  # M -> 1 - d/M is the Moebius map of [[1, -d], [1, 0]]
        T = T * mpmath.matrix([[1, -dk], [1, 0]])
    a, b, c, e = T[0, 0], T[0, 1], T[1, 0], T[1, 1]
    M = (a - e + mpmath.sqrt((a - e) ** 2 + 4 * b * c)) / (2 * c)
    x, slope = M, mpmath.mpf(1)
    for dk in reversed(d[N - p :]):
        assert x > 0  # the orbit of the fixed point stays positive
        slope *= dk / x**2
        x = 1 - dk / x
    assert abs(x - M) < mpmath.mpf(10) ** -50
    out = [M]
    for dk in reversed(d):
        out.append(1 - dk / out[-1])
    return np.array([float(v) for v in reversed(out)]), float(slope)


def period_rounding(period, M):
    """First-order rounding bound r of P(M): each step rounds d_k/M_k and
    1 - d_k/M_k once, and later steps scale an error by d_k/M_k^2."""
    r = 0.0
    for dk in reversed(period):
        q = dk / M
        r = r * q / M + EPS * (q + abs(1.0 - q))
        M = 1.0 - q
    return r


def maximal_bound(chain, M, slope):
    """First-order error bound of the computed M_0..M_N.

    Newton stops once P's rounding r hides g(M) = P(M) - M (or a step moves
    M by under an ulp), so M_N is off by at most 2 r/(1 - P'(M_N)) + eps M_N.
    The pass over the prefix carries that error with the factors d_k/M_k^2
    and rounds twice a step.
    """
    d, N, p = chain.d, len(chain.d), chain.tail_period
    e = np.empty(N + 1)
    e[N] = 2.0 * period_rounding(d[N - p :], M[N]) / (1.0 - slope) + EPS * M[N]
    for k in range(N, 0, -1):
        q = d[k - 1] / M[k]
        e[k - 1] = e[k] * q / M[k] + EPS * (q + abs(M[k - 1]))
    return e


def bench_style_chains(count=100, p=16):
    # the benchmark's p = 16 blocks: m periodic in [0.3, 0.7], two periods
    rng = np.random.default_rng(16)
    out = []
    for _ in range(count):
        rng.uniform(0.2, 1.0, p // 2)  # the block's c~, which d does not see
        m1 = rng.uniform(0.3, 0.7, p)
        out.append(ChainSequence.from_minimal(np.concatenate([[0.0], m1, m1]), p))
    return out


def random_tail_chains(count=300):
    rng = np.random.default_rng(39)
    out = []
    for _ in range(count):
        p = int(rng.integers(1, 40))
        m1 = rng.uniform(0.02, 0.98, p)
        out.append(ChainSequence.from_minimal(np.concatenate([[0.0], m1, m1]), p))
    return out


@pytest.mark.parametrize("chains", [bench_style_chains, random_tail_chains])
def test_maximal_parameters_against_mpmath(chains):
    # every M_n within the derived bound, and the worst error over the set no
    # larger than that of the doubling loop on the same chains.  Where m's
    # orbit is the attracting fixed point the chain is determinate, M_0 is 0
    # and the pass amplifies the error of M_N near n = 0.
    worst = loop_worst = 0.0
    for chain in chains():
        want, slope = mp_maximal(chain)
        res = maximal_parameters(chain)
        assert res.tail_depth == chain.tail_period
        err = np.abs(np.array(res.M) - want)
        assert np.all(err <= maximal_bound(chain, want, slope))
        worst = max(worst, err.max())
        loop = doubling_loop(chain.d, chain.tail_period)
        loop_worst = max(loop_worst, np.abs(np.array(loop) - want).max())
    assert worst <= loop_worst


def test_maximal_parameters_at_double_roots():
    # d_1 = (1 - sqrt(d_2))^2 merges the two fixed points of the period-two
    # map into a double root M* = (1 + d_2 - d_1)/2, which the rounding of d
    # splits or removes by about sqrt(eps).  Near it g(M) = -a (M - M*)^2,
    # a = -P''(M*)/2, so Newton stops once a (M - M*)^2 falls under the
    # rounding r of P plus the 2 r that the result may lie within:
    # |M_N - M*| <= sqrt(3 r/a).  No such tail may be rejected.
    mpmath.mp.dps = 60
    rng = np.random.default_rng(2)
    for d2 in rng.uniform(0.01, 0.9, 200):
        d1 = (1.0 - math.sqrt(d2)) ** 2
        chain = ChainSequence.from_d((d1, d2) * 2, tail_period=2)
        got = maximal_parameters(chain).M[-1]
        D1, D2 = mpmath.mpf(d1), mpmath.mpf(d2)
        b = 1 + D2 - D1  # the fixed points solve M^2 - b M + d_2 = 0
        want = (b + mpmath.sqrt(max(b * b - 4 * D2, 0))) / 2
        a = -mpmath.diff(lambda x: 1 - D1 / (1 - D2 / x), want, 2) / 2
        r = period_rounding((d1, d2), float(want))
        assert abs(got - float(want)) <= math.sqrt(3 * r / float(a))
