"""Every public count argument is checked by one rule, errors._check_count:
an integer, a numpy integer included and a bool refused, in its range, or
InvalidParameters naming the argument."""

import pickle
import re

import numpy as np
import pytest

from opuckit import (
    PeriodTwoParams,
    family_pair,
    is_periodic_pair,
    make_pair,
    mass_series,
    moments,
    q_coeffs,
    quadrature,
    r_coeffs,
    rq_eval,
    support_gap_check,
    w_eval,
    w_zeros,
    zero_ladder,
)
from opuckit.errors import InvalidParameters

# alternating signs, so that support_gap_check accepts every level
C = (-0.6, 0.7, -0.5, 0.8)
M = (0.0, 0.4, 0.5, 0.6, 0.45)
PAIR = make_pair(C, m=M)
MEASURE = quadrature(PAIR, 4)

# (call, argument name, lowest and highest valid value; None for no upper end)
COUNTS = {
    "zero_ladder": (lambda n: zero_ladder(PAIR, n), "n", 1, 4),
    "w_zeros": (lambda n: w_zeros(PAIR, n), "n", 1, 4),
    "quadrature": (lambda n: quadrature(PAIR, n), "n", 1, 4),
    "support_gap_check": (lambda n: support_gap_check(PAIR, n), "n", 1, 4),
    "r_coeffs": (lambda n: r_coeffs(PAIR, n), "n", 0, 4),
    "q_coeffs": (lambda n: q_coeffs(PAIR, n), "n", 0, 4),
    "rq_eval": (lambda n: rq_eval(PAIR, n, [0.5j, -1.0]), "n", 0, 4),
    "w_eval": (lambda n: w_eval(PAIR, n, [0.3, -0.7]), "n", 0, 4),
    "moments": (lambda k: moments(MEASURE, k), "k_max", 0, None),
    "mass_series": (lambda k: mass_series((0.5,), 1.0, k), "n_terms", 1, None),
    "is_periodic_pair": (lambda p: is_periodic_pair(PAIR, p), "p", 1, 3),
    "family_pair": (lambda k: family_pair(PeriodTwoParams(1.0, 0.3, 0.5), k), "length", 2, None),
    "make_pair": (lambda t: make_pair(C, m=M, tail_period=t), "tail_period", 1, 4),
}


@pytest.mark.parametrize("case", list(COUNTS))
def test_count_arguments_share_one_rule(case):
    call, name, lo, hi = COUNTS[case]
    bad = [2.5, True, lo - 1] + ([] if hi is None else [hi + 1])
    for value in bad:
        message = rf"^{name} must be an integer .*, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidParameters, match=message):
            call(value)
    # a numpy integer is the same count as the int, down to the result's types
    for value in (lo, lo + 1 if hi is None else hi):
        assert pickle.dumps(call(np.int64(value))) == pickle.dumps(call(value))
