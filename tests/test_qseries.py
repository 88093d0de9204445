"""q-series building blocks, the exact series kernel and the float
series that rounds it once."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.qseries import (
    DenominatorZeroError,
    NonTerminatingSeriesError,
    NotOddOddError,
    ParityClass,
    PoleAtOneError,
    RationalQ,
    _float,
    _neg_power_index,
    basic_hypergeometric,
    basic_hypergeometric_exact,
    q_number,
    q_pochhammer_exact,
    vwp_pair_reduce_exact,
)


def test_q_number_values():
    assert q_number(0, 2.0) == 0.0
    assert q_number(1, 2.0) == 1.0
    assert q_number(3, 2.0) == 7.0
    assert q_number(3, Fraction(1, 2)) == Fraction(7, 4)


def test_q_number_geometric_sum():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(0, 9)
        q = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        if q == 1:
            continue
        assert q_number(n, q) == sum(q ** k for k in range(n))


def test_pochhammer_empty_product():
    assert q_pochhammer_exact(Fraction(7, 3), Fraction(1, 2), 0) == 1


def test_pochhammer_recursion():
    rng = random.Random(12)
    for _ in range(50):
        a = Fraction(rng.randrange(-8, 9), rng.randrange(1, 9))
        q = Fraction(rng.randrange(1, 8), rng.randrange(1, 8))
        n = rng.randrange(0, 7)
        full = q_pochhammer_exact(a, q, n + 1)
        step = q_pochhammer_exact(a, q, n) * (1 - a * q ** n)
        assert full == step


def test_terminating_vandermonde_identity():
    # 2phi1(q**-n, b; c; q, c*q**n/b) = (c/b; q)_n / (c; q)_n
    rng = random.Random(15)
    for _ in range(25):
        q = Fraction(rng.randrange(1, 6), rng.randrange(1, 6))
        if q == 1:
            continue
        n = rng.randrange(1, 6)
        b = Fraction(rng.randrange(1, 9), rng.randrange(4, 9))
        c = Fraction(rng.randrange(1, 9), rng.randrange(5, 11))
        # c = b collapses the sum to zero by cancellation, which the
        # float route only reaches to roundoff
        if c == b or q_pochhammer_exact(c, q, n) == 0:
            continue
        z = c * q ** n / b
        lhs = basic_hypergeometric_exact([q ** -n, b], [c], q, z)
        rhs = q_pochhammer_exact(c / b, q, n) / q_pochhammer_exact(c, q, n)
        assert lhs == rhs
        approx = basic_hypergeometric([float(q ** -n), float(b)], [float(c)], float(q), float(z))
        assert approx == pytest.approx(float(rhs), rel=1e-10, abs=1e-12)


def test_hypergeometric_requires_termination():
    with pytest.raises(NonTerminatingSeriesError):
        basic_hypergeometric([0.25], [], 0.5, 0.1)
    with pytest.raises(NonTerminatingSeriesError):
        basic_hypergeometric_exact([Fraction(1, 4)], [], Fraction(1, 2), Fraction(1, 10))


def test_hypergeometric_denominator_pole():
    q = Fraction(1, 3)
    with pytest.raises(DenominatorZeroError):
        basic_hypergeometric_exact([q ** -3], [q ** -1], q, Fraction(1, 2))


# ----------------------------------------------------------------------
# the exact kernel against the term-by-term Fraction sum it replaced

CAP = 4096


def brute_index(a, q):
    """Smallest m in 0..4096 with a * q**m == 1, by walking the powers;
    a * q**m moves monotonically, so the walk stops once it passes 1."""
    a, q = Fraction(a), Fraction(q)
    if a <= 0 or q <= 0 or q == 1:
        return 0 if a == 1 else None
    value = a
    for m in range(CAP + 1):
        if value == 1:
            return m
        if (value > 1) == (q > 1):
            return None
        value *= q
    return None


def reference_series(numer, denom, q, z):
    """Term-by-term Fraction sum: each term from the last, one Fraction
    per factor, every operation reduced."""
    numer = [Fraction(a) for a in numer]
    denom = [Fraction(b) for b in denom]
    q = q.as_fraction if isinstance(q, RationalQ) else Fraction(q)
    z = Fraction(z)
    if q <= 0 or q == 1:
        raise ValueError("series base must be positive and != 1")
    stops = [m for m in (brute_index(a, q) for a in numer) if m is not None]
    if not stops:
        raise NonTerminatingSeriesError(
            "no numerator parameter of the form q**-m, refusing an infinite sum"
        )
    top = min(stops)
    for b in denom:
        j = brute_index(b, q)
        if j is not None and j < top:
            raise DenominatorZeroError(
                f"denominator parameter q**-{j} vanishes before the series "
                f"terminates at n = {top}"
            )
    excess = 1 + len(denom) - len(numer)
    total = term = power = Fraction(1)
    for n in range(1, top + 1):
        for a in numer:
            term *= 1 - a * power
        if term == 0:
            break
        for b in denom:
            factor = 1 - b * power
            if factor == 0:
                raise DenominatorZeroError(f"denominator factor vanished at series index {n}")
            term /= factor
        term /= 1 - q ** n
        term *= z
        if excess:
            term *= (-power) ** excess
        total += term
        power *= q
    return total


def outcome(evaluate, *args):
    """The returned value, or the raised exception's type and message."""
    try:
        return evaluate(*args)
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)


def q_values():
    """Integer q, q = 1/k and general p/r, every one != 1."""
    return st.one_of(
        st.tuples(st.integers(1, 9), st.integers(1, 9))
        .filter(lambda t: t[0] != t[1])
        .map(lambda t: Fraction(*t)),
        st.integers(2, 6).map(Fraction),
        st.integers(2, 6).map(lambda k: Fraction(1, k)),
    )


def small_fractions():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def series_args(draw):
    """Numerator and denominator lists mixing q**-m with free values."""
    q = draw(q_values())

    def parameter():
        return st.one_of(st.integers(0, 7).map(lambda m: q ** -m), small_fractions())

    numer = draw(st.lists(parameter(), min_size=1, max_size=4))
    if draw(st.booleans()):
        numer.insert(draw(st.integers(0, len(numer))), q ** -draw(st.integers(0, 7)))
    denom = draw(st.lists(parameter(), max_size=3))
    z = draw(st.one_of(small_fractions(), st.just(Fraction(0)), parameter()))
    as_q = draw(st.sampled_from((lambda v: v, RationalQ.from_fraction)))
    return numer, denom, as_q(q), z


@settings(max_examples=400, deadline=None)
@given(series_args())
def test_exact_kernel_matches_term_by_term_sum(args):
    numer, denom, q, z = args
    got = outcome(basic_hypergeometric_exact, numer, denom, q, z)
    assert got == outcome(reference_series, numer, denom, q, z)


@pytest.mark.parametrize(
    "numer,denom,q,z",
    [
        # excess 1 + B - A > 0, = 0 and < 0
        ([Fraction(3, 5) ** -4], [Fraction(2, 7), Fraction(-3, 4)], Fraction(3, 5), Fraction(5, 2)),
        ([Fraction(3, 5) ** -4, Fraction(7, 3)], [Fraction(2, 7)], Fraction(3, 5), Fraction(-5, 2)),
        ([Fraction(5, 3) ** -5, Fraction(7, 3), Fraction(-1, 2), Fraction(4, 9)], [],
         Fraction(5, 3), Fraction(2, 9)),
        # zero and negative z
        ([Fraction(1, 3) ** -3, Fraction(2)], [Fraction(5)], Fraction(1, 3), Fraction(0)),
        ([Fraction(1, 3) ** -3, Fraction(2)], [Fraction(5)], Fraction(1, 3), Fraction(-7, 2)),
        # integer q and q = 1/k
        ([Fraction(1, 3 ** 4), Fraction(2, 5)], [Fraction(-1)], 3, Fraction(3, 2)),
        ([Fraction(4) ** 5, Fraction(2, 5)], [Fraction(-1)], Fraction(1, 4), Fraction(3, 2)),
        # a denominator q**-j before and after the stop
        ([Fraction(3, 5) ** -3, Fraction(1, 2)], [Fraction(3, 5) ** -2], Fraction(3, 5), Fraction(1)),
        ([Fraction(3, 5) ** -3, Fraction(1, 2)], [Fraction(3, 5) ** -3], Fraction(3, 5), Fraction(1)),
        ([Fraction(3, 5) ** -3, Fraction(1, 2)], [Fraction(3, 5) ** -6], Fraction(3, 5), Fraction(1)),
        # a second numerator that vanishes earlier ends the sum there
        ([Fraction(2, 7) ** -6, Fraction(2, 7) ** -2, Fraction(3)], [Fraction(5, 4)],
         RationalQ(2, 7), Fraction(9, 4)),
        # no terminating numerator
        ([Fraction(1, 4), Fraction(2)], [Fraction(3)], Fraction(1, 2), Fraction(1)),
        # base 1 is refused before anything else
        ([Fraction(1)], [], Fraction(1), Fraction(1)),
    ],
)
def test_exact_kernel_named_cases(numer, denom, q, z):
    assert outcome(basic_hypergeometric_exact, numer, denom, q, z) == outcome(
        reference_series, numer, denom, q, z
    )


def test_exact_kernel_refuses_floats():
    with pytest.raises(TypeError):
        basic_hypergeometric_exact([Fraction(1, 8)], [], Fraction(1, 2), 0.5)


# ----------------------------------------------------------------------
# the float series: the exact sum at its inputs' binary values, rounded once

def snapped_binary_series(numer, denom, q, z):
    """The reference sum at the binary values of the inputs, a parameter
    within 1e-12 of q**-m taken as that power, rounded by _float."""
    qx = Fraction(q)

    def binary(a):
        m = _neg_power_index(a, q)
        return qx ** -m if m is not None else Fraction(a)

    return _float(reference_series(
        [binary(a) for a in numer], [binary(b) for b in denom], qx, Fraction(z)))


def float_outcome(evaluate, *args):
    """repr of the returned value, or the raised exception's type and
    message; repr tells -0.0 from 0.0 and matches nan with nan."""
    try:
        return repr(evaluate(*args))
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


@st.composite
def float_series_args(draw):
    """Series for the float route.  q is exact (so the stop is found
    exactly) or a float, from ordinary values to 10**+-8, where q**k
    leaves the double range before a stop at up to 60; parameters and z
    are exact or float."""
    q = draw(st.one_of(q_values(), st.sampled_from((Fraction(10 ** 8), Fraction(1, 10 ** 8)))))

    def parameter():
        return st.one_of(
            st.integers(0, 60).map(lambda m: q ** -m),
            small_fractions(),
            small_fractions().map(float),
            st.floats(-1e3, 1e3),
        )

    numer = draw(st.lists(parameter(), min_size=1, max_size=4))
    numer.insert(draw(st.integers(0, len(numer))), q ** -draw(st.integers(0, 60)))
    denom = draw(st.lists(parameter(), max_size=3))
    z = draw(st.one_of(small_fractions(), st.just(0.0), st.floats(-1e3, 1e3)))
    as_q = draw(st.sampled_from((lambda v: v, RationalQ.from_fraction, float)))
    return numer, denom, as_q(q), z


@settings(max_examples=300, deadline=None)
@given(float_series_args())
def test_float_series_rounds_the_exact_sum_once(args):
    numer, denom, q, z = args
    assert float_outcome(basic_hypergeometric, numer, denom, q, z) == float_outcome(
        snapped_binary_series, numer, denom, q, z
    )


# ----------------------------------------------------------------------
# the exact termination test

@pytest.mark.parametrize(
    "q", [Fraction(3, 5), Fraction(5, 3), Fraction(1, 2), Fraction(1, 7), Fraction(3)]
)
def test_termination_index_at_the_cap(q):
    for m in (0, 1, 300, CAP):
        assert _neg_power_index(q ** -m, q) == brute_index(q ** -m, q) == m
    assert _neg_power_index(q ** -(CAP + 1), q) is None
    assert brute_index(q ** -(CAP + 1), q) is None
    assert _neg_power_index(q ** -2, RationalQ.from_fraction(q)) == 2


@pytest.mark.parametrize("q", [Fraction(3, 5), Fraction(5, 3), Fraction(1, 4), Fraction(2)])
def test_termination_index_rejects_near_misses(q):
    for a in (Fraction(0), -q ** -2, -Fraction(1), q ** -3 * (1 + Fraction(1, 10 ** 30)),
              q ** 2, Fraction(7, 11)):
        assert _neg_power_index(a, q) is None
        assert brute_index(a, q) is None


def test_termination_index_beyond_the_float_range():
    q = Fraction(1, 7)
    assert _neg_power_index(q ** -1000, q) == 1000  # 7**1000 is about 1e845
    assert _neg_power_index(q ** -1000 + 1, q) is None
    assert _neg_power_index(Fraction(3) ** 5000, Fraction(1, 3)) is None  # above the cap
    assert _neg_power_index(Fraction(10 ** 400 + 1, 3), Fraction(1, 10)) is None
    assert _neg_power_index(Fraction(1, 7 ** 5000), Fraction(7)) is None


def test_termination_index_next_to_one():
    # log q rounds to 0.0 in floats here, so only an integer test sees q**-m
    q = Fraction(10 ** 30 + 1, 10 ** 30)
    for m in (1, 3, 40):
        assert _neg_power_index(q ** -m, q) == m
        assert _neg_power_index(q ** m, 1 / q) == m
    assert _neg_power_index(q ** -3 * q ** -3, q ** 2) == 3
    assert _neg_power_index(q ** -2 + Fraction(1, 10 ** 90), q) is None
    assert basic_hypergeometric_exact([q ** -3], [], q, 1) == reference_series([q ** -3], [], q, 1)


@settings(max_examples=300, deadline=None)
@given(q_values(), st.integers(0, 40), small_fractions())
def test_termination_index_matches_brute_force(q, m, jitter):
    for a in (q ** -m, q ** -m * (1 + jitter), jitter):
        assert _neg_power_index(a, q) == brute_index(a, q)


def test_vwp_pair_reduce_value():
    assert vwp_pair_reduce_exact(Fraction(1, 4), Fraction(1, 2), 3) == Fraction(85, 64)


def test_vwp_pair_reduce_is_pochhammer_ratio():
    # (q*sqrt(a); q)_m (-q*sqrt(a); q)_m / ((sqrt(a); q)_m (-sqrt(a); q)_m)
    a, q, m = Fraction(9, 100), Fraction(1, 2), 4
    root = Fraction(3, 10)
    numer = q_pochhammer_exact(q * root, q, m) * q_pochhammer_exact(-q * root, q, m)
    denom = q_pochhammer_exact(root, q, m) * q_pochhammer_exact(-root, q, m)
    assert numer / denom == vwp_pair_reduce_exact(a, q, m)


def test_vwp_pair_reduce_pole():
    with pytest.raises(PoleAtOneError):
        vwp_pair_reduce_exact(Fraction(1), Fraction(1, 2), 2)


def test_rationalq_reduction_and_inverse():
    q = RationalQ(6, 10)
    assert (q.num, q.den) == (3, 5)
    assert q.as_fraction == Fraction(3, 5)
    assert q.inverse == Fraction(5, 3)


@given(st.integers(1, 10 ** 9), st.integers(1, 10 ** 9))
def test_rationalq_is_the_fraction_it_names(num, den):
    for call, error, message in (
            (lambda: RationalQ(num, 0), ZeroDivisionError, "q must have a nonzero denominator"),
            (lambda: RationalQ(0, den), ValueError, "q must be positive"),
            (lambda: RationalQ(-num, den), ValueError, "q must be positive"),
            (lambda: RationalQ(num, -den), ValueError, "q must be positive"),
            (lambda: RationalQ(num, num), ValueError, "q = 1 is excluded")):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message
    if num == den:
        return
    q, x = RationalQ(num, den), Fraction(num, den)
    assert q == x and hash(q) == hash(x)
    assert (str(q), float(q), q.num, q.den) == (str(x), float(x), x.numerator, x.denominator)
    for got, want in ((q * q, x * x), (q ** -3, x ** -3), (1 - q, 1 - x), (1 / q, 1 / x)):
        assert type(got) is Fraction and got == want
    for back in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
        assert type(back) is RationalQ and back == q
    P, Q = x.denominator % 2, x.numerator % 2
    expected = (ParityClass.ODD_ODD if P and Q else
                ParityClass.ODD_OVER_EVEN if P else ParityClass.EVEN_OVER_ODD)
    assert q.inv_parity_class is expected


@pytest.mark.parametrize("num,den", [(1, 1), (0, 1), (-3, 1), (2, -4)])
def test_rationalq_rejects_degenerate(num, den):
    with pytest.raises(ValueError):
        RationalQ(num, den)


@pytest.mark.parametrize("call, error, message", [
    (lambda: q_number(3, Fraction(1)), ZeroDivisionError, "[n]_q needs q != 1"),
    (lambda: q_number(3, 1.0), ZeroDivisionError, "[n]_q needs q != 1"),
    (lambda: q_pochhammer_exact(Fraction(1, 2), Fraction(1, 3), -1), ValueError,
     "(a; q)_n needs n >= 0 here"),
    (lambda: RationalQ(3, 0), ZeroDivisionError, "q must have a nonzero denominator"),
    (lambda: basic_hypergeometric([Fraction(1, 2)], [], Fraction(1), Fraction(1, 2)),
     ValueError, "series base must be positive and != 1"),
    (lambda: basic_hypergeometric([0.5], [], -0.5, 0.5), ValueError,
     "series base must be positive and != 1"),
], ids=["q-number-exact-one", "q-number-float-one", "pochhammer-negative-n",
        "rationalq-zero-den", "series-exact-base-one", "series-float-base-negative"])
def test_qseries_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "num,den,expected",
    [
        (3, 1, ParityClass.ODD_ODD),
        (3, 5, ParityClass.ODD_ODD),
        (1, 2, ParityClass.EVEN_OVER_ODD),
        (5, 8, ParityClass.EVEN_OVER_ODD),
        (4, 3, ParityClass.ODD_OVER_EVEN),
        (10, 7, ParityClass.ODD_OVER_EVEN),
    ],
)
def test_inv_parity_class(num, den, expected):
    assert RationalQ(num, den).inv_parity_class is expected


def test_require_odd_odd():
    RationalQ(5, 3).require_odd_odd()
    with pytest.raises(NotOddOddError):
        RationalQ(1, 2).require_odd_odd()
    with pytest.raises(NotOddOddError):
        RationalQ(4, 3).require_odd_odd()
