"""Family validation windows, spectra, and orthonormal data."""

import dataclasses
import json
import math
import operator
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Q_POOL, Q_SMALL, draw_valid_spec, sample_spec
from qchain import chain, cli, closedform, evolve, families, qseries
from qchain.families import Family, InvalidSpecError, NumericalCheckError
from qchain.qseries import NotOddOddError, RationalQ

ALL_FAMILIES = tuple(Family)


def test_pst_spec_small_chain():
    spec = families.pst_spec(RationalQ(3, 1), 2)
    assert spec.family is Family.Q_KRAWTCHOUK
    built = families.recurrence_coefficients(spec)
    expected = math.sqrt(6) / 18
    assert built.couplings == pytest.approx([expected, expected], rel=1e-14)
    assert built.fields == pytest.approx([1 / 3, 1 / 9, 1 / 3], rel=1e-14)
    assert families.eigenvalues(spec) == [0, Fraction(1, 3), Fraction(4, 9)]


@pytest.mark.parametrize("N", [1, 3])
def test_pst_spec_takes_a_fraction_q(N):
    assert families.pst_spec(Fraction(3, 5), N) == families.pst_spec(RationalQ(3, 5), N)


def test_validation_report_truth_is_its_verdict():
    good = families.validate(families.pst_spec(RationalQ(3, 1), 2))
    bad = families.validate(families.q_krawtchouk(3, RationalQ(3, 1), Fraction(0)))
    assert (bool(good), bool(bad)) == (good.valid, bad.valid) == (True, False)


def test_describe_mentions_family_and_size():
    spec = families.pst_spec(RationalQ(3, 1), 2)
    text = spec.describe()
    assert "q-krawtchouk" in text
    assert "N=2" in text
    assert "p=1/9" in text


@pytest.mark.parametrize(
    "bad",
    [
        lambda: families.q_krawtchouk(3, RationalQ(3, 1), Fraction(0)),
        lambda: families.q_krawtchouk(3, RationalQ(3, 1), Fraction(-1, 9)),
        lambda: families.affine_q_krawtchouk(3, RationalQ(3, 1), Fraction(1, 2)),
        lambda: families.quantum_q_krawtchouk(3, RationalQ(3, 1), Fraction(1, 9)),
        lambda: families.dual_q_krawtchouk(3, RationalQ(1, 3), Fraction(1, 2)),
        lambda: families.q_hahn(3, RationalQ(1, 3), Fraction(4), Fraction(1, 2)),
        lambda: families.dual_q_hahn(3, RationalQ(1, 3), Fraction(7, 2), Fraction(1, 2)),
        lambda: families.q_racah(3, RationalQ(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(2)),
    ],
)
def test_validate_rejects_out_of_window(bad):
    spec = bad()
    report = families.validate(spec)
    assert not report.valid
    assert report.violations
    with pytest.raises(InvalidSpecError):
        families.orthogonality_data(spec)


QK = families.q_krawtchouk(2, RationalQ(3, 5), Fraction(25, 9))


@pytest.mark.parametrize("call, error, message", [
    (lambda: families.FamilySpec(Family.Q_KRAWTCHOUK, -1, RationalQ(3, 5), (("p", 1),)),
     ValueError, "N must be nonnegative"),
    (lambda: families.FamilySpec(Family.Q_KRAWTCHOUK, 2, RationalQ(3, 5), (("c", 1),)),
     ValueError, "q-krawtchouk takes parameters ('p',), got ('c',)"),
    (lambda: families.q_krawtchouk(2, -0.5, 1.0), ValueError, "q must be positive and != 1"),
    (lambda: families.q_krawtchouk(2, 0.0, 1.0), ValueError, "q must be positive and != 1"),
    (lambda: families.q_krawtchouk(2, 1.0, 1.0), ValueError, "q must be positive and != 1"),
    (lambda: QK.param("c"), KeyError, "'c'"),
    (lambda: families.make_spec(Family.Q_KRAWTCHOUK, 2, "3/5", p=1), TypeError,
     "q must be RationalQ or a number"),
    (lambda: families.evaluate(QK, 3, 0), ValueError, "need 0 <= n, x <= N"),
    (lambda: families.evaluate(QK, 0, -1), ValueError, "need 0 <= n, x <= N"),
    (lambda: families.eigenvalue(QK, 3), ValueError, "need 0 <= k <= N"),
    (lambda: families.eigenvalue(QK, -1), ValueError, "need 0 <= k <= N"),
], ids=["negative-N", "parameter-names", "float-q-negative", "float-q-zero", "float-q-one",
        "unknown-param", "q-type", "evaluate-n", "evaluate-x", "eigenvalue-above-N",
        "eigenvalue-negative"])
def test_spec_and_index_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_validate_accepts_sampler_output():
    rng = random.Random(21)
    for family in ALL_FAMILIES:
        spec = draw_valid_spec(rng, family, 4)
        assert families.validate(spec).valid
        assert not families.validate(spec).violations


def test_eigenvalues_are_exact_and_indexed():
    rng = random.Random(22)
    for family in ALL_FAMILIES:
        spec = draw_valid_spec(rng, family, 5)
        eigs = families.eigenvalues(spec)
        assert len(eigs) == spec.N + 1
        assert all(isinstance(e, Fraction) for e in eigs)
        for k, e in enumerate(eigs):
            assert families.eigenvalue(spec, k) == e


def test_orthonormal_matrix_diagonalizes_recurrence():
    # full validity windows, so the spectral scale can be large; the
    # reconstruction bound is relative to it
    rng = random.Random(23)
    for family in ALL_FAMILIES:
        for N in (1, 3, 6):
            spec = draw_valid_spec(rng, family, N)
            data = families.orthogonality_data(spec)
            U = families.orthonormal_matrix(data)
            eps = np.array([float(e) for e in data.spectrum])
            M = chain.assemble_matrix(data.chain)
            scale = 1.0 + float(np.max(np.abs(eps)))
            assert np.max(np.abs(U.T @ U - np.eye(N + 1))) < 1e-14
            assert np.max(np.abs(U @ np.diag(eps) @ U.T - M)) < 1e-14 * scale


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.integers(0, 7), st.integers(0, 2 ** 32))
def test_exact_dual_orthogonality(family, N, seed):
    # the norms derived from the recurrence, with the Christoffel weights
    # w(x) = 1/sum_n P_n(x)**2/d_n, orthogonalise the series values exactly
    spec = draw_valid_spec(random.Random(seed), family, N)
    data = families.orthogonality_data(spec)
    norms = data.norms
    assert all(isinstance(d, Fraction) and d > 0 for d in norms)
    P = [[families._point_value(family, data.values, n, x) for x in range(N + 1)]
         for n in range(N + 1)]
    assert all(isinstance(v, Fraction) for row in P for v in row)
    w = [1 / sum(P[n][x] ** 2 / norms[n] for n in range(N + 1)) for x in range(N + 1)]
    assert w[0] == 1
    for n in range(N + 1):
        for m in range(N + 1):
            total = sum(w[x] * P[n][x] * P[m][x] for x in range(N + 1))
            assert total == (norms[n] if n == m else 0)
    # trace identity: the fields h_n = a_n + c_n sum to the spectrum
    assert all(isinstance(v, Fraction) for v in data.a + data.c + data.spectrum)
    assert sum(data.a) + sum(data.c) == sum(data.spectrum)


def _layers(spec):
    """U bytes, chain record, eigenvalue reprs and every P_n(x) of a spec,
    or the type of the error each raises."""
    def outcome(compute):
        try:
            return compute()
        except (ArithmeticError, ValueError) as err:
            return type(err).__name__

    def record():
        data = families.orthogonality_data(spec)
        arrays = (data.couplings, data.fields, data.signs)
        return repr(data.norms), *(array.tobytes() for array in arrays)

    grid = range(spec.N + 1)
    return (
        outcome(lambda: families.orthonormal_matrix(families.orthogonality_data(spec)).tobytes()),
        outcome(record),
        outcome(lambda: repr(families.eigenvalues(spec))),
        outcome(lambda: repr([families.evaluate(spec, n, x) for n in grid for x in grid])),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.integers(0, 7), st.integers(0, 2 ** 32),
       st.integers(0, 2))
def test_rational_q_with_a_float_parameter_computes_as_float_twin(family, N, seed, which):
    # one binding decides the arithmetic of a whole spec: a float
    # parameter makes every layer float, bit for bit as the all-float twin
    spec = draw_valid_spec(random.Random(seed), family, N)
    name = spec.params[which % len(spec.params)][0]
    mixed = dataclasses.replace(spec, params=tuple(
        (key, float(value) if key == name else value) for key, value in spec.params))
    twin = families.make_spec(
        family, N, float(spec.q), **{key: float(value) for key, value in spec.params})
    assert isinstance(mixed.q, RationalQ) and not mixed.is_exact
    assert _layers(mixed) == _layers(twin)


def test_site_signs_unit_and_anchored():
    rng = random.Random(25)
    for family in ALL_FAMILIES:
        spec = draw_valid_spec(rng, family, 5)
        signs = families.orthogonality_data(spec).signs
        assert signs[0] == 1
        assert set(np.unique(signs)) <= {-1.0, 1.0}


def test_site_signs_alternate_for_qracah_interior():
    spec = families.q_racah(3, RationalQ(1, 3), Fraction(5, 4), Fraction(5, 4), Fraction(54))
    data = families.orthogonality_data(spec)
    assert list(data.signs) == [1, -1, 1, -1]
    # the record keeps the raw coupling signs that the gauge absorbs
    assert list(np.sign(data.couplings)) == [-1, -1, -1]
    pst = families.pst_spec(RationalQ(3, 5), 4)
    assert list(families.orthogonality_data(pst).signs) == [1, 1, 1, 1, 1]


def test_recurrence_coefficients_positive_couplings():
    rng = random.Random(26)
    for family in ALL_FAMILIES:
        spec = draw_valid_spec(rng, family, 6)
        built = families.recurrence_coefficients(spec)
        assert len(built.couplings) == spec.N
        assert len(built.fields) == spec.N + 1
        assert all(J > 0 for J in built.couplings)


def test_vanishing_coupling_fails_favard():
    # alpha q = 1 zeroes a_0, so J_0**2 = 0 and no positive measure
    # exists; alpha q is also a pole of the series, which is checked
    # first, so the record refuses the spec with validate's message
    spec = families.q_hahn(3, RationalQ(1, 3), Fraction(3), Fraction(1, 2))
    with pytest.raises(InvalidSpecError, match=re.escape(
            "degenerate parameters: alpha*q * q**0 = 1 zeroes the denominator factor")):
        families.orthogonality_data(spec)


def test_pst_chain_closed_form_matches_recurrence():
    for q in (RationalQ(3, 1), RationalQ(3, 5)):
        for N in (1, 2, 5):
            J, h = families.pst_chain_closed_form(q, N)
            built = families.recurrence_coefficients(families.pst_spec(q, N))
            assert J == pytest.approx(list(built.couplings), rel=1e-13)
            assert h == pytest.approx(list(built.fields), rel=1e-13)


def test_qracah_delta_example():
    spec = families.q_racah(1, RationalQ(1, 3), Fraction(1), Fraction(2), Fraction(4))
    assert families.qracah_delta(spec) == Fraction(9, 2)


def test_size_zero_chain():
    spec = families.q_krawtchouk(0, RationalQ(3, 1), Fraction(1, 2))
    built = families.recurrence_coefficients(spec)
    assert len(built.couplings) == 0
    assert len(built.fields) == 1
    assert families.orthonormal_matrix(families.orthogonality_data(spec)).shape == (1, 1)


def test_constructor_q_pool_round_trip():
    # params survive the spec container unchanged
    for q in Q_POOL:
        spec = families.q_hahn(2, q, Fraction(1, 2), Fraction(1, 3))
        assert spec.q is q
        assert spec.N == 2
        assert dict(spec.params) == {"alpha": Fraction(1, 2), "beta": Fraction(1, 3)}


def test_q_small_pool_for_qracah():
    rng = random.Random(27)
    for q in Q_SMALL:
        spec = draw_valid_spec(rng, Family.Q_RACAH, 3, q=q)
        assert families.validate(spec).valid


def test_every_family_has_one_table_record():
    assert set(families.FAMILIES) == set(Family)
    for family, record in families.FAMILIES.items():
        values = {name: Fraction(1, 2) for name in record.params}
        spec = families.make_spec(family, 2, RationalQ(1, 3), **values)
        assert spec.params == tuple(values.items())


def _leaves(value):
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_every_table_field_is_a_plain_formula():
    # every field maps the spec, or its binding and indices, to values;
    # none returns a function to be called later
    for family, record in families.FAMILIES.items():
        spec = draw_valid_spec(random.Random(family.value), family, 3)
        values, indices = families._values(spec), range(spec.N + 1)
        results = {
            "params": record.params,
            "window": record.window(spec),
            "series": [record.series(values, n, x) for n in indices for x in indices],
            "recurrence": [record.recurrence(values, n) for n in indices],
            "poles": record.poles(values),
            "modulation": [record.modulation(values, k) for k in indices],
        }
        assert set(results) == {field.name for field in dataclasses.fields(record)}
        for name, result in results.items():
            assert not any(callable(leaf) for leaf in _leaves(result)), (family, name)


@pytest.mark.parametrize(
    "spec,base",
    [
        # gamma = beta q**-N: (gamma q/beta; q)_N vanishes in the weight
        (families.q_racah(6, RationalQ(1, 3), Fraction(7, 8), Fraction(7, 4),
                          Fraction(5103, 4)), "gamma*q/beta"),
        # alpha = q**-N: (alpha q; q)_N vanishes in the series
        (families.q_racah(2, RationalQ(5, 9), Fraction(81, 25), Fraction(702, 125),
                          Fraction(81, 8)), "alpha*q"),
        # delta = 1/(beta q**(N+1)) = q**-(N-1): (delta q; q)_N vanishes
        (families.q_racah(3, RationalQ(1, 3), Fraction(9, 4), Fraction(3),
                          Fraction(729, 8)), "delta*q"),
    ],
)
def test_exactly_degenerate_specs_rejected(spec, base):
    report = families.validate(spec)
    assert not report.valid
    assert report.violations == (
        f"degenerate parameters: {base} * q**{spec.N - 1} = 1 zeroes "
        f"the denominator factor ({base}; q)_{spec.N}",
    )
    with pytest.raises(InvalidSpecError, match="degenerate parameters"):
        families.orthogonality_data(spec)
    # the chain comes from the validated record, so it is refused as well
    with pytest.raises(InvalidSpecError, match=f"degenerate parameters: {re.escape(base)}"):
        families.recurrence_coefficients(spec)


@pytest.mark.parametrize("spec", [
    families.q_krawtchouk(30, 0.1, 1.0),
    families.dual_q_krawtchouk(40, 0.3, -1.0),
], ids=lambda spec: spec.family.value)
def test_float_norm_overflow_is_a_validation_verdict(spec):
    # a float spec evaluates its norms while it is validated; their
    # overflow is its verdict, not a failure of the first U build
    assert families.validate(spec).violations == ("weight or norm overflow/underflow",)


def test_exact_norms_are_derived_on_first_use():
    # the exact twin has positive norms, which validation does not sum
    spec = families.q_krawtchouk(30, RationalQ(1, 10), 1)
    data = families.orthogonality_data(spec)
    assert "norms" not in vars(data)
    assert all(d > 0 for d in data.norms)
    assert "norms" in vars(data)


@pytest.mark.parametrize("spec, violation", [
    # alpha beta q = 1 zeroes a denominator of a_0 that no pole names
    (families.q_hahn(3, RationalQ(1, 3), Fraction(3, 2), 2),
     "couplings not positive: the recurrence divides by zero"),
    # q**402 overflows the float binding
    (families.q_krawtchouk(200, 1000.0, 1.0), "non-finite couplings"),
    # the fields h_n ~ 10**400 overflow their float view
    (families.dual_q_krawtchouk(3, RationalQ(1, 3), -10 ** 400), "non-finite couplings"),
    # the float recurrence reaches inf/inf, so J_n is nan
    (families.q_krawtchouk(14, 1e10, 1.0), "non-finite couplings"),
], ids=["divides-by-zero", "binding-overflow", "field-overflow", "nan-coupling"])
def test_recurrence_failures_are_validation_verdicts(spec, violation):
    assert families.validate(spec).violations == (violation,)
    with pytest.raises(InvalidSpecError, match=re.escape(violation)):
        families.orthogonality_data(spec)


@pytest.mark.parametrize("spec, violation", [
    (families.q_hahn(3, RationalQ(10 ** 400, 1), 0.5, 0.5), "non-finite couplings"),
    (families.affine_q_krawtchouk(3, RationalQ(10 ** 400, 1), 0.5),
     f"need 0 < p < 0.0 for q = {10 ** 400}, got 0.5"),
], ids=["binding", "window"])
def test_exact_q_beyond_the_float_range_reads_as_inf(spec, violation):
    # a float parameter makes the spec float; its exact q, too large for
    # a float, binds and enters the window as inf instead of raising
    # OverflowError
    assert families.validate(spec).violations == (violation,)
    with pytest.raises(InvalidSpecError, match=re.escape(violation)):
        families.orthogonality_data(spec)


def test_exact_windows_are_decided_exactly():
    # 1000**120 is beyond the float range: the exact window compares
    # Fractions and its message prints the bound exactly
    exact = families.quantum_q_krawtchouk(120, RationalQ(1, 1000), 2)
    assert families.validate(exact).violations == (
        f"need p > {1000 ** 120} for q = 1/1000, got 2.0",)
    # the float twin stays on floats, where the bound overflows to inf
    twin = families.quantum_q_krawtchouk(120, 0.001, 2.0)
    assert families.validate(twin).violations == ("need p > inf for q = 0.001, got 2.0",)
    # a float spec reads an exact parameter beyond the float range as inf
    mixed = families.q_hahn(3, RationalQ(1, 3), 0.5, Fraction(10 ** 400))
    assert families.validate(mixed).violations == ("non-finite couplings",)
    negative = families.q_hahn(3, RationalQ(1, 3), 0.5, Fraction(-10 ** 400))
    assert families.validate(negative).violations == ("beta must be positive, got -inf",)
    # p = 3**-701 is 0.0 as a float, but inside the window 0 < p < 3**-700
    tiny = families.affine_q_krawtchouk(700, RationalQ(3), Fraction(1, 3 ** 701))
    assert families.validate(tiny).valid


def test_underflowing_couplings_fail_closed(tmp_path, capsys):
    # validity is decided exactly, so these specs are valid, but their
    # couplings are 0.0 in floats and no float chain can be built
    for spec in (families.q_krawtchouk(2, RationalQ(1, 3), Fraction(1, 3 ** 1400)),
                 families.affine_q_krawtchouk(700, RationalQ(3), Fraction(1, 3 ** 701))):
        assert families.validate(spec).valid
        with pytest.raises(NumericalCheckError, match="couplings of .* underflow to 0 in floats"):
            families.recurrence_coefficients(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "family": "q-krawtchouk", "N": 2, "q": {"num": 1, "den": 3},
        "params": {"p": f"1/{3 ** 1400}"}}))
    assert cli.main(["spectrum", str(path)]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical check failed: couplings of q-krawtchouk" in captured.err


def test_validation_evaluates_the_window_and_binds_once(monkeypatch):
    spec = families.q_racah(3, RationalQ(1, 3), Fraction(9, 4), Fraction(11, 4), Fraction(729, 8))
    calls = []
    record = families.FAMILIES[spec.family]
    bind = families._values

    def window(target):
        calls.append("window")
        return record.window(target)

    def values(target):
        calls.append("bind")
        return bind(target)

    monkeypatch.setitem(
        families.FAMILIES, spec.family, dataclasses.replace(record, window=window))
    monkeypatch.setattr(families, "_values", values)
    assert families.validate(spec).valid
    assert calls == ["window", "bind"]


@pytest.mark.parametrize("spec", [
    families.q_hahn(5, RationalQ(1, 3), Fraction(1, 2), Fraction(5, 4)),
    families.q_hahn(6, 0.6, 0.5, 0.7),
], ids=["exact", "float"])
def test_a_record_keeps_its_binding(spec, monkeypatch):
    # U's point table and its series check read the record's binding;
    # only the spectrum, by eigenvalues(spec), binds the spec again
    calls = []
    bind = families._values

    def values(target):
        calls.append(target)
        return bind(target)

    monkeypatch.setattr(families, "_values", values)
    families.orthonormal_matrix(families.orthogonality_data(spec))
    assert len(calls) == 2


def test_evaluate_rounds_the_exact_value_once():
    # P_10(10) of this spec is exactly 10**300, which rounds to 1e300
    assert families.evaluate(families.q_krawtchouk(10, 1000, 1), 10, 10) == 1e300
    # beyond the float range a value saturates to an infinity of its sign
    spec = families.q_krawtchouk(20, 1000, 1)
    assert families.evaluate(spec, 20, 20) == math.inf
    assert families.evaluate(spec, 19, 19) == -math.inf


# parameters q**k times a small rational, so the drawn specs land on the
# poles and on vanishing couplings as well as inside the windows
@st.composite
def exact_specs(draw, qs=Q_POOL, sizes=(1, 4)):
    family = draw(st.sampled_from(ALL_FAMILIES))
    q = draw(st.sampled_from(qs))
    N = draw(st.integers(*sizes))

    def parameter():
        sign = draw(st.sampled_from((1, 1, 1, -1)))
        scale = draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 4))))
        return sign * scale * q.as_fraction ** draw(st.integers(-N - 3, 2))

    params = {name: parameter() for name in families.FAMILIES[family].params}
    return families.make_spec(family, N, q, **params)


def _refusal(call, *args):
    """The error ``call`` raises, or None."""
    try:
        call(*args)
    except Exception as err:  # noqa: BLE001 - the test compares errors
        return err
    return None


def _assert_refused_like(err, spec, violations):
    assert isinstance(err, InvalidSpecError)
    assert err.violations == violations
    assert str(err) == f"{spec.describe()}: " + "; ".join(violations)


@settings(max_examples=250, deadline=None)
@given(exact_specs())
def test_every_record_reader_refuses_what_validate_refuses(spec):
    report = families.validate(spec)
    refused = _refusal(families.orthogonality_data, spec)
    assert report.valid == (refused is None)
    if report.valid:
        assert report.violations == ()
        return
    _assert_refused_like(refused, spec, report.violations)
    # the record is the first check of every entry point, before the
    # sites and the matched time
    for reader in (evolve.transfer_report, evolve.transfer_time, closedform.matched_transfer_time):
        _assert_refused_like(_refusal(reader, spec), spec, report.violations)
    for r, s in ((spec.N, 0), (1, 1), (spec.N + 1, 0)):
        err = _refusal(closedform.closed_form_result, spec, r, s)
        _assert_refused_like(err, spec, report.violations)


# the table formulas' operations in plain Fraction arithmetic, each
# taking its gcd
FRACTIONS = families.Arithmetic(
    one=Fraction(1), zero=Fraction(0), neg=operator.neg, mul=operator.mul,
    div=operator.truediv, less=lambda x, y, z: x - y * z,
    bracket=lambda Q, k: (1 - Q[k]) / (1 - Q[1]),
    ratio=lambda nums, dens: math.prod(nums) / math.prod(dens), value=lambda x: x)


def fraction_binding(spec):
    """An exact spec bound as reduced Fractions, each power q**e by its
    own ``Fraction.__pow__``."""
    N, q = spec.N, spec.qx
    return (FRACTIONS, N, {e: q ** e for e in range(-N - 1, 2 * N + 3)}, q,
            *(Fraction(v) for _, v in spec.params))


def reference_record(spec):
    """(a, c, eps, d) of an exact spec in plain Fraction arithmetic, or
    its refusal message.

    The table formulas run on a binding of reduced Fractions, each power
    q**e by its own ``Fraction.__pow__``, so every operation takes its
    gcd; the rules run in the record's order: window, poles, the
    recurrence's division by zero, Favard's criterion.  The draws below
    stay far inside the float range, so the non-finite rule never fires.
    """
    record, N, q = families.FAMILIES[spec.family], spec.N, spec.qx
    violations = record.window(spec)
    if violations:
        return "; ".join(violations)
    values = fraction_binding(spec)
    for name, base in record.poles(values):
        for j in range(N):
            if base * q ** j == 1:
                return (f"degenerate parameters: {name} * q**{j} = 1 zeroes "
                        f"the denominator factor ({name}; q)_{j + 1}")
    try:
        a, c = zip(*(record.recurrence(values, n) for n in range(N + 1)))
    except ZeroDivisionError:
        return "couplings not positive: the recurrence divides by zero"
    positive = [a[n] * c[n + 1] > 0 for n in range(N)]
    if not all(positive):
        return f"orthogonality data has mixed signs: J_{positive.index(False)}**2 <= 0"
    eps = [-(1 - q ** -k) / (1 - q) * record.modulation(values, k) for k in range(N + 1)]
    rho = [Fraction(1)]
    for n in range(N):
        rho.append(rho[n] * c[n + 1] / a[n])
    d = [r * sum(1 / r for r in rho) for r in rho]
    return a, c, eps, d


Q_RECORD = Q_POOL + tuple(RationalQ(1, k) for k in (2, 4, 7))


@settings(max_examples=300, deadline=None)
@given(exact_specs(Q_RECORD, (0, 8)))
@example(families.q_hahn(3, RationalQ(1, 3), Fraction(3, 2), 2))
@example(families.q_racah(6, RationalQ(1, 3), Fraction(7, 8), Fraction(7, 4), Fraction(5103, 4)))
@example(families.dual_q_hahn(1, RationalQ(1, 3), Fraction(9, 2), 6))
# large enough that the pair products cancel their cross factors
@example(families.pst_spec(RationalQ(3, 5), 60))
def test_record_equals_the_plain_fraction_reference(spec):
    # the record binds a spec to integer pairs and reduces once per
    # stored value; the answers are the plain Fraction ones
    expected = reference_record(spec)
    if isinstance(expected, str):
        with pytest.raises(InvalidSpecError) as err:
            families.orthogonality_data(spec)
        assert str(err.value) == f"{spec.describe()}: {expected}"
        return
    a, c, eps, d = expected
    data = families.orthogonality_data(spec)
    for got, want in ((data.a, a), (data.c, c), (data.spectrum, eps), (data.norms, d)):
        assert all(type(value) is Fraction for value in got)
        assert list(got) == list(want)
    assert families.eigenvalues(spec) == eps
    if spec.family is Family.Q_RACAH:
        delta = families.qracah_delta(spec)
        assert type(delta) is Fraction
        assert delta == 1 / (spec.param("beta") * spec.qx ** (spec.N + 1))


@pytest.mark.parametrize("call, spec", [
    (evolve.transfer_report,
     families.q_racah(6, RationalQ(1, 3), Fraction(7, 8), Fraction(7, 4), Fraction(5103, 4))),
    (evolve.transfer_report, families.dual_q_hahn(1, RationalQ(1, 3), Fraction(9, 2), 6)),
    (lambda spec: closedform.closed_form_result(spec, 1, 1),
     families.dual_q_hahn(1, RationalQ(1, 3), Fraction(9, 2), 6)),
], ids=["q-racah-report", "dual-q-hahn-report", "dual-q-hahn-interior"])
def test_degenerate_specs_are_refused_by_every_reader(call, spec):
    # each spec passes Favard's criterion but sits on a pole, which
    # validate refused while these readers answered
    violations = families.validate(spec).violations
    assert violations[0].startswith("degenerate parameters: ")
    with pytest.raises(InvalidSpecError) as err:
        call(spec)
    assert str(err.value) == f"{spec.describe()}: {violations[0]}"
    assert err.value.violations == violations


# one phase-matched spec per family, with a closed form at (N, 0)
PHASE_SPECS = (
    families.q_krawtchouk(3, RationalQ(3, 5), Fraction(125, 27)),
    families.affine_q_krawtchouk(3, RationalQ(3), Fraction(1, 54)),
    families.quantum_q_krawtchouk(3, RationalQ(3), Fraction(1)),
    families.dual_q_krawtchouk(3, RationalQ(9, 5), Fraction(-10019, 1200)),
    families.q_hahn(3, RationalQ(1, 3), Fraction(1, 2), Fraction(5, 4)),
    families.dual_q_hahn(3, RationalQ(3), Fraction(1, 216), Fraction(1, 36)),
    families.q_racah(3, RationalQ(1, 3), Fraction(9, 4), Fraction(11, 4), Fraction(729, 8)),
)


JACOBI_DATA = ("a", "c", "h", "J2")


@pytest.mark.parametrize("spec", PHASE_SPECS, ids=lambda spec: spec.family.value)
def test_validation_reduces_no_fraction(spec, monkeypatch):
    # a record decides validity on its binding's unreduced pairs, and its
    # Jacobi data become Fractions on their first read
    records = []
    derive = families.orthogonality_data

    def kept(target):
        records.append(derive(target))
        return records[-1]

    monkeypatch.setattr(families, "orthogonality_data", kept)
    assert families.validate(spec).valid
    records.append(derive(spec))
    for data in records:
        assert not any(name in vars(data) for name in JACOBI_DATA)
    data = records[-1]
    raw = dict(zip(JACOBI_DATA, data.raw))
    for name in JACOBI_DATA:
        value = getattr(data, name)
        assert name in vars(data) and getattr(data, name) is value
        assert all(type(v) is Fraction for v in value)
        assert all(type(n) is int and type(d) is int for n, d in raw[name])
        assert value == tuple(Fraction(n, d) for n, d in raw[name])
    # beyond what its window computes, validating takes no gcd at all
    gcds = []
    gcd = math.gcd

    def counted(*args):
        gcds.append(args)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counted)
    families.FAMILIES[spec.family].window(spec)
    in_window = len(gcds)
    families.validate(spec)
    assert len(gcds) == 2 * in_window


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


@pytest.mark.parametrize("spec", PHASE_SPECS, ids=lambda spec: spec.family.value)
def test_validation_builds_no_array(spec, monkeypatch):
    # the record's float arrays are built on first read, not to validate
    for module in (families, chain):
        monkeypatch.setattr(module, "np", _NoNumpy())
    assert families.validate(spec).valid


@pytest.mark.parametrize("spec", PHASE_SPECS, ids=lambda spec: spec.family.value)
def test_a_report_builds_fractions_only_at_the_api_edge(spec, monkeypatch):
    # a report runs its record on integer pairs: the Fractions that
    # families and evolve construct are the spectrum (N+1, by _reduced in
    # eigenvalues), the parity values (N+1) and the times: the matched
    # time, which the search always asks for since Q**N and P**N are
    # tested as its odd multiples, and Q**N or P**N when picked; the one
    # exact series check, inputs and sum, is left to the series kernel
    families.validate(spec)
    built, counting = [], [True]
    new = Fraction.__new__
    ours = {families.__file__, evolve.__file__}

    def counted(cls, *args, **kwargs):
        caller = sys._getframe(1).f_code
        if counting[0] and caller.co_filename in ours:
            built.append(caller.co_name)
        return new(cls, *args, **kwargs)

    series = families._point_value

    def uncounted(*args):
        counting[0] = False
        try:
            return series(*args)
        finally:
            counting[0] = True

    monkeypatch.setattr(Fraction, "__new__", counted)
    monkeypatch.setattr(families, "_point_value", uncounted)
    report = evolve.transfer_report(spec)
    monkeypatch.undo()
    N, q = spec.N, spec.q
    expected = Counter(_reduced=N + 1, phase_parity_check=N + 1)
    if report.time.pi_multiple in (q.num ** N, q.den ** N):
        expected["search_transfer_time"] = 1
    if evolve.matched_phase_time(families.eigenvalues(spec)) is not None:
        expected["matched_phase_time"] = 1
    assert Counter(built) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.integers(0, 8), st.integers(0, 2 ** 32))
def test_integer_core_matches_a_fraction_reference(family, N, seed):
    # the record's reduced pairs, its norm pairs, the recurrence's row
    # scales and the point table, against the same quantities formed
    # here in Fraction arithmetic from the family's recurrence formula
    spec = draw_valid_spec(random.Random(seed), family, N)
    data = families.orthogonality_data(spec)
    binding = fraction_binding(spec)
    a, c = zip(*(families.FAMILIES[family].recurrence(binding, n) for n in range(N + 1)))
    a, c = [Fraction(v) for v in a], [Fraction(v) for v in c]
    h = [an + cn for an, cn in zip(a, c)]
    J2 = [a[n] * c[n + 1] for n in range(N)]

    def lowest(values):
        return tuple((v.numerator, v.denominator) for v in values)

    assert data.pairs == tuple(map(lowest, (a, c, h, J2)))
    assert (data.a, data.c, data.h, data.J2) == tuple(map(tuple, (a, c, h, J2)))
    assert data.mirror_symmetric == (h == h[::-1] and J2 == J2[::-1])
    # squared norms d_n = rho_n sum_m 1/rho_m, rho_n = prod_{j<n} c_{j+1}/a_j
    rho = [Fraction(1)]
    for n in range(N):
        rho.append(rho[n] * c[n + 1] / a[n])
    d = [r * sum(1 / r for r in rho) for r in rho]
    assert all(den > 0 for _, den in data.norm_pairs)
    assert [Fraction(*pair) for pair in data.norm_pairs] == d == list(data.norms)
    # row scales: the least r_n making r_n h_n and r_n r_{n-1} b_n integers
    scale, prod, r_prev = 1, Fraction(1), 0  # R_n = prod_{j<n} r_j, prod_{j<n} a_j
    for n, (r, H, B, top, bottom) in enumerate(families._recurrence_rows(data)):
        rb = r_prev * a[n - 1] * c[n] if n else Fraction(0)  # r_{n-1} b_n
        assert r == math.lcm(h[n].denominator, rb.denominator)
        assert (H, B) == (r * h[n], r * rb)
        assert bottom > 0 and Fraction(top, bottom) == 1 / (scale * prod)
        scale, prod, r_prev = scale * r, prod * a[n], r
    # the table: s_n P_n(x) / sqrt(d_n) with P from the recurrence
    # eps P_n = h_n P_n - a_n P_{n+1} - c_n P_{n-1}, split as m * 2**e
    def split(value):
        return math.frexp(float(value)) if value else (0.0, -1)

    signs = [1]
    for an in a[:N]:
        signs.append(signs[-1] * (1 if an > 0 else -1))
    roots = []
    for dn in d:
        m, e = split(dn)
        roots.append((math.sqrt(2 * m), (e - 1) // 2) if e % 2 else (math.sqrt(m), e // 2))
    columns = []
    for eps in data.spectrum:
        P = [Fraction(1), (h[0] - eps) / a[0]] if N else [Fraction(1)]
        for n in range(1, N):
            P.append(((h[n] - eps) * P[n] - c[n] * P[n - 1]) / a[n])
        columns.append([split(value) for value in P])
    mantissa, exponent = data.point_table
    assert mantissa.tolist() == [
        [columns[x][n][0] / (signs[n] * roots[n][0]) for x in range(N + 1)] for n in range(N + 1)]
    assert exponent.tolist() == [
        [columns[x][n][1] - roots[n][1] for x in range(N + 1)] for n in range(N + 1)]


def test_large_n_pairs_stay_near_their_reduced_size():
    # an exact product cancels its cross factors once its denominator
    # reaches 1024 bits, so the unreduced Jacobi data of pst_spec(3/5, 400)
    # carry little common content: in all, 1.07, 1.03, 2.04 and 1.00
    # times the bits of the reduced a_n, c_n, h_n and J_n**2 (3.6, 5.2,
    # 8.8 and 4.5 times without the cancellation)
    data = families.orthogonality_data(families.pst_spec(RationalQ(3, 5), 400))

    def bits(pairs):
        return sum(n.bit_length() + d.bit_length() for n, d in pairs)

    for name, raw, reduced, bound in zip(JACOBI_DATA, data.raw, data.pairs, (1.25, 1.25, 2.25, 1.25)):
        assert bits(raw) <= bound * bits(reduced), name


@pytest.mark.parametrize("spec", PHASE_SPECS + (families.q_hahn(12, 0.6, 0.5, 0.7),),
                         ids=lambda spec: spec.describe())
def test_u_float_part_runs_once_per_record(spec):
    # the record keeps its checked U read-only; every build is a fresh,
    # writable copy of it, and a second build does not read the table
    data = families.orthogonality_data(spec)
    first = families.orthonormal_matrix(data)
    assert not data.U.flags.writeable
    mantissa, exponent = data.point_table
    vars(data)["point_table"] = (np.zeros_like(mantissa), np.zeros_like(exponent))
    second = families.orthonormal_matrix(data)
    assert second is not first and second.flags.writeable
    assert second.tobytes() == first.tobytes()
    second[:] = 0.0
    assert families.orthonormal_matrix(data).tobytes() == first.tobytes()


@pytest.mark.parametrize("spec", PHASE_SPECS, ids=lambda spec: spec.family.value)
def test_weights_and_norms_evaluated_once_per_derivation(spec, monkeypatch):
    # every reader shares one orthogonality_data record, derived from one
    # recurrence pass (counted at n = 0) on one binding: one per validation
    # and one per transfer report (shared by its two U builds), none per U
    # build from a record; every closed form derives its record once,
    # builds U once from it and finishes its formula from the same record
    passes = []
    for family, record in families.FAMILIES.items():
        def counted(target, n, recurrence=record.recurrence):
            if n == 0:
                passes.append(target)
            return recurrence(target, n)

        monkeypatch.setitem(
            families.FAMILIES, family, dataclasses.replace(record, recurrence=counted))

    def evaluations(fn, *args):
        passes.clear()
        fn(*args)
        return passes

    binding = families._values(spec)
    assert evaluations(families.validate, spec) == [binding]
    assert evaluations(families.orthonormal_matrix, families.orthogonality_data(spec)) == []
    assert evaluations(evolve.transfer_report, spec) == [binding]
    builds = []
    build = families.orthonormal_matrix

    def counted_build(data):
        builds.append(data.spec)
        return build(data)

    monkeypatch.setattr(families, "orthonormal_matrix", counted_build)
    assert evaluations(closedform.closed_form_result, spec, spec.N, 0) == [binding]
    assert builds == [spec]


@pytest.mark.parametrize("spec", PHASE_SPECS, ids=lambda spec: spec.family.value)
def test_series_bound_once_and_each_time_checked_once(spec, monkeypatch):
    # an exact U build evaluates one series, P_N(N), to check its table,
    # and the transfer-time search hands its parity table to the report
    entries = []
    for family, record in families.FAMILIES.items():
        def counted(target, n, x, series=record.series):
            entries.append((target, n, x))
            return series(target, n, x)

        monkeypatch.setitem(families.FAMILIES, family, dataclasses.replace(record, series=counted))
    families.orthonormal_matrix(families.orthogonality_data(spec))
    assert entries == [(families._values(spec), spec.N, spec.N)]

    times = []
    check = evolve.phase_parity_check

    def counted_check(spectrum, t):
        times.append(t)
        return check(spectrum, t)

    monkeypatch.setattr(evolve, "phase_parity_check", counted_check)
    report = evolve.transfer_report(spec)
    assert times.count(report.time) == 1
    assert len(set(times)) == len(times)
    # the time search alone checks only the two candidate times
    times.clear()
    assert evolve.transfer_time(spec) == report.time
    assert len(times) <= 2


@pytest.mark.parametrize("spec", PHASE_SPECS, ids=lambda spec: spec.family.value)
def test_transfer_report_derives_the_spectrum_once(spec, monkeypatch):
    # the time search, the parity table and both exact-phase matrices
    # share one exact spectrum
    spectra = []
    eigenvalues = families.eigenvalues

    def counted(target):
        spectra.append(target)
        return eigenvalues(target)

    monkeypatch.setattr(families, "eigenvalues", counted)
    evolve.transfer_report(spec)
    assert spectra == [spec]


@pytest.mark.parametrize("spec", PHASE_SPECS, ids=lambda spec: spec.family.value)
def test_transfer_report_sums_each_series_once(spec, monkeypatch):
    # both U builds of a report run, on one record, and the second reads
    # the point table the first built from the recurrence, which checks
    # one exact series
    sums, builds = [], []
    series, build = families.basic_hypergeometric_exact, families.orthonormal_matrix

    def counted_series(*args):
        sums.append(args)
        return series(*args)

    def counted_build(data):
        builds.append(data)
        return build(data)

    monkeypatch.setattr(families, "basic_hypergeometric_exact", counted_series)
    monkeypatch.setattr(families, "orthonormal_matrix", counted_build)
    evolve.transfer_report(spec)
    assert len(sums) == 1
    assert len(builds) == 2 and builds[0] is builds[1]


@pytest.mark.parametrize("spec", PHASE_SPECS, ids=lambda spec: spec.family.value)
def test_point_table_is_derived_on_first_use_and_read_only(spec):
    data = families.orthogonality_data(spec)
    assert "point_table" not in vars(data)
    first = families.orthonormal_matrix(data)
    assert "point_table" in vars(data)
    for part in data.point_table:
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0, 0] = 0
    # each build is a fresh array: writing to one leaves the next intact
    expected = first.tobytes()
    first[:] = 0.0
    second = families.orthonormal_matrix(data)
    assert second.tobytes() == expected
    assert families.orthonormal_matrix(families.orthogonality_data(spec)).tobytes() == expected


@pytest.mark.parametrize("spec, error", [
    *((spec, None) for spec in PHASE_SPECS),
    # odd/odd comes before exactness, and both before the spectrum
    (families.q_krawtchouk(3, RationalQ(1, 2), 2.0), NotOddOddError),
    (families.q_krawtchouk(3, 0.6, 2.0), evolve.NonRationalSpectrumError),
    (families.q_krawtchouk(3, RationalQ(3, 5), 2.0), evolve.NonRationalSpectrumError),
    # no time aligns the phases: the one spectrum shows it
    (families.dual_q_hahn(3, RationalQ(1, 3), Fraction(1, 5), Fraction(3, 7)),
     closedform.PhaseConditionUnmetError),
], ids=[spec.family.value for spec in PHASE_SPECS]
    + ["not-odd-odd", "float-q", "float-parameter", "unmet"])
def test_matched_transfer_time_derives_the_spectrum_once(spec, error, monkeypatch):
    # the time search and the parity check share one spectrum, derived
    # only once the odd/odd and exactness checks have passed
    expected = None if error else evolve.transfer_time(spec)
    spectra = []
    eigenvalues = families.eigenvalues

    def counted(target):
        spectra.append(target)
        return eigenvalues(target)

    monkeypatch.setattr(families, "eigenvalues", counted)
    if error is None:
        assert closedform.matched_transfer_time(spec) == expected
    else:
        with pytest.raises(error):
            closedform.matched_transfer_time(spec)
    derived = error in (None, closedform.PhaseConditionUnmetError)
    assert spectra == ([spec] if derived else [])


# a float spec whose Jacobi data fix its low eigenvectors to only about
# 1e-3: the gate refuses them (the exact twin differs by 1.3e-3)
ILL_CONDITIONED_FLOAT = families.q_krawtchouk(120, 0.6, 0.6 ** -120)


def binary_twin(spec):
    """The exact spec of a float spec's own binary values."""
    params = {name: Fraction(value) for name, value in spec.params}
    return families.make_spec(spec.family, spec.N, Fraction(spec.q), **params)


def test_float_route_matches_its_exact_twin_or_fails_closed():
    # the float series lost all accuracy at N = 12 on this spec; its
    # twisted eigenvectors agree with the exact binary twin
    spec = families.q_hahn(12, 0.6, 0.5, 0.7)
    U = families.orthonormal_matrix(families.orthogonality_data(spec))
    twin = families.orthonormal_matrix(families.orthogonality_data(binary_twin(spec)))
    assert np.max(np.abs(U - twin)) < 1e-14
    data = families.orthogonality_data(ILL_CONDITIONED_FLOAT)
    # the check runs on every build, also from a record whose table is kept
    for _ in range(2):
        with pytest.raises(NumericalCheckError, match="orthonormal matrix of q-krawtchouk"):
            families.orthonormal_matrix(data)


@pytest.mark.parametrize("spec", [
    families.q_hahn(12, 0.6, 0.5, 0.7),
    # the twin's odd-x values at n = 6 cancel to 1e-17 next to 1e8
    families.q_krawtchouk(12, 0.6, 0.6 ** -12),
    # products of these bindings overflow the double range
    families.q_krawtchouk(20, 10.0, 1e300),
    families.dual_q_hahn(20, 10.0, 1e300, 0.5),
    families.q_racah(10, 0.01, 1e200, 1e-200, 1e250),
], ids=["q-hahn", "q-krawtchouk", "q-krawtchouk-overflow", "dual-q-hahn-overflow",
        "q-racah-overflow"])
def test_float_evaluate_matches_its_binary_twin(spec):
    # a float spec sums its exact binary twin's binding and rounds once,
    # so every entry is the twin's own to 1e-13 relative
    twin = binary_twin(spec)
    for n in range(spec.N + 1):
        for x in range(spec.N + 1):
            value, expected = families.evaluate(spec, n, x), families.evaluate(twin, n, x)
            assert value == expected or abs(value - expected) <= 1e-13 * abs(expected), (n, x)


def test_float_evaluate_past_the_double_range():
    # the binding's products overflow, the twin's exact sums do not
    assert families.evaluate(families.q_krawtchouk(20, 10.0, 1e300), 20, 20) == math.inf
    value = families.evaluate(families.dual_q_hahn(20, 10.0, 1e300, 0.5), 20, 20)
    assert value == pytest.approx(7.46019487128083e203, rel=1e-13)
    value = families.evaluate(families.q_racah(10, 0.01, 1e200, 1e-200, 1e250), 10, 10)
    assert value == pytest.approx(1.0e220, rel=1e-13)
    # and a value that cancels far below its neighbours keeps its digits
    value = families.evaluate(families.q_krawtchouk(12, 0.6, 0.6 ** -12), 6, 1)
    assert value == pytest.approx(2.3918839270722e-17, rel=1e-12)


@st.composite
def float_specs(draw):
    """The float twin of a sampler draw: float q and parameters."""
    family = draw(st.sampled_from(ALL_FAMILIES))
    spec = sample_spec(draw(st.randoms(use_true_random=False)), family, draw(st.integers(0, 9)))
    params = {name: float(value) for name, value in spec.params}
    return families.make_spec(family, spec.N, float(spec.q), **params)


@settings(max_examples=150, deadline=None)
@given(float_specs())
# alpha*q**2 is 1 within 2.2e-16: refused as degenerate, as its exact draw
# alpha = 81/25 is, instead of answering with the noise of that factor
@example(families.q_racah(2, 0.5555555555555556, 3.24, 3.348, 6.075))
def test_every_valid_float_spec_matches_its_binary_twin(spec):
    # the twisted eigenvectors at the closed-form float eigenvalues
    # answer for every valid float spec and agree with the exact U of
    # the same binary values
    try:
        data = families.orthogonality_data(spec)
    except InvalidSpecError:
        return
    twin = families.orthonormal_matrix(families.orthogonality_data(binary_twin(spec)))
    U = families.orthonormal_matrix(data)
    assert np.max(np.abs(U - twin)) < 1e-9, spec.describe()
    mantissa, exponent = data.point_table
    assert np.all(mantissa[0] == mantissa[0, 0]) and np.all(exponent[0] == exponent[0, 0])
    assert np.all(U[0] > 0)


FLOAT_SPEC = families.q_hahn(6, 0.6, 0.5, 0.7)


def _perturbed_at(k):
    def perturb(spectrum):
        spectrum[k] *= 1 + 1e-6
        return spectrum
    return perturb


@pytest.mark.parametrize("wrong, message", [
    (_perturbed_at(2), "orthonormal matrix of q-hahn.* is off by"),
    (_perturbed_at(FLOAT_SPEC.N), "series P_1.N. of q-hahn.* disagrees with its twisted eigenvectors"),
], ids=["interior", "last"])
def test_a_wrong_float_eigenvalue_fails_closed(wrong, message, monkeypatch, tmp_path, capsys):
    # one float eps_k off by 1e-6 relative: its column is no eigenvector,
    # which the orthonormality gate sees, and at k = N the series
    # check P_1(N) sees it first
    eigenvalues = families.eigenvalues
    monkeypatch.setattr(families, "eigenvalues", lambda target: wrong(eigenvalues(target)))
    with pytest.raises(NumericalCheckError, match=message):
        families.orthonormal_matrix(families.orthogonality_data(FLOAT_SPEC))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "family": "q-hahn", "N": 6, "q": 0.6, "params": {"alpha": 0.5, "beta": 0.7}}))
    assert cli.main(["spectrum", str(path)]) == 7
    assert capsys.readouterr().out == ""


def test_a_float_series_off_its_table_fails_closed(monkeypatch):
    # the float table checks the family's series at (n, x) = (1, N)
    record = families.FAMILIES[FLOAT_SPEC.family]

    def shifted(values, n, x):
        return record.series(values, n, max(x - 1, 0))

    monkeypatch.setitem(families.FAMILIES, FLOAT_SPEC.family,
                        dataclasses.replace(record, series=shifted))
    with pytest.raises(NumericalCheckError, match="series P_1.N. of .* disagrees"):
        families.orthonormal_matrix(families.orthogonality_data(FLOAT_SPEC))


def _series_table(spec):
    """The reference table: P_n(x) summed as one exact series per entry,
    split to (mantissa, exponent), column by column."""
    values = families._values(spec)
    return [[qseries._split(families._point_value(spec.family, values, n, x))
             for n in range(spec.N + 1)] for x in range(spec.N + 1)]


def _recurrence_table(spec):
    columns = families._recurrence_columns(families.orthogonality_data(spec))
    return [[qseries._split_ratio(*pair) for pair in column] for column in columns]


def _table_specs(family):
    rng = random.Random(f"table:{family.value}")
    return [draw_valid_spec(rng, family, N) for N in range(10)] + [
        draw_valid_spec(rng, family, 20)]


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda family: family.value)
def test_recurrence_table_equals_the_series_table(family):
    # the unreduced integer pairs split exactly as the reduced series
    # values do, zero entries included
    for spec in _table_specs(family):
        assert repr(_recurrence_table(spec)) == repr(_series_table(spec)), spec.describe()


def test_recurrence_table_keeps_exact_zeros():
    spec = families.pst_spec(RationalQ(3, 5), 6)
    table = _recurrence_table(spec)
    assert (0.0, -1) in [pair for column in table for pair in column]
    assert repr(table) == repr(_series_table(spec))


def _repeated(spectrum):
    spectrum[2] = spectrum[1]
    return spectrum


def _perturbed(spectrum):
    spectrum[1] += Fraction(1, 10 ** 6)
    return spectrum


@pytest.mark.parametrize("wrong, message", [
    (_perturbed, "eps_1 = .* is not a root of the characteristic polynomial"),
    (_repeated, "eigenvalue map of .* repeats a value"),
], ids=["perturbed", "repeated"])
def test_a_wrong_eigenvalue_map_fails_closed(wrong, message, monkeypatch, tmp_path, capsys):
    spec = PHASE_SPECS[0]
    eigenvalues = families.eigenvalues
    monkeypatch.setattr(families, "eigenvalues", lambda target: wrong(eigenvalues(target)))
    with pytest.raises(NumericalCheckError, match=message):
        families.orthonormal_matrix(families.orthogonality_data(spec))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "family": "q-krawtchouk", "N": 3, "q": {"num": 3, "den": 5},
        "params": {"p": "125/27"}, "sign": "neg"}))
    assert cli.main(["spectrum", str(path)]) == 7
    assert capsys.readouterr().out == ""


def test_a_series_off_its_recurrence_fails_closed(monkeypatch):
    # the record checks the recurrence's P_N(N) against the family's series
    spec = PHASE_SPECS[0]
    record = families.FAMILIES[spec.family]

    def shifted(values, n, x):
        return record.series(values, n, max(x - 1, 0))

    monkeypatch.setitem(families.FAMILIES, spec.family, dataclasses.replace(record, series=shifted))
    with pytest.raises(NumericalCheckError, match="series P_N.N. of .* disagrees"):
        families.orthonormal_matrix(families.orthogonality_data(spec))
