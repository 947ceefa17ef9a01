"""Derived constants and the rational-resonance stability classifier."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from piezobeam import (
    BeamParameters,
    DegenerateCoupling,
    Grid,
    InvalidBudget,
    MalformedValue,
    ModalCoefficients,
    ModeIndex,
    NonPositiveParameter,
    OddApproximant,
    SimConfig,
    StabilityClass,
    TruncationTooSmall,
    absorbing_gain,
    boundedness_scan,
    classify_stability,
    derive_constants,
    gaussian_velocity_state,
    ingham_gap,
    near_unobservable_state,
    odd_odd_approximants,
    operator_eigenvalues,
    parameters_for_ratio,
    simulate,
    sine_velocity_state,
    transfer_bvp,
    transfer_damped_bvp,
)
from piezobeam.params import _check_integer
from piezobeam.spectral import _model

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestDerivedConstants:
    def test_golden_parameters(self, golden_dc):
        """All-ones parameters give the golden ratio as zeta1."""
        np.testing.assert_allclose(golden_dc.zeta1, PHI, rtol=1e-12)
        np.testing.assert_allclose(golden_dc.zeta2, 1.0 / PHI, rtol=1e-12)
        np.testing.assert_allclose(golden_dc.b1, PHI, rtol=1e-12)
        np.testing.assert_allclose(golden_dc.b2, -1.0 / PHI, rtol=1e-12)
        assert golden_dc.alpha == 2.0

    def test_half_ratio_parameters(self, ratio_half):
        """gamma = sqrt(1/2) factors the characteristic roots as 2 and 1/2."""
        dc = derive_constants(ratio_half)
        np.testing.assert_allclose(dc.zeta1, math.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(dc.zeta2, 1.0 / math.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(dc.b1, math.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(dc.b2, -1.0 / math.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(dc.ratio, 0.5, rtol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveParameter):
            derive_constants(BeamParameters(1, 1, 1, 1, -2.0))
        with pytest.raises(NonPositiveParameter):
            derive_constants(BeamParameters(0.0, 1, 1, 1, 1))

    def test_rejects_zero_coupling(self):
        with pytest.raises(DegenerateCoupling):
            derive_constants(BeamParameters(1, 1, 1, 0.0, 1))

    def test_identities_over_random_parameters(self):
        """Product, sum, b-product and the mixing identity, 1000 draws."""
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            rho, a1, beta, gamma, mu = np.exp(
                rng.uniform(np.log(1e-2), np.log(1e2), size=5)
            )
            params = BeamParameters(rho, a1, beta, gamma, mu)
            dc = derive_constants(params)
            assert dc.zeta1 >= dc.zeta2 > 0
            assert dc.b1 > 0 > dc.b2
            np.testing.assert_allclose(dc.b1 * dc.b2, -rho / mu, rtol=1e-12)
            np.testing.assert_allclose(
                dc.zeta1**2 * dc.zeta2**2, rho * mu / (beta * a1), rtol=1e-12
            )
            np.testing.assert_allclose(
                dc.zeta1**2 + dc.zeta2**2,
                gamma**2 * mu / a1 + mu / beta + rho / a1,
                rtol=1e-12,
            )
            for b, zeta in ((dc.b1, dc.zeta1), (dc.b2, dc.zeta2)):
                np.testing.assert_allclose(
                    rho + b**2 * mu,
                    zeta**2 * (a1 + beta * (gamma - b) ** 2),
                    rtol=1e-12,
                )


class TestClassifier:
    def test_golden_ratio_is_effectively_irrational(self, golden_dc):
        report = classify_stability(golden_dc, qmax=50, tol=1e-9)
        assert report.classification is StabilityClass.STRONGLY_STABLE_NOT_EXP
        assert report.approximant is None
        assert report.gap is None and report.min_time is None

    def test_one_third_is_odd_odd(self, ratio_third):
        report = classify_stability(derive_constants(ratio_third))
        assert report.classification is StabilityClass.NOT_STRONGLY_STABLE
        assert (report.approximant.p, report.approximant.q) == (1, 3)
        assert report.approximant.error <= 1e-9

    def test_one_half_is_exponentially_stable(self, ratio_half):
        report = classify_stability(derive_constants(ratio_half))
        assert report.classification is StabilityClass.EXPONENTIALLY_STABLE
        assert (report.approximant.p, report.approximant.q) == (1, 2)
        np.testing.assert_allclose(report.gap, math.pi / (2.0 * math.sqrt(2.0)), rtol=1e-12)
        np.testing.assert_allclose(report.min_time, 4.0 * math.sqrt(2.0), rtol=1e-12)

    def test_default_budget_keeps_golden_irrational(self, golden_dc):
        report = classify_stability(golden_dc)
        assert report.classification is StabilityClass.STRONGLY_STABLE_NOT_EXP

    def test_invalid_budget(self, golden_dc):
        with pytest.raises(InvalidBudget):
            classify_stability(golden_dc, qmax=0)
        with pytest.raises(InvalidBudget):
            classify_stability(golden_dc, tol=0.0)

    @pytest.mark.parametrize("qmax", [10.5, 100.0, math.nan, math.inf, True])
    def test_qmax_must_be_an_integer(self, golden_dc, qmax):
        with pytest.raises(MalformedValue, match="qmax must be an integer >= 1"):
            classify_stability(golden_dc, qmax=qmax)

    def test_infinite_tol_rejected(self, golden_dc):
        """An infinite tolerance would match any ratio, the golden one included."""
        with pytest.raises(MalformedValue, match="tol must be finite and > 0, got inf"):
            classify_stability(golden_dc, tol=math.inf)

    @pytest.mark.parametrize("scale", [0.37, 3.0, 40.0])
    def test_rescaling_preserves_class(self, scale):
        """Scaling (rho, mu) together rescales time but not the ratio."""
        for ratio in (0.5, 1.0 / 3.0, 0.381966011):
            base = parameters_for_ratio(ratio) if ratio != 0.381966011 else BeamParameters(1, 1, 1, 1, 1)
            scaled = replace(base, rho=base.rho * scale, mu=base.mu * scale)
            r0 = classify_stability(derive_constants(base))
            r1 = classify_stability(derive_constants(scaled))
            assert r0.classification is r1.classification

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    def test_reduced_fractions_never_both_even(self, p, q):
        """After reduction at most one of (p, q) is even: no undefined branch."""
        frac = Fraction(p, q)
        assert frac.numerator % 2 == 1 or frac.denominator % 2 == 1

    def test_parameters_for_ratio_hits_target(self):
        for ratio in (0.5, 1.0 / 3.0, 3.0 / 8.0, 0.9):
            dc = derive_constants(parameters_for_ratio(ratio))
            np.testing.assert_allclose(dc.ratio, ratio, rtol=1e-12)

    @pytest.mark.parametrize("ratio", [1.0, 0.0, 1.5])
    def test_parameters_for_ratio_needs_a_ratio_in_the_open_unit_interval(self, ratio):
        with pytest.raises(NonPositiveParameter, match=r"ratio must lie in \(0, 1\)"):
            parameters_for_ratio(ratio)


@pytest.mark.parametrize(
    "value, minimum, accepted",
    [
        (1, 1, True), (0, 1, False), (-1, -1, True), (-2, -1, False), (True, 1, False),
        (False, 0, False), (np.int64(3), 1, True), (np.int64(-1), -1, True), (np.uint8(0), 1, False),
        (2.0, 1, False), (np.float64(2.0), 1, False), ("2", 1, False),
    ],
)
def test_check_integer_takes_integers_not_bools_or_floats(value, minimum, accepted):
    """Exact ints take a fast path; bools, NumPy integers and integral floats are judged
    as before."""
    if accepted:
        _check_integer(value, "count", minimum)
    else:
        with pytest.raises(ValueError, match=f"count must be an integer >= {minimum}"):
            _check_integer(value, "count", minimum)


def test_a_built_beam_is_not_validated_again(monkeypatch):
    """A :class:`BeamParameters` is checked once, when it is built: the computations
    that take one do not call :meth:`BeamParameters.validate` again."""
    params = BeamParameters(1.3, 0.7, 1.1, 0.9, 1.2)  # a beam no other test memoises
    calls = []
    monkeypatch.setattr(BeamParameters, "validate", lambda self: calls.append(self))
    derive_constants(params)
    _model(params, classical=True)
    transfer_bvp(1.0 + 2.0j, params, 64)
    transfer_damped_bvp(1.0 + 2.0j, params, 64)
    absorbing_gain(params)
    for mode in ("closed", "classical"):
        simulate(gaussian_velocity_state(Grid(16)), params, SimConfig(T=0.1, mode=mode))
    assert calls == []
    replace(params, rho=2.0)
    assert len(calls) == 1


_GOLDEN = BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0)
_NINE = OddApproximant(p=1, q=9, err=0.0, cq2=0.0)  # modes j1 = 5, j2 = 1
# every integer argument checked by _check_integer: (name, call of the value, minimum, range class)
_INTEGER_ARGUMENTS = [
    ("family", lambda v: ModeIndex(v, 1, 1), 1, NonPositiveParameter),
    ("sign", lambda v: ModeIndex(1, v, 1), -1, NonPositiveParameter),
    ("mode index j", lambda v: ModeIndex(1, 1, v), 1, NonPositiveParameter),
    ("J", lambda v: ModalCoefficients.zeros(v), 0, NonPositiveParameter),
    ("J", lambda v: ModalCoefficients.single(ModeIndex(1, 1, 1), v), 0, NonPositiveParameter),
    ("count", lambda v: odd_odd_approximants(0.618, v), 1, InvalidBudget),
    ("p", lambda v: ingham_gap(_GOLDEN, v, 2), 1, InvalidBudget),
    ("q", lambda v: near_unobservable_state(OddApproximant(p=1, q=v, err=0.0, cq2=0.0), _GOLDEN), 1,
     InvalidBudget),
    ("J for approximant (1,9)", lambda v: near_unobservable_state(_NINE, _GOLDEN, J=v), 5, TruncationTooSmall),
    ("n", lambda v: transfer_bvp(1.0, _GOLDEN, v), 64, NonPositiveParameter),
    ("n", lambda v: boundedness_scan(1.0, 1.0, v, _GOLDEN), 1, NonPositiveParameter),
    ("energy_stride", lambda v: SimConfig(energy_stride=v), 1, NonPositiveParameter),
    ("n_cells", lambda v: operator_eigenvalues(_GOLDEN, v, 1), 1, NonPositiveParameter),
    ("count", lambda v: operator_eigenvalues(_GOLDEN, 4, v), 1, NonPositiveParameter),
    ("mode index j", lambda v: sine_velocity_state(Grid(16), v), 1, NonPositiveParameter),
]


@pytest.mark.parametrize(
    "fields, message",
    [((3, 1, 1), "family must be 1 or 2, got 3"), ((1, 0, 1), "sign must be +1 or -1, got 0"),
     ((1, 2, 1), "sign must be +1 or -1, got 2")],
    ids=["family_3", "sign_0", "sign_2"],
)
def test_mode_index_outside_its_set_has_the_integer_rules_class(fields, message):
    """An integer label outside ``ModeIndex``'s set raises the class of one below the
    integer rule's minimum."""
    with pytest.raises(NonPositiveParameter) as excinfo:
        ModeIndex(*fields)
    assert type(excinfo.value) is NonPositiveParameter and str(excinfo.value) == message


@pytest.mark.parametrize("name, call, minimum, error", _INTEGER_ARGUMENTS,
                         ids=[f"{i}-{row[0]}" for i, row in enumerate(_INTEGER_ARGUMENTS)])
def test_every_integer_argument_follows_one_rule(name, call, minimum, error):
    """A non-integer is malformed wherever it is passed; an integer below the minimum
    raises the argument's range class; both messages have one form."""
    with pytest.raises(MalformedValue) as malformed:
        call(2.5)
    assert str(malformed.value) == f"{name} must be an integer >= {minimum}, got 2.5"
    with pytest.raises(error) as below:
        call(minimum - 1)
    assert type(below.value) is error
    assert str(below.value) == f"{name} must be an integer >= {minimum}, got {minimum - 1}"
