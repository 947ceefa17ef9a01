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
    InvalidBudget,
    NonPositiveParameter,
    StabilityClass,
    classify_stability,
    derive_constants,
    parameters_for_ratio,
)

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
        with pytest.raises(InvalidBudget, match="qmax must be an integer >= 1"):
            classify_stability(golden_dc, qmax=qmax)

    def test_infinite_tol_rejected(self, golden_dc):
        """An infinite tolerance would match any ratio, the golden one included."""
        with pytest.raises(InvalidBudget, match="0 < tol < inf"):
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
