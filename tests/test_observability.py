"""Odd/odd approximants, counterexample states, Ingham gaps and frame bounds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piezobeam import (
    ExhaustedBudget,
    InvalidBudget,
    MalformedValue,
    NotRational,
    OddApproximant,
    ParityViolation,
    TruncationTooSmall,
    ZeroState,
    ModalCoefficients,
    ModeIndex,
    derive_constants,
    exponent_family,
    ingham_frame_bounds,
    ingham_gap,
    near_unobservable_state,
    observability_quotient,
    odd_odd_approximants,
    output_energy,
    parameters_for_ratio,
    quotient_bound,
    sigma,
)

GOLDEN_RATIO_TARGET = (3.0 - math.sqrt(5.0)) / 2.0

# The eight irrational targets of the benchmark's approximant ladders.
LADDER_IRRATIONALS = [
    (3.0 - math.sqrt(5.0)) / 2.0,
    math.sqrt(2.0) - 1.0,
    math.sqrt(3.0) - 1.0,
    math.sqrt(5.0) - 2.0,
    math.sqrt(6.0) - 2.0,
    math.sqrt(7.0) - 2.0,
    math.sqrt(10.0) - 3.0,
    (math.sqrt(13.0) - 3.0) / 2.0,
]


def reference_odd_odd_approximants(zeta, count, qmax):
    """One scalar step per odd ``q``: the best coprime odd numerator (ties to the
    smaller ``p``), kept when it halves the best error so far; stops at an exact hit."""
    records = []
    best = 1.0
    for q in range(1, qmax + 1, 2):
        lo = 2 * math.floor((zeta * q - 1.0) / 2.0) + 1
        cands = [(abs(zeta - p / q), p) for p in (lo, lo + 2) if p >= 1 and math.gcd(p, q) == 1]
        if not cands:
            continue
        err, p = min(cands)
        if err < 0.5 * best:
            records.append(OddApproximant(p=p, q=q, err=err, cq2=err * q * q))
            best = err
            if err == 0.0 or len(records) >= count:
                break
    if len(records) < count and not (records and records[-1].exact):
        warnings.warn(ExhaustedBudget(f"found {len(records)} of {count} approximants with q <= {qmax}"))
    return records


def approximants_and_warnings(search, zeta, count, qmax):
    """``(p, q, err, cq2)`` of each approximant, with their types, and the number
    of :class:`ExhaustedBudget` warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = search(zeta, count, qmax)
    fields = [(a.p, a.q, a.err, a.cq2) for a in out]
    types = [tuple(map(type, f)) for f in fields]
    return fields, types, sum(issubclass(w.category, ExhaustedBudget) for w in caught)


def odd_fractions(numerator_parity):
    """Targets ``p/q`` with odd ``q`` and ``p`` of the given parity."""
    return st.builds(
        lambda p, q: (2 * p + numerator_parity) / (2 * q + 1),
        st.integers(0 if numerator_parity else 1, 60),
        st.integers(0, 60),
    )


class TestApproximants:
    def test_golden_sequence_is_every_other_fibonacci(self):
        approx = odd_odd_approximants(GOLDEN_RATIO_TARGET, 4, qmax=1000)
        assert [(a.p, a.q) for a in approx] == [(1, 3), (5, 13), (21, 55), (89, 233)]

    def test_golden_quality_constant_bounded(self):
        approx = odd_odd_approximants(GOLDEN_RATIO_TARGET, 5, qmax=2000)
        cq2 = [a.cq2 for a in approx]
        assert max(cq2) <= 2.0
        assert max(cq2) == pytest.approx(1.0 / math.sqrt(5.0), rel=0.01)
        for a in approx:
            assert a.p % 2 == 1 and a.q % 2 == 1
            assert math.gcd(a.p, a.q) == 1
            assert a.err <= max(cq2) / a.q**2 * (1 + 1e-12)
        assert all(b.q > a.q for a, b in zip(approx, approx[1:]))

    def test_exact_odd_odd_terminates(self):
        approx = odd_odd_approximants(1.0 / 3.0, 4, qmax=100)
        assert len(approx) == 1
        assert (approx[0].p, approx[0].q) == (1, 3)
        assert approx[0].err == 0.0 and approx[0].exact

    def test_even_target_never_exact(self):
        approx = odd_odd_approximants(0.5, 5, qmax=500)
        assert (approx[0].p, approx[0].q) == (1, 3)
        assert approx[0].err == pytest.approx(1.0 / 6.0)
        assert approx[0].cq2 == pytest.approx(1.5)
        errs = [a.err for a in approx]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.01  # approaches 1/2 but never exactly

    def test_budget_exhaustion_warns(self):
        with pytest.warns(ExhaustedBudget):
            out = odd_odd_approximants(GOLDEN_RATIO_TARGET, 4, qmax=20)
        assert [(a.p, a.q) for a in out] == [(1, 3), (5, 13)]

    def test_invalid_inputs(self):
        with pytest.raises(InvalidBudget):
            odd_odd_approximants(-1.0, 3)
        with pytest.raises(InvalidBudget):
            odd_odd_approximants(0.5, 0)

    @pytest.mark.parametrize(
        "count, qmax, name, error",
        [(2.5, 100, "count", MalformedValue), (math.nan, 100, "count", MalformedValue),
         (3.0, 100, "count", MalformedValue), (3, 100.5, "qmax", MalformedValue),
         (3, math.nan, "qmax", MalformedValue), (3, 100.0, "qmax", MalformedValue),
         (True, 100, "count", MalformedValue), (3, True, "qmax", MalformedValue)],
    )
    def test_budget_must_be_integers(self, count, qmax, name, error):
        """A fractional, NaN or bool budget is not rounded or run: a ``count`` or a ``qmax``
        that is not an integer is malformed, as a ``qmax`` config line would be."""
        with pytest.raises(error, match=f"{name} must be an integer >= 1"):
            odd_odd_approximants(0.618, count, qmax=qmax)

    @pytest.mark.parametrize("zeta", [math.inf, math.nan, 0.0])
    def test_target_must_be_finite_and_positive(self, zeta):
        with pytest.raises(InvalidBudget, match="target must be finite and > 0"):
            odd_odd_approximants(zeta, 3)

    @pytest.mark.parametrize("zeta, qmax", [(1.0, 2**52), (0.5, 2**53), (2.0**40, 2**12), (2.0**60, 1)])
    def test_budget_beyond_exact_screen_rejected(self, zeta, qmax):
        with pytest.raises(InvalidBudget, match=r"zeta \* qmax < 2\*\*52"):
            odd_odd_approximants(zeta, 3, qmax=qmax)

    def test_largest_exact_budget_accepted(self):
        assert [(a.p, a.q) for a in odd_odd_approximants(1.0, 1, qmax=2**52 - 1)] == [(1, 1)]

    @pytest.mark.parametrize("zeta", LADDER_IRRATIONALS)
    def test_benchmark_ladders_equal_reference(self, zeta):
        got = approximants_and_warnings(odd_odd_approximants, zeta, 12, 100_000)
        assert got == approximants_and_warnings(reference_odd_odd_approximants, zeta, 12, 100_000)

    @settings(max_examples=300, deadline=None)
    @given(
        zeta=st.one_of(
            st.floats(0.0, 8.0, exclude_min=True, exclude_max=True),
            odd_fractions(1),
            odd_fractions(0),
            st.floats(1e-300, 2e-4),
        ),
        count=st.integers(1, 12),
        qmax=st.integers(1, 5000),
    )
    def test_screen_equals_reference(self, zeta, count, qmax):
        """Same approximants, field for field, and the same budget warning; the last
        strategy gives targets below ``1/qmax`` for every ``qmax`` up to 5000."""
        got = approximants_and_warnings(odd_odd_approximants, zeta, count, qmax)
        assert got == approximants_and_warnings(reference_odd_odd_approximants, zeta, count, qmax)


class TestCounterexampleStates:
    def test_sign_normalization_for_one_three(self, golden, golden_dc):
        approx = OddApproximant(p=1, q=3, err=0.05, cq2=0.45)
        state = near_unobservable_state(approx, golden)
        # q = 3: q+1 divisible by 4, so the family-1 sign flips
        np.testing.assert_allclose(state.c1[1], -1.0 / golden_dc.b1, rtol=1e-12)
        np.testing.assert_allclose(state.c2[0], -1.0 / golden_dc.b2, rtol=1e-12)
        assert np.all(state.d1 == 0) and np.all(state.d2 == 0)
        assert state.c1[0] == 0 and np.count_nonzero(state.c1) == 1

    def test_active_frequencies_read_off(self, golden, golden_dc):
        approx = OddApproximant(p=5, q=13, err=0.0, cq2=0.0)
        state = near_unobservable_state(approx, golden)
        j1, j2 = (13 + 1) // 2, (5 + 1) // 2
        assert state.c1[j1 - 1] != 0 and state.c2[j2 - 1] != 0
        np.testing.assert_allclose(
            sigma(j1, golden.length) / golden_dc.zeta1,
            13.0 * math.pi / (2.0 * golden.length * golden_dc.zeta1),
        )
        np.testing.assert_allclose(
            sigma(j2, golden.length) / golden_dc.zeta2,
            5.0 * math.pi / (2.0 * golden.length * golden_dc.zeta2),
        )

    def test_norm_constant_along_sequence(self, golden):
        from piezobeam import modal_norm_sq

        norms = []
        for approx in odd_odd_approximants(GOLDEN_RATIO_TARGET, 4, qmax=1000):
            norms.append(modal_norm_sq(near_unobservable_state(approx, golden), golden))
        np.testing.assert_allclose(norms, norms[0], rtol=1e-12)
        np.testing.assert_allclose(norms[0], 5.0, rtol=1e-12)

    def test_truncation_guard(self, golden):
        approx = OddApproximant(p=1, q=9, err=0.0, cq2=0.0)
        with pytest.raises(TruncationTooSmall):
            near_unobservable_state(approx, golden, J=3)

    @pytest.mark.parametrize("J", [5.5, 6.0, math.nan, True])
    def test_truncation_must_be_an_integer(self, golden, J):
        approx = OddApproximant(p=1, q=9, err=0.0, cq2=0.0)
        with pytest.raises(MalformedValue, match="J for approximant"):
            near_unobservable_state(approx, golden, J=J)

    @pytest.mark.parametrize(
        "p, q, error",
        [
            (2, 4, InvalidBudget),  # not coprime, as ingham_gap says
            (1, 2, ParityViolation),
            (4, 3, ParityViolation),
            (3, 9, InvalidBudget),
            (0, 3, InvalidBudget),
            (1, -1, InvalidBudget),
        ],
    )
    def test_pair_must_be_coprime_positive_odd(self, golden, p, q, error):
        with pytest.raises(error):
            near_unobservable_state(OddApproximant(p=p, q=q, err=0.0, cq2=0.0), golden)

    @pytest.mark.parametrize("p, q, name", [(1.0, 3, "p"), (1, 3.0, "q"), (1.5, 3, "p"), (True, 3, "p")])
    def test_pair_must_be_integers(self, golden, p, q, name):
        with pytest.raises(MalformedValue, match=f"{name} must be an integer >= 1"):
            near_unobservable_state(OddApproximant(p=p, q=q, err=0.0, cq2=0.0), golden)


class TestQuotients:
    def test_exact_resonance_gives_zero(self, ratio_third):
        dc = derive_constants(ratio_third)
        state = near_unobservable_state(
            odd_odd_approximants(dc.ratio, 1)[0], ratio_third
        )
        assert observability_quotient(state, ratio_third, 10.0) == 0.0

    def test_single_mode_constant_output(self, ratio_half):
        coeffs = ModalCoefficients.single(ModeIndex(1, 1, 1), J=1)
        np.testing.assert_allclose(
            observability_quotient(coeffs, ratio_half, 3.0), 2.0, rtol=1e-12
        )

    @pytest.mark.parametrize("T", [math.inf, math.nan, 0.0])
    def test_window_must_be_finite_and_positive(self, ratio_half, T):
        state = ModalCoefficients.single(ModeIndex(1, 1, 1), J=1)
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            output_energy(state, ratio_half, T)
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            observability_quotient(state, ratio_half, T)
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            ingham_frame_bounds(exponent_family(ratio_half, 2), T)

    def test_zero_state_rejected(self, golden):
        with pytest.raises(ZeroState):
            observability_quotient(ModalCoefficients.zeros(2), golden, 1.0)

    def test_golden_quotients_scale_like_inverse_q_squared(self, golden):
        T = 10.0
        approx = odd_odd_approximants(GOLDEN_RATIO_TARGET, 4, qmax=1000)
        quotients = [
            observability_quotient(near_unobservable_state(a, golden), golden, T)
            for a in approx
        ]
        qs = np.log([a.q for a in approx])
        slope = np.polyfit(qs, np.log(quotients), 1)[0]
        assert -2.3 < slope < -1.7

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
    def test_bound_window_must_be_finite_and_positive(self, golden, T):
        approx = OddApproximant(p=1, q=3, err=0.1, cq2=0.9)
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            quotient_bound(approx, golden, T)

    def test_mean_value_bound_holds_at_every_record(self, golden):
        T = 10.0
        for a in odd_odd_approximants(GOLDEN_RATIO_TARGET, 4, qmax=1000):
            state = near_unobservable_state(a, golden)
            bound = quotient_bound(a, golden, T)
            assert output_energy(state, golden, T) <= bound
            assert observability_quotient(state, golden, T) <= bound


class TestInghamGap:
    def test_half_ratio_values(self, ratio_half):
        gap, tmin = ingham_gap(ratio_half, 1, 2)
        np.testing.assert_allclose(gap, math.pi / (2.0 * math.sqrt(2.0)), rtol=1e-12)
        np.testing.assert_allclose(tmin, 4.0 * math.sqrt(2.0), rtol=1e-12)

    def test_length_scaling(self):
        params = parameters_for_ratio(0.5, length=2.0)
        gap, tmin = ingham_gap(params, 1, 2)
        np.testing.assert_allclose(gap, math.pi / (4.0 * math.sqrt(2.0)), rtol=1e-12)
        np.testing.assert_allclose(tmin, 8.0 * math.sqrt(2.0), rtol=1e-12)

    def test_odd_odd_rejected(self, ratio_third):
        with pytest.raises(ParityViolation):
            ingham_gap(ratio_third, 1, 3)

    def test_mismatched_fraction_rejected(self, ratio_half):
        with pytest.raises(NotRational):
            ingham_gap(ratio_half, 1, 4)

    @pytest.mark.parametrize(
        "p, q, name", [(1.0, 2, "p"), (1, 2.0, "q"), (0, 2, "p"), (1, -2, "q"), (True, 2, "p")]
    )
    def test_fraction_must_be_positive_integers(self, ratio_half, p, q, name):
        """A non-integer is malformed; an integer below 1 is an invalid budget."""
        error = InvalidBudget if type(p) is type(q) is int else MalformedValue
        with pytest.raises(error, match=f"{name} must be an integer >= 1"):
            ingham_gap(ratio_half, p, q)

    def test_family_gaps_respect_the_bound(self, ratio_half):
        gap, _ = ingham_gap(ratio_half, 1, 2)
        freqs = exponent_family(ratio_half, 200)
        assert np.min(np.diff(freqs)) >= gap * (1.0 - 1e-12)

    def test_exponent_family_equals_both_signs_sorted(self, golden, ratio_half):
        """Bitwise the sorted ``+/- sigma_j / zeta_k`` of both families."""
        for params in (golden, ratio_half):
            dc = derive_constants(params)
            j = np.arange(1, 41)
            freqs = (2.0 * j - 1.0) * np.pi / (2.0 * params.length)
            freqs = np.concatenate([freqs / dc.zeta1, freqs / dc.zeta2])
            expected = np.sort(np.concatenate([-freqs, freqs]))
            np.testing.assert_array_equal(exponent_family(params, 40), expected)


def direct_gram(exponents, T):
    """Gram matrix ``int_0^T exp(i (s_m - s_n) t) dt`` as ``(e^{i delta T} - 1)/(i delta)``,
    with ``T`` on the diagonal."""
    delta = np.subtract.outer(exponents, exponents)
    np.fill_diagonal(delta, 1.0)
    gram = (np.exp(1j * delta * T) - 1.0) / (1j * delta)
    np.fill_diagonal(gram, T)
    return gram


class TestFrameBounds:
    def test_single_exponent(self):
        out = ingham_frame_bounds([1.7], T=2.5)
        np.testing.assert_allclose([out.cmin, out.cmax], [2.5, 2.5], rtol=1e-12)
        assert not out.has_collisions

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_rejected(self, bad):
        with pytest.raises(ValueError, match="finite values"):
            ingham_frame_bounds([1.0, bad], 1.0)

    def test_coincident_pair_collapses(self):
        out = ingham_frame_bounds([1.0, 1.0], T=3.0)
        assert out.has_collisions
        assert out.cmin == pytest.approx(0.0, abs=1e-12)

    def test_half_ratio_family_stable_under_truncation(self, ratio_half):
        _, tmin = ingham_gap(ratio_half, 1, 2)
        T = 1.2 * tmin
        bounds = [ingham_frame_bounds(exponent_family(ratio_half, J), T) for J in (10, 20)]
        assert all(b.cmin > 0 for b in bounds)
        ratio = bounds[1].cmin / bounds[0].cmin
        assert 0.5 < ratio < 2.0

    @pytest.mark.parametrize("J", [10, 40])
    def test_bounds_are_gram_extremes(self, ratio_half, J):
        _, tmin = ingham_gap(ratio_half, 1, 2)
        T = 1.2 * tmin
        freqs = exponent_family(ratio_half, J)
        eig = np.linalg.eigvalsh(direct_gram(freqs, T))
        out = ingham_frame_bounds(freqs, T)
        np.testing.assert_allclose([out.cmin, out.cmax], [eig[0], eig[-1]], rtol=1e-12)
        assert not out.has_collisions

    def test_random_quotients_lie_inside_the_bounds(self, ratio_half):
        """Rayleigh quotients of the Gram at random complex vectors, some of them
        supported on a few exponents only, stay inside [cmin, cmax]."""
        _, tmin = ingham_gap(ratio_half, 1, 2)
        T = 1.2 * tmin
        freqs = exponent_family(ratio_half, 10)
        gram = direct_gram(freqs, T)
        out = ingham_frame_bounds(freqs, T)
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
            keep = rng.random(freqs.size) < rng.random()
            keep[rng.integers(freqs.size)] = True
            g[~keep] = 0.0
            quotient = np.real(np.conj(g) @ gram @ g) / np.real(np.conj(g) @ g)
            assert out.cmin * (1 - 1e-12) <= quotient <= out.cmax * (1 + 1e-12)


@pytest.mark.parametrize("J", [0, -1, 2.5, 3.0, math.nan, True])
def test_exponent_family_needs_an_integer_mode_count(ratio_half, J):
    with pytest.raises(ValueError, match="J must be an integer >= 1"):
        exponent_family(ratio_half, J)
