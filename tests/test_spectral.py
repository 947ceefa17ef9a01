"""Eigenstructure, modal projection/propagation, norms, output energy, resolvent."""

import inspect
import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from piezobeam import (
    BeamParameters,
    ModalCoefficients,
    ModeIndex,
    NonPositiveParameter,
    OddApproximant,
    QuadratureFailure,
    StateFunctions,
    derive_constants,
    eigenfunction,
    eigenvalues,
    modal_norm_sq,
    near_unobservable_state,
    odd_odd_approximants,
    output_energy,
    parameters_for_ratio,
    project,
    projection_residual,
    propagate,
    reconstruct,
    resolvent_at_zero,
    sigma,
)
from piezobeam import frequency, observability, spectral
from piezobeam.spectral import (
    _cumulative_trapezoid,
    _model,
    _output_weights,
    _waves,
    phase_integral,
)
from conftest import energy_inner_quadrature

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def random_coefficients(J, seed=0):
    rng = np.random.default_rng(seed)
    return ModalCoefficients(
        *(rng.standard_normal(J) + 1j * rng.standard_normal(J) for _ in range(4))
    )


def reference_project(state, params, J, cells=2048):
    """Per-component trapezoid and per-mode 4x4 solve: the oracle for ``project``.

    Each component's real and imaginary parts are expanded in the sine basis
    by ``np.trapezoid`` against a freshly built kernel, then for every ``j``
    the general system tying the four branch coefficients to the four sine
    amplitudes is solved.
    """
    dc = derive_constants(params)
    L = params.length
    x = np.linspace(0.0, L, cells + 1)
    s = sigma(np.arange(1, J + 1), L)

    def sine_coefficients(values):
        kernel = np.sin(np.outer(s, x))
        return (2.0 / L) * np.trapezoid(kernel * values[None, :], x, axis=1)

    samples = state.sample(x)
    amps = np.stack([sine_coefficients(np.real(comp)) for comp in samples])
    if np.iscomplexobj(samples) and np.any(samples.imag != 0):
        amps = amps + 1j * np.stack([sine_coefficients(comp.imag) for comp in samples])
    lam1, lam2 = 1j * s / dc.zeta1, 1j * s / dc.zeta2
    b1, b2, one = dc.b1, dc.b2, np.ones(J)
    systems = np.array(
        [
            [1.0 / lam1, 1.0 / lam1, 1.0 / lam2, 1.0 / lam2],
            [b1 / lam1, b1 / lam1, b2 / lam2, b2 / lam2],
            [one, -one, one, -one],
            [b1 * one, -b1 * one, b2 * one, -b2 * one],
        ]
    ).transpose(2, 0, 1)
    sol = np.linalg.solve(systems, amps.T[:, :, None])[:, :, 0]
    return ModalCoefficients(sol[:, 0], sol[:, 1], sol[:, 2], sol[:, 3])


def reference_reconstruct(coeffs, params, x, t=0.0, derivative=False):
    """Four vector-matrix products per family: the oracle for ``reconstruct``."""
    dc = derive_constants(params)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = sigma(np.arange(1, coeffs.truncation + 1), params.length)
    profile = np.cos(np.outer(s, x)) * s[:, None] if derivative else np.sin(np.outer(s, x))
    out = np.zeros((4, x.size), dtype=complex)
    for b, zeta, c, d in ((dc.b1, dc.zeta1, coeffs.c1, coeffs.d1), (dc.b2, dc.zeta2, coeffs.c2, coeffs.d2)):
        lam = 1j * s / zeta
        phase = np.exp(lam * t)
        cp, dm = c * phase, d / phase
        sum_amp = (cp + dm) / lam
        diff_amp = cp - dm
        out[0] += sum_amp @ profile
        out[1] += b * (sum_amp @ profile)
        out[2] += diff_amp @ profile
        out[3] += b * (diff_amp @ profile)
    return out


def mpmath_reconstruct(coeffs, params, x, t, derivative, dps=40):
    """The modal sum of ``reconstruct`` at ``dps`` digits, from the float
    coefficients, constants, positions and time taken as exact."""
    model = _model(params)
    zeta, b = model.zeta, model.mix[-1]
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(float(v)) for v in x]
        fields = [[mpmath.mpc(0)] * len(xs) for _ in range(4)]
        for j in range(1, coeffs.truncation + 1):
            s = (2 * j - 1) * mpmath.pi / (2 * mpmath.mpf(params.length))
            profile = [s * mpmath.cos(s * v) if derivative else mpmath.sin(s * v) for v in xs]
            rows = [mpmath.mpc(0)] * 4
            for k in range(2):
                lam = 1j * s / mpmath.mpf(float(zeta[k]))
                phase = mpmath.exp(lam * mpmath.mpf(t))
                cp = mpmath.mpc(complex(coeffs.branches[k, 0, j - 1])) * phase
                dm = mpmath.mpc(complex(coeffs.branches[k, 1, j - 1])) / phase
                position, velocity, b_k = (cp + dm) / lam, cp - dm, mpmath.mpf(float(b[k]))
                for r, amp in enumerate((position, b_k * position, velocity, b_k * velocity)):
                    rows[r] += amp
            for r in range(4):
                fields[r] = [f + rows[r] * p for f, p in zip(fields[r], profile)]
        return np.array([[complex(f) for f in row] for row in fields])


def reference_propagate(coeffs, params, t):
    """One phase per family, the four branches named by hand: the oracle for ``propagate``."""
    dc = derive_constants(params)
    s = sigma(np.arange(1, coeffs.truncation + 1), params.length)
    phase1 = np.exp(1j * s * t / dc.zeta1)
    phase2 = np.exp(1j * s * t / dc.zeta2)
    return ModalCoefficients(
        coeffs.c1 * phase1,
        coeffs.d1 / phase1,
        coeffs.c2 * phase2,
        coeffs.d2 / phase2,
    )


def mpmath_phase_error_units(moved, coeffs, params, t, dps=40):
    """``|moved - a exp(i sign sigma_j t / zeta_k)|`` per coefficient ``a``, at ``dps``
    digits with the float constants and ``t`` taken as exact, in units of
    ``eps * (|sigma_j t / zeta_k| + 1) * |a|``; 0 where ``a`` is 0."""
    zeta = _model(params).zeta
    eps = np.finfo(float).eps
    units = np.zeros(coeffs.branches.shape)
    with mpmath.workdps(dps):
        for (k, branch, i), a in np.ndenumerate(coeffs.branches):
            if a == 0:
                continue
            s = (2 * i + 1) * mpmath.pi / (2 * mpmath.mpf(params.length))
            theta = (1 - 2 * branch) * s * mpmath.mpf(t) / mpmath.mpf(float(zeta[k]))
            exact = mpmath.mpc(complex(a)) * mpmath.expj(theta)
            err = abs(mpmath.mpc(complex(moved.branches[k, branch, i])) - exact)
            units[k, branch, i] = float(err / (eps * (abs(theta) + 1) * abs(a)))
    return units


def reference_modal_norm_sq(coeffs, params):
    """Family by family, ``c`` then ``d``: the oracle for ``modal_norm_sq``."""
    dc = derive_constants(params)
    w1 = params.rho + dc.b1**2 * params.mu
    w2 = params.rho + dc.b2**2 * params.mu
    total = w1 * (
        np.sum(np.abs(coeffs.c1) ** 2) + np.sum(np.abs(coeffs.d1) ** 2)
    ) + w2 * (np.sum(np.abs(coeffs.c2) ** 2) + np.sum(np.abs(coeffs.d2) ** 2))
    return float(params.length * total)


def reference_output_weights(coeffs, params):
    """Four concatenated branches: the oracle for ``spectral._output_weights``."""
    dc = derive_constants(params)
    J = coeffs.truncation
    s = sigma(np.arange(1, J + 1), params.length)
    bsign = np.where(np.arange(1, J + 1) % 2 == 1, 1.0, -1.0)  # (-1)**(j+1)
    freqs = np.concatenate([s / dc.zeta1, -s / dc.zeta1, s / dc.zeta2, -s / dc.zeta2])
    weights = (
        np.concatenate(
            [
                bsign * dc.b1 * coeffs.c1,
                -bsign * dc.b1 * coeffs.d1,
                bsign * dc.b2 * coeffs.c2,
                -bsign * dc.b2 * coeffs.d2,
            ]
        )
        * (-1.0 / params.thickness)
    )
    keep = weights != 0
    return freqs[keep], weights[keep]


def reference_output_energy(coeffs, params, T):
    """Pairwise phase integrals over ``reference_output_weights``: the oracle for
    ``output_energy``."""
    freqs, weights = reference_output_weights(coeffs, params)
    if freqs.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(freqs))))
    delta = freqs[:, None] - freqs[None, :]
    delta[np.abs(delta) < 1e-12 * scale] = 0.0
    gram = phase_integral(delta, T)
    total = np.real(weights @ gram @ np.conj(weights))
    return max(float(total), 0.0)


def masked_output_energy(coeffs, params, T):
    """The near/far split of ``output_energy`` with ``(n, n)`` masks: ``np.nonzero``
    of the near mask orders the near sum, and ``~near`` selects the far
    reciprocals.  The bitwise oracle for the banded ``output_energy``."""
    freqs, weights = _output_weights(coeffs, params)
    if freqs.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(freqs))))
    delta = freqs[:, None] - freqs[None, :]
    delta[np.abs(delta) < 1e-12 * scale] = 0.0
    near = np.abs(delta) * T < 1.0
    m, n = np.nonzero(near)
    total = np.sum(np.real(weights[m] * np.conj(weights[n]) * phase_integral(delta[m, n], T)))
    inverse = np.divide(1.0, delta, out=np.zeros_like(delta), where=~near)
    a = weights * np.exp(1j * T * freqs)
    sums = inverse @ np.stack((a.real, weights.real), axis=1)
    total += 2.0 * (a.imag @ sums[:, 0] - weights.imag @ sums[:, 1])
    return max(float(total), 0.0)


def mpmath_output_energy(freqs, weights, T, dps=50):
    """``sum_{m,n} w_m conj(w_n) int_0^T exp(i (s_m - s_n) t) dt`` at ``dps`` digits.

    The float frequencies and weights are taken as exact; each pair integrates
    to ``T`` when ``s_m == s_n`` and to ``(e_m conj(e_n) - 1) / (i (s_m - s_n))``
    with ``e = exp(i s T)`` otherwise.  The oracle for ``output_energy``."""
    with mpmath.workdps(dps):
        T = mpmath.mpf(float(T))
        s = [mpmath.mpf(float(f)) for f in freqs]
        w = [mpmath.mpc(complex(v)) for v in weights]
        e = [mpmath.expj(f * T) for f in s]
        total = T * sum(abs(v) ** 2 for v in w)
        for m in range(len(s)):
            for n in range(m + 1, len(s)):  # Hermitian: each off-diagonal pair twice
                if s[m] == s[n]:
                    g = T
                else:
                    g = (e[m] * mpmath.conj(e[n]) - 1) / (1j * (s[m] - s[n]))
                total += 2 * (w[m] * mpmath.conj(w[n]) * g).real
        return total


def reference_params():
    """Golden, a rescaled ratio-1/2 beam, and three random beams in [0.5, 2]."""
    rng = np.random.default_rng(2014)
    cases = [
        ("golden", BeamParameters(rho=1.0, alpha1=1.0, beta=1.0, gamma=1.0, mu=1.0)),
        ("ratio_half_scaled", replace(parameters_for_ratio(0.5), length=2.5, thickness=0.3)),
    ]
    names = ("rho", "alpha1", "beta", "gamma", "mu", "length", "thickness")
    for i in range(3):
        cases.append((f"random{i}", BeamParameters(**dict(zip(names, rng.uniform(0.5, 2.0, 7))))))
    return cases


def reference_states(params, J):
    """A complex modal state, a real sampled state and a lambda state."""
    L = params.length
    xs = np.linspace(0.0, L, 301)
    bump = np.sin(np.pi * xs / L) ** 2 * xs
    return {
        "from_modal": StateFunctions.from_modal(random_coefficients(J, seed=3), params),
        "from_samples": StateFunctions.from_samples(xs, bump, -0.5 * bump, np.sqrt(xs), xs**2),
        "lambda": StateFunctions(
            lambda x: x * (2.0 * L - x),
            lambda x: np.sin(0.7 * x),
            lambda x: np.exp(-((x - 0.4 * L) ** 2)) - np.exp(-0.16 * L**2),
            lambda x: x**3,
        ),
    }


def random_beam_cases():
    """``(params, coeffs)`` on the three random beams of ``reference_params``, J in {1, 7, 64}.

    Every other coefficient of the second set is zeroed, so that the output
    weights drop entries."""
    cases = []
    for seed, (name, params) in enumerate(reference_params()[2:]):
        for J in (1, 7, 64):
            coeffs = random_coefficients(J, seed=seed)
            sparse = coeffs.branches.copy()
            sparse[..., 1::2] = 0.0
            cases.append(pytest.param(params, coeffs, id=f"{name}-J{J}"))
            cases.append(pytest.param(params, ModalCoefficients(*sparse.reshape(4, J)), id=f"{name}-J{J}-sparse"))
    return cases


class TestReferences:
    @pytest.mark.parametrize("params", [pytest.param(p, id=n) for n, p in reference_params()])
    def test_project_matches_reference(self, params):
        J = 24
        for label, state in reference_states(params, J).items():
            got, want = project(state, params, J), reference_project(state, params, J)
            got = np.stack([got.c1, got.d1, got.c2, got.d2])
            want = np.stack([want.c1, want.d1, want.c2, want.d2])
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-12, (label, err)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_reconstruct_as_accurate_as_reference(self, derivative):
        """Against a 40-digit evaluation, ``reconstruct`` errs at most twice as
        much as the sine-per-entry reference, plus ``1e-15`` of the field's scale."""
        for seed, (name, params) in enumerate(reference_params()):
            coeffs = random_coefficients(17, seed=seed)
            x = np.linspace(0.0, params.length, 129)
            for t in (0.0, 1.3):
                exact = mpmath_reconstruct(coeffs, params, x, t, derivative)
                got = reconstruct(coeffs, params, x, t=t, derivative=derivative)
                want = reference_reconstruct(coeffs, params, x, t=t, derivative=derivative)
                err, ref_err = np.max(np.abs(got - exact)), np.max(np.abs(want - exact))
                assert err <= 2.0 * ref_err + 1e-15 * np.max(np.abs(exact)), (name, t, err, ref_err)

    @pytest.mark.parametrize("params, coeffs", random_beam_cases())
    def test_propagate_as_accurate_as_reference(self, params, coeffs):
        """Against a 40-digit phase, ``propagate`` and the reference each err by
        at most ``2 eps (|sigma_j t / zeta_k| + 1) |a|`` per coefficient ``a``;
        ``t = 0`` is the identity bitwise."""
        assert np.array_equal(propagate(coeffs, params, 0.0).branches, coeffs.branches)
        for t in (1.3, -0.7, 250.0, -250.0):
            for moved in (propagate(coeffs, params, t), reference_propagate(coeffs, params, t)):
                units = mpmath_phase_error_units(moved, coeffs, params, t)
                assert np.max(units) <= 2.0, (t, np.max(units))

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("params, coeffs", random_beam_cases()[::2])
    def test_reconstruct_at_t_is_reconstruct_of_propagate(self, params, coeffs, derivative):
        """Reconstruction at time ``t`` takes its phase from :func:`propagate`, bitwise."""
        x = np.linspace(0.0, params.length, 33)
        for t in (1.3, -0.7, 250.0):
            got = reconstruct(coeffs, params, x, t=t, derivative=derivative)
            want = reconstruct(propagate(coeffs, params, t), params, x, derivative=derivative)
            assert np.array_equal(got, want), t

    @pytest.mark.parametrize("params, coeffs", random_beam_cases())
    def test_modal_norm_sq_equals_reference(self, params, coeffs):
        assert modal_norm_sq(coeffs, params) == reference_modal_norm_sq(coeffs, params)

    @pytest.mark.parametrize("params, coeffs", random_beam_cases())
    def test_output_energy_equals_reference(self, params, coeffs):
        got = _output_weights(coeffs, params)
        want = reference_output_weights(coeffs, params)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        for T in (0.9, 6.0):
            got, want = output_energy(coeffs, params, T), reference_output_energy(coeffs, params, T)
            assert abs(got - want) <= 1e-13 * want, (T, got, want)

    @pytest.mark.parametrize("params, coeffs", random_beam_cases())
    def test_output_energy_bitwise_equals_masked(self, params, coeffs):
        for T in (0.7, 3.0, 40.0):
            assert output_energy(coeffs, params, T) == masked_output_energy(coeffs, params, T), T

    def test_output_energy_bitwise_equals_masked_on_coincident_pairs(self, ratio_third):
        """Ratio 1/3: every third family-1 frequency meets a family-2 one, to rounding."""
        coeffs = random_coefficients(48, seed=11)
        freqs = _output_weights(coeffs, ratio_third)[0]
        delta = np.abs(freqs[:, None] - freqs[None, :])
        assert np.count_nonzero(delta < 1e-12 * np.max(np.abs(freqs))) > freqs.size  # beyond the diagonal
        for T in (0.7, 6.0, 40.0):
            assert output_energy(coeffs, ratio_third, T) == masked_output_energy(coeffs, ratio_third, T), T

    @pytest.mark.parametrize("state", ["golden_q987", "random_J64"])
    def test_output_energy_bitwise_equals_masked_when_every_pair_is_near(self, golden, state):
        """At ``T = 1e-4`` the band holds every pair; ``T = 10`` splits them."""
        if state == "golden_q987":
            approx = next(a for a in odd_odd_approximants(derive_constants(golden).ratio, 6, qmax=5000) if a.q == 987)
            coeffs = near_unobservable_state(approx, golden)
        else:
            coeffs = random_coefficients(64, seed=4)
        freqs = _output_weights(coeffs, golden)[0]
        assert np.ptp(freqs) * 1e-4 < 1.0
        for T in (1e-4, 1e-3, 10.0):
            assert output_energy(coeffs, golden, T) == masked_output_energy(coeffs, golden, T), T

    def test_output_energy_bitwise_equals_masked_at_the_split(self):
        """``T = 1 / |delta|`` of one pair, and its neighbouring floats, put that
        pair on either side of ``|delta| * T = 1``."""
        params = reference_params()[2][1]
        coeffs = random_coefficients(16, seed=2)
        freqs = _output_weights(coeffs, params)[0]
        T = 1.0 / abs(freqs[3] - freqs[5])
        for t in (np.nextafter(T, 0.0), T, np.nextafter(T, np.inf)):
            assert output_energy(coeffs, params, t) == masked_output_energy(coeffs, params, t), t

    def test_output_energy_of_no_weights_is_zero(self, golden):
        coeffs = ModalCoefficients.zeros(4)
        assert _output_weights(coeffs, golden)[0].size == 0
        assert output_energy(coeffs, golden, 2.0) == masked_output_energy(coeffs, golden, 2.0) == 0.0

    @pytest.mark.parametrize("J", [pytest.param(J, id=f"J{J}") for J in (8, 24)])
    @pytest.mark.parametrize("params", [pytest.param(p, id=n) for n, p in reference_params()[2:]])
    def test_output_energy_matches_mpmath(self, params, J):
        coeffs = random_coefficients(J, seed=J)
        freqs, weights = _output_weights(coeffs, params)
        for T in (0.9, 6.0):
            exact = mpmath_output_energy(freqs, weights, T)
            err = abs(mpmath.mpf(output_energy(coeffs, params, T)) - exact) / exact
            assert err <= 1e-14, (T, float(err))

    @pytest.mark.parametrize("q, parent_err", [(987, 4.9e-12), (4181, 2.0e-10)])
    def test_golden_ladder_output_energy_matches_mpmath(self, q, parent_err):
        """Near-colliding golden pairs cancel to order ``(delta T)**2`` in the
        near-pair sum; the split keeps the digits the dense Gram kept there."""
        golden = reference_params()[0][1]
        dc = derive_constants(golden)
        approx = next(a for a in odd_odd_approximants(dc.ratio, 6, qmax=5000) if a.q == q)
        coeffs = near_unobservable_state(approx, golden)
        freqs, weights = _output_weights(coeffs, golden)
        exact = mpmath_output_energy(freqs, weights, 10.0, dps=60)
        err = abs(mpmath.mpf(output_energy(coeffs, golden, 10.0)) - exact) / exact
        assert err <= 2.0 * parent_err, float(err)

    def test_output_energy_memory(self):
        """One float ``(n, n)`` array: 4J = 1024 frequencies stay under 12 MiB,
        where that array takes 8 MiB and a dense complex Gram alone 16 MiB."""
        params = reference_params()[2][1]
        coeffs = random_coefficients(256, seed=5)
        tracemalloc.start()
        try:
            energy = output_energy(coeffs, params, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy > 0 and peak < 12 * 2**20, peak / 2**20


class TestModalCoefficients:
    @pytest.mark.parametrize(
        "family, sign, slot", [(1, 1, (0, 0)), (1, -1, (0, 1)), (2, 1, (1, 0)), (2, -1, (1, 1))]
    )
    def test_single_mode_layout(self, family, sign, slot):
        J, j, amplitude = 5, 3, 2.0 - 0.5j
        coeffs = ModalCoefficients.single(ModeIndex(family, sign, j), J, amplitude)
        expected = np.zeros((2, 2, J), dtype=complex)
        expected[slot + (j - 1,)] = amplitude
        assert coeffs.branches.shape == (2, 2, J) and coeffs.truncation == J
        assert np.array_equal(coeffs.branches, expected)
        named = np.stack([coeffs.c1, coeffs.d1, coeffs.c2, coeffs.d2])
        assert np.array_equal(named, expected.reshape(4, J))

    def test_views_are_read_only_and_inputs_copied(self):
        arrays = [np.arange(3, dtype=complex) + k for k in range(4)]
        coeffs = ModalCoefficients(*arrays)
        arrays[0][0] = 99.0
        assert coeffs.c1[0] == 0.0
        assert np.shares_memory(coeffs.c1, coeffs.branches)
        with pytest.raises(ValueError, match="read-only"):
            coeffs.c1[0] = 1.0
        for view in (coeffs.branches, coeffs.d1, coeffs.c2, coeffs.d2):
            with pytest.raises(ValueError, match="read-only"):
                view[..., 0] = 1.0

    def test_constructor_messages(self):
        with pytest.raises(ValueError, match="d1 must be one-dimensional"):
            ModalCoefficients(np.zeros(2), np.zeros((2, 1)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="share one length"):
            ModalCoefficients(np.zeros(2), np.zeros(2), np.zeros(3), np.zeros(2))
        assert ModalCoefficients.zeros(0).branches.shape == (2, 2, 0)

    @pytest.mark.parametrize("params", [pytest.param(p, id=n) for n, p in reference_params()])
    def test_producers_match_the_four_array_path(self, params):
        """Each producer's ``(family, branch, j)`` array is read-only and bitwise the four-array one."""
        J = 24
        produced = [ModalCoefficients.zeros(J), ModalCoefficients.single(ModeIndex(2, -1, 5), J, 2 - 0.5j)]
        for state in reference_states(params, J).values():
            coeffs = project(state, params, J)
            produced += [coeffs, propagate(coeffs, params, 1.3)]
        approx = OddApproximant(p=1, q=3, err=0.0, cq2=0.0)
        produced.append(near_unobservable_state(approx, params, J=J))
        for coeffs in produced:
            four = ModalCoefficients(coeffs.c1, coeffs.d1, coeffs.c2, coeffs.d2)
            assert coeffs.branches.dtype == complex and coeffs.branches.shape == (2, 2, J)
            assert not coeffs.branches.flags.writeable
            assert coeffs.branches.tobytes() == four.branches.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        lambda g: project(StateFunctions.zero(), g, J=0),
    ],
    ids=["project_J_0"],
)
def test_empty_quadrature_rejected(call, golden):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        call(golden)


def test_removed_options_raise_type_error(golden):
    """The constants and the quadrature follow from the parameters and ``J``."""
    coeffs = ModalCoefficients.zeros(2)
    with pytest.raises(TypeError):
        output_energy(coeffs, golden, 1.0, dc=derive_constants(golden))
    with pytest.raises(TypeError):
        project(StateFunctions.zero(), golden, J=2, cells=4096)


# ``bench/workloads.py`` still passes ``dc`` to these two, which ignore it.
INERT_DC = {"transfer_closed", "transfer_damped"}


@pytest.mark.parametrize("module", [spectral, observability, frequency], ids=lambda m: m.__name__)
def test_no_public_callable_takes_dc_or_cells(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj):
            taken = {"dc", "cells"} & set(inspect.signature(obj).parameters)
            assert taken <= ({"dc"} if name in INERT_DC else set()), name


MODEL_FORMS = ({}, {"classical": True})  # the coupled and the classical model


def test_families_memoised_read_only(golden):
    """``_model`` of equal parameters is one object with read-only arrays."""
    dc = derive_constants(golden)
    expected = {
        False: ([dc.zeta1, dc.zeta2], [[1.0, 1.0], [dc.b1, dc.b2]]),
        True: ([math.sqrt(golden.rho / golden.alpha1)], [[1.0]]),
    }
    for kwargs in MODEL_FORMS:
        model = _model(golden, **kwargs)
        equal = replace(golden)
        assert equal is not golden and _model(equal, **kwargs) is model
        zeta, mix = expected[bool(kwargs)]
        np.testing.assert_array_equal(model.zeta, zeta)
        np.testing.assert_array_equal(model.mix, mix)
        for a in model:
            with pytest.raises(ValueError):
                a.flat[0] = 0.0


def test_families_raise_for_invalid_params_on_every_call(golden):
    """An invalid beam is rejected each time it is built, so no model of one is memoised."""
    for _ in range(2):
        with pytest.raises(NonPositiveParameter):
            replace(golden, mu=-1.0)


def test_classical_model_constants_are_exact():
    """The one classical family: ``lam``, ``P`` and ``zeta`` as written, not rederived."""
    params = BeamParameters(rho=3.0, alpha1=7.0, beta=1.0, gamma=0.3, mu=1.0)
    model = _model(params, classical=True)
    assert model.lam.tolist() == [7.0 / 3.0]
    assert model.modes.tolist() == [[1.0 / math.sqrt(3.0)]]
    assert model.zeta.tolist() == [math.sqrt(3.0 / 7.0)]


class TestWaves:
    @pytest.mark.parametrize("J", [1, 256, 300, 4096])
    def test_matches_mpmath(self, J):
        """Phase doubling stays within ``2 eps max |sigma_j x|`` of 40-digit
        sines and cosines, the rounding of the argument itself."""
        L = 1.7
        rng = np.random.default_rng(J)
        x = np.concatenate((np.linspace(0.0, L, 129), rng.uniform(0.0, L, 128)))
        waves = _waves(J, x, L)
        assert waves.shape == (J, x.size)
        rows, cols = rng.integers(J, size=300), rng.integers(x.size, size=300)
        rows[:2], cols[:2] = J - 1, 128  # the largest argument sigma_J * L
        err = 0.0
        with mpmath.workdps(40):
            for r, c in zip(rows, cols):
                arg = (2 * int(r) + 1) * mpmath.pi / (2 * mpmath.mpf(L)) * mpmath.mpf(float(x[c]))
                want = mpmath.mpc(mpmath.cos(arg), mpmath.sin(arg))
                err = max(err, float(abs(want - mpmath.mpc(complex(waves[r, c])))))
        bound = 2.0 * np.finfo(float).eps * float(np.max(sigma(J, L) * x))
        assert err <= bound, (err, bound)

    def test_no_modes(self):
        assert _waves(0, np.linspace(0.0, 1.0, 5), 1.0).shape == (0, 5)


class TestModeCounts:
    @pytest.mark.parametrize("J", [0, -1, 2.5, 3.0, math.nan, math.inf, np.float64(4.0), True])
    def test_eigenvalues_and_project_name_bad_J(self, golden, J):
        with pytest.raises(ValueError, match="J must be an integer >= 1"):
            eigenvalues(golden, J)
        with pytest.raises(ValueError, match="J must be an integer >= 1"):
            project(StateFunctions.zero(), golden, J)

    def test_numpy_integers_accepted(self, golden):
        assert len(eigenvalues(golden, np.int64(3))) == 12
        assert project(StateFunctions.zero(), golden, np.int32(3)).truncation == 3
        assert ModeIndex(1, 1, np.int64(2)).j == 2
        assert ModeIndex(1, np.int64(-1), 1).sign == -1

    @pytest.mark.parametrize("j", [0, 2.5, 2.0, math.nan, True])
    def test_mode_index_rejects_non_integer_j(self, j):
        with pytest.raises(ValueError, match="mode index j must be an integer >= 1"):
            ModeIndex(1, 1, j)

    @pytest.mark.parametrize(
        "family, sign, name",
        [(1.0, 1, "family"), (2, -1.0, "sign"), (np.float64(2.0), 1, "family"), (True, 1, "family"),
         (2, True, "sign")],
    )
    def test_mode_index_rejects_float_family_and_sign(self, family, sign, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ModeIndex(family, sign, 1)

    @pytest.mark.parametrize("J", [2.5, 3.0, math.nan, True])
    def test_single_needs_an_integer_truncation(self, J):
        with pytest.raises(ValueError, match="J must be an integer >= 0"):
            ModalCoefficients.single(ModeIndex(1, 1, 3), J)

    @pytest.mark.parametrize("J", [2.5, 3.0, -1, False])
    def test_zeros_needs_an_integer_truncation(self, J):
        with pytest.raises(ValueError, match="J must be an integer >= 0"):
            ModalCoefficients.zeros(J)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected(golden, t):
    coeffs = random_coefficients(3)
    with pytest.raises(ValueError, match="t must be finite"):
        reconstruct(coeffs, golden, np.linspace(0.0, 1.0, 5), t=t)
    with pytest.raises(ValueError, match="t must be finite"):
        propagate(coeffs, golden, t)


class TestEigenvalues:
    def test_first_modes_golden(self, golden):
        lams = dict(eigenvalues(golden, 1))
        np.testing.assert_allclose(
            lams[ModeIndex(1, 1, 1)], (math.pi / 2.0) / PHI * 1j, rtol=1e-7
        )
        np.testing.assert_allclose(
            lams[ModeIndex(2, 1, 1)], 2.5416018 * 1j, rtol=1e-7
        )

    def test_conjugate_pairing_and_imaginary(self, golden):
        for mode, lam in eigenvalues(golden, 12):
            assert lam.real == 0.0
            flipped = ModeIndex(mode.family, -mode.sign, mode.j)
            assert dict(eigenvalues(golden, 12))[flipped] == -lam

    def test_within_family_spacing(self, golden, golden_dc):
        lams = dict(eigenvalues(golden, 30))
        for family, zeta in ((1, golden_dc.zeta1), (2, golden_dc.zeta2)):
            ims = np.array(
                [lams[ModeIndex(family, 1, j)].imag for j in range(1, 31)]
            )
            np.testing.assert_allclose(
                np.diff(ims), math.pi / (golden.length * zeta), rtol=1e-12
            )


class TestEigenfunctions:
    def test_zero_at_fixed_end(self, golden):
        vec = eigenfunction(ModeIndex(2, -1, 5), golden, 0.0)
        np.testing.assert_array_equal(vec, np.zeros(4))

    def test_coefficient_vector_at_free_end(self, golden, golden_dc):
        lam = 1j * (math.pi / 2.0) / golden_dc.zeta1
        vec = eigenfunction(ModeIndex(1, 1, 1), golden, golden.length)
        np.testing.assert_allclose(
            vec, [1.0 / lam, golden_dc.b1 / lam, 1.0, golden_dc.b1], rtol=1e-12
        )

    def test_discrete_operator_residual(self, golden, golden_dc):
        """The sampled eigenfunction nearly nulls the finite-difference generator."""
        n = 2048
        x = np.linspace(0.0, golden.length, n + 1)
        dx = x[1] - x[0]
        mode = ModeIndex(1, 1, 1)
        lam = dict(eigenvalues(golden, 1))[mode]
        z = eigenfunction(mode, golden, x)
        # generator: (z3, z4, (alpha z1'' - gb z2'')/rho, (beta z2'' - gb z1'')/gam mu)
        alpha, gb = golden_dc.alpha, golden.gamma * golden.beta

        def d2(u):
            out = np.zeros_like(u)
            out[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / dx**2
            out[-1] = (2.0 * u[-2] - 2.0 * u[-1]) / dx**2  # zero-flux ghost
            return out

        av = (alpha * d2(z[0]) - gb * d2(z[1])) / golden.rho
        ap = (golden.beta * d2(z[1]) - gb * d2(z[0])) / golden.mu
        applied = np.stack([z[2], z[3], av, ap])
        residual = applied - lam * z
        rel = np.linalg.norm(residual[:, 1:]) / np.linalg.norm(lam * z[:, 1:])
        assert rel < 1e-6


class TestProjection:
    def test_eigenvector_roundtrip(self, golden):
        coeffs = ModalCoefficients.single(ModeIndex(1, 1, 1), J=4)
        state = StateFunctions.from_modal(coeffs, golden)
        back = project(state, golden, J=4)
        np.testing.assert_allclose(back.c1[0], 1.0, atol=1e-10)
        for arr in (back.c1[1:], back.d1, back.c2, back.d2):
            np.testing.assert_allclose(arr, 0.0, atol=1e-10)

    def test_zero_state(self, golden):
        back = project(StateFunctions.zero(), golden, J=6)
        for arr in (back.c1, back.d1, back.c2, back.d2):
            np.testing.assert_array_equal(arr, 0.0)

    def test_pure_velocity_mode_splits_between_families(self, golden, golden_dc):
        state = StateFunctions(
            lambda x: 0.0 * x,
            lambda x: 0.0 * x,
            lambda x: np.sin(np.pi * x / 2.0),
            lambda x: 0.0 * x,
        )
        coeffs = project(state, golden, J=2)
        b1, b2 = golden_dc.b1, golden_dc.b2
        np.testing.assert_allclose(coeffs.c1[0], -b2 / (2.0 * (b1 - b2)), atol=1e-12)
        np.testing.assert_allclose(coeffs.d1[0], -coeffs.c1[0], atol=1e-12)
        np.testing.assert_allclose(coeffs.c2[0], b1 / (2.0 * (b1 - b2)), atol=1e-12)
        np.testing.assert_allclose(coeffs.d2[0], -coeffs.c2[0], atol=1e-12)
        np.testing.assert_allclose(coeffs.c1[0], 0.1381966, rtol=1e-6)
        np.testing.assert_allclose(coeffs.c2[0], 0.3618034, rtol=1e-6)

    def test_project_reconstruct_identity(self, golden):
        coeffs = random_coefficients(8, seed=7)
        state = StateFunctions.from_modal(coeffs, golden)
        back = project(state, golden, J=8)
        for a, b in zip(
            (back.c1, back.d1, back.c2, back.d2),
            (coeffs.c1, coeffs.d1, coeffs.c2, coeffs.d2),
        ):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_roundtrip_above_default_cells(self, golden):
        """More modes than ``DEFAULT_QUADRATURE_CELLS``: the rule widens with ``J``."""
        J = spectral.DEFAULT_QUADRATURE_CELLS + 1
        coeffs = random_coefficients(J, seed=11)
        back = project(StateFunctions.from_modal(coeffs, golden), golden, J)
        err = np.linalg.norm(back.branches - coeffs.branches) / np.linalg.norm(coeffs.branches)
        assert err <= 1e-10, err

    @pytest.mark.parametrize("family, sign", [(1, 1), (2, -1)])
    def test_top_mode_above_default_cells(self, golden, family, sign):
        """The highest mode, ``j = J = cells``, is recovered without aliasing."""
        J = spectral.DEFAULT_QUADRATURE_CELLS + 3
        coeffs = ModalCoefficients.single(ModeIndex(family, sign, J), J)
        back = project(StateFunctions.from_modal(coeffs, golden), golden, J)
        assert np.max(np.abs(back.branches - coeffs.branches)) <= 1e-11

    def test_residual_does_not_alias_above_default_cells(self, golden, golden_dc):
        """The residual samples the nodes of ``project``, widened with ``J``.

        On 2,049 nodes family-1 mode ``j`` aliases mode ``4097 - j`` with the
        opposite sign, so mode 1000 at -1 would nearly match mode 3097.  The
        two are orthogonal, and the rows of mode ``j`` are ``(1, b1, 1, b1)``
        times ``(1/freq_j, 1/freq_j, 1, 1)``: the residual is
        ``sqrt(1 + weight_1000 / weight_3097)``, within 1e-7 of ``sqrt(2)``.
        """
        J = 3097
        state = StateFunctions.from_modal(ModalCoefficients.single(ModeIndex(1, 1, J), J), golden)
        wrong = ModalCoefficients.single(ModeIndex(1, 1, 1000), J, amplitude=-1.0)
        weight = 1.0 + (golden_dc.zeta1 / sigma(np.array([1000, J]), golden.length)) ** 2
        residual = projection_residual(state, wrong, golden)
        assert residual == pytest.approx(math.sqrt(1.0 + weight[0] / weight[1]), abs=1e-9)
        assert residual == pytest.approx(math.sqrt(2.0), abs=1e-7)

    def test_reconstruct_without_modes(self, golden):
        x = np.linspace(0.0, golden.length, 7)
        for derivative in (False, True):
            fields = reconstruct(ModalCoefficients.zeros(0), golden, x, derivative=derivative)
            assert fields.shape == (4, 7) and not np.any(fields)

    def test_modal_state_reconstructs_once(self, golden, monkeypatch):
        """``sample`` is one ``reconstruct``; on the quadrature nodes a modal state
        builds no wave table: ``project`` takes one synthesis, and
        ``projection_residual`` two, one each for the state and its projection."""
        coeffs = random_coefficients(16, seed=3)
        state = StateFunctions.from_modal(coeffs, golden)
        x = np.linspace(0.0, golden.length, 129)
        expected = reconstruct(coeffs, golden, x)
        calls, syntheses = [], []

        def counting(*args, **kwargs):
            calls.append(1)
            return reconstruct(*args, **kwargs)

        def counting_synthesis(*args):
            syntheses.append(1)
            return synthesis(*args)

        synthesis = spectral._sine_synthesis
        monkeypatch.setattr(spectral, "reconstruct", counting)
        monkeypatch.setattr(spectral, "_sine_synthesis", counting_synthesis)
        np.testing.assert_array_equal(state.sample(x), expected)
        assert len(calls) == 1
        calls.clear()
        coeffs_back = project(state, golden, J=16)
        assert (len(calls), len(syntheses)) == (0, 1)
        projection_residual(state, coeffs_back, golden)
        assert (len(calls), len(syntheses)) == (0, 3)
        for i, f in enumerate((state.v, state.p, state.vdot, state.pdot)):
            np.testing.assert_array_equal(f(x), expected[i])

    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("J", [1, 16, 256, 2048, 2 * 2048])
    def test_modal_state_synthesis_on_the_nodes(self, golden, J, kind):
        """A modal state's samples on the quadrature nodes are its exact sine sums to
        ``1e-13`` of their scale, and ``reconstruct``'s to that or to ``J * eps``.

        The exact sums take each argument ``pi * k / (2 * cells)`` with the integer
        ``k = (2j - 1) * l`` reduced modulo ``4 * cells``.  ``reconstruct``'s wave table
        errs by ``eps * |sigma_j x|`` per row (:class:`TestWaves`), which sums to about
        ``J * eps`` of the scale at ``J >= 2048``.  Coefficients with ``d = -conj(c)``
        give exactly real fields, which come back as a real array.
        """
        coeffs = random_coefficients(J, seed=J)
        if kind == "real":
            coeffs = ModalCoefficients(coeffs.c1, -np.conj(coeffs.c1), coeffs.c2, -np.conj(coeffs.c2))
        cells = spectral.DEFAULT_QUADRATURE_CELLS
        got = StateFunctions.from_modal(coeffs, golden)._quadrature_samples(golden.length)
        k = (2 * np.arange(1, J + 1) - 1)[:, None] * np.arange(cells + 1) % (4 * cells)
        fields = spectral._field_rows(coeffs, golden) @ np.sin((np.pi / (2 * cells)) * k)
        exact = fields[:4] + 1j * fields[4:]
        del k, fields
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(got - exact)) <= 1e-13 * scale
        table = reconstruct(coeffs, golden, spectral._quadrature_nodes(golden.length))
        assert np.max(np.abs(got - table)) <= max(1e-13, J * np.finfo(float).eps) * scale
        assert got.dtype == (np.float64 if kind == "real" else np.complex128)

    @pytest.mark.parametrize("case", ["other_length", "long_truncation"])
    def test_modal_state_off_the_synthesis_is_sampled(self, golden, case, monkeypatch):
        """A modal state of another beam length, or truncated above ``2 * cells``,
        is sampled on the nodes by one ``reconstruct``, and ``project`` returns
        bitwise the coefficients of sampling it through the default path."""
        cells = spectral.DEFAULT_QUADRATURE_CELLS
        if case == "other_length":
            state = StateFunctions.from_modal(random_coefficients(16, seed=5), replace(golden, length=1.5))
        else:
            state = StateFunctions.from_modal(random_coefficients(2 * cells + 1, seed=5), golden)
        with monkeypatch.context() as m:
            m.setattr(spectral._ModalState, "_quadrature_samples", StateFunctions._quadrature_samples)
            want = project(state, golden, 16)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return reconstruct(*args, **kwargs)

        monkeypatch.setattr(spectral, "reconstruct", counting)
        monkeypatch.setattr(spectral, "_sine_synthesis", None)  # a synthesis would fail
        got = project(state, golden, 16)
        assert len(calls) == 1
        np.testing.assert_array_equal(got.branches, want.branches)


class TestPropagation:
    def test_time_zero_is_identity(self, golden):
        coeffs = random_coefficients(5, seed=3)
        out = propagate(coeffs, golden, 0.0)
        np.testing.assert_array_equal(out.c1, coeffs.c1)

    def test_single_mode_unit_phase(self, golden, golden_dc):
        coeffs = ModalCoefficients.single(ModeIndex(1, 1, 1), J=1)
        t = 1.7
        out = propagate(coeffs, golden, t)
        lam = 1j * sigma(1, golden.length) / golden_dc.zeta1
        np.testing.assert_allclose(out.c1[0], np.exp(lam * t), rtol=1e-12)
        assert abs(abs(out.c1[0]) - 1.0) < 1e-14

    def test_norm_conserved(self, golden):
        coeffs = random_coefficients(16, seed=11)
        before = modal_norm_sq(coeffs, golden)
        after = modal_norm_sq(propagate(coeffs, golden, 7.3), golden)
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_group_property_backwards(self, golden):
        coeffs = random_coefficients(4, seed=5)
        back = propagate(propagate(coeffs, golden, 2.5), golden, -2.5)
        np.testing.assert_allclose(back.c2, coeffs.c2, rtol=1e-12)


class TestNorms:
    def test_zero(self, golden):
        assert modal_norm_sq(ModalCoefficients.zeros(3), golden) == 0.0

    def test_single_mode_weight(self, golden):
        coeffs = ModalCoefficients.single(ModeIndex(1, 1, 1), J=1)
        np.testing.assert_allclose(
            modal_norm_sq(coeffs, golden), 1.0 + PHI**2, rtol=1e-12
        )

    def test_counterexample_state_norm_is_five(self, golden, golden_dc):
        approx = odd_odd_approximants(golden_dc.ratio, 1)[0]
        state = near_unobservable_state(approx, golden)
        np.testing.assert_allclose(modal_norm_sq(state, golden), 5.0, rtol=1e-12)

    def test_matches_quadrature(self, golden):
        """Modal formula equals direct quadrature of the energy inner product."""
        coeffs = random_coefficients(6, seed=23)
        x = np.linspace(0.0, golden.length, 4097)
        comps = reconstruct(coeffs, golden, x)
        dcomps = reconstruct(coeffs, golden, x, derivative=True)[:2]
        quad = energy_inner_quadrature(golden, comps, dcomps, x)
        np.testing.assert_allclose(modal_norm_sq(coeffs, golden), quad, rtol=1e-8)

    def test_equivalence_bracketing(self, golden, golden_dc):
        coeffs = random_coefficients(10, seed=31)
        total = sum(
            float(np.sum(np.abs(a) ** 2))
            for a in (coeffs.c1, coeffs.d1, coeffs.c2, coeffs.d2)
        )
        w1 = golden.rho + golden_dc.b1**2 * golden.mu
        w2 = golden.rho + golden_dc.b2**2 * golden.mu
        norm = modal_norm_sq(coeffs, golden)
        L = golden.length
        assert L * min(w1, w2) * total <= norm * (1 + 1e-12)
        assert norm <= L * max(w1, w2) * total * (1 + 1e-12)

    def test_orthogonality_by_quadrature(self, golden):
        """H inner product of distinct sampled eigenfunctions vanishes."""
        rng = np.random.default_rng(17)
        x = np.linspace(0.0, golden.length, 2049)
        modes = [
            ModeIndex(int(f), int(s), int(j))
            for f, s, j in zip(
                rng.integers(1, 3, 6), rng.choice([-1, 1], 6), rng.integers(1, 9, 6)
            )
        ]
        for a in modes:
            for b in modes:
                if (a.family, a.sign, a.j) == (b.family, b.sign, b.j):
                    continue
                za = eigenfunction(a, golden, x)
                zb = eigenfunction(b, golden, x)
                vxa = np.gradient(za[0], x)
                pxa = np.gradient(za[1], x)
                vxb = np.gradient(zb[0], x)
                pxb = np.gradient(zb[1], x)
                g = golden.gamma
                inner = np.trapezoid(
                    golden.rho * za[2] * np.conj(zb[2])
                    + golden.mu * za[3] * np.conj(zb[3])
                    + golden.alpha1 * vxa * np.conj(vxb)
                    + golden.beta * (g * vxa - pxa) * np.conj(g * vxb - pxb),
                    x,
                )
                scale = math.sqrt(
                    modal_norm_sq(ModalCoefficients.single(a, 10), golden)
                    * modal_norm_sq(ModalCoefficients.single(b, 10), golden)
                )
                assert abs(inner) / scale < 5e-5  # quadrature error only


class TestOutputEnergy:
    def test_zero_coefficients(self, golden):
        assert output_energy(ModalCoefficients.zeros(4), golden, 3.0) == 0.0

    @pytest.mark.parametrize("T", [math.inf, math.nan, 0.0, -1.0])
    def test_zero_state_still_checks_the_window(self, golden, T):
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            output_energy(ModalCoefficients.zeros(4), golden, T)

    def test_single_mode_constant_modulus(self, ratio_half):
        coeffs = ModalCoefficients.single(ModeIndex(1, 1, 1), J=1)
        np.testing.assert_allclose(
            output_energy(coeffs, ratio_half, 3.0), 6.0, rtol=1e-12
        )

    def test_exact_resonance_cancels(self, ratio_third):
        dc = derive_constants(ratio_third)
        approx = odd_odd_approximants(dc.ratio, 1)[0]
        assert (approx.p, approx.q) == (1, 3)
        state = near_unobservable_state(approx, ratio_third)
        assert output_energy(state, ratio_third, 5.0) == 0.0


class TestPhaseIntegral:
    def test_exact_at_small_gaps_coincidences_and_conjugates(self):
        """int_0^T e^{i delta t} dt = T * sum_k (i delta T)^k / (k+1)! to 1e-14 relative,
        also at gaps where the direct formula (e^{i delta T} - 1)/(i delta) cancels;
        exactly T at delta = 0; Hermitian as a Gram matrix."""
        T = 2.5
        for dT in (1e-9, 1e-7, 2e-6, 1e-5, 1e-3):
            series = T * sum((1j * dT) ** k / math.factorial(k + 1) for k in range(8))
            value = phase_integral(dT / T, T)
            assert abs(value - series) <= 1e-14 * abs(series), dT
        assert phase_integral(0.0, T) == T
        np.testing.assert_array_equal(phase_integral(np.zeros((2, 2)), T), T)
        s = np.array([-3.1, -0.4, 1e-7, 0.2, 5.0])
        gram = phase_integral(s[:, None] - s[None, :], T)
        np.testing.assert_allclose(gram, gram.conj().T, rtol=1e-15, atol=0.0)


def reference_static_solve(g, params, n):
    """Finite-difference oracle for the position components of ``resolvent_at_zero``.

    Solves ``K u'' = M (g3, g4)`` on ``n`` uniform cells for ``u = (v, p)``
    with ``u(0) = 0`` and ``K u'(L) = -(g2(L) / (2 h**2)) (0, 1)``, where
    ``M = diag(rho, mu)`` and ``K = [[alpha, -gamma beta], [-gamma beta, beta]]``
    are assembled from ``params``.  The driven end carries a ghost node
    ``u_{n+1} = u_{n-1} + 2 dx K^{-1} flux``, and the coupled ``2n x 2n``
    system is solved densely.  Returns the nodes and ``(v, p)`` on them.
    """
    L, h = params.length, params.thickness
    alpha = params.alpha1 + params.gamma**2 * params.beta
    gb = params.gamma * params.beta
    K = np.array([[alpha, -gb], [-gb, params.beta]])
    x = np.linspace(0.0, L, n + 1)
    dx = L / n
    _, g2, g3, g4 = (np.asarray(c(x), dtype=float) for c in (g.v, g.p, g.vdot, g.pdot))
    flux = -(g2[-1] / (2.0 * h**2)) * np.array([0.0, 1.0])
    d2 = (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / dx**2
    d2[-1, -2] = 2.0 / dx**2  # ghost node mirrors node n-1
    rhs = np.stack((params.rho * g3[1:], params.mu * g4[1:]))
    rhs[:, -1] -= (2.0 / dx) * flux
    u = np.linalg.solve(np.kron(K, d2), rhs.ravel()).reshape(2, n)
    return x, np.hstack((np.zeros((2, 1)), u))


class TestResolventAtZero:
    def test_zero_input(self, golden):
        U = resolvent_at_zero(StateFunctions.zero(), golden)
        x = np.linspace(0.0, 1.0, 33)
        for comp in (U.v, U.p, U.vdot, U.pdot):
            np.testing.assert_allclose(comp(x), 0.0, atol=1e-15)

    def test_constant_velocity_input(self, golden):
        g = StateFunctions(
            lambda x: 0.0 * x,
            lambda x: 0.0 * x,
            lambda x: np.ones_like(x),
            lambda x: 0.0 * x,
        )
        U = resolvent_at_zero(g, golden)
        x = np.linspace(0.0, 1.0, 257)
        # K^{-1} M (1, 0) = (1, 1) for unit parameters, and both ends are flux-free
        np.testing.assert_allclose(U.v(x), -(x - x**2 / 2.0), atol=1e-7)
        np.testing.assert_allclose(U.p(x), -(x - x**2 / 2.0), atol=1e-7)
        np.testing.assert_allclose(U.vdot(x), 0.0, atol=1e-15)
        np.testing.assert_allclose(U.pdot(x), 0.0, atol=1e-15)

    def test_linear_charge_input_and_boundary_conditions(self, golden, golden_dc):
        g = StateFunctions(
            lambda x: 0.0 * x,
            lambda x: np.asarray(x, dtype=float),
            lambda x: 0.0 * x,
            lambda x: 0.0 * x,
        )
        U = resolvent_at_zero(g, golden)
        x = np.linspace(0.0, 1.0, 257)
        np.testing.assert_allclose(U.v(x), -x / 2.0, atol=1e-12)
        np.testing.assert_allclose(U.p(x), -x, atol=1e-12)
        np.testing.assert_allclose(U.pdot(x), x, atol=1e-12)
        # damped-domain fluxes at the driven end
        h = 1e-6
        L = golden.length
        u1x = (U.v(L) - U.v(L - h)) / h
        u2x = (U.p(L) - U.p(L - h)) / h
        alpha, beta, gamma = golden_dc.alpha, golden.beta, golden.gamma
        np.testing.assert_allclose(alpha * u1x - gamma * beta * u2x, 0.0, atol=1e-6)
        np.testing.assert_allclose(
            beta * u2x - gamma * beta * u1x,
            -U.pdot(L) / (2.0 * golden.thickness**2),
            atol=1e-6,
        )

    def test_membership_at_fixed_end(self, golden):
        rng = np.random.default_rng(3)
        xs = np.linspace(0.0, 1.0, 65)
        g = StateFunctions.from_samples(
            xs, np.sin(2 * xs), xs**2, rng.standard_normal(65), np.cos(xs) - 1.0
        )
        U = resolvent_at_zero(g, golden)
        assert abs(U.v(0.0)) < 1e-12
        assert abs(U.p(0.0)) < 1e-12

    def test_complex_input_stays_complex(self, golden):
        g = StateFunctions(lambda x: 1j * np.sin(x), *(np.zeros_like,) * 3)
        U = resolvent_at_zero(g, golden)
        x = np.linspace(0.0, golden.length, spectral.DEFAULT_QUADRATURE_CELLS + 1)
        np.testing.assert_array_equal(U.vdot(x), 1j * np.sin(x))
        np.testing.assert_array_equal(U.v(x), 0.0)

    @pytest.mark.parametrize("row", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, golden, row, value):
        rows = [np.zeros_like] * 4
        rows[row] = lambda x: np.where(x > 0.5, value, 0.0)
        with pytest.raises(QuadratureFailure, match="non-finite"):
            resolvent_at_zero(StateFunctions(*rows), golden)

    @pytest.mark.parametrize("beam", ["golden", "ratio_half", "random"])
    def test_matches_reference(self, beam, request):
        """Interior values agree with an independent finite-difference solve."""
        if beam == "random":
            rng = np.random.default_rng(11)
            params = BeamParameters(*rng.uniform(0.3, 3.0, 7))
        else:
            params = request.getfixturevalue(beam)
        g = StateFunctions(np.sin, np.square, lambda x: np.cos(3.0 * x), lambda x: np.exp(-x))
        x, u = reference_static_solve(g, params, 800)
        U = resolvent_at_zero(g, params)
        scale = np.max(np.abs(u))
        assert np.max(np.abs(U.v(x) - u[0])) <= 2e-6 * scale
        assert np.max(np.abs(U.p(x) - u[1])) <= 2e-6 * scale



@pytest.mark.parametrize("kind", ["real", "complex", "nonuniform"])
def test_cumulative_trapezoid_matches_scipy_bitwise(kind):
    """The private trapezoid of ``resolvent_at_zero`` is SciPy's, bit for bit."""
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 1.7, 2049)
    if kind == "nonuniform":
        x = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.7, 2047)), [1.7]))
    y = rng.standard_normal((2, 2049))
    if kind == "complex":
        y = y + 1j * rng.standard_normal((2, 2049))
    ours, ref = _cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0)
    assert (ours.dtype, ours.shape) == (ref.dtype, ref.shape)
    assert ours.tobytes() == ref.tobytes()
