"""Eigenstructure, modal projection/propagation, norms, output energy, resolvent."""

import math
from dataclasses import replace

import numpy as np
import pytest

from piezobeam import (
    BeamParameters,
    ModalCoefficients,
    ModeIndex,
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
from piezobeam.spectral import _output_weights, phase_integral
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
    def test_reconstruct_equals_reference(self, derivative):
        for seed, (_, params) in enumerate(reference_params()):
            coeffs = random_coefficients(17, seed=seed)
            x = np.linspace(0.0, params.length, 129)
            for t in (0.0, 1.3):
                got = reconstruct(coeffs, params, x, t=t, derivative=derivative)
                want = reference_reconstruct(coeffs, params, x, t=t, derivative=derivative)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("params, coeffs", random_beam_cases())
    def test_propagate_equals_reference(self, params, coeffs):
        for t in (0.0, 1.3, -0.7):
            got, want = propagate(coeffs, params, t), reference_propagate(coeffs, params, t)
            assert np.array_equal(got.branches, want.branches)

    @pytest.mark.parametrize("params, coeffs", random_beam_cases())
    def test_modal_norm_sq_equals_reference(self, params, coeffs):
        assert modal_norm_sq(coeffs, params) == reference_modal_norm_sq(coeffs, params)

    @pytest.mark.parametrize("params, coeffs", random_beam_cases())
    def test_output_energy_equals_reference(self, params, coeffs):
        got = _output_weights(coeffs, params, derive_constants(params))
        want = reference_output_weights(coeffs, params)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        for T in (0.9, 6.0):
            assert output_energy(coeffs, params, T) == reference_output_energy(coeffs, params, T)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda g: project(StateFunctions.zero(), g, J=4, cells=0),
        lambda g: project(StateFunctions.zero(), g, J=0),
        lambda g: projection_residual(StateFunctions.zero(), ModalCoefficients.zeros(4), g, cells=0),
    ],
    ids=["project_cells_0", "project_J_0", "residual_cells_0"],
)
def test_empty_quadrature_rejected(call, golden):
    with pytest.raises(ValueError, match="must be >= 1"):
        call(golden)


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

    def test_modal_state_reconstructs_once(self, golden, monkeypatch):
        import piezobeam.spectral as spectral

        coeffs = random_coefficients(16, seed=3)
        state = StateFunctions.from_modal(coeffs, golden)
        x = np.linspace(0.0, golden.length, 129)
        expected = reconstruct(coeffs, golden, x)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return reconstruct(*args, **kwargs)

        monkeypatch.setattr(spectral, "reconstruct", counting)
        np.testing.assert_array_equal(state.sample(x), expected)
        assert len(calls) == 1
        coeffs_back = project(state, golden, J=16)
        assert len(calls) == 2
        projection_residual(state, coeffs_back, golden)
        assert len(calls) == 4
        for i, f in enumerate((state.v, state.p, state.vdot, state.pdot)):
            np.testing.assert_array_equal(f(x), expected[i])


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
        np.testing.assert_allclose(U.v(x), x - x**2 / 2.0, atol=1e-7)
        np.testing.assert_allclose(U.p(x), -3.0 * (x - x**2 / 2.0), atol=1e-6)
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
