"""Transfer function: closed form vs boundary-value oracle, damped loop, bounds."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_banded

from piezobeam import (
    BeamParameters,
    DegenerateCoupling,
    PoleProximity,
    SingularSystem,
    analytic_line_bound,
    boundedness_scan,
    damped_trace_gain,
    derive_constants,
    transfer_bvp,
    transfer_closed,
    transfer_damped,
    transfer_damped_bvp,
)
from piezobeam.frequency import _residues

G_INF_GOLDEN = 3.0 / math.sqrt(5.0)
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0  # zeta1 of the unit beam; zeta2 = 1/zeta1
G_AT_ONE_GOLDEN = 1.176144180642303  # recorded from the Richardson-extrapolated BVP oracle


def reference_bvp(s, params, n, damped):
    """Node-by-node assembly and solve of the boundary-value system: the
    oracle for ``transfer_bvp`` and ``transfer_damped_bvp``.

    Adds each matrix entry ``(i, j)`` to ``bands[3 + i - j, j]`` in a loop
    over the ``n`` nodes; unknowns are interleaved ``(Y_i, Z_i)``.  Returns
    ``Z(L)``.
    """
    rho, a1, beta, gamma, mu = params.rho, params.alpha1, params.beta, params.gamma, params.mu
    L, h = params.length, params.thickness
    alpha = a1 + gamma**2 * beta
    gb = gamma * beta
    dx = L / n
    fac = 1.0 / dx**2
    size = 2 * n
    bands = np.zeros((7, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    u_band = 3

    def put(i, j, val):
        bands[u_band + i - j, j] += val

    s2 = s * s
    for i in range(1, n + 1):
        vi = 2 * (i - 1)
        pi = vi + 1
        put(vi, vi, -2.0 * alpha * fac - rho * s2)
        put(pi, pi, -2.0 * beta * fac - mu * s2)
        put(vi, pi, 2.0 * gb * fac)
        put(pi, vi, 2.0 * gb * fac)
        left = 2.0 if i == n else 1.0
        if i > 1:
            put(vi, vi - 2, left * alpha * fac)
            put(vi, pi - 2, -left * gb * fac)
            put(pi, pi - 2, left * beta * fac)
            put(pi, vi - 2, -left * gb * fac)
        if i < n:
            put(vi, vi + 2, alpha * fac)
            put(vi, pi + 2, -gb * fac)
            put(pi, pi + 2, beta * fac)
            put(pi, vi + 2, -gb * fac)
    zn = size - 1
    rhs[zn] = 2.0 / (h * dx)
    if damped:
        bands[u_band, zn] += -s / (h**2 * dx)
    return complex(solve_banded((3, 3), bands, rhs)[zn])


def mpmath_bvp(s, params, n, dps=40):
    """``(G_n, G_d)`` of the same grid system, shot in ``dps``-digit arithmetic.

    The interior rows, solved for ``u_{i+1}``, carry the two solutions with
    ``u_0 = 0`` and ``u_1 = (1, 0)`` or ``(0, 1)`` from node 1 to node ``n``;
    the driven-end row, with and without the damped loop's feedback, then
    fixes their combination.
    """
    with mpmath.workdps(dps):
        rho, a1, beta, gamma, mu, L, h = map(mpmath.mpf, (
            params.rho, params.alpha1, params.beta, params.gamma, params.mu,
            params.length, params.thickness,
        ))
        alpha, gb = a1 + gamma**2 * beta, gamma * beta
        s = mpmath.mpc(s)
        dx = L / n
        # (s dx)^2 K^-1 M, with K = [[alpha, -gb], [-gb, beta]] and M = diag(rho, mu)
        c = (s * dx) ** 2 / (alpha * beta - gb**2)
        m11, m12, m21, m22 = c * beta * rho, c * gb * mu, c * gb * rho, c * alpha * mu
        shots = []
        for y, z in ((mpmath.mpf(1), mpmath.mpf(0)), (mpmath.mpf(0), mpmath.mpf(1))):
            y0 = z0 = mpmath.mpf(0)
            for _ in range(n - 1):
                y0, z0, y, z = y, z, 2 * y - y0 + m11 * y + m12 * z, 2 * z - z0 + m21 * y + m22 * z
            shots.append((y0, z0, y, z))
        out = []
        for feedback in (0, s / (h**2 * dx)):
            rows = []
            for y0, z0, y, z in shots:
                dy, dz = 2 * (y0 - y) / dx**2, 2 * (z0 - z) / dx**2
                rows.append((alpha * dy - gb * dz - s**2 * rho * y,
                             -gb * dy + beta * dz - s**2 * mu * z - feedback * z))
            (p11, p21), (p12, p22) = rows
            rhs = 2 / (h * dx)
            det = p11 * p22 - p12 * p21
            zn = (-p12 * shots[0][3] + p11 * shots[1][3]) * rhs / det
            out.append(s * zn / h)
        return complex(-out[0]), complex(1 + out[1])


def reference_transfer_closed(s, params, dc):
    """The two-family closed form with coefficients built from the PDE constants:

        G(s) = [ b2 (b1 g - a/beta)/zeta2 tanh(zeta2 s L)
               - b1 (b2 g - a/beta)/zeta1 tanh(zeta1 s L) ] / (alpha1 h^2 (b1 - b2)).
    """
    L, h, a1 = params.length, params.thickness, params.alpha1
    aob = dc.alpha / params.beta
    g = params.gamma
    s = np.asarray(s, dtype=complex)
    k2 = dc.b2 * (dc.b1 * g - aob) / dc.zeta2
    k1 = dc.b1 * (dc.b2 * g - aob) / dc.zeta1
    t1, t2 = np.tanh(dc.zeta1 * s * L), np.tanh(dc.zeta2 * s * L)
    return (k2 * t2 - k1 * t1) / (a1 * h**2 * (dc.b1 - dc.b2))


def reference_line_bound(s1, params, dc):
    """``sum |coefficient| * 2 / (1 - exp(-2 s1 zeta L))`` over the two closed-form terms."""
    L, h, a1 = params.length, params.thickness, params.alpha1
    aob = dc.alpha / params.beta
    g = params.gamma
    total = 0.0
    for b_self, b_other, zeta in ((dc.b2, dc.b1, dc.zeta2), (dc.b1, dc.b2, dc.zeta1)):
        coeff = abs(b_self * (b_other * g - aob)) / zeta
        total += coeff * 2.0 / (1.0 - math.exp(-2.0 * s1 * zeta * L))
    return total / (a1 * h**2 * abs(dc.b1 - dc.b2))


def seeded_beams(count, seed=0):
    """Beams with all seven parameters drawn from [0.2, 5]."""
    rng = np.random.default_rng(seed)
    return [BeamParameters(*rng.uniform(0.2, 5.0, 7)) for _ in range(count)]


class TestModalSum:
    def test_equals_reference_closed_form(self):
        rng = np.random.default_rng(10)
        for params in seeded_beams(20):
            dc = derive_constants(params)
            ss = rng.uniform(0.05, 10.0, 500) + 1j * rng.uniform(-30.0, 30.0, 500)
            np.testing.assert_allclose(
                transfer_closed(ss, params, dc), reference_transfer_closed(ss, params, dc),
                rtol=1e-12, atol=0,
            )
            for s1 in (0.05, 1.0, 10.0):
                np.testing.assert_allclose(
                    analytic_line_bound(s1, params), reference_line_bound(s1, params, dc),
                    rtol=1e-12, atol=0,
                )

    def test_residues_positive_and_sum_to_the_limit(self, golden):
        for params in [golden, *seeded_beams(10, seed=1)]:
            zl, r = _residues(params)
            assert zl.shape == r.shape == (2,)
            assert np.all(r > 0)
            if 60.0 * zl.min() > 20.0:  # tanh(60 zeta L) == 1 in floats
                np.testing.assert_allclose(transfer_closed(60.0, params), r.sum(), rtol=1e-15)

    def test_positive_real_on_the_right_half_plane(self, golden):
        rng = np.random.default_rng(11)
        for params in [golden, *seeded_beams(4, seed=2)]:
            ss = rng.exponential(1.0, 10_000) * 10.0 ** rng.uniform(-6, 1, 10_000)
            ss = ss + 1j * rng.uniform(-100.0, 100.0, 10_000)
            assert np.all(transfer_closed(ss, params).real >= 0.0)

    def test_memoised_residues_are_read_only(self, golden):
        zl, r = _residues(golden)
        assert _residues(golden)[1] is r
        for a in (zl, r):
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("call", [transfer_closed, transfer_damped])
    def test_inert_dc_changes_nothing(self, golden, golden_dc, call):
        """``dc`` is accepted and ignored: omitted, correct or another beam's."""
        other = derive_constants(seeded_beams(1, seed=3)[0])
        for s in (complex(0.7, -3.1), np.array([0.2 + 5.0j, 4.0 - 0.5j])):
            expected = np.atleast_1d(call(s, golden)).tobytes()
            for dc in (golden_dc, other):
                assert np.atleast_1d(call(s, golden, dc)).tobytes() == expected

    @pytest.mark.parametrize("call", [
        lambda g, dc: damped_trace_gain(1.0, g, dc),
        lambda g, dc: analytic_line_bound(1.0, g, dc),
        lambda g, dc: boundedness_scan(1.0, 10.0, 11, g, dc),
    ], ids=["damped_trace_gain", "analytic_line_bound", "boundedness_scan"])
    def test_removed_dc_raises_type_error(self, golden, golden_dc, call):
        with pytest.raises(TypeError):
            call(golden, golden_dc)


class TestClosedForm:
    def test_zero_at_origin(self, golden):
        assert transfer_closed(0.0, golden) == 0.0

    def test_large_s_saturation(self, golden):
        np.testing.assert_allclose(
            transfer_closed(60.0, golden), G_INF_GOLDEN, rtol=1e-12
        )

    def test_recorded_value_at_one(self, golden):
        np.testing.assert_allclose(
            transfer_closed(1.0, golden), G_AT_ONE_GOLDEN, rtol=1e-12
        )

    def test_conjugate_symmetry(self, golden):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 5.0), rng.uniform(-30.0, 30.0))
            np.testing.assert_allclose(
                transfer_closed(np.conj(s), golden),
                np.conj(transfer_closed(s, golden)),
                rtol=1e-12,
            )

    def test_pole_proximity_raised(self, golden, golden_dc):
        pole = 1j * math.pi / (2.0 * golden_dc.zeta2 * golden.length)
        with pytest.raises(PoleProximity):
            transfer_closed(pole, golden)

    def test_positive_real_on_the_real_axis(self, golden):
        for s in (0.1, 0.5, 2.0, 10.0):
            assert transfer_closed(s, golden).real > 0.0

    def test_array_keeps_shape_and_matches_scalar_calls(self, golden):
        rng = np.random.default_rng(5)
        ss = rng.uniform(0.01, 10.0, (7, 9)) + 1j * rng.uniform(-100.0, 100.0, (7, 9))
        g = transfer_closed(ss, golden)
        assert g.shape == ss.shape and g.dtype == complex
        scalar = np.array([[transfer_closed(s, golden) for s in row] for row in ss])
        np.testing.assert_allclose(g, scalar, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("s", [1.0, 2, 0.5 + 3.0j, np.float64(2.0), np.complex128(1.0 - 1.0j)])
    def test_scalar_returns_complex(self, golden, s):
        assert type(transfer_closed(s, golden)) is complex
        assert type(transfer_damped(s, golden)) is complex
        assert type(damped_trace_gain(s, golden)) is complex

    def test_scalar_conjugate_symmetry_is_bitwise(self, golden):
        rng = np.random.default_rng(12)
        for params in [golden, *seeded_beams(3, seed=4)]:
            dc = derive_constants(params)
            for s in rng.uniform(1e-3, 10.0, 500) + 1j * rng.uniform(-100.0, 100.0, 500):
                assert transfer_closed(s.conjugate(), params, dc) == transfer_closed(s, params, dc).conjugate()

    @pytest.mark.parametrize("family", [1, 2])
    def test_scalar_pole_named_as_in_an_array(self, golden, golden_dc, family):
        """A scalar at a zero of either cosh raises the array path's message."""
        zeta = golden_dc.zeta1 if family == 1 else golden_dc.zeta2
        pole = 1j * math.pi / (2.0 * zeta * golden.length)
        with pytest.raises(PoleProximity) as array_error:
            transfer_closed(np.array([pole]), golden)
        with pytest.raises(PoleProximity) as scalar_error:
            transfer_closed(pole, golden)
        assert str(scalar_error.value) == str(array_error.value) == f"s={pole} is within tolerance of a pole"

    @pytest.mark.parametrize(
        "s, value",
        [
            (math.nan, complex(math.nan, math.nan)),
            (math.inf, complex(G_INF_GOLDEN, 0.0)),
            (-math.inf, complex(-G_INF_GOLDEN, 0.0)),
            (1j * math.inf, complex(math.nan, math.nan)),
            (1 + math.nan * 1j, complex(math.nan, math.nan)),
        ],
        ids=["nan", "inf", "-inf", "j_inf", "nan_imag"],
    )
    def test_non_finite_scalar_matches_zero_d_array(self, golden, s, value):
        """Non-finite scalars give the recorded values, and the warnings, of 0-d arrays."""
        results = []
        for arg in (s, np.asarray(s)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results.append((transfer_closed(arg, golden), [str(w.message) for w in caught]))
        (g, messages), (g_array, array_messages) = results
        assert type(g) is complex
        np.testing.assert_allclose(g, value, rtol=1e-15)
        np.testing.assert_equal(g, g_array)
        assert messages == array_messages

    def test_pole_in_an_array_is_named(self, golden, golden_dc):
        """The first entry in C order at a zero of either cosh is named."""
        pole2 = 1j * math.pi / (2.0 * golden_dc.zeta2 * golden.length)
        pole1 = 3j * math.pi / (2.0 * golden_dc.zeta1 * golden.length)
        ss = np.array([[1.0, 2.0 + 1.0j, pole2], [pole1, 0.5, 3.0]])
        with pytest.raises(PoleProximity, match=re.escape(f"s={pole2} ")):
            transfer_closed(ss, golden)
        with pytest.raises(PoleProximity, match=re.escape(f"s={pole1} ")):
            transfer_closed(ss[::-1], golden)


class TestBoundaryValueOracle:
    def test_agreement_with_richardson(self, golden):
        """Closed form matches the mesh-extrapolated grid solve to 1e-11."""
        coarse = transfer_bvp(1.0, golden, 2048)
        fine = transfer_bvp(1.0, golden, 4096)
        extrapolated = (4.0 * fine - coarse) / 3.0
        np.testing.assert_allclose(
            transfer_closed(1.0, golden), extrapolated, rtol=1e-11
        )

    @pytest.mark.parametrize("s", [0.1 + 3.0j, 0.1 - 3.0j, 0.2 + 0.1j])
    def test_agreement_with_richardson_near_the_axis(self, golden, s):
        coarse = transfer_bvp(s, golden, 2048)
        fine = transfer_bvp(s, golden, 4096)
        np.testing.assert_allclose(
            transfer_closed(s, golden), (4.0 * fine - coarse) / 3.0, rtol=1e-10
        )

    def test_second_order_convergence(self, golden):
        s = 0.5
        exact = transfer_closed(s, golden)
        errs = [abs(transfer_bvp(s, golden, n) - exact) for n in (256, 512)]
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_random_points_agree(self, golden):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
            np.testing.assert_allclose(
                transfer_bvp(s, golden, 1024), transfer_closed(s, golden), rtol=2e-5
            )

    @pytest.mark.parametrize(
        "params, s, n",
        [
            (BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0), 1.0, 64),
            (BeamParameters(1.0, 1.0, 1.0, math.sqrt(0.5), 1.0), 0.3 - 2.5j, 257),
            (BeamParameters(2.3, 0.7, 1.9, 0.4, 3.1, length=1.7, thickness=0.3), 1.0 + 3.0j, 1024),
            (BeamParameters(0.8, 1.4, 0.6, 1.3, 0.9, length=0.6, thickness=2.5), 0.01 + 7.0j, 333),
        ],
    )
    def test_agrees_with_reference_loop_assembly(self, params, s, n):
        """The closed-form grid solution and a banded LU solve of the
        node-by-node assembly agree to the LU's round-off."""
        h = params.thickness
        np.testing.assert_allclose(
            transfer_bvp(s, params, n), -s * reference_bvp(s, params, n, False) / h, rtol=1e-10
        )
        np.testing.assert_allclose(
            transfer_damped_bvp(s, params, n), s * reference_bvp(s, params, n, True) / h + 1.0, rtol=1e-10
        )

    @pytest.mark.parametrize(
        "params, s, n",
        [
            (BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0), 1.0, 64),
            (BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0), 50.0, 64),
            (BeamParameters(1.0, 1.0, 1.0, math.sqrt(0.5), 1.0), 0.3 - 2.5j, 333),
            (BeamParameters(0.8, 1.4, 0.6, 1.3, 0.9, length=0.6, thickness=2.5), 0.01 + 7.0j, 333),
            (BeamParameters(2.3, 0.7, 1.9, 0.4, 3.1, length=1.7, thickness=0.3), 1.0 + 3.0j, 1024),
            (BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0), 0.05 + 20.0j, 1024),
            (BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0), 50.0 + 3.0j, 4096),
            (BeamParameters(2.3, 0.7, 1.9, 0.4, 3.1, length=1.7, thickness=0.3), 0.01 - 0.5j, 4096),
            # n theta_k = i pi: family k's grid wave vanishes at the driven end
            (BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0), 128j * math.sin(math.pi / 128) / GOLDEN_RATIO, 64),
            (BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0), 128j * math.sin(math.pi / 128) * GOLDEN_RATIO, 64),
        ],
    )
    def test_matches_mpmath_recurrence(self, params, s, n):
        """Both transfers agree to 1e-13 with a 40-digit shot of the same rows,
        also where a family's ``sinh(n theta_k)`` vanishes."""
        g, gd = mpmath_bvp(s, params, n)
        np.testing.assert_allclose(transfer_bvp(s, params, n), g, rtol=1e-13)
        np.testing.assert_allclose(transfer_damped_bvp(s, params, n), gd, rtol=1e-13)

    @pytest.mark.parametrize("s", [0, 0.0, -0.0, 0j])
    def test_exact_at_zero(self, golden, s):
        for n in (64, 4096):
            assert transfer_bvp(s, golden, n) == 0
            assert transfer_damped_bvp(s, golden, n) == 1

    @pytest.mark.parametrize("family", [1, 2])
    def test_pole_of_the_grid_is_singular(self, golden, golden_dc, family):
        """At a zero of ``cosh(n theta_k)`` the undamped end system is singular;
        the damped loop stays on the unit circle there."""
        n = 64
        zeta = golden_dc.zeta1 if family == 1 else golden_dc.zeta2
        s = 2j * math.sin(math.pi / (4 * n)) * n / (golden.length * zeta)
        with pytest.raises(SingularSystem, match=re.escape(f"near s={complex(s)}")):
            transfer_bvp(s, golden, n)
        gd = transfer_damped_bvp(s, golden, n)
        np.testing.assert_allclose(gd, mpmath_bvp(s, golden, n)[1], rtol=1e-13)
        assert abs(abs(gd) - 1.0) < 1e-14

    def test_damped_loop_singular_where_g_is_minus_two(self, golden, golden_dc):
        """``G_n`` is odd in ``s``; where ``G_n(s) = 2`` the damped end system at
        ``-s`` is singular."""
        n = 64
        pole = 1j * math.pi / (2.0 * golden_dc.zeta2 * golden.length)
        s0, s1 = pole + 0.3, pole + 0.35
        f0, f1 = transfer_bvp(s0, golden, n) - 2.0, transfer_bvp(s1, golden, n) - 2.0
        while abs(f1) > 1e-15 and f1 != f0:  # secant steps
            s0, s1 = s1, s1 - f1 * (s1 - s0) / (f1 - f0)
            f0, f1 = f1, transfer_bvp(s1, golden, n) - 2.0
        assert abs(f1) < 1e-14
        assert transfer_bvp(-s1, golden, n) == -transfer_bvp(s1, golden, n)
        with pytest.raises(SingularSystem):
            transfer_damped_bvp(-s1, golden, n)
        assert abs(transfer_damped_bvp(s1, golden, n)) < 1e-14

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, complex(1.0, math.inf), complex(math.nan, 1.0)])
    @pytest.mark.parametrize("solve", [transfer_bvp, transfer_damped_bvp])
    def test_non_finite_s_rejected(self, golden, solve, s):
        with pytest.raises(ValueError, match="s must be finite"):
            solve(s, golden, 64)

    @pytest.mark.parametrize("n", [64, 4096])
    def test_huge_s_sees_the_end_mass(self, golden, n):
        """For ``|s| -> inf`` only the driven node moves: ``G_n -> 2n / (s L h^2 mu)``."""
        for s in (1e308, -1e308, 1e200 + 1e200j):
            np.testing.assert_allclose(transfer_bvp(s, golden, n), 2.0 * n / s, rtol=1e-12)
            np.testing.assert_allclose(transfer_damped_bvp(s, golden, n), 1.0, rtol=1e-15)
        long_beam = BeamParameters(1.0, 1.0, 1.0, 1.0, 1.0, length=1e300)
        with pytest.raises(ValueError, match=re.escape(f"s={complex(1e308)} is too large")):
            transfer_bvp(1e308, long_beam, n)

    def test_parameters_validated_like_the_closed_form(self):
        params = BeamParameters(1.0, 1.0, 1.0, 0.0, 1.0)
        for call in (transfer_closed, transfer_bvp, transfer_damped_bvp):
            with pytest.raises(DegenerateCoupling):
                call(1.0, params)

    @pytest.mark.parametrize("n", [100.0, np.float64(128.0), 63, math.nan, True])
    @pytest.mark.parametrize("solve", [transfer_bvp, transfer_damped_bvp])
    def test_cell_count_must_be_an_integer_of_at_least_64(self, golden, solve, n):
        with pytest.raises(ValueError, match="n must be an integer >= 64"):
            solve(1.0, golden, n)

    def test_decoupled_limit_matches_scalar_line(self):
        """Tiny coupling reduces to the single charge-wave transfer."""
        params = BeamParameters(rho=1.0, alpha1=1.0, beta=1.0, gamma=1e-8, mu=4.0)
        for s in (0.5, 1.0, 2.0):
            expected = math.tanh(2.0 * s) / 2.0  # (1/(h^2 sqrt(beta mu))) tanh(sqrt(mu/beta) L s)
            np.testing.assert_allclose(transfer_bvp(s, params, 1024), expected, rtol=1e-4)
            np.testing.assert_allclose(transfer_closed(s, params), expected, rtol=1e-6)


class TestDampedLoop:
    def test_unit_at_origin(self, golden):
        assert transfer_damped(0.0, golden) == 1.0

    def test_large_s_limit(self, golden):
        expected = (1.0 - G_INF_GOLDEN / 2.0) / (1.0 + G_INF_GOLDEN / 2.0)
        np.testing.assert_allclose(transfer_damped(60.0, golden), expected, rtol=1e-12)

    def test_contractive_on_scan(self, golden):
        """The loop map stays in the unit disk at 500 random half-plane points."""
        rng = np.random.default_rng(42)
        ss = rng.uniform(0.01, 10.0, 500) + 1j * rng.uniform(-100.0, 100.0, 500)
        mods = np.abs(transfer_damped(ss, golden))
        assert mods.shape == (500,)
        assert mods.max() <= 1.0 + 1e-9

    def test_contractive_next_to_a_pole(self, golden, golden_dc):
        s = 0.001 + 1j * math.pi / (2.0 * golden_dc.zeta2 * golden.length)
        assert abs(transfer_closed(s, golden)) > 50.0  # nearly a pole
        assert abs(transfer_damped(s, golden)) <= 1.0 + 1e-9

    def test_matches_damped_boundary_solve(self, golden):
        for s in (0.5, 1.0, 2.0, 1.0 + 3.0j):
            np.testing.assert_allclose(
                transfer_damped_bvp(s, golden, 2048),
                transfer_damped(s, golden),
                rtol=3e-6,
            )

    def test_accepts_arrays(self, golden):
        rng = np.random.default_rng(6)
        ss = rng.uniform(0.01, 10.0, (3, 4)) + 1j * rng.uniform(-50.0, 50.0, (3, 4))
        g = transfer_closed(ss, golden)
        for f, form in ((transfer_damped, (1.0 - 0.5 * g) / (1.0 + 0.5 * g)),
                        (damped_trace_gain, g / (1.0 + 0.5 * g))):
            out = f(ss, golden)
            assert out.shape == ss.shape
            np.testing.assert_array_equal(out, form)
            np.testing.assert_allclose(out, [[f(s, golden) for s in row] for row in ss], rtol=1e-14)

    def test_trace_gain_examples(self, golden):
        assert damped_trace_gain(0.0, golden) == 0.0
        expected = G_INF_GOLDEN / (1.0 + G_INF_GOLDEN / 2.0)
        np.testing.assert_allclose(damped_trace_gain(60.0, golden), expected, rtol=1e-12)
        assert abs(damped_trace_gain(60.0, golden)) < 1.0


class TestBoundednessScan:
    def test_supremum_below_analytic_bound(self, golden):
        result = boundedness_scan(1.0, 200.0, 4001, golden)
        assert math.isfinite(result.sup)
        assert result.sup <= result.bound

    def test_far_line_saturates(self, golden):
        result = boundedness_scan(5.0, 50.0, 2001, golden)
        assert abs(result.sup - G_INF_GOLDEN) / G_INF_GOLDEN < 0.01

    def test_near_axis_grows_but_bounded(self, golden):
        near = boundedness_scan(0.01, 30.0, 4001, golden)
        far = boundedness_scan(1.0, 30.0, 4001, golden)
        assert near.sup > 3.0 * far.sup
        assert near.sup <= analytic_line_bound(0.01, golden)

    def test_rejects_nonpositive_line(self, golden):
        with pytest.raises(ValueError):
            boundedness_scan(0.0, 10.0, 101, golden)
        with pytest.raises(ValueError, match="s1 must be > 0 and finite"):
            boundedness_scan(math.inf, 1.0, 3, golden)
        for s1 in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="s1 must be > 0"):
                analytic_line_bound(s1, golden)

    @pytest.mark.parametrize("im_max", [math.nan, math.inf, -1.0])
    def test_rejects_bad_segment(self, golden, im_max):
        with pytest.raises(ValueError, match="im_max must be finite and >= 0"):
            boundedness_scan(1.0, im_max, 101, golden)

    @pytest.mark.parametrize("n", [0, -3, 101.0, np.float64(5.0)])
    def test_rejects_bad_sample_count(self, golden, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            boundedness_scan(1.0, 10.0, n, golden)

    def test_accepts_a_point_and_numpy_integers(self, golden):
        assert boundedness_scan(1.0, 0.0, 1, golden).argmax == 1.0
        assert boundedness_scan(1.0, 10.0, np.int64(11), golden) == boundedness_scan(1.0, 10.0, 11, golden)
