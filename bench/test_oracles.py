"""Tests of the benchmark's own reference computations and of its metric table.

Run from the repository root with ``python3 -m pytest bench``.  The oracles
take any object with the seven physical attributes, so these tests build
their parameters without the package.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402


def ratio_params(ratio: float) -> SimpleNamespace:
    """Unit constants with ``zeta2/zeta1 = ratio`` (``gamma = (1 - r)/sqrt(r)``)."""
    return SimpleNamespace(
        rho=1.0, alpha1=1.0, beta=1.0, gamma=(1.0 - ratio) / math.sqrt(ratio), mu=1.0, length=1.0, thickness=1.0
    )


UNIT = SimpleNamespace(rho=1.0, alpha1=1.0, beta=1.0, gamma=1.0, mu=1.0, length=1.0, thickness=1.0)


def test_wave_constants_identities():
    c = oracles.wave_constants(0.7, 1.3, 2.1, 0.4, 1.9)
    assert c.b1 * c.b2 == pytest.approx(-0.7 / 1.9, rel=1e-12)
    assert c.zeta1**2 * c.zeta2**2 == pytest.approx(0.7 * 1.9 / (2.1 * 1.3), rel=1e-12)
    assert oracles.wave_constants(*(vars(ratio_params(0.5))[k] for k in ("rho", "alpha1", "beta", "gamma", "mu"))).zeta2 == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )


def test_exact_rate_ratio_half():
    assert oracles.exact_decay_rate(ratio_params(0.5), 1, 2) == pytest.approx(0.38314, abs=5e-6)


@pytest.mark.parametrize("num, den", [(1, 3), (3, 5), (1, 5)])
def test_odd_odd_ratio_has_zero_abscissa(num, den):
    abscissa, roots = oracles.closed_loop_abscissa(ratio_params(num / den), num, den)
    assert abs(abscissa) < 1e-12
    assert np.min(np.abs(np.abs(roots) - 1.0)) < 1e-12  # a root on the unit circle


@pytest.mark.parametrize("num, den", [(1, 2), (2, 3), (3, 4), (1, 4)])
def test_mixed_parity_ratio_decays(num, den):
    abscissa, roots = oracles.closed_loop_abscissa(ratio_params(num / den), num, den)
    assert abscissa < -0.05
    assert len(roots) == num + den


def test_transfer_limits_for_unit_parameters():
    g = oracles.transfer(np.array([0.0, 60.0]), UNIT)
    assert abs(g[0]) < 1e-15
    assert g[1] == pytest.approx(3.0 / math.sqrt(5.0), rel=1e-14)


@pytest.mark.parametrize("J", [10, 40, 80])
def test_gram_extremes_ratio_half(J):
    half = ratio_params(0.5)
    tmin = 2.0 * math.pi / oracles.mixed_parity_gap(half, 2)
    assert tmin == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
    lo, hi = oracles.gram_extremes(oracles.exponent_family(half, J), 1.2 * tmin)
    assert lo == pytest.approx(5.657, abs=5e-4)
    assert hi == pytest.approx(9.899, abs=5e-4)


def test_gram_extremes_collided_family_is_singular():
    lo, hi = oracles.gram_extremes(oracles.exponent_family(ratio_params(1.0 / 3.0), 20), 7.0)
    assert abs(lo) < 1e-9 and hi > 1.0


def test_current_quadrature_matches_pair_closed_form():
    # unit traces on family-1 mode j=2 (sigma = 3 pi/2) and family-2 mode j=1
    c = oracles.wave_constants(1.0, 1.0, 1.0, 1.0, 1.0)
    c1, d1, c2, d2 = (np.zeros(2, dtype=complex) for _ in range(4))
    c1[1] = -1.0 / c.b1  # sin(3 pi / 2) = -1
    c2[0] = -1.0 / c.b2
    norm = 2.0 + 1.0 / c.b1**2 + 1.0 / c.b2**2
    quotient = oracles.current_energy(UNIT, c1, d1, c2, d2, 10.0) / norm
    assert quotient == pytest.approx(oracles.pair_quotient(UNIT, 1, 3, 10.0), rel=1e-10)


def test_pair_quotient_series_branch_is_continuous():
    # dw T just below and above the series threshold
    p = ratio_params(1.0 / 3.0 + 1e-5)
    values = [oracles.pair_quotient(p, 1, 3, T) for T in np.linspace(0.5, 3.0, 200)]
    assert np.all(np.diff(values) > 0)


def test_standing_wave_solves_the_mode_equation():
    x = np.linspace(0.0, 1.0, 9)
    a, b = (oracles.standing_wave(UNIT, 2, 1, 0.8j, -1, t, x) for t in (1.0, 1.0 + 1e-6))
    assert np.allclose((b[0] - a[0]) / 1e-6, a[2], atol=1e-5)  # v_t = vdot


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
