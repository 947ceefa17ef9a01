import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import piezobeam
from piezobeam import BeamParameters, derive_constants, parameters_for_ratio

# HYPOTHESIS_PROFILE=ci draws the same examples on every run (the default
# example counts, no example database); the default profile draws fresh ones.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def checkout_env() -> dict:
    """The environment with this checkout's package first on ``PYTHONPATH``."""
    paths = [str(Path(piezobeam.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@pytest.fixture(scope="session")
def golden():
    """Unit parameters: zeta1 = golden ratio, zeta2 = 1/golden ratio."""
    return BeamParameters(rho=1.0, alpha1=1.0, beta=1.0, gamma=1.0, mu=1.0)


@pytest.fixture(scope="session")
def ratio_half():
    """Parameters with zeta2/zeta1 exactly 1/2 (mixed parity)."""
    return parameters_for_ratio(0.5)


@pytest.fixture(scope="session")
def ratio_third():
    """Parameters with zeta2/zeta1 exactly 1/3 (odd/odd resonance)."""
    return parameters_for_ratio(1.0 / 3.0)


@pytest.fixture(scope="session")
def golden_dc(golden):
    return derive_constants(golden)


def energy_inner_quadrature(params, comps, dcomps, x):
    """H inner product of a sampled state by trapezoid quadrature.

    ``comps`` are the four components on ``x`` and ``dcomps`` the x-derivatives
    of the first two; the quadratic form is
    rho |vdot|^2 + mu |pdot|^2 + alpha1 |v_x|^2 + beta |gamma v_x - p_x|^2.
    """
    v, p, vd, pd = comps
    vx, px = dcomps
    dens = (
        params.rho * np.abs(vd) ** 2
        + params.mu * np.abs(pd) ** 2
        + params.alpha1 * np.abs(vx) ** 2
        + params.beta * np.abs(params.gamma * vx - px) ** 2
    )
    return float(np.trapezoid(dens, x))


def exact_sine_sums(rows, n):
    """``sum_j rows[..., j - 1] * sin(sigma_j x_l)`` on ``x_l = l * L / n``, ``l = 0..n``,
    each argument ``pi * k / (2n)`` taken with the integer ``k = (2j - 1) * l``
    reduced modulo ``4n``; summed in blocks of 256 modes."""
    out = np.zeros((*rows.shape[:-1], n + 1))
    for start in range(0, rows.shape[-1], 256):
        block = rows[..., start : start + 256]
        k = (2 * np.arange(start, start + block.shape[-1]) + 1)[:, None] * np.arange(n + 1) % (4 * n)
        out += block @ np.sin((np.pi / (2 * n)) * k)
    return out
