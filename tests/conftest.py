import numpy as np
import pytest

from collkit import KernelSpec, QuadratureScheme
from collkit.fields import gaussian_field


def b_ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def b_cos2(x):
    return 1.0 - np.asarray(x, dtype=float) ** 2


def landau_a_bar_g0(v, u, theta, rho):
    """Exact Landau gamma = 0 diffusion matrix for a Gaussian; v has shape (..., 3).

    The kernel |z|^2 Pi(z) is a polynomial, so for density rho, mean u and
    temperature matrix theta, a_bar(v) = rho [(|v-u|^2 + tr theta) I
    - (v-u)(v-u)^T - theta] (and c_bar = 6 rho).
    """
    dv = np.asarray(v, dtype=float) - u
    r2 = np.sum(dv * dv, axis=-1)[..., None, None]
    return rho * ((r2 + np.trace(theta)) * np.eye(3)
                  - dv[..., :, None] * dv[..., None, :] - theta)


@pytest.fixture(scope="session")
def q_fast():
    """Coarse scheme for smoke-level checks."""
    return QuadratureScheme(radial_nodes=8, angular_nodes=8, hyperplane_nodes=10)


@pytest.fixture(scope="session")
def q_default():
    return QuadratureScheme()


@pytest.fixture(scope="session")
def maxwellian():
    return gaussian_field()


@pytest.fixture(scope="session")
def kernel_boltzmann_g0():
    return KernelSpec(dim=3, gamma=0.0, operator="boltzmann", b=b_ones)
