"""Test oracles for the deformed flow: the bracket table and the gradients of H.

``poisson_bracket`` evaluates the Snyder bracket from gradients, so the
explicit equations of motion in ``snyder_coulomb.dynamics`` can be checked
against the bracket structure they are derived from.  No package code
calls these functions.
"""

import numpy as np

from snyder_coulomb import OrbitState, PhysicalParams


def poisson_bracket(
    df_dx: np.ndarray,
    df_dp: np.ndarray,
    dg_dx: np.ndarray,
    dg_dp: np.ndarray,
    x: np.ndarray,
    p: np.ndarray,
    beta: float,
) -> float:
    """Deformed bracket {f, g} from the gradients of f and g at (x, p).

    Evaluates
    beta^2 sum_ij J_ij (df/dx_i)(dg/dx_j)
    + sum_ij (delta_ij + beta^2 p_i p_j)
             ((df/dx_i)(dg/dp_j) - (dg/dx_i)(df/dp_j)).
    """
    b2 = beta * beta
    a, b = np.asarray(df_dx, float), np.asarray(dg_dx, float)
    ap, bp = np.asarray(df_dp, float), np.asarray(dg_dp, float)
    xx_term = b2 * (np.dot(a, x) * np.dot(b, p) - np.dot(b, x) * np.dot(a, p))
    xp_term = (
        np.dot(a, bp)
        - np.dot(b, ap)
        + b2 * (np.dot(p, a) * np.dot(p, bp) - np.dot(p, b) * np.dot(p, ap))
    )
    return float(xx_term + xp_term)


def hamiltonian_gradients(
    state: OrbitState, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """(dH/dx, dH/dp) of the Coulomb Hamiltonian at ``state``."""
    r3 = state.r**3
    dh_dx = np.array([params.e2 * state.x1 / r3, params.e2 * state.x2 / r3])
    dh_dp = np.array([state.p1 / params.m, state.p2 / params.m])
    return dh_dx, dh_dp
