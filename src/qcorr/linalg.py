"""Small dense linear-algebra kernels: matrix exponential and affine flows.

The generators handled here are real and generally non-normal (dissipation
plus rotation), so the exponential uses scaling and squaring around a
fixed-order diagonal Pade approximant instead of any eigendecomposition.

Every exact map of qcorr is a 4x4 array acting on the homogeneous state
(v, c): a Bloch vector v with c = 1, or the unnormalised pair that a
correlator carries. The map of an affine flow dr/dt = L r + b with
constant L and b over a gap dt is the gap map

    G = expm(dt [[L, b], [0, 0]]) = [[P, q], [0, 1]],

so r -> P r + q becomes (v, c) -> G (v, c), whether or not L is singular.
"""

from __future__ import annotations

import numpy as np

# [13/13] diagonal Pade coefficients and the matching scaling threshold.
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small real square matrix.

    Fixed-order [13/13] Pade core with scaling and squaring; relative
    accuracy near machine precision for the generator sizes used here.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm expects a square matrix, got shape {a.shape}")
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    if norm == 0.0:
        return np.eye(n)
    n_squarings = 0
    if norm > _PADE13_THETA:
        n_squarings = int(np.ceil(np.log2(norm / _PADE13_THETA)))
        a = a / (2.0 ** n_squarings)

    b = _PADE13_B
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    result = np.linalg.solve(v - u, v + u)
    for _ in range(n_squarings):
        result = result @ result
    return result


def affine_flow(generator: np.ndarray, drift: np.ndarray, dt: float) -> np.ndarray:
    """Gap map G of dr/dt = generator r + drift over a time span dt.

    (r(t0 + dt), 1) = G (r(t0), 1): G[:3, :3] is the linear part P and
    G[:3, 3] the offset q of r -> P r + q; the last row is (0, 0, 0, 1).
    """
    aug = np.zeros((4, 4))
    aug[:3, :3] = generator
    aug[:3, 3] = drift
    g = expm(aug * dt)
    # A zero row of the generator (always the last, the c row) leaves its
    # coordinate fixed. Exact identity rows keep it through any number of
    # gaps; the Pade solve leaves their diagonal an ulp or two below 1.
    fixed = ~aug.any(axis=1)
    g[fixed] = np.eye(4)[fixed]
    return g


def cross_matrix(axis: np.ndarray) -> np.ndarray:
    """Matrix [a]_x with [a]_x r = a x r."""
    ax, ay, az = np.asarray(axis, dtype=float)
    return np.array([
        [0.0, -az, ay],
        [az, 0.0, -ax],
        [-ay, ax, 0.0],
    ])
