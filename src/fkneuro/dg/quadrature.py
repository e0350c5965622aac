"""Gauss quadrature on reference simplices and faces.

Simplex rules come from Gauss-Legendre tensor rules pushed through the
collapsed-coordinate map of the unit square/cube onto the reference
simplex; the point counts account for the polynomial degree the Jacobian
adds, so a rule built for ``exactness`` integrates all polynomials of that
total degree exactly.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gauss_legendre_01(n: int):
    """n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def reference_simplex_rule(d: int, exactness: int):
    """Points/weights on the reference d-simplex, weights sum to 1/d!."""
    p = max(int(exactness), 0)
    if d == 1:
        x, w = gauss_legendre_01(max((p + 2) // 2, 1))
        return x[:, None].copy(), w.copy()
    if d == 2:
        n = max((p + 3) // 2, 1)  # ceil((p+2)/2)
        u, wu = gauss_legendre_01(n)
        v, wv = gauss_legendre_01(n)
        U, V = np.meshgrid(u, v, indexing="ij")
        WU, WV = np.meshgrid(wu, wv, indexing="ij")
        xi = U.ravel()
        eta = (V * (1.0 - U)).ravel()
        w = (WU * WV * (1.0 - U)).ravel()
        return np.stack([xi, eta], axis=1), w
    if d == 3:
        n = max((p + 4) // 2, 1)  # ceil((p+3)/2)
        u, wu = gauss_legendre_01(n)
        U, V, W = np.meshgrid(u, u, u, indexing="ij")
        WU, WV, WW = np.meshgrid(wu, wu, wu, indexing="ij")
        xi = U.ravel()
        eta = (V * (1.0 - U)).ravel()
        zeta = (W * (1.0 - U) * (1.0 - V)).ravel()
        w = (WU * WV * WW * (1.0 - U) ** 2 * (1.0 - V)).ravel()
        return np.stack([xi, eta, zeta], axis=1), w
    raise ValueError(f"unsupported simplex dimension {d}")


def simplex_rule(verts: np.ndarray, exactness: int):
    """Quadrature on physical d-simplices given their (..., d+1, d) vertices:
    points (..., q, d) and weights (..., q).

    Reference weights sum to 1/d!, so scaling by |det J| makes the
    physical weights sum to the simplex measure.
    """
    verts = np.asarray(verts, dtype=float)
    ref_pts, ref_w = reference_simplex_rule(verts.shape[-1], exactness)
    jac = verts[..., 1:, :] - verts[..., :1, :]  # rows span the simplex
    pts = verts[..., :1, :] + ref_pts @ jac
    return pts, ref_w * np.abs(np.linalg.det(jac))[..., None]


def face_rule(verts: np.ndarray, exactness: int):
    """Quadrature on (d-1)-faces embedded in R^d, segments (2D) or triangles
    (3D), given their (..., d, d) vertices: points (..., q, d), weights (..., q)."""
    verts = np.asarray(verts, dtype=float)
    span = verts[..., 1:, :] - verts[..., :1, :]  # (..., d-1, d)
    if verts.shape[-1] == 2:
        x, ref_w = gauss_legendre_01(max((int(exactness) + 2) // 2, 1))
        ref_pts = x[:, None]
        scale = np.linalg.norm(span[..., 0, :], axis=-1)
    else:
        ref_pts, ref_w = reference_simplex_rule(2, exactness)  # weights sum to 1/2
        scale = np.linalg.norm(np.cross(span[..., 0, :], span[..., 1, :]), axis=-1)
    return verts[..., :1, :] + ref_pts @ span, ref_w * scale[..., None]
