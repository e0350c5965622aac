"""Gauss quadrature on reference simplices and faces.

Every simplex rule, and through it every face rule, comes from one
construction: a Gauss-Legendre tensor rule on the unit d-cube pushed
through the collapsed-coordinate (Duffy) map onto the reference
d-simplex, for d = 1, 2 and 3.  The point counts account for the
polynomial degree the Jacobian adds, so a rule built for ``exactness``
integrates all polynomials of that total degree exactly.
"""

from functools import lru_cache, reduce

import numpy as np


@lru_cache(maxsize=None)
def gauss_legendre_01(n: int):
    """n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def reference_simplex_rule(d: int, exactness: int):
    """Points/weights on the reference d-simplex, d = 1, 2 or 3; weights
    sum to 1/d!.  A tensor rule of ceil((exactness + d)/2) Gauss-Legendre
    points per axis on the unit cube, mapped by
    x_k = u_k (1 - u_0) ... (1 - u_{k-1}), with weights times the map's
    Jacobian prod_j (1 - u_j)^(d-1-j)."""
    if d not in (1, 2, 3):
        raise ValueError(f"unsupported simplex dimension {d}")
    u, wu = gauss_legendre_01((max(int(exactness), 0) + d + 1) // 2)
    U = [a.ravel() for a in np.meshgrid(*[u] * d, indexing="ij")]
    w = np.prod([a.ravel() for a in np.meshgrid(*[wu] * d, indexing="ij")], axis=0)
    for j in range(d - 1):
        w = w * (1.0 - U[j]) ** (d - 1 - j)
    pts = [reduce(lambda x, v: x * (1.0 - v), U[:k], U[k]) for k in range(d)]
    return np.stack(pts, axis=1), w


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
    (3D), given their (..., d, d) vertices: points (..., q, d), weights (..., q).

    The reference (d-1)-simplex rule mapped onto each face, with weights
    scaled by the face's measure."""
    verts = np.asarray(verts, dtype=float)
    ref_pts, ref_w = reference_simplex_rule(verts.shape[-1] - 1, exactness)
    span = verts[..., 1:, :] - verts[..., :1, :]  # (..., d-1, d)
    if verts.shape[-1] == 2:  # segment length
        scale = np.linalg.norm(span[..., 0, :], axis=-1)
    else:  # twice the triangle's area: its reference weights sum to 1/2
        scale = np.linalg.norm(np.cross(span[..., 0, :], span[..., 1, :]), axis=-1)
    return verts[..., :1, :] + ref_pts @ span, ref_w * scale[..., None]
