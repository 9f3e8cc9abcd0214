"""Closed-form collocation kernel for uniformly charged rectangular panels."""

from __future__ import annotations

import numpy as np

from ..constants import EPS0

_TINY = 1e-300
BLOCK_PANELS = 256  # source panels per block; corner nodes are shared within a block
_TILE = 1 << 14  # target x node values per kernel evaluation (128 kB per array)
COINCIDENT_M = 1e-12  # centroids closer than this (in metres) coincide


class AssemblyError(RuntimeError):
    """Mesh cannot be assembled into a collocation system."""


def _corner_term(u, v, z):
    """Corner antiderivative of 1/r over a rectangle, at in-plane offsets u, v and height |z|.

        F(u, v) = u ln(v + r) + v ln(u + r) - |z| atan2(u v, |z| r)
    stays finite at the centroid (self term) and on the panel plane.
    """
    r = np.sqrt(u * u + v * v + z * z)
    return (u * np.log(np.maximum(v + r, _TINY))
            + v * np.log(np.maximum(u + r, _TINY))
            - z * np.arctan2(u * v, z * r))


def panel_frames(corners):
    """Each panel's frame (n, 3, 3): unit edge directions uhat, vhat and normal what = uhat x vhat."""
    edges = corners[:, [1, 3]] - corners[:, :1]
    uv = edges / np.linalg.norm(edges, axis=2)[:, :, None]
    return np.concatenate([uv, np.cross(uv[:, 0], uv[:, 1])[:, None]], axis=1)


def panel_sums(proj, u_off, v_off, w_off):
    """Panel integrals of 1/r as signed corner sums F(c0) - F(c1) + F(c2) - F(c3).

    proj (3, m) holds field points projected on panel frames (uhat, vhat,
    what); u_off and v_off (4, m) or (4, 1) hold the panel corners projected
    on the same frames, w_off (m,) or a scalar the panel planes.
    """
    f = _corner_term(proj[0] - u_off, proj[1] - v_off, np.abs(proj[2] - w_off))
    return f[0] - f[3] - f[1] + f[2]


def _unique_rows(rows):
    """(first, inverse) of the distinct rows of a float array, compared on their exact bits.

    first holds the first position of each distinct row and inverse each
    row's distinct-row number; rows are ordered as np.unique(bits, axis=0)
    orders them, lexicographically on the signed int64 bit patterns.
    """
    bits = np.ascontiguousarray(rows).view(np.int64)
    order = np.lexsort(bits.T[::-1])
    s = bits[order]
    new = np.empty(len(s), dtype=bool)
    new[:1] = True
    np.any(s[1:] != s[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(s), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _frame_groups(quads):
    """Split a block of panels by frame, and find each frame's shared corner nodes.

    Yields (frame, panels, nodes, inc): the panel_frames row, the block
    positions of the panels in that frame, their unique corner points, and
    each panel's four corner indices into nodes.  Frames and points are
    compared on their exact float bits, so panels on one box face share
    their nodes and nothing else is assumed about the mesh.
    """
    frames = panel_frames(quads)
    first, frame_of = _unique_rows(frames[:, :2].reshape(-1, 6))
    for f, j in enumerate(first):
        panels = np.flatnonzero(frame_of == f)
        points = quads[panels].reshape(-1, 3)
        at, inverse = _unique_rows(points)
        yield frames[j], panels, points[at], inverse.reshape(-1, 4)


def _dot(rel, e):
    """Elementwise rel[0]*e[0] + rel[1]*e[1] + rel[2]*e[2], skipping exact zeros and ones."""
    terms = [r if c == 1.0 else r * c for r, c in zip(rel, e) if c != 0.0]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _fill_block(mesh, target_points, source_idx, epsilon_r, out):
    """Write potential_block(mesh, target_points, source_idx, epsilon_r) into out.

    The corner term is evaluated once per (target, shared corner node) in
    row tiles of about _TILE values; every value depends only on its target
    and node, so the result does not depend on the blocking or tiling.
    """
    pref = 1.0 / (4.0 * np.pi * EPS0 * epsilon_r)
    tx, ty, tz = (np.ascontiguousarray(target_points[:, k, None]) for k in range(3))
    m = len(target_points)
    for s in range(0, len(source_idx), BLOCK_PANELS):
        idx = source_idx[s:s + BLOCK_PANELS]
        cols = out[:, s:s + len(idx)]
        scale = pref / mesh.areas[idx]
        for (uhat, vhat, what), panels, nodes, inc in _frame_groups(mesh.corners[idx]):
            px, py, pz = nodes.T
            step = max(1, _TILE // len(nodes))
            for r in range(0, m, step):
                rel = (tx[r:r + step] - px, ty[r:r + step] - py, tz[r:r + step] - pz)
                f = _corner_term(_dot(rel, uhat), _dot(rel, vhat), np.abs(_dot(rel, what)))
                # the +1/-1 corner incidence, summed in the fixed order 0, 3, 1, 2
                cols[r:r + step, panels] = (f[:, inc[:, 0]] - f[:, inc[:, 3]]
                                            - f[:, inc[:, 1]] + f[:, inc[:, 2]]) * scale[panels]


def potential_block(mesh, target_points, source_idx, epsilon_r):
    """Dense block: potential at target_points per unit total charge on each source panel.

    Evaluates the corner term once per shared corner node of each block of
    BLOCK_PANELS source panels; each column equals the per-panel signed
    corner sum F(c0) - F(c1) + F(c2) - F(c3) of _corner_term up to rounding,
    and is bitwise independent of the blocking.
    """
    target_points = np.asarray(target_points, dtype=np.float64)
    source_idx = np.asarray(source_idx)
    block = np.empty((len(target_points), len(source_idx)))
    _fill_block(mesh, target_points, source_idx, epsilon_r, block)
    return block


def check_distinct_centroids(centroids):
    """Coincident collocation points make the system singular; reject early."""
    order = np.lexsort(centroids.T)
    c = centroids[order]
    if len(c) > 1:
        d = np.linalg.norm(np.diff(c, axis=0), axis=1)
        if np.any(d < COINCIDENT_M):
            k = int(np.argmin(d))
            raise AssemblyError(
                f"panels {order[k]} and {order[k + 1]} have coincident centroids"
            )


def assemble_system(mesh, epsilon_r):
    """Full collocation matrix: volts at panel centroids per unit panel charge.

    The matrix is Fortran-ordered, so LU can factor it in place, and filled
    in place by column chunks of BLOCK_PANELS.
    """
    n = mesh.n_panels
    if n == 0:
        raise AssemblyError("empty mesh")
    centroids = mesh.centroids
    check_distinct_centroids(centroids)
    A = np.empty((n, n), order="F")
    for start in range(0, n, BLOCK_PANELS):
        stop = min(start + BLOCK_PANELS, n)
        _fill_block(mesh, centroids, np.arange(start, stop), epsilon_r, A[:, start:stop])
    return A
