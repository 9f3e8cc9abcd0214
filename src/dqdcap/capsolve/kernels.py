"""Closed-form collocation kernel for uniformly charged rectangular panels."""

from __future__ import annotations

import itertools

import numpy as np

from .._blas import thread_map
from ..constants import EPS0

_TINY = 1e-300
BLOCK_PANELS = 256  # columns per chunk of the assembly, one thread_map item each
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
    """Split panels by frame, and find each frame's shared corner nodes.

    Yields (frame, panels, nodes, inc): the panel_frames row, the positions
    in quads of the panels in that frame, their unique corner points, and
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


def _fill_block(mesh, target_points, source_idx, epsilon_r, out, groups=None):
    """Write potential_block(mesh, target_points, source_idx, epsilon_r, groups) into out.

    Groups the sources unless groups is given, and evaluates the corner term once per
    (target, shared corner node) in row tiles of about _TILE values; each value depends
    only on its target, node and frame, so neither the grouping nor the tiling shows.
    """
    tx, ty, tz = (np.ascontiguousarray(target_points[:, k, None]) for k in range(3))
    scale = 1.0 / (4.0 * np.pi * EPS0 * epsilon_r) / mesh.areas[source_idx]
    if groups is None:
        groups = _frame_groups(mesh.corners[source_idx])
    for (uhat, vhat, what), panels, nodes, inc in groups:
        px, py, pz = nodes.T
        step = max(1, _TILE // len(nodes))
        for r in range(0, len(target_points), step):
            rel = (tx[r:r + step] - px, ty[r:r + step] - py, tz[r:r + step] - pz)
            f = _corner_term(_dot(rel, uhat), _dot(rel, vhat), np.abs(_dot(rel, what)))
            # the +1/-1 corner incidence, summed in the fixed order 0, 3, 1, 2
            out[r:r + step, panels] = (f[:, inc[:, 0]] - f[:, inc[:, 3]]
                                       - f[:, inc[:, 1]] + f[:, inc[:, 2]]) * scale[panels]


def potential_block(mesh, target_points, source_idx, epsilon_r, groups=None):
    """Dense block: potential at target_points per unit total charge on each source panel.

    Evaluates the corner term once per shared corner node of the source
    panels; each column equals the per-panel signed corner sum
    F(c0) - F(c1) + F(c2) - F(c3) of _corner_term up to rounding, bitwise
    whatever the other sources.  groups, the sources' frame grouping at their
    positions in source_idx (DenseFactor.groups), spares regrouping them.
    """
    target_points = np.asarray(target_points, dtype=np.float64)
    source_idx = np.asarray(source_idx)
    block = np.empty((len(target_points), len(source_idx)))
    _fill_block(mesh, target_points, source_idx, epsilon_r, block, groups)
    return block


def _coincident_pair(points, marked):
    """Positions i < j of two points closer than COINCIDENT_M, i or j marked, or None.

    Such a pair is under COINCIDENT_M apart on each axis.  Along one axis,
    two grids of cells of side 3 COINCIDENT_M, offset by half a side, have
    cell edges 1.5 COINCIDENT_M apart: the pair's span crosses an edge of
    one of them at most, so it shares a cell of the other.  So it shares a
    cube in one of the 8 grids those choices make.  Sorted by cube, each
    cube's points are one run, and only points within a run are compared.
    """
    scaled = points / (3.0 * COINCIDENT_M)
    for shift in itertools.product((0.0, 0.5), repeat=3):
        cubes = np.floor(scaled + shift)
        order = np.lexsort(cubes.T)
        c = cubes[order]
        starts = np.flatnonzero(np.r_[True, np.any(c[1:] != c[:-1], axis=1)])
        stops = np.r_[starts[1:], len(order)]
        for start, stop in zip(starts[stops - starts > 1], stops[stops - starts > 1]):
            run = np.sort(order[start:stop])
            for k, i in enumerate(run[:-1]):
                rest = run[k + 1:]
                close = np.linalg.norm(points[rest] - points[i], axis=1) < COINCIDENT_M
                close &= marked[i] | marked[rest]
                if close.any():
                    return i, rest[np.argmax(close)]
    return None


def check_distinct_centroids(centroids, among=None):
    """Coincident collocation points make the system singular; reject early.

    Centroids closer than COINCIDENT_M coincide.  With among (positions),
    only the pairs with a point in among are checked, against the points
    within COINCIDENT_M of among's bounding box.
    """
    points = np.arange(len(centroids))
    marked = np.ones(len(centroids), dtype=bool)
    if among is not None:
        if not len(among):
            return
        lo = centroids[among].min(axis=0) - COINCIDENT_M
        hi = centroids[among].max(axis=0) + COINCIDENT_M
        points = np.flatnonzero(np.all((centroids >= lo) & (centroids <= hi), axis=1))
        marked = np.isin(points, among)
    pair = _coincident_pair(centroids[points], marked)
    if pair is not None:
        i, j = points[list(pair)]
        raise AssemblyError(f"panels {i} and {j} have coincident centroids")


def assemble_system(mesh, epsilon_r):
    """Full collocation matrix: volts at panel centroids per unit panel charge.

    The matrix is Fortran-ordered, so LU can factor it in place, and filled
    in place by column chunks of BLOCK_PANELS, one thread_map item each,
    that group their own sources.  numpy releases the GIL on the kernel's
    tiles, and every value depends only on its target, node and frame, so
    the matrix is bitwise the same on any number of threads.
    """
    n = mesh.n_panels
    if n == 0:
        raise AssemblyError("empty mesh")
    centroids = mesh.centroids
    check_distinct_centroids(centroids)
    A = np.empty((n, n), order="F")

    def fill(start):
        stop = min(start + BLOCK_PANELS, n)
        _fill_block(mesh, centroids, np.arange(start, stop), epsilon_r, A[:, start:stop])

    thread_map(fill, range(0, n, BLOCK_PANELS))
    return A
