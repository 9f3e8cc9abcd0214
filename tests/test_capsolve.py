import gc
import importlib
import json
import math
import mmap
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import dblquad
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

from dqdcap.capsolve import (
    AssemblyError,
    DenseFactor,
    MaxwellMatrix,
    SolverError,
    assemble_system,
    potential_block,
    solve,
    solve_accelerated,
    solve_dense,
)
from dqdcap.capsolve import kernels, tree
from dqdcap.capsolve.solve import GMRES_RESTART, _AcceleratedOperator, _conductor_rhs, gmres
from dqdcap.capsolve.tree import (
    LEAF_SIZE,
    _cross_approximation,
    block_csr,
    build_far_operators,
    build_octree,
    by_source,
    interaction_lists,
)
from dqdcap.constants import AF, EPS0, NM
from dqdcap.geometry import (
    PanelMesh,
    concat_meshes,
    mesh_device,
    plate_pair_mesh,
    sphere_mesh,
    transform_dots,
)
from dqdcap.reference import build_reference_device

solve_module = importlib.import_module("dqdcap.capsolve.solve")


def rect_integral(corner, edge_u, edge_v, points):
    """Integral of 1/|x - x'| over one rectangle, for each field point x.

    The signed corner sum F(c0) - F(c1) + F(c2) - F(c3) of _corner_term.
    """
    a = np.linalg.norm(edge_u)
    b = np.linalg.norm(edge_v)
    uhat = edge_u / a
    vhat = edge_v / b
    what = np.cross(uhat, vhat)
    rel = points - corner
    xi = rel @ uhat
    eta = rel @ vhat
    zz = np.abs(rel @ what)

    total = 0.0
    for u, su in ((xi, 1.0), (xi - a, -1.0)):
        for v, sv in ((eta, 1.0), (eta - b, -1.0)):
            total = total + su * sv * kernels._corner_term(u, v, zz)
    return total


def quad_oracle(a, b, px, py, pz):
    """Adaptive-quadrature integral of 1/r over the rectangle [0,a]x[0,b].

    The domain is split at the projection of the field point so the singular
    corner lands on subdomain corners.
    """
    xs = sorted({0.0, min(max(px, 0.0), a), a})
    ys = sorted({0.0, min(max(py, 0.0), b), b})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            v, _ = dblquad(
                lambda y, x: 1.0 / math.sqrt((x - px) ** 2 + (y - py) ** 2 + pz ** 2),
                x0, x1, y0, y1, epsabs=1e-13, epsrel=1e-11)
            total += v
    return total


class TestKernel:
    def test_self_term_matches_quadrature(self):
        c = np.zeros(3)
        eu = np.array([1.0, 0.0, 0.0])
        ev = np.array([0.0, 1.0, 0.0])
        got = rect_integral(c, eu, ev, np.array([[0.5, 0.5, 0.0]]))[0]
        want = quad_oracle(1.0, 1.0, 0.5, 0.5, 0.0)
        assert abs(got - want) <= 1e-6 * want

    @pytest.mark.parametrize("point", [
        (0.3, 0.8, 0.4), (2.5, -0.7, 0.0), (0.0, -1.5, 0.0), (1.7, 2.3, -0.9),
    ])
    def test_general_points_match_quadrature(self, point):
        c = np.zeros(3)
        eu = np.array([1.0, 0.0, 0.0])
        ev = np.array([0.0, 1.0, 0.0])
        got = rect_integral(c, eu, ev, np.array([point], dtype=float))[0]
        want = quad_oracle(1.0, 1.0, *point)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_far_field_approaches_point_charge(self):
        mesh = sphere_mesh(1.0, 1)  # any rectangles; use one directly
        quad = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        mesh = PanelMesh(quad[None, :, :] * NM, np.zeros(1, dtype=np.int64), ["P"])
        target = np.array([[20.0, 13.0, 7.0]]) * NM
        got = potential_block(mesh, target, np.array([0]), 1.0)[0, 0]
        r = np.linalg.norm(target[0] - mesh.centroids[0])
        want = 1.0 / (4.0 * np.pi * EPS0 * r)
        assert abs(got - want) <= 0.01 * want

    def test_epsilon_scaling_halves_entries(self):
        mesh = sphere_mesh(5.0, 2)
        a1 = assemble_system(mesh, 1.0)
        a2 = assemble_system(mesh, 2.0)
        assert np.allclose(a2, 0.5 * a1, rtol=1e-14)

    def test_coincident_centroids_rejected(self):
        quad = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]) * NM
        corners = np.stack([quad, quad + np.array([0.0, 0.0, 0.0])])
        mesh = PanelMesh(corners, np.array([0, 1]), ["A", "B"])
        with pytest.raises(AssemblyError, match="coincident"):
            assemble_system(mesh, 1.0)

    def test_empty_mesh_rejected(self):
        mesh = PanelMesh(np.zeros((0, 4, 3)), np.zeros(0, dtype=np.int64), [])
        with pytest.raises(AssemblyError):
            assemble_system(mesh, 1.0)

    def test_jobs_bitwise_deterministic(self, monkeypatch):
        """Bitwise equal for any column chunk size."""
        mesh = mesh_device(build_reference_device(), 16.0)
        a1 = assemble_system(mesh, 6.0)
        monkeypatch.setattr(kernels, "BLOCK_PANELS", 100)
        assert np.array_equal(a1, assemble_system(mesh, 6.0))


def mp_panel_integral(mpmath, corner, far_corner, point):
    """Integral of 1/r over an axis-aligned panel in a z plane, in 50-digit arithmetic.

    The signed corner sum of the same antiderivative as _corner_term, on the
    exact float inputs, so only the float evaluation's rounding is measured.
    """
    def f(u, v):
        r = mpmath.sqrt(u * u + v * v + z * z)
        return u * mpmath.log(v + r) + v * mpmath.log(u + r) - z * mpmath.atan2(u * v, z * r)

    with mpmath.workdps(50):
        x, y, z = (mpmath.mpf(float(p)) - mpmath.mpf(float(c)) for p, c in zip(point, corner))
        a, b = (mpmath.mpf(float(e)) - mpmath.mpf(float(c))
                for e, c in zip(far_corner[:2], corner[:2]))
        z = abs(z)
        return f(x, y) - f(x - a, y) - f(x, y - b) + f(x - a, y - b)


# worst relative error of potential_block over 100 directions, by distance over
# panel side: about 40 (R/a)^2 eps, the cancellation of the four-corner sum
KERNEL_ERROR_AT_DISTANCE = {10: 8.9e-13, 30: 6.9e-12, 100: 9.0e-11, 300: 5.4e-10, 1000: 6.5e-9}
KERNEL_ERROR_MARGIN = 3.0


def test_kernel_error_at_distance_against_mpmath():
    """The kernel's relative error at R/a = 10 ... 1000 stays on today's curve, within a 3x margin."""
    mpmath = pytest.importorskip("mpmath")
    a = 5.0 * NM
    corner = np.array([40.0, -25.0, 12.0]) * NM
    quad = corner + np.array([[0.0, 0.0, 0.0], [a, 0.0, 0.0], [a, a, 0.0], [0.0, a, 0.0]])
    mesh = PanelMesh(quad[None], np.zeros(1, dtype=np.int64), ["P"])
    scale = 1.0 / (4.0 * np.pi * EPS0 * mesh.areas[0])
    k = np.arange(100) + 0.5  # a Fibonacci sphere of directions
    polar, azimuth = np.arccos(1.0 - k / 50.0), np.pi * (1.0 + 5.0 ** 0.5) * k
    directions = np.stack([np.cos(azimuth) * np.sin(polar), np.sin(azimuth) * np.sin(polar),
                           np.cos(polar)], axis=1)
    for ratio, measured in KERNEL_ERROR_AT_DISTANCE.items():
        points = mesh.centroids[0] + ratio * a * directions
        want = np.array([float(mp_panel_integral(mpmath, quad[0], quad[2], p)) for p in points])
        got = potential_block(mesh, points, np.array([0]), 1.0)[:, 0]
        assert np.abs(got / (want * scale) - 1.0).max() <= KERNEL_ERROR_MARGIN * measured, ratio


def loop_potential_block(mesh, target_points, source_idx, epsilon_r):
    """Reference for potential_block: one rect_integral per source panel."""
    pref = 1.0 / (4.0 * np.pi * EPS0 * epsilon_r)
    areas = mesh.areas
    block = np.empty((len(target_points), len(source_idx)))
    for col, j in enumerate(source_idx):
        quad = mesh.corners[j]
        block[:, col] = rect_integral(
            quad[0], quad[1] - quad[0], quad[3] - quad[0], target_points
        ) * (pref / areas[j])
    return block


class TestSharedNodeKernel:
    """potential_block against the per-panel rect_integral loop it replaces."""

    @pytest.mark.parametrize("mesh", [
        mesh_device(build_reference_device(), 16.0),
        sphere_mesh(10.0, 8),
        plate_pair_mesh(100.0, 5.0, 5.0),
    ], ids=["reference_h16", "sphere", "plates"])
    def test_matches_per_panel_loop(self, mesh):
        idx = np.arange(mesh.n_panels)
        got = potential_block(mesh, mesh.centroids, idx, 6.0)
        want = loop_potential_block(mesh, mesh.centroids, idx, 6.0)
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))
        assert np.array_equal(assemble_system(mesh, 6.0), got)

    def test_arbitrary_source_subset_and_targets(self):
        mesh = mesh_device(build_reference_device(), 16.0)
        rng = np.random.default_rng(3)
        idx = rng.permutation(mesh.n_panels)[:300]
        targets = mesh.centroids[rng.permutation(mesh.n_panels)[:200]] + 1e-9
        got = potential_block(mesh, targets, idx, 6.0)
        want = loop_potential_block(mesh, targets, idx, 6.0)
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))

    def test_columns_do_not_depend_on_the_blocking(self):
        mesh = mesh_device(build_reference_device(), 16.0)
        rng = np.random.default_rng(6)
        idx = rng.permutation(mesh.n_panels)[:600]  # three blocks of BLOCK_PANELS
        targets = mesh.centroids[rng.permutation(mesh.n_panels)[:150]]
        want = potential_block(mesh, targets, idx, 6.0)
        parts = np.split(idx, [100, 130, 431])
        got = np.hstack([potential_block(mesh, targets, part, 6.0) for part in parts])
        assert np.array_equal(got, want)
        assert np.array_equal(potential_block(mesh, targets[7:8], idx, 6.0), want[7:8])

    def test_unique_rows_matches_np_unique(self):
        """Rows are grouped on their exact bits, as np.unique(bits, axis=0) groups them."""
        rng = np.random.default_rng(8)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.25, -2.5e-9, 5e-324])
        for m, k in ((1, 3), (2, 6), (50, 3), (400, 6), (1024, 3)):
            rows = values[rng.integers(len(values), size=(m, k))]
            _, first, inverse = np.unique(rows.view(np.int64), axis=0,
                                          return_index=True, return_inverse=True)
            got_first, got_inverse = kernels._unique_rows(rows)
            assert np.array_equal(got_first, first)
            assert np.array_equal(got_inverse, inverse.reshape(-1))
        signed = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        first, inverse = kernels._unique_rows(signed)
        assert len(first) == 2 and inverse[0] == inverse[2] != inverse[1]

    def test_maxwell_matches_loop_assembled_solve(self, monkeypatch):
        spec = build_reference_device()
        mesh = mesh_device(spec, 16.0)
        got = solve_dense(mesh, 6.0, roles=spec.roles)

        def loop_assemble(mesh, epsilon_r):
            c = mesh.centroids
            return loop_potential_block(mesh, c, np.arange(mesh.n_panels), epsilon_r)

        monkeypatch.setattr(solve_module, "assemble_system", loop_assemble)
        want = solve_dense(mesh, 6.0, roles=spec.roles)
        assert np.all(np.abs(got.entries - want.entries) <= 1e-9 * np.abs(want.entries))


FAR_FIELD_MESHES = {
    "reference_h16": (lambda: mesh_device(build_reference_device(), 16.0), 6.0),
    "sphere": (lambda: sphere_mesh(10.0, 16), 1.0),
    "plates": (lambda: plate_pair_mesh(100.0, 5.0, 3.0), 1.0),
}


@pytest.fixture(scope="module", params=sorted(FAR_FIELD_MESHES))
def operator_and_dense(request):
    make_mesh, eps = FAR_FIELD_MESHES[request.param]
    mesh = make_mesh()
    op = _AcceleratedOperator(mesh, eps)
    return op, assemble_system(mesh, eps)


class TestCrossApproximationFarField:
    """The accelerated operator against the dense collocation matrix it approximates."""

    def test_matvec_matches_dense(self, operator_and_dense):
        op, dense = operator_and_dense
        rng = np.random.default_rng(11)
        for _ in range(3):
            q = rng.standard_normal(op.n)
            want = dense @ q
            assert np.linalg.norm(op.matvec(q) - want) <= 1e-4 * np.linalg.norm(want)

    def test_far_entries_match_dense(self, operator_and_dense):
        op, dense = operator_and_dense
        near, far_u = leaf_factors(op)
        far = (far_u @ op.mom_m).toarray()
        far_only = near.toarray() == 0
        assert far_only.any()
        # near and far cover every (target, source) pair exactly once
        assert np.array_equal(far != 0, far_only)
        rel = np.abs(far[far_only] - dense[far_only]) / np.abs(dense[far_only])
        assert rel.max() <= 5e-3

    def test_far_operators_rebuild_on_one_tree(self):
        mesh = mesh_device(build_reference_device(), 16.0)
        root, leaves = build_octree(mesh, 32)
        far_lists, _ = interaction_lists(root, leaves, 0.5)
        f1, m1 = build_far_operators(mesh, leaves, far_lists, 6.0)
        f2, m2 = build_far_operators(mesh, leaves, far_lists, 6.0)
        assert m1.shape[0] > 0 and f1.nnz > 0 and f1.nnz == f2.nnz
        assert m1.shape == m2.shape and (m1 != m2).nnz == 0
        assert len(f1.sources) == len(f2.sources)
        for (n1, t1, r1, u1), (n2, t2, r2, u2) in zip(f1.sources, f2.sources):
            assert n1 is n2 and [id(t) for t in t1] == [id(t) for t in t2]
            assert np.array_equal(r1, r2) and np.array_equal(u1, u2)
            assert u1.shape == (len(r1), sum(len(t.panels) for t in t1))

    def test_low_rank_block_is_reproduced(self):
        rng = np.random.default_rng(5)
        block = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
        U, V = _cross_approximation(lambda i: block[i], lambda j: block[:, j], 40, 30)
        assert len(U) <= 3 + 2
        assert np.abs(U.T @ V - block).max() <= 1e-12 * np.abs(block).max()


def norm_rule_lists(root, leaves, mac_ratio):
    """interaction_lists with the distance taken by np.linalg.norm."""
    far_lists, near_lists = [], []
    for leaf in leaves:
        far, near = [], []
        stack = [root]
        while stack:
            node = stack.pop()
            d = float(np.linalg.norm(node.center - leaf.center))
            if node.radius + leaf.radius < mac_ratio * d:
                far.append(node)
            elif node.is_leaf:
                near.append(node)
            else:
                stack.extend(reversed(node.children))
        far_lists.append(far)
        near_lists.append(near)
    return far_lists, near_lists


@pytest.mark.parametrize("make_mesh", [
    lambda: mesh_device(build_reference_device(), 16.0),
    lambda: plate_pair_mesh(100.0, 5.0, 3.0),
    lambda: sphere_mesh(10.0, 16),
], ids=["reference_h16", "plates", "sphere"])
def test_interaction_lists_match_norm_rule(make_mesh):
    root, leaves = build_octree(make_mesh(), 32)
    for mac in (0.3, 0.5, 0.8):
        got = interaction_lists(root, leaves, mac)
        want = norm_rule_lists(root, leaves, mac)
        for got_lists, want_lists in zip(got, want):
            assert [[id(x) for x in lst] for lst in got_lists] == \
                [[id(x) for x in lst] for lst in want_lists]


def slot_inversion(leaves, lists):
    """Reference for by_source: a slot per source node keyed by id, in first-use order."""
    slots = {}
    active, targets = [], []
    for leaf, nodes in zip(leaves, lists):
        for node in nodes:
            slot = slots.setdefault(id(node), len(active))
            if slot == len(active):
                active.append(node)
                targets.append([])
            targets[slot].append(leaf.panels)
    return list(zip(active, targets))


def keyed_inversion(leaves, lists):
    """Reference for by_source: a dict of (node, target chunks) keyed by id."""
    targets_by_leaf = {}
    for leaf, nodes in zip(leaves, lists):
        for s in nodes:
            targets_by_leaf.setdefault(id(s), (s, []))[1].append(leaf.panels)
    return list(targets_by_leaf.values())


def stack_rows(blocks, n):
    """Reference for block_csr: the rows of each (index, W) block, W's columns placed at index."""
    ptr = np.cumsum([0] + [len(index) for index, w in blocks for _ in range(len(w))])
    vals = np.concatenate([w.ravel() for _, w in blocks])
    cols = np.concatenate([np.tile(index, len(w)) for index, w in blocks])
    return sparse.csr_matrix((vals, cols, ptr), shape=(len(ptr) - 1, n))


def coo_operator(mesh, leaves, near_lists, eps):
    """Reference near and precond from COO triplets, the self blocks sliced out of near."""
    n = mesh.n_panels
    rows, cols, vals = [], [], []
    for s, chunks in keyed_inversion(leaves, near_lists):
        tidx = np.concatenate(chunks)
        block = potential_block(mesh, mesh.centroids[tidx], s.panels, eps)
        rows.append(np.repeat(tidx[:, None], len(s.panels), axis=1).ravel())
        cols.append(np.repeat(s.panels[None, :], len(tidx), axis=0).ravel())
        vals.append(block.ravel())
    near = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    rows, cols, vals = [], [], []
    for leaf in leaves:
        idx = leaf.panels
        inv = np.linalg.inv(near[idx][:, idx].toarray())
        rows.append(np.repeat(idx[:, None], len(idx), axis=1).ravel())
        cols.append(np.repeat(idx[None, :], len(idx), axis=0).ravel())
        vals.append(inv.ravel())
    precond = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return near, precond


def recorded_operator(mesh, eps):
    """The accelerated operator, with copies of its far sources and its M blocks as built.

    The operator drops each U once it is copied into the leaf blocks, so
    build_far_operators is wrapped to copy them first; M's (ranks, panels, V)
    blocks are recorded at its block_csr call, and the float64 U of each
    cross approximation, in source order, as it returns.
    """
    sources, m_calls, aca_u = [], [], []

    def recording_far(*args):
        far, mom = build_far_operators(*args)
        sources.extend((node, targets, ranks, u.copy()) for node, targets, ranks, u in far.sources)
        assert far.nnz == sum(u.size for *_, u in sources)
        return far, mom

    def recording_block_csr(blocks, shape):
        m_calls.append(blocks)
        return block_csr(blocks, shape)

    def recording_aca(*args):
        U, V = _cross_approximation(*args)
        aca_u.append(U.copy())
        return U, V

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve_module, "build_far_operators", recording_far)
        mp.setattr(tree, "block_csr", recording_block_csr)
        mp.setattr(tree, "_cross_approximation", recording_aca)
        op = _AcceleratedOperator(mesh, eps)
    ranks = np.concatenate([np.arange(0)] + [r for _, _, r, _ in sources])
    assert np.array_equal(ranks, np.arange(op.mom_m.shape[0]))
    assert len(aca_u) == len(sources)
    (m_blocks,) = m_calls
    return op, sources, m_blocks, aca_u


def target_panels(targets):
    return np.concatenate([t.panels for t in targets])


def leaf_factors(op):
    """The near field (n x n) and the far U side (n x k) placed from the operator's leaf blocks.

    The far side holds the float32 U values exactly, as float64.
    """
    n, k = op.n, op.mom_m.shape[0]
    near, far = [], []
    for rows, cols, f, b in op.blocks:
        assert np.all(cols[:f.shape[1]] >= n) and np.all(cols[f.shape[1]:] < n)
        near.append((rows, cols[f.shape[1]:], b))
        far.append((rows, cols[:f.shape[1]] - n, f))
    return block_csr(near, (n, n)), block_csr(far, (n, k))


def leaf_blocks(op):
    """Per leaf (rows, cols_L, B_L), B_L the far and near blocks side by side in float64."""
    return [(rows, cols, np.hstack([f, b])) for rows, cols, f, b in op.blocks]


@pytest.fixture(scope="module", params=sorted(FAR_FIELD_MESHES))
def operator_and_reference(request):
    """The accelerated operator and its sparse factors built from triplets and conversions.

    E and M of the reference come from the same cross approximations,
    recorded while the operator is built; E holds their U rounded to float32.
    """
    make_mesh, eps = FAR_FIELD_MESHES[request.param]
    mesh = make_mesh()
    op, sources, m_blocks, _ = recorded_operator(mesh, eps)
    root, leaves = build_octree(mesh, LEAF_SIZE)
    near_lists = interaction_lists(root, leaves, tree.MAC_RATIO)[1]
    near, precond = coo_operator(mesh, leaves, near_lists, eps)
    e_rows = [(target_panels(targets), u) for _, targets, _, u in sources]
    assert all(u.dtype == np.float32 for _, u in e_rows)
    ref = {
        "near": near, "precond": precond,
        "eval_m": stack_rows(e_rows, mesh.n_panels).T.tocsr(),
        "mom_m": stack_rows([(c, w) for _, c, w in m_blocks], mesh.n_panels),
    }
    return op, ref


class TestBlockCsrOperator:
    """The operator's factors, filled from dense blocks, against the COO-built ones.

    near and eval_m (E) are the near and far columns of the leaf blocks.
    """

    @pytest.mark.parametrize("name", ["near", "precond", "eval_m", "mom_m"])
    def test_factors_equal_reference(self, operator_and_reference, name):
        op, ref = operator_and_reference
        near, far_u = leaf_factors(op)
        got = {"near": near, "eval_m": far_u}.get(name)
        got, want = getattr(op, name) if got is None else got, ref[name]
        assert got.shape == want.shape and got.nnz == want.nnz
        assert (got != want).nnz == 0

    def test_products_bitwise_equal_reference(self, operator_and_reference):
        """precond and M products are the reference's; the operator is a far and a near
        product per leaf over the reference entries, the far one in float64.

        The reference blocks are column-major like the operator's, since the
        BLAS product rounds differently on the other layout."""
        op, ref = operator_and_reference
        a = sparse.hstack([ref["near"], ref["eval_m"]]).tocsr()
        ref_blocks = [(rows, cols, f.shape[1], a[rows][:, cols].toarray(order="F"))
                      for rows, cols, f, _ in op.blocks]
        rng = np.random.default_rng(3)
        for q in (rng.standard_normal(op.n), rng.standard_normal((op.n, 9))):
            assert np.array_equal(op.precond @ q, ref["precond"] @ q)
            assert np.array_equal(op.mom_m @ q, ref["mom_m"] @ q)
            xw = np.concatenate([q, ref["mom_m"] @ q])
            want = np.empty(q.shape)
            for rows, cols, k, b in ref_blocks:
                far, near, g = np.asfortranarray(b[:, :k]), np.asfortranarray(b[:, k:]), xw[cols]
                want[rows] = far @ g[:k] + near @ g[k:]
            assert np.array_equal(op.matvec(q), want)

    def test_block_csr_keeps_each_rows_column_order(self):
        rng = np.random.default_rng(8)
        n_rows, n_cols = 50, 40
        free = rng.permutation(n_rows)
        blocks = []
        for size in (7, 1, 12, 5):
            rows, free = free[:size], free[size:]
            cols = rng.choice(n_cols, size=rng.integers(1, 10), replace=False)  # unsorted
            blocks.append((rows, cols, rng.standard_normal((size, len(cols)))))
        got = block_csr(blocks, (n_rows, n_cols))
        want = sparse.coo_matrix(
            (np.concatenate([w.ravel() for _, _, w in blocks]),
             (np.concatenate([np.repeat(r, len(c)) for r, c, _ in blocks]),
              np.concatenate([np.tile(c, len(r)) for r, c, _ in blocks]))),
            shape=(n_rows, n_cols)).tocsr()
        assert got.shape == want.shape and (got != want).nnz == 0
        for rows, cols, w in blocks:
            for a, r in enumerate(rows):
                span = slice(got.indptr[r], got.indptr[r + 1])
                assert np.array_equal(got.indices[span], cols)
                assert np.array_equal(got.data[span], w[a])
        assert block_csr([], (6, 4)).shape == (6, 4) and block_csr([], (0, 4)).T.shape == (4, 0)

    @pytest.mark.parametrize("make_mesh", [
        lambda: mesh_device(build_reference_device(), 16.0),
        lambda: plate_pair_mesh(100.0, 5.0, 3.0),
    ], ids=["reference_h16", "plates"])
    def test_by_source_matches_reference_inversions(self, make_mesh):
        root, leaves = build_octree(make_mesh(), 32)
        for lists in interaction_lists(root, leaves, 0.5):
            got = by_source(leaves, lists)
            for want in (slot_inversion(leaves, lists), keyed_inversion(leaves, lists)):
                assert [id(node) for node, _ in got] == [id(node) for node, _ in want]
                for (_, targets), (_, chunks) in zip(got, want):
                    assert [id(t.panels) for t in targets] == [id(c) for c in chunks]


def csr_operator(mesh, leaves, near_lists, sources, eps):
    """Reference near and E as before the leaf blocks: CSC views of block_csr transposes.

    Each source leaf's exact block and each far node's U fill the rows of
    the transpose, one row per source panel or rank.
    """
    n = mesh.n_panels
    near_t = []
    for s, targets in by_source(leaves, near_lists):
        tidx = target_panels(targets)
        near_t.append((s.panels, tidx, potential_block(mesh, mesh.centroids[tidx], s.panels, eps).T))
    e_t = [(ranks, target_panels(targets), u) for _, targets, ranks, u in sources]
    k = sum(len(ranks) for ranks, _, _ in e_t)
    return block_csr(near_t, (n, n)).T, block_csr(e_t, (k, n)).T


LEAF_BLOCK_MESHES = {
    **{name: (make_mesh, eps, 0.5) for name, (make_mesh, eps) in FAR_FIELD_MESHES.items()},
    "tiny_mac": (lambda: sphere_mesh(10.0, 6), 1.0, 1e-9),  # no far nodes
}


@pytest.fixture(scope="module", params=sorted(LEAF_BLOCK_MESHES))
def operator_and_csr(request):
    make_mesh, eps, mac = LEAF_BLOCK_MESHES[request.param]
    mesh = make_mesh()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree, "MAC_RATIO", mac)
        op, sources, _, aca_u = recorded_operator(mesh, eps)
    root, leaves = build_octree(mesh, LEAF_SIZE)
    near_lists = interaction_lists(root, leaves, mac)[1]
    near, e = csr_operator(mesh, leaves, near_lists, sources, eps)
    e64 = block_csr([(ranks, target_panels(targets), u64)
                     for (_, targets, ranks, _), u64 in zip(sources, aca_u)],
                    (op.mom_m.shape[0], mesh.n_panels)).T
    return request.param, op, near, e, e64, sources, aca_u


class TestLeafBlockOperator:
    """The leaf-block operator against the CSR near and E construction it replaces."""

    def test_blocks_hold_the_reference_entries(self, operator_and_csr):
        """Every entry is bitwise the reference entry at its position, with no fill:
        the near entries unchanged, the far ones float32(U) of the cross approximations."""
        name, op, near, e, *_ = operator_and_csr
        k = op.mom_m.shape[0]
        assert (k == 0) == (name == "tiny_mac")
        got = block_csr(leaf_blocks(op), (op.n, op.n + k))
        want = sparse.hstack([near, e]).tocsr()
        assert got.nnz == want.nnz == sum(f.size + b.size for _, _, f, b in op.blocks)
        assert (got != want).nnz == 0

    def test_far_entries_are_float32_of_the_cross_approximations(self, operator_and_csr):
        """The far blocks are float32 views of one arena that holds exactly FarField.nnz values."""
        _, op, _, _, _, sources, aca_u = operator_and_csr
        for (_, _, _, u), u64 in zip(sources, aca_u):
            assert u.dtype == np.float32 and u.shape == u64.shape
            assert np.array_equal(u, u64.astype(np.float32))
        nnz = sum(u.size for *_, u in sources)
        arenas = {id(f.base) for _, _, f, _ in op.blocks}
        arena = op.blocks[0][2].base
        assert len(arenas) == 1 and arena.dtype == np.float32 and arena.size == nnz
        assert all(b.dtype == np.float64 for *_, b in op.blocks)

    def test_matvec_matches_reference(self, operator_and_csr):
        _, op, near, e, *_ = operator_and_csr
        rng = np.random.default_rng(12)
        for q in (rng.standard_normal(op.n), rng.standard_normal((op.n, 9))):
            want = near @ q + e @ (op.mom_m @ q)
            err = np.linalg.norm(op.matvec(q) - want, axis=0)
            assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=0))

    def test_matvec_within_float32_rounding_of_float64_u(self, operator_and_csr):
        """Against the float64 U, each potential moves by at most the rounding of the
        far values it uses, 2**-24 |E| |M q|, plus float64 rounding."""
        _, op, near, _, e64, *_ = operator_and_csr
        rng = np.random.default_rng(13)
        for q in (rng.standard_normal(op.n), rng.standard_normal((op.n, 9))):
            mq = op.mom_m @ q
            want = near @ q + e64 @ mq
            bound = 2.0 ** -24 * (abs(e64) @ np.abs(mq)) + 1e-13 * np.linalg.norm(want, axis=0)
            assert np.all(np.abs(op.matvec(q) - want) <= bound)

    def test_far_slabs_unmapped_once_placed(self):
        """Each far-field slab is unmapped before the near field is placed; blocks are column-major."""
        mesh = mesh_device(build_reference_device(), 16.0)
        slabs, live_at_near = [], []
        mapped_zeros, block = tree.mapped_zeros, solve_module.potential_block

        def recording_slab(*args):
            slab = mapped_zeros(*args)
            assert isinstance(slab.base.obj, mmap.mmap)
            slabs.append(weakref.ref(slab.base.obj))
            return slab

        def recording_block(*args, **kwargs):
            live_at_near.append(sum(ref() is not None for ref in slabs))
            return block(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree, "mapped_zeros", recording_slab)
            mp.setattr(solve_module, "potential_block", recording_block)
            op = _AcceleratedOperator(mesh, 6.0)
        assert slabs and live_at_near and set(live_at_near) == {0}
        assert all(f.flags.f_contiguous and b.flags.f_contiguous for _, _, f, b in op.blocks)


def scipy_columns(op, B, tol, restart, cycles):
    """scipy.sparse.linalg.gmres on each column of B."""
    a = LinearOperator((op.n, op.n), matvec=op.matvec)
    m = LinearOperator((op.n, op.n), matvec=lambda x: op.precond @ x)
    xs = []
    for k in range(B.shape[1]):
        x, info = scipy_gmres(a, B[:, k], rtol=tol, atol=0.0, restart=restart,
                              maxiter=cycles, M=m)
        assert info == 0
        xs.append(x)
    return np.stack(xs, axis=1)


def block_gmres(op, B, tol, restart, cycles):
    return gmres(op.matvec, lambda q: op.precond @ q, B, tol, restart, cycles)


def true_residuals(op, B, X):
    return np.linalg.norm(B - op.matvec(X), axis=0) / np.linalg.norm(B, axis=0)


def op_and_rhs(mesh, eps):
    """(operator, conductor right-hand sides, charge aggregation) of a mesh."""
    op = _AcceleratedOperator(mesh, eps)
    return op, *_conductor_rhs(mesh)


@pytest.fixture(scope="module")
def reference_operator():
    return op_and_rhs(mesh_device(build_reference_device(), 16.0), 6.0)


@pytest.fixture(scope="module")
def sphere_operator():
    """The sphere's one conductor plus two random right-hand sides."""
    op, B, agg = op_and_rhs(sphere_mesh(10.0, 16), 1.0)
    return op, np.hstack([B, np.random.default_rng(2).standard_normal((op.n, 2))]), agg


class TestBlockGmres:
    """Block GMRES: one Krylov space for all right-hand sides."""

    @pytest.mark.parametrize("case", ["reference_operator", "sphere_operator"])
    def test_columns_match_scipy(self, case, request):
        """Residuals meet tol; charges match scipy's column-by-column gmres to 1e-7 of the diagonal.

        Both solutions carry errors of order tol, so they are compared at the
        Krylov tolerance's scale, not bitwise and not by iteration counts.
        """
        op, B, agg = request.getfixturevalue(case)
        tol = 1e-6
        X, iters, res = block_gmres(op, B, tol, GMRES_RESTART, 9)
        assert np.all(res <= tol) and np.all(true_residuals(op, B, X) <= tol)
        assert np.all(iters > 0) and iters.max() < GMRES_RESTART
        want = scipy_columns(op, B, tol, GMRES_RESTART, 9)
        q, q_want = agg @ X, agg @ want
        scale = np.abs(np.diag(q_want)).max()
        assert np.abs(q - q_want).max() <= 1e-7 * scale

    def test_restarts_meet_tol(self, reference_operator):
        """A tight tolerance with short cycles: the columns restart and still converge."""
        op, B, _ = reference_operator
        tol, restart = 1e-8, 12
        X, iters, res = block_gmres(op, B, tol, restart, 20)
        assert iters.max() > restart  # at least two cycles
        assert np.all(res <= tol) and np.all(true_residuals(op, B, X) <= tol)

    def test_column_order_does_not_matter(self, reference_operator):
        """Permuting B's columns permutes X to rounding and the step counts exactly."""
        op, B, _ = reference_operator
        rng = np.random.default_rng(4)
        B = np.hstack([B, rng.standard_normal((op.n, 3))])
        X, iters, _ = block_gmres(op, B, 1e-6, GMRES_RESTART, 9)
        perm = rng.permutation(B.shape[1])
        Xp, iters_p, res_p = block_gmres(op, B[:, perm], 1e-6, GMRES_RESTART, 9)
        err = np.linalg.norm(Xp - X[:, perm], axis=0) / np.linalg.norm(X[:, perm], axis=0)
        assert err.max() <= 1e-12
        assert np.array_equal(iters_p, iters[perm])
        assert np.all(res_p <= 1e-6)

    def test_zero_column(self, reference_operator):
        op, B, _ = reference_operator
        B = np.hstack([B[:, :2], np.zeros((op.n, 1))])
        X, iters, res = block_gmres(op, B, 1e-6, GMRES_RESTART, 9)
        assert iters[-1] == 0 and res[-1] == 0 and not X[:, -1].any()
        assert np.all(res[:2] <= 1e-6)
        X, iters, res = block_gmres(op, np.zeros((op.n, 2)), 1e-6, GMRES_RESTART, 9)
        assert not X.any() and not iters.any() and not res.any()

    def test_cycle_cap_reports_residual(self, reference_operator, monkeypatch):
        op, B, _ = reference_operator
        X, iters, res = block_gmres(op, B[:, :2], 1e-12, 5, 2)
        assert np.all(iters == 10)
        np.testing.assert_allclose(res, true_residuals(op, B[:, :2], X), rtol=1e-10)
        assert np.all(res > 1e-12)
        # two cycles of min(5, n // 9) block steps on the nine conductors
        monkeypatch.setattr(solve_module, "GMRES_RESTART", 5)
        monkeypatch.setattr(solve_module, "GMRES_ITER_CAP", 10)
        monkeypatch.setattr(solve_module, "KRYLOV_TOL", 1e-12)
        with pytest.raises(SolverError, match=r"within 10 iterations \(relative residual \d"):
            solve_accelerated(mesh_device(build_reference_device(), 16.0), 6.0)


def without_dots(spec):
    dots = {spec.group_of_role("d1"), spec.group_of_role("d2")}
    return replace(spec, boxes=tuple(b for b in spec.boxes if b.group not in dots))


@pytest.fixture(scope="module")
def static_h16():
    """The reference device and its static block factored at h = 16."""
    spec = build_reference_device()
    return spec, DenseFactor(mesh_device(without_dots(spec), 16.0), spec.epsilon_r)


class TestDenseFactor:
    """Block elimination of the moving (dot) panels against a factored static block."""

    def test_dots_declared_first(self):
        spec = build_reference_device()
        dots = {spec.group_of_role("d1"), spec.group_of_role("d2")}
        spec = replace(spec, boxes=tuple(sorted(spec.boxes, key=lambda b: b.group not in dots)))
        assert spec.boxes[0].group in dots and spec.boxes[1].group in dots
        factor = DenseFactor(mesh_device(without_dots(spec), 16.0), spec.epsilon_r)
        moved = transform_dots(spec, -30.0, 20.0, 30.0)
        mesh = mesh_device(moved, 16.0)
        got = factor.maxwell(mesh, roles=moved.roles)
        want = solve_dense(mesh, spec.epsilon_r, roles=moved.roles)
        assert got.conductor_names == want.conductor_names
        assert np.abs(got.entries - want.entries).max() <= 1e-9 * np.abs(want.entries).min()

    def test_changed_static_panels_are_rejected(self, static_h16):
        spec, factor = static_h16
        lifted = spec.with_air_gap(1.0)  # moves every surface box up by 1 nm
        with pytest.raises(SolverError, match="static panels"):
            factor.maxwell(mesh_device(lifted, 16.0))
        with pytest.raises(SolverError, match="static panels"):
            factor.maxwell(mesh_device(spec, 12.0))
        no_island = replace(spec, boxes=tuple(b for b in spec.boxes if b.role != "i1"))
        with pytest.raises(SolverError, match="lacks the static conductors"):
            factor.maxwell(mesh_device(no_island, 16.0))

    def test_concurrent_solves_equal_serial_bitwise(self, static_h16):
        """One shared factor on 4 threads: each LU solve needs its own pivot vector."""
        spec, factor = static_h16
        cells = [transform_dots(spec, dx, dy, 40.0)
                 for dx in (-60.0, -30.0, 0.0, 30.0, 60.0, 90.0) for dy in (-40.0, 0.0, 40.0)]
        meshes = [(mesh_device(moved, 16.0), moved.roles) for moved in cells]
        serial = [factor.maxwell(mesh, roles).entries for mesh, roles in meshes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as ex:
                futures = [ex.submit(factor.maxwell, mesh, roles) for mesh, roles in meshes]
                threaded = [f.result(timeout=120).entries for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == 18
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


class TestSolveDense:
    def test_sphere_within_2pct(self):
        mesh = sphere_mesh(10.0, 16)
        m = solve_dense(mesh, 1.0)
        exact = 4.0 * np.pi * EPS0 * 10.0 * NM  # 1.1127 aF
        assert abs(exact / AF - 1.1127) < 1e-3
        assert abs(m.entries[0, 0] - exact) <= 0.02 * exact

    def test_two_sphere_mutual_within_10pct(self):
        mesh = concat_meshes([
            sphere_mesh(5.0, 8, name="S1"),
            sphere_mesh(5.0, 8, center_nm=(100.0, 0.0, 0.0), name="S2"),
        ])
        m = solve_dense(mesh, 1.0)
        expect = 4.0 * np.pi * EPS0 * (5.0 * NM) ** 2 / (100.0 * NM)
        assert abs(expect / AF - 0.0278) < 2e-4
        assert abs(-m.entries[0, 1] - expect) <= 0.10 * expect

    def test_parallel_plate_lower_bound(self):
        mesh = plate_pair_mesh(100.0, 5.0, 5.0)
        m = solve_dense(mesh, 1.0)
        lower = EPS0 * (100.0 * NM) ** 2 / (5.0 * NM)
        assert -m.entries[0, 1] >= lower

    def test_permittivity_scales_entries_linearly(self):
        mesh = sphere_mesh(8.0, 4)
        m1 = solve_dense(mesh, 1.0)
        m2 = solve_dense(mesh, 6.0)
        assert np.allclose(m2.entries, 6.0 * m1.entries, rtol=1e-10)

    def test_refinement_convergence(self):
        exact = 4.0 * np.pi * EPS0 * 10.0 * NM
        errs = [abs(solve_dense(sphere_mesh(10.0, k), 1.0).entries[0, 0] - exact)
                for k in (4, 8, 16)]
        assert errs[0] > errs[1] > errs[2]

    def test_maxwell_invariants_on_reference(self):
        spec = build_reference_device()
        mesh = mesh_device(spec, 12.0)
        m = solve_dense(mesh, 6.0, roles=spec.roles)
        diag = np.diag(m.entries)
        tol = 1e-3 * diag.max()
        assert np.all(diag > 0)
        off = m.entries - np.diag(diag)
        assert off.max() <= tol
        assert m.entries.sum(axis=1).min() >= -tol
        assert np.array_equal(m.entries, m.entries.T)
        assert m.asymmetry <= 0.02

    def test_panel_guard(self):
        mesh = sphere_mesh(10.0, 60)  # 21600 panels
        with pytest.raises(SolverError, match="guard"):
            solve_dense(mesh, 1.0)

    def test_mode_dispatch(self):
        mesh = sphere_mesh(5.0, 2)
        with pytest.raises(ValueError, match="unknown solve mode 'direct'"):
            solve(mesh, "direct", 1.0)
        assert solve(mesh, "dense", 1.0).solver["mode"] == "dense"
        assert solve(mesh, "accelerated", 1.0).solver["mode"] == "accelerated"


class TestSolveAccelerated:
    def test_tiny_mac_reproduces_dense_to_machine_precision(self, monkeypatch):
        mesh = sphere_mesh(10.0, 6)
        md = solve_dense(mesh, 1.0)
        monkeypatch.setattr(tree, "MAC_RATIO", 1e-9)
        monkeypatch.setattr(solve_module, "KRYLOV_TOL", 1e-13)
        ma = solve_accelerated(mesh, 1.0)
        assert abs(ma.entries[0, 0] - md.entries[0, 0]) <= 1e-10 * md.entries[0, 0]

    def test_sphere_within_2pct(self):
        mesh = sphere_mesh(10.0, 16)
        m = solve_accelerated(mesh, 1.0)
        exact = 4.0 * np.pi * EPS0 * 10.0 * NM
        assert abs(m.entries[0, 0] - exact) <= 0.02 * exact

    def test_reference_device_entries_within_1pct_of_dense(self):
        spec = build_reference_device()
        mesh = mesh_device(spec, 12.0)
        md = solve_dense(mesh, 6.0, roles=spec.roles)
        ma = solve_accelerated(mesh, 6.0, roles=spec.roles)
        rel = np.abs(ma.entries - md.entries) / np.abs(md.entries)
        assert rel.max() <= 0.01

    def test_solve_leaves_no_cycle_holding_the_mesh(self):
        """With the cyclic GC off, the mesh is freed as soon as its last reference goes."""
        mesh = mesh_device(build_reference_device(), 16.0)
        ref = weakref.ref(mesh)
        enabled = gc.isenabled()
        gc.disable()
        try:
            solve_accelerated(mesh, 6.0)
            del mesh
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_bitwise_deterministic(self):
        """Two runs on one input give bitwise-equal entries."""
        spec = build_reference_device()
        mesh = mesh_device(spec, 16.0)
        m1 = solve_accelerated(mesh, 6.0)
        m2 = solve_accelerated(mesh, 6.0)
        assert np.array_equal(m1.entries, m2.entries)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        mesh = sphere_mesh(10.0, 8)
        # absurdly tight tolerance cannot be met within the iteration cap
        monkeypatch.setattr(solve_module, "KRYLOV_TOL", 1e-300)
        with pytest.raises(SolverError, match="residual"):
            solve_accelerated(mesh, 1.0)

    @pytest.fixture
    def gmres_counts(self, monkeypatch):
        """The per-column step counts of every gmres call solve_accelerated makes."""
        counts = []

        def recording_gmres(*args):
            out = gmres(*args)
            counts.append(out[1])
            return out

        monkeypatch.setattr(solve_module, "gmres", recording_gmres)
        return counts

    def test_nonconvergence_states_the_enforced_cap(self, monkeypatch, gmres_counts):
        """The loop runs whole restart cycles: a cap of 100 allows 2 x 60 iterations."""
        monkeypatch.setattr(solve_module, "GMRES_ITER_CAP", 100)
        monkeypatch.setattr(solve_module, "KRYLOV_TOL", 1e-300)
        mesh = sphere_mesh(10.0, 8)
        assert mesh.n_panels > GMRES_RESTART
        with pytest.raises(SolverError, match=r"within 120 iterations \(relative residual"):
            solve_accelerated(mesh, 1.0)
        assert gmres_counts[0].max() == 120

    def test_nonconvergence_states_the_block_cap(self, monkeypatch, gmres_counts):
        """With p columns a cycle runs at most n // p block steps: 9 cycles x 50 // 2 = 225."""
        monkeypatch.setattr(solve_module, "KRYLOV_TOL", 1e-300)
        mesh = plate_pair_mesh(20.0, 5.0, 4.0)
        assert (mesh.n_panels, mesh.n_cond) == (50, 2)
        with pytest.raises(SolverError, match=r"within 225 iterations \(relative residual"):
            solve_accelerated(mesh, 1.0)
        assert gmres_counts[0].tolist() == [225, 225]


def translated(spec, offset_nm):
    boxes = tuple(replace(b, min_nm=tuple(m + d for m, d in zip(b.min_nm, offset_nm)))
                  for b in spec.boxes)
    return replace(spec, boxes=boxes, domain_nm=None)


def mapped(spec, point):
    """The device with each box mapped by point(x, y, z), a signed axis permutation and scale."""
    boxes = []
    for b in spec.boxes:
        p, q = point(*b.min_nm), point(*b.max_nm)
        lo, hi = tuple(map(min, p, q)), tuple(map(max, p, q))
        boxes.append(replace(b, min_nm=lo, dims_nm=tuple(c - a for a, c in zip(lo, hi))))
    return replace(spec, boxes=tuple(boxes), domain_nm=None)


# (transformed reference device, h_max, length scale) per transform
TRANSFORMS = {
    "translate": (lambda s: translated(s, (1000.0, -700.0, 0.0)), 16.0, 1.0),
    "reverse": (lambda s: replace(s, boxes=s.boxes[::-1]), 16.0, 1.0),
    "scale2": (lambda s: mapped(s, lambda x, y, z: (2 * x, 2 * y, 2 * z)), 32.0, 2.0),
    "swap_xy": (lambda s: mapped(s, lambda x, y, z: (y, x, z)), 16.0, 1.0),  # a reflection
    "rotate_z90": (lambda s: mapped(s, lambda x, y, z: (-y, x, z)), 16.0, 1.0),
    "translate_1e5": (lambda s: translated(s, (1e5, 1e5, 0.0)), 16.0, 1.0),
}
# largest entry change over the largest diagonal, measured on the reference
# device at h = 16, and bounded at about 5x that
INVARIANCE_BOUNDS = {
    ("dense", "translate"): 1e-13,  # measured 1.8e-14
    ("dense", "reverse"): 1e-14,  # 1.5e-15
    ("dense", "scale2"): 4e-14,  # 7.5e-15
    ("dense", "swap_xy"): 1.5e-14,  # 2.4e-15
    ("dense", "rotate_z90"): 5e-14,  # 8.7e-15
    ("dense", "translate_1e5"): 5e-12,  # 1.0e-12: absolute coordinates keep fewer digits
    ("accelerated", "translate"): 1.5e-12,  # 7.1e-13: a shift flips last bits of float32 U
    ("accelerated", "reverse"): 8e-7,  # 1.6e-7: panel order moves the octree and ACA pivots
    ("accelerated", "scale2"): 5e-12,  # 8.9e-13
    ("accelerated", "swap_xy"): 2.5e-6,  # 4.4e-7: so do the panel frames
    ("accelerated", "rotate_z90"): 6.5e-6,  # 1.3e-6
    ("accelerated", "translate_1e5"): 1.5e-6,  # 2.9e-7
}


def check_invariance(mode, transforms):
    """Each transformed device's Maxwell matrix, over its length scale and permuted back
    by conductor name, against the reference device's."""
    spec = build_reference_device()

    def caps(device, h):
        return solve(mesh_device(device, h), mode, 6.0)

    base = caps(spec, 16.0)
    scale = np.abs(np.diag(base.entries)).max()
    for transform in transforms:
        device, h, length = TRANSFORMS[transform]
        m = caps(device(spec), h)
        perm = [m.conductor_names.index(c) for c in base.conductor_names]
        e = np.abs(m.entries[np.ix_(perm, perm)] / length - base.entries).max() / scale
        assert e <= INVARIANCE_BOUNDS[mode, transform], (transform, e)


@pytest.mark.parametrize("mode", ["dense", "accelerated"])
def test_maxwell_matrix_invariant_under_translation_and_box_order(mode):
    """A rigid translation and a reversed box order give the same Maxwell matrix, up to rounding.

    The reversed device declares its conductors in reverse; its matrix is
    permuted back by name.
    """
    check_invariance(mode, ["translate", "reverse"])


@pytest.mark.parametrize("mode", ["dense", "accelerated"])
def test_maxwell_matrix_invariant_under_scale_reflection_rotation_and_far_translation(mode):
    """Scaling by 2 (with h), swapping x and y, a 90 degree turn about z and a 1e5 nm
    shift give the same Maxwell matrix, scaled by the length factor, up to rounding."""
    check_invariance(mode, ["scale2", "swap_xy", "rotate_z90", "translate_1e5"])


class TestMaxwellSerialization:
    def test_json_roundtrip(self):
        spec = build_reference_device()
        mesh = mesh_device(spec, 16.0)
        m = solve_dense(mesh, 6.0, roles=spec.roles)
        again = MaxwellMatrix.from_json(m.to_json())
        assert again.conductor_names == m.conductor_names
        assert np.allclose(again.entries, m.entries, rtol=1e-15)
        assert again.roles == m.roles
        assert again.solver == m.solver

    @pytest.mark.parametrize("mode, extra", [
        ("dense", ["rcond"]), ("accelerated", ["gmres_iterations", "n_leaves"]),
    ])
    def test_solver_dict_is_pinned(self, mode, extra):
        """The artifact's solver dict: its keys in order, and the constants' values."""
        m = solve(sphere_mesh(5.0, 4), mode, 1.0)
        assert list(m.solver) == ["mode", "mac_ratio", "tol", "n_panels", *extra]
        assert m.solver["mode"] == mode
        assert m.solver["mac_ratio"] == 0.5 and m.solver["tol"] == 1e-06
        assert json.dumps(m.to_json()["solver"]).startswith(
            f'{{"mode": "{mode}", "mac_ratio": 0.5, "tol": 1e-06, ')

    def test_bad_options_rejected(self):
        mesh = sphere_mesh(5.0, 2)
        with pytest.raises(ValueError, match="unknown solve mode"):
            solve(mesh, "direct", 1.0)
        for eps in (0.0, -1.0, math.nan, math.inf):
            for solver in (solve_dense, solve_accelerated, DenseFactor):
                with pytest.raises(ValueError, match="epsilon_r"):
                    solver(mesh, eps)
