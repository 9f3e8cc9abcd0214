"""Maxwell capacitance extraction: dense direct and ACA-accelerated modes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, sparse

from ..constants import AF, OFFDIAG_TOL
from . import tree
from .kernels import AssemblyError, assemble_system, check_distinct_centroids, potential_block
from .tree import (
    FAR_DTYPE, LEAF_SIZE, block_csr, build_far_operators, build_octree, by_source, index_type,
    interaction_lists, mapped_zeros,
)

DENSE_PANEL_GUARD = 20000
GMRES_RESTART = 60
GMRES_ITER_CAP = 500  # rounded up to whole restart cycles
KRYLOV_TOL = 1e-6  # relative residual |b - A x| / |b| of every conductor's solve


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class MaxwellMatrix:
    """Symmetrized n_cond x n_cond capacitance matrix in farads."""

    conductor_names: tuple[str, ...]
    entries: np.ndarray
    asymmetry: float
    solver: dict = field(default_factory=dict)
    roles: dict | None = None

    @property
    def n_cond(self) -> int:
        return len(self.conductor_names)

    def entry(self, a: str, b: str) -> float:
        i = self.conductor_names.index(a)
        j = self.conductor_names.index(b)
        return float(self.entries[i, j])

    def to_json(self) -> dict:
        obj = {
            "conductor_names": list(self.conductor_names),
            "entries_aF": (self.entries / AF).tolist(),
            "asymmetry": self.asymmetry,
            "solver": dict(self.solver),
        }
        if self.roles is not None:
            obj["roles"] = dict(self.roles)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "MaxwellMatrix":
        return cls(
            conductor_names=tuple(obj["conductor_names"]),
            entries=np.asarray(obj["entries_aF"], dtype=float) * AF,
            asymmetry=float(obj.get("asymmetry", 0.0)),
            solver=dict(obj.get("solver", {})),
            roles=dict(obj["roles"]) if obj.get("roles") else None,
        )


def _finalize(raw, names, solver_info, roles=None):
    asym = float(np.abs(raw - raw.T).max() / max(np.abs(raw).max(), 1e-300))
    m = 0.5 * (raw + raw.T)
    scale = float(np.abs(np.diag(m)).max())
    tol = OFFDIAG_TOL * scale
    if np.any(np.diag(m) <= 0):
        raise SolverError("Maxwell matrix has a non-positive diagonal entry")
    off = m - np.diag(np.diag(m))
    if off.size and off.max() > tol:
        raise SolverError(f"positive off-diagonal {off.max() / AF:.3g} aF beyond tolerance")
    if m.sum(axis=1).min() < -tol:
        raise SolverError("negative row sum: capacitance to infinity must be non-negative")
    return MaxwellMatrix(tuple(names), m, asym, solver_info, roles)


def _check_epsilon_r(epsilon_r):
    # a NaN permittivity makes every entry NaN, and NaN passes each check of _finalize
    if not 0.0 < epsilon_r < math.inf:
        raise ValueError(f"epsilon_r must be finite and positive, got {epsilon_r:g}")


def _solver_info(mode, n_panels, **extra):
    """The artifact's solver dict, its leading keys the same in both modes."""
    return {"mode": mode, "mac_ratio": tree.MAC_RATIO, "tol": KRYLOV_TOL,
            "n_panels": n_panels, **extra}


def _conductor_rhs(mesh):
    n, nc = mesh.n_panels, mesh.n_cond
    rhs = np.zeros((n, nc))
    rhs[np.arange(n), mesh.cond_ids] = 1.0
    agg = sparse.csr_matrix(
        (np.ones(n), (mesh.cond_ids, np.arange(n))), shape=(nc, n)
    )
    return rhs, agg


def _check_dense_size(mesh):
    n = mesh.n_panels
    if n == 0:
        raise AssemblyError("empty mesh")
    if n > DENSE_PANEL_GUARD:
        raise SolverError(f"{n} panels exceeds the dense-mode guard of {DENSE_PANEL_GUARD}")


def _lu(a):
    """LU-factor a in place and reject it when it is ill-conditioned; returns (lu, piv, rcond)."""
    anorm = linalg.lapack.dlange("1", a)
    lu, piv = linalg.lu_factor(a, overwrite_a=True)
    rcond, info = linalg.lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or rcond < 1e-14:
        raise SolverError(f"ill-conditioned collocation system (rcond ~ {rcond:.2e})")
    return lu, piv, float(rcond)


def _lu_solve(lu, piv, b):
    # LAPACK getrs shifts piv in place while it runs, so concurrent solves on
    # one factor would see a half-shifted pivot vector: each call gets a copy
    return linalg.lu_solve((lu, piv.copy()), b)


class DenseFactor:
    """LU factor of the collocation matrix of a fixed panel set: the static block.

    maxwell(mesh) extracts the Maxwell matrix of a mesh that holds these
    panels, bitwise unchanged, plus the panels of conductors the static block
    does not have (the moving panels).  With A_ss the static block and
    Z = A_ss^-1 b_s, it assembles only the strips A_sd, A_ds and A_dd and
    eliminates the k moving panels through the k x k Schur complement
        S = A_dd - A_ds Y,  Y = A_ss^-1 A_sd,
        x_d = S^-1 (b_d - A_ds Z),  x_s = Z - Y x_d.
    A mesh without moving panels is the plain dense solve.  maxwell may run
    on several threads at once.
    """

    def __init__(self, mesh, epsilon_r):
        _check_epsilon_r(epsilon_r)
        _check_dense_size(mesh)
        A = assemble_system(mesh, epsilon_r)  # Fortran order: factored in place
        self.lu, self.piv, self.rcond = _lu(A)
        self.mesh = mesh
        self.epsilon_r = epsilon_r
        self.z = _lu_solve(self.lu, self.piv, _conductor_rhs(mesh)[0])

    def maxwell(self, mesh, roles=None) -> MaxwellMatrix:
        _check_dense_size(mesh)
        names = mesh.conductor_names
        missing = [c for c in self.mesh.conductor_names if c not in names]
        if missing:
            raise SolverError(f"mesh lacks the static conductors {missing}")
        remap = np.array([names.index(c) for c in self.mesh.conductor_names], dtype=np.int64)
        static = np.isin(mesh.cond_ids, remap)
        s_idx, d_idx = np.flatnonzero(static), np.flatnonzero(~static)
        if not (np.array_equal(mesh.cond_ids[s_idx], remap[self.mesh.cond_ids])
                and mesh.corners[s_idx].tobytes() == self.mesh.corners.tobytes()):
            raise SolverError("the mesh's static panels differ from the factored static block")
        centroids = mesh.centroids
        check_distinct_centroids(centroids)
        rhs, agg = _conductor_rhs(mesh)
        z = np.zeros((len(s_idx), mesh.n_cond))
        z[:, remap] = self.z
        info_d = _solver_info("dense", mesh.n_panels, rcond=self.rcond)
        x = np.empty((mesh.n_panels, mesh.n_cond))
        if len(d_idx):
            eps = self.epsilon_r
            a_sd = potential_block(mesh, centroids[s_idx], d_idx, eps)
            a_ds = potential_block(mesh, centroids[d_idx], s_idx, eps)
            y = _lu_solve(self.lu, self.piv, a_sd)
            s = potential_block(mesh, centroids[d_idx], d_idx, eps) - a_ds @ y
            lu_s, piv_s, info_d["schur_rcond"] = _lu(s)
            x[d_idx] = linalg.lu_solve((lu_s, piv_s), rhs[d_idx] - a_ds @ z)
            z = z - y @ x[d_idx]
        x[s_idx] = z
        return _finalize(agg @ x, names, info_d, roles)


def solve_dense(mesh, epsilon_r, roles=None) -> MaxwellMatrix:
    return DenseFactor(mesh, epsilon_r).maxwell(mesh, roles)


class _AcceleratedOperator:
    """phi = A q, exact near field and ACA far field, as two dense row blocks per target leaf.

    Every row of a target leaf sees the same columns: the rows of M (ACA
    ranks) of its far nodes, then the panels of its near leaves, in the
    order they were placed.  The far columns hold U in FAR_DTYPE, the near
    ones the exact float64 entries.  With xw = [q; M q] and g = xw[cols_L],
    the leaf's potentials are F_L @ g[:k] + N_L @ g[k:], k the far width;
    blocks holds (leaf panels, cols_L, F_L, N_L) per leaf.
    """

    def __init__(self, mesh, epsilon_r):
        centroids = mesh.centroids
        check_distinct_centroids(centroids)
        root, leaves = build_octree(mesh, LEAF_SIZE)
        far_lists, near_lists = interaction_lists(root, leaves, tree.MAC_RATIO)
        far, self.mom_m = build_far_operators(mesh, leaves, far_lists, epsilon_r)
        n = mesh.n_panels
        rank = {node: len(r) for node, _, r, _ in far.sources}
        far_blocks = _leaf_blocks(
            leaves, [sum(map(rank.get, nodes)) for nodes in far_lists], FAR_DTYPE)
        near_blocks = _leaf_blocks(
            leaves, [sum(len(s.panels) for s in near) for near in near_lists], np.float64)
        # leaf -> its far and near side, each [block, its columns so far, their count]
        at = {leaf: ([f, [], 0], [b, [], 0])
              for leaf, f, b in zip(leaves, far_blocks, near_blocks)}

        def place(source_cols, targets, block, side):
            """Append block (targets' panels x source_cols) to side 0 (far) or 1 (near) of each."""
            row, width = 0, block.shape[1]
            for t in targets:
                entry = at[t][side]
                b, cols, c = entry
                b[:, c:c + width] = block[row:row + len(b)]
                cols.append(source_cols)
                entry[2] = c + width
                row += len(b)

        # each U goes to its target leaves and is dropped, last first, so that each
        # far-field slab is unmapped once its last U is placed
        while far.sources:
            _, targets, ranks, u = far.sources.pop()
            place(n + ranks, targets, u.T, 0)
            del u
        diagonal = {}  # leaf -> first column of its self block in its own near block
        for s, targets in by_source(leaves, near_lists):
            tidx = np.concatenate([t.panels for t in targets])
            block = potential_block(mesh, centroids[tidx], s.panels, epsilon_r)
            diagonal[s] = at[s][1][2]  # every leaf is in its own near list
            place(s.panels, targets, block, 1)
        index = index_type(n + self.mom_m.shape[0])  # int32 halves the index arrays
        self.blocks = []
        for leaf in leaves:
            (f, far_cols, _), (b, near_cols, _) = at[leaf]
            cols = np.concatenate(far_cols + near_cols, dtype=index)
            self.blocks.append((leaf.panels, cols, f, b))
        # the block-diagonal preconditioner inverts the self blocks
        inverses = []
        for leaf, (_, _, _, b) in zip(leaves, self.blocks):
            c = diagonal[leaf]
            inverses.append((leaf.panels, leaf.panels, np.linalg.inv(b[:, c:c + len(b)])))
        self.precond = block_csr(inverses, (n, n))
        self.far_max = max(f.size for _, _, f, _ in self.blocks)
        self.n = n
        self.n_leaves = len(leaves)

    def matvec(self, q):
        """A @ q for one vector or an n x k block: one gather and two products per target leaf."""
        xw = np.concatenate([q, self.mom_m @ q])
        y = np.empty(q.shape)
        scratch = np.empty(self.far_max)  # each far block upcast in turn, into the same pages
        for rows, cols, f, b in self.blocks:
            g = np.take(xw, cols, axis=0)  # the same rows as xw[cols], gathered faster
            k = f.shape[1]
            up = scratch[:f.size].reshape(f.shape, order="F")
            up[...] = f
            y[rows] = up @ g[:k] + b @ g[k:]
        return y


def _leaf_blocks(leaves, widths, dtype):
    """A zeroed column-major (leaf panels x width) block per leaf, views of one mapped arena.

    Each block is filled left to right, so placement commits the arena's
    pages only as it writes them, and the arena leaves no heap behind.
    """
    shapes = [(len(leaf.panels), w) for leaf, w in zip(leaves, widths)]
    sizes = [m * w for m, w in shapes]
    arena = mapped_zeros(sum(sizes), dtype)
    ends = np.cumsum(sizes).tolist()
    return [arena[e - size:e].reshape(shape, order="F")
            for shape, size, e in zip(shapes, sizes, ends)]


_EPS = np.finfo(np.float64).eps


def gmres(apply_a, apply_m, B, rtol, restart, max_cycles):
    """Left-preconditioned restarted block GMRES: one Krylov space for all columns of B.

    Each cycle factors the preconditioned residuals of the live columns,
    Q E = M R, and grows the block Krylov space of M A from Q.  A block
    step applies apply_a and then apply_m once to the n x p block,
    orthogonalizes it against the basis by two passes of classical block
    Gram-Schmidt and takes the next block and the subdiagonal of H from a
    QR of the remainder.  After each step the small least-squares problem
    min |[E; 0] - H Y| is solved afresh; its residual columns are the
    preconditioned residuals of the columns.  A column's inner tolerance
    follows scipy's gmres (x0 = 0, atol = 0): |M b| min(1, rtol |b| / |r|)
    at the start, its factor scaled by 0.25 or 1.5 on each restart.  A cycle
    ends when every column meets its inner tolerance, at a breakdown, or
    after min(restart, n // p) steps; then a column whose true residual
    |b - A x| exceeds rtol |b| stays live for the next cycle.  A zero column
    gives x = 0.

    Returns (X, block steps per column until it met its inner tolerance,
    relative residuals |b - A x| / |b|).
    """
    n, k = B.shape
    X = np.zeros((n, k))
    iters = np.zeros(k, dtype=np.int64)
    res = np.zeros(k)
    bnrm = np.linalg.norm(B, axis=0)
    live = np.flatnonzero(bnrm)
    atol = rtol * bnrm
    z = apply_m(B[:, live])
    factor = np.ones(k)
    ptol = np.zeros(k)
    ptol[live] = np.linalg.norm(z, axis=0) * min(1.0, rtol)
    # the blocks' transposes, one after another, allocated once per call: a
    # cycle on p columns fills at most (restart + 1) p rows, and a fresh basis
    # per cycle left about 56 MB more heap resident after a solve at h = 5
    basis = np.empty(((restart + 1) * len(live), n))
    for _ in range(max_cycles):
        if not len(live):
            break
        p = len(live)
        steps = min(restart, n // p)
        q, e = np.linalg.qr(z)
        basis[:p] = q.T
        h = np.zeros(((steps + 1) * p, steps * p))
        g = np.zeros(((steps + 1) * p, p))
        g[:p] = e
        met = np.zeros(p, dtype=bool)
        for j in range(1, steps + 1):
            w = apply_m(apply_a(q))
            w_norm = np.linalg.norm(w)
            v = basis[:j * p]
            hj = h[:j * p, (j - 1) * p:j * p]
            for _ in range(2):
                c = v @ w
                # as the p x n product: an n x p result would make threaded
                # OpenBLAS touch, and keep, about 15 MB more of its buffers at h = 5
                w -= (c.T @ v).T
                hj += c
            q, s = np.linalg.qr(w)
            basis[j * p:(j + 1) * p] = q.T
            h[j * p:(j + 1) * p, (j - 1) * p:j * p] = s
            hk, gk = h[:(j + 1) * p, :j * p], g[:(j + 1) * p]
            y = np.linalg.lstsq(hk, gk, rcond=None)[0]
            presid = np.linalg.norm(gk - hk @ y, axis=0)
            iters[live[~met]] += 1
            met |= presid <= ptol[live]
            if met.all() or np.any(np.abs(np.diag(s)) <= _EPS * w_norm):
                break
        X[:, live] += (y.T @ basis[:j * p]).T
        r = B[:, live] - apply_a(X[:, live])
        rnorm = np.linalg.norm(r, axis=0)
        res[live] = rnorm / bnrm[live]
        keep = rnorm > atol[live]
        live, met, presid, rnorm = live[keep], met[keep], presid[keep], rnorm[keep]
        if len(live):
            # scipy's rule: tighten the inner tolerance if it passed but the true residual did not
            factor[live] = np.where(met, np.maximum(_EPS, 0.25 * factor[live]),
                                    np.minimum(1.0, 1.5 * factor[live]))
            ptol[live] = presid * np.minimum(factor[live], atol[live] / rnorm)
            z = apply_m(r[:, keep])
    return X, iters, res


def solve_accelerated(mesh, epsilon_r, roles=None) -> MaxwellMatrix:
    """One block GMRES over all conductors: a single Krylov space for every right-hand side."""
    _check_epsilon_r(epsilon_r)
    if mesh.n_panels == 0:
        raise AssemblyError("empty mesh")
    op = _AcceleratedOperator(mesh, epsilon_r)
    rhs, agg = _conductor_rhs(mesh)
    cycles = max(1, math.ceil(GMRES_ITER_CAP / GMRES_RESTART))
    tol = KRYLOV_TOL
    x, iters, res = gmres(op.matvec, lambda q: op.precond @ q, rhs, tol, GMRES_RESTART, cycles)
    if not np.all(res <= tol):
        # each cycle on the p-column block runs at most min(restart, n // p) block steps
        cap = cycles * min(GMRES_RESTART, mesh.n_panels // mesh.n_cond)
        raise SolverError(
            f"GMRES failed to reach {tol} within {cap} "
            f"iterations (relative residual {res.max():.3e})"
        )
    info_d = _solver_info("accelerated", mesh.n_panels,
                          gmres_iterations=iters.tolist(), n_leaves=op.n_leaves)
    return _finalize(agg @ x, mesh.conductor_names, info_d, roles)


def solve(mesh, mode, epsilon_r, roles=None) -> MaxwellMatrix:
    """The Maxwell matrix of mesh in mode "dense" or "accelerated"."""
    if mode == "dense":
        return solve_dense(mesh, epsilon_r, roles=roles)
    if mode == "accelerated":
        return solve_accelerated(mesh, epsilon_r, roles=roles)
    raise ValueError(f"unknown solve mode {mode!r}")
