"""Maxwell capacitance extraction: dense direct and ACA-accelerated modes."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import LinearOperator, gmres

from ..constants import AF, OFFDIAG_TOL
from .kernels import AssemblyError, assemble_system, check_distinct_centroids, potential_block
from .tree import build_far_operators, build_octree, interaction_lists

DENSE_PANEL_GUARD = 20000
GMRES_RESTART = 60
GMRES_ITER_CAP = 500


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    mode: str = "dense"  # "dense" | "accelerated"
    epsilon_r: float = 1.0
    mac_ratio: float = 0.5
    krylov_tol: float = 1e-6
    leaf_size: int = 32

    def __post_init__(self):
        if self.mode not in ("dense", "accelerated"):
            raise ValueError(f"unknown solve mode {self.mode!r}")
        if not 0.0 < self.mac_ratio < 1.0:
            raise ValueError("mac_ratio must lie in (0, 1)")
        if not 0.0 < self.krylov_tol < 1.0:
            raise ValueError("krylov_tol must lie in (0, 1)")
        if self.leaf_size < 1 or self.epsilon_r <= 0:
            raise ValueError("invalid solver options")


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

    def __init__(self, mesh, opts: SolveOptions, jobs: int = 1):
        if opts.mode != "dense":
            raise ValueError("a dense factor requires opts.mode == 'dense'")
        _check_dense_size(mesh)
        A = assemble_system(mesh, opts.epsilon_r, jobs=jobs)  # Fortran order: factored in place
        self.lu, self.piv, self.rcond = _lu(A)
        self.mesh = mesh
        self.opts = opts
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
        info_d = {
            "mode": "dense", "mac_ratio": self.opts.mac_ratio,
            "tol": self.opts.krylov_tol, "n_panels": mesh.n_panels, "rcond": self.rcond,
        }
        x = np.empty((mesh.n_panels, mesh.n_cond))
        if len(d_idx):
            eps = self.opts.epsilon_r
            a_sd = potential_block(mesh, centroids[s_idx], d_idx, eps)
            a_ds = potential_block(mesh, centroids[d_idx], s_idx, eps)
            y = _lu_solve(self.lu, self.piv, a_sd)
            s = potential_block(mesh, centroids[d_idx], d_idx, eps) - a_ds @ y
            lu_s, piv_s, info_d["schur_rcond"] = _lu(s)
            x[d_idx] = linalg.lu_solve((lu_s, piv_s), rhs[d_idx] - a_ds @ z)
            z = z - y @ x[d_idx]
        x[s_idx] = z
        return _finalize(agg @ x, names, info_d, roles)


def solve_dense(mesh, opts: SolveOptions, jobs: int = 1, roles=None) -> MaxwellMatrix:
    return DenseFactor(mesh, opts, jobs=jobs).maxwell(mesh, roles)


class _AcceleratedOperator:
    """phi = near @ q + E @ (Mom @ q), with exact near field."""

    def __init__(self, mesh, opts: SolveOptions):
        centroids = mesh.centroids
        check_distinct_centroids(centroids)
        root, leaves = build_octree(mesh, opts.leaf_size)
        far_lists, near_lists = interaction_lists(root, leaves, opts.mac_ratio)
        self.eval_m, self.mom_m = build_far_operators(mesh, leaves, far_lists, opts.epsilon_r)

        # invert near lists to one exact column block per source leaf
        targets_by_leaf = {}
        for leaf, near in zip(leaves, near_lists):
            for s in near:
                targets_by_leaf.setdefault(id(s), (s, []))[1].append(leaf.panels)
        rows, cols, vals = [], [], []
        for s, chunks in targets_by_leaf.values():
            tidx = np.concatenate(chunks)
            block = potential_block(mesh, centroids[tidx], s.panels, opts.epsilon_r)
            rows.append(np.repeat(tidx[:, None], len(s.panels), axis=1).ravel())
            cols.append(np.repeat(s.panels[None, :], len(tidx), axis=0).ravel())
            vals.append(block.ravel())
        n = mesh.n_panels
        self.near = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )

        # block-diagonal (leaf-wise) preconditioner from the exact self blocks,
        # which near already holds because every leaf is in its own near list
        rows, cols, vals = [], [], []
        for leaf in leaves:
            idx = leaf.panels
            inv = np.linalg.inv(self.near[idx][:, idx].toarray())
            rows.append(np.repeat(idx[:, None], len(idx), axis=1).ravel())
            cols.append(np.repeat(idx[None, :], len(idx), axis=0).ravel())
            vals.append(inv.ravel())
        self.precond = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        self.n = n
        self.n_leaves = len(leaves)

    def matvec(self, q):
        return self.near @ q + self.eval_m @ (self.mom_m @ q)

    def as_linear_operators(self):
        a = LinearOperator((self.n, self.n), matvec=self.matvec)
        m = LinearOperator((self.n, self.n), matvec=lambda x: self.precond @ x)
        return a, m


def solve_accelerated(mesh, opts: SolveOptions, jobs: int = 1, roles=None) -> MaxwellMatrix:
    if opts.mode != "accelerated":
        raise ValueError("solve_accelerated requires opts.mode == 'accelerated'")
    if mesh.n_panels == 0:
        raise AssemblyError("empty mesh")
    op = _AcceleratedOperator(mesh, opts)
    a_op, m_op = op.as_linear_operators()
    rhs, agg = _conductor_rhs(mesh)
    cycles = max(1, math.ceil(GMRES_ITER_CAP / GMRES_RESTART))
    iters = np.zeros(mesh.n_cond, dtype=int)

    def solve_one(k):
        b = rhs[:, k]
        count = [0]

        def cb(_):
            count[0] += 1

        x, info = gmres(a_op, b, rtol=opts.krylov_tol, atol=0.0,
                        restart=GMRES_RESTART, maxiter=cycles, M=m_op,
                        callback=cb, callback_type="pr_norm")
        if info != 0:
            res = np.linalg.norm(b - op.matvec(x)) / np.linalg.norm(b)
            raise SolverError(
                f"GMRES failed to reach {opts.krylov_tol} within "
                f"{GMRES_ITER_CAP} iterations (relative residual {res:.3e})"
            )
        iters[k] = count[0]
        return x

    ks = range(mesh.n_cond)
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            xs = list(ex.map(solve_one, ks))
    else:
        xs = [solve_one(k) for k in ks]
    raw = agg @ np.stack(xs, axis=1)
    info_d = {
        "mode": "accelerated", "mac_ratio": opts.mac_ratio,
        "tol": opts.krylov_tol, "n_panels": mesh.n_panels,
        "gmres_iterations": iters.tolist(), "n_leaves": op.n_leaves,
    }
    return _finalize(raw, mesh.conductor_names, info_d, roles)


def solve(mesh, opts: SolveOptions, jobs: int = 1, roles=None) -> MaxwellMatrix:
    if opts.mode == "dense":
        return solve_dense(mesh, opts, jobs=jobs, roles=roles)
    return solve_accelerated(mesh, opts, jobs=jobs, roles=roles)
