"""Maxwell capacitance extraction: dense direct and ACA-accelerated modes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import _blas
from ..constants import AF, OFFDIAG_TOL
from . import kernels, tree
from .kernels import AssemblyError, assemble_system, check_distinct_centroids, potential_block
from .tree import (
    FAR_DTYPE, LEAF_SIZE, build_far_operators, build_octree, by_source, index_type,
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
        """Raises KeyError, TypeError or ValueError on a malformed object."""
        names = tuple(obj["conductor_names"])
        entries = np.asarray(obj["entries_aF"], dtype=float) * AF
        roles = dict(obj["roles"]) if obj.get("roles") else None
        if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
            raise ValueError("conductor_names must be distinct strings")
        if entries.shape != (len(names), len(names)):
            raise ValueError(f"entries_aF must be {len(names)} x {len(names)}, "
                             "one row per conductor name")
        if not np.isfinite(entries).all():
            raise ValueError("entries_aF must be finite")
        if roles and not set(roles) <= set(names):
            raise ValueError("roles name a conductor missing from conductor_names")
        return cls(
            conductor_names=names,
            entries=entries,
            asymmetry=float(obj.get("asymmetry", 0.0)),
            solver=dict(obj.get("solver", {})),
            roles=roles,
        )


def _finalize(raw, names, solver_info):
    # a NaN entry passes every comparison below
    if not np.isfinite(raw).all():
        raise SolverError("Maxwell matrix has a non-finite entry")
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
    return MaxwellMatrix(tuple(names), m, asym, solver_info)


def _check_epsilon_r(epsilon_r):
    # a NaN permittivity would make every entry NaN: name it before any work is done
    if not 0.0 < epsilon_r < math.inf:
        raise ValueError(f"epsilon_r must be finite and positive, got {epsilon_r:g}")


def _solver_info(mode, n_panels, **extra):
    """The artifact's solver dict, its leading keys the same in both modes."""
    return {"mode": mode, "mac_ratio": tree.MAC_RATIO, "tol": KRYLOV_TOL,
            "n_panels": n_panels, **extra}


def _conductor_rhs(mesh):
    """One right-hand side per conductor: 1 V on its panels, 0 on the others."""
    n = mesh.n_panels
    rhs = np.zeros((n, mesh.n_cond))
    rhs[np.arange(n), mesh.cond_ids] = 1.0
    return rhs


def _conductor_charges(mesh, x):
    """Each conductor's total charge: the rows of x summed per conductor, in panel order."""
    charges = np.zeros((mesh.n_cond,) + x.shape[1:])
    np.add.at(charges, mesh.cond_ids, x)
    return charges


def check_dense_size(n_panels):
    """Reject a dense solve of over DENSE_PANEL_GUARD panels (maxwell rejects an empty one);
    callers that count the panels before meshing call it first, so no such mesh is built."""
    if n_panels > DENSE_PANEL_GUARD:
        raise SolverError(f"{n_panels} panels exceeds the dense-mode guard of {DENSE_PANEL_GUARD}")


def _lu(a):
    """LU-factor a and reject it when it is not finite or ill-conditioned;
    returns (lu, piv, rcond).

    A Fortran-ordered float64 a is factored in place, any other a from a
    Fortran copy.  The 1-norm is NaN or Inf whenever an entry is, so it
    decides finiteness without a scan of its own.
    """
    lapack = _blas.lapack()
    a = np.asfortranarray(a, dtype=np.float64)
    anorm = lapack.dlange(a)
    if not math.isfinite(anorm):
        raise SolverError(f"collocation system is not finite (1-norm {anorm})")
    lu, piv, info = lapack.dgetrf(a)
    # an exactly zero pivot (info > 0) is as singular as a matrix gets
    rcond, info = (0.0, info) if info else lapack.dgecon(lu, anorm)
    if info != 0 or not rcond >= 1e-14:  # a NaN rcond fails too
        raise SolverError(f"ill-conditioned collocation system (rcond ~ {rcond:.2e})")
    return lu, piv, float(rcond)


def _lu_solve(lu, piv, b):
    # No finiteness scan: lu passed _lu, and a non-finite b gives a non-finite
    # result, which the Schur step's _lu or _finalize rejects
    return _blas.lapack().dgetrs(lu, piv, b)


class DenseFactor:
    """LU factor of the collocation matrix of a fixed panel set: the static block.

    maxwell(moving) extracts the Maxwell matrix of the static panels together
    with moving, a PanelMesh of the conductors the static block does not have
    (the moving panels); its conductors are the static ones, then the moving
    ones.  With A_ss the static block and Z = A_ss^-1 b_s, it assembles only
    A_ds and the strip [A_sd; A_dd], the latter in one kernel call at all the
    centroids, and eliminates the k moving panels through the Schur complement
        S = A_dd - A_ds Y,  Y = A_ss^-1 A_sd,
        x_d = S^-1 (b_d - A_ds Z),  x_s = Z - Y x_d.
    Without moving panels it is the plain dense solve; without static ones
    there is no LU (nor rcond), Y and Z have no rows, and S = A_dd.  The
    static panels, the sources of A_ds, are grouped by frame once, as one
    mesh, when the factor is built (groups).  Nothing changes after __init__,
    so maxwell may run on several threads at once.
    """

    def __init__(self, static_mesh, epsilon_r):
        _check_epsilon_r(epsilon_r)
        check_dense_size(static_mesh.n_panels)
        self.mesh = static_mesh
        self.epsilon_r = epsilon_r
        self.z = _conductor_rhs(static_mesh)  # no rows without static panels: nothing to factor
        if static_mesh.n_panels:
            # the matrix is Fortran-ordered, so _lu factors it in place
            self.lu, self.piv, self.rcond = _lu(assemble_system(static_mesh, epsilon_r))
            self.z = _lu_solve(self.lu, self.piv, self.z)
        self.groups = list(kernels._frame_groups(static_mesh.corners))

    def maxwell(self, moving=None) -> MaxwellMatrix:
        static, k_s = self.mesh, self.mesh.n_cond
        names = static.conductor_names + (moving.conductor_names if moving is not None else [])
        both = [c for c in names[k_s:] if c in names[:k_s]]
        if both:
            raise SolverError(f"conductors {both} are both static and moving")
        n_s, n_cond = static.n_panels, len(names)
        n_d = moving.n_panels if moving is not None else 0
        if not n_s + n_d:
            raise AssemblyError("empty mesh")
        check_dense_size(n_s + n_d)
        cond_ids = static.cond_ids
        z = np.zeros((n_s, n_cond))
        z[:, :k_s] = self.z
        info_d = _solver_info("dense", n_s + n_d, **({"rcond": self.rcond} if n_s else {}))
        x = np.empty((n_s + n_d, n_cond))
        if n_d:
            cond_ids = np.concatenate([cond_ids, moving.cond_ids + k_s])
            points = np.concatenate([static.centroids, moving.centroids])
            # the static block passed the check whole
            check_distinct_centroids(points, among=np.arange(n_s, n_s + n_d))
            eps = self.epsilon_r
            a_d = potential_block(moving, points, np.arange(n_d), eps)  # A_sd above A_dd
            a_ds = potential_block(static, moving.centroids, np.arange(n_s), eps, self.groups)
            y = _lu_solve(self.lu, self.piv, a_d[:n_s]) if n_s else a_d[:0]
            s = a_d[n_s:] - a_ds @ y
            lu_s, piv_s, info_d["schur_rcond"] = _lu(s)
            b_d = np.eye(n_cond)[cond_ids[n_s:]]
            x[n_s:] = _lu_solve(lu_s, piv_s, b_d - a_ds @ z)
            z = z - y @ x[n_s:]
        x[:n_s] = z
        charges = np.zeros((n_cond, n_cond))
        np.add.at(charges, cond_ids, x)  # each conductor's panels summed in panel order
        return _finalize(charges, names, info_d)


def solve_dense(mesh, epsilon_r) -> MaxwellMatrix:
    return DenseFactor(mesh, epsilon_r).maxwell()


class _AcceleratedOperator:
    """phi = A q, exact near field and ACA far field, as two dense row blocks per target leaf.

    Every row of a target leaf sees the same columns: the far columns of its
    far nodes (their rows of M, or the panels of a whole block), then the
    panels of its near leaves, in the order they were placed.  The far
    columns hold U in FAR_DTYPE, the near ones the exact float64 entries.
    With xw = [q; M q] and g = xw[cols_L], the leaf's potentials are
    F_L @ g[:k] + N_L @ g[k:], k the far width; blocks holds (leaf panels,
    cols_L, F_L, N_L) per leaf.
    """

    def __init__(self, mesh, epsilon_r):
        check_distinct_centroids(mesh.centroids)
        root, leaves = build_octree(mesh, LEAF_SIZE)
        far_lists, near_lists = interaction_lists(root, leaves, tree.MAC_RATIO)
        far, self.mom_m = build_far_operators(mesh, leaves, far_lists, epsilon_r)
        width = {node: len(c) for node, _, c, _ in far.sources}
        far = _placed(leaves, [sum(map(width.get, nodes)) for nodes in far_lists],
                      FAR_DTYPE, far.drain())
        near = _placed(leaves, [sum(len(s.panels) for s in nodes) for nodes in near_lists],
                       np.float64, _near_field(mesh, leaves, near_lists, epsilon_r))
        self.n = mesh.n_panels
        index = index_type(self.n + self.mom_m.shape[0])  # int32 halves the index arrays
        self.blocks = [(leaf.panels, np.concatenate(far_cols + near_cols, dtype=index), f, b)
                       for leaf, (f, far_cols), (b, near_cols) in zip(leaves, far, near)]
        self.precond = _BlockJacobi(self.blocks)
        self.far_max = max(f.size for _, _, f, _ in self.blocks)
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


def _near_field(mesh, leaves, near_lists, epsilon_r):
    """The exact near field: (source leaf panels, target leaves, their block) per source leaf."""
    for s, targets in by_source(leaves, near_lists):
        tidx = np.concatenate([t.panels for t in targets])
        yield s.panels, targets, potential_block(mesh, mesh.centroids[tidx], s.panels, epsilon_r)


def _placed(leaves, widths, dtype, pieces):
    """Per leaf, a column-major (panels x width) block of dtype and its column list.

    Each piece (cols, target leaves, block) gives each target its rows at its next free
    columns and appends cols to its list.  The blocks are views of one mapped arena,
    filled left to right: pages are committed only as written, and no heap is left.
    """
    sizes = [len(leaf.panels) * w for leaf, w in zip(leaves, widths)]
    arena = mapped_zeros(sum(sizes), dtype)
    ends = np.cumsum(sizes).tolist()
    placed = {leaf: (arena[e - size:e].reshape((len(leaf.panels), w), order="F"), [])
              for leaf, w, size, e in zip(leaves, widths, sizes, ends)}
    free = dict.fromkeys(leaves, 0)  # each leaf's next free column
    for cols, targets, block in pieces:
        row, width = 0, block.shape[1]
        for t in targets:
            b, t_cols = placed[t]
            b[:, free[t]:free[t] + width] = block[row:row + len(b)]
            t_cols.append(cols)
            free[t] += width
            row += len(b)
    return list(placed.values())


class _BlockJacobi:
    """The block-diagonal preconditioner: each leaf's self-block inverse on its panels.

    Built from the operator's (rows, cols, F_L, N_L) leaf blocks, each self block the
    run of near columns that holds the leaf's own panels.  The leaves are grouped by
    size; each group stacks its panels (leaves x size) and inverts its self blocks
    (leaves x size x size) in one call, so a product is one gather and one batched
    matmul per leaf size, bitwise inv @ q[panels] leaf by leaf, for q of 1 or p columns.
    """

    def __init__(self, blocks):
        by_size = {}
        for rows, cols, f, b in blocks:
            c = int(np.flatnonzero(cols[f.shape[1]:] == rows[0])[0])
            by_size.setdefault(len(rows), []).append((rows, b[:, c:c + len(rows)]))
        self.groups = [(np.stack([p for p, _ in group]),
                        np.linalg.inv(np.stack([b for _, b in group])))
                       for group in by_size.values()]

    def __matmul__(self, q):
        out = np.empty(q.shape)
        for rows, inverses in self.groups:
            g = np.take(q, rows, axis=0)
            out[rows] = inverses @ g if q.ndim > 1 else (inverses @ g[..., None])[..., 0]
        return out


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


def solve_accelerated(mesh, epsilon_r) -> MaxwellMatrix:
    """One block GMRES over all conductors: a single Krylov space for every right-hand side."""
    _check_epsilon_r(epsilon_r)
    if mesh.n_panels == 0:
        raise AssemblyError("empty mesh")
    op = _AcceleratedOperator(mesh, epsilon_r)
    rhs = _conductor_rhs(mesh)
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
    return _finalize(_conductor_charges(mesh, x), mesh.conductor_names, info_d)


def solve(mesh, mode, epsilon_r) -> MaxwellMatrix:
    """The Maxwell matrix of mesh in mode "dense" or "accelerated"."""
    if mode == "dense":
        return solve_dense(mesh, epsilon_r)
    if mode == "accelerated":
        return solve_accelerated(mesh, epsilon_r)
    raise ValueError(f"unknown solve mode {mode!r}")
