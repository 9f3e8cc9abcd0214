"""Stability diagrams, transfer metrics, misalignment/dot-size sweeps, measured-value comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._blas import thread_map
from .capsolve import AssemblyError, DenseFactor, SolverError, check_dense_size, solve
from .charging import (
    ChargingError,
    ModelCaps,
    circuit_roles,
    compensate,
    delta_q,
    integer_minimizer,
    reduce_caps,
)
from .constants import AF, MV, Q_E
from .geometry import (
    DEFAULT_H_MAX_NM, DeviceError, PanelMesh, mesh_device, panel_count, transform_dots,
)

WINDOW_CAP_V = 20.0
MIN_LINES = 3
DEFAULT_DIAGRAM_N = 201  # grid points per bias axis


class AnalysisError(ValueError):
    pass


@dataclass
class BoundaryLine:
    """Fitted degeneracy line separating stable configurations x and x+1."""

    x: int
    p0: tuple[float, float]
    p1: tuple[float, float]
    residual: float
    n_points: int

    def to_json(self):
        return {
            "x": self.x, "x_next": self.x + 1,
            "p0_mV": [self.p0[0] / MV, self.p0[1] / MV],
            "p1_mV": [self.p1[0] / MV, self.p1[1] / MV],
            "residual_mV": self.residual / MV,
            "n_points": self.n_points,
        }


@dataclass
class StabilityDiagram:
    v_sl: np.ndarray          # grid axis, volts
    v_sr: np.ndarray
    grid: np.ndarray          # stable x, shape (n_sl, n_sr)
    boundaries: list[BoundaryLine]
    dv_sl: float | None       # degeneracy-line spacing along V_SL, volts
    dv_sr: float | None
    theta_deg: float | None


def _compensation_map(caps: ModelCaps) -> np.ndarray:
    """Linear map (V_SL, V_SR) -> full bias vector under approximate compensation."""
    t = np.zeros((4, 2))
    t[0, 0] = 1.0
    t[1, 1] = 1.0
    t[2:, 0] = compensate(1.0, 0.0, caps)
    t[2:, 1] = compensate(0.0, 1.0, caps)
    return t


def _grid_terms(caps: ModelCaps):
    """Coefficients of E_x over the compensated (V_SL, V_SR) plane.

    E_x(V) = const(V) + q_e * x * g(V) + 1/2 * q_e^2 * x^2 * kappa with
    g linear in V; only g and kappa matter for the stable x and boundaries.
    """
    c = caps.energy_matrix(island=False)
    w = np.linalg.inv(c)
    s = np.array([1.0, -1.0])
    kappa = float(s @ w @ s)
    g, t = caps.gate_block(island=False), _compensation_map(caps)
    gmap = s @ w @ g @ t  # (2,)
    # A component within rounding of the terms that formed it is zero.  Each path
    # through the product sums 2 + 2 + 4 rounded terms, so its rounding is below
    # 8 eps times the same product of absolute values; W = C^-1 and the
    # compensation map carry rounding of their own, hence twice that.
    bound = 16 * np.finfo(float).eps * (np.abs(s) @ np.abs(w) @ np.abs(g) @ np.abs(t))
    gmap[np.abs(gmap) <= bound] = 0.0
    return gmap, kappa


def _degeneracy_metrics(gmap, kappa):
    """(dV_SL, dV_SR, theta) of the degeneracy lines, in closed form.

    The line x <-> x+1 is g(V) = gmap . V = -q_e * kappa * (x + 1/2), so
    neighbouring lines cross the V_SL axis q_e * kappa / |gmap_SL| apart, and
    likewise V_SR.  A zero gmap component leaves its axis uncrossed: None.
    """
    dv_sl, dv_sr = (float(Q_E * kappa / abs(g)) if g else None for g in gmap)
    theta = _theta_deg(dv_sl, dv_sr) if dv_sl and dv_sr else None
    return dv_sl, dv_sr, theta


def _fit_line(points):
    """Total-least-squares line through points: (rms residual, end point, end point)."""
    mu = points.mean(axis=0)
    rel = points - mu
    _, sv, vt = np.linalg.svd(rel, full_matrices=False)
    direction = vt[0]
    res = sv[-1] / math.sqrt(len(points)) if len(points) > 1 else 0.0
    t = rel @ direction
    return res, mu + t.min() * direction, mu + t.max() * direction


def stability_diagram(caps: ModelCaps, v_ranges=None,
                      n: int = DEFAULT_DIAGRAM_N) -> StabilityDiagram:
    """Grid of stable configurations over (V_SL, V_SR) with fitted degeneracy lines.

    Without explicit ranges the window starts near the estimated line spacing
    and doubles until it holds at least three degeneracy lines (cap 20 V).
    The periodicities and theta are the closed-form ones, reported once the
    window holds at least two fitted lines.
    """
    if n < 2:
        raise AnalysisError("diagram grid needs n >= 2")
    gmap, kappa = _grid_terms(caps)

    if v_ranges is not None:
        windows = [(np.linspace(*v_ranges[0], n), np.linspace(*v_ranges[1], n))]
    else:
        grad = np.abs(gmap)
        if grad.max() <= 0:
            w = WINDOW_CAP_V
        else:
            spacing = Q_E * kappa / np.maximum(grad, grad.max() * 1e-12)
            w = min(1.8 * float(spacing.max()), WINDOW_CAP_V)
        windows = []
        while True:
            windows.append((np.linspace(-w, w, n), np.linspace(-w, w, n)))
            if w >= WINDOW_CAP_V:
                break
            w = min(2.0 * w, WINDOW_CAP_V)

    for axis_sl, axis_sr in windows:
        diag = _diagram_on_grid(caps, axis_sl, axis_sr, gmap, kappa)
        if v_ranges is not None or len(diag.boundaries) >= MIN_LINES:
            return diag
    return diag


def _theta_deg(dv_sl, dv_sr):
    """Transfer angle; branch keeps theta(a,b) + theta(b,a) = 90 exactly."""
    if dv_sr == dv_sl:
        return 45.0
    if dv_sr < dv_sl:
        return math.degrees(math.atan(dv_sr / dv_sl))
    return 90.0 - math.degrees(math.atan(dv_sl / dv_sr))


def _edge_crossings(ga, gb, va, vb, step):
    """Degeneracy crossings on the grid edges from (ga, va) to (gb, vb).

    The line x <-> x+1 sits where g = -step * (x + 1/2), and g is linear over
    bias space, so each edge has the exact affine root for every line between
    its end labels.  Returns the lines k and the crossing points, edges in
    row-major order and k rising within an edge.
    """
    la = integer_minimizer(-ga / step)
    lb = integer_minimizer(-gb / step)
    ka, kb = np.minimum(la, lb), np.maximum(la, lb)
    edges = np.nonzero(kb > ka)
    n = (kb - ka)[edges]
    k = np.repeat(ka[edges], n) + np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    c = step * (k + 0.5)
    f0 = np.repeat(ga[edges], n) + c
    f1 = np.repeat(gb[edges], n) + c
    with np.errstate(divide="ignore", invalid="ignore"):
        t = f0 / (f0 - f1)
    keep = (f0 != f1) & (t >= 0.0) & (t <= 1.0)
    t = t[keep, None]
    pa = np.repeat(va[edges], n, axis=0)[keep]
    pb = np.repeat(vb[edges], n, axis=0)[keep]
    return k[keep], (1 - t) * pa + t * pb


def _crossing_points(g, v, step):
    """Crossing points of the grid edges by line k, as {k: (m, 2) array}.

    Within a line the first-axis edges come first, then the second-axis
    edges, each in row-major order.
    """
    k_a, pts_a = _edge_crossings(g[:-1, :], g[1:, :], v[:-1, :], v[1:, :], step)
    k_b, pts_b = _edge_crossings(g[:, :-1], g[:, 1:], v[:, :-1], v[:, 1:], step)
    ks = np.concatenate([k_a, k_b])
    order = np.argsort(ks, kind="stable")
    lines, starts = np.unique(ks[order], return_index=True)
    return dict(zip(lines.tolist(), np.split(np.concatenate([pts_a, pts_b])[order], starts[1:])))


def _diagram_on_grid(caps, axis_sl, axis_sr, gmap, kappa) -> StabilityDiagram:
    vsl, vsr = np.meshgrid(axis_sl, axis_sr, indexing="ij")
    g = gmap[0] * vsl + gmap[1] * vsr
    xhat = -g / (Q_E * kappa)
    grid = integer_minimizer(xhat)
    points = _crossing_points(g, np.stack([vsl, vsr], axis=-1), Q_E * kappa)

    boundaries = []
    for k, pts in sorted(points.items()):
        if len(pts) < 2:
            continue
        res, p0, p1 = _fit_line(pts)
        boundaries.append(BoundaryLine(k, tuple(p0), tuple(p1), res, len(pts)))

    metrics = _degeneracy_metrics(gmap, kappa) if len(boundaries) >= 2 else (None,) * 3
    return StabilityDiagram(axis_sl, axis_sr, grid, boundaries, *metrics)


def transfer_metrics(dv_sl: float, dv_sr: float, v_sl_min: float):
    """Charge-transfer angle (degrees) and periodicity in dB re the map minimum."""
    if dv_sl <= 0 or dv_sr <= 0 or v_sl_min <= 0:
        raise AnalysisError("transfer metrics need positive periodicities")
    return _theta_deg(dv_sl, dv_sr), 20.0 * math.log10(dv_sl / v_sl_min)


def coulomb_period(c_g: float) -> float:
    """Coulomb-blockade oscillation period e / C_g, volts."""
    if c_g <= 0:
        raise AnalysisError("gate capacitance must be positive")
    return Q_E / c_g


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepMap:
    rows: list[dict] = field(default_factory=list)

    def ok_rows(self):
        return [r for r in self.rows if r["status"] == "ok"]


def _cell_solver(spec, mode, h_max_nm):
    """The Maxwell solve of one sweep cell, as a function of its moved device.

    A sweep moves only the two dots.  The device without them is meshed once
    here, in both modes.  An accelerated cell solves its whole moved device.
    A dense one hands its two dots, meshed alone, to the factor of the static
    side (assembled, factored and grouped by frame here; empty in a device of
    nothing but dots), which solves for the dot panels only (DenseFactor.maxwell).
    Neither solve takes roles: _cell_metrics reduces by the moved device's.
    A static side that cannot be meshed or factored, or is over the dense guard
    (checked before it is meshed), would fail every cell for the one reason,
    so its error is raised here; a dense cell meets the guard before its dots
    are meshed.
    """
    dots = {spec.group_of_role("d1"), spec.group_of_role("d2")}
    static = replace(spec, boxes=tuple(b for b in spec.boxes if b.group not in dots))
    if mode != "dense":
        if static.boxes:
            mesh_device(static, h_max_nm)  # a static box that cannot be meshed fails here
        return lambda moved: solve(mesh_device(moved, h_max_nm), mode, spec.epsilon_r)
    check_dense_size(panel_count(static, h_max_nm))
    factor = DenseFactor(mesh_device(static, h_max_nm) if static.boxes
                         else PanelMesh(np.empty((0, 4, 3)), (), ()), spec.epsilon_r)

    def cell(moved):
        moving = replace(moved, boxes=tuple(b for b in moved.boxes if b.group in dots))
        check_dense_size(factor.mesh.n_panels + panel_count(moving, h_max_nm))
        return factor.maxwell(mesh_device(moving, h_max_nm))

    return cell


def _cell_metrics(spec, dx, dy, r_nm, maxwell_of):
    """One sweep row.  Its dV_SL, dV_SR and theta are those stability_diagram
    reports in its auto window, without drawing the grid: that window stops
    below the 20 V cap only once it holds three lines, and at the cap fewer
    than two lines cross it when (|g_SL| + |g_SR|) * 20 V <= q_e * kappa / 2.
    """
    moved = transform_dots(spec, dx, dy, r_nm)
    maxwell = maxwell_of(moved)
    caps = reduce_caps(maxwell, moved.roles)
    gmap, kappa = _grid_terms(caps)
    in_view = np.abs(gmap).sum() * WINDOW_CAP_V > Q_E * kappa / 2
    dv_sl, dv_sr, theta = _degeneracy_metrics(gmap, kappa) if in_view else (None,) * 3
    row = {
        "C_SLd1_aF": caps.gate("d1", "SL") / AF,
        "C_SRd2_aF": caps.gate("d2", "SR") / AF,
        "dV_SL_mV": dv_sl / MV if dv_sl else None,
        "dV_SR_mV": dv_sr / MV if dv_sr else None,
        "theta_deg": theta,
    }
    if caps.has("i1"):
        row["C_d1i1_aF"] = caps.mutual("d1", "i1") / AF
        row["delta_q_e"] = delta_q(caps)
    else:
        row["C_d1i1_aF"] = None
        row["delta_q_e"] = None
    return row


_CELL_ERRORS = (DeviceError, ChargingError, SolverError, AssemblyError, AnalysisError)


def _run_cells(spec, cells, place, mode, h_max_nm, jobs):
    """Solve spec at every cell, on a thread_map at most jobs wide.

    place(cell) gives the cell's dot placement (dx, dy, R).  Rows keep the
    order of cells, so the sweep does not depend on jobs.  Each cell's BLAS
    and kernel calls run on its own thread: the cells are the parallelism.
    """
    if jobs < 1:
        raise AnalysisError(f"jobs must be at least 1, got {jobs}")
    circuit_roles(spec.roles)  # a shared role would fail every cell, after its solve
    maxwell_of = _cell_solver(spec, mode, h_max_nm)

    def safe(cell):
        try:
            row = _cell_metrics(spec, *place(cell), maxwell_of)
            row["status"] = "ok"
        except _CELL_ERRORS as e:
            row = {"status": "failed", "error": f"{type(e).__name__}: {e}"}
        return row

    rows = thread_map(safe, cells, jobs)
    sweep = SweepMap()
    for cell, row in zip(cells, rows):
        sweep.rows.append({**cell, **row})
    _fill_db(sweep)
    return sweep


def _fill_db(sweep: SweepMap):
    ok = [r["dV_SL_mV"] for r in sweep.ok_rows() if r.get("dV_SL_mV")]
    ref = min(ok) if ok else None
    for r in sweep.rows:
        v = r.get("dV_SL_mV")
        r["dV_SL_dB"] = 20.0 * math.log10(v / ref) if (ref and v) else None


def misalign_sweep(spec, dx_list, dy_list, mode="dense", h_max_nm=DEFAULT_H_MAX_NM,
                   jobs=1) -> SweepMap:
    """Solve the device over the (dx, dy) misalignment grid and record transfer metrics.

    Cells run over dx_list, then dy_list within each dx, both dots R x R x R/4
    with R the d1 box's x size.  Failed cells have status "failed", never interpolated.
    """
    r_nm = spec.boxes[[b.role for b in spec.boxes].index("d1")].dims_nm[0]
    cells = [{"dx_nm": float(dx), "dy_nm": float(dy)} for dx in dx_list for dy in dy_list]
    if not cells:
        raise AnalysisError("empty misalignment grid")
    return _run_cells(spec, cells, lambda c: (c["dx_nm"], c["dy_nm"], r_nm),
                      mode, h_max_nm, jobs)


def dotsize_sweep(spec, r_list, mode="dense", h_max_nm=DEFAULT_H_MAX_NM, jobs=1) -> SweepMap:
    """Solve the aligned device for each dot size R and record coupling and delta q."""
    if not r_list or any(r <= 0 for r in r_list):
        raise AnalysisError("dot sizes must be positive")
    cells = [{"R_nm": float(r)} for r in r_list]
    return _run_cells(spec, cells, lambda c: (0.0, 0.0, c["R_nm"]),
                      mode, h_max_nm, jobs)


# ---------------------------------------------------------------------------
# measured-value comparison (Coulomb-blockade periods)
# ---------------------------------------------------------------------------

def compare_report(maxwell, measured: dict) -> dict:
    """Calculated vs measured capacitances, with Coulomb-blockade periods.

    measured: {"pairs": [{"a": <name-or-role>, "b": ..., "measured_aF": x,
    "sd_aF": s}, ...]}.  This is a report, not a gate: absolute values carry
    the uniform-permittivity approximation.
    """
    roles = maxwell.roles or {}

    def resolve(key):
        if key in maxwell.conductor_names:
            return key
        holders = [g for g, r in roles.items() if r == key]
        if len(holders) != 1:
            raise AnalysisError(f"role {key!r} is held by {', '.join(map(repr, holders))}; name one"
                                if holders else f"unknown conductor or role {key!r}")
        return holders[0]

    rows = []
    for pair in measured.get("pairs", []):
        a, b = resolve(pair["a"]), resolve(pair["b"])
        calc = -maxwell.entry(a, b) / AF
        row = {
            "a": pair["a"], "b": pair["b"],
            "calculated_aF": calc,
            "period_mV": coulomb_period(calc * AF) / MV if calc > 0 else None,
        }
        if "measured_aF" in pair:
            meas = float(pair["measured_aF"])
            sd = float(pair.get("sd_aF", 0.0))
            row["measured_aF"] = meas
            row["sd_aF"] = sd
            row["ratio"] = calc / meas if meas else None
            row["deviation_sd"] = (calc - meas) / sd if sd else None
        rows.append(row)
    return {"pairs": rows}
