"""Oracles for the closed forms in `charging` (energy scans and secant steps
through configuration energies), and the built-in checks behind `validate`."""

from __future__ import annotations

import math

import numpy as np

from .analysis import coulomb_period, transfer_metrics
from .capsolve import solve
from .charging import (
    GATES,
    Bias,
    ChargingError,
    ModelCaps,
    compensate,
    config_energy,
    delta_q,
    excess_vector,
    integer_minimizer,
    stable_config,
)
from .constants import AF, EPS0, NM, Q_E
from .geometry import concat_meshes, plate_pair_mesh, sphere_mesh


def random_model_caps(rng, island=True):
    """Random physical ModelCaps: built from a non-negative coupling network,
    so the reduced matrices are diagonally dominant and positive definite."""
    targets = ("d1", "d2", "i1") if island else ("d1", "d2")
    t = len(targets)
    ground = rng.uniform(2.0, 12.0, t)
    mutual = np.zeros((t, t))
    for i in range(t):
        for j in range(i + 1, t):
            mutual[i, j] = mutual[j, i] = rng.uniform(0.0, 3.0)
    gates = rng.uniform(0.0, 4.0, (t, 4))
    if island:
        gates[2, 2] = rng.uniform(1.0, 6.0)  # keep g1 usable for compensation
    csum = ground + mutual.sum(axis=1) + gates.sum(axis=1)
    cmat = (np.diag(csum) - mutual) * AF
    return ModelCaps(targets, cmat, gates * AF)


def brute_force_stable_config(caps, v_sl, v_sr, half=10):
    """Minimum-energy x by scanning |x| <= half, doubling half until the minimizer is interior.

    The energy is convex in x, so a minimizer inside the scan is global.
    """
    v_g1, v_g2 = compensate(v_sl, v_sr, caps)
    bias = Bias(v_sl, v_sr, v_g1, v_g2)
    while True:
        best = min(
            (config_energy(caps, bias, x), abs(x), x) for x in range(-half, half + 1)
        )
        if abs(best[2]) < half:
            return best[2]
        half *= 2


def _affine_root(f, t_lo, t_hi):
    """Root of an affine f on [t_lo, t_hi]: one secant step through the ends."""
    f_lo, f_hi = f(t_lo), f(t_hi)
    if f_lo == 0.0:
        return t_lo
    if f_hi == 0.0:
        return t_hi
    if (f_lo > 0) == (f_hi > 0):
        raise ChargingError("no sign change on the bias segment")
    return t_lo - f_lo * (t_hi - t_lo) / (f_hi - f_lo)


def degeneracy_bias(caps: ModelCaps, ray, x: int) -> float:
    """Root t* of E_x = E_{x+1} along the segment bias0 + t * direction, t in [0, 1].

    The energy difference is affine along any bias segment, so the secant
    through the segment ends is the exact root, to rounding.
    """
    bias0, direction = ray
    d = np.asarray(direction.vector if isinstance(direction, Bias) else direction, dtype=float)
    b0 = np.asarray(bias0.vector)
    if not d.any():
        raise ChargingError("degeneracy ray has zero direction")

    def f(t):
        b = Bias(*(b0 + t * d))
        return config_energy(caps, b, x) - config_energy(caps, b, x + 1)

    return _affine_root(f, 0.0, 1.0)


def _island_row(caps: ModelCaps):
    """C^-1 e_3: the SET1-island column of the inverse 3x3 capacitance matrix."""
    return np.linalg.solve(caps.energy_matrix(island=True), np.eye(3)[2])


def _best_y(caps, bias, x):
    """Minimum-energy island configuration at fixed dot configuration x.

    With a = Qtilde - q_e (-x, x, 0) the continuous minimizer is
    e_3^T C^-1 a / (q_e (C^-1)_33), rounded with ties to the smallest |y|.
    """
    a = caps.gate_block(island=True) @ np.asarray(bias.vector) - Q_E * excess_vector(x, 0)
    w = _island_row(caps)
    return int(integer_minimizer((w @ a) / (Q_E * w[2])))


def _transfer_points(caps, base: Bias, gate: str, x: int, v_range) -> list[float]:
    """Sweep-gate values where the stable island charge y steps by one."""
    lo, hi = float(v_range[0]), float(v_range[1])
    if not hi > lo:
        raise ChargingError("empty sweep range")
    gi = GATES.index(gate)
    b0 = np.asarray(base.vector)

    def bias_at(v):
        b = b0.copy()
        b[gi] = v
        return Bias(*b)

    y_lo = _best_y(caps, bias_at(lo), x)
    y_hi = _best_y(caps, bias_at(hi), x)
    if y_lo == y_hi:
        return []
    step = 1 if y_hi > y_lo else -1
    points = []
    for k in range(y_lo, y_hi, step):
        y_a, y_b = (k, k + 1) if step > 0 else (k - 1, k)

        def f(v):
            b = bias_at(v)
            return config_energy(caps, b, x, y_a) - config_energy(caps, b, x, y_b)

        points.append(_affine_root(f, lo, hi))
    return sorted(points)


def set_transfer_points(caps: ModelCaps, v_sl, v_sr, v_g2, x: int, vg1_range) -> list[float]:
    """V_g1 values where the stable SET1 island charge changes by one electron.

    The dot configuration [-x, x] is held fixed and SET2 is assumed
    compensated (its bias enters through v_g2).
    """
    if not caps.has("i1"):
        raise ChargingError("set_transfer_points requires an i1 island row")
    return _transfer_points(caps, Bias(v_sl, v_sr, 0.0, v_g2), "g1", x, vg1_range)


def pattern_shift_delta_q(caps: ModelCaps, sweep_gate: str = "g1") -> float:
    """delta_q as the shift of the SET1 transfer-point pattern, the oracle for `delta_q`.

    The island transfer points along the sweep gate are found for dot
    configurations [0, 0] and [-1, 1]; their shift, in units of the pattern
    period, is folded into [0, 0.5].
    """
    w = _island_row(caps)
    g_col = caps.gate_block(island=True)[:, GATES.index(sweep_gate)]
    lever = float(w @ g_col) / (Q_E * w[2])  # d yhat / d V_gate
    if abs(lever) <= 1e-30:
        raise ChargingError(f"degenerate transfer period: zero {sweep_gate} island coupling")
    half = 1.3 / abs(lever)  # window holding 2-3 transfer points

    pts0 = _transfer_points(caps, Bias(), sweep_gate, 0, (-half, half))
    pts1 = _transfer_points(caps, Bias(), sweep_gate, 1, (-half, half))
    if len(pts0) < 2 or not pts1:
        raise ChargingError("transfer-point window too narrow to measure a period")
    period = float(np.median(np.diff(pts0)))
    # a lever this small puts the transfer points so far out that they round together
    if not (math.isfinite(period) and period > 0.0):
        raise ChargingError(f"degenerate transfer period: {period!r} V along {sweep_gate}")
    shift = (pts1[0] - pts0[0]) / period % 1.0
    return min(shift, 1.0 - shift)


def run_validation():
    """Return a list of (name, passed, detail) oracle checks."""
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # isolated sphere vs 4 pi eps0 R, both modes
    exact = 4.0 * np.pi * EPS0 * 10.0 * NM
    mesh = sphere_mesh(10.0, 8)
    for mode in ("dense", "accelerated"):
        m = solve(mesh, mode, 1.0)
        rel = abs(m.entries[0, 0] - exact) / exact
        check(f"sphere capacitance ({mode})", rel < 0.02, f"rel err {rel:.2e}")

    # two-sphere mutual vs leading-order 4 pi eps0 R^2 / d
    pair = concat_meshes([
        sphere_mesh(5.0, 6, name="S1"),
        sphere_mesh(5.0, 6, center_nm=(100.0, 0.0, 0.0), name="S2"),
    ])
    m = solve(pair, "dense", 1.0)
    mut = -m.entries[0, 1]
    expect = 4.0 * np.pi * EPS0 * (5.0 * NM) ** 2 / (100.0 * NM)
    rel = abs(mut - expect) / expect
    check("two-sphere mutual capacitance", rel < 0.10, f"rel err {rel:.2e}")

    # parallel plates: fringing only adds to eps0 A / d
    plates = plate_pair_mesh(100.0, 5.0, 5.0)
    m = solve(plates, "dense", 1.0)
    lower = EPS0 * (100.0 * NM) ** 2 / (5.0 * NM)
    check("parallel-plate lower bound", -m.entries[0, 1] >= lower,
          f"{-m.entries[0, 1] / AF:.2f} aF >= {lower / AF:.2f} aF")

    # toy network: degeneracy bias closed form
    cm = np.array([[2.0, -1.0], [-1.0, 2.0]]) * AF
    g = np.zeros((2, 4))
    g[0, 0] = g[1, 1] = 1.0 * AF
    toy = ModelCaps(("d1", "d2"), cm, g)
    t = degeneracy_bias(toy, (Bias(), (-0.2, 0.2, 0.0, 0.0)), 0)
    v = -0.2 * t
    expect_v = -Q_E / (2.0 * AF)
    check("toy-network degeneracy bias", abs(v - expect_v) < 1e-6,
          f"{v * 1e3:.4f} mV vs {expect_v * 1e3:.4f} mV")

    # stable configuration vs exhaustive scan
    rng = np.random.default_rng(20240817)
    agree = True
    for _ in range(20):
        caps = random_model_caps(rng)
        v_sl, v_sr = rng.uniform(-0.3, 0.3, 2)
        if stable_config(caps, v_sl, v_sr) != brute_force_stable_config(caps, v_sl, v_sr):
            agree = False
            break
    check("stable config vs brute force", agree)

    # delta q closed form vs the transfer-point pattern shift
    rng = np.random.default_rng(20240818)
    worst = max(abs(delta_q(caps) - pattern_shift_delta_q(caps))
                for caps in (random_model_caps(rng) for _ in range(5)))
    check("delta q closed form vs transfer-point pattern", worst < 1e-12,
          f"max |diff| {worst:.1e} e over 5 draws")

    # metric arithmetic
    th_a, _ = transfer_metrics(2.0, 3.7, 1.0)
    th_b, _ = transfer_metrics(3.7, 2.0, 1.0)
    check("transfer angle complementarity", th_a + th_b == 90.0)
    period = coulomb_period(23.4 * AF)
    check("Coulomb period arithmetic", abs(period * 1e3 - 6.847) < 5e-4,
          f"{period * 1e3:.4f} mV")
    return checks
