"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import csv
import math
import time
from importlib import resources

import numpy as np
import pytest

from dqdcap.analysis import coulomb_period, stability_diagram, transfer_metrics
from dqdcap.capsolve import solve_accelerated, solve_dense
from dqdcap.charging import (
    Bias,
    ModelCaps,
    config_energy,
    delta_q,
    reduce_caps,
)
from dqdcap.cli import run as cli_run
from dqdcap.constants import AF, EPS0, MV, NM
from dqdcap.geometry import mesh_device, sphere_mesh, transform_dots
from dqdcap.reference import build_reference_device
from dqdcap.validation import (
    brute_force_stable_config,
    degeneracy_bias,
    pattern_shift_delta_q,
    random_model_caps,
)
from dqdcap.charging import stable_config

H_REF = 10.0
SPHERE_C = 4.0 * np.pi * EPS0 * 10.0 * NM  # 1.1127 aF


def report(num, text, ok, detail=""):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {text}  {detail}")
    assert ok, f"criterion {num}: {text} ({detail})"


@pytest.fixture(scope="module")
def spec():
    return build_reference_device()


@pytest.fixture(scope="module")
def dense_ref(spec):
    return solve_dense(mesh_device(spec, H_REF), spec.epsilon_r)


@pytest.fixture(scope="module")
def accel_ref(spec):
    return solve_accelerated(mesh_device(spec, H_REF), spec.epsilon_r)


@pytest.fixture(scope="module")
def caps_ref(spec, dense_ref):
    return reduce_caps(dense_ref, spec.roles)


@pytest.fixture(scope="module")
def caps_at(spec):
    cache = {}

    def get(dx=0.0, dy=0.0, r=40.0):
        key = (dx, dy, r)
        if key not in cache:
            moved = transform_dots(spec, dx, dy, r)
            m = solve_dense(mesh_device(moved, H_REF), spec.epsilon_r)
            cache[key] = reduce_caps(m, moved.roles)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def full_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "misalign.csv"
    ref = resources.files("dqdcap.data").joinpath("reference_device.json")
    t0 = time.perf_counter()
    code = cli_run(["sweep-misalign", "--geometry", str(ref), "--out", str(out),
                    "--dx", "-90:90:10", "--dy", "-50:50:10",
                    "--mode", "dense", "--h-max", "16", "--jobs", "8"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    return rows, elapsed


def test_criterion_1_sphere_capacitance_both_modes():
    mesh = sphere_mesh(10.0, 16)
    assert mesh.n_panels >= 1536
    times, errs = {}, {}
    for mode, solver in (("dense", solve_dense), ("accelerated", solve_accelerated)):
        t0 = time.perf_counter()
        m = solver(mesh, 1.0)
        times[mode] = time.perf_counter() - t0
        errs[mode] = abs(m.entries[0, 0] - SPHERE_C) / SPHERE_C
    ok = all(e <= 0.02 for e in errs.values()) and all(t < 30.0 for t in times.values())
    report(1, "isolated sphere within 2% of 1.1127 aF in under 30 s, both modes", ok,
           f"errs {errs['dense']:.2e}/{errs['accelerated']:.2e}, "
           f"times {times['dense']:.1f}/{times['accelerated']:.1f} s")


def test_criterion_2_maxwell_properties(dense_ref):
    m = dense_ref.entries
    diag = np.diag(m)
    tol = 1e-3 * diag.max()
    ok = (dense_ref.asymmetry <= 0.02
          and np.all(diag > 0)
          and (m - np.diag(diag)).max() <= tol
          and m.sum(axis=1).min() >= -tol)
    report(2, "reference-device Maxwell properties at h_max = 10 nm", ok,
           f"asymmetry {dense_ref.asymmetry:.2e}, worst off-diag "
           f"{(m - np.diag(diag)).max() / AF:.2e} aF, min row sum {m.sum(axis=1).min() / AF:.3f} aF")


def test_criterion_3_accelerated_matches_and_outruns_dense(spec, dense_ref, accel_ref):
    rel = np.abs(accel_ref.entries - dense_ref.entries) / np.abs(dense_ref.entries)
    ok_entries = rel.max() <= 0.01

    mesh16 = mesh_device(spec, 3.9)
    assert 15000 <= mesh16.n_panels <= 18000
    t0 = time.perf_counter()
    solve_accelerated(mesh16, spec.epsilon_r)
    t_acc = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_dense(mesh16, spec.epsilon_r)
    t_dense = time.perf_counter() - t0
    ok = ok_entries and t_acc < t_dense
    report(3, "accelerated within 1% of dense; faster at a 16k-panel refinement", ok,
           f"max rel {rel.max():.2e}; {mesh16.n_panels} panels: "
           f"accel {t_acc:.0f} s vs dense {t_dense:.0f} s")


def test_criterion_4_aligned_symmetry(caps_ref):
    diag = stability_diagram(caps_ref)
    ratio = caps_ref.gate("d1", "SL") / caps_ref.gate("d2", "SR")
    ok = abs(diag.theta_deg - 45.0) <= 1.0 and abs(ratio - 1.0) <= 0.02
    report(4, "aligned device: theta = 45 +- 1 deg and C_SLd1/C_SRd2 = 1.00 +- 0.02", ok,
           f"theta {diag.theta_deg:.3f} deg, ratio {ratio:.4f}")


def test_criterion_5_misalignment_trend(caps_at):
    thetas = []
    for dx in range(-50, 51, 10):
        caps = caps_at(dx=float(dx))
        thetas.append(stability_diagram(caps).theta_deg)
    monotone = all(a > b for a, b in zip(thetas, thetas[1:]))
    caps50 = caps_at(dx=-50.0)
    ratio = caps50.gate("d1", "SL") / caps50.gate("d2", "SR")
    ok = monotone and abs(ratio - 1.93) <= 0.35 * 1.93
    report(5, "theta monotone decreasing over dx = -50..+50; (-50,0) ratio near 1.93 +- 35%",
           ok, f"theta {thetas[0]:.1f}..{thetas[-1]:.1f} deg, ratio {ratio:.2f}")


def test_criterion_6_absolute_bands(caps_ref, dense_ref):
    c_sld1 = caps_ref.gate("d1", "SL") / AF
    ok = 2.31 / 2.0 <= c_sld1 <= 2.31 * 2.0
    table = {"B": 25.0, "SL": 24.3, "SR": 10.3, "g1": 23.4}
    calc = {}
    for gate, ref_val in table.items():
        calc[gate] = -dense_ref.entry(gate, "i1") / AF
        ok &= ref_val / 2.5 <= calc[gate] <= ref_val * 2.5
    report(6, "aligned C_SLd1 within 2x of 2.31 aF; SET1-gate caps within 2.5x of "
              "(25.0, 24.3, 10.3, 23.4) aF", ok,
           f"C_SLd1 {c_sld1:.2f} aF; SET1-gate " +
           ", ".join(f"{g} {v:.1f}" for g, v in calc.items()))


def test_criterion_7_delta_q_bands_and_trend(caps_at):
    dq = {r: delta_q(caps_at(r=float(r))) for r in (10, 20, 30, 40, 50)}
    ok = (0.025 <= dq[40] <= 0.10 and 0.01 <= dq[10] <= 0.04
          and all(dq[a] < dq[b] for a, b in zip((10, 20, 30, 40), (20, 30, 40, 50))))
    report(7, "delta q bands at R = 40/10 and strict increase over R = 10..50", ok,
           "dq " + ", ".join(f"{r}:{v:.4f}" for r, v in dq.items()))


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(2026)
    stable_ok = degeneracy_ok = dq_ok = True

    for _ in range(100):
        caps = random_model_caps(rng, island=bool(rng.integers(0, 2)))
        v_sl, v_sr = rng.uniform(-0.4, 0.4, 2)
        if stable_config(caps, v_sl, v_sr) != brute_force_stable_config(caps, v_sl, v_sr):
            stable_ok = False

    checked = 0
    while checked < 25:
        caps = random_model_caps(rng, island=False)
        origin = Bias(*rng.uniform(-0.2, 0.2, 2), 0.0, 0.0)
        direction = tuple(rng.uniform(-0.5, 0.5, 2)) + (0.0, 0.0)
        x = int(rng.integers(-2, 3))
        ts = np.linspace(0.0, 1.0, 101)

        def f(t):
            b = Bias(*(np.asarray(origin.vector) + t * np.asarray(direction)))
            return config_energy(caps, b, x) - config_energy(caps, b, x + 1)

        vals = np.array([f(t) for t in ts])
        flips = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        if len(flips) != 1:
            continue
        checked += 1
        t_star = degeneracy_bias(caps, (origin, direction), x)
        k = flips[0]
        if not (ts[k] - 0.01 <= t_star <= ts[k + 1] + 0.01):
            degeneracy_ok = False

    for _ in range(25):
        caps = random_model_caps(rng, island=True)
        if abs(delta_q(caps) - pattern_shift_delta_q(caps)) > 1e-6:
            dq_ok = False

    ok = stable_ok and degeneracy_ok and dq_ok
    report(8, "stable config, degeneracy roots and delta q agree with their oracles", ok,
           f"stable {stable_ok}, degeneracy {degeneracy_ok}, delta-q {dq_ok}")


def test_criterion_9_invariances(caps_ref, full_sweep):
    caps10 = ModelCaps(caps_ref.targets, caps_ref.cmat,
                       caps_ref.gates * np.where(
                           (np.arange(caps_ref.gates.shape[1]) == 2)[None, :]
                           & (np.array(caps_ref.targets) == "i1")[:, None], 10.0, 1.0))
    dq_scale = abs(pattern_shift_delta_q(caps10) - delta_q(caps_ref))
    dq_gates = max(abs(pattern_shift_delta_q(caps_ref, g) - delta_q(caps_ref))
                   for g in ("SL", "SR", "g1"))
    theta_sum_exact = all(
        transfer_metrics(a, b, 1.0)[0] + transfer_metrics(b, a, 1.0)[0] == 90.0
        for a, b in ((1.0, 7.3), (0.02, 0.011), (5.5, 5.5)))
    rows, _ = full_sweep
    dbs = [float(r["dV_SL_dB"]) for r in rows if r["dV_SL_dB"]]
    db_min_zero = min(dbs) == 0.0
    period = coulomb_period(23.4 * AF) / MV
    eq11_ok = abs(period - 6.847) < 5e-4
    ok = (dq_scale < 1e-9 and dq_gates < 1e-6 and theta_sum_exact
          and db_min_zero and eq11_ok)
    report(9, "delta-q invariances, exact theta complementarity, zero dB floor, e/C_g arithmetic",
           ok, f"scale {dq_scale:.1e}, gates {dq_gates:.1e}, dB min {min(dbs)}, "
               f"period {period:.4f} mV")


def test_criterion_10_convergence(spec):
    errs = []
    for k in (4, 8, 16):
        m = solve_dense(sphere_mesh(10.0, k), 1.0)
        errs.append(abs(m.entries[0, 0] - SPHERE_C))
    sphere_ok = errs[0] > errs[1] > errs[2]

    gaps = (10.0, 1.0, 0.1, 0.01, 0.001)
    c = {}
    for g in gaps:
        moved = spec.with_air_gap(g)
        m = solve_dense(mesh_device(moved, H_REF), spec.epsilon_r)
        caps = reduce_caps(m, spec.roles)
        c[g] = caps.gate("d1", "SL")
    dev = [abs(c[g] - c[0.001]) for g in gaps[:-1]]
    gap_ok = all(a > b for a, b in zip(dev, dev[1:])) and dev[-1] > 0
    ok = sphere_ok and gap_ok
    report(10, "sphere error decreases over refinements; air-gap deviation shrinks with the gap",
           ok, f"sphere errs {[f'{e / AF:.1e}' for e in errs]}, "
               f"gap devs {[f'{d / AF:.1e}' for d in dev]} aF")


def test_criterion_11_full_misalignment_sweep(full_sweep):
    rows, elapsed = full_sweep
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    ok = len(rows) == 209 and elapsed < 1800.0 and n_ok == 209
    report(11, "19x11 misalignment sweep (dense, coarse mesh, --jobs 8) under 30 min",
           ok, f"{len(rows)} rows ({n_ok} ok) in {elapsed / 60.0:.1f} min")


def _ninth_digit_unit(value):
    """One unit in the ninth significant digit of value, as %.9g prints it."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 8)


def test_full_sweep_is_point_symmetric(full_sweep):
    """The reference device maps onto itself under (x, y) -> (-x, -y) with d1, d2 and SL,
    SR swapped, and a cell moves both dots by (dx, dy).  So every printed cell equals its
    (-dx, -dy) partner with the roles swapped, a check on the mesher, the solve, the
    reduction and the closed-form metrics at once: C_SLd1 = C_SRd2', dV_SL = dV_SR' and
    theta + theta' = 90 deg, each within one unit in the ninth printed digit of the
    larger value (the measured gaps, in those units, are printed beside the bound)."""
    rows, _ = full_sweep
    cells = {(float(r["dx_nm"]), float(r["dy_nm"])): r for r in rows}
    assert len(cells) == 209
    worst = {"C": 0.0, "dV": 0.0, "theta": 0.0}
    for (dx, dy), row in cells.items():
        partner = cells[(-dx, -dy)]
        assert row["status"] == partner["status"] == "ok", (dx, dy)
        for key, a, b in (("C", "C_SLd1_aF", "C_SRd2_aF"), ("dV", "dV_SL_mV", "dV_SR_mV")):
            x, y = float(row[a]), float(partner[b])
            worst[key] = max(worst[key], abs(x - y) / _ninth_digit_unit(max(abs(x), abs(y))))
        x, y = float(row["theta_deg"]), float(partner["theta_deg"])
        worst["theta"] = max(worst["theta"], abs(x + y - 90.0) / _ninth_digit_unit(max(x, y)))
    print(f"point symmetry over {len(cells)} cells: worst gaps {worst} "
          "in units of the ninth printed digit, bound 1")
    assert all(gap <= 1.0 for gap in worst.values()), worst
