"""Built-in oracle checks behind the `validate` subcommand."""

from __future__ import annotations

import numpy as np

from .analysis import coulomb_period, transfer_metrics
from .capsolve import solve
from .charging import (
    Bias,
    ModelCaps,
    compensate,
    config_energy,
    degeneracy_bias,
    delta_q,
    delta_q_oracle,
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


def run_validation(rng_seed=20240817):
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
    rng = np.random.default_rng(rng_seed)
    agree = True
    for _ in range(20):
        caps = random_model_caps(rng)
        v_sl, v_sr = rng.uniform(-0.3, 0.3, 2)
        if stable_config(caps, v_sl, v_sr) != brute_force_stable_config(caps, v_sl, v_sr):
            agree = False
            break
    check("stable config vs brute force", agree)

    # delta q dual route
    caps = random_model_caps(np.random.default_rng(rng_seed + 1))
    dq = delta_q(caps)
    check("delta q pattern vs electrostatic oracle",
          abs(dq - delta_q_oracle(caps)) < 1e-6, f"delta_q {dq:.4f} e")

    # metric arithmetic
    th_a, _ = transfer_metrics(2.0, 3.7, 1.0)
    th_b, _ = transfer_metrics(3.7, 2.0, 1.0)
    check("transfer angle complementarity", th_a + th_b == 90.0)
    period = coulomb_period(23.4 * AF)
    check("Coulomb period arithmetic", abs(period * 1e3 - 6.847) < 5e-4,
          f"{period * 1e3:.4f} mV")
    return checks
