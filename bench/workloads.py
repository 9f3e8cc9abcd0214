"""Workload table, seeded inputs and output checks for the dqdcap benchmark.

Standard library only: the benchmark's parent process imports this module
without loading numpy, and the checks read the CLI's artifacts as plain
JSON/CSV so they do not depend on the code they check.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
DEVICE = DATA / "reference_device.json"

# Dense vs a committed dense reference: the same arithmetic, so only the
# 9-digit artifact rounding and summation order may differ.
DENSE_REF_BOUND = 1e-6
# README's dense/accelerated agreement (acceptance criterion 3).
ACCEL_REF_BOUND = 0.01
# Acceptance criterion 2, checked on every seed.
ASYMMETRY_MAX = 0.02
OFFDIAG_FRACTION = 1e-3
# Seeds other than 0 shift both dots by up to this much in x and y.
SEED_SHIFT_NM = 4.0
# The sweep's dV_SL_dB column is 20 log10 of dV_SL_mV over its grid minimum;
# it is 0 at that cell, so it is compared through dV_SL_mV instead.
SWEEP_FIELDS = ("C_SLd1_aF", "C_SRd2_aF", "dV_SL_mV", "dV_SR_mV", "theta_deg", "delta_q_e")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # CLI subcommand
    out_name: str            # artifact written per pass
    args: tuple              # flags after --geometry/--out
    quick_args: tuple        # reduced input: the set-up warm-up pass and --quick runs
    reference: str           # committed seed-0 output in data/
    ref_bound: float
    size: int                # panels (extract) or cells (sweep) per pass
    quick_size: int

    @property
    def is_sweep(self) -> bool:
        return self.command == "sweep-misalign"

    def argv(self, device, out_dir, quick=False):
        args = self.quick_args if quick else self.args
        return [self.command, "--geometry", str(device),
                "--out", str(Path(out_dir) / self.out_name), *args]


_SWEEP_COMMON = ("--mode", "dense", "--h-max", "16", "--jobs", "2")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="extract-dense-h6",
        command="extract", out_name="caps.json",
        args=("--mode", "dense", "--h-max", "6", "--jobs", "1"),
        quick_args=("--mode", "dense", "--h-max", "16", "--jobs", "1"),
        reference="ref_dense_h6.json", ref_bound=DENSE_REF_BOUND,
        size=6832, quick_size=1192,
    ),
    Workload(
        name="extract-accel-h5",
        command="extract", out_name="caps.json",
        args=("--mode", "accelerated", "--h-max", "5", "--jobs", "1"),
        quick_args=("--mode", "accelerated", "--h-max", "16", "--jobs", "1"),
        reference="ref_dense_h5.json", ref_bound=ACCEL_REF_BOUND,
        size=9224, quick_size=1192,
    ),
    Workload(
        name="sweep-misalign-h16",
        command="sweep-misalign", out_name="sweep.csv",
        args=("--dx", "-90:90:30", "--dy", "-50:50:50", *_SWEEP_COMMON),
        quick_args=("--dx", "-30:30:30", "--dy", "0", *_SWEEP_COMMON),
        reference="ref_sweep_misalign_h16.csv", ref_bound=DENSE_REF_BOUND,
        size=21, quick_size=3,
    ),
)}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def seed_offset(seed: int) -> tuple[float, float]:
    """Misalignment (dx, dy) in nm applied to both dots; seed 0 is the reference device."""
    if seed == 0:
        return 0.0, 0.0
    rng = random.Random(seed)
    return (round(rng.uniform(-SEED_SHIFT_NM, SEED_SHIFT_NM), 3),
            round(rng.uniform(-SEED_SHIFT_NM, SEED_SHIFT_NM), 3))


def device_for_seed(seed: int) -> dict:
    """The frozen reference device with both dots shifted by seed_offset(seed)."""
    device = json.loads(DEVICE.read_text(encoding="utf-8"))
    dx, dy = seed_offset(seed)
    for box in device["boxes"]:
        if box["role"] in ("d1", "d2"):
            box["min_nm"][0] += dx
            box["min_nm"][1] += dy
    return device


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _rel_err(x: float, ref: float) -> float:
    if ref == 0.0:
        return 0.0 if x == 0.0 else float("inf")
    return abs(x - ref) / abs(ref)


def check_maxwell(caps: dict, ref: dict | None, bound: float, panels: int):
    """Check one extract artifact; returns (failure messages, max_rel_err or None).

    Every seed gets the criterion-2 Maxwell properties and the panel count;
    a reference, when given, is compared entry by entry as in criterion 3.
    """
    fails = []
    m = caps["entries_aF"]
    n = len(m)
    diag = [m[i][i] for i in range(n)]
    tol = OFFDIAG_FRACTION * max(diag)
    if caps["solver"].get("n_panels") != panels:
        fails.append(f"{caps['solver'].get('n_panels')} panels, expected {panels}")
    if caps["asymmetry"] > ASYMMETRY_MAX:
        fails.append(f"asymmetry {caps['asymmetry']:.3g} > {ASYMMETRY_MAX}")
    if min(diag) <= 0:
        fails.append("non-positive diagonal entry")
    off = max(m[i][j] for i in range(n) for j in range(n) if i != j)
    if off > tol:
        fails.append(f"positive off-diagonal {off:.3g} aF")
    if min(sum(row) for row in m) < -tol:
        fails.append("negative row sum")
    if ref is None:
        return fails, None
    if caps["conductor_names"] != ref["conductor_names"]:
        fails.append("conductor names differ from the reference")
        return fails, None
    r = ref["entries_aF"]
    err, worst = max(((_rel_err(m[i][j], r[i][j]), (i, j)) for i in range(n) for j in range(n)),
                     key=lambda e: e[0])
    if err > bound:
        a, b = (caps["conductor_names"][k] for k in worst)
        fails.append(f"{a}-{b} entry {m[worst[0]][worst[1]]:.6g} aF is {err:.3%} "
                     f"off the reference {r[worst[0]][worst[1]]:.6g} aF (bound {bound:.2%})")
    return fails, err


def read_sweep(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_sweep(rows: list[dict], ref: list[dict] | None, bound: float, cells: int):
    """Check one sweep CSV; returns (failure messages, failed cell count, max_rel_err or None).

    Every row must be `ok` with every metric present; delta_q itself raises
    (and fails the row) when it disagrees with its electrostatic oracle.
    """
    fails = []
    bad = set()
    if len(rows) != cells:
        fails.append(f"{len(rows)} rows, expected {cells}")
        bad.update(range(len(rows), cells))
    for k, row in enumerate(rows):
        if row["status"] != "ok" or any(row[f] == "" for f in SWEEP_FIELDS):
            fails.append(f"cell ({row['dx_nm']}, {row['dy_nm']}) status {row['status']}")
            bad.add(k)
    if ref is None or len(rows) != len(ref):
        return fails, len(bad), None
    err = 0.0
    for k, (row, rrow) in enumerate(zip(rows, ref)):
        if k in bad:
            continue
        if (row["dx_nm"], row["dy_nm"]) != (rrow["dx_nm"], rrow["dy_nm"]):
            fails.append(f"row {k} is cell ({row['dx_nm']}, {row['dy_nm']}), "
                         f"reference has ({rrow['dx_nm']}, {rrow['dy_nm']})")
            bad.add(k)
            continue
        e = max(_rel_err(float(row[f]), float(rrow[f])) for f in SWEEP_FIELDS)
        err = max(err, e)
        if e > bound:
            fails.append(f"cell ({row['dx_nm']}, {row['dy_nm']}) is {e:.3g} off the reference")
            bad.add(k)
    return fails, len(bad), err


def same_artifact(a: Path, b: Path) -> bool:
    """Byte identity, except the caps JSON's solver.elapsed_s wall time."""
    if a.suffix != ".json":
        return a.read_bytes() == b.read_bytes()
    ja, jb = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    for j in (ja, jb):
        j.get("solver", {}).pop("elapsed_s", None)
    return ja == jb
