"""Regenerate the benchmark's committed seed-0 references in bench/data/.

    python3 bench/make_refs.py

Run from a dqdcap checkout; it drives the CLI on the frozen device
(bench/data/reference_device.json, a copy of the packaged reference device
taken when the benchmark was defined) and takes about a minute:

- ref_dense_h6.json: extract --mode dense --h-max 6
- ref_dense_h5.json: extract --mode dense --h-max 5, the reference for the
  accelerated h = 5 workload on the same mesh
- ref_sweep_misalign_h16.csv: the sweep workload's own command

The caps JSON's solver.elapsed_s is a wall time, so it is dropped.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

REFERENCES = {
    "ref_dense_h6.json": ("extract", *workloads.WORKLOADS["extract-dense-h6"].args),
    "ref_dense_h5.json": ("extract", "--mode", "dense", "--h-max", "5", "--jobs", "1"),
    "ref_sweep_misalign_h16.csv": ("sweep-misalign",
                                   *workloads.WORKLOADS["sweep-misalign-h16"].args),
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from dqdcap.cli import run

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, (command, *flags) in REFERENCES.items():
            out = Path(tmp) / name
            if run([command, "--geometry", str(workloads.DEVICE), "--out", str(out), *flags]):
                print(f"error: {command} failed for {name}", file=sys.stderr)
                return 1
            if out.suffix == ".json":
                caps = json.loads(out.read_text(encoding="utf-8"))
                caps["solver"].pop("elapsed_s", None)
                out.write_text(json.dumps(caps, indent=2) + "\n", encoding="utf-8")
            shutil.copy(out, workloads.DATA / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
