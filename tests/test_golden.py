"""Golden bytes: each command's artifacts are byte-identical to the files in data/golden/.

Each golden file is what the command beside it in RUNS writes, run through cli.run in a
directory that holds the packaged reference device and measured file; NAME.stdout is
the command's standard output.  The 1 MB stability grid is pinned by its sha256.  After
an intended change of output, regenerate the files (and print the grid's new sha256) with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
from importlib import resources
from pathlib import Path

from dqdcap.cli import run

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
DEVICE = ["--geometry", "reference_device.json"]
DENSE_CAPS = ["--caps", "caps_dense_h16.json"]

# (command, the golden files it writes)
RUNS = [
    (["extract", *DEVICE, "--out", "caps_dense_h16.json", "--h-max", "16"],
     ("caps_dense_h16.json",)),
    (["extract", *DEVICE, "--out", "caps_accel_h16.json", "--mode", "accelerated",
      "--h-max", "16"], ("caps_accel_h16.json",)),
    (["stability", *DENSE_CAPS, "--out-prefix", "stability"], ("stability_boundaries.json",)),
    (["induced-charge", *DENSE_CAPS, "--out", "induced_charge.json"], ("induced_charge.json",)),
    (["compare", *DENSE_CAPS, "--measured", "reference_measured.json", "--out", "compare.json"],
     ("compare.json", "compare.stdout")),
    (["validate"], ("validate.stdout",)),
]
GRID, GRID_SHA256 = "stability_grid.csv", \
    "d711563fc660df70f1d77e5de00e5434ece2c945830ca8e92719662dae605705"


def run_all(workdir):
    """{golden file name: its bytes} from running RUNS in workdir, and the grid's bytes."""
    for name in ("reference_device.json", "reference_measured.json"):
        shutil.copy(str(resources.files("dqdcap.data").joinpath(name)), workdir / name)
    got, cwd = {}, os.getcwd()
    os.chdir(workdir)
    try:
        for argv, names in RUNS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run(argv) == 0, argv
            for name in names:
                got[name] = out.getvalue().encode() if name.endswith(".stdout") \
                    else (workdir / name).read_bytes()
    finally:
        os.chdir(cwd)
    return got, (workdir / GRID).read_bytes()


def test_artifacts_match_golden_bytes(tmp_path):
    got, grid = run_all(tmp_path)
    differ = [name for name, data in got.items() if data != (GOLDEN / name).read_bytes()]
    assert differ == [], f"differ from tests/data/golden/: {differ}"
    assert hashlib.sha256(grid).hexdigest() == GRID_SHA256, f"{GRID} differs"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        got, grid = run_all(Path(tmp))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, data in got.items():
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(got)} files to {GOLDEN}; {GRID} sha256 {hashlib.sha256(grid).hexdigest()}",
          file=sys.stderr)
