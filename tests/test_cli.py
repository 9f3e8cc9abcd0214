import csv
import importlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from dqdcap import _blas, analysis
from dqdcap.charging import ModelCaps
from dqdcap.cli import _fmt, parse_range, run
from dqdcap.constants import AF
from dqdcap.geometry import dumps_device, loads_device, panel_count
from dqdcap.validation import pattern_shift_delta_q
from test_analysis import DOTS_ONLY, run_fresh
from test_charging import island_caps
from test_geometry import random_device

pytestmark = pytest.mark.usefixtures("workdir")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in ("reference_device.json", "reference_measured.json"):
        src = resources.files("dqdcap.data").joinpath(name)
        shutil.copy(str(src), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_parse_range():
    assert parse_range("-90:90:10") == [float(v) for v in range(-90, 100, 10)]
    assert parse_range("-50:50:10") == [float(v) for v in range(-50, 60, 10)]
    assert parse_range("25") == [25.0]
    # the last value never passes max
    assert parse_range("-90:90:70") == [-90.0, -20.0, 50.0]
    assert parse_range("10:50:25") == [10.0, 35.0]
    assert parse_range("0:1:0.6") == [0.0, 0.6]
    assert parse_range("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.1 * 3]


def test_bad_range_is_usage_failure(workdir):
    code = run(["sweep-dotsize", "--geometry", "reference_device.json",
                "--out", "s.csv", "--r", "10:bad"])
    assert code == 1


BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"
# the sweep CSV columns the benchmark compares with its reference
BENCH_SWEEP_FIELDS = ("C_SLd1_aF", "C_SRd2_aF", "dV_SL_mV", "dV_SR_mV", "theta_deg", "delta_q_e")


def test_bench_sweep_matches_its_reference(workdir):
    """The benchmark's seed-0 sweep, run in-process, writes the rows and statuses of its
    committed reference CSV, with every field the benchmark checks within 1e-9 relative."""
    assert run(["sweep-misalign", "--geometry", str(BENCH_DATA / "reference_device.json"),
                "--out", "sweep.csv", "--dx", "-90:90:30", "--dy", "-50:50:50",
                "--mode", "dense", "--h-max", "16", "--jobs", "2"]) == 0
    got, want = ([*csv.DictReader(path.read_text().splitlines())]
                 for path in (workdir / "sweep.csv", BENCH_DATA / "ref_sweep_misalign_h16.csv"))
    assert len(want) == 21
    assert [(r["dx_nm"], r["dy_nm"], r["status"]) for r in got] == \
        [(r["dx_nm"], r["dy_nm"], r["status"]) for r in want]
    for row, ref in zip(got, want):
        for f in BENCH_SWEEP_FIELDS:
            assert float(row[f]) == pytest.approx(float(ref[f]), rel=1e-9, abs=0), (row, f)


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        run(["frobnicate"])
    assert e.value.code == 2


# Run in a fresh process in the work directory: the scipy modules loaded
# after importing the CLI and after each command, as one JSON object.
_SCIPY_AFTER_EACH_COMMAND = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from dqdcap.cli import run

seen = {"import": scipy_modules()}
caps = ["--caps", "caps.json"]
for name, argv in [
    ("extract accelerated", ["extract", "--geometry", "reference_device.json", "--out", "caps.json",
                             "--mode", "accelerated", "--h-max", "16"]),
    ("stability", ["stability", *caps, "--out-prefix", "diag", "--n", "51"]),
    ("induced-charge", ["induced-charge", *caps, "--out", "dq.json"]),
    ("compare", ["compare", *caps, "--measured", "reference_measured.json", "--out", "cmp.json"]),
    ("extract dense", ["extract", "--geometry", "reference_device.json", "--out", "dense.json",
                       "--mode", "dense", "--h-max", "16"]),
    ("sweep dense", ["sweep-misalign", "--geometry", "reference_device.json", "--out", "s.csv",
                     "--dx", "0:10:10", "--dy", "0", "--mode", "dense", "--h-max", "16"]),
]:
    assert run(argv) == 0, name
    seen[name] = scipy_modules()
print(json.dumps(seen))
"""


def test_no_command_loads_scipy(workdir):
    """Importing the CLI, an extract in either mode, a dense sweep and the commands that
    read caps load no scipy module: the dense LU calls numpy's own LAPACK."""
    seen = run_fresh(_SCIPY_AFTER_EACH_COMMAND, cwd=workdir)
    assert len(seen) == 7
    assert seen == dict.fromkeys(seen, [])


def test_extract_stability_induced_charge_pipeline(workdir):
    assert run(["extract", "--geometry", "reference_device.json",
                "--out", "caps.json", "--h-max", "16", "--jobs", "2"]) == 0
    caps = json.loads((workdir / "caps.json").read_text())
    assert len(caps["conductor_names"]) == 9
    assert len(caps["entries_aF"]) == 9
    assert caps["roles"]["d1"] == "d1"
    for key in ("mode", "mac_ratio", "tol"):
        assert key in caps["solver"]
    manifest = json.loads((workdir / "caps.json.manifest.json").read_text())
    assert manifest["outputs"] == ["caps.json"]
    assert "reference_device.json" in manifest["inputs"]

    assert run(["stability", "--caps", "caps.json", "--out-prefix", "diag",
                "--n", "101"]) == 0
    grid = (workdir / "diag_grid.csv").read_text().splitlines()
    assert grid[0] == "v_sl_mV,v_sr_mV,x"
    assert len(grid) == 1 + 101 * 101
    bounds = json.loads((workdir / "diag_boundaries.json").read_text())
    assert bounds["metrics"]["theta_deg"] == pytest.approx(45.0, abs=1.0)
    assert bounds["boundaries"]

    assert run(["induced-charge", "--caps", "caps.json", "--out", "dq.json"]) == 0
    dq = json.loads((workdir / "dq.json").read_text())
    assert 0.0 < dq["delta_q_e"] < 0.5
    assert dq["delta_q_e"] == pytest.approx(dq["oracle_delta_q_e"], abs=1e-6)


def test_extract_accelerated_mode(workdir):
    assert run(["extract", "--geometry", "reference_device.json",
                "--out", "acc.json", "--h-max", "16", "--mode", "accelerated"]) == 0
    caps = json.loads((workdir / "acc.json").read_text())
    assert caps["solver"]["mode"] == "accelerated"


def test_stability_accepts_model_caps_json(workdir):
    caps = {
        "Csum_d1": 2.0, "Csum_d2": 2.0, "C_d1d2": 1.0,
        "C_SLd1": 1.0, "C_SRd2": 1.0,
    }
    (workdir / "model.json").write_text(json.dumps(caps))
    assert run(["stability", "--caps", "model.json", "--out-prefix", "toy"]) == 0
    metrics = json.loads((workdir / "toy_boundaries.json").read_text())["metrics"]
    assert metrics["dV_SL_mV"] == pytest.approx(320.435, abs=0.1)


def test_sweep_misalign_row_count_and_negative_ranges(workdir):
    assert run(["sweep-misalign", "--geometry", "reference_device.json",
                "--out", "sweep.csv", "--dx", "-20:20:20", "--dy", "-10:10:10",
                "--h-max", "18", "--jobs", "2"]) == 0
    lines = (workdir / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("dx_nm,dy_nm,C_SLd1_aF,C_SRd2_aF,dV_SL_mV,dV_SR_mV,"
                        "theta_deg,dV_SL_dB,delta_q_e,status")
    assert len(lines) == 1 + 3 * 3
    assert all(ln.endswith(",ok") for ln in lines[1:])


def test_sweep_dotsize_csv(workdir):
    assert run(["sweep-dotsize", "--geometry", "reference_device.json",
                "--out", "sizes.csv", "--r", "20:40:20", "--h-max", "18"]) == 0
    lines = (workdir / "sizes.csv").read_text().splitlines()
    assert lines[0].startswith("R_nm,C_SLd1_aF")
    assert len(lines) == 3


def test_reproducible_outputs(workdir):
    for out in ("a.csv", "b.csv"):
        assert run(["sweep-dotsize", "--geometry", "reference_device.json",
                    "--out", out, "--r", "30:40:10", "--h-max", "18"]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_extract_is_byte_reproducible(workdir):
    for mode in ("dense", "accelerated"):
        for out in ("a.json", "b.json"):
            assert run(["extract", "--geometry", "reference_device.json",
                        "--out", out, "--h-max", "18", "--mode", mode]) == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes(), mode


@pytest.mark.parametrize("seed", [0, 252])
def test_extract_on_a_generated_device_is_byte_reproducible(workdir, seed):
    """Seed 252's far field at h = 16 has blocks inside the series gate."""
    spec = random_device(np.random.default_rng(seed))
    (workdir / "device.json").write_text(dumps_device(spec))
    for mode in ("dense", "accelerated"):
        for out in ("a.json", "b.json"):
            assert run(["extract", "--geometry", "device.json", "--out", out,
                        "--h-max", "16", "--mode", mode]) == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes(), mode


@pytest.mark.parametrize("argv", [
    ["extract", "--geometry", "reference_device.json", "--out", "{}", "--h-max", "16"],
    ["sweep-misalign", "--geometry", "reference_device.json", "--out", "{}",
     "--dx", "-20:20:20", "--dy", "0", "--h-max", "18"],
], ids=["extract", "sweep-misalign"])
def test_artifacts_do_not_depend_on_jobs(workdir, argv):
    for jobs in ("1", "2"):
        assert run([arg.format(f"jobs{jobs}.out") for arg in argv] + ["--jobs", jobs]) == 0
    assert (workdir / "jobs1.out").read_bytes() == (workdir / "jobs2.out").read_bytes()


def test_dots_only_dense_cell_runs_the_schur_step_alone(workdir, monkeypatch):
    """With nothing but the dots, a dense cell goes through the factor of an empty static
    side: it makes exactly two potential_block calls, the dots' strip (its A_dd) and an
    A_ds with no columns, and no assemble_system call, so no map runs inside the cell
    pool (no cell reads worker_count).  Its CSV is the same at --jobs 1 and 2."""
    (workdir / "dots.json").write_text(json.dumps(DOTS_ONLY))
    solve_module = importlib.import_module("dqdcap.capsolve.solve")
    block, assemble = solve_module.potential_block, solve_module.assemble_system
    worker_count, cell_metrics = _blas.worker_count, analysis._cell_metrics
    calls, counts = [], []
    in_cell = threading.local()

    def recorded():
        n = worker_count()
        if getattr(in_cell, "on", False):
            counts.append(n)
        return n

    def flagged(*args):
        in_cell.on = True
        try:
            return cell_metrics(*args)
        finally:
            in_cell.on = False

    monkeypatch.setattr(_blas, "worker_count", recorded)
    monkeypatch.setattr(analysis, "_cell_metrics", flagged)
    monkeypatch.setattr(solve_module, "potential_block", lambda mesh, targets, cols, *args:
                        calls.append((len(targets), len(cols))) or block(mesh, targets, cols, *args))
    monkeypatch.setattr(solve_module, "assemble_system",
                        lambda *args: calls.append("assemble_system") or assemble(*args))
    n_d = panel_count(loads_device(json.dumps(DOTS_ONLY)), 10.0)
    assert n_d == 96
    for jobs in ("1", "2"):
        calls.clear()
        assert run(["sweep-misalign", "--geometry", "dots.json", "--out", f"jobs{jobs}.csv",
                    "--dx", "-10:10:10", "--dy", "0", "--h-max", "10", "--jobs", jobs]) == 0
        assert "assemble_system" not in calls
        assert sorted(calls) == [(n_d, 0)] * 3 + [(n_d, n_d)] * 3, jobs
    assert counts == []
    assert (workdir / "jobs1.csv").read_bytes() == (workdir / "jobs2.csv").read_bytes()


def test_interrupt_is_one_error_line_and_leaves_no_file(workdir):
    """A SIGINT about 2 s into the default 19x11 map at h = 10 (one child process, started
    here) prints one `error: interrupted` line and exits 130, leaving no output, manifest
    or temporary file."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    before = sorted(os.listdir(workdir))
    child = subprocess.Popen(
        [sys.executable, "-m", "dqdcap.cli", "sweep-misalign", "--geometry",
         "reference_device.json", "--out", "map.csv", "--h-max", "10", "--jobs", "2"],
        cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path})
    try:
        time.sleep(2.0)
        assert child.poll() is None, "the map ended before the interrupt"
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 130
    assert err.splitlines() == ["error: interrupted"]
    assert out == ""
    assert sorted(os.listdir(workdir)) == before


def test_jobs_above_the_core_count_runs_one_thread_per_core(workdir, monkeypatch):
    """--jobs caps a sweep's width: on two cores --jobs 8 makes a pool of 2 and
    writes the --jobs 1 bytes; the manifest keeps the 8 it was given."""
    widths = {}
    pool = _blas.ThreadPoolExecutor
    monkeypatch.setattr(_blas, "worker_count", lambda: 2)
    for jobs in ("1", "8"):
        def recorded(max_workers):
            widths.setdefault(jobs, []).append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(_blas, "ThreadPoolExecutor", recorded)
        assert run(["sweep-misalign", "--geometry", "reference_device.json", "--out",
                    f"jobs{jobs}.csv", "--dx", "-20:20:20", "--dy", "0", "--h-max", "18",
                    "--jobs", jobs]) == 0
    # the static block's assembly, then (at --jobs 8) the cells
    assert widths == {"1": [2], "8": [2, 2]}
    assert (workdir / "jobs1.csv").read_bytes() == (workdir / "jobs8.csv").read_bytes()
    assert json.loads((workdir / "jobs8.csv.manifest.json").read_text())["options"]["jobs"] == 8


def test_generated_device_sweeps_are_byte_identical_at_any_width(workdir, monkeypatch):
    """random_device(1) through both sweep commands at --jobs 1, 2 and 8 on eight cores."""
    (workdir / "device.json").write_text(dumps_device(random_device(np.random.default_rng(1))))
    monkeypatch.setattr(_blas, "worker_count", lambda: 8)
    for command, grid in (("sweep-misalign", ["--dx", "-5:5:5", "--dy", "0:5:5"]),
                          ("sweep-dotsize", ["--r", "4:16:4"])):
        for jobs in ("1", "2", "8"):
            assert run([command, "--geometry", "device.json", "--out", f"jobs{jobs}.csv",
                        *grid, "--h-max", "16", "--jobs", jobs]) == 0
        want = (workdir / "jobs1.csv").read_bytes()
        assert want.count(b",ok\n") == len(want.splitlines()) - 1
        for jobs in ("2", "8"):
            assert (workdir / f"jobs{jobs}.csv").read_bytes() == want, (command, jobs)


MANIFEST_KEYS = ["command", "inputs", "options", "version", "wall_time_s", "outputs"]
SOLVER_OPTIONS = ["mode", "h_max", "epsilon_r", "jobs"]


@pytest.mark.parametrize("argv, options, jobs", [
    (["extract", "--geometry", "reference_device.json", "--out", "out", "--h-max", "18",
      "--jobs", "3"],
     ["command", "geometry", "out", "air_gap_nm", *SOLVER_OPTIONS], 3),
    (["sweep-misalign", "--geometry", "reference_device.json", "--out", "out", "--dx", "0",
      "--dy", "0", "--h-max", "18", "--jobs", "0"],
     ["command", "geometry", "out", "dx", "dy", *SOLVER_OPTIONS], 1),
], ids=["extract", "sweep-misalign"])
def test_manifest_schema(workdir, argv, options, jobs):
    """The manifest's keys and option names are fixed; jobs is the worker count used."""
    assert run(argv) == 0
    manifest = json.loads((workdir / "out.manifest.json").read_text())
    assert list(manifest) == MANIFEST_KEYS
    assert list(manifest["options"]) == options
    assert manifest["options"]["jobs"] == jobs


@pytest.mark.parametrize("argv, outputs", [
    (["stability", "--caps", "caps.json", "--out-prefix", "{}", "--n", "51"],
     ["{}_grid.csv", "{}_boundaries.json"]),
    (["induced-charge", "--caps", "caps.json", "--out", "{}.json"], ["{}.json"]),
    (["compare", "--caps", "caps.json", "--measured", "reference_measured.json",
      "--out", "{}.json"], ["{}.json"]),
    (["sweep-misalign", "--geometry", "reference_device.json", "--out", "{}.csv",
      "--dx", "-20:20:20", "--dy", "0", "--h-max", "18", "--jobs", "2"],
     ["{}.csv"]),
], ids=["stability", "induced-charge", "compare", "sweep-misalign"])
def test_artifacts_are_byte_reproducible(workdir, argv, outputs):
    assert run(["extract", "--geometry", "reference_device.json",
                "--out", "caps.json", "--h-max", "18"]) == 0
    for tag in ("a", "b"):
        assert run([arg.format(tag) for arg in argv]) == 0
    for name in outputs:
        a, b = (workdir / name.format(tag) for tag in ("a", "b"))
        assert a.read_bytes() == b.read_bytes(), name


def test_compare_report(workdir):
    assert run(["extract", "--geometry", "reference_device.json",
                "--out", "caps.json", "--h-max", "16"]) == 0
    assert run(["compare", "--caps", "caps.json",
                "--measured", "reference_measured.json",
                "--out", "report.json"]) == 0
    report = json.loads((workdir / "report.json").read_text())
    assert len(report["pairs"]) == 4
    for row in report["pairs"]:
        assert row["calculated_aF"] > 0
        assert row["period_mV"] > 0


def test_missing_file_is_runtime_failure(workdir):
    assert run(["extract", "--geometry", "nope.json", "--out", "x.json"]) == 1


def test_validate_passes(workdir, capsys):
    assert run(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


TINY_CAPS = {"conductor_names": ["d1", "d2"], "entries_aF": [[12.0, -4.0], [-4.0, 9.0]]}
# Q and R share role B, with different couplings to the i1 conductor P
SHARED_B_CAPS = {"conductor_names": ["P", "Q", "R"],
                 "entries_aF": [[30.0, -1.0, -2.0], [-1.0, 20.0, 0.0], [-2.0, 0.0, 20.0]],
                 "roles": {"P": "i1", "Q": "B", "R": "B"}}


def test_compare_self_pair_prints_nan_period(workdir, capsys):
    (workdir / "caps.json").write_text(json.dumps(TINY_CAPS))
    (workdir / "self.json").write_text(
        '{"pairs": [{"a": "d1", "b": "d1"}, {"a": "d1", "b": "d2"}]}')
    assert run(["compare", "--caps", "caps.json", "--measured", "self.json",
                "--out", "report.json"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows[0].startswith("d1-d1") and rows[0].split()[-1] == "nan"
    assert rows[1].startswith("d1-d2") and float(rows[1].split()[-1]) > 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["pairs"][0]["period_mV"] is None


EXTRACT = ["extract", "--geometry", "reference_device.json", "--out", "caps.json", "--h-max", "18"]
SWEEP = ["sweep-misalign", "--geometry", "reference_device.json", "--out", "s.csv",
         "--dy", "0", "--h-max", "18"]
DOTSIZE = ["sweep-dotsize", "--geometry", "reference_device.json", "--out", "s.csv",
           "--r", "40", "--h-max", "18"]
STABILITY = ["stability", "--caps", "tiny_caps.json", "--out-prefix", "diag"]
# malformed top-level fields of a device file, each one field over the reference device
BAD_DEVICE_FIELDS = {
    "epsilon-r-text": {"epsilon_r": "x"},
    "air-gap-null": {"air_gap_nm": None},
    "domain-short": {"domain_nm": [1, 2]},
    "sweep-bounds-short": {"sweep_bounds_nm": [30]},
    "sweep-bounds-text": {"sweep_bounds_nm": "ab"},
    "boxes-number": {"boxes": 5},
}
BAD_MODEL_CAPS = {
    "text": {"Csum_d1": "x", "Csum_d2": 3},
    "null": {"Csum_d1": 2.0, "Csum_d2": 2.0, "C_d1d2": None},
    "nan": {"Csum_d1": float("nan"), "Csum_d2": 2.0, "C_d1d2": 1.0, "C_SLd1": 1.0},
}

# measured-pair values compare rejects: JSON's NaN extension, and strings float() reads
BAD_MEASURED = {
    "nan": '"measured_aF": NaN',
    "inf-text": '"measured_aF": "inf", "sd_aF": "-1"',
    "sd-nan": '"measured_aF": 1, "sd_aF": NaN',
    "sd-inf": '"measured_aF": 1, "sd_aF": "-inf"',
    "sd-negative": '"measured_aF": 1, "sd_aF": -1',
}


def with_long_box(workdir, length_nm):
    """The reference device without its domain, plus box 'huge' of dims [length_nm, 10, 10]
    clear of every other box; written to long_<length_nm>.json."""
    device = json.loads((workdir / "reference_device.json").read_text())
    del device["domain_nm"]
    device["boxes"].append({"name": "huge", "group": "h", "role": "other",
                            "min_nm": [0, 1000, 0], "dims_nm": [length_nm, 10, 10]})
    path = workdir / f"long_{length_nm:g}.json"
    path.write_text(json.dumps(device))
    return path.name


def tiny_g1_lever_caps():
    """Island caps with C_g1i1 = 0, g1 coupled 0.052 aF to d2 only, and d2 coupled
    1e-9 aF to the island: g1 moves the island, but by only 1.6e-11 e per volt."""
    caps = island_caps(c_d1i1=0.0, c_d2i1=1e-9, g1i1=0.0)
    gates = caps.gates.copy()
    gates[1, 2] = 0.052 * AF
    return ModelCaps(caps.targets, caps.cmat, gates)


@pytest.mark.parametrize("argv, code, message", [
    (EXTRACT + ["--h-max", "0"], 2, "--h-max"),
    (["sweep-dotsize", "--geometry", "reference_device.json", "--out", "s.csv",
      "--h-max", "-1"], 2, "--h-max"),
    (["stability", "--caps", "broken.json", "--out-prefix", "diag"], 1, "not valid JSON"),
    (["induced-charge", "--caps", "broken.json", "--out", "dq.json"], 1, "not valid JSON"),
    (["compare", "--caps", "broken.json", "--measured", "reference_measured.json",
      "--out", "report.json"], 1, "not valid JSON"),
    (["compare", "--caps", "tiny_caps.json", "--measured", "measured_list.json",
      "--out", "report.json"], 1, "not a valid measured-pairs JSON"),
    (["compare", "--caps", "tiny_caps.json", "--measured", "measured_no_b.json",
      "--out", "report.json"], 1, "not a valid measured-pairs JSON"),
    (["compare", "--caps", "tiny_caps.json", "--measured", "measured_text.json",
      "--out", "report.json"], 1, "not a valid measured-pairs JSON"),
    (["stability", "--caps", "reference_device.json", "--out-prefix", "diag"], 1,
     "neither a Maxwell JSON nor a ModelCaps JSON"),
    (["extract", "--geometry", "reference_device.json", "--out", "no_dir/caps.json"], 2,
     "cannot write no_dir/caps.json"),
    (["sweep-misalign", "--geometry", "reference_device.json", "--out", "no_dir/s.csv"], 2,
     "cannot write no_dir/s.csv"),
    (["extract", "--geometry", "reference_device.json", "--out", "."], 2,
     "cannot write .: it is a directory"),
    (["stability", "--caps", "reference_device.json", "--out-prefix", "no_dir/diag"], 2,
     "cannot write no_dir/diag_grid.csv"),
    (EXTRACT + ["--epsilon-r", "nan"], 2, "--epsilon-r"),
    (EXTRACT + ["--epsilon-r", "inf"], 2, "--epsilon-r"),
    (EXTRACT + ["--h-max", "inf"], 2, "--h-max"),
    (EXTRACT + ["--h-max", "nan"], 2, "--h-max"),
    *[(SWEEP + ["--dx", text], 1, "bad range")
      for text in ("0:inf:1", "0:nan:1", "inf", "nan", "0:10:inf", "0:1:0")],
    *[(EXTRACT + ["--air-gap-nm", text], 2, "--air-gap-nm")
      for text in ("-5", "nan", "inf")],
    (STABILITY + ["--n", "1"], 2, "--n must be at least 2"),
    *[(STABILITY + ["--window-mv", text], 2, "--window-mv must be finite and positive")
      for text in ("nan", "inf", "0", "-5")],
    *[(["extract", "--geometry", f"{field}_nan.json", "--out", "caps.json"], 1, field)
      for field in ("epsilon_r", "air_gap_nm")],
    *[(["extract", "--geometry", f"device_{case}.json", "--out", "caps.json"], 1,
       f"bad {next(iter(BAD_DEVICE_FIELDS[case]))}:") for case in BAD_DEVICE_FIELDS],
    *[([command, "--caps", f"model_{case}.json", *out], 1, "not a valid ModelCaps JSON")
      for case in BAD_MODEL_CAPS
      for command, out in (("stability", ["--out-prefix", "diag"]),
                           ("induced-charge", ["--out", "dq.json"]))],
    # delta q needs no transfer period, but the pattern oracle written beside it does
    (["induced-charge", "--caps", "no_g1i1.json", "--out", "dq.json"], 1,
     "zero g1 island coupling"),
    # a g1 lever of 1.6e-11 /V: the two x = 0 transfer points round to one value
    (["induced-charge", "--caps", "tiny_g1_lever.json", "--out", "dq.json"], 1,
     "degenerate transfer period: 0.0 V along g1"),
    (["extract", "--geometry", "a_dir", "--out", "caps.json"], 1, "cannot read a_dir"),
    (["stability", "--caps", "a_dir", "--out-prefix", "diag"], 1, "cannot read a_dir"),
    (["extract", "--geometry", "latin1.json", "--out", "caps.json"], 1,
     "cannot read latin1.json"),
    (["compare", "--caps", "tiny_caps.json", "--measured", "latin1.json",
      "--out", "report.json"], 1, "cannot read latin1.json"),
    *[(["compare", "--caps", "tiny_caps.json", "--measured", f"measured_{case}.json",
        "--out", "report.json"], 1, "not a valid measured-pairs JSON") for case in BAD_MEASURED],
    *[([command, "--caps", "caps_nan.json", *out], 1, "not a valid Maxwell JSON")
      for command, out in (("compare", ["--measured", "reference_measured.json",
                                         "--out", "report.json"]),
                           ("stability", ["--out-prefix", "diag"]))],
    # random_device(0) has two groups with role g1: rejected before any cell is meshed
    *[([command, "--geometry", "shared_g1.json", "--out", "s.csv", *cells, "--h-max", "16"], 1,
       "role 'g1' assigned to 'g11' and 'g10'")
      for command, cells in (("sweep-misalign", ["--dx", "0", "--dy", "0"]),
                             ("sweep-dotsize", ["--r", "10:20:10"]))],
    (["compare", "--caps", "shared_b.json", "--measured", "measured_b_i1.json",
      "--out", "report.json"], 1, "role 'B' is held by 'Q', 'R'; name one"),
    # 2.5e19 panels: no corner array that large can exist, in either mode
    *[(["extract", "--geometry", "long_1e+20.json", "--out", "caps.json", "--h-max", "16",
        "--mode", mode], 1, "box 'huge' needs over 9.61e+16 panels at h_max = 16 nm")
      for mode in ("dense", "accelerated")],
], ids=["h-max-zero", "sweep-h-max", "stability-bad-json",
        "induced-charge-bad-json", "compare-bad-json", "compare-measured-list",
        "compare-measured-no-b", "compare-measured-text", "stability-device-file",
        "extract-no-out-dir", "sweep-no-out-dir", "extract-out-is-dir", "stability-no-out-dir",
        "epsilon-r-nan", "epsilon-r-inf", "h-max-inf", "h-max-nan", "range-max-inf",
        "range-max-nan", "range-single-inf", "range-single-nan", "range-step-inf",
        "range-step-zero", "air-gap-negative", "air-gap-nan", "air-gap-inf",
        "stability-n-1", "window-mv-nan", "window-mv-inf", "window-mv-zero",
        "window-mv-negative", "device-epsilon-r-nan", "device-air-gap-nan",
        *[f"device-{case}" for case in BAD_DEVICE_FIELDS],
        *[f"{command}-model-caps-{case}" for case in BAD_MODEL_CAPS
          for command in ("stability", "induced-charge")],
        "induced-charge-no-transfer-period", "induced-charge-coincident-transfer-points",
        "extract-geometry-is-dir",
        "stability-caps-is-dir", "extract-geometry-not-utf8", "compare-measured-not-utf8",
        *[f"compare-measured-{case}" for case in BAD_MEASURED],
        "compare-caps-nan", "stability-caps-nan", "sweep-misalign-shared-role",
        "sweep-dotsize-shared-role", "compare-shared-role", "extract-dense-box-too-large",
        "extract-accelerated-box-too-large"])
def test_bad_input_is_one_error_line(workdir, capsys, argv, code, message):
    (workdir / "broken.json").write_text('{"entries_aF": [[1.0, ')
    (workdir / "tiny_caps.json").write_text(json.dumps(TINY_CAPS))
    (workdir / "measured_list.json").write_text('[{"a": "d1", "b": "d2"}]')
    (workdir / "measured_no_b.json").write_text('{"pairs": [{"a": "d1"}]}')
    (workdir / "measured_text.json").write_text(
        '{"pairs": [{"a": "d1", "b": "d2", "measured_aF": "x"}]}')
    for case, text in BAD_MEASURED.items():
        (workdir / f"measured_{case}.json").write_text(
            f'{{"pairs": [{{"a": "d1", "b": "d2", {text}}}]}}')
    nan_caps = json.loads(json.dumps(TINY_CAPS))
    nan_caps["entries_aF"][0][1] = float("nan")
    (workdir / "caps_nan.json").write_text(json.dumps(nan_caps))
    for field in ("epsilon_r", "air_gap_nm"):
        device = json.loads((workdir / "reference_device.json").read_text())
        device[field] = float("nan")
        (workdir / f"{field}_nan.json").write_text(json.dumps(device))
    for case, edit in BAD_DEVICE_FIELDS.items():
        device = json.loads((workdir / "reference_device.json").read_text())
        (workdir / f"device_{case}.json").write_text(json.dumps({**device, **edit}))
    for case, caps in BAD_MODEL_CAPS.items():
        (workdir / f"model_{case}.json").write_text(json.dumps(caps))
    (workdir / "no_g1i1.json").write_text(json.dumps(island_caps(g1i1=0.0).to_json()))
    (workdir / "tiny_g1_lever.json").write_text(json.dumps(tiny_g1_lever_caps().to_json()))
    (workdir / "a_dir").mkdir()
    (workdir / "latin1.json").write_bytes('{"name": "Fl\u00e4che"}'.encode("latin-1"))
    (workdir / "shared_g1.json").write_text(dumps_device(random_device(np.random.default_rng(0))))
    (workdir / "shared_b.json").write_text(json.dumps(SHARED_B_CAPS))
    (workdir / "measured_b_i1.json").write_text('{"pairs": [{"a": "B", "b": "i1"}]}')
    with_long_box(workdir, 1e20)
    before = set(workdir.iterdir())
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert set(workdir.iterdir()) == before


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_system_is_one_error_line(workdir, capsys, monkeypatch, value):
    """A collocation matrix with a NaN or Inf entry is rejected from its 1-norm,
    before the LU: exit 1, one error line, no output file or manifest."""
    solve_module = importlib.import_module("dqdcap.capsolve.solve")
    assemble = solve_module.assemble_system

    def corrupted(*args):
        a = assemble(*args)
        a[3, 5] = value
        return a

    monkeypatch.setattr(solve_module, "assemble_system", corrupted)
    before = set(workdir.iterdir())
    assert run(EXTRACT + ["--mode", "dense", "--h-max", "16"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: collocation system is not finite (1-norm {value})\n"
    assert set(workdir.iterdir()) == before


def test_dense_guard_applies_before_meshing(workdir, capsys, monkeypatch):
    """A device of 2.5e9 panels at h = 16 (240 GB of corners) meets the dense guard
    before any mesh is built: extract and a dense sweep exit 1 and leave no file."""
    from dqdcap import cli

    def no_mesh(spec, h_max_nm):
        raise AssertionError("meshed before the dense guard was applied")

    monkeypatch.setattr(cli, "mesh_device", no_mesh)
    monkeypatch.setattr(analysis, "mesh_device", no_mesh)
    device = with_long_box(workdir, 1e10)
    before = set(workdir.iterdir())
    guard = "panels exceeds the dense-mode guard of 20000"
    assert run(["extract", "--geometry", device, "--out", "caps.json", "--h-max", "16"]) == 1
    assert capsys.readouterr().err == f"error: 2500001194 {guard}\n"
    assert set(workdir.iterdir()) == before
    assert run(["sweep-misalign", "--geometry", device, "--out", "s.csv", "--dx", "0:10:10",
                "--dy", "0", "--h-max", "16", "--jobs", "2"]) == 1
    # the static block: every box but the two 30-panel dots
    assert capsys.readouterr().err == f"error: 2500001134 {guard}\n"
    assert set(workdir.iterdir()) == before


@pytest.mark.parametrize("message", ["Unable to allocate 3.21 GiB for an array", ""])
@pytest.mark.parametrize("argv, module", [
    (EXTRACT + ["--mode", "accelerated"], "cli"),
    (SWEEP + ["--dx", "0:10:10", "--mode", "accelerated"], "analysis"),
], ids=["extract", "sweep"])
def test_out_of_memory_is_one_error_line(workdir, capsys, monkeypatch, argv, module, message):
    """A MemoryError in a solve, as from an operator too large for the machine, exits 1
    with one error line and leaves no output, manifest or temporary file."""
    from dqdcap import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr({"cli": cli, "analysis": analysis}[module], "solve", out_of_memory)
    before = set(workdir.iterdir())
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: out of memory ({message})\n" if message else "error: out of memory\n")
    assert set(workdir.iterdir()) == before


def test_compare_prints_zero_deviation(workdir, capsys):
    """A measured value equal to the calculated one is 0.00 sd off, not nan."""
    (workdir / "caps.json").write_text(json.dumps(TINY_CAPS))
    (workdir / "equal.json").write_text(
        '{"pairs": [{"a": "d1", "b": "d2", "measured_aF": 4.0, "sd_aF": 0.5}]}')
    assert run(["compare", "--caps", "caps.json", "--measured", "equal.json"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:5] == ["d1-d2", "4.00", "4.00", "0.50", "0.00"]


@pytest.mark.parametrize("argv", [SWEEP, DOTSIZE], ids=["sweep-misalign", "sweep-dotsize"])
def test_sweeps_take_no_grid_flag(workdir, capsys, argv):
    """Sweeps compute their periodicities in closed form; only stability has a grid."""
    with pytest.raises(SystemExit) as e:
        run(argv + ["--n", "51"])
    assert e.value.code == 2
    assert "unrecognized arguments: --n 51" in capsys.readouterr().err


BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"
BENCH_SWEEP = ["sweep-misalign", "--geometry", str(BENCH_DATA / "reference_device.json"),
               "--out", "sweep.csv", "--dx", "-90:90:30", "--dy", "-50:50:50",
               "--mode", "dense", "--h-max", "16", "--jobs", "2"]


def test_sweep_csv_matches_bench_reference(workdir):
    """The bench's seed-0 sweep (bench/workloads.py) reproduces its committed CSV byte for byte."""
    assert run(BENCH_SWEEP) == 0
    want = (BENCH_DATA / "ref_sweep_misalign_h16.csv").read_bytes()
    assert (workdir / "sweep.csv").read_bytes() == want


def test_delta_q_matches_pattern_oracle_on_bench_grid(workdir, monkeypatch):
    """On every cell of the bench sweep, closed-form delta q equals the transfer-point pattern."""
    from dqdcap import analysis

    closed_form = analysis.delta_q
    cells = []

    def recording(caps):
        cells.append(caps)
        return closed_form(caps)

    monkeypatch.setattr(analysis, "delta_q", recording)
    assert run(BENCH_SWEEP) == 0
    assert len(cells) == 21
    for caps in cells:
        dq, oracle = closed_form(caps), pattern_shift_delta_q(caps)
        assert abs(dq - oracle) <= 1e-12
        assert _fmt(dq) == _fmt(oracle)


def test_failed_write_leaves_no_partial_file(workdir, monkeypatch):
    from dqdcap import cli

    (workdir / "sizes.csv").write_text("earlier run\n")
    before = set(workdir.iterdir())
    calls = [0]
    fmt = cli._fmt

    def failing_fmt(x):
        calls[0] += 1
        if calls[0] > 4:  # fails inside the second CSV row
            raise RuntimeError("disk full")
        return fmt(x)

    monkeypatch.setattr(cli, "_fmt", failing_fmt)
    with pytest.raises(RuntimeError, match="disk full"):
        run(["sweep-dotsize", "--geometry", "reference_device.json", "--out", "sizes.csv",
             "--r", "30:40:10", "--h-max", "18"])
    assert calls[0] > 4
    assert set(workdir.iterdir()) == before
    assert (workdir / "sizes.csv").read_text() == "earlier run\n"


def test_sweeps_apply_epsilon_r(workdir, monkeypatch):
    from dqdcap import cli

    rows = []
    sweep = cli.dotsize_sweep

    def recording_sweep(*args, **kwargs):
        result = sweep(*args, **kwargs)
        rows.append(result.rows[0])
        return result

    monkeypatch.setattr(cli, "dotsize_sweep", recording_sweep)
    for out, extra in (("eps6.csv", []), ("eps1.csv", ["--epsilon-r", "1"])):
        assert run(["sweep-dotsize", "--geometry", "reference_device.json", "--out", out,
                    "--r", "40", "--h-max", "18", *extra]) == 0
    default, vacuum = rows
    assert default["status"] == vacuum["status"] == "ok"
    assert vacuum["C_SLd1_aF"] == pytest.approx(default["C_SLd1_aF"] / 6.0, rel=1e-9)


# Maxwell JSON fields stability, induced-charge and compare reject, each over TINY_CAPS
BAD_MAXWELL = {
    "entries-scalar": {"entries_aF": 0},
    "entries-one-row": {"entries_aF": [[12.0, -4.0]]},
    "name-not-text": {"conductor_names": ["d1", 0]},
    "name-repeated": {"conductor_names": ["d1", "d1"]},
    "role-of-unknown-conductor": {"roles": {"d1": "d1", "i1": "d2"}},
}


@pytest.mark.parametrize("command, out", [
    ("stability", ["--out-prefix", "diag"]),
    ("induced-charge", ["--out", "dq.json"]),
    ("compare", ["--measured", "reference_measured.json", "--out", "report.json"]),
], ids=["stability", "induced-charge", "compare"])
@pytest.mark.parametrize("case", BAD_MAXWELL)
def test_malformed_maxwell_json_is_one_error_line(workdir, capsys, command, out, case):
    """Names and entries that do not agree, found by the generated caps below: each was a
    traceback from the circuit reduction or the report."""
    caps = {**TINY_CAPS, "roles": {"d1": "d1", "d2": "d2"}, **BAD_MAXWELL[case]}
    (workdir / "caps.json").write_text(json.dumps(caps))
    before = set(workdir.iterdir())
    assert run([command, "--caps", "caps.json", *out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: caps.json is not a valid Maxwell JSON")
    assert set(workdir.iterdir()) == before


@pytest.mark.parametrize("thickness", [1e-300, 1e-200, 1e-30])
@pytest.mark.parametrize("mode", ["dense", "accelerated"])
def test_box_whose_panels_vanish_in_metres(workdir, capsys, mode, thickness):
    """Box SL_s made `thickness` nm thick: its panels' edges vanish against their corner
    coordinates in metres.  extract, and a sweep in either mode, which meshes the static
    boxes once before any cell, exit 1 with one error line that names the box, and no
    file."""
    device = json.loads((workdir / "reference_device.json").read_text())
    box = next(b for b in device["boxes"] if b["name"] == "SL_s")
    box["dims_nm"][1] = thickness
    (workdir / "thin.json").write_text(json.dumps(device))
    common = ["--geometry", "thin.json", "--mode", mode, "--h-max", "40"]
    message = (f"error: box 'SL_s' with dims_nm {box['dims_nm']} meshes into degenerate "
               "panels: an edge vanishes in metres\n")
    before = set(workdir.iterdir())
    assert run(["extract", *common, "--out", "caps.json"]) == 1
    assert capsys.readouterr().err == message
    assert set(workdir.iterdir()) == before
    assert run(["sweep-misalign", *common, "--out", "s.csv", "--dx", "0", "--dy", "0"]) == 1
    assert capsys.readouterr().err == message
    assert set(workdir.iterdir()) == before


# Generated inputs: seeded mutations of a valid JSON input, run through the CLI in-process.
# A mutation writes a non-finite, zero, negative or extreme number, a value of the wrong
# type, or removes the key or list item (REMOVED).
REMOVED = object()
MUTANT_VALUES = (float("nan"), float("inf"), -float("inf"), 0, -1, 1e300, 1e-300,
                 "x", None, True, [], {}, REMOVED)


def mutated(obj, rng):
    """A copy of the JSON value obj with one to three nodes replaced or removed, and a
    description of each edit.  Each node is found by a walk from the root that stops at
    each level with probability 1/2, and always at a leaf: a top-level key, a box key or
    one coordinate of a device file."""
    obj = json.loads(json.dumps(obj))
    edits = []
    for _ in range(rng.randint(1, 3)):
        node, path = obj, []
        while node:
            key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
            path.append(key)
            child = node[key]
            if not (isinstance(child, (dict, list)) and child) or rng.random() < 0.5:
                value = rng.choice(MUTANT_VALUES)
                if value is REMOVED:
                    del node[key]
                else:
                    node[key] = value
                edits.append(f"{path}: {'removed' if value is REMOVED else repr(value)}")
                break
            node = child
    return obj, edits


def check_contract(workdir, capsys, argv, output, edits):
    """run(argv) exits 0 having written output, or exits 1 or 2 with one error line and no
    file left behind; returns the exit code."""
    before = set(workdir.iterdir())
    code = run(argv)
    err = capsys.readouterr().err
    case = (argv, edits, err)
    if code == 0:
        assert (workdir / output).exists(), case
    else:
        assert code in (1, 2), case
        assert err.count("\n") == 1 and err.startswith("error: "), case
        assert set(workdir.iterdir()) == before, case
    return code


def test_generated_devices_keep_the_cli_contract(workdir, capsys):
    """Seeded mutations of the reference device, each through a coarse extract and a
    one-cell sweep.  Dense mode only: its guard rejects a huge box before any mesh, so no
    case can allocate past the machine."""
    rng = random.Random(0)
    device = json.loads((workdir / "reference_device.json").read_text())
    codes = []
    for i in range(150):
        obj, edits = mutated(device, rng)
        (workdir / f"device_{i}.json").write_text(json.dumps(obj))
        common = ["--geometry", f"device_{i}.json", "--mode", "dense", "--h-max", "40"]
        for argv, output in ((["extract", *common, "--out", f"caps_{i}.json"], f"caps_{i}.json"),
                             (["sweep-misalign", *common, "--out", f"sweep_{i}.csv",
                               "--dx", "0", "--dy", "0"], f"sweep_{i}.csv")):
            codes.append(check_contract(workdir, capsys, argv, output, edits))
    assert {0, 1} <= set(codes)


def test_generated_caps_and_measured_files_keep_the_cli_contract(workdir, capsys):
    """Seeded mutations of a Maxwell JSON and of a ModelCaps JSON through stability,
    induced-charge and compare, and of the measured-pairs JSON through compare."""
    assert run(["extract", "--geometry", "reference_device.json", "--out", "caps.json",
                "--mode", "dense", "--h-max", "40"]) == 0
    valid = {"maxwell": json.loads((workdir / "caps.json").read_text()),
             "model": island_caps().to_json(),
             "measured": json.loads((workdir / "reference_measured.json").read_text())}
    rng = random.Random(0)
    codes = []
    for i in range(240):
        kind = ("maxwell", "model", "measured")[i % 3]
        obj, edits = mutated(valid[kind], rng)
        path = f"{kind}_{i}.json"
        (workdir / path).write_text(json.dumps(obj))
        report = ["--out", f"report_{i}.json"]
        if kind == "measured":
            runs = [(["compare", "--caps", "caps.json", "--measured", path, *report],
                     f"report_{i}.json")]
        else:
            runs = [(["stability", "--caps", path, "--n", "21", "--out-prefix", f"diag_{i}"],
                     f"diag_{i}_grid.csv"),
                    (["induced-charge", "--caps", path, "--out", f"dq_{i}.json"], f"dq_{i}.json"),
                    (["compare", "--caps", path, "--measured", "reference_measured.json", *report],
                     f"report_{i}.json")]
        for argv, output in runs:
            codes.append(check_contract(workdir, capsys, argv, output, edits))
    assert {0, 1} <= set(codes)
