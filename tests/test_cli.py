import json
import shutil
from importlib import resources
from pathlib import Path

import pytest

from dqdcap.cli import parse_range, run

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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        run(["frobnicate"])
    assert e.value.code == 2


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


@pytest.mark.parametrize("argv", [
    ["extract", "--geometry", "reference_device.json", "--out", "{}", "--h-max", "16"],
    ["sweep-misalign", "--geometry", "reference_device.json", "--out", "{}",
     "--dx", "-20:20:20", "--dy", "0", "--h-max", "18"],
], ids=["extract", "sweep-misalign"])
def test_artifacts_do_not_depend_on_jobs(workdir, argv):
    for jobs in ("1", "2"):
        assert run([arg.format(f"jobs{jobs}.out") for arg in argv] + ["--jobs", jobs]) == 0
    assert (workdir / "jobs1.out").read_bytes() == (workdir / "jobs2.out").read_bytes()


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
          for command in ("stability", "induced-charge")]])
def test_bad_input_is_one_error_line(workdir, capsys, argv, code, message):
    (workdir / "broken.json").write_text('{"entries_aF": [[1.0, ')
    (workdir / "tiny_caps.json").write_text(json.dumps(TINY_CAPS))
    (workdir / "measured_list.json").write_text('[{"a": "d1", "b": "d2"}]')
    (workdir / "measured_no_b.json").write_text('{"pairs": [{"a": "d1"}]}')
    (workdir / "measured_text.json").write_text(
        '{"pairs": [{"a": "d1", "b": "d2", "measured_aF": "x"}]}')
    for field in ("epsilon_r", "air_gap_nm"):
        device = json.loads((workdir / "reference_device.json").read_text())
        device[field] = float("nan")
        (workdir / f"{field}_nan.json").write_text(json.dumps(device))
    for case, edit in BAD_DEVICE_FIELDS.items():
        device = json.loads((workdir / "reference_device.json").read_text())
        (workdir / f"device_{case}.json").write_text(json.dumps({**device, **edit}))
    for case, caps in BAD_MODEL_CAPS.items():
        (workdir / f"model_{case}.json").write_text(json.dumps(caps))
    before = set(workdir.iterdir())
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert set(workdir.iterdir()) == before


@pytest.mark.parametrize("argv", [SWEEP, DOTSIZE], ids=["sweep-misalign", "sweep-dotsize"])
def test_sweeps_take_no_grid_flag(workdir, capsys, argv):
    """Sweeps compute their periodicities in closed form; only stability has a grid."""
    with pytest.raises(SystemExit) as e:
        run(argv + ["--n", "51"])
    assert e.value.code == 2
    assert "unrecognized arguments: --n 51" in capsys.readouterr().err


BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def test_sweep_csv_matches_bench_reference(workdir):
    """The bench's seed-0 sweep (bench/workloads.py) reproduces its committed CSV byte for byte."""
    assert run(["sweep-misalign", "--geometry", str(BENCH_DATA / "reference_device.json"),
                "--out", "sweep.csv", "--dx", "-90:90:30", "--dy", "-50:50:50",
                "--mode", "dense", "--h-max", "16", "--jobs", "2"]) == 0
    want = (BENCH_DATA / "ref_sweep_misalign_h16.csv").read_bytes()
    assert (workdir / "sweep.csv").read_bytes() == want


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
