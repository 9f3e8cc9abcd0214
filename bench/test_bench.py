"""Self-tests of the benchmark, on its quick inputs (h = 16 nm, one pass each).

    python -m pytest -q bench/test_bench.py
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from spans import Span, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{trace}-quick"
    return lines, json.loads(lines[-1]), work


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    return request.param, *run_bench(request.param, trace=1)


def _assert_result(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _assert_printed(lines, metrics):
    for m in metrics:
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    lines, result, _ = run_bench("extract-dense-h6", trace=0)
    _assert_result(result, SPEC["end_to_end"])
    _assert_printed(lines, SPEC["end_to_end"])
    assert result["metrics"]["wall_s"]["value"] > 0
    assert result["metrics"]["setup_s"]["value"] > 0


def test_traced_run_prints_every_metric_with_its_unit(traced):
    _, lines, result, _ = traced
    _assert_result(result, SPEC["per_layer"])
    _assert_printed(lines, SPEC["per_layer"] + SPEC["end_to_end"])
    frac = result["metrics"]["trace.accounted_frac"]["value"]
    assert 0.95 <= frac <= 1.0 + 1e-9


def test_traced_and_untraced_runs_write_identical_artifacts(traced):
    name, _, _, work = traced
    out = workloads.WORKLOADS[name].out_name
    assert workloads.same_artifact(work / "pass" / out, work / "traced" / out)
    if out.endswith(".csv"):
        assert (work / "pass" / out).read_bytes() == (work / "traced" / out).read_bytes()


def test_perturbed_reference_fails_the_check(traced):
    name, _, _, work = traced
    wl = workloads.WORKLOADS[name]
    path = work / "pass" / wl.out_name
    if wl.is_sweep:
        rows = workloads.read_sweep(path)
        assert workloads.check_sweep(rows, rows, wl.ref_bound, wl.quick_size)[1:] == (0, 0.0)
        ref = copy.deepcopy(rows)
        ref[1]["delta_q_e"] = repr(float(ref[1]["delta_q_e"]) * 1.02)
        fails, bad, err = workloads.check_sweep(rows, ref, wl.ref_bound, wl.quick_size)
        assert bad == 1 and fails and err == pytest.approx(0.02 / 1.02, rel=1e-6)
    else:
        caps = json.loads(path.read_text(encoding="utf-8"))
        assert workloads.check_maxwell(caps, caps, wl.ref_bound, wl.quick_size) == ([], 0.0)
        ref = copy.deepcopy(caps)
        ref["entries_aF"][0][1] *= 1.02
        fails, err = workloads.check_maxwell(caps, ref, workloads.ACCEL_REF_BOUND, wl.quick_size)
        assert len(fails) == 1 and err == pytest.approx(0.02 / 1.02, rel=1e-6)


def test_nonzero_seed_moves_the_dots_but_not_the_panel_counts():
    sys.path.insert(0, str(ROOT / "src"))
    from dqdcap.geometry import loads_device, mesh_device

    base = workloads.device_for_seed(0)
    assert base == json.loads(workloads.DEVICE.read_text(encoding="utf-8"))
    dx, dy = workloads.seed_offset(7)
    assert (dx, dy) != (0.0, 0.0) and max(abs(dx), abs(dy)) <= workloads.SEED_SHIFT_NM
    moved = workloads.device_for_seed(7)
    for a, b in zip(base["boxes"], moved["boxes"]):
        if a["role"] in ("d1", "d2"):
            assert b["min_nm"] == [a["min_nm"][0] + dx, a["min_nm"][1] + dy, a["min_nm"][2]]
        else:
            assert a == b
    for h in (16.0, 6.0, 5.0):
        meshes = [mesh_device(loads_device(json.dumps(d)), h) for d in (base, moved)]
        assert meshes[0].panel_count() == meshes[1].panel_count()


def test_self_times_split_concurrent_time_and_sum_to_wall():
    # root [0, 10]; child on the main thread [1, 3]; two pool spans [4, 8] and [6, 9]
    spans = [Span("cli.run", 0.0, None, 1), Span("solve", 1.0, 0, 1),
             Span("solve", 4.0, 0, 2), Span("solve", 6.0, 0, 3)]
    for s, end in zip(spans, (10.0, 3.0, 8.0, 9.0)):
        s.end = end
    share = self_times(spans)
    assert share == pytest.approx([3.0, 2.0, 3.0, 2.0])
    assert sum(share) == pytest.approx(10.0)
