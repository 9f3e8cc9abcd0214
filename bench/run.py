"""dqdcap benchmark: runs one workload through the CLI and prints its metrics.

    python3 bench/run.py --workload extract-dense-h6 --seed 0 --seconds 20 --trace 0

Run from a checkout: the package is imported from its src/ directory.  This
process only orchestrates.  Each set-up sample and the measured workload run
in a fresh Python process (one client, commands run one after another, no
threads of the benchmark's own), so set-up time and peak memory belong to
that workload alone.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics of BENCHMARK.json and --trace 1 its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
DEADLINE_S = 175
READY, RESULT = "@bench-ready", "@bench-result "
# Reported by name and unit with every run, but not gated in BENCHMARK.json:
# both are 0 on a clean run, and max_rel_err exists only where a committed
# reference does (seed 0).  Failures still set `failed` and `correct`.
CHECK_UNITS = {"max_rel_err": "ratio", "fail_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time; passes repeat until it is used up (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced inputs (h = 16 nm, 3-cell sweep), no reference comparison")
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def work_dir(args) -> Path:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else "")
    return WORK / tag


# ---------------------------------------------------------------------------
# child process: set-up, then timed passes
# ---------------------------------------------------------------------------

def _call(cli, argv):
    """One CLI command; returns its exit code, or an error line if it raised."""
    try:
        return cli.run(argv)
    except SystemExit as e:
        return e.code
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        return traceback.format_exc().strip().splitlines()[-1]


class Outcome:
    def __init__(self, wl, quick, reference):
        self.wl = wl
        self.size = wl.quick_size if quick else wl.size
        self.ops = self.size if wl.is_sweep else 1
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = None
        self.failures: list[str] = []

    def fail(self, n, messages):
        self.failed += n
        self.failures.extend(m for m in messages if m not in self.failures)

    def check(self, out_path: Path, code):
        """Count this pass's operations and check its artifact."""
        self.attempted += self.ops
        if code != 0:
            self.fail(self.ops, [f"exit {code}"])
            return
        wl = self.wl
        try:
            if wl.is_sweep:
                fails, bad, err = workloads.check_sweep(
                    workloads.read_sweep(out_path), self.reference, wl.ref_bound, self.ops)
            else:
                caps = json.loads(out_path.read_text(encoding="utf-8"))
                fails, err = workloads.check_maxwell(caps, self.reference, wl.ref_bound, self.size)
                bad = 1 if fails else 0
        except (OSError, ValueError, KeyError) as e:
            self.fail(self.ops, [f"unreadable artifact {out_path.name}: {e!r}"])
            return
        self.fail(bad, fails)
        if err is not None:
            self.max_rel_err = max(err, self.max_rel_err or 0.0)


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DQDCAP_JOBS"):
        env[var] = os.environ.get(var, "unset")
    return env


def child(args) -> int:
    wl = WORKLOADS[args.workload]
    work = work_dir(args)
    device = work / "device.json"
    sys.path.insert(0, str(SRC))
    from dqdcap import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported dqdcap from {cli.__file__}, not from {SRC}")
    (work / "warmup").mkdir(exist_ok=True)
    code = _call(cli, wl.argv(device, work / "warmup", quick=True))
    if code != 0:
        raise BenchError(f"warm-up pass failed: {code}")
    print(READY, flush=True)
    if args.role == "setup":
        return 0

    reference = None
    if args.seed == 0 and not args.quick:
        path = workloads.DATA / wl.reference
        reference = (workloads.read_sweep(path) if path.suffix == ".csv"
                     else json.loads(path.read_text(encoding="utf-8")))
    outcome = Outcome(wl, args.quick, reference)
    budget = args.seconds / 2 if args.trace else args.seconds

    missing = set()

    def passes(out_dir, traced):
        out_dir.mkdir(exist_ok=True)
        argv = wl.argv(device, out_dir, quick=args.quick)
        walls, layers, spans = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < budget:
            if traced:
                with Tracer() as tracer:
                    t0 = time.perf_counter()
                    code = _call(cli, argv)
                    walls.append(time.perf_counter() - t0)
                layers.append(layer_metrics(tracer.spans, walls[-1]))
                spans.append([s.to_json() for s in tracer.spans])
                missing.update(tracer.missing)
            else:
                t0 = time.perf_counter()
                code = _call(cli, argv)
                walls.append(time.perf_counter() - t0)
            outcome.check(out_dir / wl.out_name, code)
        return walls, layers, spans

    walls, _, _ = passes(work / "pass", traced=False)
    result = {"walls": walls}
    if args.trace:
        traced_walls, layers, spans = passes(work / "traced", traced=True)
        result["traced_walls"] = traced_walls
        result["layers"] = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
        result["layers"]["trace.overhead_s"] = (statistics.median(traced_walls)
                                                - statistics.median(walls))
        outcome.attempted += 1
        plain, traced = (work / d / wl.out_name for d in ("pass", "traced"))
        if not (plain.is_file() and traced.is_file() and workloads.same_artifact(plain, traced)):
            outcome.fail(1, ["traced and untraced passes wrote different artifacts"])
        (work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
        result["untraced_names"] = sorted(missing)
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  failures=outcome.failures, max_rel_err=outcome.max_rel_err,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  env=environment())
    print(RESULT + json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent process
# ---------------------------------------------------------------------------

def _spawn(args, role, live):
    """Run one child; returns (seconds from spawn to ready, result or None)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role] + (["--quick"] if args.quick else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    live.append(proc)
    ready, result = None, None
    for line in proc.stdout:
        if line.startswith(READY):
            ready = time.perf_counter() - t0
        elif line.startswith(RESULT):
            result = json.loads(line[len(RESULT):])
    code = proc.wait()
    live.remove(proc)
    if code != 0 or ready is None or (role == "measure" and result is None):
        raise BenchError(f"{role} process exited with code {code}")
    return ready, result


def _on_alarm(signum, frame):
    raise BenchError(f"run did not finish within {DEADLINE_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        try:
            return child(args)
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    live = []
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        if not (SRC / "dqdcap" / "cli.py").is_file():
            raise BenchError(f"no dqdcap package under {SRC}; run from a dqdcap checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wl = WORKLOADS[args.workload]
        work = work_dir(args)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (work / "device.json").write_text(json.dumps(workloads.device_for_seed(args.seed), indent=2),
                                          encoding="utf-8")
        setups = [_spawn(args, "setup", live)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, rec = _spawn(args, "measure", live)
        setups.append(ready)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in live:
            proc.kill()
            proc.wait()

    values = {
        "wall_s": statistics.median(rec["walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rec["peak_rss_mb"],
        "max_rel_err": rec["max_rel_err"],
        "fail_frac": rec["failed"] / rec["attempted"],
        **rec.get("layers", {}),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(CHECK_UNITS)
    dx, dy = workloads.seed_offset(args.seed)
    print(f"workload {wl.name}{' (quick)' if args.quick else ''}, seed {args.seed}: "
          f"dots shifted by ({dx}, {dy}) nm; {wl.argv('DEVICE', 'OUT', args.quick)}")
    print("env " + " ".join(f"{k}={v}" for k, v in rec["env"].items()))
    print(f"setup samples (s): {[round(s, 4) for s in setups]}")
    print(f"pass wall times (s): {[round(w, 4) for w in rec['walls']]}")
    if args.trace:
        print(f"traced pass wall times (s): {[round(w, 4) for w in rec['traced_walls']]}")
        for name in rec["untraced_names"]:
            print(f"trace: {name} not found; its layer metrics read 0")
    for msg in rec["failures"]:
        print(f"check FAILED: {msg}")
    print(f"checks: {rec['attempted'] - rec['failed']}/{rec['attempted']} operations passed")
    for name, value in values.items():
        shown = "n/a (no reference for this seed)" if value is None else f"{value:.6g} {units[name]}"
        print(f"metric {name} = {shown}")
    key = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]},
    }
    (work / "result.json").write_text(json.dumps({**result, "record": rec, "setups": setups},
                                                 indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
