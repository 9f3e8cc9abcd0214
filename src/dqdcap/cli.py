"""Command-line front end: geometry -> capacitances -> charge-transfer artifacts.

All file outputs use fixed 9-significant-digit float formatting so identical
inputs and options reproduce byte-identical CSV/JSON artifacts.  Every run
writes a manifest (<output>.manifest.json, written last) listing the command,
input hashes, options and output files; the manifest carries the wall time
and is the one file excluded from byte-identical reproducibility.  Output
paths are checked before any input is read, and every file is written through
a temporary file renamed into place, so a failed run leaves no partial file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import replace

from . import __version__
from .analysis import (
    DEFAULT_DIAGRAM_N,
    AnalysisError,
    compare_report,
    dotsize_sweep,
    misalign_sweep,
    stability_diagram,
)
from .capsolve import AssemblyError, MaxwellMatrix, SolverError, check_dense_size, solve
from .charging import ChargingError, ModelCaps, delta_q, reduce_caps
from .constants import MV
from .geometry import DEFAULT_H_MAX_NM, DeviceError, load_device, mesh_device, panel_count
from .validation import pattern_shift_delta_q, run_validation

_RANGE_FLAGS = ("--dx", "--dy", "--r", "--window-mv", "--air-gap-nm")
_RANGE_RE = re.compile(r"^-\d+(\.\d+)?(:-?\d+(\.\d+)?){0,2}$")


class CliError(ValueError):
    """A bad input file or value: exit code 1."""


class UsageError(CliError):
    """A bad flag value or output path: exit code 2."""


def _fmt(x) -> str:
    if x is None:
        return ""
    return "%.9g" % float(x)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _tmp_path(path):
    head, tail = os.path.split(path)
    return os.path.join(head, f".{tail}.{os.getpid()}.tmp")


@contextlib.contextmanager
def _atomic_open(path):
    """Write path through a temporary file beside it, renamed into place on success.

    A failed write removes the temporary file, so it leaves no partial output
    and any earlier file at path intact.
    """
    tmp = _tmp_path(path)
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _check_writable(*paths):
    """Reject an output that cannot be written, before any input is read or solved."""
    for path in paths:
        if os.path.isdir(path):
            raise UsageError(f"cannot write {path}: it is a directory")
        probe = _tmp_path(path)
        try:
            open(probe, "w").close()
            os.remove(probe)
        except OSError as e:
            raise UsageError(f"cannot write {path}: {e.strerror}") from None


def _manifest_path(out_path):
    return f"{out_path}.manifest.json"


def _write_json(path, obj):
    with _atomic_open(path) as f:
        json.dump(_round_floats(obj), f, indent=2)
        f.write("\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, argv, inputs, args, outputs, t0):
    """The run's manifest: its options are the parsed flags, as the run used them."""
    options = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": ["dqdcap"] + list(argv),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "options": options,
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "outputs": [str(p) for p in outputs],
    }
    _write_json(_manifest_path(out_path), manifest)


def parse_range(text):
    """min:max:step (inclusive), or a single value."""
    parts = text.split(":")
    try:
        values = [float(p) for p in parts[:3]]
    except ValueError:
        raise CliError(f"bad range {text!r}; expected min:max:step") from None
    if not all(map(math.isfinite, values)):
        raise CliError(f"bad range {text!r}; min, max and step must be finite")
    if len(values) == 1:
        return values
    lo, hi, step = values if len(values) == 3 else (*values, 1.0)
    if step <= 0 or hi < lo:
        raise CliError(f"bad range {text!r}; expected min:max:step with step > 0")
    n = math.floor((hi - lo) / step + 1e-9)  # whole steps; the slack keeps 0:0.3:0.1 at 0.3
    return [lo + i * step for i in range(n + 1)]


def _join_range_args(argv):
    """argparse treats '-90:90:10' as an option; pre-join it onto its flag."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RANGE_FLAGS and i + 1 < len(argv) and _RANGE_RE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _check_solver_flags(args):
    """Reject bad solver flags before any input is read, and raise --jobs to at least 1."""
    if not 0.0 < args.h_max < math.inf:
        raise UsageError(f"--h-max must be finite and positive, got {args.h_max:g}")
    if args.epsilon_r is not None and not 0.0 < args.epsilon_r < math.inf:
        raise UsageError(f"--epsilon-r must be finite and positive, got {args.epsilon_r:g}")
    args.jobs = max(1, args.jobs)


def _add_solver_flags(sub):
    sub.add_argument("--mode", choices=("dense", "accelerated"), default="dense")
    sub.add_argument("--h-max", type=float, default=DEFAULT_H_MAX_NM, help="max panel edge, nm")
    sub.add_argument("--epsilon-r", type=float, default=None,
                     help="override the device relative permittivity")
    sub.add_argument("--jobs", type=int, default=1,
                     help="sweep cells run at once, at most one per core; extract ignores it")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"{path} is not valid JSON ({e})") from None


def _load_maxwell(path, obj):
    try:
        return MaxwellMatrix.from_json(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"{path} is not a valid Maxwell JSON ({e!r})") from None


def _load_measured(path):
    """compare's measured file: {"pairs": [{"a": str, "b": str, "measured_aF": x, "sd_aF": s}]}."""
    obj = _read_json(path)
    try:
        for pair in obj.get("pairs", []):
            if not (isinstance(pair["a"], str) and isinstance(pair["b"], str)):
                raise TypeError("conductor names must be strings")
            measured, sd = (float(pair.get(key, 0.0)) for key in ("measured_aF", "sd_aF"))
            if not (math.isfinite(measured) and 0.0 <= sd < math.inf):
                raise ValueError("measured_aF must be finite, sd_aF finite and non-negative")
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise CliError(f"{path} is not a valid measured-pairs JSON ({e!r})") from None
    return obj


def _load_caps(path):
    """The ModelCaps of a MaxwellMatrix JSON (reduced by its roles) or of a ModelCaps JSON."""
    obj = _read_json(path)
    if isinstance(obj, dict) and "entries_aF" in obj:
        maxwell = _load_maxwell(path, obj)
        return reduce_caps(maxwell, maxwell.roles)
    if isinstance(obj, dict) and "Csum_d1" in obj:
        try:
            return ModelCaps.from_json(obj)
        except (KeyError, TypeError, ValueError) as e:
            raise CliError(f"{path} is not a valid ModelCaps JSON ({e!r})") from None
    raise CliError(f"{path} is neither a Maxwell JSON nor a ModelCaps JSON")


def _load_spec(args):
    """The device file, with --epsilon-r applied."""
    spec = load_device(args.geometry)
    if args.epsilon_r is not None:
        spec = replace(spec, epsilon_r=args.epsilon_r)
    return spec


def _cmd_extract(args, argv):
    t0 = time.perf_counter()
    _check_solver_flags(args)
    if args.air_gap_nm is not None and not 0.0 <= args.air_gap_nm < math.inf:
        raise UsageError(f"--air-gap-nm must be finite and non-negative, got {args.air_gap_nm:g}")
    _check_writable(args.out, _manifest_path(args.out))
    spec = _load_spec(args)
    if args.air_gap_nm is not None:
        spec = spec.with_air_gap(args.air_gap_nm)
    if args.mode == "dense":
        check_dense_size(panel_count(spec, args.h_max))
    mesh = mesh_device(spec, args.h_max)
    maxwell = replace(solve(mesh, args.mode, spec.epsilon_r), roles=spec.roles)
    _write_json(args.out, maxwell.to_json())
    print(f"wrote {args.out}: {maxwell.n_cond} conductors, {mesh.n_panels} panels, "
          f"asymmetry {maxwell.asymmetry:.2e}")
    _write_manifest(args.out, argv, [args.geometry], args, [args.out], t0)
    return 0


def _cmd_stability(args, argv):
    t0 = time.perf_counter()
    if args.n < 2:
        raise UsageError(f"--n must be at least 2, got {args.n}")
    if args.window_mv is not None and not 0.0 < args.window_mv < math.inf:
        raise UsageError(f"--window-mv must be finite and positive, got {args.window_mv:g}")
    grid_path = f"{args.out_prefix}_grid.csv"
    lines_path = f"{args.out_prefix}_boundaries.json"
    _check_writable(grid_path, lines_path, _manifest_path(args.out_prefix))
    caps = _load_caps(args.caps)
    ranges = None
    if args.window_mv is not None:
        w = args.window_mv * MV
        ranges = ((-w, w), (-w, w))
    diag = stability_diagram(caps, v_ranges=ranges, n=args.n)
    with _atomic_open(grid_path) as f:
        f.write("v_sl_mV,v_sr_mV,x\n")
        for i, vsl in enumerate(diag.v_sl):
            for j, vsr in enumerate(diag.v_sr):
                f.write(f"{_fmt(vsl / MV)},{_fmt(vsr / MV)},{diag.grid[i, j]}\n")
    metrics = {
        "dV_SL_mV": diag.dv_sl / MV if diag.dv_sl else None,
        "dV_SR_mV": diag.dv_sr / MV if diag.dv_sr else None,
        "theta_deg": diag.theta_deg,
        "n_boundaries": len(diag.boundaries),
    }
    _write_json(lines_path, {"boundaries": [b.to_json() for b in diag.boundaries],
                             "metrics": metrics})
    print(f"dV_SL={_fmt(metrics['dV_SL_mV'])} mV dV_SR={_fmt(metrics['dV_SR_mV'])} mV "
          f"theta={_fmt(metrics['theta_deg'])} deg ({len(diag.boundaries)} lines)")
    _write_manifest(args.out_prefix, argv, [args.caps], args,
                    [grid_path, lines_path], t0)
    return 0


def _cmd_induced_charge(args, argv):
    t0 = time.perf_counter()
    if args.out:
        _check_writable(args.out, _manifest_path(args.out))
    caps = _load_caps(args.caps)
    dq = delta_q(caps)
    result = {"delta_q_e": dq, "oracle_delta_q_e": pattern_shift_delta_q(caps)}
    print(f"delta_q = {_fmt(dq)} e")
    if args.out:
        _write_json(args.out, result)
        _write_manifest(args.out, argv, [args.caps], args, [args.out], t0)
    return 0


_SWEEP_FIELDS = ("C_SLd1_aF", "C_SRd2_aF", "dV_SL_mV", "dV_SR_mV",
                 "theta_deg", "dV_SL_dB", "delta_q_e")


def _write_sweep_csv(path, sweep, axis_fields):
    with _atomic_open(path) as f:
        f.write(",".join(axis_fields + _SWEEP_FIELDS + ("status",)) + "\n")
        for row in sweep.rows:
            cells = [_fmt(row[a]) for a in axis_fields]
            cells += [_fmt(row.get(k)) for k in _SWEEP_FIELDS]
            cells.append(row["status"])
            f.write(",".join(cells) + "\n")


def _cmd_sweep(args, argv):
    """sweep-misalign and sweep-dotsize: one CSV row per cell."""
    t0 = time.perf_counter()
    _check_solver_flags(args)
    _check_writable(args.out, _manifest_path(args.out))
    spec = _load_spec(args)
    settings = dict(mode=args.mode, h_max_nm=args.h_max, jobs=args.jobs)
    if args.command == "sweep-misalign":
        sweep = misalign_sweep(spec, parse_range(args.dx), parse_range(args.dy), **settings)
        axis_fields = ("dx_nm", "dy_nm")
    else:
        sweep = dotsize_sweep(spec, parse_range(args.r), **settings)
        axis_fields = ("R_nm",)
    _write_sweep_csv(args.out, sweep, axis_fields)
    failed = sum(1 for r in sweep.rows if r["status"] != "ok")
    print(f"wrote {args.out}: {len(sweep.rows)} cells, {failed} failed")
    _write_manifest(args.out, argv, [args.geometry], args, [args.out], t0)
    return 0


def _cmd_validate(args, argv):
    checks = run_validation()
    width = max(len(name) for name, _, _ in checks)
    ok_all = True
    for name, ok, detail in checks:
        ok_all &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    print(f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed")
    return 0 if ok_all else 1


def _cmd_compare(args, argv):
    t0 = time.perf_counter()
    if args.out:
        _check_writable(args.out, _manifest_path(args.out))
    maxwell = _load_maxwell(args.caps, _read_json(args.caps))
    measured = _load_measured(args.measured)
    report = compare_report(maxwell, measured)
    header = f"{'pair':<10} {'calc aF':>9} {'meas aF':>9} {'sd':>6} {'dev/sd':>7} {'period mV':>10}"
    print(header)
    for row in report["pairs"]:
        v = {k: math.nan if row.get(k) is None else row[k]
             for k in ("measured_aF", "sd_aF", "deviation_sd", "period_mV")}
        print(f"{row['a'] + '-' + row['b']:<10} {row['calculated_aF']:>9.2f} "
              f"{v['measured_aF']:>9.2f} {v['sd_aF']:>6.2f} {v['deviation_sd']:>7.2f} "
              f"{v['period_mV']:>10.3f}")
    if args.out:
        _write_json(args.out, report)
        _write_manifest(args.out, argv, [args.caps, args.measured], args,
                        [args.out], t0)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dqdcap",
        description="Capacitance extraction and single-electron charge-transfer "
                    "analysis for buried double-dot/SET devices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="geometry -> Maxwell capacitance matrix JSON")
    p.add_argument("--geometry", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--air-gap-nm", type=float, default=None)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("stability", help="capacitances -> stability diagram CSV + metrics")
    p.add_argument("--caps", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--n", type=int, default=DEFAULT_DIAGRAM_N)
    p.add_argument("--window-mv", type=float, default=None,
                   help="half-width of the bias window (default: auto)")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("induced-charge", help="capacitances -> SET1 induced charge")
    p.add_argument("--caps", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_induced_charge)

    p = sub.add_parser("sweep-misalign", help="misalignment sweep -> CSV")
    p.add_argument("--geometry", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dx", default="-90:90:10", help="nm range min:max:step")
    p.add_argument("--dy", default="-50:50:10")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sweep-dotsize", help="dot-size sweep -> CSV")
    p.add_argument("--geometry", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--r", default="10:50:10", help="dot size R range, nm")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="run the sphere/plate/toy-network oracle suite")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compare", help="Maxwell matrix vs measured values report")
    p.add_argument("--caps", required=True)
    p.add_argument("--measured", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)
    return parser


def run(argv) -> int:
    argv = _join_range_args(list(argv))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DeviceError, ChargingError, SolverError, AssemblyError,
            AnalysisError, CliError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory{f' ({e})' if str(e) else ''}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # SIGINT: no output file is left, as for any failure
        print("error: interrupted", file=sys.stderr)
        return 130


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
