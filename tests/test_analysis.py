import importlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from dqdcap import _blas, analysis, geometry
from dqdcap.analysis import (
    AnalysisError,
    _cell_solver,
    _crossing_points,
    _degeneracy_metrics,
    _grid_terms,
    compare_report,
    coulomb_period,
    dotsize_sweep,
    misalign_sweep,
    stability_diagram,
    transfer_metrics,
)
from dqdcap.capsolve import (
    AssemblyError, DenseFactor, MaxwellMatrix, SolverError, kernels, solve_dense,
)
from dqdcap.capsolve import solve as capsolve_solve
from dqdcap.charging import (
    Bias,
    ChargingError,
    ModelCaps,
    config_energy,
    integer_minimizer,
    reduce_caps,
    stable_config,
)
from dqdcap.constants import AF, MV, Q_E
from dqdcap.geometry import DeviceError, loads_device, mesh_device, panel_count, transform_dots
from dqdcap.reference import build_reference_device
from test_capsolve import full_mesh_maxwell, in_order
from test_geometry import random_device
from dqdcap.validation import random_model_caps


def toy_caps():
    cmat = np.array([[2.0, -1.0], [-1.0, 2.0]]) * AF
    gates = np.zeros((2, 4))
    gates[0, 0] = gates[1, 1] = 1.0 * AF
    return ModelCaps(("d1", "d2"), cmat, gates)


class TestStabilityDiagram:
    def test_grid_matches_stable_config(self):
        diag = stability_diagram(toy_caps(), n=51)
        rng = np.random.default_rng(0)
        for _ in range(30):
            i = rng.integers(0, 51)
            j = rng.integers(0, 51)
            assert diag.grid[i, j] == stable_config(
                toy_caps(), diag.v_sl[i], diag.v_sr[j])

    def test_point_symmetry(self):
        diag = stability_diagram(toy_caps(), n=75)
        assert np.array_equal(diag.grid, -diag.grid[::-1, ::-1])

    def test_boundaries_separate_adjacent_configs(self):
        diag = stability_diagram(toy_caps())
        assert len(diag.boundaries) >= 3
        ks = [b.x for b in diag.boundaries]
        assert ks == sorted(ks)

    def test_toy_boundary_crosses_antidiagonal_at_80mV(self):
        # the x=0<->1 line meets V_SR = -V_SL at V_SL = -q_e/(2 aF)
        diag = stability_diagram(toy_caps())
        line = next(b for b in diag.boundaries if b.x == 0)
        p0, p1 = np.array(line.p0), np.array(line.p1)
        d = p1 - p0
        # solve p0 + t d on the antidiagonal: x + y = 0
        t = -(p0[0] + p0[1]) / (d[0] + d[1])
        v_sl = p0[0] + t * d[0]
        assert v_sl == pytest.approx(-Q_E / (2.0 * AF), rel=1e-6)

    def test_boundary_lines_straight(self):
        diag = stability_diagram(toy_caps())
        step = diag.v_sl[1] - diag.v_sl[0]
        for b in diag.boundaries:
            assert b.residual < step

    def test_boundary_points_sit_on_energy_degeneracy(self):
        caps = toy_caps()
        diag = stability_diagram(caps, n=51)
        line = next(b for b in diag.boundaries if b.x == 0)
        for p in (line.p0, line.p1):
            b = Bias(p[0], p[1])
            e0 = config_energy(caps, b, 0)
            e1 = config_energy(caps, b, 1)
            assert abs(e0 - e1) < 1e-25

    def test_periodicities_absent_in_featureless_window(self):
        diag = stability_diagram(toy_caps(), v_ranges=((-1e-3, 1e-3), (-1e-3, 1e-3)), n=21)
        assert diag.dv_sl is None and diag.theta_deg is None

    def test_explicit_window(self):
        w = 0.7
        diag = stability_diagram(toy_caps(), v_ranges=((-w, w), (-w, w)), n=41)
        assert diag.v_sl[0] == -w and diag.v_sl[-1] == w

    def test_min_grid_size(self):
        with pytest.raises(AnalysisError):
            stability_diagram(toy_caps(), n=1)

    def test_component_zero_within_rounding_gives_none(self):
        """SL coupled 1 aF to both dots: g_SL is zero, though the product rounds to -1.5e-16."""
        gates = np.zeros((2, 4))
        gates[0, 0] = gates[1, 0] = gates[1, 1] = 1.0 * AF
        caps = ModelCaps(("d1", "d2"), toy_caps().cmat, gates)
        gmap, kappa = _grid_terms(caps)
        assert gmap[0] == 0.0
        dv_sl, dv_sr, theta = _degeneracy_metrics(gmap, kappa)
        assert dv_sl is None and theta is None
        assert dv_sr == pytest.approx(2.0 * Q_E / AF, rel=1e-12)  # q_e kappa / |g_SR|
        diag = stability_diagram(caps)
        assert (diag.dv_sl, diag.dv_sr, diag.theta_deg) == (None, dv_sr, None)


def loop_crossing_points(g, v, step):
    """Reference for _crossing_points: one grid edge and one line k at a time."""
    points = {}

    def labels(gv):
        return integer_minimizer(-gv / step)

    def collect(ga, gb, va, vb):
        la, lb = labels(ga), labels(gb)
        ka, kb = np.minimum(la, lb), np.maximum(la, lb)
        for idx in zip(*np.nonzero(kb > ka)):
            for k in range(int(ka[idx]), int(kb[idx])):
                f0 = ga[idx] + step * (k + 0.5)
                f1 = gb[idx] + step * (k + 0.5)
                if f0 == f1:
                    continue
                t = f0 / (f0 - f1)
                if 0.0 <= t <= 1.0:
                    points.setdefault(k, []).append((1 - t) * va[idx] + t * vb[idx])

    collect(g[:-1, :], g[1:, :], v[:-1, :], v[1:, :])
    collect(g[:, :-1], g[:, 1:], v[:, :-1], v[:, 1:])
    return {k: np.asarray(pts) for k, pts in points.items()}


class TestCrossingPoints:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("half_width, n", [(0.05, 41), (0.4, 101), (2.0, 201)])
    def test_bitwise_equal_to_edge_loop(self, seed, half_width, n):
        caps = random_model_caps(np.random.default_rng(seed), island=bool(seed % 2))
        gmap, kappa = _grid_terms(caps)
        axis_sl = np.linspace(-half_width, 0.7 * half_width, n)
        axis_sr = np.linspace(-0.6 * half_width, half_width, n + 3)
        vsl, vsr = np.meshgrid(axis_sl, axis_sr, indexing="ij")
        g = gmap[0] * vsl + gmap[1] * vsr
        v = np.stack([vsl, vsr], axis=-1)
        got = _crossing_points(g, v, Q_E * kappa)
        want = loop_crossing_points(g, v, Q_E * kappa)
        assert list(got) == sorted(want)
        for k, pts in want.items():
            assert got[k].shape == pts.shape
            assert got[k].tobytes() == pts.tobytes()

    def test_toy_caps_with_many_lines(self):
        gmap, kappa = _grid_terms(toy_caps())
        axis = np.linspace(-1.0, 1.0, 151)
        vsl, vsr = np.meshgrid(axis, axis, indexing="ij")
        g = gmap[0] * vsl + gmap[1] * vsr
        v = np.stack([vsl, vsr], axis=-1)
        got = _crossing_points(g, v, Q_E * kappa)
        want = loop_crossing_points(g, v, Q_E * kappa)
        assert len(want) > 10 and list(got) == sorted(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)


class TestTransferMetrics:
    def test_equal_periods_45_degrees(self):
        theta, _ = transfer_metrics(0.1, 0.1, 0.05)
        assert theta == 45.0

    def test_sqrt3_gives_60_degrees(self):
        theta, _ = transfer_metrics(1.0, math.sqrt(3.0), 1.0)
        assert theta == pytest.approx(60.0, abs=1e-12)

    def test_endpoint_dynamic_range_in_db(self):
        # 20 log10(8.36 V / 47.5 mV) = 44.91 dB
        _, db = transfer_metrics(8.36, 1.0, 0.0475)
        assert db == pytest.approx(20.0 * math.log10(8.36 / 0.0475), rel=1e-12)
        assert db == pytest.approx(44.91, abs=5e-3)

    def test_complementarity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(0.01, 10.0, 2)
            ta, _ = transfer_metrics(a, b, 1.0)
            tb, _ = transfer_metrics(b, a, 1.0)
            assert ta + tb == 90.0

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            transfer_metrics(-1.0, 1.0, 1.0)
        with pytest.raises(AnalysisError):
            transfer_metrics(1.0, 1.0, 0.0)


class TestCoulombPeriod:
    def test_one_electron_per_100mV(self):
        assert coulomb_period(1.602176634 * AF) == pytest.approx(0.100, rel=1e-9)
        assert coulomb_period(16.02176634 * AF) == pytest.approx(0.010, rel=1e-9)

    def test_table_value(self):
        # e / 23.4 aF = 6.847 mV to four significant digits
        assert coulomb_period(23.4 * AF) * 1e3 == pytest.approx(6.847, abs=5e-4)

    def test_nonpositive_rejected(self):
        with pytest.raises(AnalysisError):
            coulomb_period(0.0)


def _tiny_sweep(jobs=1):
    spec = build_reference_device()
    return misalign_sweep(spec, [-20.0, 0.0, 20.0], [0.0], h_max_nm=16.0, jobs=jobs)


# random_device seeds through both sweeps at h = 16, and whether any cell
# solves: 1, 4 and 11 solve, 2 has no g1 island coupling to compensate, and in
# 9 the largest shifts leave the domain.
GENERATED_SWEEP_SEEDS = {1: True, 2: False, 4: True, 9: True, 11: True}
# random_device seeds of 0-11 whose groups share a circuit role: g1 (0 and 3),
# g2 (7), i1 (8) and SR (10)
SHARED_ROLE_SEEDS = (0, 3, 7, 8, 10)
CELL_ERROR = re.compile(r"^[A-Za-z]+Error: [^\n]+$")


def generated_sweeps(seed, jobs):
    """Misalignment (6 cells, dx = bound + 1 beyond the sweep bound) and dot-size (3 cells)
    sweep rows of random_device(seed) at h = 16."""
    spec = random_device(np.random.default_rng(seed))
    dx = [-5.0, 0.0, spec.sweep_bounds_nm[0] + 1.0]
    return (misalign_sweep(spec, dx, [0.0, 5.0], h_max_nm=16.0, jobs=jobs).rows,
            dotsize_sweep(spec, (4.0, 8.0, 16.0), h_max_nm=16.0, jobs=jobs).rows)


class TestGeneratedDeviceSweeps:
    @pytest.mark.parametrize("seed, solves", GENERATED_SWEEP_SEEDS.items())
    def test_rows_are_ok_or_one_reason_at_any_width(self, monkeypatch, seed, solves):
        monkeypatch.setattr(_blas, "worker_count", lambda: 8)
        misalign, dotsize = generated_sweeps(seed, 1)
        assert any(r["status"] == "ok" for r in misalign + dotsize) == solves
        for row in misalign + dotsize:
            assert row["status"] in ("ok", "failed")
            if row["status"] == "ok":
                assert "error" not in row and math.isfinite(row["C_SLd1_aF"])
            else:
                assert CELL_ERROR.match(row["error"]), row["error"]
        bx, by = random_device(np.random.default_rng(seed)).sweep_bounds_nm
        for row in misalign[4:]:  # dx = bx + 1
            assert row["status"] == "failed"
            assert f"outside sweep bounds (+-{bx}, +-{by})" in row["error"]
        for jobs in (2, 8):
            assert generated_sweeps(seed, jobs) == (misalign, dotsize), jobs

    @pytest.mark.parametrize("seed", SHARED_ROLE_SEEDS)
    def test_shared_roles_fail_before_any_mesh(self, monkeypatch, seed):
        """A device whose groups share a circuit role fails both sweeps, in both modes,
        before anything is meshed, with the error reduce_caps raises on its Maxwell matrix."""
        spec = random_device(np.random.default_rng(seed))
        meshed = []
        monkeypatch.setattr(analysis, "mesh_device", lambda *args: meshed.append(args))
        with pytest.raises(ChargingError, match="role '.+' assigned to '.+' and '.+'") as e:
            reduce_caps(MaxwellMatrix((), np.zeros((0, 0)), 0.0), spec.roles)
        for mode in ("dense", "accelerated"):
            with pytest.raises(ChargingError, match=re.escape(str(e.value))):
                misalign_sweep(spec, [0.0], [0.0], mode=mode, h_max_nm=16.0)
            with pytest.raises(ChargingError, match=re.escape(str(e.value))):
                dotsize_sweep(spec, (8.0,), mode=mode, h_max_nm=16.0)
        assert meshed == []


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_moved_dot_touching_a_box_is_a_failed_row(self, jobs):
        """random_device(4), whose roles are distinct: dy = -110 drives dot1 (box0) into
        the g1 box (box4), within the sweep bounds; that cell alone fails, naming both."""
        spec = random_device(np.random.default_rng(4))
        sweep = misalign_sweep(spec, [0.0], [0.0, -110.0], h_max_nm=16.0, jobs=jobs)
        ok, moved = sweep.rows
        assert ok["status"] == "ok" and moved["status"] == "failed"
        assert moved["error"].startswith("DeviceError: boxes 'box4' and 'box0' overlap or touch")


class TestSweeps:
    def test_grid_complete_and_ordered(self):
        sweep = _tiny_sweep()
        assert [(r["dx_nm"], r["dy_nm"]) for r in sweep.rows] == \
            [(-20.0, 0.0), (0.0, 0.0), (20.0, 0.0)]
        assert all(r["status"] == "ok" for r in sweep.rows)

    def test_db_reference_is_map_minimum(self):
        sweep = _tiny_sweep()
        dbs = [r["dV_SL_dB"] for r in sweep.rows]
        assert min(dbs) == 0.0

    def test_parallel_matches_serial(self):
        s1 = _tiny_sweep(jobs=1)
        s2 = _tiny_sweep(jobs=4)
        for a, b in zip(s1.rows, s2.rows):
            assert a == b

    def test_aligned_cell_mirror_symmetry(self):
        sweep = _tiny_sweep()
        mid = sweep.rows[1]
        assert mid["C_SLd1_aF"] == pytest.approx(mid["C_SRd2_aF"], rel=0.02)
        assert mid["theta_deg"] == pytest.approx(45.0, abs=1.0)

    def test_theta_mirror_against_dx(self):
        sweep = _tiny_sweep()
        assert sweep.rows[0]["theta_deg"] + sweep.rows[2]["theta_deg"] == \
            pytest.approx(90.0, abs=0.5)

    def test_failed_cells_reported_not_interpolated(self):
        import json

        from dqdcap.geometry import loads_device

        cfg = {"boxes": [
            {"name": "dot1", "group": "d1", "role": "d1",
             "min_nm": [-70, -20, -30], "dims_nm": [40, 40, 10]},
            {"name": "dot2", "group": "d2", "role": "d2",
             "min_nm": [30, -20, -30], "dims_nm": [40, 40, 10]},
            {"name": "marker", "group": "m", "role": "other",
             "min_nm": [-140, -20, -30], "dims_nm": [40, 40, 10]},
        ]}
        spec = loads_device(json.dumps(cfg))
        # dx = -40 drives dot1 into the buried marker: that cell must fail
        sweep = misalign_sweep(spec, [-40.0, 0.0], [0.0], h_max_nm=16.0)
        statuses = [r["status"] for r in sweep.rows]
        assert statuses[0] == "failed" and statuses[1] == "ok"
        assert "error" in sweep.rows[0]

    def test_dotsize_sweep_records_island_coupling(self):
        spec = build_reference_device()
        sweep = dotsize_sweep(spec, (20.0, 40.0), h_max_nm=16.0)
        assert [r["R_nm"] for r in sweep.rows] == [20.0, 40.0]
        for r in sweep.rows:
            assert r["status"] == "ok"
            assert r["C_d1i1_aF"] > 0
            assert 0.0 < r["delta_q_e"] < 0.5

    def test_bad_inputs_rejected(self):
        spec = build_reference_device()
        with pytest.raises(AnalysisError):
            dotsize_sweep(spec, (), h_max_nm=16.0)
        with pytest.raises(AnalysisError):
            dotsize_sweep(spec, (-5.0,), h_max_nm=16.0)
        with pytest.raises(AnalysisError, match="jobs must be at least 1, got 0"):
            dotsize_sweep(spec, (20.0,), h_max_nm=16.0, jobs=0)
        with pytest.raises(AnalysisError, match="jobs must be at least 1, got -1"):
            misalign_sweep(spec, [0.0], [0.0], h_max_nm=16.0, jobs=-1)


_COUNTS_LOCK = threading.Lock()


def _blas_counts(setters):
    """Thread count of each OpenBLAS, read by setting it to 1 and back.

    The lock keeps two cells from reading at once: the second would see the
    first one's 1 and restore that.
    """
    counts = []
    with _COUNTS_LOCK:
        for set_threads in setters:
            n = set_threads(1)
            set_threads(n)
            counts.append(n)
    return counts


@pytest.fixture
def openblas_at_three():
    """The loaded OpenBLAS setters, each library's count set to 3 for the test."""
    setters = _blas._openblas_setters()
    if not setters:
        pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
    previous = [set_threads(3) for set_threads in setters]
    yield setters
    for set_threads, n in zip(setters, previous):
        set_threads(n)


class TestSingleThreadedBlas:
    """Sweep cells run BLAS on one thread; every count is restored after the pool."""

    def _record_counts(self, monkeypatch, setters):
        seen = []
        original = analysis._cell_metrics

        def cell_metrics(*args):
            seen.append(_blas_counts(setters))
            return original(*args)

        monkeypatch.setattr(analysis, "_cell_metrics", cell_metrics)
        return seen

    def test_cells_see_one_thread_and_counts_are_restored(self, monkeypatch, openblas_at_three):
        seen = self._record_counts(monkeypatch, openblas_at_three)
        sweep = _tiny_sweep(jobs=2)
        assert [r["status"] for r in sweep.rows] == ["ok"] * 3
        assert seen == [[1] * len(openblas_at_three)] * 3
        assert _blas_counts(openblas_at_three) == [3] * len(openblas_at_three)

    def test_counts_restored_when_a_worker_raises(self, monkeypatch, openblas_at_three):
        def broken(*args):
            raise RuntimeError("not a cell failure")

        monkeypatch.setattr(analysis, "_cell_metrics", broken)
        with pytest.raises(RuntimeError, match="not a cell failure"):
            _tiny_sweep(jobs=2)
        assert _blas_counts(openblas_at_three) == [3] * len(openblas_at_three)

    def test_sweep_runs_when_no_openblas_is_found(self, monkeypatch, openblas_at_three):
        want = _tiny_sweep(jobs=2).rows
        monkeypatch.setattr(_blas, "_openblas_setters", lambda: [])
        seen = self._record_counts(monkeypatch, openblas_at_three)
        rows = _tiny_sweep(jobs=2).rows
        assert seen == [[3] * len(openblas_at_three)] * 3
        # BLAS on three threads splits its sums differently: the last bits move.
        assert len(rows) == len(want)
        for got, ref in zip(rows, want):
            assert got == pytest.approx(ref, rel=1e-12)

    def test_overlapping_blocks_restore_counts_when_the_last_one_ends(self, openblas_at_three):
        """Two blocks in two threads, the first left while the second is open."""
        first_open, both_open, first_left = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with _blas.single_threaded_blas():
                first_open.set()
                assert both_open.wait(30)
                seen["both open"] = _blas_counts(openblas_at_three), _blas.worker_count()
            first_left.set()

        def second():
            assert first_open.wait(30)
            with _blas.single_threaded_blas():
                both_open.set()
                assert first_left.wait(30)
                seen["second open"] = _blas_counts(openblas_at_three), _blas.worker_count()

        with ThreadPoolExecutor(max_workers=2) as ex:
            for future in [ex.submit(first), ex.submit(second)]:
                future.result(timeout=60)
        ones = [1] * len(openblas_at_three)
        assert seen == {"both open": (ones, 1), "second open": (ones, 1)}
        assert _blas_counts(openblas_at_three) == [3] * len(openblas_at_three)
        assert _blas.worker_count() == len(os.sched_getaffinity(0))


class TestThreadMap:
    """thread_map: item order, width, inline runs, nesting and errors."""

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_results_in_item_order(self, monkeypatch, workers):
        monkeypatch.setattr(_blas, "worker_count", lambda: workers)

        def square(x):
            time.sleep(0.001 * (x * 7 % 5))  # later items often finish first
            return x * x

        assert _blas.thread_map(square, range(20)) == [x * x for x in range(20)]

    @pytest.mark.parametrize("limit, width", [(8, 3), (2, 2)])
    def test_never_wider_than_cores_or_limit(self, monkeypatch, limit, width):
        monkeypatch.setattr(_blas, "worker_count", lambda: 3)
        lock = threading.Lock()
        running, peak = 0, 0

        def item(x):
            nonlocal running, peak
            with lock:
                running += 1
                peak = max(peak, running)
            time.sleep(0.002)
            with lock:
                running -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _blas.thread_map(item, range(24), limit)
        finally:
            sys.setswitchinterval(interval)
        assert 1 < peak <= width

    @pytest.mark.parametrize("workers, items, limit", [(4, 1, None), (4, 5, 1), (1, 5, None)],
                             ids=["one-item", "limit-1", "one-core"])
    def test_width_one_runs_in_the_calling_thread(self, monkeypatch, workers, items, limit):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool made")

        monkeypatch.setattr(_blas, "worker_count", lambda: workers)
        monkeypatch.setattr(_blas, "ThreadPoolExecutor", no_pool)
        me = threading.get_ident()
        assert _blas.thread_map(lambda x: threading.get_ident(), range(items), limit) == \
            [me] * items

    def test_a_map_inside_an_item_runs_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))

        def item(x):
            me = threading.get_ident()
            inner = _blas.thread_map(lambda y: threading.get_ident(), range(3))
            return _blas.worker_count(), inner == [me] * 3, me

        got = _blas.thread_map(item, range(8))
        assert [(n, inline) for n, inline, _ in got] == [(1, True)] * 8
        assert threading.get_ident() not in {me for _, _, me in got}
        assert _blas.worker_count() == 4

    def test_first_error_after_the_pool_joins_and_unstarted_items_never_start(self, monkeypatch):
        monkeypatch.setattr(_blas, "worker_count", lambda: 2)
        lock = threading.Lock()
        started, running = [], [0]

        def item(x):
            with lock:
                started.append(x)
                running[0] += 1
            try:
                time.sleep(0.005)
                if x in (1, 3):
                    raise ValueError(f"item {x}")
            finally:
                with lock:
                    running[0] -= 1

        threads = threading.active_count()
        with pytest.raises(ValueError, match="item 1"):
            _blas.thread_map(item, range(40))
        assert running[0] == 0 and threading.active_count() == threads
        seen = list(started)
        time.sleep(0.05)
        assert started == seen and len(seen) < 40

    def test_counts_restored_after_an_error(self, monkeypatch, openblas_at_three):
        monkeypatch.setattr(_blas, "worker_count", lambda: 2)
        seen = []

        def item(x):
            seen.append(_blas_counts(openblas_at_three))
            if x == 2:
                raise RuntimeError("item 2")

        with pytest.raises(RuntimeError, match="item 2"):
            _blas.thread_map(item, range(4))
        assert seen and all(c == [1] * len(openblas_at_three) for c in seen)
        assert _blas_counts(openblas_at_three) == [3] * len(openblas_at_three)


# Run in a fresh process, where only the libraries the sweep uses are mapped: a dense
# sweep of the dots-only device (argv[1]) that records each OpenBLAS's thread count when
# the outermost single_threaded_blas block (the sweep's) is entered, inside
# each cell, and after the sweep.  A nested block would not be recorded; a cell of
# this device opens none.  numpy's OpenBLAS is set to 3 threads first.
_FRESH_SWEEP = """
import contextlib, json, sys, threading
from dqdcap import _blas, analysis
from dqdcap.geometry import loads_device

lock = threading.Lock()

def counts():
    out = []
    with lock:
        for set_threads in _blas._openblas_setters():
            n = set_threads(1)
            set_threads(n)
            out.append(n)
    return out

scipy_at_start = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
for set_threads in _blas._openblas_setters():
    set_threads(3)
entered, inside = [], []
block, cell_metrics = _blas.single_threaded_blas, analysis._cell_metrics

@contextlib.contextmanager
def recording_block():
    if not _blas._open_blocks:
        entered.append(counts())
    with block():
        yield

def recording_cell_metrics(*args):
    inside.append(counts())
    return cell_metrics(*args)

_blas.single_threaded_blas = recording_block
analysis._cell_metrics = recording_cell_metrics
sweep = analysis.misalign_sweep(loads_device(sys.argv[1]), [-10.0, 0.0, 10.0], [0.0],
                                mode="dense", h_max_nm=16.0, jobs=2)
print(json.dumps({"scipy_at_start": scipy_at_start, "entered": entered, "inside": inside,
                  "after": counts(), "status": [r["status"] for r in sweep.rows]}))
"""


def run_fresh(code, *args, cwd=None):
    """Run code in a fresh Python process that imports this dqdcap; its last output line as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, check=True, env={**os.environ, "PYTHONPATH": path})
    return json.loads(proc.stdout.splitlines()[-1])


def test_fresh_dense_sweep_pins_every_openblas():
    """Every OpenBLAS the sweep uses is mapped before the pool starts, so each runs every
    cell on one thread and gets its count back after."""
    got = run_fresh(_FRESH_SWEEP, json.dumps(DOTS_ONLY))
    assert got["scipy_at_start"] == []
    assert got["status"] == ["ok"] * 3
    (entered,) = got["entered"]
    if not entered:
        pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
    # a library first mapped inside the pool would make each cell's list longer
    assert 3 in entered and got["inside"] == [[1] * len(entered)] * 3
    assert got["after"] == entered


DOTS_ONLY = {"boxes": [
    {"name": "dot1", "group": "d1", "role": "d1",
     "min_nm": [-70, -20, -30], "dims_nm": [40, 40, 10]},
    {"name": "dot2", "group": "d2", "role": "d2",
     "min_nm": [30, -20, -30], "dims_nm": [40, 40, 10]},
]}


# random_device seeds of GENERATED_SWEEP_SEEDS whose cells solve
ORACLE_SEEDS = [seed for seed, solves in GENERATED_SWEEP_SEEDS.items() if solves]


def oracle_device(device):
    """(spec, misalignment grid, dot sizes) for the cell-path oracle tests: the reference
    device, the same with its dots declared first, DOTS_ONLY, or random_device(seed) at the
    grid of generated_sweeps."""
    if device == "dots_only":
        spec = loads_device(json.dumps(DOTS_ONLY))
        return spec, ([-40.0, 0.0, 20.0], [-20.0, 0.0]), (20.0, 30.0, 50.0)
    if device in ("reference", "dots_first"):
        spec = build_reference_device()
        if device == "dots_first":
            spec = replace(spec, boxes=tuple(sorted(spec.boxes,
                                                    key=lambda b: b.role not in ("d1", "d2"))))
        return spec, ([-60.0, 0.0, 30.0], [-50.0, 0.0]), (10.0, 25.0, 40.0)
    spec = random_device(np.random.default_rng(device))
    return spec, ([-5.0, 0.0, spec.sweep_bounds_nm[0] + 1.0], [0.0, 5.0]), (4.0, 8.0, 16.0)


def full_mesh_solver(spec, h_max_nm):
    """The straightforward dense cell path: the whole moved device meshed, and solved by
    full_mesh_maxwell against the factored static block.  A device with nothing but its
    dots solves each cell in full, by solve_dense."""
    static = replace(spec, boxes=tuple(b for b in spec.boxes if b.role not in ("d1", "d2")))
    if not static.boxes:
        return lambda moved: solve_dense(mesh_device(moved, h_max_nm), spec.epsilon_r)
    factor = DenseFactor(mesh_device(static, h_max_nm), spec.epsilon_r)
    return lambda moved: full_mesh_maxwell(factor, mesh_device(moved, h_max_nm))


class TestStaticBlockSweep:
    """Dense sweeps factor the device without its dots once and solve each cell's dot panels."""

    @pytest.mark.parametrize("h, cells", [
        (16.0, [(-90.0, -50.0, 40.0), (30.0, 0.0, 40.0), (60.0, 40.0, 40.0),
                (0.0, 0.0, 20.0), (0.0, 0.0, 50.0)]),
        (10.0, [(-40.0, 20.0, 40.0), (0.0, 0.0, 20.0), (0.0, 0.0, 50.0)]),
    ])
    def test_cells_match_full_solve(self, h, cells):
        spec = build_reference_device()
        maxwell_of = _cell_solver(spec, "dense", h)
        for dx, dy, r in cells:
            moved = transform_dots(spec, dx, dy, r)
            mesh = mesh_device(moved, h)
            got = maxwell_of(moved)
            want = solve_dense(mesh, spec.epsilon_r)
            rel = np.abs(in_order(got, want.conductor_names) - want.entries) / np.abs(want.entries)
            assert rel.max() <= 1e-9, (dx, dy, r)

    @pytest.mark.parametrize("device", ["reference", "dots_first", "dots_only", *ORACLE_SEEDS])
    def test_cells_equal_the_full_mesh_path_bitwise(self, device):
        """Each cell meshes its two dots alone and reuses the static panels' frame groups:
        every Maxwell entry, the conductor order and the solver dict (schur_rcond too) are
        bitwise the whole moved device meshed and its static panels regrouped per cell, or
        both paths fail with one message.  With nothing but dots (DOTS_ONLY and seed 11),
        the cell's one LU is the whole solve's, so its schur_rcond is solve_dense's rcond."""
        spec, misalign, sizes = oracle_device(device)
        dots_only = all(b.role in ("d1", "d2") for b in spec.boxes)
        cells = [(dx, dy, None) for dx in misalign[0] for dy in misalign[1]]
        cells += [(0.0, 0.0, r) for r in sizes]
        r_default = spec.boxes[[b.role for b in spec.boxes].index("d1")].dims_nm[0]
        got_of, want_of = _cell_solver(spec, "dense", 16.0), full_mesh_solver(spec, 16.0)
        solved = 0
        for dx, dy, r in cells:
            try:
                moved = transform_dots(spec, dx, dy, r or r_default)
            except DeviceError:
                continue
            outcomes = []
            for maxwell_of in (got_of, want_of):
                try:
                    outcomes.append(maxwell_of(moved))
                except (SolverError, AssemblyError) as e:
                    outcomes.append(f"{type(e).__name__}: {e}")
            got, want = outcomes
            if isinstance(want, str):
                assert got == want, (dx, dy, r)
                continue
            solved += 1
            assert got.conductor_names == want.conductor_names
            assert np.array_equal(got.entries, want.entries), (dx, dy, r)
            if dots_only:
                want.solver["schur_rcond"] = want.solver.pop("rcond")
            assert got.solver == want.solver
        assert solved >= 3

    @pytest.mark.parametrize("device", ["reference", "dots_first", "dots_only", *ORACLE_SEEDS])
    def test_sweep_rows_equal_the_full_mesh_path(self, monkeypatch, device):
        """Both sweeps, at --jobs 1 and 2, write the rows of the full-mesh cell path."""
        spec, misalign, sizes = oracle_device(device)

        def sweeps(jobs):
            return (misalign_sweep(spec, *misalign, h_max_nm=16.0, jobs=jobs).rows,
                    dotsize_sweep(spec, sizes, h_max_nm=16.0, jobs=jobs).rows)

        with monkeypatch.context() as m:
            m.setattr(analysis, "_cell_solver", lambda spec, mode, h: full_mesh_solver(spec, h))
            want = sweeps(1)
        assert any(r["status"] == "ok" for r in want[0] + want[1])
        for jobs in (1, 2):
            assert sweeps(jobs) == want, jobs

    def test_sweep_meshes_static_boxes_and_groups_static_panels_once(self, monkeypatch):
        """Whatever the cell count, a dense sweep meshes each static box once and each cell
        its two dots once.  It groups the static source panels by frame per BLOCK_PANELS
        chunk, to assemble the static block, and once as one mesh, for every cell's A_ds,
        before any cell starts; each cell groups its dot panels once, for the strip of A_sd
        above A_dd, and makes those two kernel calls only.  A second sweep does all of it
        again: nothing is kept between sweeps."""
        meshed, grouped, blocks_of = [], [], []
        mesh_box, frame_groups = geometry._mesh_box, kernels._frame_groups
        solve_module = importlib.import_module("dqdcap.capsolve.solve")
        block = solve_module.potential_block
        monkeypatch.setattr(geometry, "_mesh_box",
                            lambda lo, dims, h: meshed.append(tuple(dims)) or mesh_box(lo, dims, h))
        monkeypatch.setattr(kernels, "_frame_groups",
                            lambda quads: grouped.append(len(quads)) or frame_groups(quads))
        monkeypatch.setattr(solve_module, "potential_block",
                            lambda mesh, targets, cols, *args: blocks_of.append(
                                (len(targets), len(cols))) or block(mesh, targets, cols, *args))
        spec = build_reference_device()
        static = [b.dims_nm for b in spec.boxes if b.role not in ("d1", "d2")]
        n_static = panel_count(replace(spec, boxes=tuple(
            b for b in spec.boxes if b.role not in ("d1", "d2"))), 16.0)
        blocks = [min(kernels.BLOCK_PANELS, n_static - s)
                  for s in range(0, n_static, kernels.BLOCK_PANELS)]
        assert len(blocks) == math.ceil(n_static / kernels.BLOCK_PANELS) == 5
        runs = [(lambda: misalign_sweep(spec, [0.0], [0.0], h_max_nm=16.0, jobs=2), [40.0]),
                (lambda: misalign_sweep(spec, [-30.0, 0.0, 30.0], [0.0, 20.0], h_max_nm=16.0,
                                        jobs=2), [40.0] * 6),
                (lambda: dotsize_sweep(spec, (20.0, 30.0, 40.0), h_max_nm=16.0, jobs=2),
                 [20.0, 30.0, 40.0])]
        for sweep, sizes in runs + runs:
            meshed.clear()
            grouped.clear()
            blocks_of.clear()
            assert all(r["status"] == "ok" for r in sweep().rows)
            assert meshed[:len(static)] == static  # before any cell, in declaration order
            assert sorted(meshed[len(static):]) == sorted([(r, r, r / 4) for r in sizes] * 2)
            # the strip's sources are the panels of both dots
            dots = [panel_count(transform_dots(spec, 0.0, 0.0, r), 16.0) - n_static
                    for r in sizes]
            assert sorted(grouped) == sorted(blocks + [n_static] + dots)
            # the assembly's chunks, then the whole static mesh, then the cells' dots
            assert sorted(grouped[:len(blocks)]) == sorted(blocks) and grouped[len(blocks)] == n_static
            assert sorted(blocks_of) == sorted([(n_static + d, d) for d in dots]
                                               + [(d, n_static) for d in dots])

    @pytest.mark.parametrize("device", ["reference", "dots_only"])
    def test_dense_guard_applies_before_a_cell_meshes_its_dots(self, monkeypatch, device):
        """With the guard 60 panels above the static block, the R = 50 cell (two dots of 48
        panels at h = 16) fails before its dots are meshed, and the R = 20 cell (two of 16)
        solves, whether the static block has panels or, with nothing but dots, none."""
        spec = (build_reference_device() if device == "reference"
                else loads_device(json.dumps(DOTS_ONLY)))
        n_static = panel_count(replace(spec, boxes=tuple(
            b for b in spec.boxes if b.role not in ("d1", "d2"))), 16.0)
        assert n_static == (1132 if device == "reference" else 0)
        solve_module = importlib.import_module("dqdcap.capsolve.solve")
        monkeypatch.setattr(solve_module, "DENSE_PANEL_GUARD", n_static + 60)
        meshed = []
        mesh_box = geometry._mesh_box
        monkeypatch.setattr(geometry, "_mesh_box",
                            lambda lo, dims, h: meshed.append(tuple(dims)) or mesh_box(lo, dims, h))
        rows = dotsize_sweep(spec, (20.0, 50.0), h_max_nm=16.0).rows
        assert [r["status"] for r in rows] == ["ok", "failed"]
        assert rows[1]["error"] == (f"SolverError: {n_static + 96} panels exceeds the "
                                    f"dense-mode guard of {n_static + 60}")
        assert meshed.count((20.0, 20.0, 5.0)) == 2
        assert (50.0, 50.0, 12.5) not in meshed

    def test_accelerated_mode_solves_each_cell(self):
        spec = build_reference_device()
        moved = transform_dots(spec, 20.0, 0.0, 40.0)
        mesh = mesh_device(moved, 16.0)
        got = _cell_solver(spec, "accelerated", 16.0)(moved)
        want = capsolve_solve(mesh, "accelerated", spec.epsilon_r)
        assert np.array_equal(got.entries, want.entries)

    def test_dots_only_device_sweeps(self):
        spec = loads_device(json.dumps(DOTS_ONLY))
        sweep = misalign_sweep(spec, [-10.0, 0.0, 10.0], [0.0], h_max_nm=16.0)
        assert [r["status"] for r in sweep.rows] == ["ok"] * 3
        sizes = dotsize_sweep(spec, (20.0, 30.0), h_max_nm=16.0)
        assert [r["status"] for r in sizes.rows] == ["ok"] * 2

    @pytest.fixture
    def cells_run(self, monkeypatch):
        """The cells whose metrics the sweep computes."""
        cells = []
        monkeypatch.setattr(analysis, "_cell_metrics", lambda *args: cells.append(args))
        return cells

    def test_unfactorable_static_block_fails_before_any_cell(self, monkeypatch, cells_run):
        """A static block over the guard would fail every cell: the sweep raises its error."""
        solve_module = importlib.import_module("dqdcap.capsolve.solve")
        monkeypatch.setattr(solve_module, "DENSE_PANEL_GUARD", 1000)  # static block: 1132 panels
        with pytest.raises(SolverError, match=r"^1132 panels exceeds the dense-mode guard of 1000"):
            _tiny_sweep()
        assert cells_run == []

    def test_singular_static_block_fails_before_any_cell(self, monkeypatch, cells_run):
        """An exactly singular static block (here all zeros) is rejected by its LU, once."""
        solve_module = importlib.import_module("dqdcap.capsolve.solve")
        monkeypatch.setattr(solve_module, "assemble_system",
                            lambda mesh, eps: np.zeros((mesh.n_panels,) * 2, order="F"))
        with pytest.raises(SolverError, match=r"^ill-conditioned collocation system \(rcond ~ 0"):
            _tiny_sweep(jobs=2)
        assert cells_run == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_finite_cell_is_a_failed_row(self, monkeypatch, jobs):
        """A NaN in one cell's dot block reaches the Schur complement's LU, which rejects
        it from the 1-norm: that cell fails with its reason, the others solve."""
        solve_module = importlib.import_module("dqdcap.capsolve.solve")
        block = solve_module.potential_block

        def nan_at_dx_20(mesh, targets, cols, eps, groups=None):
            b = block(mesh, targets, cols, eps, groups)
            # A_dd, the last rows of the dots' strip, in the cell whose dots are centred at
            # x = +20 nm
            if len(targets) > len(cols) and mesh.centroids[cols, 0].mean() > 10e-9:
                b[-1, 0] = np.nan
            return b

        monkeypatch.setattr(solve_module, "potential_block", nan_at_dx_20)
        rows = _tiny_sweep(jobs).rows
        assert [r["status"] for r in rows] == ["ok", "ok", "failed"]
        assert rows[2]["error"] == "SolverError: collocation system is not finite (1-norm nan)"


class TestCompareReport:
    def test_report_rows(self):
        entries = np.array([[30.0, -10.0], [-10.0, 40.0]]) * AF
        m = MaxwellMatrix(("i1", "g1"), entries, 0.0,
                          roles={"i1": "i1", "g1": "g1"})
        rep = compare_report(m, {"pairs": [
            {"a": "g1", "b": "i1", "measured_aF": 12.0, "sd_aF": 2.0}]})
        row = rep["pairs"][0]
        assert row["calculated_aF"] == pytest.approx(10.0)
        assert row["ratio"] == pytest.approx(10.0 / 12.0)
        assert row["deviation_sd"] == pytest.approx(-1.0)
        assert row["period_mV"] == pytest.approx(Q_E / (10.0 * AF) / MV)

    def test_unknown_conductor_rejected(self):
        m = MaxwellMatrix(("a",), np.array([[1.0]]) * AF, 0.0)
        with pytest.raises(AnalysisError):
            compare_report(m, {"pairs": [{"a": "a", "b": "nope"}]})

    def test_shared_role_rejected_and_names_win(self):
        """A role held by two conductors names neither, and the error lists both; a
        conductor name still resolves, also one that is another conductor's role."""
        entries = np.array([[30.0, -1.0, -2.0], [-1.0, 20.0, 0.0], [-2.0, 0.0, 20.0]]) * AF
        m = MaxwellMatrix(("P", "Q", "R"), entries, 0.0, roles={"P": "i1", "Q": "B", "R": "B"})
        with pytest.raises(AnalysisError, match="role 'B' is held by 'Q', 'R'; name one"):
            compare_report(m, {"pairs": [{"a": "B", "b": "i1"}]})
        rows = compare_report(m, {"pairs": [{"a": "Q", "b": "i1"}, {"a": "R", "b": "P"}]})["pairs"]
        assert [row["calculated_aF"] for row in rows] == pytest.approx([1.0, 2.0])
        named = MaxwellMatrix(("B", "Q"), entries[:2, :2], 0.0, roles={"B": "i1", "Q": "B"})
        assert compare_report(named, {"pairs": [{"a": "B", "b": "Q"}]})["pairs"][0][
            "calculated_aF"] == pytest.approx(1.0)


def fitted_metrics(diag):
    """Reference for the closed form: (dV_SL, dV_SR, theta) from the fitted lines.

    Each line's intercepts with the V_SL and V_SR axes come from its end
    points; a periodicity is the median gap between neighbouring intercepts,
    None with fewer than two.
    """
    sl, sr = [], []
    for b in diag.boundaries:
        (x0, y0), (x1, y1) = b.p0, b.p1
        if y1 != y0:
            sl.append(x0 - y0 * (x1 - x0) / (y1 - y0))
        if x1 != x0:
            sr.append(y0 - x0 * (y1 - y0) / (x1 - x0))
    dv_sl, dv_sr = (float(np.median(np.abs(np.diff(v)))) if len(v) >= 2 else None
                    for v in (sl, sr))
    return dv_sl, dv_sr, transfer_metrics(dv_sl, dv_sr, 1.0)[0] if dv_sl and dv_sr else None


def toy_caps_with_gates(c_gate_aF, zero_gate=None):
    """toy_caps with both dot-gate couplings set to c_gate_aF, one gate column optionally 0."""
    gates = np.zeros((2, 4))
    gates[0, 0] = gates[1, 1] = c_gate_aF * AF
    if zero_gate is not None:
        gates[:, zero_gate] = 0.0
    return ModelCaps(("d1", "d2"), toy_caps().cmat, gates)


def reference_caps():
    spec = build_reference_device()
    mesh = mesh_device(spec, 16.0)
    return reduce_caps(solve_dense(mesh, spec.epsilon_r), spec.roles)


# Worst relative gap over 2000 random_model_caps draws: 7.0e-14.
CLOSED_FORM_REL = 1e-12


class TestPropertyInvariants:
    def test_diagram_periodicity_matches_degeneracy_spacing(self):
        """The closed-form dV_SL, dV_SR and theta equal the fitted lines' intercept gaps."""
        rng = np.random.default_rng(9)
        draws = [random_model_caps(rng, island=bool(i % 2)) for i in range(200)]
        for caps in [reference_caps(), *draws]:
            diag = stability_diagram(caps)
            got = (diag.dv_sl, diag.dv_sr, diag.theta_deg)
            want = fitted_metrics(diag)
            assert None not in want
            assert got == pytest.approx(want, rel=CLOSED_FORM_REL, abs=0.0)

    @pytest.mark.parametrize("caps, lines, present", [
        (toy_caps_with_gates(1e-4), 0, (False, False, False)),
        (toy_caps_with_gates(1.0, zero_gate=0), None, (False, True, False)),
        (toy_caps_with_gates(1.0, zero_gate=1), None, (True, False, False)),
        (toy_caps_with_gates(0.01), 2, (True, True, True)),
    ], ids=["gates-1e-4aF", "no-SL-gate", "no-SR-gate", "gates-0.01aF"])
    def test_edge_cases_agree_with_fitted_lines(self, monkeypatch, caps, lines, present):
        """None exactly where the fitted lines give none: in the diagram and in a sweep cell."""
        diag = stability_diagram(caps)
        if lines is not None:
            assert len(diag.boundaries) == lines
        want = fitted_metrics(diag)
        got = (diag.dv_sl, diag.dv_sr, diag.theta_deg)
        assert tuple(v is not None for v in want) == present
        assert got == pytest.approx(want, rel=CLOSED_FORM_REL, abs=0.0)

        monkeypatch.setattr(analysis, "reduce_caps", lambda maxwell, roles: caps)
        spec = loads_device(json.dumps(DOTS_ONLY))
        row = analysis._cell_metrics(spec, 0.0, 0.0, 40.0, lambda moved: None)
        cell = tuple(None if row[k] is None else row[k] * MV for k in ("dV_SL_mV", "dV_SR_mV"))
        assert (*cell, row["theta_deg"]) == pytest.approx(want, rel=CLOSED_FORM_REL, abs=0.0)
