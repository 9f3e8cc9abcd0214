import math

import numpy as np
import pytest

from dqdcap.capsolve import MaxwellMatrix
from dqdcap.charging import (
    Bias,
    ChargingError,
    ModelCaps,
    compensate,
    config_energy,
    delta_q,
    integer_minimizer,
    reduce_caps,
    stable_config,
)
from dqdcap.cli import _fmt
from dqdcap.constants import AF, Q_E
from dqdcap.validation import (
    _affine_root,
    _best_y,
    brute_force_stable_config,
    degeneracy_bias,
    pattern_shift_delta_q,
    random_model_caps,
    set_transfer_points,
)


def toy_caps():
    """Csum = 2 aF on both dots, C_d1d2 = 1 aF, C_SLd1 = C_SRd2 = 1 aF."""
    cmat = np.array([[2.0, -1.0], [-1.0, 2.0]]) * AF
    gates = np.zeros((2, 4))
    gates[0, 0] = gates[1, 1] = 1.0 * AF
    return ModelCaps(("d1", "d2"), cmat, gates)


def island_caps(c_d1i1=1.5, c_d2i1=0.4, csum=(20.0, 20.0, 30.0), g1i1=5.0):
    cmat = np.diag(np.array(csum)) * AF
    cmat[0, 1] = cmat[1, 0] = -2.0 * AF
    cmat[0, 2] = cmat[2, 0] = -c_d1i1 * AF
    cmat[1, 2] = cmat[2, 1] = -c_d2i1 * AF
    gates = np.zeros((3, 4))
    gates[0, 0] = gates[1, 1] = 2.0 * AF
    gates[2, 0] = 0.5 * AF
    gates[2, 1] = 0.5 * AF
    gates[2, 2] = g1i1 * AF
    return ModelCaps(("d1", "d2", "i1"), cmat, gates)


class TestReduceCaps:
    def test_toy_maxwell_mapping(self):
        m = MaxwellMatrix(("A", "B", "C"),
                          np.array([[3.0, -1, -1], [-1, 3.0, -1], [-1, -1, 3.0]]) * AF,
                          0.0, roles={"A": "d1", "B": "d2", "C": "SL"})
        caps = reduce_caps(m, m.roles)
        assert caps.csum("d1") == 3.0 * AF
        assert caps.mutual("d1", "d2") == 1.0 * AF
        assert caps.gate("d1", "SL") == 1.0 * AF

    def test_noise_clipped_to_zero(self):
        e = np.array([[3.0, -1, 3e-3 * 2e-1], [-1, 3.0, -1], [3e-3 * 2e-1, -1, 3.0]]) * AF
        m = MaxwellMatrix(("A", "B", "C"), e, 0.0,
                          roles={"A": "d1", "B": "d2", "C": "SL"})
        caps = reduce_caps(m, m.roles)
        assert caps.gate("d1", "SL") == 0.0

    def test_large_positive_offdiagonal_rejected(self):
        e = np.array([[3.0, -1, 0.5], [-1, 3.0, -1], [0.5, -1, 3.0]]) * AF
        m = MaxwellMatrix(("A", "B", "C"), e, 0.0,
                          roles={"A": "d1", "B": "d2", "C": "SL"})
        with pytest.raises(ChargingError, match="negative"):
            reduce_caps(m, m.roles)

    def test_missing_roles_rejected(self):
        m = MaxwellMatrix(("A", "B"), np.eye(2) * AF, 0.0, roles={"A": "d1", "B": "other"})
        with pytest.raises(ChargingError):
            reduce_caps(m, m.roles)

    def test_invariant_validation(self):
        cmat = np.array([[1.0, -2.0], [-2.0, 1.0]]) * AF  # C_d1d2 > Csum
        with pytest.raises(ChargingError):
            ModelCaps(("d1", "d2"), cmat, np.zeros((2, 4)))


class TestCompensate:
    def test_island_row_arithmetic(self):
        # C_SLi1 = 2, C_SRi1 = 1, C_g1i1 = 4 aF at V_SL = 10 mV, V_SR = 20 mV
        cmat = np.diag([10.0, 10.0, 8.0]) * AF
        cmat[0, 1] = cmat[1, 0] = -1.0 * AF
        gates = np.zeros((3, 4))
        gates[2, 0], gates[2, 1], gates[2, 2] = 2.0 * AF, 1.0 * AF, 4.0 * AF
        caps = ModelCaps(("d1", "d2", "i1"), cmat, gates)
        v_g1, v_g2 = compensate(0.010, 0.020, caps)
        assert v_g1 == pytest.approx(-0.010, abs=1e-15)
        assert v_g2 == 0.0

    def test_zero_bias_gives_zero(self):
        assert compensate(0.0, 0.0, island_caps()) == (0.0, 0.0)

    def test_no_islands_is_noop(self):
        assert compensate(0.5, -0.5, toy_caps()) == (0.0, 0.0)

    def test_zero_own_coupling_rejected(self):
        caps = island_caps(g1i1=0.0)
        with pytest.raises(ChargingError):
            compensate(0.01, 0.0, caps)

    def test_compensated_islands_carry_no_gate_charge(self):
        # with zero cross couplings, approximate compensation nulls the
        # gate-induced island charge identically, for any S-gate bias
        cmat = np.diag([12.0, 12.0, 25.0, 25.0]) * AF
        cmat[0, 1] = cmat[1, 0] = -1.5 * AF
        gates = np.zeros((4, 4))
        gates[0, 0] = gates[1, 1] = 2.0 * AF
        gates[2, 0], gates[2, 1], gates[2, 2] = 3.0 * AF, 1.0 * AF, 5.0 * AF
        gates[3, 0], gates[3, 1], gates[3, 3] = 1.0 * AF, 3.0 * AF, 5.0 * AF
        caps = ModelCaps(("d1", "d2", "i1", "i2"), cmat, gates)
        rng = np.random.default_rng(8)
        for _ in range(10):
            v_sl, v_sr = rng.uniform(-0.3, 0.3, 2)
            v_g1, v_g2 = compensate(v_sl, v_sr, caps)
            qt = caps.gates @ np.array([v_sl, v_sr, v_g1, v_g2])
            assert abs(qt[2]) < 1e-30 and abs(qt[3]) < 1e-30


class TestConfigEnergy:
    def test_zero_charge_zero_energy(self):
        assert config_energy(toy_caps(), Bias(), 0) == 0.0

    def test_hand_evaluated_two_by_two(self):
        # Qtilde = [1, -1] aC through C = [[2,-1],[-1,2]] aF: E = 1/3 aC^2/aF
        caps = toy_caps()
        e = config_energy(caps, Bias(1.0, -1.0), 0)
        assert e == pytest.approx(1e-18 / 3.0, rel=1e-12)
        # independent matrix-solve oracle
        q = np.array([1e-18, -1e-18])
        oracle = 0.5 * q @ np.linalg.solve(caps.energy_matrix(False), q)
        assert e == pytest.approx(oracle, rel=1e-14)

    def test_bias_config_antisymmetry(self):
        caps = toy_caps()
        for x in (-2, 1, 3):
            a = config_energy(caps, Bias(0.07, -0.04), x)
            b = config_energy(caps, Bias(-0.07, 0.04), -x)
            assert a == pytest.approx(b, rel=1e-12)

    def test_island_vector(self):
        caps = island_caps()
        e2 = config_energy(caps, Bias(0.01, 0.0), 1)
        e3 = config_energy(caps, Bias(0.01, 0.0), 1, y=0)
        assert e3 != e2  # 3x3 route includes the island row

    def test_finite_bias_required(self):
        with pytest.raises(ChargingError):
            Bias(float("nan"), 0.0, 0.0, 0.0)


class TestStableConfig:
    def test_symmetric_zero_bias(self):
        assert stable_config(toy_caps(), 0.0, 0.0) == 0

    def test_tie_breaks_to_smallest_abs(self):
        # exact degeneracy between x = 0 and x = 1 on the toy network
        caps = toy_caps()
        v = -Q_E / (2.0 * AF)
        assert stable_config(caps, v, -v) == 0

    def test_toy_bias_matches_exhaustive_scan(self):
        caps = toy_caps()
        got = stable_config(caps, -0.120, 0.120)
        assert got == brute_force_stable_config(caps, -0.120, 0.120)

    def test_randomized_against_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            caps = random_model_caps(rng, island=bool(rng.integers(0, 2)))
            v_sl, v_sr = rng.uniform(-0.4, 0.4, 2)
            assert stable_config(caps, v_sl, v_sr) == \
                brute_force_stable_config(caps, v_sl, v_sr)

    def test_brute_force_widens_past_its_window(self):
        # draw 258 of this stream has its minimizer at x = -12, outside the
        # default |x| <= 10 window, so the scan must widen past its edge -10
        rng = np.random.default_rng(1)
        for _ in range(259):
            caps = random_model_caps(rng)
            v_sl, v_sr = rng.uniform(-0.4, 0.4, 2)
        assert (round(v_sl, 3), round(v_sr, 3)) == (-0.281, -0.350)
        bias = Bias(v_sl, v_sr, *compensate(v_sl, v_sr, caps))
        assert config_energy(caps, bias, -12) < config_energy(caps, bias, -10)
        assert stable_config(caps, v_sl, v_sr) == -12
        assert brute_force_stable_config(caps, v_sl, v_sr) == -12

    def test_adaptive_range_expands(self):
        caps = toy_caps()
        v = -40.0 * Q_E / AF  # dozens of electrons transferred
        x = stable_config(caps, v, -v)
        assert x > 3
        assert x == brute_force_stable_config(caps, v, -v, half=200)

    def test_closed_form_matches_brute_force_at_large_x(self):
        # E_x is convex in x, so a scan whose minimizer lies inside its range
        # has found the global minimum; biases up to 3 V reach |x| ~ 40
        rng = np.random.default_rng(7)
        largest = 0
        for _ in range(200):
            caps = random_model_caps(rng, island=bool(rng.integers(0, 2)))
            v_sl, v_sr = rng.uniform(-3.0, 3.0, 2)
            x = stable_config(caps, v_sl, v_sr)
            assert x == brute_force_stable_config(caps, v_sl, v_sr, half=abs(x) + 3)
            largest = max(largest, abs(x))
        assert largest >= 35

    @pytest.mark.parametrize("k", [-1, 0])
    def test_exact_tie_matches_brute_force(self, k):
        # the toy's x = k <-> k + 1 degeneracy on the antidiagonal; both
        # ties resolve to x = 0, the smaller |x|
        caps = toy_caps()
        v = -(2 * k + 1) * Q_E / (2.0 * AF)
        assert stable_config(caps, v, -v) == brute_force_stable_config(caps, v, -v) == 0

    def test_stability_interval_contiguous_along_ray(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            caps = random_model_caps(rng, island=False)
            ts = np.linspace(-1.0, 1.0, 301)
            xs = [stable_config(caps, 0.3 * t, -0.2 * t) for t in ts]
            for x in set(xs):
                idx = [i for i, v in enumerate(xs) if v == x]
                assert idx == list(range(idx[0], idx[-1] + 1))


class TestIntegerMinimizer:
    def test_rounds_to_nearest_with_ties_toward_zero(self):
        xhat = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 0.49, 0.51, -0.51, 41.7, -41.2])
        assert integer_minimizer(xhat).tolist() == [-2, -1, 0, 0, 1, 2, 0, 1, -1, 42, -41]


class TestIslandMinimizer:
    def test_matches_exhaustive_y_scan(self):
        # convex in y: a scan with an interior minimizer is exhaustive
        rng = np.random.default_rng(5)
        for _ in range(200):
            caps = random_model_caps(rng)
            bias = Bias(*rng.uniform(-1.0, 1.0, 4))
            x = int(rng.integers(-3, 4))
            y = _best_y(caps, bias, x)
            half = abs(y) + 3
            scan = min((config_energy(caps, bias, x, k), abs(k), k)
                       for k in range(-half, half + 1))
            assert y == scan[2]

    @pytest.mark.parametrize("v_g1", [Q_E, -Q_E])
    def test_half_integer_yhat_rounds_toward_zero(self, v_g1):
        # island decoupled from the dots, C_g1i1 = 1/2: yhat = V_g1 C_g1i1 / q_e
        # = +-1/2 exactly (unit-scale capacitances keep every product exact)
        cmat = np.diag([2.0, 2.0, 4.0])
        cmat[0, 1] = cmat[1, 0] = -1.0
        gates = np.zeros((3, 4))
        gates[2, 2] = 0.5
        caps = ModelCaps(("d1", "d2", "i1"), cmat, gates)
        bias = Bias(0.0, 0.0, v_g1, 0.0)
        assert _best_y(caps, bias, 0) == 0
        energies = [config_energy(caps, bias, 0, y) for y in (-1, 0, 1)]
        assert energies[1] == min(energies)
        assert energies.count(energies[1]) == 2


class TestDegeneracyBias:
    def test_toy_closed_form(self):
        caps = toy_caps()
        t = degeneracy_bias(caps, (Bias(), (-0.2, 0.2, 0.0, 0.0)), 0)
        v_sl = -0.2 * t
        assert v_sl == pytest.approx(-Q_E / (2.0 * AF), abs=1e-9)

    def test_mirror_symmetry(self):
        caps = toy_caps()
        t = degeneracy_bias(caps, (Bias(), (0.2, -0.2, 0.0, 0.0)), -1)
        assert 0.2 * t == pytest.approx(Q_E / (2.0 * AF), abs=1e-9)

    def test_grid_scan_oracle(self):
        caps = toy_caps()
        ray = (Bias(), (-0.2, 0.2, 0.0, 0.0))
        t_star = degeneracy_bias(caps, ray, 0)
        ts = np.linspace(0.0, 1.0, 2001)

        def f(t):
            b = Bias(-0.2 * t, 0.2 * t)
            return config_energy(caps, b, 0) - config_energy(caps, b, 1)

        signs = np.sign([f(t) for t in ts])
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert ts[flips[0]] <= t_star <= ts[flips[0] + 1]

    def test_root_energy_degeneracy_below_1e30_joule(self):
        caps = toy_caps()
        t = degeneracy_bias(caps, (Bias(), (-0.2, 0.2, 0.0, 0.0)), 0)
        b = Bias(-0.2 * t, 0.2 * t)
        assert abs(config_energy(caps, b, 0) - config_energy(caps, b, 1)) < 1e-30

    def test_no_sign_change_rejected(self):
        with pytest.raises(ChargingError, match="sign change"):
            degeneracy_bias(toy_caps(), (Bias(), (0.001, -0.001, 0.0, 0.0)), 0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ChargingError, match="zero direction"):
            degeneracy_bias(toy_caps(), (Bias(), (0.0, 0.0, 0.0, 0.0)), 0)

    def test_affine_root_is_one_secant_step(self):
        calls = []

        def f(t):
            calls.append(t)
            return 3.0 * t - 1.0

        assert _affine_root(f, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert calls == [0.0, 1.0]
        assert _affine_root(lambda t: t - 2.0, 2.0, 5.0) == 2.0
        assert _affine_root(lambda t: t - 5.0, 2.0, 5.0) == 5.0


class TestTransferPoints:
    def test_uniform_spacing(self):
        caps = island_caps()
        pts = set_transfer_points(caps, 0.0, 0.0, 0.0, 0, (-0.3, 0.3))
        assert len(pts) >= 3
        gaps = np.diff(pts)
        assert np.allclose(gaps, gaps[0], rtol=1e-9)

    def test_period_matches_brute_force_y_scan(self):
        caps = island_caps()
        pts = set_transfer_points(caps, 0.0, 0.0, 0.0, 0, (-0.3, 0.3))
        period = np.median(np.diff(pts))

        def best_y(v_g1, half=12):
            b = Bias(0.0, 0.0, v_g1, 0.0)
            return min((config_energy(caps, b, 0, y), abs(y), y)
                       for y in range(-half, half + 1))[2]

        vs = np.linspace(-0.3, 0.3, 4001)
        ys = np.array([best_y(v) for v in vs])
        flips = np.nonzero(np.diff(ys))[0]
        scan_period = np.median(np.diff(vs[flips]))
        assert period == pytest.approx(scan_period, rel=2e-3)

    def test_zero_coupling_returns_empty(self):
        caps = island_caps(g1i1=0.0)
        assert set_transfer_points(caps, 0.0, 0.0, 0.0, 0, (-0.3, 0.3)) == []

    def test_empty_range_rejected(self):
        with pytest.raises(ChargingError, match="empty"):
            set_transfer_points(island_caps(), 0.0, 0.0, 0.0, 0, (0.1, 0.1))

    def test_requires_island(self):
        with pytest.raises(ChargingError):
            set_transfer_points(toy_caps(), 0.0, 0.0, 0.0, 0, (-0.1, 0.1))


class TestDeltaQ:
    """The closed form against the transfer-point pattern oracle."""

    def test_equal_coupling_is_invisible(self):
        caps = island_caps(c_d1i1=1.0, c_d2i1=1.0)
        assert delta_q(caps) < 1e-12
        assert pattern_shift_delta_q(caps) < 1e-12

    def test_matches_oracle(self):
        caps = island_caps()
        assert abs(delta_q(caps) - pattern_shift_delta_q(caps)) < 1e-12

    def test_shift_beyond_half_a_charge_folds(self):
        # island coupled mostly to d1: one transfer moves (15 - 0.4) / 22 e of
        # island charge, which folds to 1 - 14.6 / 22
        caps = island_caps(c_d1i1=15.0)
        assert delta_q(caps) == pytest.approx(1.0 - 14.6 / 22.0, rel=1e-12)
        assert abs(delta_q(caps) - pattern_shift_delta_q(caps)) < 1e-12

    def test_invariant_under_g1_scaling(self):
        a = pattern_shift_delta_q(island_caps(g1i1=5.0))
        b = pattern_shift_delta_q(island_caps(g1i1=50.0))
        assert abs(a - b) < 1e-12
        assert abs(a - delta_q(island_caps(g1i1=50.0))) < 1e-12

    def test_g1_scaling_divides_period(self):
        pts1 = set_transfer_points(island_caps(g1i1=5.0), 0, 0, 0, 0, (-0.3, 0.3))
        pts2 = set_transfer_points(island_caps(g1i1=50.0), 0, 0, 0, 0, (-0.05, 0.05))
        assert np.median(np.diff(pts1)) == pytest.approx(
            10.0 * np.median(np.diff(pts2)), rel=1e-6)

    def test_identical_across_sweep_gates(self):
        caps = island_caps()
        for gate in ("SL", "SR", "g1"):
            assert abs(pattern_shift_delta_q(caps, gate) - delta_q(caps)) < 1e-12

    def test_degenerate_period_rejected(self):
        # only the pattern route needs a transfer period; delta q itself does
        # not depend on C_g1i1
        with pytest.raises(ChargingError, match="period"):
            pattern_shift_delta_q(island_caps(g1i1=0.0))
        assert delta_q(island_caps(g1i1=0.0)) == delta_q(island_caps(g1i1=5.0))

    def test_randomized_dual_route(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            caps = random_model_caps(rng)
            closed, pattern = delta_q(caps), pattern_shift_delta_q(caps)
            assert abs(closed - pattern) <= 1e-12
            assert _fmt(closed) == _fmt(pattern)

    def test_requires_island(self):
        with pytest.raises(ChargingError, match="i1 island row"):
            delta_q(toy_caps())


class TestModelCapsSerialization:
    def test_symbol_keyed_roundtrip(self):
        caps = island_caps()
        obj = caps.to_json()
        assert "Csum_d1" in obj and "C_d1d2" in obj and "C_SLd1" in obj
        again = ModelCaps.from_json(obj)
        assert again.targets == caps.targets
        assert np.allclose(again.cmat, caps.cmat, rtol=1e-15)
        assert np.allclose(again.gates, caps.gates, rtol=1e-15)

    @pytest.mark.parametrize("key", ["Csum_d1", "C_d1d2", "C_SRd2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, key, value):
        obj = {**island_caps().to_json(), key: value}
        with pytest.raises(ChargingError, match="finite"):
            ModelCaps.from_json(obj)
