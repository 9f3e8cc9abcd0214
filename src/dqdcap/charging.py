"""Constant-interaction circuit model for the double dot and SET islands.

Conventions, used everywhere:
  - a dot configuration x means the charge vector [-x, +x] (x electrons
    transferred d1 -> d2); an island configuration y is the excess electron
    count on the SET1 island
  - total charge Q = Qtilde - q_e * [excess vector], energy E = 1/2 Q^T C^-1 Q
  - compensation gates g1/g2 zero the gate-induced charge on their SET
    islands (rows i1/i2), not on the dots; a device with no island rows has
    nothing to compensate and gets (0, 0)
  - all quantities in SI (farads, volts, joules)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import AF, OFFDIAG_TOL, Q_E

GATES = ("SL", "SR", "g1", "g2")
TARGETS = ("d1", "d2", "i1", "i2")


class ChargingError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Bias:
    v_sl: float = 0.0
    v_sr: float = 0.0
    v_g1: float = 0.0
    v_g2: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.vector):
            raise ChargingError("bias voltages must be finite")

    @property
    def vector(self):
        return (self.v_sl, self.v_sr, self.v_g1, self.v_g2)


class ModelCaps:
    """Reduced circuit capacitances.

    cmat is the full coupling matrix over the present targets (subset of
    d1, d2, i1, i2): diagonal entries are the Csum self capacitances,
    off-diagonals are -C_ab.  gates is the (targets x SL,SR,g1,g2) coupling
    block of the gate-induced-charge relation Qtilde = C V.
    """

    def __init__(self, targets, cmat, gates):
        self.targets = tuple(targets)
        self.cmat = np.array(cmat, dtype=float)
        self.gates = np.array(gates, dtype=float)
        t = len(self.targets)
        if self.targets[:2] != ("d1", "d2") or any(x not in TARGETS for x in self.targets):
            raise ChargingError("targets must start with d1, d2")
        if self.cmat.shape != (t, t) or self.gates.shape != (t, len(GATES)):
            raise ChargingError("inconsistent ModelCaps array shapes")
        self.cmat.flags.writeable = False
        self.gates.flags.writeable = False
        self._validate()

    def _validate(self):
        # NaN passes every sign check below, and stability's window search on it never ends
        if not (np.isfinite(self.cmat).all() and np.isfinite(self.gates).all()):
            raise ChargingError("capacitances must be finite")
        d = np.diag(self.cmat)
        if np.any(d <= 0):
            raise ChargingError("all Csum must be positive")
        off = self.cmat - np.diag(d)
        if np.any(off > 0):
            raise ChargingError("mutual couplings must be non-negative")
        if np.any(self.gates < 0):
            raise ChargingError("gate couplings must be non-negative")
        if self.mutual("d1", "d2") >= min(self.csum("d1"), self.csum("d2")):
            raise ChargingError("C_d1d2 must be smaller than both dot Csum")
        for k in (2, 3):
            if len(self.targets) >= k:
                try:
                    np.linalg.cholesky(self.cmat[:k, :k])
                except np.linalg.LinAlgError:
                    raise ChargingError(
                        f"{k}x{k} capacitance matrix is not positive definite") from None

    def _ti(self, t):
        try:
            return self.targets.index(t)
        except ValueError:
            raise ChargingError(f"no target {t!r} in ModelCaps") from None

    def has(self, t) -> bool:
        return t in self.targets

    def csum(self, t) -> float:
        i = self._ti(t)
        return float(self.cmat[i, i])

    def mutual(self, a, b) -> float:
        return float(-self.cmat[self._ti(a), self._ti(b)])

    def gate(self, t, g) -> float:
        return float(self.gates[self._ti(t), GATES.index(g)])

    def energy_matrix(self, island: bool):
        k = 3 if island else 2
        if island and not self.has("i1"):
            raise ChargingError("ModelCaps has no SET1 island row")
        return self.cmat[:k, :k]

    def gate_block(self, island: bool):
        return self.gates[: (3 if island else 2), :]

    def to_json(self) -> dict:
        out = {}
        for i, t in enumerate(self.targets):
            out[f"Csum_{t}"] = self.cmat[i, i] / AF
            for j in range(i + 1, len(self.targets)):
                out[f"C_{t}{self.targets[j]}"] = -self.cmat[i, j] / AF
            for g in GATES:
                out[f"C_{g}{t}"] = self.gate(t, g) / AF
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ModelCaps":
        targets = [t for t in TARGETS if f"Csum_{t}" in obj]
        t = len(targets)
        cmat = np.zeros((t, t))
        gates = np.zeros((t, len(GATES)))
        for i, a in enumerate(targets):
            cmat[i, i] = float(obj[f"Csum_{a}"]) * AF
            for j, b in enumerate(targets):
                if j > i:
                    c = float(obj.get(f"C_{a}{b}", obj.get(f"C_{b}{a}", 0.0))) * AF
                    cmat[i, j] = cmat[j, i] = -c
            for k, g in enumerate(GATES):
                gates[i, k] = float(obj.get(f"C_{g}{a}", 0.0)) * AF
        return cls(targets, cmat, gates)


def circuit_roles(roles) -> dict:
    """role -> conductor of each circuit role (target or gate) in roles; each is held once."""
    by_role = {}
    for group, role in roles.items():
        if role in TARGETS + GATES:
            if role in by_role:
                raise ChargingError(f"role {role!r} assigned to {by_role[role]!r} and {group!r}")
            by_role[role] = group
    return by_role


def reduce_caps(maxwell, roles) -> ModelCaps:
    """Map a Maxwell matrix onto the circuit-model capacitances by roles, {conductor: role}.

    Csum_t = M[t][t]; couplings are the negated off-diagonals.  Small
    positive off-diagonals (numerical noise within OFFDIAG_TOL of the
    diagonal scale) clip to zero coupling; larger ones are an error.
    """
    if not roles:
        raise ChargingError("conductor roles are required to reduce a Maxwell matrix")
    by_role = circuit_roles(roles)
    if "d1" not in by_role or "d2" not in by_role:
        raise ChargingError("roles must assign d1 and d2")

    m = maxwell.entries
    names = list(maxwell.conductor_names)
    tol = OFFDIAG_TOL * float(np.abs(np.diag(m)).max())

    def idx(role):
        return names.index(by_role[role])

    def coupling(a_role, b_role):
        raw = -m[idx(a_role), idx(b_role)]
        if raw < 0:
            if -raw <= tol:
                return 0.0
            raise ChargingError(
                f"coupling {a_role}-{b_role} is negative ({raw / AF:.3g} aF) beyond tolerance")
        return float(raw)

    targets = [t for t in TARGETS if t in by_role]
    t = len(targets)
    cmat = np.zeros((t, t))
    gates = np.zeros((t, len(GATES)))
    for i, a in enumerate(targets):
        cmat[i, i] = m[idx(a), idx(a)]
        for j in range(i + 1, t):
            c = coupling(a, targets[j])
            cmat[i, j] = cmat[j, i] = -c
        for k, g in enumerate(GATES):
            gates[i, k] = coupling(a, g) if g in by_role else 0.0
    return ModelCaps(targets, cmat, gates)


def compensate(v_sl, v_sr, caps: ModelCaps):
    """Compensation-gate voltages holding the island induced charge constant.

    Each compensation gate cancels the S-gate drive on its own island; its
    cross coupling to the opposite island is neglected.
    """
    volts = []
    for island, gate in (("i1", "g1"), ("i2", "g2")):
        if not caps.has(island):
            volts.append(0.0)
            continue
        own = caps.gate(island, gate)
        if own <= 0:
            raise ChargingError(f"compensation requires C_{gate}{island} > 0")
        drive = caps.gate(island, "SL") * v_sl + caps.gate(island, "SR") * v_sr
        volts.append(-drive / own)
    return tuple(volts)


def excess_vector(x: int, y=None):
    """Charge configuration [-x, +x] (plus island excess y when present)."""
    if y is None:
        return np.array([-float(x), float(x)])
    return np.array([-float(x), float(x), float(y)])


def config_energy(caps: ModelCaps, bias: Bias, x: int, y=None) -> float:
    """Electrostatic energy of one charge configuration, in joules."""
    island = y is not None
    c = caps.energy_matrix(island)
    qt = caps.gate_block(island) @ np.asarray(bias.vector)
    q = qt - Q_E * excess_vector(x, y)
    try:
        return 0.5 * float(q @ np.linalg.solve(c, q))
    except np.linalg.LinAlgError:
        raise ChargingError("capacitance matrix is singular") from None


def integer_minimizer(xhat):
    """Integer minimizer of a 1-D quadratic with continuous minimizer xhat.

    Works elementwise; half-integer ties round toward zero, i.e. to the
    smaller |x| of the two degenerate configurations.
    """
    lo = np.floor(xhat)
    frac = xhat - lo
    up = frac > 0.5
    tie = frac == 0.5
    x = lo + up
    return np.where(tie, np.where(lo >= 0, lo, lo + 1), x).astype(int)


def stable_config(caps: ModelCaps, v_sl: float, v_sr: float) -> int:
    """Minimum-energy transfer count x at the given S-gate bias.

    SETs are taken as compensated.  E_x is quadratic in x with continuous
    minimizer s^T C^-1 Qtilde / (q_e s^T C^-1 s), s = (-1, 1); x is that
    value rounded, ties to the smallest |x|.
    """
    bias = Bias(v_sl, v_sr, *compensate(v_sl, v_sr, caps))
    qt = caps.gate_block(island=False) @ np.asarray(bias.vector)
    s = excess_vector(1)
    ws = np.linalg.solve(caps.energy_matrix(island=False), s)
    return int(integer_minimizer((ws @ qt) / (Q_E * (ws @ s))))


def delta_q(caps: ModelCaps) -> float:
    """Fractional SET1 induced-charge shift caused by one d1 -> d2 transfer.

    One electron moves d1 -> d2 with the dots floating and the SET1 island
    held at 0 V; the gate terms cancel in the difference.  The island charge
    changes by c_{i,d} C_dd^-1 (1, -1) q_e, reported in units of q_e folded
    into [0, 0.5].  By the block inverse this is the shift of the island's
    transfer-point pattern between x = 0 and x = 1 in units of its period,
    the route `validation.pattern_shift_delta_q` takes.
    """
    if not caps.has("i1"):
        raise ChargingError("delta_q requires an i1 island row")
    c = caps.energy_matrix(island=True)
    dv = np.linalg.solve(c[:2, :2], Q_E * np.array([1.0, -1.0]))  # dot potentials
    frac = abs(c[2, :2] @ dv) / Q_E % 1.0
    return min(frac, 1.0 - frac)
