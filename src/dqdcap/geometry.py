"""Device geometry: axis-aligned conductor boxes, transforms, and panel meshing.

Conventions:
  - device descriptions and box fields are in nm; meshed panel coordinates
    are stored in metres (SI everywhere downstream)
  - boxes with min z >= 0 are surface metal: they are lifted by the device
    air gap when meshing (buried boxes, min z < 0, never move)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import NM

ROLES = ("d1", "d2", "i1", "i2", "SL", "SR", "B", "g1", "g2", "other")

DEFAULT_EPSILON_R = 6.0
DEFAULT_SWEEP_BOUND_NM = 200.0
DEFAULT_H_MAX_NM = 10.0  # max panel edge


class DeviceError(ValueError):
    """Malformed or physically invalid device description."""


@dataclass(frozen=True)
class Box:
    name: str
    group: str
    role: str
    min_nm: tuple[float, float, float]
    dims_nm: tuple[float, float, float]

    @property
    def max_nm(self):
        return tuple(m + d for m, d in zip(self.min_nm, self.dims_nm))

    @property
    def center_nm(self):
        return tuple(m + 0.5 * d for m, d in zip(self.min_nm, self.dims_nm))


@dataclass(frozen=True)
class DeviceSpec:
    boxes: tuple[Box, ...]
    epsilon_r: float = DEFAULT_EPSILON_R
    air_gap_nm: float = 0.0
    domain_nm: tuple[tuple[float, float, float], tuple[float, float, float]] | None = None
    sweep_bounds_nm: tuple[float, float] = (DEFAULT_SWEEP_BOUND_NM, DEFAULT_SWEEP_BOUND_NM)

    @property
    def groups(self) -> tuple[str, ...]:
        """Conductor groups in declaration order."""
        seen: dict[str, None] = {}
        for b in self.boxes:
            seen.setdefault(b.group, None)
        return tuple(seen)

    @property
    def roles(self) -> dict[str, str]:
        """Map conductor group -> role."""
        return {b.group: b.role for b in self.boxes}

    def group_of_role(self, role: str) -> str:
        for g, r in self.roles.items():
            if r == role:
                return g
        raise DeviceError(f"device has no conductor with role {role!r}")

    def with_air_gap(self, gap_nm: float) -> "DeviceSpec":
        return validate_device(replace(self, air_gap_nm=float(gap_nm)))


def _boxes_touch(a: Box, b: Box) -> bool:
    # closed-box intersection: interpenetration or zero-clearance face contact
    # (contact panels would collocate on one plane and break the BEM solve)
    for lo1, hi1, lo2, hi2 in zip(a.min_nm, a.max_nm, b.min_nm, b.max_nm):
        if hi1 < lo2 or hi2 < lo1:
            return False
    return True


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def validate_device(spec: DeviceSpec) -> DeviceSpec:
    if not spec.boxes:
        raise DeviceError("device has no boxes")
    if not 0.0 < spec.epsilon_r < math.inf:
        raise DeviceError(f"epsilon_r must be finite and positive, got {spec.epsilon_r:g}")
    if not 0.0 <= spec.air_gap_nm < math.inf:
        raise DeviceError(f"air_gap_nm must be finite and non-negative, got {spec.air_gap_nm:g}")
    if spec.domain_nm is not None:
        lo, hi = spec.domain_nm
        if not _finite(lo + hi):
            raise DeviceError("domain_nm must be finite")
        if any(h <= l for l, h in zip(lo, hi)):
            raise DeviceError(f"domain_nm must have max above min on every axis, got {lo}, {hi}")
    if not all(0.0 <= bound < math.inf for bound in spec.sweep_bounds_nm):
        raise DeviceError("sweep_bounds_nm must be finite and non-negative, "
                          f"got {spec.sweep_bounds_nm}")

    group_role: dict[str, str] = {}
    for b in spec.boxes:
        if not b.group or any(ch.isspace() for ch in b.group):
            raise DeviceError(f"bad conductor group name {b.group!r}")
        if b.role not in ROLES:
            raise DeviceError(f"box {b.name!r}: unknown role {b.role!r}")
        if not _finite(b.min_nm):
            raise DeviceError(f"box {b.name!r}: min_nm must be finite")
        if not _finite(b.dims_nm):
            raise DeviceError(f"box {b.name!r}: dims_nm must be finite")
        if any(d <= 0 for d in b.dims_nm):
            raise DeviceError(f"box {b.name!r}: dims_nm must be strictly positive")
        prev = group_role.setdefault(b.group, b.role)
        if prev != b.role:
            raise DeviceError(f"group {b.group!r} has conflicting roles {prev!r}/{b.role!r}")

    for role in ("d1", "d2"):
        owners = [g for g, r in group_role.items() if r == role]
        if len(owners) != 1:
            raise DeviceError(f"role {role!r} must map to exactly one conductor group, got {owners}")

    for i, a in enumerate(spec.boxes):
        for b in spec.boxes[i + 1:]:
            if _boxes_touch(a, b):
                raise DeviceError(
                    f"boxes {a.name!r} and {b.name!r} overlap or touch; conductors "
                    "need positive clearance (same-group boxes are equipotential anyway)")

    if spec.domain_nm is not None:
        lo, hi = spec.domain_nm
        for b in spec.boxes:
            if any(m < l for m, l in zip(b.min_nm, lo)) or any(m > h for m, h in zip(b.max_nm, hi)):
                raise DeviceError(f"box {b.name!r} lies outside the declared domain")
    return spec


def _floats(value, n):
    """A JSON list of n numbers, as a tuple of floats."""
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"expected a list of {n} numbers, got {value!r}")
    return tuple(float(x) for x in value)


def _box(i, rb):
    return Box(
        name=str(rb.get("name", f"box{i}")),
        group=str(rb["group"]),
        role=str(rb.get("role", "other")),
        min_nm=_floats(rb["min_nm"], 3),
        dims_nm=_floats(rb["dims_nm"], 3),
    )


def _domain(value):
    if value is None:
        return None
    lo, hi = value
    return _floats(lo, 3), _floats(hi, 3)


def _parsed(what, parse, *args):
    """parse(*args), with a malformed value turned into a DeviceError that names what."""
    try:
        return parse(*args)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DeviceError(f"bad {what}: {e}") from None


def loads_device(text: str) -> DeviceSpec:
    """Parse a device config (JSON object, see README for the schema)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DeviceError(f"config parse error: {e}") from None
    if not isinstance(raw, dict):
        raise DeviceError("config must be a JSON object")
    entries = _parsed("boxes", list, raw.get("boxes", []))
    bounds = raw.get("sweep_bounds_nm", [DEFAULT_SWEEP_BOUND_NM, DEFAULT_SWEEP_BOUND_NM])
    spec = DeviceSpec(
        boxes=tuple(_parsed(f"box entry #{i}", _box, i, rb) for i, rb in enumerate(entries)),
        epsilon_r=_parsed("epsilon_r", float, raw.get("epsilon_r", DEFAULT_EPSILON_R)),
        air_gap_nm=_parsed("air_gap_nm", float, raw.get("air_gap_nm", 0.0)),
        domain_nm=_parsed("domain_nm", _domain, raw.get("domain_nm")),
        sweep_bounds_nm=_parsed("sweep_bounds_nm", _floats, bounds, 2),
    )
    return validate_device(spec)


def load_device(path) -> DeviceSpec:
    with open(path, "r", encoding="utf-8") as f:
        return loads_device(f.read())


def dumps_device(spec: DeviceSpec) -> str:
    obj = {
        "epsilon_r": spec.epsilon_r,
        "air_gap_nm": spec.air_gap_nm,
        "boxes": [
            {"name": b.name, "group": b.group, "role": b.role,
             "min_nm": list(b.min_nm), "dims_nm": list(b.dims_nm)}
            for b in spec.boxes
        ],
        "sweep_bounds_nm": list(spec.sweep_bounds_nm),
    }
    if spec.domain_nm is not None:
        obj["domain_nm"] = [list(spec.domain_nm[0]), list(spec.domain_nm[1])]
    return json.dumps(obj, indent=2)


def transform_dots(spec: DeviceSpec, dx_nm: float, dy_nm: float, r_nm: float) -> DeviceSpec:
    """Translate both dots by (dx, dy, 0) and set dot dims to R x R x R/4.

    Dot centers stay fixed under resizing; the identity transform returns
    the spec unchanged.
    """
    if r_nm <= 0:
        raise DeviceError("dot size R must be positive")
    bx, by = spec.sweep_bounds_nm
    if abs(dx_nm) > bx or abs(dy_nm) > by:
        raise DeviceError(f"misalignment ({dx_nm}, {dy_nm}) outside sweep bounds (+-{bx}, +-{by})")

    dims = (float(r_nm), float(r_nm), float(r_nm) / 4.0)
    dot_groups = {spec.group_of_role("d1"), spec.group_of_role("d2")}
    dot_boxes = [b for b in spec.boxes if b.group in dot_groups]
    if len(dot_boxes) != 2:
        raise DeviceError("each dot must consist of exactly one box")
    if dx_nm == 0.0 and dy_nm == 0.0 and all(b.dims_nm == dims for b in dot_boxes):
        return spec

    new_boxes = []
    for b in spec.boxes:
        if b.group in dot_groups:
            cx, cy, cz = b.center_nm
            new_min = (cx + dx_nm - dims[0] / 2.0,
                       cy + dy_nm - dims[1] / 2.0,
                       cz - dims[2] / 2.0)
            new_boxes.append(replace(b, min_nm=new_min, dims_nm=dims))
        else:
            new_boxes.append(b)
    return validate_device(replace(spec, boxes=tuple(new_boxes)))


# ---------------------------------------------------------------------------
# Panel meshes
# ---------------------------------------------------------------------------

class PanelMesh:
    """Flat list of rectangular panels tagged by conductor id.

    Panels are stored as their four corner points (n, 4, 3) in metres,
    ordered corner, corner+edge_u, corner+edge_u+edge_v, corner+edge_v.
    """

    def __init__(self, corners_m: np.ndarray, cond_ids: np.ndarray,
                 conductor_names: list[str]):
        self.corners = np.ascontiguousarray(corners_m, dtype=np.float64)
        self.cond_ids = np.ascontiguousarray(cond_ids, dtype=np.int64)
        self.conductor_names = list(conductor_names)
        if self.corners.shape != (len(self.cond_ids), 4, 3):
            raise ValueError("corners must have shape (n_panels, 4, 3)")
        u, v = self.edge_u, self.edge_v
        # computed once, as the kernels look them up for every block of panels
        self.centroids = self.corners.mean(axis=1)
        self.areas = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        for a in (self.corners, self.cond_ids, self.centroids, self.areas):
            a.flags.writeable = False
        dots = np.abs(np.einsum("ij,ij->i", u, v))
        if np.any(self.areas <= 0) or np.any(dots > 1e-9 * self.areas):
            raise ValueError("panels must be non-degenerate rectangles (edge_u perpendicular to edge_v)")

    @property
    def n_panels(self) -> int:
        return len(self.cond_ids)

    @property
    def n_cond(self) -> int:
        return len(self.conductor_names)

    @property
    def edge_u(self) -> np.ndarray:
        return self.corners[:, 1, :] - self.corners[:, 0, :]

    @property
    def edge_v(self) -> np.ndarray:
        return self.corners[:, 3, :] - self.corners[:, 0, :]

    def panel_count(self) -> dict[str, int]:
        counts = np.bincount(self.cond_ids, minlength=self.n_cond)
        return {name: int(c) for name, c in zip(self.conductor_names, counts)}

    def conductor_area(self, cond_id: int) -> float:
        return float(self.areas[self.cond_ids == cond_id].sum())


def concat_meshes(meshes: list[PanelMesh]) -> PanelMesh:
    """Stack meshes; conductor ids are renumbered in order of appearance."""
    corners = np.concatenate([m.corners for m in meshes], axis=0)
    names, ids = [], []
    for m in meshes:
        offset = len(names)
        names.extend(m.conductor_names)
        ids.append(m.cond_ids + offset)
    return PanelMesh(corners, np.concatenate(ids), names)


# face -> (fixed axis, sign, u axis, v axis); fixed order for determinism
_FACES = (
    (2, 0, 0, 1),  # z-min: u along x, v along y
    (2, 1, 0, 1),  # z-max
    (1, 0, 0, 2),  # y-min: u along x, v along z
    (1, 1, 0, 2),  # y-max
    (0, 0, 1, 2),  # x-min: u along y, v along z
    (0, 1, 1, 2),  # x-max
)


def _mesh_box(min_nm, dims_nm, h_max_nm):
    """Uniformly subdivide the six faces of one box; corners in nm."""
    lo = np.asarray(min_nm, dtype=np.float64)
    dims = np.asarray(dims_nm, dtype=np.float64)
    quads = []
    for axis, side, ua, va in _FACES:
        a, b = dims[ua], dims[va]
        nu = max(1, math.ceil(a / h_max_nm))
        nv = max(1, math.ceil(b / h_max_nm))
        du, dv = a / nu, b / nv
        iu, iv = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
        base = np.zeros((nu, nv, 3))
        base[..., axis] = lo[axis] + side * dims[axis]
        base[..., ua] = lo[ua] + iu * du
        base[..., va] = lo[va] + iv * dv
        c = np.zeros((nu, nv, 4, 3))
        c[..., 0, :] = base
        c[..., 1, :] = base
        c[..., 1, ua] += du
        c[..., 2, :] = c[..., 1, :]
        c[..., 2, va] += dv
        c[..., 3, :] = base
        c[..., 3, va] += dv
        # row-major: u index outer, v index inner
        quads.append(c.reshape(-1, 4, 3))
    return np.concatenate(quads, axis=0)


def mesh_device(spec: DeviceSpec, h_max_nm: float) -> PanelMesh:
    """Mesh every box face into rectangles with edge <= h_max.

    Panels are ordered by box declaration order, then face, then row-major;
    equal inputs always produce identical panel lists.
    """
    if h_max_nm <= 0:
        raise ValueError("h_max must be positive")
    if not spec.boxes:
        raise DeviceError("device has no boxes to mesh")
    groups = spec.groups
    gid = {g: i for i, g in enumerate(groups)}
    all_corners, all_ids = [], []
    for b in spec.boxes:
        lo = list(b.min_nm)
        if lo[2] >= 0.0 and spec.air_gap_nm:
            lo = [lo[0], lo[1], lo[2] + spec.air_gap_nm]
        c = _mesh_box(lo, b.dims_nm, h_max_nm)
        all_corners.append(c)
        all_ids.append(np.full(len(c), gid[b.group], dtype=np.int64))
    corners_m = np.concatenate(all_corners, axis=0) * NM
    return PanelMesh(corners_m, np.concatenate(all_ids), list(groups))


# ---------------------------------------------------------------------------
# FASTCAP generic format
# ---------------------------------------------------------------------------

def export_panels(mesh: PanelMesh) -> str:
    """FASTCAP generic-format text, one Q line per panel, coordinates in metres."""
    lines = ["0 dqdcap panels"]
    for quad, cid in zip(mesh.corners, mesh.cond_ids):
        coords = " ".join("%.17g" % x for x in quad.reshape(12))
        lines.append(f"Q {mesh.conductor_names[cid]} {coords}")
    return "\n".join(lines) + "\n"


def import_panels(text: str) -> PanelMesh:
    """Parse FASTCAP generic-format text produced by export_panels."""
    corners, ids = [], []
    names: list[str] = []
    index: dict[str, int] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith(("0", "*", "#")):
            continue
        parts = line.split()
        if parts[0] != "Q":
            raise DeviceError(f"line {ln}: unsupported record {parts[0]!r} (only Q panels)")
        if len(parts) != 14:
            raise DeviceError(f"line {ln}: Q record needs a conductor and 12 coordinates")
        name = parts[1]
        if name not in index:
            index[name] = len(names)
            names.append(name)
        corners.append(np.array([float(x) for x in parts[2:]]).reshape(4, 3))
        ids.append(index[name])
    return PanelMesh(np.reshape(corners, (-1, 4, 3)), np.array(ids, dtype=np.int64), names)


# ---------------------------------------------------------------------------
# analytic validation meshes (spheres, plates)
# ---------------------------------------------------------------------------

def _patch_solid_angle(q):
    """Solid angle of the spherical quad with unit-vector corners q[0..3]."""
    def tri(a, b, c):
        num = np.dot(a, np.cross(b, c))
        den = 1.0 + np.dot(a, b) + np.dot(b, c) + np.dot(c, a)
        return 2.0 * abs(math.atan2(num, den))
    return tri(q[0], q[1], q[2]) + tri(q[0], q[2], q[3])


def sphere_mesh(radius_nm: float, n_per_face: int, center_nm=(0.0, 0.0, 0.0),
                name: str = "sphere") -> PanelMesh:
    """Sphere tiled by 6*n^2 tangent rectangles on a cube-projected grid.

    Each rectangle touches the sphere at its patch center and matches the
    exact spherical patch area, so the total panel area equals 4 pi R^2.
    """
    if n_per_face < 1:
        raise ValueError("n_per_face must be >= 1")
    n = n_per_face
    center = np.asarray(center_nm, dtype=np.float64)
    grid = np.linspace(-1.0, 1.0, n + 1)
    quads = []
    for axis in range(3):
        for side in (-1.0, 1.0):
            for i in range(n):
                for j in range(n):
                    s0, s1 = grid[i], grid[i + 1]
                    t0, t1 = grid[j], grid[j + 1]

                    def cube_pt(s, t):
                        p = np.zeros(3)
                        p[axis] = side
                        p[(axis + 1) % 3] = s
                        p[(axis + 2) % 3] = t
                        return p

                    cs = [cube_pt(s0, t0), cube_pt(s1, t0), cube_pt(s1, t1), cube_pt(s0, t1)]
                    qs = [c / np.linalg.norm(c) for c in cs]
                    area = _patch_solid_angle(qs) * radius_nm ** 2
                    cmid = cube_pt(0.5 * (s0 + s1), 0.5 * (t0 + t1))
                    nrm = cmid / np.linalg.norm(cmid)
                    pc = nrm * radius_nm
                    u = 0.5 * ((qs[1] - qs[0]) + (qs[2] - qs[3]))
                    u -= np.dot(u, nrm) * nrm
                    au = np.linalg.norm(u)
                    u /= au
                    v = np.cross(nrm, u)
                    bv = np.linalg.norm(0.5 * ((qs[3] - qs[0]) + (qs[2] - qs[1])))
                    scale = math.sqrt(area / (au * bv * radius_nm ** 2))
                    ha = 0.5 * au * radius_nm * scale
                    hb = 0.5 * bv * radius_nm * scale
                    c0 = center + pc - ha * u - hb * v
                    quads.append([c0, c0 + 2 * ha * u, c0 + 2 * ha * u + 2 * hb * v, c0 + 2 * hb * v])
    corners_m = np.asarray(quads) * NM
    return PanelMesh(corners_m, np.zeros(len(quads), dtype=np.int64), [name])


def plate_pair_mesh(size_nm: float, gap_nm: float, h_max_nm: float) -> PanelMesh:
    """Two single-sided square plates of the given size, gap apart in z."""
    n = max(1, math.ceil(size_nm / h_max_nm))
    d = size_nm / n
    quads, ids = [], []
    for cid, z in enumerate((-gap_nm / 2.0, gap_nm / 2.0)):
        for i in range(n):
            for j in range(n):
                x0, y0 = i * d, j * d
                c0 = np.array([x0, y0, z])
                quads.append([c0, c0 + [d, 0, 0], c0 + [d, d, 0], c0 + [0, d, 0]])
                ids.append(cid)
    corners_m = np.asarray(quads, dtype=np.float64) * NM
    return PanelMesh(corners_m, np.asarray(ids, dtype=np.int64), ["P1", "P2"])
