import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dqdcap.capsolve import DenseFactor, solve_dense
from dqdcap.constants import NM
from dqdcap.geometry import (
    ROLES,
    Box,
    DeviceError,
    DeviceSpec,
    concat_meshes,
    dumps_device,
    loads_device,
    mesh_device,
    panel_count,
    plate_pair_mesh,
    sphere_mesh,
    transform_dots,
    validate_device,
)
from dqdcap.reference import build_reference_device

MINIMAL = json.dumps({
    "boxes": [
        {"name": "dot1", "group": "d1", "role": "d1",
         "min_nm": [-70, -20, -30], "dims_nm": [40, 40, 10]},
        {"name": "dot2", "group": "d2", "role": "d2",
         "min_nm": [30, -20, -30], "dims_nm": [40, 40, 10]},
    ],
})


def box_area_nm2(dims):
    a, b, c = dims
    return 2.0 * (a * b + b * c + a * c)


class TestLoadDevice:
    def test_minimal_two_dot_config(self):
        spec = loads_device(MINIMAL)
        assert spec.groups == ("d1", "d2")
        assert spec.epsilon_r == 6.0
        assert spec.air_gap_nm == 0.0
        c1 = spec.boxes[0].center_nm
        c2 = spec.boxes[1].center_nm
        assert math.hypot(c2[0] - c1[0], c2[1] - c1[1]) == 100.0

    def test_empty_box_list_rejected(self):
        with pytest.raises(DeviceError):
            loads_device(json.dumps({"boxes": []}))

    def test_parse_error(self):
        with pytest.raises(DeviceError):
            loads_device("{not json")

    def test_missing_dot_role_rejected(self):
        cfg = json.loads(MINIMAL)
        cfg["boxes"][1]["role"] = "other"
        with pytest.raises(DeviceError, match="d2"):
            loads_device(json.dumps(cfg))

    def test_overlap_rejected(self):
        cfg = json.loads(MINIMAL)
        cfg["boxes"][1]["min_nm"] = [-50, -20, -30]
        with pytest.raises(DeviceError, match="overlap"):
            loads_device(json.dumps(cfg))

    def test_zero_clearance_contact_rejected(self):
        cfg = json.loads(MINIMAL)
        cfg["boxes"][1]["min_nm"] = [-30, -20, -30]  # face contact at x=-30
        with pytest.raises(DeviceError):
            loads_device(json.dumps(cfg))

    def test_reference_device_has_nine_conductors(self):
        spec = build_reference_device()
        assert len(spec.groups) == 9
        assert set(spec.roles.values()) == {"d1", "d2", "B", "SL", "SR", "g1", "g2", "i1", "i2"}

    def test_roundtrip_dump_load(self):
        spec = build_reference_device()
        again = loads_device(dumps_device(spec))
        assert again.groups == spec.groups
        assert again.boxes == spec.boxes
        # every field survives, the optional domain and non-default sweep bounds too
        cfg = json.loads(dumps_device(spec))
        cfg["sweep_bounds_nm"] = [30, 30]
        cfg["domain_nm"] = [[-400, -400, -300], [400, 400, 200]]
        spec = loads_device(json.dumps(cfg))
        assert spec.sweep_bounds_nm == (30.0, 30.0) and spec.domain_nm is not None
        assert loads_device(dumps_device(spec)) == spec

    def test_reference_device_is_rotation_symmetric(self):
        """(x, y, z) -> (-x, -y, z) maps the device onto itself, to the last bit."""
        spec = build_reference_device()
        assert _rotation_symmetric(spec)
        # a 1 nm shift of any one box, along any axis, breaks the symmetry
        for i, b in enumerate(spec.boxes):
            for axis in range(3):
                shifted = list(b.min_nm)
                shifted[axis] += 1.0
                boxes = list(spec.boxes)
                boxes[i] = replace(b, min_nm=tuple(shifted))
                assert not _rotation_symmetric(replace(spec, boxes=tuple(boxes))), (b.name, axis)

    @pytest.mark.parametrize("field, value", [
        ("epsilon_r", math.nan), ("epsilon_r", math.inf),
        ("air_gap_nm", math.nan), ("air_gap_nm", math.inf),
        ("min_nm", math.nan), ("dims_nm", math.nan), ("dims_nm", math.inf),
        ("domain_nm", math.nan), ("sweep_bounds_nm", math.nan), ("sweep_bounds_nm", -1.0),
    ])
    def test_bad_number_rejected(self, field, value):
        cfg = json.loads(MINIMAL)
        cfg["domain_nm"] = [[-100, -100, -100], [100, 100, 100]]
        if field in ("epsilon_r", "air_gap_nm"):
            cfg[field] = value
        elif field == "domain_nm":
            cfg["domain_nm"][1][2] = value
        elif field == "sweep_bounds_nm":
            cfg["sweep_bounds_nm"] = [200.0, value]
        else:
            cfg["boxes"][1][field][2] = value
        with pytest.raises(DeviceError, match=field):
            loads_device(json.dumps(cfg))

    @pytest.mark.parametrize("gap", [-5.0, math.nan, math.inf])
    def test_with_air_gap_validates(self, gap):
        with pytest.raises(DeviceError, match="air_gap_nm"):
            loads_device(MINIMAL).with_air_gap(gap)


_ROTATED_GROUP = {"d1": "d2", "SL": "SR", "i1": "i2", "g1": "g2", "B": "B"}
_ROTATED_GROUP.update({v: k for k, v in _ROTATED_GROUP.items()})


def _rotation_symmetric(spec):
    """Whether (x, y, z) -> (-x, -y, z) with its group swap maps the boxes onto themselves."""
    extents = sorted((b.group, b.min_nm, b.max_nm) for b in spec.boxes)
    rotated = sorted(
        (_ROTATED_GROUP[b.group], (-b.max_nm[0], -b.max_nm[1], b.min_nm[2]),
         (-b.min_nm[0], -b.min_nm[1], b.max_nm[2]))
        for b in spec.boxes)
    return rotated == extents


# Seeded property tests over generated devices.  Each box lies inside its own
# cell of a coarse grid, at least CELL_MARGIN_NM from the cell's faces, so every
# pair of boxes has positive clearance.
GRID_CELLS = (6, 6, 4)
CELL_NM = 50.0
CELL_MARGIN_NM = 1.0
DEVICE_SEEDS = range(300)
SOLVE_SEEDS = range(40)  # each device solved twice at SOLVE_H_NM: about 1 s in all
SOLVE_H_NM = 10.0
# |DenseFactor.maxwell - solve_dense| / largest diagonal: at most 9.5e-16 on
# SOLVE_SEEDS, and about 2e-13 on the reference device at h = 16
FACTOR_REL = 1e-12


def random_device(rng):
    """A valid DeviceSpec: both dots, 0-6 more boxes in random groups and roles, random
    permittivity, air gap, sweep bounds and (or no) domain, boxes in random order."""
    n = int(rng.integers(2, 9))
    cells = rng.choice(math.prod(GRID_CELLS), size=n, replace=False)
    others = [r for r in ROLES if r not in ("d1", "d2")]
    roles = ["d1", "d2"] + [str(rng.choice(others)) for _ in range(n - 2)]
    groups = ["dot1", "dot2"] + [f"{role}{rng.integers(2)}" for role in roles[2:]]
    boxes = []
    for k, (cell, role, group) in enumerate(zip(cells, roles, groups)):
        corner = np.array(np.unravel_index(cell, GRID_CELLS)) - np.array(GRID_CELLS) // 2
        dims = rng.uniform(1.0, CELL_NM - 4 * CELL_MARGIN_NM, size=3)
        offset = rng.uniform(CELL_MARGIN_NM, CELL_NM - CELL_MARGIN_NM - dims)
        lo = corner * CELL_NM + offset
        boxes.append(Box(f"box{k}", group, role, tuple(lo.tolist()), tuple(dims.tolist())))
    boxes = [boxes[k] for k in rng.permutation(n)]
    domain = None
    if rng.random() < 0.5:
        pad = rng.uniform(0.0, 50.0, size=2)
        domain = (tuple(min(b.min_nm[a] for b in boxes) - pad[0] for a in range(3)),
                  tuple(max(b.max_nm[a] for b in boxes) + pad[1] for a in range(3)))
    return validate_device(DeviceSpec(
        boxes=tuple(boxes),
        epsilon_r=float(rng.uniform(1.0, 12.0)),
        air_gap_nm=float(rng.uniform(0.0, 5.0)) if rng.random() < 0.5 else 0.0,
        domain_nm=domain,
        sweep_bounds_nm=tuple(rng.uniform(0.0, 300.0, size=2).tolist()),
    ))


def corruptions(cfg, rng):
    """(field, config) pairs: cfg, a dumped device, with one field made invalid."""
    i, j = rng.choice(len(cfg["boxes"]), size=2, replace=False)
    axis = int(rng.integers(3))

    def edited(edit):
        bad = json.loads(json.dumps(cfg))
        edit(bad)
        return bad

    def set_at(*path, value):
        def edit(bad):
            *head, last = path
            target = bad
            for key in head:
                target = target[key]
            target[last] = value
        return edit

    def touching(bad):  # box j moved onto box i's +x face
        a, b = bad["boxes"][i], bad["boxes"][j]
        b["min_nm"] = [a["min_nm"][0] + a["dims_nm"][0], a["min_nm"][1], a["min_nm"][2]]

    def swapped_domain(bad):  # the domain's extent along axis made negative
        lo, hi = bad["domain_nm"]
        lo[axis], hi[axis] = hi[axis], lo[axis]

    out = []
    for value in (math.nan, math.inf):
        out += [("epsilon_r", set_at("epsilon_r", value=value)),
                ("air_gap_nm", set_at("air_gap_nm", value=value)),
                ("sweep_bounds_nm", set_at("sweep_bounds_nm", axis % 2, value=value)),
                ("min_nm", set_at("boxes", i, "min_nm", axis, value=value)),
                ("dims_nm", set_at("boxes", i, "dims_nm", axis, value=value))]
        if "domain_nm" in cfg:
            out.append(("domain_nm", set_at("domain_nm", axis % 2, axis, value=value)))
    out += [("epsilon_r", set_at("epsilon_r", value=-cfg["epsilon_r"])),
            ("air_gap_nm", set_at("air_gap_nm", value=-1.0 - cfg["air_gap_nm"])),
            ("sweep_bounds_nm", set_at("sweep_bounds_nm", axis % 2, value=-1.0)),
            ("dims_nm", set_at("boxes", i, "dims_nm", axis,
                               value=-cfg["boxes"][i]["dims_nm"][axis])),
            ("boxes", touching),
            ("d1", lambda bad: bad["boxes"].pop(
                [b["role"] for b in bad["boxes"]].index("d1")))]
    if "domain_nm" in cfg:
        out.append(("domain_nm", swapped_domain))
    return [(field, edited(edit)) for field, edit in out]


class TestGeneratedDevices:
    def test_dump_load_round_trip(self):
        for seed in DEVICE_SEEDS:
            spec = random_device(np.random.default_rng(seed))
            assert loads_device(dumps_device(spec)) == spec, seed

    def test_each_corruption_names_its_field(self):
        failures = []
        for seed in DEVICE_SEEDS:
            rng = np.random.default_rng(seed)
            cfg = json.loads(dumps_device(random_device(rng)))
            for field, bad in corruptions(cfg, rng):
                try:
                    loads_device(json.dumps(bad))
                    failures.append((seed, field, "accepted"))
                except DeviceError as e:
                    if field not in str(e):
                        failures.append((seed, field, str(e)))
        assert not failures

    def test_dense_factor_matches_full_solve(self):
        """The static block's factor, eliminating the dots' panels handed to it as a mesh of
        their own, gives bitwise the Maxwell matrix of the block elimination over the whole
        device's panel list, wherever the dots sit in it, and the full dense solve's."""
        # imported here, as test_capsolve imports this module
        from test_capsolve import assert_bitwise, full_mesh_maxwell, in_order

        solved = 0
        for seed in SOLVE_SEEDS:
            spec = random_device(np.random.default_rng(seed))
            dots = {spec.group_of_role("d1"), spec.group_of_role("d2")}
            static = replace(spec, boxes=tuple(b for b in spec.boxes if b.group not in dots))
            if not static.boxes:
                continue
            moving = replace(spec, boxes=tuple(b for b in spec.boxes if b.group in dots))
            mesh = mesh_device(spec, SOLVE_H_NM)
            factor = DenseFactor(mesh_device(static, SOLVE_H_NM), spec.epsilon_r)
            got = factor.maxwell(mesh_device(moving, SOLVE_H_NM))
            assert_bitwise(got, full_mesh_maxwell(factor, mesh))
            want = solve_dense(mesh, spec.epsilon_r)
            scale = np.abs(np.diag(want.entries)).max()
            err = np.abs(in_order(got, want.conductor_names) - want.entries).max()
            assert err <= FACTOR_REL * scale, seed
            solved += 1
        assert solved >= 30

    def test_generator_covers_the_schema(self):
        specs = [random_device(np.random.default_rng(seed)) for seed in DEVICE_SEEDS]
        assert {r for s in specs for r in s.roles.values()} == set(ROLES)
        assert any(s.domain_nm for s in specs) and not all(s.domain_nm for s in specs)
        assert any(s.air_gap_nm for s in specs) and not all(s.air_gap_nm for s in specs)
        assert any(len(s.groups) < len(s.boxes) for s in specs)  # a group of several boxes
        assert any(b.min_nm[2] < 0 for s in specs for b in s.boxes)
        assert any(b.min_nm[2] >= 0 for s in specs for b in s.boxes)


class TestTransformDots:
    def test_identity_transform(self):
        spec = loads_device(MINIMAL)
        assert transform_dots(spec, 0.0, 0.0, 40.0) is spec

    def test_default_r_reproduces_40x40x10(self):
        spec = transform_dots(loads_device(MINIMAL), 0.0, 0.0, 40.0)
        for b in spec.boxes:
            assert b.dims_nm == (40.0, 40.0, 10.0)

    def test_r10_gives_10x10x2p5(self):
        spec = transform_dots(loads_device(MINIMAL), 0.0, 0.0, 10.0)
        d1 = spec.boxes[0]
        assert d1.dims_nm == (10.0, 10.0, 2.5)
        # centers stay fixed under resizing
        assert d1.center_nm == loads_device(MINIMAL).boxes[0].center_nm

    def test_pure_translation(self):
        base = loads_device(MINIMAL)
        moved = transform_dots(base, -50.0, 0.0, 40.0)
        for b0, b1 in zip(base.boxes, moved.boxes):
            assert b1.center_nm[0] == b0.center_nm[0] - 50.0
            assert b1.center_nm[1] == b0.center_nm[1]
            assert b1.center_nm[2] == b0.center_nm[2]

    def test_overlap_after_transform_rejected(self):
        cfg = json.loads(MINIMAL)
        cfg["boxes"].append({"name": "gate", "group": "G", "role": "other",
                             "min_nm": [-150, -20, -30], "dims_nm": [40, 40, 10]})
        spec = loads_device(json.dumps(cfg))
        with pytest.raises(DeviceError):
            transform_dots(spec, -50.0, 0.0, 40.0)

    def test_sweep_bounds_enforced(self):
        spec = loads_device(MINIMAL)
        with pytest.raises(DeviceError):
            transform_dots(spec, 500.0, 0.0, 40.0)

    def test_nonpositive_r_rejected(self):
        with pytest.raises(DeviceError):
            transform_dots(loads_device(MINIMAL), 0.0, 0.0, 0.0)


class TestMeshDevice:
    def test_single_box_count(self):
        cfg = {"boxes": [
            {"name": "a", "group": "d1", "role": "d1", "min_nm": [0, 0, 0], "dims_nm": [40, 40, 10]},
            {"name": "b", "group": "d2", "role": "d2", "min_nm": [500, 0, 0], "dims_nm": [40, 40, 10]},
        ]}
        mesh = mesh_device(loads_device(json.dumps(cfg)), 10.0)
        counts = mesh.panel_count()
        assert counts["d1"] == 2 * (4 * 4) + 4 * (4 * 1)

    def test_halving_h_quadruples_face_counts(self):
        spec = loads_device(MINIMAL)
        n1 = mesh_device(spec, 10.0).n_panels
        n2 = mesh_device(spec, 5.0).n_panels
        assert n2 == 4 * n1

    def test_meshed_area_matches_analytic(self):
        spec = build_reference_device()
        for h in (7.0, 10.0, 13.0):
            mesh = mesh_device(spec, h)
            for cid, group in enumerate(mesh.conductor_names):
                analytic = sum(box_area_nm2(b.dims_nm) for b in spec.boxes
                               if b.group == group) * NM * NM
                meshed = np.bincount(mesh.cond_ids, weights=mesh.areas)[cid]
                assert abs(meshed - analytic) <= 1e-9 * analytic

    def test_deterministic(self):
        spec = build_reference_device()
        m1 = mesh_device(spec, 10.0)
        m2 = mesh_device(spec, 10.0)
        assert np.array_equal(m1.corners, m2.corners)
        assert np.array_equal(m1.cond_ids, m2.cond_ids)

    def test_reference_panel_count_frozen(self):
        # recorded once from the implementation; meshing must stay stable
        assert mesh_device(build_reference_device(), 10.0).n_panels == 2316

    def test_air_gap_lifts_surface_metal_only(self):
        spec = build_reference_device()
        lifted = mesh_device(spec.with_air_gap(5.0), 10.0)
        base = mesh_device(spec, 10.0)
        dz = (lifted.corners[:, :, 2] - base.corners[:, :, 2]) / NM
        buried = base.corners[:, :, 2].max(axis=1) < 0
        assert np.allclose(dz[buried], 0.0)
        assert np.allclose(dz[~buried], 5.0)

    def test_panels_are_rectangles(self):
        mesh = mesh_device(build_reference_device(), 10.0)
        dots = np.einsum("ij,ij->i", mesh.edge_u, mesh.edge_v)
        assert np.abs(dots).max() <= 1e-9 * (mesh.areas.max())

    def test_areas_and_centroids_are_frozen_once(self):
        mesh = mesh_device(build_reference_device(), 16.0)
        assert mesh.areas is mesh.areas and mesh.centroids is mesh.centroids
        assert np.array_equal(mesh.areas, np.linalg.norm(mesh.edge_u, axis=1)
                              * np.linalg.norm(mesh.edge_v, axis=1))
        assert np.array_equal(mesh.centroids, mesh.corners.mean(axis=1))
        for a in (mesh.areas, mesh.centroids):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_spec_without_boxes_rejected(self):
        spec = replace(build_reference_device(), boxes=())
        with pytest.raises(DeviceError, match="no boxes"):
            mesh_device(spec, 10.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_panel_count_is_the_meshed_count(self, seed):
        spec = random_device(np.random.default_rng(seed))
        for h in (16.0, 7.3, 3.0):
            assert panel_count(spec, h) == mesh_device(spec, h).n_panels
        assert panel_count(build_reference_device(), 10.0) == 2316

    @pytest.mark.parametrize("dims, h, name", [((1e20, 10.0, 10.0), 16.0, "huge"),
                                               ((40.0, 40.0, 10.0), 1e-300, "dot1")],
                             ids=["1e20-box", "tiny-h"])
    def test_box_too_large_to_allocate_is_named(self, monkeypatch, dims, h, name):
        """A box whose corner array would exceed the largest array size is a DeviceError
        naming the box, raised before any box is meshed."""
        from dqdcap import geometry

        spec = loads_device(MINIMAL)
        spec = replace(spec, boxes=spec.boxes + (Box("huge", "h", "other", (0.0, 500.0, 0.0),
                                                     dims),))
        monkeypatch.setattr(geometry, "_mesh_box", None)  # meshing any box would raise TypeError
        message = rf"box '{name}' needs over 9.61e\+16 panels .* more than can be allocated"
        for count in (panel_count, mesh_device):
            with pytest.raises(DeviceError, match=message):
                count(spec, h)


class TestValidationMeshes:
    def test_sphere_area_exact(self):
        mesh = sphere_mesh(10.0, 8)
        assert mesh.n_panels == 6 * 64
        exact = 4.0 * math.pi * (10.0 * NM) ** 2
        assert abs(mesh.areas.sum() - exact) <= 1e-9 * exact

    def test_plate_pair(self):
        mesh = plate_pair_mesh(100.0, 5.0, 10.0)
        assert mesh.n_panels == 2 * 100
        assert mesh.panel_count() == {"P1": 100, "P2": 100}

    def test_concat_reindexes(self):
        m = concat_meshes([sphere_mesh(5.0, 2, name="A"),
                           sphere_mesh(5.0, 2, center_nm=(50, 0, 0), name="B")])
        assert m.conductor_names == ["A", "B"]
        assert set(np.unique(m.cond_ids)) == {0, 1}
