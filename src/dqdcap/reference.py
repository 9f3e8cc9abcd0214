"""Bundled reference double-dot/SET device.

The layout reconstructs the published device class from its stated feature
sizes: 40x40x10 nm buried dots 100 nm apart, 20 nm wide / 30 nm thick
control gates ending just south of the dot row, and SET islands on a second
metal layer that crosses above the gates.  The exact coordinates are a
reconstruction tuned so the extracted couplings land in the experimentally
reported ranges; the device is symmetric under 180-degree rotation about
the origin (d1<->d2, SL<->SR, i1<->i2, g1<->g2), which pins the aligned
C_SLd1/C_SRd2 ratio at one.
"""

from __future__ import annotations

from .geometry import Box, DeviceSpec, dumps_device, validate_device

LAYOUT = {
    "dot_sep": 100.0,          # centre-to-centre, nm
    "dot_r": 40.0,             # default implanted-region size (R x R x R/4)
    "dot_cz": -22.0,           # dot centre depth
    "gate_w": 20.0,            # EBL linewidth
    "gate_t": 30.0,            # Ti/Au thickness
    "gate_far": 250.0,         # outer gate extent
    "gate_end": -54.0,         # south gate tips end here (north arms mirrored)
    "b_end": -62.0,            # barrier-gate tip recess
    "sl_x": -86.0,             # S_L gate axis
    "g1_x": (-74.0, -14.0),    # compensation paddle, x extent
    "g1_y": (-166.0, -126.0),  # deep south, far from every dot position
    "set_z0": 35.0,            # second metal layer bottom (gate crossovers)
    "set_t": 30.0,
    "stub_z0": 0.0,            # sensing stub sits on the oxide like the gates
    "bar_y": (-60.0, -40.0),   # island main run, south of the dot row
    "bar1_x": (-150.0, 112.0),  # island 1 run (crosses SL and SR south arms)
    "stub1_x": (-72.0, -26.0),  # island 1 sensing stub beside d1
    "stub1_y": (-116.0, -80.0),
}


def _rot(lo, hi):
    """180-degree rotation of an interval about the origin."""
    return (-hi, -lo)


def build_reference_device(epsilon_r: float = 6.0, air_gap_nm: float = 0.0) -> DeviceSpec:
    p = LAYOUT
    half_sep = p["dot_sep"] / 2.0
    r = p["dot_r"]
    dot_dims = (r, r, r / 4.0)
    d1 = Box("dot1", "d1", "d1",
             (-half_sep - r / 2.0, -r / 2.0, p["dot_cz"] - r / 8.0), dot_dims)
    d2 = Box("dot2", "d2", "d2",
             (half_sep - r / 2.0, -r / 2.0, p["dot_cz"] - r / 8.0), dot_dims)

    # S_L, S_R and B are two-armed (south arm plus its rotation image from the
    # north), keeping the layout exactly rotation symmetric, which pins
    # C_SLd1 = C_SRd2 at alignment.  The compensation gates are horizontal
    # paddles facing their island stub from deep south/north, out of reach of
    # every dot position, and swap into each other under the rotation.
    def vgate(name, role, x_axis, south, suffix="", end=None):
        end = p["gate_end"] if end is None else end
        y_lo, y_hi = (-p["gate_far"], end) if south else (-end, p["gate_far"])
        return Box(name + suffix, name, role,
                   (x_axis - p["gate_w"] / 2.0, y_lo, 0.0),
                   (p["gate_w"], y_hi - y_lo, p["gate_t"]))

    def paddle(name, x_rng, y_rng):
        return Box(name, name, name,
                   (x_rng[0], y_rng[0], 0.0),
                   (x_rng[1] - x_rng[0], y_rng[1] - y_rng[0], p["gate_t"]))

    gates = (
        vgate("SL", "SL", p["sl_x"], True, "_s"),
        vgate("SL", "SL", p["sl_x"], False, "_n"),
        vgate("SR", "SR", -p["sl_x"], True, "_s"),
        vgate("SR", "SR", -p["sl_x"], False, "_n"),
        vgate("B", "B", 0.0, True, "_s", end=p["b_end"]),
        vgate("B", "B", 0.0, False, "_n", end=p["b_end"]),
        paddle("g1", p["g1_x"], p["g1_y"]),
        paddle("g2", _rot(*p["g1_x"]), _rot(*p["g1_y"])),
    )

    def island(name, bar_x, bar_y, stub_x, stub_y):
        bar = Box(f"{name}_bar", name, name,
                  (bar_x[0], bar_y[0], p["set_z0"]),
                  (bar_x[1] - bar_x[0], bar_y[1] - bar_y[0], p["set_t"]))
        stub = Box(f"{name}_stub", name, name,
                   (stub_x[0], stub_y[0], p["stub_z0"]),
                   (stub_x[1] - stub_x[0], stub_y[1] - stub_y[0], p["set_t"]))
        return bar, stub

    i1 = island("i1", p["bar1_x"], p["bar_y"], p["stub1_x"], p["stub1_y"])
    i2 = island("i2", _rot(*p["bar1_x"]), _rot(*p["bar_y"]),
                _rot(*p["stub1_x"]), _rot(*p["stub1_y"]))

    spec = DeviceSpec(
        boxes=(d1, d2) + gates + i1 + i2,
        epsilon_r=epsilon_r,
        air_gap_nm=air_gap_nm,
        domain_nm=((-320.0, -320.0, -80.0), (320.0, 320.0, 120.0)),
    )
    return validate_device(spec)


def reference_device_json() -> str:
    """The device file of build_reference_device(); data/reference_device.json is a copy."""
    return dumps_device(build_reference_device())
