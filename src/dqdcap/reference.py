"""Bundled reference double-dot/SET device.

The layout reconstructs the published device class from its stated feature
sizes: 40x40x10 nm buried dots 100 nm apart, 20 nm wide / 30 nm thick
control gates ending just south of the dot row, and SET islands on a second
metal layer that crosses above the gates.  The exact coordinates are a
reconstruction tuned so the extracted couplings land in the experimentally
reported ranges; the device is symmetric under 180-degree rotation about
the origin (d1<->d2, SL<->SR, i1<->i2, g1<->g2), which pins the aligned
C_SLd1/C_SRd2 ratio at one.

The packaged file data/reference_device.json is the device's one definition.
"""

from __future__ import annotations

from importlib import resources

from .geometry import DeviceSpec, loads_device


def build_reference_device() -> DeviceSpec:
    """The device of the packaged data/reference_device.json."""
    path = resources.files("dqdcap.data").joinpath("reference_device.json")
    return loads_device(path.read_text(encoding="utf-8"))
