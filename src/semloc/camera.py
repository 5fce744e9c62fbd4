"""6-DOF camera pose model and pinhole projection into the image plane.

Frame conventions used throughout the package:

* map frame:    X = initial travel direction, Y = up, Z = right (right-handed).
  The Y component of a pose is therefore literally the camera height.
* camera frame: Z = optical axis (forward), X = right, Y = down.

The zero pose looks along map +X, so the zero-angle rotation is the fixed
axis relabeling ``AXIS_SWAP`` below. Positive yaw turns the camera toward
map +Z (to the right), positive pitch tips the optical axis downward, and
roll is about the optical axis. Any other consistent convention would give
the same residuals; this one is chosen so that level driving means
yaw-only rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mapmodel import read_records, text_records

# Camera axes written in "forward/up/right" map-aligned axes:
# cam X = right, cam Y = -up, cam Z = forward.
AXIS_SWAP = np.array([
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0],
])

# Cheirality guard: points with camera-frame depth below this are rejected
# rather than projected, to avoid projective blow-up near the image plane.
MIN_DEPTH_M = 0.1

POSE_PARAMS = ("x", "y", "z", "yaw", "pitch", "roll")


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]. Idempotent: a wrapped angle wraps
    to itself."""
    w = math.pi - (math.pi - a) % (2.0 * math.pi)
    # Just above pi the modulo rounds up to 2 pi, which would give -pi.
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class CameraPose:
    """Camera center in map frame (meters) plus yaw/pitch/roll (radians)."""

    x: float
    y: float
    z: float
    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0

    def __post_init__(self):
        vec = (self.x, self.y, self.z, self.yaw, self.pitch, self.roll)
        if not all(math.isfinite(v) for v in vec):
            raise ValueError(f"non-finite camera pose: {vec}")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))
        object.__setattr__(self, "pitch", wrap_angle(self.pitch))
        object.__setattr__(self, "roll", wrap_angle(self.roll))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def angles(self) -> np.ndarray:
        return np.array([self.yaw, self.pitch, self.roll])

    def rotation(self) -> np.ndarray:
        """Rotation matrix taking map-frame vectors into the camera frame."""
        return rotation_from_angles(self.yaw, self.pitch, self.roll)

    def as_vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.yaw, self.pitch, self.roll])

    @classmethod
    def from_vector(cls, v) -> "CameraPose":
        v = np.asarray(v, dtype=float)
        if v.shape != (6,):
            raise ValueError(f"pose vector must have 6 entries, got shape {v.shape}")
        return cls(*v.tolist())


class PoseTransform(NamedTuple):
    """Map-to-camera rotation and camera centre of one pose, the ``view``
    the projection functions take, so that many projections at one pose
    build the rotation once."""

    rotation: np.ndarray
    center: np.ndarray

    @classmethod
    def of(cls, pose: CameraPose) -> "PoseTransform":
        return cls(pose.rotation(), pose.position)


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels, plus the image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 1226
    height: int = 370

    def __post_init__(self):
        values = (self.fx, self.fy, self.cx, self.cy)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite intrinsics: {values}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")


def rotation_from_angles(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Map-to-camera rotation: roll about optical axis, pitch about camera
    right axis, yaw about map up, applied to the zero-pose axis swap.

    Equivalent to roll_z @ pitch_x @ AXIS_SWAP @ yaw_y written in closed form.
    """
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    return np.array([
        [sr * sp * cy - cr * sy, sr * cp, cr * cy + sr * sp * sy],
        [-cr * sp * cy - sr * sy, -cr * cp, sr * cy - cr * sp * sy],
        [cp * cy, -sp, cp * sy],
    ])


def angles_from_rotation(rot: np.ndarray) -> tuple[float, float, float]:
    """Recover (yaw, pitch, roll) from a map-to-camera rotation matrix.

    Valid away from pitch = +-pi/2 (gimbal lock), which is far outside the
    near-level driving envelope.
    """
    pitch = math.asin(max(-1.0, min(1.0, -rot[2, 1])))
    yaw = math.atan2(rot[2, 2], rot[2, 0])
    roll = math.atan2(rot[0, 1], -rot[1, 1])
    return yaw, pitch, roll


def project_point(point, view: PoseTransform,
                  intrinsics: Intrinsics) -> tuple | None:
    """Project a 3D map point through a pose's ``view`` to the pixel
    (u, v) as Python floats; None if it fails the cheirality guard. Python
    floats round each operation as numpy's scalars do.

    No image-bounds clipping is applied: association gates off-image
    projections by distance instead.
    """
    rot, c = view
    x, y, z = (rot @ (np.asarray(point, dtype=float) - c)).tolist()
    if z <= MIN_DEPTH_M:
        return None
    return pinhole(x, y, z, intrinsics)


def pinhole(x, y, z, intrinsics: Intrinsics):
    """Pixel (u, v) of camera-frame coordinates; elementwise, so scalars
    and arrays alike. The caller owns the cheirality check."""
    k = intrinsics
    return k.fx * x / z + k.cx, k.fy * y / z + k.cy


def project_line(landmark, view: PoseTransform,
                 intrinsics: Intrinsics) -> tuple | None:
    """Both control points of a line landmark projected through a pose's
    ``view``, as the Python floats (u1 x, y, u2 x, y); None if either is
    behind the camera."""
    uv1 = project_point(landmark.p1, view, intrinsics)
    if uv1 is None:
        return None
    uv2 = project_point(landmark.p2, view, intrinsics)
    if uv2 is None:
        return None
    return (*uv1, *uv2)


def serialize_intrinsics(intrinsics: Intrinsics) -> str:
    """The K record; its fifth field, the skew, is always 0."""
    return (
        f"K {intrinsics.fx:.6f} {intrinsics.fy:.6f} {intrinsics.cx:.6f} "
        f"{intrinsics.cy:.6f} 0.000000 {intrinsics.width} {intrinsics.height}\n"
    )


def parse_intrinsics(text: str) -> Intrinsics:
    """The intrinsics file's one K record. The pinhole has no skew term, so
    a skew field other than 0 is refused rather than dropped."""
    found = []

    def handle(fields):
        if found:
            raise ValueError("a file holds one K record only")
        fx, fy, cx, cy, skew = (float(f) for f in fields[1:6])
        if not math.isfinite(skew):
            raise ValueError(f"non-finite intrinsics: skew {skew}")
        if skew != 0.0:
            raise ValueError(f"skew must be 0, got {skew}")
        found.append(Intrinsics(fx, fy, cx, cy,
                                int(fields[6]), int(fields[7])))

    read_records(text_records(text), "intrinsics", {"K": 8}, handle)
    if not found:
        raise ValueError("no intrinsics record found")
    return found[0]
