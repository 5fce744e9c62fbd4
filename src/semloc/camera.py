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

import numpy as np

from .mapmodel import text_records

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
    """Normalize an angle to (-pi, pi]."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


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
        return cls(*v)


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels, plus the image size."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0
    width: int = 1226
    height: int = 370

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")


@dataclass(frozen=True, eq=False)
class ProjectedLine:
    """Image projections of a line landmark's two control points."""

    u1: np.ndarray
    u2: np.ndarray


def _elementary_rotations(yaw: float, pitch: float, roll: float):
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    r_yaw = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    r_pitch = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    r_roll = np.array([[cr, -sr, 0.0], [sr, cr, 0.0], [0.0, 0.0, 1.0]])
    return r_yaw, r_pitch, r_roll


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


def rotation_derivatives(yaw: float, pitch: float, roll: float):
    """Partial derivatives of the rotation matrix w.r.t. each angle."""
    r_yaw, r_pitch, r_roll = _elementary_rotations(yaw, pitch, roll)
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    d_yaw = np.array([[-sy, 0.0, cy], [0.0, 0.0, 0.0], [-cy, 0.0, -sy]])
    d_pitch = np.array([[0.0, 0.0, 0.0], [0.0, -sp, -cp], [0.0, cp, -sp]])
    d_roll = np.array([[-sr, -cr, 0.0], [cr, -sr, 0.0], [0.0, 0.0, 0.0]])
    return (
        r_roll @ r_pitch @ AXIS_SWAP @ d_yaw,
        r_roll @ d_pitch @ AXIS_SWAP @ r_yaw,
        d_roll @ r_pitch @ AXIS_SWAP @ r_yaw,
    )


def angles_from_rotation(rot: np.ndarray) -> tuple[float, float, float]:
    """Recover (yaw, pitch, roll) from a map-to-camera rotation matrix.

    Valid away from pitch = +-pi/2 (gimbal lock), which is far outside the
    near-level driving envelope.
    """
    pitch = math.asin(max(-1.0, min(1.0, -rot[2, 1])))
    yaw = math.atan2(rot[2, 2], rot[2, 0])
    roll = math.atan2(rot[0, 1], -rot[1, 1])
    return yaw, pitch, roll


def project_point(point, pose: CameraPose, intrinsics: Intrinsics) -> np.ndarray | None:
    """Project a 3D map point to pixels; None if it fails the cheirality guard.

    No image-bounds clipping is applied: association gates off-image
    projections by distance instead.
    """
    p_cam = pose.rotation() @ (np.asarray(point, dtype=float) - pose.position)
    return _pixel_from_camera(p_cam, intrinsics)


def pinhole(x, y, z, intrinsics: Intrinsics):
    """Pixel (u, v) of camera-frame coordinates; elementwise, so scalars
    and arrays alike. The caller owns the cheirality check."""
    k = intrinsics
    return k.fx * x / z + k.skew * y / z + k.cx, k.fy * y / z + k.cy


def _pixel_from_camera(p_cam: np.ndarray, intrinsics: Intrinsics) -> np.ndarray | None:
    if p_cam[2] <= MIN_DEPTH_M:
        return None
    return np.array(pinhole(p_cam[0], p_cam[1], p_cam[2], intrinsics))


def project_line(landmark, pose: CameraPose, intrinsics: Intrinsics) -> ProjectedLine | None:
    """Project both control points of a line landmark; None if either is
    behind the camera."""
    rot = pose.rotation()
    c = pose.position
    u1 = _pixel_from_camera(rot @ (np.asarray(landmark.p1, dtype=float) - c), intrinsics)
    if u1 is None:
        return None
    u2 = _pixel_from_camera(rot @ (np.asarray(landmark.p2, dtype=float) - c), intrinsics)
    if u2 is None:
        return None
    return ProjectedLine(u1, u2)


def serialize_intrinsics(intrinsics: Intrinsics) -> str:
    return (
        f"K {intrinsics.fx:.6f} {intrinsics.fy:.6f} {intrinsics.cx:.6f} "
        f"{intrinsics.cy:.6f} {intrinsics.skew:.6f} {intrinsics.width} {intrinsics.height}\n"
    )


def parse_intrinsics(text: str) -> Intrinsics:
    for line_no, fields in text_records(text):
        if fields[0] != "K" or len(fields) != 8:
            raise ValueError(f"intrinsics line {line_no}: malformed record")
        fx, fy, cx, cy, skew = (float(f) for f in fields[1:6])
        return Intrinsics(fx, fy, cx, cy, skew, int(fields[6]), int(fields[7]))
    raise ValueError("no intrinsics record found")
