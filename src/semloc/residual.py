"""Reprojection residuals and the solver's Jacobian.

The gate-form residual vector stacks, in order: one line distance per line
pair, one point distance per point pair, then the weighted flat-ground
terms (pitch in degrees, roll in degrees, and, when a lane height is
available, the camera-height offset in centimeters). The total cost is the
squared norm of this vector. The solver minimizes a smooth split of the
same rows, and only that form has a Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import (MIN_DEPTH_M, CameraPose, Intrinsics, pinhole,
                     rotation_derivatives)
from .mapmodel import PreselectedSet, SemanticClass

DEG_PER_RAD = 180.0 / math.pi
CM_PER_M = 100.0
HALF_SQRT2 = math.sqrt(0.5)
# Weight of the flat-ground rows against the pixel rows.
LAMBDA_N = 0.001
# Residual of a pair whose landmark fails the cheirality guard.
BEHIND_CAMERA_PENALTY_PX = 1e4


class EmptyCorrespondence(ValueError):
    """No line and no point pairs; the pose is unconstrained by data."""


@dataclass(frozen=True)
class ResidualConfig:
    """The rig's calibration for the flat-ground height term.

    The flat-ground terms use centimeters for length and degrees for angles;
    image distances stay in pixels. Poses and maps themselves remain in
    meters and radians.
    """

    camera_height_m: float = 1.6

    def __post_init__(self):
        if not 0.0 < self.camera_height_m < math.inf:
            raise ValueError("'camera_height_m' must be positive and finite, "
                             f"got {self.camera_height_m!r}")


@dataclass(eq=False)
class CorrespondenceSet:
    """Pairs of (preselected landmark index, detected feature index)."""

    line_pairs: list = field(default_factory=list)
    point_pairs: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.line_pairs) + len(self.point_pairs)

    def validate(self, preselected: PreselectedSet, det_lines, det_points) -> None:
        """Check index ranges, class agreement, and that each landmark is
        paired at most once. A detection may serve several landmarks; the
        hypothesis validation downstream resolves such conflicts."""
        for pairs, landmarks, dets, kind in (
                (self.line_pairs, preselected.lines, det_lines, "line"),
                (self.point_pairs, preselected.points, det_points, "point")):
            seen = set()
            for lm_idx, det_idx in pairs:
                if not 0 <= lm_idx < len(landmarks):
                    raise ValueError(f"{kind} landmark index {lm_idx} out of range")
                if not 0 <= det_idx < len(dets):
                    raise ValueError(f"{kind} detection index {det_idx} out of range")
                if lm_idx in seen:
                    raise ValueError(f"{kind} landmark {lm_idx} paired twice")
                seen.add(lm_idx)
                if landmarks[lm_idx].semantic is not dets[det_idx].semantic:
                    raise ValueError(
                        f"class mismatch in {kind} pair ({lm_idx}, {det_idx})")


def _cross2(a: np.ndarray, b: np.ndarray):
    """Signed 2D cross product a x b over the first axis."""
    return a[0] * b[1] - a[1] * b[0]


def line_distance(endpoints, frame) -> float:
    """Mean perpendicular distance (pixels) of a landmark's projected
    endpoints, ``project_line``'s four floats, to the infinite line
    through a detection, given as its ``DetectedLine.geometry`` frame.
    Python floats round each operation as numpy's elementwise ones do, so
    in this order the result is bit-identical to the residual kernel's
    cross products."""
    u1x, u1y, u2x, u2y = endpoints
    ax, ay, dx, dy, twice_length = frame
    c1 = dx * (u1y - ay) - dy * (u1x - ax)
    c2 = dx * (u2y - ay) - dy * (u2x - ax)
    return (abs(c1) + abs(c2)) / twice_length


def point_distance(proj, det) -> float:
    """Euclidean pixel distance between projection and detected point."""
    return float(np.linalg.norm(np.asarray(proj, dtype=float) - det.m))


def nearest_lane_height(preselected_lines, position) -> float | None:
    """Height (map Y) of the lane control point nearest to a position,
    or None when no lane landmark was preselected."""
    position = np.asarray(position, dtype=float)
    best = None
    best_dist = math.inf
    for lm in preselected_lines:
        if lm.semantic is not SemanticClass.LANE_LINE:
            continue
        for cp in (lm.p1, lm.p2):
            dist = float(np.linalg.norm(cp - position))
            if dist < best_dist:
                best_dist = dist
                best = float(cp[1])
    return best


def soft_constraint(pose: CameraPose, y_lane: float | None,
                    config: ResidualConfig) -> np.ndarray:
    """Unweighted flat-ground terms: (pitch deg, roll deg, height offset cm).

    The height entry is omitted when no lane height is available. The
    squared norm of the returned vector is the soft-constraint cost before
    the LAMBDA_N^2 weighting.
    """
    terms = [pose.pitch * DEG_PER_RAD, pose.roll * DEG_PER_RAD]
    if y_lane is not None:
        terms.append((pose.y - (y_lane + config.camera_height_m)) * CM_PER_M)
    return np.array(terms)


class ReprojectionObjective:
    """Gate-form residual for a fixed correspondence set.

    Precomputes per-pair geometry once; each evaluation is a handful of
    vectorized operations. Pairs whose landmark fails the cheirality guard
    at the evaluated pose contribute a constant penalty row.
    """

    def __init__(self, preselected: PreselectedSet, det_lines, det_points,
                 corr: CorrespondenceSet, intrinsics: Intrinsics,
                 config: ResidualConfig = ResidualConfig(),
                 y_lane: float | None = None):
        corr.validate(preselected, det_lines, det_points)
        if len(corr) == 0:
            raise EmptyCorrespondence("correspondence set has no pairs")
        self.intrinsics = intrinsics
        self.config = config
        self.y_lane = y_lane
        self.n_lines = len(corr.line_pairs)
        self.n_points = len(corr.point_pairs)
        self.n_soft = 2 if y_lane is None else 3

        pts, frames = [], []
        for lm_idx, det_idx in corr.line_pairs:
            lm = preselected.lines[lm_idx]
            pts.extend((lm.p1, lm.p2))
            frames.append(det_lines[det_idx].geometry)
        det_pts = []
        for lm_idx, det_idx in corr.point_pairs:
            pts.append(preselected.points[lm_idx].p)
            det_pts.append(np.asarray(det_points[det_idx].m, dtype=float))

        self._world = np.array(pts, dtype=float).reshape(-1, 3)
        # Each frame is (anchor x, y, direction x, y, twice the length);
        # halving is exact.
        frames = np.array(frames, dtype=float).reshape(-1, 5)
        self._line_anchor = frames[:, 0:2]
        self._line_dir = frames[:, 2:4]
        self._line_len = frames[:, 4] / 2.0
        self._det_pts = np.array(det_pts, dtype=float).reshape(-1, 2)

    @property
    def n_rows(self) -> int:
        return self.n_lines + self.n_points + self.n_soft

    def _kernel(self, pose: CameraPose):
        """Project every control point once.

        Returns the signed cross products of the detected line direction
        with both projected endpoints (n_lines, 2), the point pixel errors
        (n_points, 2), the line and point cheirality masks, and the
        camera-frame geometry the pixel Jacobian reuses: the rotation, the
        control points relative to the camera centre, their camera
        coordinates and their guarded depths.
        """
        rot = pose.rotation()
        rel = self._world - pose.position
        cam = rel @ rot.T
        valid = cam[:, 2] > MIN_DEPTH_M
        zs = np.where(valid, cam[:, 2], 1.0)
        uv = np.empty((cam.shape[0], 2))
        uv[:, 0], uv[:, 1] = pinhole(cam[:, 0], cam[:, 1], zs, self.intrinsics)

        nl = self.n_lines
        u = uv[:2 * nl].reshape(nl, 2, 2) - self._line_anchor[:, np.newaxis]
        cross = _cross2(self._line_dir.T[:, :, np.newaxis], u.transpose(2, 0, 1))
        err = uv[2 * nl:] - self._det_pts
        line_ok = valid[0:2 * nl:2] & valid[1:2 * nl:2]
        point_ok = valid[2 * nl:]
        return cross, err, line_ok, point_ok, (rot, rel, cam, zs)

    def _soft_rows(self, pose: CameraPose) -> np.ndarray:
        """The weighted flat-ground rows that end both residual vectors."""
        return LAMBDA_N * soft_constraint(pose, self.y_lane, self.config)

    def residual(self, pose: CameraPose) -> np.ndarray:
        return self._gate_rows(pose, *self._kernel(pose)[:4])

    def _gate_rows(self, pose: CameraPose, cross, err, line_ok,
                   point_ok) -> np.ndarray:
        """The gate-form residual from the kernel outputs at ``pose``."""
        nl, npt = self.n_lines, self.n_points
        res = np.empty(self.n_rows)
        dl = (np.abs(cross[:, 0]) + np.abs(cross[:, 1])) / (2.0 * self._line_len)
        res[:nl] = np.where(line_ok, dl, BEHIND_CAMERA_PENALTY_PX)
        dp = np.linalg.norm(err, axis=1)
        res[nl:nl + npt] = np.where(point_ok, dp, BEHIND_CAMERA_PENALTY_PX)
        res[nl + npt:] = self._soft_rows(pose)
        return res


class SolverObjective:
    """Smooth least-squares formulation of the same alignment problem.

    The mean-of-absolutes line distance has V-shaped facets whose balance
    points trap a Gauss-Newton style minimizer short of the optimum. For
    the solver we therefore split every line pair into its two signed
    per-endpoint perpendicular distances (scaled by 1/sqrt(2)) and every
    point pair into its two pixel error components. The rows are smooth,
    share the exact zero set of the reported residual, and bound its cost
    within a factor of two, so gate decisions stay meaningful while the
    optimizer converges reliably. Rows of pairs that fail the cheirality
    guard carry the penalty with zero gradient, which repels the optimizer
    from accepting such steps without breaking the iteration.
    """

    def __init__(self, base: ReprojectionObjective):
        self.base = base
        # One _Evaluation per evaluated pose object. A second evaluation of
        # the same pose object, and the gate residual at the pose a solve
        # returns, then project nothing. Each entry holds its pose, so no
        # live pose can reuse its id.
        self._evaluated = {}
        # d(half_sqrt2 * cross / length)/d(pixel) for either endpoint.
        self._line_grad = np.stack([-base._line_dir[:, 1], base._line_dir[:, 0]],
                                   axis=1) * (HALF_SQRT2 / base._line_len)[:, None]
        # The flat-ground rows' Jacobian is constant; every evaluation
        # starts from a copy of this template and fills the data rows.
        n_data_rows = 2 * base.n_lines + 2 * base.n_points
        self._jac_template = np.zeros((self.n_rows, 6))
        self._jac_template[n_data_rows, 4] = LAMBDA_N * DEG_PER_RAD      # pitch
        self._jac_template[n_data_rows + 1, 5] = LAMBDA_N * DEG_PER_RAD  # roll
        if base.y_lane is not None:
            self._jac_template[n_data_rows + 2, 1] = LAMBDA_N * CM_PER_M

    @property
    def n_rows(self) -> int:
        base = self.base
        return 2 * base.n_lines + 2 * base.n_points + base.n_soft

    def gate_residual(self, pose: CameraPose) -> np.ndarray:
        """``base.residual(pose)``, reduced from the kernel outputs of this
        objective's evaluation of ``pose`` (made now if there was none), and
        then kept, so that asking again for the same pose object returns the
        same array."""
        if id(pose) not in self._evaluated:
            self.residual_and_jacobian(pose)
        entry = self._evaluated[id(pose)]
        if entry.gate is None:
            entry.gate = self.base._gate_rows(pose, *entry.kernel)
        return entry.gate

    def _pixel_jacobian(self, pose: CameraPose, rot, rel, cam, zs) -> np.ndarray:
        """d(pixel)/d(pose) per projected control point, shape (n, 2, 6)."""
        # d(camera point)/d(pose): translation block is -R, one column per
        # angle from the rotation derivative.
        n = cam.shape[0]
        dcam = np.empty((n, 3, 6))
        dcam[:, :, 0:3] = -rot[np.newaxis, :, :]
        d_rot = rotation_derivatives(pose.yaw, pose.pitch, pose.roll)
        dcam[:, :, 3:6] = (rel @ d_rot.transpose(0, 2, 1)).transpose(1, 2, 0)
        k = self.base.intrinsics
        inv_z = 1.0 / zs
        # Pixel derivative rows stacked per projected point: (n, 2, 3).
        duv_dcam = np.zeros((n, 2, 3))
        duv_dcam[:, 0, 0] = k.fx * inv_z
        duv_dcam[:, 0, 1] = k.skew * inv_z
        duv_dcam[:, 0, 2] = -(k.fx * cam[:, 0] + k.skew * cam[:, 1]) * inv_z ** 2
        duv_dcam[:, 1, 1] = k.fy * inv_z
        duv_dcam[:, 1, 2] = -k.fy * cam[:, 1] * inv_z ** 2
        return np.einsum("nij,njk->nik", duv_dcam, dcam)

    def residual_and_jacobian(self, pose: CameraPose):
        """The residual vector, shape (n_rows,), and its Jacobian over the
        pose parameters, shape (n_rows, 6). A pose object evaluated before
        gets the same two arrays back, so callers must not write to them."""
        entry = self._evaluated.get(id(pose))
        if entry is not None:
            return entry.r, entry.jac
        base = self.base
        cross, err, line_ok, point_ok, geometry = base._kernel(pose)
        all_ok = line_ok.all() and point_ok.all()
        nl = base.n_lines
        n_line_rows = 2 * nl
        n_data_rows = n_line_rows + 2 * base.n_points
        res = np.empty(self.n_rows)
        line_res = HALF_SQRT2 * (cross / base._line_len[:, None])
        point_res = err
        if not all_ok:
            line_res = np.where(line_ok[:, None], line_res,
                                BEHIND_CAMERA_PENALTY_PX)
            point_res = np.where(point_ok[:, None], err,
                                 BEHIND_CAMERA_PENALTY_PX * HALF_SQRT2)
        res[:n_line_rows] = line_res.ravel()
        res[n_line_rows:n_data_rows] = point_res.ravel()
        res[n_data_rows:] = base._soft_rows(pose)

        duv = self._pixel_jacobian(pose, *geometry)
        jac = self._jac_template.copy()
        # Per line endpoint: line_grad . d(pixel)/d(pose), shape (nl, 2, 6).
        rows = np.einsum("ni,nkij->nkj", self._line_grad,
                         duv[:n_line_rows].reshape(nl, 2, 2, 6))
        point_rows = duv[n_line_rows:]
        if not all_ok:
            rows = np.where(line_ok[:, None, None], rows, 0.0)
            point_rows = np.where(point_ok[:, None, None], point_rows, 0.0)
        jac[:n_line_rows] = rows.reshape(-1, 6)
        jac[n_line_rows:n_data_rows] = point_rows.reshape(-1, 6)
        self._evaluated[id(pose)] = _Evaluation(
            pose, (cross, err, line_ok, point_ok), res, jac)
        return res, jac


class _Evaluation:
    """What a ``SolverObjective`` computed at one pose object: the kernel
    outputs the gate residual reduces, the (r, J) pair, and the gate
    residual once it has been asked for."""

    __slots__ = ("pose", "kernel", "r", "jac", "gate")

    def __init__(self, pose: CameraPose, kernel: tuple, r: np.ndarray,
                 jac: np.ndarray):
        self.pose, self.kernel, self.r, self.jac = pose, kernel, r, jac
        self.gate = None
