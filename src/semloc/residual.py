"""Reprojection residuals and their Jacobian.

The residual vector stacks, in order: one line distance per line pair, one
point distance per point pair, then the weighted flat-ground terms (pitch
in degrees, roll in degrees, and, when a lane height is available, the
camera-height offset in centimeters). The total cost is the squared norm of
this vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import (MIN_DEPTH_M, CameraPose, Intrinsics, ProjectedLine,
                     pinhole, rotation_derivatives)
from .mapmodel import PreselectedSet, SemanticClass

DEG_PER_RAD = 180.0 / math.pi
CM_PER_M = 100.0
HALF_SQRT2 = math.sqrt(0.5)


class EmptyCorrespondence(ValueError):
    """No line and no point pairs; the pose is unconstrained by data."""


class DegenerateDetection(ValueError):
    """Detected line endpoints coincide; its direction is undefined."""


@dataclass(frozen=True)
class ResidualConfig:
    """Weights and unit constants for the stacked residual.

    The flat-ground terms use centimeters for length and degrees for angles;
    image distances stay in pixels. Poses and maps themselves remain in
    meters and radians.
    """

    lambda_n: float = 0.001
    camera_height_m: float = 1.6
    behind_camera_penalty_px: float = 1e4

    def __post_init__(self):
        if self.lambda_n < 0:
            raise ValueError("lambda_n must be non-negative")


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


def _detected_line(det):
    """Anchor, direction and length of a detected line. Canonical endpoint
    order makes every distance bit-identical under endpoint swaps."""
    m1, m2 = np.asarray(det.m1, dtype=float), np.asarray(det.m2, dtype=float)
    if tuple(m2) < tuple(m1):
        m1, m2 = m2, m1
    d = m2 - m1
    length = float(np.linalg.norm(d))
    if length < 1e-6:
        raise DegenerateDetection("detected line endpoints coincide")
    return m1, d, length


def line_distance(proj: ProjectedLine, det) -> float:
    """Mean perpendicular distance of the two projected control points to
    the infinite line through the detected endpoints (pixels)."""
    m1, d, length = _detected_line(det)
    c1, c2 = float(_cross2(d, proj.u1 - m1)), float(_cross2(d, proj.u2 - m1))
    return (abs(c1) + abs(c2)) / (2.0 * length)


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
    the lambda_n^2 weighting.
    """
    terms = [pose.pitch * DEG_PER_RAD, pose.roll * DEG_PER_RAD]
    if y_lane is not None:
        terms.append((pose.y - (y_lane + config.camera_height_m)) * CM_PER_M)
    return np.array(terms)


class _Objective:
    """Evaluation methods shared by both objectives, all reductions of
    ``residual_and_jacobian(pose, with_jacobian)``."""

    def residual(self, pose: CameraPose) -> np.ndarray:
        return self.residual_and_jacobian(pose, with_jacobian=False)[0]

    def cost(self, pose: CameraPose) -> float:
        r = self.residual(pose)
        return float(r @ r)


class ReprojectionObjective(_Objective):
    """Residual/Jacobian provider for a fixed correspondence set.

    Precomputes per-pair geometry once; each evaluation is a handful of
    vectorized operations. Pairs whose landmark fails the cheirality guard
    at the evaluated pose contribute a constant penalty row with zero
    gradient, which repels the optimizer from accepting such steps without
    breaking the iteration.
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

        pts = []
        dirs, anchors, lengths = [], [], []
        for lm_idx, det_idx in corr.line_pairs:
            lm = preselected.lines[lm_idx]
            m1, d, length = _detected_line(det_lines[det_idx])
            pts.extend((lm.p1, lm.p2))
            dirs.append(d)
            anchors.append(m1)
            lengths.append(length)
        det_pts = []
        for lm_idx, det_idx in corr.point_pairs:
            pts.append(preselected.points[lm_idx].p)
            det_pts.append(np.asarray(det_points[det_idx].m, dtype=float))

        self._world = np.array(pts, dtype=float).reshape(-1, 3)
        self._line_dir = np.array(dirs, dtype=float).reshape(-1, 2)
        self._line_anchor = np.array(anchors, dtype=float).reshape(-1, 2)
        self._line_len = np.array(lengths, dtype=float)
        self._det_pts = np.array(det_pts, dtype=float).reshape(-1, 2)
        # d(half_sqrt2 * cross / length)/d(pixel) for either endpoint.
        self._line_grad = np.stack([-self._line_dir[:, 1], self._line_dir[:, 0]],
                                   axis=1) * (HALF_SQRT2 / self._line_len)[:, None]

    @property
    def n_rows(self) -> int:
        return self.n_lines + self.n_points + self.n_soft

    def _kernel(self, pose: CameraPose, with_jacobian: bool):
        """Project every control point once.

        Returns the signed cross products of the detected line direction
        with both projected endpoints (n_lines, 2), the point pixel errors
        (n_points, 2), the line and point cheirality masks and, when asked,
        d(pixel)/d(pose) per projected control point (n, 2, 6).
        """
        rot = pose.rotation()
        rel = self._world - pose.position
        cam = rel @ rot.T
        valid = cam[:, 2] > MIN_DEPTH_M
        zs = np.where(valid, cam[:, 2], 1.0)
        k = self.intrinsics
        uv = np.empty((cam.shape[0], 2))
        uv[:, 0], uv[:, 1] = pinhole(cam[:, 0], cam[:, 1], zs, k)

        nl = self.n_lines
        u = uv[:2 * nl].reshape(nl, 2, 2) - self._line_anchor[:, np.newaxis]
        cross = _cross2(self._line_dir.T[:, :, np.newaxis], u.transpose(2, 0, 1))
        err = uv[2 * nl:] - self._det_pts
        line_ok = valid[0:2 * nl:2] & valid[1:2 * nl:2]
        point_ok = valid[2 * nl:]
        if not with_jacobian:
            return cross, err, line_ok, point_ok, None

        # d(camera point)/d(pose): translation block is -R, one column per
        # angle from the rotation derivative.
        n = cam.shape[0]
        dcam = np.empty((n, 3, 6))
        dcam[:, :, 0:3] = -rot[np.newaxis, :, :]
        d_rot = rotation_derivatives(pose.yaw, pose.pitch, pose.roll)
        for col, dr in enumerate(d_rot, start=3):
            dcam[:, :, col] = rel @ dr.T
        inv_z = 1.0 / zs
        # Pixel derivative rows stacked per projected point: (n, 2, 3).
        duv_dcam = np.zeros((n, 2, 3))
        duv_dcam[:, 0, 0] = k.fx * inv_z
        duv_dcam[:, 0, 1] = k.skew * inv_z
        duv_dcam[:, 0, 2] = -(k.fx * cam[:, 0] + k.skew * cam[:, 1]) * inv_z ** 2
        duv_dcam[:, 1, 1] = k.fy * inv_z
        duv_dcam[:, 1, 2] = -k.fy * cam[:, 1] * inv_z ** 2
        duv = np.einsum("nij,njk->nik", duv_dcam, dcam)
        return cross, err, line_ok, point_ok, duv

    def _endpoint_rows(self, duv: np.ndarray) -> np.ndarray:
        """Jacobian of half_sqrt2 * cross / length per line endpoint,
        shape (n_lines, 2, 6)."""
        nl = self.n_lines
        return np.einsum("ni,nkij->nkj", self._line_grad,
                         duv[:2 * nl].reshape(nl, 2, 2, 6))

    def _write_soft(self, pose: CameraPose, res: np.ndarray, jac, start: int):
        """Weighted flat-ground rows from ``start`` on, and their Jacobian
        entries when ``jac`` is given."""
        lam = self.config.lambda_n
        res[start:] = lam * soft_constraint(pose, self.y_lane, self.config)
        if jac is not None:
            jac[start, 4] = lam * DEG_PER_RAD      # pitch row
            jac[start + 1, 5] = lam * DEG_PER_RAD  # roll row
            if self.y_lane is not None:
                jac[start + 2, 1] = lam * CM_PER_M

    def residual_and_jacobian(self, pose: CameraPose, with_jacobian: bool = True):
        cross, err, line_ok, point_ok, duv = self._kernel(pose, with_jacobian)
        nl, npt = self.n_lines, self.n_points
        penalty = self.config.behind_camera_penalty_px
        res = np.empty(self.n_rows)
        dl = (np.abs(cross[:, 0]) + np.abs(cross[:, 1])) / (2.0 * self._line_len)
        res[:nl] = np.where(line_ok, dl, penalty)
        dp = np.linalg.norm(err, axis=1)
        res[nl:nl + npt] = np.where(point_ok, dp, penalty)
        jac = None
        if with_jacobian:
            jac = np.zeros((self.n_rows, 6))
            # d|cross|/(2 length) = sign(cross) * half_sqrt2 * endpoint row
            rows = HALF_SQRT2 * np.einsum("nk,nkj->nj", np.sign(cross),
                                          self._endpoint_rows(duv))
            jac[:nl] = np.where(line_ok[:, None], rows, 0.0)
            moving = dp > 1e-12
            unit = err / np.where(moving, dp, 1.0)[:, None]
            rows = np.einsum("ni,nij->nj", unit, duv[2 * nl:])
            jac[nl:nl + npt] = np.where((point_ok & moving)[:, None], rows, 0.0)
        self._write_soft(pose, res, jac, nl + npt)
        return res, jac


class SolverObjective(_Objective):
    """Smooth least-squares formulation of the same alignment problem.

    The mean-of-absolutes line distance has V-shaped facets whose balance
    points trap a Gauss-Newton style minimizer short of the optimum. For
    the solver we therefore split every line pair into its two signed
    per-endpoint perpendicular distances (scaled by 1/sqrt(2)) and every
    point pair into its two pixel error components. The rows are smooth,
    share the exact zero set of the reported residual, and bound its cost
    within a factor of two, so gate decisions stay meaningful while the
    optimizer converges reliably.
    """

    def __init__(self, base: ReprojectionObjective):
        self.base = base

    @property
    def n_rows(self) -> int:
        base = self.base
        return 2 * base.n_lines + 2 * base.n_points + base.n_soft

    def residual_and_jacobian(self, pose: CameraPose, with_jacobian: bool = True):
        base = self.base
        cross, err, line_ok, point_ok, duv = base._kernel(pose, with_jacobian)
        n_line_rows = 2 * base.n_lines
        n_data_rows = n_line_rows + 2 * base.n_points
        penalty = base.config.behind_camera_penalty_px
        res = np.empty(self.n_rows)
        c = cross / base._line_len[:, None]
        res[:n_line_rows] = np.where(line_ok[:, None], HALF_SQRT2 * c,
                                     penalty).ravel()
        res[n_line_rows:n_data_rows] = np.where(point_ok[:, None], err,
                                                penalty * HALF_SQRT2).ravel()
        jac = None
        if with_jacobian:
            jac = np.zeros((self.n_rows, 6))
            rows = base._endpoint_rows(duv)
            jac[:n_line_rows] = np.where(line_ok[:, None, None], rows,
                                         0.0).reshape(-1, 6)
            jac[n_line_rows:n_data_rows] = np.where(
                point_ok[:, None, None], duv[n_line_rows:], 0.0).reshape(-1, 6)
        base._write_soft(pose, res, jac, n_data_rows)
        return res, jac

