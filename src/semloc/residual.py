"""Reprojection residuals and the solver's Jacobian.

The gate-form residual vector stacks, in order: one line distance per line
pair, one point distance per point pair, then the weighted flat-ground
terms (pitch in degrees, roll in degrees, and, when a lane height is
available, the camera-height offset in centimeters). The total cost is the
squared norm of this vector. The solver minimizes a smooth split of the
same rows, and only that form has a Jacobian.

Which operations fix the output bits: every BLAS or LAPACK call (the
camera coordinates, ``project_point``'s ``rot @ (p - c)`` stacked over the
control points, the product of those coordinates with the angles'
cross-product matrices, and the solver's ``J^T J``, ``J^T r`` and
``np.linalg.solve``), the two einsums of the Jacobian, the order of each
elementwise product, quotient and sum (``pinhole``'s ``fx * x / z + cx``
and ``fy * y / z + cy`` for the pixels, ``x * (1/z)`` and ``x * (1/z)^2``
for their derivatives), and the float operations of ``line_distance`` and
``point_distance``, which are the gate rows. The matcher projects and
scores with the same operations, so its pixels and distances are the
objective's bit for bit. Everything else, such as how rows are gathered,
which masks are built and how many numpy calls a step takes, may be
restructured freely as long as the results stay bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import MIN_DEPTH_M, CameraPose, Intrinsics
from .mapmodel import PreselectedSet, SemanticClass, distances

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
        paired at most once. A detection may serve several landmarks, and
        nothing downstream resolves that yet: hypothesis validation can
        accept a pose metres off with two landmarks on one detection (see
        ``tests/test_pipeline.py::TestNoFarOffAccept`` and ROADMAP item
        1)."""
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


def line_distance(endpoints, frame) -> float:
    """Mean perpendicular distance (pixels) of a landmark's projected
    endpoints, ``project_line``'s four floats, to the infinite line
    through a detection, given as its ``DetectedLine.geometry`` frame.
    The matcher scores line pairs with it, and each line row of the
    objective's gate form is this function of the kernel's pixels."""
    u1x, u1y, u2x, u2y = endpoints
    ax, ay, dx, dy, twice_length = frame
    c1 = dx * (u1y - ay) - dy * (u1x - ax)
    c2 = dx * (u2y - ay) - dy * (u2x - ax)
    return (abs(c1) + abs(c2)) / twice_length


def point_distance(proj, det_xy) -> float:
    """Euclidean pixel distance between a projection and a detected point,
    given as its (x, y) floats. The matcher scores point pairs with it, and
    each point row of the objective's gate form is this function of the
    kernel's pixels."""
    (u, v), (mx, my) = proj, det_xy
    ex, ey = u - mx, v - my
    return math.sqrt(ex * ex + ey * ey)


def nearest_lane_height(preselected_lines, position) -> float | None:
    """Height (map Y) of the lane control point nearest to a position,
    or None when no lane landmark was preselected."""
    control_points = [cp for lm in preselected_lines
                      if lm.semantic is SemanticClass.LANE_LINE
                      for cp in (lm.p1, lm.p2)]
    if not control_points:
        return None
    dist = distances(control_points, np.asarray(position, dtype=float))
    # The first of equal distances wins; none wins if every one overflows.
    best = int(np.argmin(dist))
    return float(control_points[best][1]) if dist[best] < math.inf else None


def soft_constraint(pose: CameraPose, y_lane: float | None,
                    config: ResidualConfig) -> list:
    """Unweighted flat-ground terms as Python floats: (pitch deg, roll deg,
    height offset cm).

    The height entry is omitted when no lane height is available. The sum
    of the squared terms is the soft-constraint cost before the LAMBDA_N^2
    weighting.
    """
    terms = [pose.pitch * DEG_PER_RAD, pose.roll * DEG_PER_RAD]
    if y_lane is not None:
        terms.append((pose.y - (y_lane + config.camera_height_m)) * CM_PER_M)
    return terms


class ReprojectionObjective:
    """The reprojection residual of a fixed correspondence set, in two forms.

    ``residual(pose)`` is the gate form. Its mean-of-absolutes line distance
    has V-shaped facets whose balance points trap a Gauss-Newton style
    minimizer short of the optimum, so ``residual_and_jacobian(pose)``
    gives the solver a smooth split of the same rows: every line pair
    becomes its two signed per-endpoint perpendicular distances (scaled by
    1/sqrt(2)) and every point pair its two pixel error components. The
    split rows share the exact zero set of the gate form and bound its cost
    within a factor of two, so gate decisions stay meaningful while the
    optimizer converges reliably.

    Per-pair geometry is precomputed once. Pairs whose landmark fails the
    cheirality guard at the evaluated pose contribute a constant penalty
    row, with zero gradient in the split form, which repels the optimizer
    from such steps without breaking the iteration.
    """

    def __init__(self, preselected: PreselectedSet, det_lines, det_points,
                 corr: CorrespondenceSet, intrinsics: Intrinsics,
                 config: ResidualConfig = ResidualConfig(),
                 y_lane: float | None = None):
        corr.validate(preselected, det_lines, det_points)
        if len(corr) == 0:
            raise EmptyCorrespondence("correspondence set has no pairs")
        self.config = config
        self.y_lane = y_lane
        self.n_lines = len(corr.line_pairs)
        self.n_points = len(corr.point_pairs)
        self.n_soft = 2 if y_lane is None else 3

        # Each detection is kept once as floats, which the gate rows read
        # (line_distance, point_distance); the split form reads the numpy
        # arrays built from those same floats below.
        pts, self._frames = [], []
        for lm_idx, det_idx in corr.line_pairs:
            lm = preselected.lines[lm_idx]
            pts.extend((lm.p1, lm.p2))
            self._frames.append(det_lines[det_idx].geometry)
        self._det_xy = []
        for lm_idx, det_idx in corr.point_pairs:
            pts.append(preselected.points[lm_idx].p)
            self._det_xy.append(det_points[det_idx].m.tolist())

        self._world = np.array(pts, dtype=float).reshape(-1, 3)
        # Each frame is (anchor x, y, direction x, y, twice the length);
        # halving is exact.
        frames = np.array(self._frames, dtype=float).reshape(-1, 5)
        self._line_anchor = frames[:, np.newaxis, 0:2]
        line_dir = frames[:, 2:4]
        # The direction swapped to (y, x): times an endpoint's offset from
        # the anchor it gives the two products of the cross product.
        self._line_dir_yx = frames[:, np.newaxis, 3:1:-1]
        line_len = frames[:, 4] / 2.0
        self._line_len_col = line_len[:, np.newaxis]
        self._det_pts = np.array(self._det_xy, dtype=float).reshape(-1, 2)
        k = intrinsics
        self._focal = np.array([k.fx, k.fy])
        self._principal = np.array([k.cx, k.cy])
        # d(u, v)/d(camera x, y) times the depth; the depth column comes
        # from the projection.
        self._pixel_rows = np.array([[k.fx, 0.0], [0.0, k.fy]])

        # The latest residual_and_jacobian evaluation: its pose object, the
        # pixels and guard, r and J, and the gate residual once asked for.
        # Both methods reuse it for that same pose object, which is most
        # often the pose a solve returns.
        self._pose = self._pixels = self._r = self._jac = self._gate = None
        # d(half_sqrt2 * cross / length)/d(pixel) for either endpoint.
        self._line_grad = np.stack([-line_dir[:, 1], line_dir[:, 0]],
                                   axis=1) * (HALF_SQRT2 / line_len)[:, None]
        self._n_line_rows = 2 * self.n_lines
        self._n_data_rows = n_data_rows = self._n_line_rows + 2 * self.n_points
        # The flat-ground rows' Jacobian is constant; every evaluation
        # starts from a copy of this template and fills the data rows.
        self._jac_template = np.zeros((n_data_rows + self.n_soft, 6))
        self._jac_template[n_data_rows, 4] = LAMBDA_N * DEG_PER_RAD      # pitch
        self._jac_template[n_data_rows + 1, 5] = LAMBDA_N * DEG_PER_RAD  # roll
        if y_lane is not None:
            self._jac_template[n_data_rows + 2, 1] = LAMBDA_N * CM_PER_M

    def _kernel(self, pose: CameraPose):
        """Project every control point once.

        Returns the pixels (n, 2), both endpoints of each line pair and
        then the points, the cheirality guard, and the camera-frame
        geometry the pixel Jacobian reuses: the rotation, the camera
        coordinates of the control points, their guarded depths and
        (fx x, fy y). The guard is None when every control point is in
        front of the camera, else the line and point masks of the pairs
        that are.
        """
        rot = pose.rotation()
        rel = self._world - pose.position
        # project_point's rot @ (p - c), stacked: the matcher's own pixels.
        cam = np.matmul(rot, rel[:, :, np.newaxis])[:, :, 0]
        nl2 = self._n_line_rows
        z = cam[:, 2]
        guard = None
        if not z.min() > MIN_DEPTH_M:
            valid = z > MIN_DEPTH_M
            z = np.where(valid, z, 1.0)
            guard = (valid[0:nl2:2] & valid[1:nl2:2], valid[nl2:])
        # pinhole's order: fx x / z + cx and fy y / z + cy.
        xy = cam[:, :2] * self._focal
        uv = xy / z[:, np.newaxis]
        uv += self._principal
        return uv, guard, (rot, cam, z, xy)

    def _soft_rows(self, pose: CameraPose) -> list:
        """The weighted flat-ground rows that end both residual vectors."""
        return [LAMBDA_N * term
                for term in soft_constraint(pose, self.y_lane, self.config)]

    def residual(self, pose: CameraPose) -> np.ndarray:
        """The gate-form residual: one row per line pair, one per point
        pair, then the flat-ground rows. For the pose object that
        ``residual_and_jacobian`` evaluated last it is reduced from that
        evaluation's pixels and kept, so asking again returns the same
        array. Any other pose is projected afresh and nothing is kept, so a
        landscape grid stores no evaluation and builds no Jacobian."""
        if pose is not self._pose:
            return self._gate_rows(pose, *self._kernel(pose)[:2])
        if self._gate is None:
            self._gate = self._gate_rows(pose, *self._pixels)
        return self._gate

    def _gate_rows(self, pose: CameraPose, uv, guard) -> np.ndarray:
        """The gate-form residual from the kernel's pixels at ``pose``: the
        matcher's own line and point distances."""
        px = uv.tolist()
        nl2 = self._n_line_rows
        rows = [line_distance((*a, *b), frame) for a, b, frame in
                zip(px[0:nl2:2], px[1:nl2:2], self._frames)]
        rows += map(point_distance, px[nl2:], self._det_xy)
        if guard is not None:
            ok = guard[0].tolist() + guard[1].tolist()
            rows = [row if front else BEHIND_CAMERA_PENALTY_PX
                    for row, front in zip(rows, ok)]
        return np.array(rows + self._soft_rows(pose))

    def _pixel_jacobian(self, pose: CameraPose, rot, cam, z, xy) -> np.ndarray:
        """d(pixel)/d(pose) per projected control point, shape (n, 2, 6)."""
        # d(camera point)/d(pose): translation block is -R, and each angle's
        # column is its turning axis, in the camera frame, crossed with the
        # camera point. Yaw turns about the map's up axis (R's middle
        # column), pitch about (cos roll, sin roll, 0), roll about (0, 0, 1).
        # Entry (j, 3 i + k) of ``cross`` is entry (i, j) of angle k's
        # cross-product matrix, so one product gives all three columns.
        n = z.shape[0]
        dcam = np.empty((n, 3, 6))
        dcam[:, :, 0:3] = -rot
        ux, uy, uz = rot[:, 1].tolist()
        cr, sr = math.cos(pose.roll), math.sin(pose.roll)
        cross = np.array([[0.0, 0.0, 0.0, uz, 0.0, 1.0, -uy, -sr, 0.0],
                          [-uz, 0.0, -1.0, 0.0, 0.0, 0.0, ux, cr, 0.0],
                          [uy, sr, 0.0, -ux, -cr, 0.0, 0.0, 0.0, 0.0]])
        dcam[:, :, 3:6] = (cam @ cross).reshape(n, 3, 3)
        # Pixel derivative rows stacked per projected point, (n, 2, 3):
        # [[fx, 0, -fx x], [0, fy, -fy y]] times
        # (1/z, 1/z, 1/z^2). The sign rides on the factor, which is exact.
        inv_z = 1.0 / z
        scale = np.empty((n, 1, 3))
        scale[:, 0, 0:2] = inv_z[:, np.newaxis]
        scale[:, 0, 2] = inv_z * -inv_z
        duv_dcam = np.empty((n, 2, 3))
        duv_dcam[:, :, 0:2] = self._pixel_rows
        duv_dcam[:, :, 2] = xy
        return np.einsum("nij,njk->nik", duv_dcam * scale, dcam)

    def residual_and_jacobian(self, pose: CameraPose):
        """The split-form residual vector and its Jacobian over the pose
        parameters, shape (rows, 6). The pose object evaluated last gets the
        same two arrays back, so callers must not write to them."""
        if pose is self._pose:
            return self._r, self._jac
        uv, guard, geometry = self._kernel(pose)
        nl2, nd = self._n_line_rows, self._n_data_rows
        res = np.empty(nd + self.n_soft)
        prod = (uv[:nl2].reshape(self.n_lines, 2, 2) - self._line_anchor) \
            * self._line_dir_yx
        cross = prod[:, :, 1] - prod[:, :, 0]
        line_res = HALF_SQRT2 * (cross / self._line_len_col)
        point_res = uv[nl2:] - self._det_pts
        duv = self._pixel_jacobian(pose, *geometry)
        # Per line endpoint: line_grad . d(pixel)/d(pose), shape (nl, 2, 6).
        rows = np.einsum("ni,nkij->nkj", self._line_grad,
                         duv[:nl2].reshape(self.n_lines, 2, 2, 6))
        point_rows = duv[nl2:]
        if guard is not None:
            line_ok, point_ok = guard
            line_res = np.where(line_ok[:, None], line_res,
                                BEHIND_CAMERA_PENALTY_PX)
            point_res = np.where(point_ok[:, None], point_res,
                                 BEHIND_CAMERA_PENALTY_PX * HALF_SQRT2)
            rows = np.where(line_ok[:, None, None], rows, 0.0)
            point_rows = np.where(point_ok[:, None, None], point_rows, 0.0)
        res[:nl2] = line_res.ravel()
        res[nl2:nd] = point_res.ravel()
        res[nd:] = self._soft_rows(pose)
        jac = self._jac_template.copy()
        jac[:nl2] = rows.reshape(-1, 6)
        jac[nl2:nd] = point_rows.reshape(-1, 6)
        self._pose, self._pixels, self._r, self._jac = \
            pose, (uv, guard), res, jac
        self._gate = None
        return res, jac


# The name of a folded wrapper, kept only because bench/layers.py imports it.
def SolverObjective(objective: ReprojectionObjective) -> ReprojectionObjective:
    return objective

