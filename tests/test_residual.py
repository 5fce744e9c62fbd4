import math
from itertools import product

import numpy as np
import pytest

from semloc import residual
from semloc.camera import CameraPose, Intrinsics, PoseTransform
from semloc.features import DetectedLine, DetectedPoint
from semloc.mapmodel import (LineLandmark, PointLandmark, PreselectedSet,
                             SemanticClass)
from semloc.residual import (BEHIND_CAMERA_PENALTY_PX, LAMBDA_N,
                             CorrespondenceSet, EmptyCorrespondence,
                             ReprojectionObjective, ResidualConfig,
                             SolverObjective, line_distance,
                             nearest_lane_height, point_distance,
                             soft_constraint)

POLE = SemanticClass.POLE_LIKE
SIGN = SemanticClass.TRAFFIC_SIGN
LANE = SemanticClass.LANE_LINE
# (line pairs, point pairs): mixed and single-kind correspondence sets
SET_SHAPES = [(3, 2), (3, 0), (0, 2)]


def det_line(m1, m2, semantic=POLE):
    return DetectedLine(np.asarray(m1, float), np.asarray(m2, float), semantic)


def endpoints(q1, q2):
    """Two projected endpoints in project_line's float form."""
    return (*np.asarray(q1, float).tolist(), *np.asarray(q2, float).tolist())


def brute_force_line_distance(m1, m2, q1, q2):
    """Independent recomputation: mean point-to-infinite-line distance via
    the normalized line equation a*x + b*y + c = 0."""
    m1, m2 = np.asarray(m1, float), np.asarray(m2, float)
    d = m2 - m1
    n = np.array([-d[1], d[0]])
    n = n / np.linalg.norm(n)
    c = -float(n @ m1)
    return 0.5 * (abs(float(n @ q1) + c) + abs(float(n @ q2) + c))


class TestLineDistance:
    def test_zero_when_on_line(self):
        proj = endpoints([2.0, 0.0], [7.0, 0.0])
        assert line_distance(proj, det_line([0, 0], [10, 0]).geometry) == \
            pytest.approx(0.0)

    def test_forced_perpendicular_distances(self):
        proj = endpoints([3.0, 2.0], [7.0, 4.0])
        assert line_distance(proj, det_line([0, 0], [10, 0]).geometry) == \
            pytest.approx(3.0)

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            m1, m2 = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            if np.linalg.norm(m2 - m1) < 1.0:
                continue
            q1, q2 = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            got = line_distance(endpoints(q1, q2), det_line(m1, m2).geometry)
            want = brute_force_line_distance(m1, m2, q1, q2)
            assert got == pytest.approx(want, abs=1e-9)

    def test_detected_endpoint_swap_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            m1, m2 = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            q1, q2 = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            if np.linalg.norm(m2 - m1) < 1.0:
                continue
            proj = endpoints(q1, q2)
            assert line_distance(proj, det_line(m1, m2).geometry) == \
                line_distance(proj, det_line(m2, m1).geometry)

    def test_projected_endpoint_swap_exact(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            m1, m2 = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            q1, q2 = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            if np.linalg.norm(m2 - m1) < 1.0:
                continue
            det = det_line(m1, m2)
            assert line_distance(endpoints(q1, q2), det.geometry) == \
                line_distance(endpoints(q2, q1), det.geometry)

    def test_segment_extension_invariant(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            m1, m2 = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            if np.linalg.norm(m2 - m1) < 1.0:
                continue
            q1, q2 = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            proj = endpoints(q1, q2)
            base = line_distance(proj, det_line(m1, m2).geometry)
            stretched = line_distance(
                proj, det_line(m1, m1 + 2.0 * (m2 - m1)).geometry)
            shifted = line_distance(
                proj, det_line(m1 - 0.7 * (m2 - m1), m2).geometry)
            assert stretched == pytest.approx(base, abs=1e-9 * max(1, base))
            assert shifted == pytest.approx(base, abs=1e-9 * max(1, base))

    def test_float_form_equals_array_form(self):
        # line_distance runs on Python floats; each operation rounds as its
        # numpy elementwise counterpart does, so the results are equal.
        rng = np.random.default_rng(29)
        for _ in range(5000):
            scale = 10.0 ** rng.uniform(-3, 4)
            m1, m2, q1, q2 = (rng.normal(size=(4, 2)) * scale).tolist()
            det = det_line(m1, m2)
            a, b = det.m1, det.m2
            if tuple(b) < tuple(a):
                a, b = b, a
            d = b - a
            e1, e2 = np.asarray(q1) - a, np.asarray(q2) - a
            c1 = float(d[0] * e1[1] - d[1] * e1[0])
            c2 = float(d[0] * e2[1] - d[1] * e2[0])
            want = (abs(c1) + abs(c2)) / (2.0 * float(np.linalg.norm(d)))
            got = line_distance(endpoints(q1, q2), det.geometry)
            assert got == want

    def test_shortest_accepted_detection(self):
        # math.hypot puts this length at or above DetectedLine's 1e-6 bound
        # while np.linalg.norm rounds it below: any detection the
        # constructor accepts has a finite distance.
        det = det_line([0, 0], [-9.96788472972579e-07, -8.007958634379946e-08])
        proj = endpoints(np.zeros(2), np.ones(2))
        assert math.isfinite(line_distance(proj, det.geometry))


class TestPointDistance:
    def test_identical(self):
        assert point_distance([3, 4], DetectedPoint([3, 4], SIGN)) == 0.0

    def test_345(self):
        assert point_distance([0, 0], DetectedPoint([3, 4], SIGN)) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            assert point_distance(a, DetectedPoint(b, SIGN)) == \
                pytest.approx(point_distance(b, DetectedPoint(a, SIGN)))


class TestSoftConstraint:
    def test_zero_at_flat_pose(self):
        config = ResidualConfig(camera_height_m=1.6)
        pose = CameraPose(0, 1.6, 0, 0.3, 0, 0)  # yaw is unconstrained
        terms = soft_constraint(pose, y_lane=0.0, config=config)
        assert np.allclose(terms, 0.0)

    def test_one_degree_pitch(self):
        config = ResidualConfig()
        pose = CameraPose(0, config.camera_height_m, 0, 0, math.radians(1.0), 0)
        terms = soft_constraint(pose, y_lane=0.0, config=config)
        assert float(terms @ terms) == pytest.approx(1.0)

    def test_height_in_centimeters(self):
        config = ResidualConfig(camera_height_m=1.6)
        pose = CameraPose(0, 1.7, 0)  # 0.1 m above the flat-ground height
        terms = soft_constraint(pose, y_lane=0.0, config=config)
        assert terms[2] == pytest.approx(10.0)
        assert float(terms @ terms) == pytest.approx(100.0)

    def test_missing_lane_drops_height_term(self):
        terms = soft_constraint(CameraPose(0, 5.0, 0), None, ResidualConfig())
        assert terms.shape == (2,)

    def test_nearest_lane_height(self):
        lanes = [
            LineLandmark([5, 0.2, 0], [20, 0.2, 0], LANE, 15.0, 0, 0),
            LineLandmark([5, 1.0, 9], [20, 1.0, 9], LANE, 15.0, 0, 1),
        ]
        assert nearest_lane_height(lanes, [0, 1.6, 0]) == pytest.approx(0.2)
        assert nearest_lane_height([], [0, 0, 0]) is None


def toy_scene(intrinsics, n_lines=3, n_points=2, seed=0,
              displace_detections=True):
    """Landmarks ahead of a reference pose with detections rendered from a
    slightly different pose, so residuals are nonzero but well-behaved."""
    rng = np.random.default_rng(seed)
    truth = CameraPose(0, 1.6, 0, 0.05, -0.02, 0.01)
    render = CameraPose(0.3, 1.75, -0.2, 0.08, -0.04, 0.03) \
        if displace_detections else truth
    view = PoseTransform.of(render)
    from semloc.camera import project_line, project_point
    lines, det_lines = [], []
    while len(lines) < n_lines:
        x = rng.uniform(8, 35)
        z = rng.uniform(-8, 8)
        h = rng.uniform(1.0, 4.0)
        lm = LineLandmark([x, 0, z], [x, h, z], POLE, h, 0, 100 + len(lines))
        proj = project_line(lm, view, intrinsics)
        if proj is None:
            continue
        lines.append(lm)
        det_lines.append(det_line(proj[:2], proj[2:]))
    points, det_points = [], []
    while len(points) < n_points:
        p = np.array([rng.uniform(8, 35), rng.uniform(0.5, 4), rng.uniform(-8, 8)])
        uv = project_point(p, view, intrinsics)
        if uv is None:
            continue
        points.append(PointLandmark(p, SIGN, 0.7, 0, 200 + len(points)))
        det_points.append(DetectedPoint(uv, SIGN))
    sel = PreselectedSet(lines, points)
    corr = CorrespondenceSet([(i, i) for i in range(n_lines)],
                             [(i, i) for i in range(n_points)])
    return sel, det_lines, det_points, corr, truth


def gate_cost(obj, pose):
    """Squared norm of the gate-form residual."""
    r = obj.residual(pose)
    return float(r @ r)


class TestTotalResidual:
    """Total cost and stacked residual of a ReprojectionObjective."""

    def test_single_point_pair_cost(self, intrinsics):
        from semloc.camera import project_point
        pose = CameraPose(0, 1.6, 0)
        p = np.array([20.0, 2.0, 3.0])
        uv = project_point(p, PoseTransform.of(pose), intrinsics)
        sel = PreselectedSet([], [PointLandmark(p, SIGN, 0.7, 0, 0)])
        det = DetectedPoint(uv + np.array([3.0, 4.0]), SIGN)
        corr = CorrespondenceSet([], [(0, 0)])
        config = ResidualConfig(camera_height_m=1.6)
        vec = ReprojectionObjective(sel, [], [det], corr, intrinsics, config,
                                    None).residual(pose)
        cost = float(vec @ vec)
        # one point row at 5 px plus two zero angle rows
        assert vec.shape == (3,)
        assert cost == pytest.approx(25.0)

    def test_term_by_term_oracle(self, intrinsics):
        from semloc.camera import project_line, project_point
        sel, det_lines, det_points, corr, pose = toy_scene(intrinsics, seed=3)
        config = ResidualConfig(camera_height_m=1.6)
        vec = ReprojectionObjective(sel, det_lines, det_points, corr,
                                    intrinsics, config, 0.0).residual(pose)
        cost = float(vec @ vec)
        want = 0.0
        view = PoseTransform.of(pose)
        for lm_idx, d_idx in corr.line_pairs:
            proj = project_line(sel.lines[lm_idx], view, intrinsics)
            want += line_distance(proj, det_lines[d_idx].geometry) ** 2
        for lm_idx, d_idx in corr.point_pairs:
            uv = project_point(sel.points[lm_idx].p, view, intrinsics)
            want += point_distance(uv, det_points[d_idx]) ** 2
        soft = soft_constraint(pose, 0.0, config)
        want += LAMBDA_N ** 2 * float(soft @ soft)
        assert cost == pytest.approx(want, rel=1e-12)
        assert cost == pytest.approx(float(vec @ vec), rel=1e-12)

    def test_empty_correspondence_rejected(self, intrinsics):
        sel = PreselectedSet([], [])
        with pytest.raises(EmptyCorrespondence):
            ReprojectionObjective(sel, [], [], CorrespondenceSet(), intrinsics)

    def test_behind_camera_penalty(self, intrinsics):
        p = np.array([-20.0, 2.0, 0.0])  # behind the zero pose
        sel = PreselectedSet([], [PointLandmark(p, SIGN, 0.7, 0, 0)])
        det = DetectedPoint([100.0, 100.0], SIGN)
        corr = CorrespondenceSet([], [(0, 0)])
        config = ResidualConfig()
        obj = ReprojectionObjective(sel, [], [det], corr, intrinsics, config,
                                    None)
        vec = obj.residual(CameraPose(0, 1.6, 0))
        assert vec[0] == BEHIND_CAMERA_PENALTY_PX
        # the split rows carry the penalty with zero gradient
        vec, jac = SolverObjective(obj).residual_and_jacobian(
            CameraPose(0, 1.6, 0))
        assert np.all(vec[:2] == BEHIND_CAMERA_PENALTY_PX * math.sqrt(0.5))
        assert np.all(jac[:2] == 0.0)

    def test_dropping_pair_never_increases_data_term(self, intrinsics):
        sel, det_lines, det_points, corr, pose = toy_scene(intrinsics, seed=5)
        config = ResidualConfig()
        soft = soft_constraint(pose, 0.0, config)
        soft_cost = LAMBDA_N ** 2 * float(soft @ soft)
        full = gate_cost(ReprojectionObjective(
            sel, det_lines, det_points, corr, intrinsics, config, 0.0), pose)
        for k in range(len(corr.line_pairs)):
            reduced = CorrespondenceSet(
                corr.line_pairs[:k] + corr.line_pairs[k + 1:],
                corr.point_pairs)
            less = gate_cost(ReprojectionObjective(
                sel, det_lines, det_points, reduced, intrinsics, config, 0.0),
                pose)
            assert less - soft_cost <= full - soft_cost + 1e-12

    def test_continuity_in_pose(self, intrinsics):
        sel, det_lines, det_points, corr, pose = toy_scene(intrinsics, seed=8)
        obj = ReprojectionObjective(sel, det_lines, det_points, corr,
                                    intrinsics, ResidualConfig(), 0.0)
        base = gate_cost(obj, pose)
        rng = np.random.default_rng(1)
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        deltas = [1e-2, 1e-4, 1e-6]
        diffs = []
        for d in deltas:
            moved = CameraPose.from_vector(pose.as_vector() + d * direction)
            cost = gate_cost(obj, moved)
            diffs.append(abs(cost - base))
        # shrinks roughly linearly with the step: continuous in pose
        assert diffs[1] < 0.1 * diffs[0]
        assert diffs[2] < 0.1 * diffs[1]

    def test_auto_lane_height(self, intrinsics):
        lane = LineLandmark([5, 0.5, -2], [20, 0.5, -2], LANE, 15.0, 0, 50)
        sel = PreselectedSet([lane], [PointLandmark([15, 2, 1], SIGN, 0.7, 0, 0)])
        from semloc.camera import project_point
        pose = CameraPose(0, 2.1, 0)
        uv = project_point(sel.points[0].p, PoseTransform.of(pose), intrinsics)
        corr = CorrespondenceSet([], [(0, 0)])
        vec = ReprojectionObjective(
            sel, [], [DetectedPoint(uv, SIGN)], corr, intrinsics,
            ResidualConfig(camera_height_m=1.6),
            nearest_lane_height(sel.lines, pose.position)).residual(pose)
        # height term present: C_y - (0.5 + 1.6) = 0 at y = 2.1
        assert vec.shape == (4,)
        assert vec[-1] == pytest.approx(0.0)


def solver_residual(obj, pose):
    return obj.residual_and_jacobian(pose)[0]


class TestJacobian:
    """The SolverObjective Jacobian, the package's only one."""

    def finite_difference(self, obj, pose, h=1e-6):
        v = pose.as_vector()
        rows = []
        for k in range(6):
            vp, vm = v.copy(), v.copy()
            vp[k] += h
            vm[k] -= h
            rp = solver_residual(obj, CameraPose.from_vector(vp))
            rm = solver_residual(obj, CameraPose.from_vector(vm))
            rows.append((rp - rm) / (2 * h))
        return np.array(rows).T

    def test_soft_rows_analytic(self, intrinsics):
        sel, det_lines, det_points, corr, pose = toy_scene(intrinsics, seed=2)
        config = ResidualConfig()
        jac = SolverObjective(ReprojectionObjective(
            sel, det_lines, det_points, corr, intrinsics, config,
            0.0)).residual_and_jacobian(pose)[1]
        lam = LAMBDA_N
        pitch_row = jac[-3]
        assert pitch_row[4] == pytest.approx(lam * 180.0 / math.pi)
        assert np.allclose(np.delete(pitch_row, 4), 0.0)
        assert jac[-2][5] == pytest.approx(lam * 180.0 / math.pi)
        assert jac[-1][1] == pytest.approx(lam * 100.0)

    def test_on_axis_point_roll_insensitive(self, intrinsics):
        # a point on the optical axis does not move under roll
        from semloc.camera import project_point
        pose = CameraPose(0, 0, 0)
        p = np.array([15.0, 0.0, 0.0])
        uv = project_point(p, PoseTransform.of(pose), intrinsics)
        sel = PreselectedSet([], [PointLandmark(p, SIGN, 0.7, 0, 0)])
        det = DetectedPoint(uv + np.array([2.0, 1.0]), SIGN)
        corr = CorrespondenceSet([], [(0, 0)])
        jac = SolverObjective(ReprojectionObjective(
            sel, [], [det], corr, intrinsics, ResidualConfig(),
            None)).residual_and_jacobian(pose)[1]
        # neither pixel error row moves under roll
        assert jac[0][5] == pytest.approx(0.0, abs=1e-9)
        assert jac[1][5] == pytest.approx(0.0, abs=1e-9)

    def test_solver_objective_gradient(self, intrinsics):
        worst = {}
        for (n_lines, n_points), seed in product(SET_SHAPES, range(100)):
            sel, det_lines, det_points, corr, pose = toy_scene(
                intrinsics, n_lines=n_lines, n_points=n_points, seed=seed)
            obj = SolverObjective(ReprojectionObjective(
                sel, det_lines, det_points, corr, intrinsics,
                ResidualConfig(), 0.0))
            jac = obj.residual_and_jacobian(pose)[1]
            fd = self.finite_difference(obj, pose)
            rel = np.abs(jac - fd) / np.maximum(1.0, np.abs(fd))
            shape = (n_lines, n_points)
            worst[shape] = max(worst.get(shape, 0.0), float(rel.max()))
        assert max(worst.values()) < 1e-5, worst

    def test_solver_objective_shares_zero_set(self, intrinsics):
        sel, det_lines, det_points, corr, truth = toy_scene(
            intrinsics, seed=4, displace_detections=False)
        base = ReprojectionObjective(sel, det_lines, det_points, corr,
                                     intrinsics, ResidualConfig(), None)
        smooth = SolverObjective(base)
        # data rows vanish together at the rendering pose (soft rows are the
        # same small flat-ground terms in both)
        assert float(np.sum(base.residual(truth)[:-2] ** 2)) < 1e-12
        assert float(np.sum(solver_residual(smooth, truth)[:-2] ** 2)) < 1e-12
        off = CameraPose(truth.x + 0.5, truth.y, truth.z, truth.yaw,
                         truth.pitch, truth.roll)
        r = solver_residual(smooth, off)
        smooth_cost = float(r @ r)
        # costs bound each other within a factor of two on the line terms
        assert smooth_cost <= 2.0 * gate_cost(base, off) + 1e-9
        assert gate_cost(base, off) <= 2.0 * smooth_cost + 1e-9


class TestGateForm:
    """residual(pose) reduces what residual_and_jacobian(pose) projected,
    and keeps nothing for a pose it did not evaluate."""

    @staticmethod
    def counted(intrinsics, monkeypatch):
        sel, det_lines, det_points, corr, pose = toy_scene(intrinsics, seed=3)
        obj = ReprojectionObjective(sel, det_lines, det_points, corr,
                                    intrinsics, ResidualConfig(), 0.0)
        calls = {"kernel": 0, "rotation_derivatives": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(obj, "_kernel", counting("kernel", obj._kernel))
        monkeypatch.setattr(residual, "rotation_derivatives", counting(
            "rotation_derivatives", residual.rotation_derivatives))
        return obj, pose, calls

    def test_evaluated_pose_projects_nothing(self, intrinsics, monkeypatch):
        obj, pose, calls = self.counted(intrinsics, monkeypatch)
        obj.residual_and_jacobian(pose)
        calls["kernel"] = 0
        first = obj.residual(pose)
        assert obj.residual(pose) is first
        assert calls["kernel"] == 0
        assert np.array_equal(
            first, obj.residual(CameraPose.from_vector(pose.as_vector())))

    def test_unseen_pose_projects_once_and_keeps_nothing(self, intrinsics,
                                                         monkeypatch):
        obj, pose, calls = self.counted(intrinsics, monkeypatch)
        obj.residual_and_jacobian(pose)
        evaluated = dict(obj._evaluated)
        calls.update(kernel=0, rotation_derivatives=0)
        moved = CameraPose.from_vector(pose.as_vector() + 0.01)
        assert obj.residual(moved).shape == (obj.n_rows,)
        assert calls == {"kernel": 1, "rotation_derivatives": 0}
        assert obj._evaluated == evaluated

    def test_solver_objective_name_returns_its_argument(self, intrinsics):
        sel, det_lines, det_points, corr, _ = toy_scene(intrinsics, seed=3)
        obj = ReprojectionObjective(sel, det_lines, det_points, corr,
                                    intrinsics)
        assert SolverObjective(obj) is obj


class TestCorrespondenceSet:
    def test_validate_catches_bad_indices(self, intrinsics):
        sel, det_lines, det_points, corr, _ = toy_scene(intrinsics, seed=1)
        bad = CorrespondenceSet([(99, 0)], [])
        with pytest.raises(ValueError):
            bad.validate(sel, det_lines, det_points)
        bad = CorrespondenceSet([(0, 99)], [])
        with pytest.raises(ValueError):
            bad.validate(sel, det_lines, det_points)

    def test_validate_catches_duplicate_landmark(self, intrinsics):
        sel, det_lines, det_points, _, _ = toy_scene(intrinsics, seed=1)
        bad = CorrespondenceSet([(0, 0), (0, 1)], [])
        with pytest.raises(ValueError):
            bad.validate(sel, det_lines, det_points)

    def test_validate_catches_class_mismatch(self, intrinsics):
        sel, det_lines, det_points, _, _ = toy_scene(intrinsics, seed=1)
        sel.lines[0] = LineLandmark(sel.lines[0].p1, sel.lines[0].p2,
                                    SemanticClass.MILESTONE,
                                    sel.lines[0].size_m, 0, 999)
        bad = CorrespondenceSet([(0, 0)], [])
        with pytest.raises(ValueError):
            bad.validate(sel, det_lines, det_points)

    def test_detection_reuse_allowed(self, intrinsics):
        sel, det_lines, det_points, _, _ = toy_scene(intrinsics, seed=1)
        shared = CorrespondenceSet([(0, 0), (1, 0)], [])
        shared.validate(sel, det_lines, det_points)  # no exception
