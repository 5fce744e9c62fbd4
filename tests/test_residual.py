import math
from itertools import product

import numpy as np
import pytest

from conftest import perturbed
from semloc.camera import MIN_DEPTH_M, CameraPose, Intrinsics, PoseTransform
from semloc.features import DetectedLine, DetectedPoint
from semloc.mapmodel import (LineLandmark, PointLandmark, PreselectedSet,
                             SemanticClass)
from semloc.residual import (BEHIND_CAMERA_PENALTY_PX, CM_PER_M,
                             DEG_PER_RAD, HALF_SQRT2, LAMBDA_N,
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
        assert point_distance([3, 4], DetectedPoint([3, 4], SIGN).m.tolist()) \
            == 0.0

    def test_345(self):
        assert point_distance([0, 0], DetectedPoint([3, 4], SIGN).m.tolist()) \
            == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b = rng.uniform(0, 1000, 2), rng.uniform(0, 1000, 2)
            assert point_distance(a, DetectedPoint(b, SIGN).m.tolist()) == \
                pytest.approx(
                    point_distance(b, DetectedPoint(a, SIGN).m.tolist()))

    def test_float_form_equals_array_form(self):
        # point_distance runs on Python floats; each operation rounds as its
        # numpy elementwise counterpart does, so in the order
        # sqrt(ex^2 + ey^2) over (projection - detection) the results are
        # equal.
        rng = np.random.default_rng(30)
        scale = 10.0 ** rng.uniform(-3, 4, size=(5000, 1))
        proj, det = rng.normal(size=(2, 5000, 2)) * scale
        err = proj - det
        sq = err * err
        want = np.sqrt(sq[:, 0] + sq[:, 1])
        got = [point_distance(tuple(uv.tolist()),
                              DetectedPoint(m, SIGN).m.tolist())
               for uv, m in zip(proj, det)]
        assert got == want.tolist()


class TestSoftConstraint:
    def test_zero_at_flat_pose(self):
        config = ResidualConfig(camera_height_m=1.6)
        pose = CameraPose(0, 1.6, 0, 0.3, 0, 0)  # yaw is unconstrained
        terms = soft_constraint(pose, y_lane=0.0, config=config)
        assert np.allclose(terms, 0.0)

    def test_one_degree_pitch(self):
        config = ResidualConfig()
        pose = CameraPose(0, config.camera_height_m, 0, 0, math.radians(1.0), 0)
        terms = np.array(soft_constraint(pose, y_lane=0.0, config=config))
        assert float(terms @ terms) == pytest.approx(1.0)

    def test_height_in_centimeters(self):
        config = ResidualConfig(camera_height_m=1.6)
        pose = CameraPose(0, 1.7, 0)  # 0.1 m above the flat-ground height
        terms = np.array(soft_constraint(pose, y_lane=0.0, config=config))
        assert terms[2] == pytest.approx(10.0)
        assert float(terms @ terms) == pytest.approx(100.0)

    def test_missing_lane_drops_height_term(self):
        terms = soft_constraint(CameraPose(0, 5.0, 0), None, ResidualConfig())
        assert len(terms) == 2

    def test_nearest_lane_height(self):
        lanes = [
            LineLandmark([5, 0.2, 0], [20, 0.2, 0], LANE, 15.0, 0, 0),
            LineLandmark([5, 1.0, 9], [20, 1.0, 9], LANE, 15.0, 0, 1),
        ]
        assert nearest_lane_height(lanes, [0, 1.6, 0]) == pytest.approx(0.2)
        assert nearest_lane_height([], [0, 0, 0]) is None

    def test_nearest_lane_height_equals_per_point_norms(self):
        def one_norm_each(lines, position):
            """One np.linalg.norm per lane control point; the first of
            equal distances wins."""
            best, best_dist = None, math.inf
            for lm in lines:
                if lm.semantic is not LANE:
                    continue
                for cp in (lm.p1, lm.p2):
                    dist = float(np.linalg.norm(cp - np.asarray(position)))
                    if dist < best_dist:
                        best, best_dist = float(cp[1]), dist
            return best

        rng = np.random.default_rng(3)
        for _ in range(200):
            lines = [LineLandmark(*rng.uniform(-30, 30, (2, 3)),
                                  LANE if rng.random() < 0.7 else POLE,
                                  1.0, 0, i) for i in range(rng.integers(0, 5))]
            position = rng.uniform(-30, 30, 3)
            got = nearest_lane_height(lines, position)
            assert got == one_norm_each(lines, position)
        # equidistant control points: the first one wins
        tie = [LineLandmark([0, 2.6, 0], [9, 9, 9], LANE, 1.0, 0, 0),
               LineLandmark([0, 0.6, 0], [9, 9, 9], LANE, 1.0, 0, 1)]
        assert nearest_lane_height(tie, [0.0, 1.6, 0.0]) == 2.6


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
            want += point_distance(uv, det_points[d_idx].m.tolist()) ** 2
        soft = np.array(soft_constraint(pose, 0.0, config))
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
        vec, jac = obj.residual_and_jacobian(CameraPose(0, 1.6, 0))
        assert np.all(vec[:2] == BEHIND_CAMERA_PENALTY_PX * math.sqrt(0.5))
        assert np.all(jac[:2] == 0.0)

    def test_dropping_pair_never_increases_data_term(self, intrinsics):
        sel, det_lines, det_points, corr, pose = toy_scene(intrinsics, seed=5)
        config = ResidualConfig()
        soft = np.array(soft_constraint(pose, 0.0, config))
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
    """The split-form Jacobian, the package's only one."""

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
        jac = ReprojectionObjective(
            sel, det_lines, det_points, corr, intrinsics, config,
            0.0).residual_and_jacobian(pose)[1]
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
        jac = ReprojectionObjective(
            sel, [], [det], corr, intrinsics, ResidualConfig(),
            None).residual_and_jacobian(pose)[1]
        # neither pixel error row moves under roll
        assert jac[0][5] == pytest.approx(0.0, abs=1e-9)
        assert jac[1][5] == pytest.approx(0.0, abs=1e-9)

    def test_solver_objective_gradient(self, intrinsics):
        worst = {}
        for (n_lines, n_points), seed in product(SET_SHAPES, range(100)):
            sel, det_lines, det_points, corr, pose = toy_scene(
                intrinsics, n_lines=n_lines, n_points=n_points, seed=seed)
            obj = ReprojectionObjective(
                sel, det_lines, det_points, corr, intrinsics,
                ResidualConfig(), 0.0)
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
        # data rows vanish together at the rendering pose (soft rows are the
        # same small flat-ground terms in both)
        assert float(np.sum(base.residual(truth)[:-2] ** 2)) < 1e-12
        assert float(np.sum(solver_residual(base, truth)[:-2] ** 2)) < 1e-12
        off = CameraPose(truth.x + 0.5, truth.y, truth.z, truth.yaw,
                         truth.pitch, truth.roll)
        r = solver_residual(base, off)
        smooth_cost = float(r @ r)
        # costs bound each other within a factor of two on the line terms
        assert smooth_cost <= 2.0 * gate_cost(base, off) + 1e-9
        assert gate_cost(base, off) <= 2.0 * smooth_cost + 1e-9


class TestGateForm:
    """residual(pose) reduces what residual_and_jacobian(pose) projected
    last, and keeps nothing for any other pose."""

    @staticmethod
    def counted(intrinsics, monkeypatch):
        sel, det_lines, det_points, corr, pose = toy_scene(intrinsics, seed=3)
        obj = ReprojectionObjective(sel, det_lines, det_points, corr,
                                    intrinsics, ResidualConfig(), 0.0)
        calls = {"kernel": 0, "jacobian": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(obj, "_kernel", counting("kernel", obj._kernel))
        monkeypatch.setattr(obj, "_pixel_jacobian",
                            counting("jacobian", obj._pixel_jacobian))
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
        calls.update(kernel=0, jacobian=0)
        moved = CameraPose.from_vector(pose.as_vector() + 0.01)
        n_rows = obj.n_lines + obj.n_points + obj.n_soft
        assert obj.residual(moved).shape == (n_rows,)
        assert obj.residual(moved).shape == (n_rows,)
        assert calls == {"kernel": 2, "jacobian": 0}
        # The slot still holds the evaluated pose.
        obj.residual_and_jacobian(pose)
        assert calls == {"kernel": 2, "jacobian": 0}

    def test_slot_holds_the_latest_evaluation_only(self, intrinsics,
                                                   monkeypatch):
        obj, p, calls = self.counted(intrinsics, monkeypatch)
        q = CameraPose.from_vector(p.as_vector() + 0.01)
        r_first, jac_first = (a.tobytes() for a in obj.residual_and_jacobian(p))
        gate_p = obj.residual(p).tobytes()
        obj.residual_and_jacobian(q)
        # After Q the gate residual of P is projected afresh, to the same
        # bits as the stored path gave.
        assert obj.residual(p).tobytes() == gate_p
        assert calls["kernel"] == 3
        r_again, jac_again = obj.residual_and_jacobian(p)
        assert calls["kernel"] == 4
        assert r_again.tobytes() == r_first
        assert jac_again.tobytes() == jac_first

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


class ReferenceKernel:
    """The objective's projection and reductions as they stood before
    they were restructured for fewer numpy calls: one pass per call, no
    stored evaluations. The objective must reproduce every bit. The camera
    coordinates are ``project_point``'s product, stacked, and each angle's
    column of d(camera point)/d(pose) is its axis crossed with the camera
    point, all three in one product as in the objective.

    The pinhole's skew term, which the objective no longer has, is kept
    here with its products as ``skew``: a zero skew of either sign must
    leave every bit of the old formula."""

    def __init__(self, preselected, det_lines, det_points, corr, intrinsics,
                 config, y_lane, skew):
        self.intrinsics, self.config, self.y_lane = intrinsics, config, y_lane
        self.skew = skew
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
        frames = np.array(frames, dtype=float).reshape(-1, 5)
        self._line_anchor = frames[:, 0:2]
        self._line_dir = frames[:, 2:4]
        self._line_len = frames[:, 4] / 2.0
        self._det_pts = np.array(det_pts, dtype=float).reshape(-1, 2)
        self._line_grad = np.stack([-self._line_dir[:, 1], self._line_dir[:, 0]],
                                   axis=1) * (HALF_SQRT2 / self._line_len)[:, None]
        n_data_rows = 2 * self.n_lines + 2 * self.n_points
        self._jac_template = np.zeros((n_data_rows + self.n_soft, 6))
        self._jac_template[n_data_rows, 4] = LAMBDA_N * DEG_PER_RAD
        self._jac_template[n_data_rows + 1, 5] = LAMBDA_N * DEG_PER_RAD
        if y_lane is not None:
            self._jac_template[n_data_rows + 2, 1] = LAMBDA_N * CM_PER_M

    @property
    def n_rows(self):
        return self.n_lines + self.n_points + self.n_soft

    def _kernel(self, pose):
        rot = pose.rotation()
        rel = self._world - pose.position
        cam = np.matmul(rot, rel[:, :, np.newaxis])[:, :, 0]
        valid = cam[:, 2] > MIN_DEPTH_M
        zs = np.where(valid, cam[:, 2], 1.0)
        k = self.intrinsics
        uv = np.empty((cam.shape[0], 2))
        uv[:, 0] = k.fx * cam[:, 0] / zs + self.skew * cam[:, 1] / zs + k.cx
        uv[:, 1] = k.fy * cam[:, 1] / zs + k.cy
        nl = self.n_lines
        u = uv[:2 * nl].reshape(nl, 2, 2) - self._line_anchor[:, np.newaxis]
        a = self._line_dir.T[:, :, np.newaxis]
        b = u.transpose(2, 0, 1)
        cross = a[0] * b[1] - a[1] * b[0]
        err = uv[2 * nl:] - self._det_pts
        line_ok = valid[0:2 * nl:2] & valid[1:2 * nl:2]
        point_ok = valid[2 * nl:]
        return cross, err, line_ok, point_ok, (rot, cam, zs)

    def _soft_rows(self, pose):
        terms = [pose.pitch * DEG_PER_RAD, pose.roll * DEG_PER_RAD]
        if self.y_lane is not None:
            terms.append((pose.y - (self.y_lane + self.config.camera_height_m))
                         * CM_PER_M)
        return LAMBDA_N * np.array(terms)

    def residual(self, pose):
        cross, err, line_ok, point_ok, _ = self._kernel(pose)
        nl, npt = self.n_lines, self.n_points
        res = np.empty(self.n_rows)
        dl = (np.abs(cross[:, 0]) + np.abs(cross[:, 1])) / (2.0 * self._line_len)
        res[:nl] = np.where(line_ok, dl, BEHIND_CAMERA_PENALTY_PX)
        dp = np.linalg.norm(err, axis=1)
        res[nl:nl + npt] = np.where(point_ok, dp, BEHIND_CAMERA_PENALTY_PX)
        res[nl + npt:] = self._soft_rows(pose)
        return res

    def _pixel_jacobian(self, pose, rot, cam, zs):
        n = cam.shape[0]
        dcam = np.empty((n, 3, 6))
        dcam[:, :, 0:3] = -rot[np.newaxis, :, :]
        # Turning axes of yaw, pitch and roll in the camera frame.
        cr, sr = math.cos(pose.roll), math.sin(pose.roll)
        axes = [rot[:, 1].tolist(), [cr, sr, 0.0], [0.0, 0.0, 1.0]]
        # a x c is a's cross-product matrix times c; stacked [angle k, i, j]
        cross_matrices = np.array([[[0.0, -a[2], a[1]],
                                    [a[2], 0.0, -a[0]],
                                    [-a[1], a[0], 0.0]] for a in axes])
        # column k of dcam[n, i, 3:6] = sum_j cam[n, j] cross_matrices[k, i, j]
        by_row = cross_matrices.transpose(2, 1, 0).reshape(3, 9)
        dcam[:, :, 3:6] = (cam @ by_row).reshape(n, 3, 3)
        k = self.intrinsics
        inv_z = 1.0 / zs
        duv_dcam = np.zeros((n, 2, 3))
        duv_dcam[:, 0, 0] = k.fx * inv_z
        duv_dcam[:, 0, 1] = self.skew * inv_z
        duv_dcam[:, 0, 2] = -(k.fx * cam[:, 0] + self.skew * cam[:, 1]) * inv_z ** 2
        duv_dcam[:, 1, 1] = k.fy * inv_z
        duv_dcam[:, 1, 2] = -k.fy * cam[:, 1] * inv_z ** 2
        return np.einsum("nij,njk->nik", duv_dcam, dcam)

    def residual_and_jacobian(self, pose):
        cross, err, line_ok, point_ok, geometry = self._kernel(pose)
        all_ok = line_ok.all() and point_ok.all()
        nl = self.n_lines
        n_line_rows = 2 * nl
        n_data_rows = n_line_rows + 2 * self.n_points
        res = np.empty(n_data_rows + self.n_soft)
        line_res = HALF_SQRT2 * (cross / self._line_len[:, None])
        point_res = err
        if not all_ok:
            line_res = np.where(line_ok[:, None], line_res,
                                BEHIND_CAMERA_PENALTY_PX)
            point_res = np.where(point_ok[:, None], err,
                                 BEHIND_CAMERA_PENALTY_PX * HALF_SQRT2)
        res[:n_line_rows] = line_res.ravel()
        res[n_line_rows:n_data_rows] = point_res.ravel()
        res[n_data_rows:] = self._soft_rows(pose)
        duv = self._pixel_jacobian(pose, *geometry)
        jac = self._jac_template.copy()
        rows = np.einsum("ni,nkij->nkj", self._line_grad,
                         duv[:n_line_rows].reshape(nl, 2, 2, 6))
        point_rows = duv[n_line_rows:]
        if not all_ok:
            rows = np.where(line_ok[:, None, None], rows, 0.0)
            point_rows = np.where(point_ok[:, None, None], point_rows, 0.0)
        jac[:n_line_rows] = rows.reshape(-1, 6)
        jac[n_line_rows:n_data_rows] = point_rows.reshape(-1, 6)
        return res, jac


def same_bits(a, b):
    """Equal shape and equal bytes: stricter than np.array_equal, which
    takes -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


class TestBitIdenticalToReference:
    """The objective returns the very bits of ``ReferenceKernel``: the same
    floating-point operations in the same order, on every path."""

    # (line pairs, point pairs, lane height) of the four objective kinds
    KINDS = {"lines only": (3, 0, None), "points only": (0, 2, 0.25),
             "with lane height": (3, 2, 0.25), "without lane height": (3, 2, None)}
    # At this pose the near landmark's first control point, and only it,
    # is behind the camera.
    BEHIND = CameraPose(6.0, 1.6, 0.0)

    def scene(self, intrinsics, kind, seed, skew):
        n_lines, n_points, y_lane = self.KINDS[kind]
        sel, det_lines, det_points, corr, truth = toy_scene(
            intrinsics, n_lines=n_lines, n_points=n_points, seed=seed)
        # A landmark starting at x = 5: a lane along the road, or a point.
        if n_lines:
            sel.lines.append(LineLandmark([5, 0.5, -2], [20, 0.5, -2], LANE,
                                          15.0, 0, 50))
            det_lines.append(det_line([520.0, 330.0], [580.0, 250.0], LANE))
            corr.line_pairs.append((n_lines, len(det_lines) - 1))
        else:
            sel.points.append(PointLandmark([5.0, 2.0, 1.0], SIGN, 0.7, 0, 51))
            det_points.append(DetectedPoint([640.0, 150.0], SIGN))
            corr.point_pairs.append((n_points, len(det_points) - 1))
        args = (sel, det_lines, det_points, corr, intrinsics,
                ResidualConfig(), y_lane)
        return (ReprojectionObjective(*args), ReferenceKernel(*args, skew),
                truth)

    # The reference's skew: a K record may write it as 0 or as -0.
    @pytest.mark.parametrize("skew", [0.0, -0.0])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_residual_and_jacobian_bits(self, kind, skew):
        intrinsics = Intrinsics(fx=700.0, fy=690.0, cx=600.0, cy=180.0)
        rng = np.random.default_rng(7)
        for seed in range(4):
            objective, reference, truth = self.scene(intrinsics, kind, seed,
                                                     skew)
            poses = [perturbed(truth, rng, 1.0, 0.1) for _ in range(10)]
            poses.append(self.BEHIND)
            for pose in poses:
                depths = reference._kernel(pose)[4][1][:, 2]
                assert np.sum(depths <= MIN_DEPTH_M) == (pose is self.BEHIND)
                r, jac = objective.residual_and_jacobian(pose)
                want_r, want_jac = reference.residual_and_jacobian(pose)
                assert same_bits(r, want_r)
                assert same_bits(jac, want_jac)
                # the gate form, reduced from the stored evaluation ...
                want_gate = reference.residual(pose)
                assert same_bits(objective.residual(pose), want_gate)
                # ... and projected afresh for a pose object not evaluated
                unseen = CameraPose(pose.x, pose.y, pose.z, pose.yaw,
                                    pose.pitch, pose.roll)
                assert same_bits(objective.residual(unseen), want_gate)
