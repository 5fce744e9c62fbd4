import math

import numpy as np
import pytest

from semloc.camera import (AXIS_SWAP, CameraPose, Intrinsics, PoseTransform,
                           angles_from_rotation, parse_intrinsics,
                           project_line, project_point, rotation_from_angles,
                           serialize_intrinsics, wrap_angle)
from semloc.mapmodel import LineLandmark, SemanticClass


def elementary_composition(yaw, pitch, roll):
    """Scratch oracle: multiply the elementary matrices explicitly."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    r_yaw = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    r_pitch = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    r_roll = np.array([[cr, -sr, 0], [sr, cr, 0], [0, 0, 1]])
    return r_roll @ r_pitch @ AXIS_SWAP @ r_yaw


def map_point_for_camera_frame(p_cam):
    # zero pose: camera frame = AXIS_SWAP applied to map frame
    return AXIS_SWAP.T @ np.asarray(p_cam, dtype=float)


class TestRotation:
    def test_zero_angles_is_axis_swap(self):
        assert np.allclose(rotation_from_angles(0, 0, 0), AXIS_SWAP)

    def test_quarter_yaw_orthonormal(self):
        r = rotation_from_angles(math.pi / 2, 0, 0)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)
        # camera optical axis (third row) now points along map +Z
        assert np.allclose(r[2], [0, 0, 1], atol=1e-12)

    def test_matches_elementary_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            yaw, pitch, roll = rng.uniform(-math.pi, math.pi, 3)
            got = rotation_from_angles(yaw, pitch, roll)
            want = elementary_composition(yaw, pitch, roll)
            assert np.allclose(got, want, atol=1e-12)
            assert np.allclose(got @ got.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(got) == pytest.approx(1.0)

    def test_angle_roundtrip_gimbal_safe(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            yaw = rng.uniform(-math.pi, math.pi)
            pitch = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
            roll = rng.uniform(-math.pi, math.pi)
            got = angles_from_rotation(rotation_from_angles(yaw, pitch, roll))
            assert got[0] == pytest.approx(yaw, abs=1e-12)
            assert got[1] == pytest.approx(pitch, abs=1e-12)
            assert got[2] == pytest.approx(roll, abs=1e-12)


class TestPose:
    def test_angles_normalized(self):
        pose = CameraPose(0, 0, 0, yaw=3 * math.pi, pitch=-3 * math.pi, roll=0.5)
        assert pose.yaw == pytest.approx(math.pi)
        assert pose.pitch == pytest.approx(math.pi)
        assert pose.roll == pytest.approx(0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CameraPose(math.nan, 0, 0)

    def test_vector_roundtrip(self):
        pose = CameraPose(1, 2, 3, 0.1, -0.2, 0.3)
        assert np.allclose(CameraPose.from_vector(pose.as_vector()).as_vector(),
                           pose.as_vector())
        # The fields are the entries as Python floats. Angles past a half
        # turn and within an ulp of an odd multiple of pi wrap as the
        # vector's numpy entries always did.
        vectors = [[1.5, -2.25, 3.0, 0.1, -0.2, 0.3],
                   [0.0, -0.0, 1e-300, 3 * math.pi, -3 * math.pi, 7.5],
                   [2.0, 1.6, -4.0, math.nextafter(math.pi, 4.0),
                    math.nextafter(-math.pi, -4.0), -9.0]]
        for vec in vectors:
            v = np.array(vec)
            pose = CameraPose.from_vector(v)
            fields = (pose.x, pose.y, pose.z, pose.yaw, pose.pitch, pose.roll)
            assert all(type(f) is float for f in fields)
            want = [*v[:3], *(wrap_angle(a) for a in v[3:])]
            assert np.array(fields).tobytes() == np.array(want).tobytes()

    def test_wrap_angle_range(self):
        # Within a few ulps of an odd multiple of pi the modulo can round
        # up to a whole turn; the result must still land in (-pi, pi] and
        # wrap to itself.
        edges = [edge
                 for centre in (math.pi, 3 * math.pi, 5 * math.pi)
                 for sign in (1.0, -1.0)
                 for edge in _ulp_neighbours(sign * centre, 8)]
        for a in [*np.linspace(-20, 20, 400).tolist(), *edges]:
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert wrap_angle(w) == w
            assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
            assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)
        assert wrap_angle(math.nextafter(math.pi, 4.0)) == math.pi


def _ulp_neighbours(x, n):
    """x and the n floats on each side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


# The zero pose's view.
ORIGIN = PoseTransform.of(CameraPose(0, 0, 0))


class TestProjection:
    def test_principal_point(self, intrinsics):
        uv = project_point(map_point_for_camera_frame([0, 0, 10]), ORIGIN,
                           intrinsics)
        assert np.allclose(uv, [600, 180])

    def test_unit_offset(self, intrinsics):
        uv = project_point(map_point_for_camera_frame([1, 0, 10]), ORIGIN,
                           intrinsics)
        assert np.allclose(uv, [670, 180])

    def test_cheirality_guard(self, intrinsics):
        assert project_point(map_point_for_camera_frame([0, 0, 0.05]), ORIGIN,
                             intrinsics) is None

    def test_vertical_pole_height(self, intrinsics):
        lm = LineLandmark(map_point_for_camera_frame([0, -1, 5]),
                          map_point_for_camera_frame([0, 1, 5]),
                          SemanticClass.POLE_LIKE, 2.0, 0, 0)
        u1x, u1y, u2x, u2y = project_line(lm, ORIGIN, intrinsics)
        assert u1x == pytest.approx(600)
        assert u2x == pytest.approx(600)
        length = abs(u2y - u1y)
        assert length == pytest.approx(2 * intrinsics.fy / 5)

    def test_line_behind_camera(self, intrinsics):
        lm = LineLandmark([5, 0, 0], [-5, 1, 0], SemanticClass.POLE_LIKE,
                          10.0, 0, 0)
        assert project_line(lm, ORIGIN, intrinsics) is None

    def test_line_matches_pointwise_projection(self, intrinsics):
        rng = np.random.default_rng(3)
        view = PoseTransform.of(CameraPose(0.5, 1.2, -0.3, 0.2, -0.05, 0.04))
        for _ in range(50):
            p1 = np.array([rng.uniform(5, 40), rng.uniform(-2, 5), rng.uniform(-8, 8)])
            p2 = p1 + rng.uniform(-1, 1, 3)
            if np.linalg.norm(p2 - p1) < 1e-3:
                continue
            lm = LineLandmark(p1, p2, SemanticClass.POLE_LIKE,
                              float(np.linalg.norm(p2 - p1)), 0, 0)
            proj = project_line(lm, view, intrinsics)
            assert proj is not None
            assert np.allclose(proj[:2], project_point(p1, view, intrinsics))
            assert np.allclose(proj[2:], project_point(p2, view, intrinsics))

    def test_point_is_two_python_floats(self, intrinsics):
        uv = project_point(map_point_for_camera_frame([1, -2, 10]), ORIGIN,
                           intrinsics)
        assert type(uv) is tuple and len(uv) == 2
        assert all(type(v) is float for v in uv)

    def test_line_is_its_two_points(self, intrinsics):
        view = PoseTransform.of(CameraPose(0.5, 1.2, -0.3, 0.2, -0.05, 0.04))
        near, far, behind = [9.0, -1.1, -2.0], [30.0, 2.5, 4.0], [-12.0, 1.0, 0.5]
        assert project_point(behind, view, intrinsics) is None
        for p1, p2 in ((near, far), (far, near), (near, behind),
                       (behind, near)):
            lm = LineLandmark(p1, p2, SemanticClass.POLE_LIKE, 1.0, 0, 0)
            uv1, uv2 = (project_point(p, view, intrinsics) for p in (p1, p2))
            proj = project_line(lm, view, intrinsics)
            if uv1 is None or uv2 is None:
                assert proj is None
            else:
                assert np.array(proj).tobytes() == \
                    np.array((*uv1, *uv2)).tobytes()

    def test_pose_transform_gives_identical_pixels(self, intrinsics):
        # One view serves many projections, and a line's float pixels are
        # its control points' array pixels bit for bit.
        rng = np.random.default_rng(17)
        for _ in range(200):
            pose = CameraPose(*rng.uniform(-3, 3, 3), *rng.uniform(-0.4, 0.4, 3))
            view = PoseTransform.of(pose)
            p1 = pose.position + rng.uniform(-20, 20, 3)
            p2 = p1 + rng.uniform(-2, 2, 3)
            lm = LineLandmark(p1, p2, SemanticClass.POLE_LIKE,
                              float(np.linalg.norm(p2 - p1)), 0, 0)
            uv1, uv2 = (project_point(p, view, intrinsics) for p in (p1, p2))
            fresh = project_point(p1, PoseTransform.of(pose), intrinsics)
            assert (uv1 is None) == (fresh is None)
            if uv1 is not None:
                assert np.array(uv1).tobytes() == np.array(fresh).tobytes()
            proj = project_line(lm, view, intrinsics)
            if uv1 is None or uv2 is None:
                assert proj is None
            else:
                assert all(type(v) is float for v in proj)
                assert np.array(proj).tobytes() == \
                    np.concatenate([uv1, uv2]).tobytes()

    def test_rigid_invariance(self, intrinsics):
        # moving the world and the camera together leaves pixels unchanged
        rng = np.random.default_rng(9)
        pose = CameraPose(1.0, 1.5, 0.2, 0.3, 0.1, -0.2)
        r_g = elementary_composition(0.4, 0.1, -0.3).T  # some rigid rotation
        t_g = np.array([3.0, -1.0, 2.0])
        rot_new = pose.rotation() @ r_g.T
        yaw, pitch, roll = angles_from_rotation(rot_new)
        c_new = r_g @ pose.position + t_g
        view = PoseTransform.of(pose)
        view_new = PoseTransform.of(CameraPose(*c_new, yaw, pitch, roll))
        for _ in range(30):
            p = np.array([rng.uniform(5, 30), rng.uniform(-2, 4), rng.uniform(-6, 6)])
            before = project_point(p, view, intrinsics)
            after = project_point(r_g @ p + t_g, view_new, intrinsics)
            assert np.allclose(before, after, atol=1e-8)

    def test_collinearity_preserved(self, intrinsics):
        rng = np.random.default_rng(21)
        view = PoseTransform.of(CameraPose(0, 1.6, 0, 0.1, -0.02, 0.03))
        for _ in range(50):
            a = np.array([rng.uniform(6, 30), rng.uniform(-1, 4), rng.uniform(-6, 6)])
            d = rng.uniform(-1, 1, 3)
            pts = [a, a + 0.3 * d, a + 0.8 * d]
            uvs = [project_point(p, view, intrinsics) for p in pts]
            if any(uv is None for uv in uvs):
                continue
            v1 = np.subtract(uvs[1], uvs[0])
            v2 = np.subtract(uvs[2], uvs[0])
            cross = abs(v1[0] * v2[1] - v1[1] * v2[0])
            scale = max(1.0, np.linalg.norm(v1) * np.linalg.norm(v2))
            assert cross / scale < 1e-6


class TestIntrinsicsIO:
    def test_roundtrip(self, intrinsics):
        text = serialize_intrinsics(intrinsics)
        back = parse_intrinsics(text)
        assert back == intrinsics

    def test_skew_field_is_zero(self, intrinsics):
        # The pinhole has no skew term: the K record writes its fifth field
        # as 0, and reads 0 of either sign as the same camera.
        assert serialize_intrinsics(intrinsics).split()[5] == "0.000000"
        want = Intrinsics(700.0, 700.0, 613.0, 185.0, 1226, 370)
        for skew in ("0", "-0", "0.000000", "-0.0"):
            text = f"K 700 700 613 185 {skew} 1226 370\n"
            assert parse_intrinsics(text) == want

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_intrinsics("K 1 2 3\n")
        with pytest.raises(ValueError):
            parse_intrinsics("# only comments\n")

    @pytest.mark.parametrize("text", [
        "K 700 700 613 185 0 1226 370\ngarbage\n",
        "K 700 700 613 185 0 1226 370\nK 700 700 613 185 0 1226 370\n",
    ])
    def test_rejects_records_after_the_first(self, text):
        with pytest.raises(ValueError, match="^intrinsics line 2: "):
            parse_intrinsics(text)

    @pytest.mark.parametrize("text, reason", [
        ("K 700 abc 613 185 0 1226 370\n", "could not convert"),
        ("K 700 700 613 185 0 1226.0 370\n", "invalid literal for int"),
        ("K -700 700 613 185 0 1226 370\n", "focal lengths must be positive"),
        ("K 700 700 613 185 1.5 1226 370\n", "skew must be 0"),
    ])
    def test_bad_record_names_its_line(self, text, reason):
        with pytest.raises(ValueError, match=f"^intrinsics line 1: {reason}"):
            parse_intrinsics(text)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=-1, fy=700, cx=0, cy=0, width=10, height=10)

    @pytest.mark.parametrize("text", [
        "K nan 700 613 185 0 1226 370\n",
        "K 700 nan 613 185 0 1226 370\n",
        "K 700 700 inf 185 0 1226 370\n",
        "K 700 700 613 -inf 0 1226 370\n",
        "K 700 700 613 185 nan 1226 370\n",
    ])
    def test_rejects_non_finite(self, text):
        # NaN passes the focal-length sign check, and an infinite principal
        # point puts every projection off the image.
        with pytest.raises(ValueError, match="non-finite intrinsics"):
            parse_intrinsics(text)
