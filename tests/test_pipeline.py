import dataclasses
import math

import numpy as np
import pytest

from semloc.camera import CameraPose
from semloc.features import DetectedLine, DetectedPoint
from semloc.mapmodel import SemanticClass
from semloc.pipeline import (FrameInput, FrameStatus, InsufficientBootstrap,
                             TrajectoryResult, evaluate, parse_detections,
                             parse_ground_truth, parse_result, predict_pose,
                             run_sequence, serialize_detections,
                             serialize_ground_truth, serialize_result)
from semloc.synthworld import generate_world, render_frames

from conftest import paper_scale_world


class TestPredictPose:
    def test_zero_velocity(self):
        p = CameraPose(3, 1.6, -0.5, 0.2, 0.01, -0.02)
        out = predict_pose(p, p)
        assert np.allclose(out.as_vector(), p.as_vector())

    def test_linear_extrapolation(self):
        prev2 = CameraPose(0, 0, 0)
        prev = CameraPose(1, 0, 0)
        assert predict_pose(prev, prev2).x == pytest.approx(2.0)

    def test_shortest_arc_wrap(self):
        prev2 = CameraPose(0, 0, 0, yaw=math.radians(179))
        prev = CameraPose(0, 0, 0, yaw=math.radians(-179))
        out = predict_pose(prev, prev2)
        assert out.yaw == pytest.approx(math.radians(-177), abs=1e-9)


def run_noiseless(seed=0, n_frames=20, blank=(), cfg_overrides=()):
    cfg = paper_scale_world(seed, **dict(cfg_overrides))
    semantic_map, trajectory = generate_world(cfg)
    trajectory = trajectory[:n_frames]
    rendered = render_frames(semantic_map, trajectory, cfg)
    frames = []
    for k, r in enumerate(rendered):
        if k in blank:
            frames.append(FrameInput(k, [], [], cfg.road_index))
        else:
            frames.append(r.frame)
    result = run_sequence(semantic_map, frames, [trajectory[0], trajectory[1]],
                          cfg.intrinsics)
    return trajectory, result


class TestRunSequence:
    def test_noiseless_corridor(self):
        trajectory, result = run_noiseless(seed=0, n_frames=20)
        statuses = [r.status for r in result.records]
        assert statuses[:2] == [FrameStatus.BOOTSTRAPPED] * 2
        assert all(s is FrameStatus.LOCALIZED for s in statuses[2:])
        assert result.count(FrameStatus.LOCALIZED) == 18
        errs = [np.linalg.norm(rec.pose.position - trajectory[k].position)
                for k, rec in enumerate(result.records)]
        assert math.sqrt(np.mean(np.square(errs))) < 1e-3

    def test_noiseless_curved_corridor(self):
        # Map and renderer share one lane chord, so a curved road
        # localizes as exactly as a straight one.
        trajectory, result = run_noiseless(
            seed=0, n_frames=None, cfg_overrides={"curve_amplitude_m": 3.0})
        assert result.count(FrameStatus.LOCALIZED) == len(trajectory) - 2
        errs = [np.linalg.norm(rec.pose.position - trajectory[k].position)
                for k, rec in enumerate(result.records)]
        assert math.sqrt(np.mean(np.square(errs))) < 1e-3

    def test_dropout_frames_coast_and_recover(self):
        trajectory, result = run_noiseless(seed=1, n_frames=14, blank={8, 9})
        statuses = [r.status for r in result.records]
        assert statuses[8] is FrameStatus.COASTED
        assert statuses[9] is FrameStatus.COASTED
        assert statuses[10] is FrameStatus.LOCALIZED
        err10 = np.linalg.norm(result.records[10].pose.position
                               - trajectory[10].position)
        assert err10 < 1e-3

    def test_no_frames_after_bootstrap(self):
        cfg = paper_scale_world(2)
        semantic_map, trajectory = generate_world(cfg)
        frames = [FrameInput(0), FrameInput(1)]
        result = run_sequence(semantic_map, frames,
                              [trajectory[0], trajectory[1]], cfg.intrinsics)
        assert [r.status for r in result.records] == \
            [FrameStatus.BOOTSTRAPPED] * 2

    def test_requires_two_bootstrap_poses(self):
        cfg = paper_scale_world(3)
        semantic_map, trajectory = generate_world(cfg)
        with pytest.raises(InsufficientBootstrap):
            run_sequence(semantic_map, [], [trajectory[0]], cfg.intrinsics)

    def test_rerun_identical(self):
        _, a = run_noiseless(seed=4, n_frames=10)
        _, b = run_noiseless(seed=4, n_frames=10)
        assert serialize_result(a) == serialize_result(b)


class TestNoFarOffAccept:
    """A frame localizes near the truth or coasts. In these two noiseless,
    straight, one-side worlds with 20 % dropout a frame is accepted metres
    off instead (ROADMAP item 1): seed 0 at frame 84, on 4 refined pairs,
    26.06 m off, and seed 1 at frame 3, 19.09 m off. They are known
    failures until association is fail-safe, which removes the marker."""

    @pytest.mark.xfail(strict=True, reason="association accepts a pose "
                       "metres off the truth (ROADMAP item 1)")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_localized_frame_more_than_5m_off(self, seed):
        cfg = paper_scale_world(seed, dropout_rate=0.2)
        semantic_map, trajectory = generate_world(cfg)
        frames = [r.frame for r in render_frames(semantic_map, trajectory, cfg)]
        result = run_sequence(semantic_map, frames, trajectory[:2],
                              cfg.intrinsics)
        far_off = []
        for rec in result.records:
            err = float(np.linalg.norm(
                rec.pose.position - trajectory[rec.frame_id].position))
            if rec.status is FrameStatus.LOCALIZED and err > 5.0:
                far_off.append((rec.frame_id, rec.n_corr, round(err, 2)))
        assert far_off == []


class TestEvaluate:
    def make_result(self, poses, status=FrameStatus.LOCALIZED):
        result = TrajectoryResult()
        from semloc.pipeline import FrameRecord
        for k, p in enumerate(poses):
            result.records.append(FrameRecord(k, status, p, 0.0, 5))
        return result

    def test_perfect_track_zeros(self):
        poses = [CameraPose(k * 1.4, 1.6, 0.0, 0.01 * k, 0, 0) for k in range(8)]
        truth = dict(enumerate(poses))
        summary = evaluate(self.make_result(poses), truth)
        assert summary.rms_position_m == 0.0
        assert summary.max_angle_rad == 0.0
        assert summary.fraction_below_half_meter == 1.0

    def test_constant_lateral_offset(self):
        truth_poses = [CameraPose(k * 1.4, 1.6, 0.0) for k in range(10)]
        # camera right axis at zero yaw is map +Z
        est = [CameraPose(p.x, p.y, p.z + 0.3) for p in truth_poses]
        summary = evaluate(self.make_result(est), dict(enumerate(truth_poses)))
        assert summary.rms_position_m == pytest.approx(0.3)
        assert summary.rms_lateral_m == pytest.approx(0.3)
        assert summary.rms_longitudinal_m == pytest.approx(0.0, abs=1e-12)
        assert summary.rms_vertical_m == pytest.approx(0.0, abs=1e-12)
        assert summary.fraction_below_half_meter == 1.0

    def test_mixed_errors_match_direct_recomputation(self):
        rng = np.random.default_rng(5)
        truth_poses = {}
        est_poses = []
        sq = []
        for k in range(40):
            t = CameraPose(k * 1.4, 1.6, 0.0, rng.uniform(-0.3, 0.3),
                           rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
            delta = rng.normal(0, 0.2, 3)
            e = CameraPose(t.x + delta[0], t.y + delta[1], t.z + delta[2],
                           t.yaw, t.pitch, t.roll)
            truth_poses[k] = t
            est_poses.append(e)
            sq.append(float(delta @ delta))
        summary = evaluate(self.make_result(est_poses), truth_poses)
        assert summary.rms_position_m == pytest.approx(
            math.sqrt(np.mean(sq)), rel=1e-9)
        assert summary.max_position_m == pytest.approx(
            math.sqrt(max(sq)), rel=1e-9)

    def test_axis_decomposition_sums_to_total(self):
        rng = np.random.default_rng(6)
        truth_poses = {}
        est_poses = []
        for k in range(25):
            t = CameraPose(k * 1.4, 1.6, 0.1 * k, rng.uniform(-0.5, 0.5),
                           rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            truth_poses[k] = t
            d = rng.normal(0, 0.3, 3)
            est_poses.append(CameraPose(t.x + d[0], t.y + d[1], t.z + d[2],
                                        t.yaw, t.pitch, t.roll))
        summary = evaluate(self.make_result(est_poses), truth_poses)
        total = summary.rms_position_m ** 2
        parts = (summary.rms_lateral_m ** 2 + summary.rms_vertical_m ** 2 +
                 summary.rms_longitudinal_m ** 2)
        assert parts == pytest.approx(total, rel=1e-9)

    def test_geodesic_angle_error(self):
        t = CameraPose(0, 0, 0)
        e = CameraPose(0, 0, 0, yaw=0.25)
        summary = evaluate(self.make_result([e]), {0: t})
        assert summary.mean_angle_rad == pytest.approx(0.25, abs=1e-9)

    def test_missing_ground_truth_frame(self):
        with pytest.raises(ValueError):
            evaluate(self.make_result([CameraPose(0, 0, 0)]), {})


class TestFileFormats:
    def make_frames(self):
        f0 = FrameInput(0, road_index=1)
        f0.det_lines.append(DetectedLine([1.5, 2.5], [3.5, 4.5],
                                         SemanticClass.POLE_LIKE))
        f0.det_points.append(DetectedPoint([10.25, 20.75],
                                           SemanticClass.TRAFFIC_SIGN))
        f1 = FrameInput(2, road_index=1)
        f1.det_lines.append(DetectedLine([5, 6], [7, 8],
                                         SemanticClass.LANE_LINE))
        return [f0, f1]

    def test_detections_roundtrip(self):
        text = serialize_detections(self.make_frames())
        back = parse_detections(text)
        assert [f.frame_id for f in back] == [0, 2]
        assert back[0].road_index == 1
        assert np.allclose(back[0].det_lines[0].m1, [1.5, 2.5])
        assert back[0].det_points[0].semantic is SemanticClass.TRAFFIC_SIGN
        assert back[1].det_lines[0].semantic is SemanticClass.LANE_LINE
        assert serialize_detections(back) == text

    def test_rendered_detections_keep_every_field(self):
        # A detection field the file has no column for comes back as its
        # default, so every field of every rendered detection, outliers
        # included, must survive a write and a read.
        cfg = paper_scale_world(5, pixel_noise_sigma=1.0, outlier_rate=0.2,
                                dropout_rate=0.1)
        semantic_map, trajectory = generate_world(cfg)
        frames = [rendered.frame for rendered in
                  render_frames(semantic_map, trajectory, cfg)]
        back = parse_detections(serialize_detections(frames))
        assert len(back) == len(frames)
        compared = 0
        for got_frame, frame in zip(back, frames):
            assert got_frame.frame_id == frame.frame_id
            assert got_frame.road_index == frame.road_index
            for got_dets, dets in ((got_frame.det_lines, frame.det_lines),
                                   (got_frame.det_points, frame.det_points)):
                assert len(got_dets) == len(dets)
                for got, det in zip(got_dets, dets):
                    for f in dataclasses.fields(det):
                        value = getattr(got, f.name)
                        want = getattr(det, f.name)
                        if isinstance(want, np.ndarray):
                            np.testing.assert_allclose(value, want, rtol=0,
                                                       atol=1e-6)
                        else:
                            assert value == want, f.name
                        compared += 1
        assert compared > 1000

    def test_detections_require_increasing_ids(self):
        text = "F 3 0\nF 1 0\n"
        with pytest.raises(ValueError):
            parse_detections(text)

    @pytest.mark.parametrize("text, line_no", [
        ("F 3 0\nF 5 0\nF 4 0\n", 3), ("F 3 0\nF 1 0\n", 2),
        ("F 3 0\nDP SIGN 1 2\n\nF 3 0\nDP SIGN 1 x\n", 4)])
    def test_unordered_frame_names_its_line(self, text, line_no):
        with pytest.raises(ValueError, match=rf"^detections line {line_no}: "
                                             rf"frame ids must be strictly "
                                             rf"increasing"):
            parse_detections(text)

    def test_detection_record_before_frame(self):
        with pytest.raises(ValueError):
            parse_detections("DL POLE 1 2 3 4\n")

    @pytest.mark.parametrize("record", [
        "F 2 0 7", "F 2", "DL POLE 1 2 3 4 99", "DL POLE 1 2 3",
        "DP SIGN 5 6 extra", "DP SIGN 5"])
    def test_detection_record_field_count(self, record):
        text = f"F 0 0\nDP SIGN 1 2\n{record}\n"
        with pytest.raises(ValueError, match=r"^detections line 3: "):
            parse_detections(text)

    @pytest.mark.parametrize("record", [
        "DL POLE nan 1 2 3", "DL LANE inf 0 1 1", "DL POLE 1 2 3 -inf",
        "DL LANE inf 0 inf 0"])
    def test_non_finite_detected_line(self, record):
        text = f"F 0 0\nDP SIGN 1 2\n{record}\n"
        with pytest.raises(ValueError,
                           match=r"^detections line 3: .*finite"):
            parse_detections(text)

    @pytest.mark.parametrize("record, shape", [
        ("DL SIGN 1 2 3 4", "line"), ("DP LANE 1 2", "point"),
        ("DP POLE 1 2", "point"), ("DP MILESTONE 1 2", "point")])
    def test_wrong_shape_detection(self, record, shape):
        text = f"F 0 0\nDL POLE 1 2 3 4\n{record}\n"
        with pytest.raises(ValueError, match=rf"^detections line 3: "
                                             rf".*not a {shape}-shaped class"):
            parse_detections(text)

    def test_ground_truth_roundtrip(self):
        poses = {0: CameraPose(1, 2, 3, 0.1, -0.2, 0.3),
                 5: CameraPose(-1, 0.5, 2, 1.0, 0.0, -1.0)}
        text = serialize_ground_truth(poses)
        back = parse_ground_truth(text)
        assert set(back) == {0, 5}
        assert np.allclose(back[0].as_vector(), poses[0].as_vector())
        assert np.allclose(back[5].as_vector(), poses[5].as_vector())

    def test_ground_truth_malformed(self):
        with pytest.raises(ValueError):
            parse_ground_truth("GT 0 1 2 3\n")

    def test_ground_truth_rejects_repeated_frame(self):
        text = "GT 1 1 0 0 0 0 0\nGT 2 2 0 0 0 0 0\nGT 1 5 0 0 0 0 0\n"
        with pytest.raises(ValueError,
                           match="^ground truth line 3: frame 1 repeated"):
            parse_ground_truth(text)

    def test_result_roundtrip(self):
        from semloc.pipeline import FrameRecord
        result = TrajectoryResult()
        result.records.append(FrameRecord(
            0, FrameStatus.BOOTSTRAPPED, CameraPose(0, 1.6, 0)))
        result.records.append(FrameRecord(
            2, FrameStatus.LOCALIZED, CameraPose(2.8, 1.6, 0.001, 0.01, 0, 0),
            1.25, 7))
        text = serialize_result(result)
        back = parse_result(text)
        assert [r.frame_id for r in back.records] == [0, 2]
        assert back.records[1].status is FrameStatus.LOCALIZED
        assert back.records[1].n_corr == 7
        assert back.records[1].sqrt_cost == pytest.approx(1.25)
        assert math.isnan(back.records[0].sqrt_cost)
        assert serialize_result(back) == text

    def test_result_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_result("not,a,result\n0,Localized,0,0,0,0,0,0,0,0\n")

    @pytest.mark.parametrize("second", [3, 2])
    def test_result_rejects_unordered_frames(self, second):
        row = "{},Localized,0,1.6,0,0,0,0,0.5,6"
        text = "\n".join(["frame,status,Cx,Cy,Cz,yaw,pitch,roll,sqrtR,n_corr",
                          row.format(3), "", row.format(second)]) + "\n"
        with pytest.raises(ValueError, match="^result CSV line 4: frame ids "
                                             "must be strictly increasing"):
            parse_result(text)
