import math

import numpy as np
import pytest

from semloc.association import associate_and_localize, closest_correspond
from semloc.camera import CameraPose
from semloc.mapmodel import RoughPose, SemanticClass, preselect
from semloc.pipeline import heading_from_pose
from semloc.features import ExtractionConfig, extract_features
from semloc.synthworld import (WorldConfig, _stroke, generate_world,
                               render_detections, render_frames, render_masks)

from conftest import noise_world, paper_scale_world, perturbed


class TestGenerateWorld:
    def test_paper_scale_counts(self):
        cfg = paper_scale_world(0)
        semantic_map, trajectory = generate_world(cfg)
        assert len(semantic_map.lines) == 21  # pole-like objects
        assert len(semantic_map.points) == 5
        assert len(semantic_map.lanes) == 2
        assert len(trajectory) > 100
        classes = {lm.semantic for lm in semantic_map.lines}
        assert classes == {SemanticClass.POLE_LIKE, SemanticClass.MILESTONE}

    def test_zero_length_empty(self):
        semantic_map, trajectory = generate_world(
            WorldConfig(corridor_length_m=0.0))
        assert semantic_map.is_empty()
        assert trajectory == []

    def test_fixed_seed_identical(self):
        a_map, a_traj = generate_world(paper_scale_world(7))
        b_map, b_traj = generate_world(paper_scale_world(7))
        assert len(a_map.lines) == len(b_map.lines)
        for la, lb in zip(a_map.lines, b_map.lines):
            assert np.array_equal(la.p1, lb.p1)
            assert np.array_equal(la.p2, lb.p2)
        for pa, pb in zip(a_traj, b_traj):
            assert pa.as_vector().tobytes() == pb.as_vector().tobytes()

    def test_camera_height_and_jitter(self):
        cfg = paper_scale_world(1)
        _, trajectory = generate_world(cfg)
        jitter = math.radians(cfg.pitch_roll_jitter_deg)
        for pose in trajectory:
            assert pose.y == pytest.approx(cfg.camera_height_m)
            assert abs(pose.pitch) <= jitter + 1e-12
            assert abs(pose.roll) <= jitter + 1e-12

    def test_unique_ids(self):
        semantic_map, _ = generate_world(paper_scale_world(2))
        ids = [lm.id for lm in semantic_map.lines] + \
            [lm.id for lm in semantic_map.points] + \
            [ln.id for ln in semantic_map.lanes]
        assert len(ids) == len(set(ids))


class TestRenderDetections:
    def test_noiseless_consistency(self):
        cfg = paper_scale_world(3)
        semantic_map, trajectory = generate_world(cfg)
        pose = trajectory[50]
        rendered = render_detections(semantic_map, pose, cfg, frame_id=50)
        rough = RoughPose(pose.position, heading_from_pose(pose), 0)
        selected = preselect(semantic_map, rough)
        corr = closest_correspond(selected, rendered.frame.det_lines,
                                  rendered.frame.det_points, pose,
                                  cfg.intrinsics, 300.0, 300.0)
        for li, di in corr.line_pairs:
            assert selected.lines[li].id == rendered.line_labels[di]
        for li, di in corr.point_pairs:
            assert selected.points[li].id == rendered.point_labels[di]

    def test_labels_cover_all_true_detections(self):
        cfg = paper_scale_world(4, outlier_rate=0.3)
        semantic_map, trajectory = generate_world(cfg)
        rendered = render_detections(semantic_map, trajectory[40], cfg, frame_id=0)
        n_outliers = sum(1 for lab in rendered.line_labels if lab is None)
        n_outliers += sum(1 for lab in rendered.point_labels if lab is None)
        assert n_outliers > 0
        for lab, exact in zip(rendered.line_labels, rendered.exact_lines):
            assert (lab is None) == (exact is None)

    def test_detections_pass_preselection(self):
        # From the true pose, a landmark is rendered only if preselection
        # keeps it, so no detection is bait for an unselectable landmark.
        cfg = paper_scale_world(6, pole_sides=2)
        semantic_map, trajectory = generate_world(cfg)
        lane_ids = {lane.id for lane in semantic_map.lanes}
        checked = 0
        for k in range(0, len(trajectory), 5):
            pose = trajectory[k]
            rendered = render_detections(semantic_map, pose, cfg, frame_id=k)
            rough = RoughPose(pose.position, heading_from_pose(pose), 0)
            selected = preselect(semantic_map, rough)
            kept = {lm.id for lm in selected.lines + selected.points}
            labels = [lab for lab in rendered.line_labels + rendered.point_labels
                      if lab not in lane_ids]
            assert set(labels) <= kept, k
            checked += len(labels)
        assert checked > 100

    def test_noise_follows_half_normal_mean(self):
        cfg = paper_scale_world(5, pixel_noise_sigma=1.0)
        semantic_map, trajectory = generate_world(cfg)
        deviations = []
        k = 0
        while len(deviations) < 10000:
            pose = trajectory[k % len(trajectory)]
            rendered = render_detections(semantic_map, pose, cfg, frame_id=k)
            for det, exact in zip(rendered.frame.det_lines, rendered.exact_lines):
                if exact is None:
                    continue
                deviations.append(np.linalg.norm(det.m1 - exact[0]))
                deviations.append(np.linalg.norm(det.m2 - exact[1]))
            k += 1
        mean = float(np.mean(deviations[:10000]))
        want = cfg.pixel_noise_sigma * math.sqrt(math.pi / 2.0)
        assert mean == pytest.approx(want, rel=0.05)

    def test_full_dropout_empty_frame(self):
        cfg = paper_scale_world(6, dropout_rate=1.0)
        semantic_map, trajectory = generate_world(cfg)
        rendered = render_detections(semantic_map, trajectory[30], cfg, frame_id=0)
        assert rendered.frame.det_lines == []
        assert rendered.frame.det_points == []

    def test_deterministic(self):
        cfg = paper_scale_world(7, pixel_noise_sigma=0.7, outlier_rate=0.2,
                                dropout_rate=0.1)
        semantic_map, trajectory = generate_world(cfg)
        a = render_detections(semantic_map, trajectory[20], cfg, frame_id=20)
        b = render_detections(semantic_map, trajectory[20], cfg, frame_id=20)
        assert len(a.frame.det_lines) == len(b.frame.det_lines)
        for da, db in zip(a.frame.det_lines, b.frame.det_lines):
            assert da.m1.tobytes() == db.m1.tobytes()

    def test_noise_scaling_monotone(self):
        # final pose error grows with the pixel noise level, statistically
        rms = []
        for sigma in (0.0, 0.5, 1.0, 2.0):
            sq = []
            for seed in range(50):
                cfg = noise_world(seed, sigma=sigma)
                semantic_map, trajectory = generate_world(cfg)
                pose = trajectory[20]
                rendered = render_detections(semantic_map, pose, cfg, frame_id=20)
                rough = RoughPose(pose.position, heading_from_pose(pose), 0)
                selected = preselect(semantic_map, rough)
                rng = np.random.default_rng(seed + 50)
                init = perturbed(pose, rng, 0.3, math.radians(0.5))
                try:
                    fit, _ = associate_and_localize(
                        selected, rendered.frame.det_lines,
                        rendered.frame.det_points, init, cfg.intrinsics)
                    sq.append(float(np.sum((fit.pose.position - pose.position) ** 2)))
                except Exception:
                    pass
            rms.append(math.sqrt(np.mean(sq)))
        assert rms[0] < rms[1] < rms[2] < rms[3]


class TestRenderMasks:
    def test_single_pole_roundtrip(self, intrinsics):
        from semloc.mapmodel import LineLandmark, SemanticMap
        pole = LineLandmark([15, 0, 2], [15, 3, 2], SemanticClass.POLE_LIKE,
                            3.0, 0, 0)
        semantic_map = SemanticMap([pole], [], [])
        cfg = WorldConfig(intrinsics=intrinsics)
        pose = CameraPose(0, 1.6, 0)
        mask, exact_lines, _ = render_masks(semantic_map, pose, cfg)
        assert len(exact_lines) == 1
        lines, _ = extract_features(mask, ExtractionConfig())
        assert len(lines) == 1
        ex = exact_lines[0]
        err = min(
            max(np.linalg.norm(lines[0].m1 - ex.m1),
                np.linalg.norm(lines[0].m2 - ex.m2)),
            max(np.linalg.norm(lines[0].m1 - ex.m2),
                np.linalg.norm(lines[0].m2 - ex.m1)))
        assert err < 1.0

    def test_empty_map_zero_masks(self):
        from semloc.mapmodel import SemanticMap
        cfg = paper_scale_world(0)
        mask, exact_lines, exact_points = render_masks(
            SemanticMap(), CameraPose(0, 1.6, 0), cfg)
        assert exact_lines == [] and exact_points == []
        assert all(not r.any() for r in mask.channels.values())
        lines, points = extract_features(mask, ExtractionConfig())
        assert lines == [] and points == []

    def test_overlapping_poles_still_detected(self, intrinsics):
        from semloc.mapmodel import LineLandmark, SemanticMap
        a = LineLandmark([15, 0, 2.0], [15, 3, 2.0], SemanticClass.POLE_LIKE,
                         3.0, 0, 0)
        b = LineLandmark([15, 0, 2.02], [15, 3, 2.02], SemanticClass.POLE_LIKE,
                         3.0, 0, 1)
        cfg = WorldConfig(intrinsics=intrinsics)
        mask, _, _ = render_masks(SemanticMap([a, b], [], []),
                                  CameraPose(0, 1.6, 0), cfg)
        lines, _ = extract_features(mask, ExtractionConfig())
        assert len(lines) >= 1  # may merge into one stroke, never zero

    def test_channels_are_binary_levels(self):
        cfg = paper_scale_world(8)
        semantic_map, trajectory = generate_world(cfg)
        mask, _, _ = render_masks(semantic_map, trajectory[60], cfg)
        assert any(raster.any() for raster in mask.channels.values())
        for raster in mask.channels.values():
            assert raster.dtype == np.uint8
            assert set(np.unique(raster).tolist()) <= {0, 255}

    def test_masks_match_detection_geometry(self):
        cfg = paper_scale_world(8)
        semantic_map, trajectory = generate_world(cfg)
        pose = trajectory[60]
        rendered = render_detections(semantic_map, pose, cfg, frame_id=60)
        _, exact_lines, exact_points = render_masks(semantic_map, pose, cfg)
        assert len(exact_lines) == len(rendered.frame.det_lines)
        assert len(exact_points) == len(rendered.frame.det_points)


def reference_stroke(raster, p0, p1):
    """Two-branch stroke: a y-major walk painting row slabs and an x-major
    walk painting column slabs."""
    h, w = raster.shape
    dx, dy = float(p1[0] - p0[0]), float(p1[1] - p0[1])
    if abs(dy) >= abs(dx):
        y0, y1 = int(round(p0[1])), int(round(p1[1]))
        step = 1 if y1 >= y0 else -1
        for y in range(y0, y1 + step, step):
            t = 0.0 if dy == 0 else (y - p0[1]) / dy
            x = int(round(p0[0] + t * dx))
            hw = 0 if y in (y0, y1) else 1
            if 0 <= y < h:
                raster[y, max(0, x - hw):min(w, x + hw + 1)] = 255
    else:
        x0, x1 = int(round(p0[0])), int(round(p1[0]))
        step = 1 if x1 >= x0 else -1
        for x in range(x0, x1 + step, step):
            t = (x - p0[0]) / dx
            y = int(round(p0[1] + t * dy))
            hw = 0 if x in (x0, x1) else 1
            if 0 <= x < w:
                raster[max(0, y - hw):min(h, y + hw + 1), x] = 255


class TestStroke:
    SHAPE = (40, 60)

    def assert_matches_reference(self, p0, p1):
        p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
        got = np.zeros(self.SHAPE, np.uint8)
        want = np.zeros(self.SHAPE, np.uint8)
        _stroke(got, p0, p1)
        reference_stroke(want, p0, p1)
        assert np.array_equal(got, want), (p0, p1)

    @pytest.mark.parametrize("p0, p1", [
        ((5, 5), (25, 25)),        # |dx| = |dy|, down-right
        ((25, 5), (5, 25)),        # |dx| = |dy|, down-left
        ((30.5, 12.5), (20.5, 2.5)),
        ((10, 10), (10, 10)),      # zero length
        ((7.4, 3.6), (7.4, 3.6)),
        ((50, 20), (5, 22)),       # reversed, x-major
        ((12, 35), (14, 2)),       # reversed, y-major
        ((-10, 5), (70, 30)),      # both ends off the raster
        ((30, -8), (35, 50)),
        ((55, 10), (80, 12)),      # partly off the right edge
        ((-5, -5), (10, 10)),
    ])
    def test_edge_cases(self, p0, p1):
        self.assert_matches_reference(p0, p1)
        self.assert_matches_reference(p1, p0)

    def test_random_segments(self):
        rng = np.random.default_rng(0)
        h, w = self.SHAPE
        for _ in range(400):
            p0 = rng.uniform((-15, -15), (w + 15, h + 15))
            p1 = rng.uniform((-15, -15), (w + 15, h + 15))
            self.assert_matches_reference(p0, p1)


class TestRoundTrip:
    def test_solve_from_rendered_at_truth(self):
        cfg = paper_scale_world(9)
        semantic_map, trajectory = generate_world(cfg)
        pose = trajectory[70]
        rendered = render_detections(semantic_map, pose, cfg, frame_id=70)
        rough = RoughPose(pose.position, heading_from_pose(pose), 0)
        selected = preselect(semantic_map, rough)
        fit, _ = associate_and_localize(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            pose, cfg.intrinsics)
        assert np.linalg.norm(fit.pose.position - pose.position) < 1e-5

    def test_render_frames_ids(self):
        cfg = paper_scale_world(10)
        semantic_map, trajectory = generate_world(cfg)
        rendered = render_frames(semantic_map, trajectory[:5], cfg)
        assert [r.frame.frame_id for r in rendered] == list(range(5))


class TestConfigValidation:
    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            WorldConfig(outlier_rate=1.5)
        with pytest.raises(ValueError):
            WorldConfig(dropout_rate=-0.1)
        with pytest.raises(ValueError):
            WorldConfig(pixel_noise_sigma=-1.0)
