import math

import numpy as np
import pytest

from semloc import association
from semloc.association import (AssociationConfig, NoValidAssociation,
                                associate_and_localize, closest_correspond,
                                pose_distance)
from semloc.camera import CameraPose, PoseTransform, project_line, project_point
from semloc.mapmodel import RoughPose, SemanticClass, preselect
from semloc.pipeline import FrameStatus, heading_from_pose, run_sequence
from semloc.residual import (CorrespondenceSet, ReprojectionObjective,
                             ResidualConfig, line_distance,
                             nearest_lane_height, point_distance)
from semloc.solver import SingularNormalEquations, solve
from semloc.synthworld import generate_world, render_detections, render_frames

from conftest import clutter_world, paper_scale_world, perturbed


def frame_at(cfg, frame_idx):
    semantic_map, trajectory = generate_world(cfg)
    truth = trajectory[frame_idx]
    rendered = render_detections(semantic_map, truth, cfg, frame_id=frame_idx)
    rough = RoughPose(truth.position, heading_from_pose(truth),
                      cfg.road_index)
    selected = preselect(semantic_map, rough)
    return semantic_map, truth, rendered, selected


def count_spurious(selected, rendered, corr):
    bad = sum(1 for li, di in corr.line_pairs
              if selected.lines[li].id != rendered.line_labels[di])
    bad += sum(1 for li, di in corr.point_pairs
               if selected.points[li].id != rendered.point_labels[di])
    return bad


class TestPoseDistance:
    def test_identical(self):
        p = CameraPose(1, 2, 3, 0.1, 0.2, 0.3)
        assert pose_distance(p, p) == 0.0

    def test_pure_translation(self):
        a = CameraPose(0, 0, 0)
        b = CameraPose(3, 0, 0)
        assert pose_distance(a, b) == pytest.approx(3.0)

    def test_angle_in_degrees(self):
        a = CameraPose(0, 0, 0, yaw=0.0)
        b = CameraPose(0, 0, 0, yaw=0.1)
        assert pose_distance(a, b) == pytest.approx(math.degrees(0.1))

    def test_shortest_arc(self):
        a = CameraPose(0, 0, 0, yaw=math.radians(179))
        b = CameraPose(0, 0, 0, yaw=math.radians(-179))
        assert pose_distance(a, b) == pytest.approx(2.0, abs=1e-9)


class TestClosestCorrespond:
    def test_identity_at_truth(self):
        cfg = paper_scale_world(0)
        _, truth, rendered, selected = frame_at(cfg, 40)
        corr = closest_correspond(selected, rendered.frame.det_lines,
                                  rendered.frame.det_points, truth,
                                  cfg.intrinsics, 300.0, 300.0)
        assert len(corr) >= 4
        assert count_spurious(selected, rendered, corr) == 0
        corr.validate(selected, rendered.frame.det_lines,
                      rendered.frame.det_points)

    def test_gate_boundary(self, intrinsics):
        from semloc.features import DetectedLine
        from semloc.mapmodel import LineLandmark, PreselectedSet, SemanticClass

        pose = CameraPose(0, 1.6, 0)
        lm = LineLandmark([15, 0, 3], [15, 2, 3], SemanticClass.POLE_LIKE,
                          2.0, 0, 0)
        proj = project_line(lm, PoseTransform.of(pose), intrinsics)
        u1, u2 = np.array(proj[:2]), np.array(proj[2:])
        gate = 10.0
        offset = gate + 1.0
        det = DetectedLine(u1 + [offset, 0], u2 + [offset, 0],
                           SemanticClass.POLE_LIKE)
        sel = PreselectedSet([lm], [])
        corr = closest_correspond(sel, [det], [], pose, intrinsics, gate, gate)
        assert len(corr) == 0
        inside = DetectedLine(u1 + [gate - 1, 0], u2 + [gate - 1, 0],
                              SemanticClass.POLE_LIKE)
        corr = closest_correspond(sel, [inside], [], pose, intrinsics, gate, gate)
        assert corr.line_pairs == [(0, 0)]

    def test_class_mismatch_unpaired(self, intrinsics):
        from semloc.features import DetectedLine
        from semloc.mapmodel import LineLandmark, PreselectedSet, SemanticClass

        pose = CameraPose(0, 1.6, 0)
        lm = LineLandmark([15, 0, 3], [15, 2, 3], SemanticClass.POLE_LIKE,
                          2.0, 0, 0)
        proj = project_line(lm, PoseTransform.of(pose), intrinsics)
        det = DetectedLine(proj[:2], proj[2:], SemanticClass.MILESTONE)
        corr = closest_correspond(PreselectedSet([lm], []), [det], [], pose,
                                  intrinsics, 300.0, 300.0)
        assert len(corr) == 0

    def test_gated_distances_hold(self):
        cfg = paper_scale_world(1)
        _, truth, rendered, selected = frame_at(cfg, 30)
        pose = CameraPose(truth.x - 0.4, truth.y + 0.2, truth.z + 0.3,
                          truth.yaw + 0.01, truth.pitch, truth.roll)
        gate_l, gate_p = 40.0, 40.0
        corr = closest_correspond(selected, rendered.frame.det_lines,
                                  rendered.frame.det_points, pose,
                                  cfg.intrinsics, gate_l, gate_p)
        view = PoseTransform.of(pose)
        for li, di in corr.line_pairs:
            proj = project_line(selected.lines[li], view, cfg.intrinsics)
            assert line_distance(
                proj, rendered.frame.det_lines[di].geometry) <= gate_l
        for li, di in corr.point_pairs:
            uv = project_point(selected.points[li].p, view, cfg.intrinsics)
            assert point_distance(
                uv, rendered.frame.det_points[di].m.tolist()) <= gate_p

    def test_shrinking_gate_never_adds_pairs(self):
        cfg = paper_scale_world(2)
        _, truth, rendered, selected = frame_at(cfg, 50)
        pose = CameraPose(truth.x - 0.5, truth.y, truth.z + 0.4, truth.yaw + 0.02,
                          truth.pitch, truth.roll)
        wide = closest_correspond(selected, rendered.frame.det_lines,
                                  rendered.frame.det_points, pose,
                                  cfg.intrinsics, 300.0, 300.0)
        for gate in (100.0, 30.0, 10.0, 3.0):
            narrow = closest_correspond(selected, rendered.frame.det_lines,
                                        rendered.frame.det_points, pose,
                                        cfg.intrinsics, gate, gate)
            assert set(narrow.line_pairs) <= set(wide.line_pairs)
            assert set(narrow.point_pairs) <= set(wide.point_pairs)
            wide = narrow

    def test_behind_camera_skipped(self, intrinsics):
        from semloc.features import DetectedLine
        from semloc.mapmodel import LineLandmark, PreselectedSet, SemanticClass

        pose = CameraPose(0, 1.6, 0)
        behind = LineLandmark([-15, 0, 3], [-15, 2, 3], SemanticClass.POLE_LIKE,
                              2.0, 0, 0)
        det = DetectedLine([100, 100], [100, 200], SemanticClass.POLE_LIKE)
        corr = closest_correspond(PreselectedSet([behind], []), [det], [],
                                  pose, intrinsics, 300.0, 300.0)
        assert len(corr) == 0


class TestOneProjection:
    """The objective projects with the matcher's own product. At the
    estimated and the true pose of every frame of localized worlds, each
    pixel of the objective's kernel is ``project_point``'s and each gate row
    is ``line_distance`` or ``point_distance`` of the matcher's projections,
    bit for bit."""

    # (pixel noise sigma, curve amplitude m, pole sides)
    WORLDS = [(0.0, 0.0, 1), (1.0, 3.0, 2), (2.0, 0.0, 2), (1.0, 3.0, 1)]

    @pytest.mark.parametrize("sigma, curve, sides", WORLDS)
    def test_kernel_pixels_and_gate_rows_are_the_matcher_s(self, sigma, curve,
                                                           sides):
        cfg = paper_scale_world(0, corridor_length_m=120.0,
                                pixel_noise_sigma=sigma,
                                curve_amplitude_m=curve, pole_sides=sides)
        semantic_map, trajectory = generate_world(cfg)
        frames = [r.frame for r in render_frames(semantic_map, trajectory,
                                                 cfg)]
        result = run_sequence(semantic_map, frames, trajectory[:2],
                              cfg.intrinsics)
        assert result.count(FrameStatus.LOCALIZED) == len(frames) - 2
        n_pixels = n_rows = 0
        for record, truth, frame in zip(result.records, trajectory, frames):
            for pose in (record.pose, truth):
                selected = preselect(semantic_map, RoughPose(
                    pose.position, heading_from_pose(pose), frame.road_index))
                # Ungated, so every landmark in front of the camera pairs.
                corr = closest_correspond(
                    selected, frame.det_lines, frame.det_points, pose,
                    cfg.intrinsics, math.inf, math.inf)
                objective = ReprojectionObjective(
                    selected, frame.det_lines, frame.det_points, corr,
                    cfg.intrinsics)
                view = PoseTransform.of(pose)
                pixels, rows = [], []
                for lm_idx, det_idx in corr.line_pairs:
                    proj = project_line(selected.lines[lm_idx], view,
                                        cfg.intrinsics)
                    pixels.extend(proj)
                    rows.append(line_distance(
                        proj, frame.det_lines[det_idx].geometry))
                for lm_idx, det_idx in corr.point_pairs:
                    proj = project_point(selected.points[lm_idx].p, view,
                                         cfg.intrinsics)
                    pixels.extend(proj)
                    rows.append(point_distance(
                        proj, frame.det_points[det_idx].m.tolist()))
                uv, guard, _ = objective._kernel(pose)
                assert guard is None
                assert uv.tobytes() == np.array(pixels).tobytes()
                gate = objective.residual(pose)[:len(corr)]
                assert gate.tobytes() == np.array(rows).tobytes()
                n_pixels += len(pixels) // 2
                n_rows += len(rows)
        assert n_pixels > 1000 and n_rows > 500


def nested_loop_matches(selected, det_lines, det_points, pose, intrinsics,
                        gate_line, gate_point):
    """Oracle: every (landmark, same-class detection) distance from
    line_distance / point_distance; the lowest wins, the first index on a
    tie, kept when within the gate."""
    out = []
    view = PoseTransform.of(pose)
    for landmarks, dets, project, distance, gate in (
            (selected.lines, det_lines,
             lambda lm: project_line(lm, view, intrinsics),
             lambda proj, det: line_distance(proj, det.geometry), gate_line),
            (selected.points, det_points,
             lambda lm: project_point(lm.p, view, intrinsics),
             lambda proj, det: point_distance(proj, det.m.tolist()),
             gate_point)):
        pairs = []
        for lm_idx, lm in enumerate(landmarks):
            proj = project(lm)
            if proj is None:
                continue
            scored = [(distance(proj, det), det_idx)
                      for det_idx, det in enumerate(dets)
                      if det.semantic is lm.semantic]
            if scored and min(scored)[0] <= gate:
                pairs.append((lm_idx, min(scored)[1]))
        out.append(pairs)
    return out


class TestMatcherOracle:
    def test_equals_nested_loop(self):
        rng = np.random.default_rng(31)
        checked = 0
        for seed in range(4):
            cfg = paper_scale_world(seed, pixel_noise_sigma=1.0,
                                    outlier_rate=0.3)
            semantic_map, trajectory = generate_world(cfg)
            for frame_idx in range(5, len(trajectory), 23):
                truth = trajectory[frame_idx]
                rendered = render_detections(semantic_map, truth, cfg,
                                             frame_id=frame_idx)
                selected = preselect(semantic_map, RoughPose(
                    truth.position, heading_from_pose(truth), 0))
                lines = list(rendered.frame.det_lines)
                points = list(rendered.frame.det_points)
                # Repeated detections tie exactly; the first must win.
                lines += [lines[i] for i in rng.permutation(len(lines))[:3]]
                points += points[:1]
                # A class with no detection at all leaves its landmarks
                # unpaired.
                variants = [(lines, points),
                            ([d for d in lines if d.semantic is not
                              SemanticClass.MILESTONE], [])]
                for det_lines, det_points in variants:
                    pose = perturbed(truth, rng, 1.0, math.radians(2.0))
                    for gate in (300.0, 10.0):
                        corr = closest_correspond(
                            selected, det_lines, det_points, pose,
                            cfg.intrinsics, gate, gate)
                        want = nested_loop_matches(
                            selected, det_lines, det_points, pose,
                            cfg.intrinsics, gate, gate)
                        assert [corr.line_pairs, corr.point_pairs] == want
                        checked += len(corr)
        assert checked > 200

    def test_one_rotation_per_call(self, monkeypatch):
        # The pose's rotation is built once per call, while every landmark
        # is still projected through the module globals, one call each.
        cfg = paper_scale_world(0)
        _, truth, rendered, selected = frame_at(cfg, 40)
        calls = {"rotation": 0, "project": 0}
        rotation = CameraPose.rotation

        def counted_rotation(pose):
            calls["rotation"] += 1
            return rotation(pose)

        def counted(project):
            def wrapper(*args):
                calls["project"] += 1
                return project(*args)
            return wrapper

        monkeypatch.setattr(CameraPose, "rotation", counted_rotation)
        for name in ("project_line", "project_point"):
            monkeypatch.setattr(association, name,
                                counted(getattr(association, name)))
        corr = closest_correspond(selected, rendered.frame.det_lines,
                                  rendered.frame.det_points, truth,
                                  cfg.intrinsics, 300.0, 300.0)
        assert len(corr) >= 4
        assert calls == {"rotation": 1, "project": len(selected.lines)
                         + len(selected.points)}

    def test_one_projection_per_landmark_of_each_kind(self, monkeypatch):
        # bench/tracing.py counts camera.projections_per_frame by wrapping
        # these two module globals: one project_line call per preselected
        # line landmark and one project_point call per point landmark's
        # centre, in preselection order.
        cfg = paper_scale_world(0)
        _, truth, rendered, selected = frame_at(cfg, 40)
        assert selected.lines and selected.points
        seen = {"project_line": [], "project_point": []}

        def counted(name):
            project = getattr(association, name)

            def wrapper(target, view, intrinsics):
                seen[name].append(target)
                return project(target, view, intrinsics)
            return wrapper

        for name in seen:
            monkeypatch.setattr(association, name, counted(name))
        rng = np.random.default_rng(2)
        for pose in (truth, perturbed(truth, rng, 1.0, math.radians(2.0))):
            for name in seen:
                seen[name].clear()
            closest_correspond(selected, rendered.frame.det_lines,
                               rendered.frame.det_points, pose,
                               cfg.intrinsics, 300.0, 300.0)
            assert [id(lm) for lm in seen["project_line"]] == \
                [id(lm) for lm in selected.lines]
            assert [id(p) for p in seen["project_point"]] == \
                [id(lm.p) for lm in selected.points]


class TestAssociateAndLocalize:
    def test_final_cost_is_gate_cost_of_refined_set(self):
        cfg = paper_scale_world(4)
        _, truth, rendered, selected = frame_at(cfg, 45)
        init = perturbed(truth, np.random.default_rng(1), 0.8,
                         math.radians(2.0))
        fit, refined = associate_and_localize(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            init, cfg.intrinsics)
        y_lane = nearest_lane_height(selected.lines, init.position)
        gate = ReprojectionObjective(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            refined, cfg.intrinsics, ResidualConfig(), y_lane)
        r = gate.residual(fit.pose)
        assert fit.final_cost == float(r @ r)

    def test_noiseless_recovery(self):
        cfg = paper_scale_world(3)
        _, truth, rendered, selected = frame_at(cfg, 60)
        rng = np.random.default_rng(0)
        init = perturbed(truth, rng, 1.0, math.radians(3.0))
        fit, refined = associate_and_localize(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            init, cfg.intrinsics)
        assert np.linalg.norm(fit.pose.position - truth.position) < 1e-3
        assert count_spurious(selected, rendered, refined) == 0

    def test_acceptance_inequalities_hold(self):
        cfg = paper_scale_world(4)
        _, truth, rendered, selected = frame_at(cfg, 45)
        rng = np.random.default_rng(1)
        init = perturbed(truth, rng, 0.8, math.radians(2.0))
        assoc = AssociationConfig()
        fit, refined = associate_and_localize(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            init, cfg.intrinsics)
        base = closest_correspond(selected, rendered.frame.det_lines,
                                  rendered.frame.det_points, init,
                                  cfg.intrinsics, assoc.gate_line_init_px,
                                  assoc.gate_point_init_px)
        assert fit.residual_rms <= assoc.max_final_rms_per_pair * len(refined)
        assert len(refined) >= 0.5 * len(base)

    def test_deterministic_given_seed(self):
        cfg = paper_scale_world(5)
        _, truth, rendered, selected = frame_at(cfg, 55)
        rng = np.random.default_rng(2)
        init = perturbed(truth, rng, 0.8, math.radians(2.0))
        a_fit, a_ref = associate_and_localize(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            init, cfg.intrinsics)
        b_fit, b_ref = associate_and_localize(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            init, cfg.intrinsics)
        assert a_fit.pose.as_vector().tobytes() == b_fit.pose.as_vector().tobytes()
        assert a_ref.line_pairs == b_ref.line_pairs
        assert a_ref.point_pairs == b_ref.point_pairs

    def test_clutter_keeps_association_clean(self):
        # one seeded trial; the acceptance suite runs the full hundred
        cfg = clutter_world(0)
        semantic_map, trajectory = generate_world(cfg)
        truth = trajectory[3]
        rendered = render_detections(semantic_map, truth, cfg, frame_id=3)
        rough = RoughPose(truth.position, heading_from_pose(truth), 0)
        selected = preselect(semantic_map, rough)
        rng = np.random.default_rng(900)
        init = perturbed(truth, rng, 0.5, math.radians(1.0))
        fit, refined = associate_and_localize(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            init, cfg.intrinsics)
        assert count_spurious(selected, rendered, refined) == 0

    def test_mismatched_scene_rejected(self):
        cfg = clutter_world(7)
        semantic_map, trajectory = generate_world(cfg)
        truth = trajectory[3]
        other = paper_scale_world(99, lane_count=3, lane_spacing_m=5.0,
                                  pole_lateral_m=3.0, milestone_every=0,
                                  sign_spacing_m=20.0, sign_lateral_m=2.0,
                                  sign_height_m=1.0)
        other_map, other_traj = generate_world(other)
        view = other_traj[80]
        rendered = render_detections(
            other_map, CameraPose(view.x, view.y + 1.0, view.z + 2.5,
                                  view.yaw + 0.3, view.pitch, view.roll),
            other, frame_id=0)
        rough = RoughPose(truth.position, heading_from_pose(truth), 0)
        selected = preselect(semantic_map, rough)
        with pytest.raises(NoValidAssociation):
            associate_and_localize(selected, rendered.frame.det_lines,
                                   rendered.frame.det_points, truth,
                                   cfg.intrinsics)

    def test_empty_detections_rejected(self):
        cfg = paper_scale_world(6)
        _, truth, _, selected = frame_at(cfg, 30)
        with pytest.raises(NoValidAssociation):
            associate_and_localize(selected, [], [], truth, cfg.intrinsics)


def six_pair_frame():
    """Frame 30 of the paper-scale seed-0 world, predicted up to 0.5 m and
    1 degree off: its base match holds 5 line pairs and 1 point pair."""
    cfg = paper_scale_world(0)
    _, truth, rendered, selected = frame_at(cfg, 30)
    init = perturbed(truth, np.random.default_rng(3), 0.5, math.radians(1.0))
    return cfg, selected, rendered.frame, init


class TestWholeBase:
    def test_first_solve_sees_every_base_pair(self, monkeypatch):
        cfg, selected, frame, init = six_pair_frame()
        base = closest_correspond(
            selected, frame.det_lines, frame.det_points, init, cfg.intrinsics,
            AssociationConfig.gate_line_init_px,
            AssociationConfig.gate_point_init_px)
        assert len(base) > 5
        starts = list(association._iter_hypotheses(init))
        assert len(starts) == 1 and starts[0] is init

        built, solved = [], []
        objective, real_solve = association.ReprojectionObjective, \
            association.solve

        def build(*args):
            built.append((objective(*args), args[3]))
            return built[-1][0]

        def recorded_solve(obj, start):
            solved.append((obj, start))
            return real_solve(obj, start)

        monkeypatch.setattr(association, "ReprojectionObjective", build)
        monkeypatch.setattr(association, "solve", recorded_solve)
        associate_and_localize(selected, frame.det_lines, frame.det_points,
                               init, cfg.intrinsics)
        first, start = solved[0]
        assert start is init
        corr = next(corr for obj, corr in built if obj is first)
        assert (corr.line_pairs, corr.point_pairs) == \
            (base.line_pairs, base.point_pairs)


class TestRefineReuse:
    """When re-matching returns the base's own pairs, the refine solve runs
    on the base's objective, which already holds (r, J) at the pose where
    that solve starts."""

    @staticmethod
    def hypothesis_frame():
        cfg = paper_scale_world(0)
        _, truth, rendered, selected = frame_at(cfg, 40)
        init = perturbed(truth, np.random.default_rng(3), 0.5,
                         math.radians(1.0))
        det_lines, det_points = rendered.frame.det_lines, rendered.frame.det_points
        y_lane = nearest_lane_height(selected.lines, init.position)

        def objective(corr):
            return ReprojectionObjective(
                selected, det_lines, det_points, corr, cfg.intrinsics,
                ResidualConfig(), y_lane)

        assoc = AssociationConfig()
        base = closest_correspond(selected, det_lines, det_points, init,
                                  cfg.intrinsics, assoc.gate_line_init_px,
                                  assoc.gate_point_init_px)
        starts = list(association._iter_hypotheses(init))
        assert len(starts) == 1 and starts[0] is init
        return cfg, selected, rendered, init, objective, base

    def test_reused_objective_solves_as_fresh(self, monkeypatch):
        cfg, selected, rendered, init, objective, base = \
            self.hypothesis_frame()
        assoc = AssociationConfig()
        reused = objective(base)
        fit = solve(reused, init)
        refined = closest_correspond(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            fit.pose, cfg.intrinsics, assoc.gate_line_refine_px,
            assoc.gate_point_refine_px)
        assert (refined.line_pairs, refined.point_pairs) == \
            (base.line_pairs, base.point_pairs)
        fresh = objective(refined)
        expected = solve(fresh, fit.pose)

        kernel_calls = []
        kernel = reused._kernel
        monkeypatch.setattr(reused, "_kernel",
                            lambda pose: kernel_calls.append(pose) or kernel(pose))
        projections = []

        class Recording:
            def residual_and_jacobian(self, pose):
                before = len(kernel_calls)
                out = reused.residual_and_jacobian(pose)
                projections.append(len(kernel_calls) - before)
                return out

        got = solve(Recording(), fit.pose)
        # The first evaluation is the stored one; each candidate after it
        # is projected once.
        assert projections[0] == 0
        assert projections[1:] == [1] * (len(projections) - 1)
        assert got.pose.as_vector().tobytes() == \
            expected.pose.as_vector().tobytes()
        assert got.final_cost == expected.final_cost
        assert got.iterations == expected.iterations
        assert got.termination_reason is expected.termination_reason
        assert got.cost_trace == expected.cost_trace
        assert np.array_equal(reused.residual(got.pose),
                              fresh.residual(expected.pose))

    def test_associate_builds_one_objective(self, monkeypatch):
        cfg, selected, rendered, init, _, _ = self.hypothesis_frame()
        built = []
        objective = association.ReprojectionObjective

        def counted(*args):
            built.append(args[3])
            return objective(*args)

        monkeypatch.setattr(association, "ReprojectionObjective", counted)
        _, refined = associate_and_localize(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            init, cfg.intrinsics)
        assert len(built) == 1
        assert (built[0].line_pairs, built[0].point_pairs) == \
            (refined.line_pairs, refined.point_pairs)

    def test_refined_count_rejects_before_refine_solve(self, monkeypatch):
        # Re-matching keeps one pair, fewer than half of the base: the
        # solved pose is rejected on that count, before a second solve.
        cfg, selected, rendered, init, _, _ = self.hypothesis_frame()
        matches = []
        match = association.closest_correspond

        def rematch(*args):
            corr = match(*args)
            matches.append(corr)
            if len(matches) == 1:
                return corr
            return CorrespondenceSet(corr.line_pairs[:1], [])

        solves = []
        real_solve = association.solve
        monkeypatch.setattr(association, "closest_correspond", rematch)
        monkeypatch.setattr(association, "solve", lambda *args: solves.append(
            args) or real_solve(*args))
        with pytest.raises(NoValidAssociation):
            associate_and_localize(
                selected, rendered.frame.det_lines, rendered.frame.det_points,
                init, cfg.intrinsics)
        assert len(matches) == 2 and len(matches[0]) > 2
        assert len(solves) == 1


class TestValidationExits:
    """Each rejection in the validation loop moves on to the next start
    pose. The prediction is the only one, so each exit raises
    NoValidAssociation, after the solves it lets run."""

    @staticmethod
    def traced(monkeypatch, singular_calls=(), hypotheses=1):
        """A localize call on the six-pair frame, with ``solve`` raising
        SingularNormalEquations on the given calls (from 1) and the loop
        given the prediction ``hypotheses`` times as its start poses, the
        list of solve start poses it fills, and the prediction."""
        cfg, selected, frame, init = six_pair_frame()
        starts = []
        real_solve = association.solve

        def flaky_solve(objective, start):
            starts.append(start)
            if len(starts) in singular_calls:
                raise SingularNormalEquations("forced")
            return real_solve(objective, start)

        monkeypatch.setattr(association, "solve", flaky_solve)
        monkeypatch.setattr(association, "_iter_hypotheses",
                            lambda pose: iter([pose] * hypotheses))

        def localize():
            return associate_and_localize(
                selected, frame.det_lines, frame.det_points, init,
                cfg.intrinsics)
        return localize, starts, init

    def test_frame_is_accepted_without_a_forced_exit(self, monkeypatch):
        localize, starts, init = self.traced(monkeypatch)
        localize()
        assert len(starts) == 2 and starts[0] is init

    def test_singular_hypothesis_solve_tries_next(self, monkeypatch):
        # Given a second start pose, the loop solves from it after the
        # first one's base solve fails, and the frame is accepted.
        localize, starts, init = self.traced(monkeypatch, {1}, hypotheses=2)
        localize()
        assert len(starts) == 3 and starts[1] is init

    def test_every_solve_singular_raises(self, monkeypatch):
        localize, starts, _ = self.traced(monkeypatch, range(1, 100),
                                          hypotheses=3)
        with pytest.raises(NoValidAssociation):
            localize()
        # One base solve per start pose; none reaches its refine solve.
        assert len(starts) == 3

    @pytest.mark.parametrize("gates, singular_calls, solves", [
        ((), {1}, 1),
        (("max_hypothesis_rms",), (), 1),
        (("max_pose_shift",), (), 1),
        (("gate_line_refine_px", "gate_point_refine_px"), (), 1),
        ((), {2}, 2),
        (("max_final_rms_per_pair",), (), 2),
    ], ids=["singular hypothesis solve", "max_hypothesis_rms",
            "max_pose_shift", "refined set below half the base",
            "singular refine solve", "max_final_rms_per_pair"])
    def test_exit_raises_after_its_solves(self, monkeypatch, gates,
                                          singular_calls, solves):
        # A negative gate fails every check it enters: rms values, pose
        # shifts and match distances are never negative.
        for gate in gates:
            monkeypatch.setattr(AssociationConfig, gate, -1.0)
        localize, starts, _ = self.traced(monkeypatch, singular_calls)
        with pytest.raises(NoValidAssociation):
            localize()
        assert len(starts) == solves


class TestGates:
    def test_gate_values_keep_their_rules(self):
        gates = {name: value for name, value in vars(AssociationConfig).items()
                 if not name.startswith("_")}
        assert len(gates) == 7
        # NaN fails every comparison and an infinite gate switches its
        # check off; neither may reach the matcher.
        assert all(0 < gate < math.inf for gate in gates.values())
        assert gates["gate_line_refine_px"] <= gates["gate_line_init_px"]
        assert gates["gate_point_refine_px"] <= gates["gate_point_init_px"]
        # The gates are constants: nothing passes a value in.
        with pytest.raises(TypeError):
            AssociationConfig(gate_line_refine_px=400.0)
