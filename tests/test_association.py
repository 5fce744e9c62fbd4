import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from semloc import association
from semloc.association import (AssociationConfig, NoValidAssociation,
                                associate_and_localize, closest_correspond,
                                pose_distance)
from semloc.camera import CameraPose, PoseTransform, project_line, project_point
from semloc.mapmodel import RoughPose, SemanticClass, preselect
from semloc.pipeline import heading_from_pose
from semloc.residual import (CorrespondenceSet, ReprojectionObjective,
                             ResidualConfig, SolverObjective, line_distance,
                             nearest_lane_height, point_distance)
from semloc.solver import solve
from semloc.synthworld import generate_world, render_detections

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
            assert point_distance(uv, rendered.frame.det_points[di]) <= gate_p

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
             lambda lm: project_point(lm.p, view, intrinsics), point_distance,
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
            init, cfg.intrinsics, assoc)
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


def pair_base(n_lines, n_points):
    """A correspondence set with distinct, recognizable pairs."""
    return CorrespondenceSet([(i, 10 + i) for i in range(n_lines)],
                             [(i, 20 + i) for i in range(n_points)])


class TestIterHypotheses:
    @pytest.mark.parametrize("n_lines, n_points", [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1), (4, 1),
        (5, 0), (3, 2), (2, 3), (0, 5)])
    def test_single_hypothesis_draws_nothing(self, monkeypatch, n_lines,
                                             n_points):
        def no_rng(*args, **kwargs):
            raise AssertionError("a one-hypothesis base built a generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        base = pair_base(n_lines, n_points)
        got = list(association._iter_hypotheses(base, 0))
        assert len(got) == 1
        assert got[0].line_pairs == base.line_pairs
        assert got[0].point_pairs == base.point_pairs

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("n_lines, n_points", [
        (5, 1), (4, 2), (6, 0), (0, 6), (8, 3), (10, 2)])
    def test_pool_order(self, n_lines, n_points, seed):
        base = pair_base(n_lines, n_points)
        k_lines, k_points = association._hypothesis_sizes(n_lines, n_points)
        pool = [(lc, pc)
                for lc in combinations(range(n_lines), k_lines)
                for pc in combinations(range(n_points), k_points)]
        assert 1 < len(pool) <= association.MAX_HYPOTHESES
        order = np.random.default_rng(seed).permutation(len(pool))
        expected = [([base.line_pairs[i] for i in pool[j][0]],
                     [base.point_pairs[i] for i in pool[j][1]])
                    for j in order]
        got = [(h.line_pairs, h.point_pairs)
               for h in association._iter_hypotheses(base, seed)]
        assert got == expected


class TestRefineReuse:
    """When re-matching returns the hypothesis's own pairs, the refine
    solve runs on the hypothesis's objective, which already holds (r, J)
    at the pose where that solve starts."""

    @staticmethod
    def hypothesis_frame():
        cfg = paper_scale_world(0)
        _, truth, rendered, selected = frame_at(cfg, 40)
        init = perturbed(truth, np.random.default_rng(3), 0.5,
                         math.radians(1.0))
        det_lines, det_points = rendered.frame.det_lines, rendered.frame.det_points
        y_lane = nearest_lane_height(selected.lines, init.position)

        def objective(corr):
            return SolverObjective(ReprojectionObjective(
                selected, det_lines, det_points, corr, cfg.intrinsics,
                ResidualConfig(), y_lane))

        assoc = AssociationConfig()
        base = closest_correspond(selected, det_lines, det_points, init,
                                  cfg.intrinsics, assoc.gate_line_init_px,
                                  assoc.gate_point_init_px)
        hypotheses = list(association._iter_hypotheses(base, 0))
        assert len(hypotheses) == 1
        return cfg, selected, rendered, init, objective, hypotheses[0]

    def test_reused_objective_solves_as_fresh(self, monkeypatch):
        cfg, selected, rendered, init, objective, hypothesis = \
            self.hypothesis_frame()
        assoc = AssociationConfig()
        reused = objective(hypothesis)
        fit = solve(reused, init)
        refined = closest_correspond(
            selected, rendered.frame.det_lines, rendered.frame.det_points,
            fit.pose, cfg.intrinsics, assoc.gate_line_refine_px,
            assoc.gate_point_refine_px)
        assert (refined.line_pairs, refined.point_pairs) == \
            (hypothesis.line_pairs, hypothesis.point_pairs)
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


class TestConfig:
    def test_refine_gates_must_be_tighter(self):
        with pytest.raises(ValueError):
            AssociationConfig(gate_line_refine_px=400.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(AssociationConfig)])
    def test_non_finite_gate_rejected(self, name, value):
        # NaN fails every comparison and an infinite gate switches its
        # check off; neither may reach the matcher.
        with pytest.raises(ValueError, match="gates must"):
            AssociationConfig(**{name: value})
