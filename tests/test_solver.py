import math

import numpy as np
import pytest

from semloc import solver
from semloc.camera import CameraPose
from semloc.mapmodel import RoughPose, preselect
from semloc.pipeline import heading_from_pose
from semloc.residual import (CorrespondenceSet, ReprojectionObjective,
                             ResidualConfig, SolverObjective,
                             nearest_lane_height, soft_constraint)
from semloc.solver import (MAX_ITERATIONS, SingularNormalEquations,
                           TerminationReason, cost_landscape, solve)
from semloc.synthworld import WorldConfig, generate_world, render_detections

from conftest import paper_scale_world


class SoftOnlyObjective:
    """Flat-ground terms alone: a strictly quadratic toy objective."""

    def __init__(self, y_lane=0.0, config=ResidualConfig()):
        self.y_lane = y_lane
        self.config = config

    def residual(self, pose):
        return soft_constraint(pose, self.y_lane, self.config)

    def residual_and_jacobian(self, pose):
        deg = 180.0 / math.pi
        jac = np.zeros((3, 6))
        jac[0, 4] = deg
        jac[1, 5] = deg
        jac[2, 1] = 100.0
        return self.residual(pose), jac


def correct_correspondences(sel, rendered):
    corr = CorrespondenceSet()
    by_line = {lm.id: i for i, lm in enumerate(sel.lines)}
    for d_idx, label in enumerate(rendered.line_labels):
        if label in by_line:
            corr.line_pairs.append((by_line[label], d_idx))
    by_point = {lm.id: i for i, lm in enumerate(sel.points)}
    for d_idx, label in enumerate(rendered.point_labels):
        if label in by_point:
            corr.point_pairs.append((by_point[label], d_idx))
    return corr


def synthetic_objective(seed=0, frame=40, displace=(0.5, 2.0)):
    cfg = paper_scale_world(seed)
    semantic_map, trajectory = generate_world(cfg)
    truth = trajectory[frame]
    rendered = render_detections(semantic_map, truth, cfg, frame_id=frame)
    rough = RoughPose(truth.position, heading_from_pose(truth), 0)
    sel = preselect(semantic_map, rough)
    corr = correct_correspondences(sel, rendered)
    y_lane = nearest_lane_height(sel.lines, truth.position)
    base = ReprojectionObjective(sel, rendered.frame.det_lines,
                                 rendered.frame.det_points, corr,
                                 cfg.intrinsics, ResidualConfig(), y_lane)
    rng = np.random.default_rng(seed + 77)
    dp = rng.normal(size=3)
    dp = dp / np.linalg.norm(dp) * displace[0]
    da = rng.normal(size=3)
    da = da / np.linalg.norm(da) * math.radians(displace[1])
    init = CameraPose(truth.x + dp[0], truth.y + dp[1], truth.z + dp[2],
                      truth.yaw + da[0], truth.pitch + da[1], truth.roll + da[2])
    return base, init, truth


class TestSolve:
    def test_soft_constraint_quadratic(self):
        obj = SoftOnlyObjective(y_lane=0.3)
        init = CameraPose(2.0, 5.0, 1.0, 0.4, math.radians(5), math.radians(-5))
        result = solve(obj, init)
        assert result.converged
        assert abs(result.pose.pitch) < 1e-6
        assert abs(result.pose.roll) < 1e-6
        assert result.pose.y == pytest.approx(0.3 + 1.6, abs=1e-6)
        # unconstrained parameters stay put
        assert result.pose.x == pytest.approx(2.0)
        assert result.pose.yaw == pytest.approx(0.4)

    def test_recovers_synthetic_pose(self):
        base, init, truth = synthetic_objective(seed=1)
        result = solve(SolverObjective(base), init)
        assert np.linalg.norm(result.pose.position - truth.position) < 1e-4
        est = result.pose.angles
        want = truth.angles
        assert np.max(np.abs(est - want)) < 1e-5

    def test_already_optimal_fixed_point(self):
        base, _, truth = synthetic_objective(seed=2, displace=(0.0, 0.0))
        obj = SolverObjective(base)
        first = solve(obj, truth)
        again = solve(obj, first.pose)
        assert again.iterations <= 2
        assert np.linalg.norm(again.pose.as_vector() - first.pose.as_vector()) < 1e-7

    def test_cost_never_worse_than_init(self):
        base, init, _ = synthetic_objective(seed=3)
        obj = SolverObjective(base)
        r0 = obj.residual_and_jacobian(init)[0]
        result = solve(obj, init)
        assert result.final_cost <= float(r0 @ r0)

    def test_monotone_accepted_costs(self):
        base, init, _ = synthetic_objective(seed=4)
        result = solve(SolverObjective(base), init)
        trace = result.cost_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        base, init, _ = synthetic_objective(seed=5)
        a = solve(SolverObjective(base), init)
        b = solve(SolverObjective(base), init)
        assert a.cost_trace == b.cost_trace
        assert a.pose.as_vector().tobytes() == b.pose.as_vector().tobytes()

    def test_residual_scale_does_not_move_argmin(self):
        base, init, _ = synthetic_objective(seed=6)

        class Scaled:
            def __init__(self, inner, k):
                self.inner, self.k = inner, k

            def residual_and_jacobian(self, pose):
                r, jac = self.inner.residual_and_jacobian(pose)
                return self.k * r, self.k * jac

        obj = SolverObjective(base)
        a = solve(obj, init)
        b = solve(Scaled(obj, 7.5), init)
        assert np.linalg.norm(a.pose.as_vector() - b.pose.as_vector()) < 1e-6

    def test_one_evaluation_per_pose(self, monkeypatch):
        class Recording:
            """Only the one method of the objective contract; records
            every pose it is asked to evaluate."""

            def __init__(self, inner):
                self.inner, self.poses = inner, []

            def residual_and_jacobian(self, pose):
                self.poses.append(pose.as_vector().tobytes())
                return self.inner.residual_and_jacobian(pose)

        class Rosenbrock:
            """r = (10 (y - x^2), 1 - x): from (-1.2, 1) the curved valley
            makes the solver reject some of its steps."""

            def residual_and_jacobian(self, pose):
                jac = np.zeros((2, 6))
                jac[0, 0], jac[0, 1], jac[1, 0] = -20.0 * pose.x, 10.0, -1.0
                return np.array([10.0 * (pose.y - pose.x ** 2),
                                 1.0 - pose.x]), jac

        candidates = []

        class CountingPose(CameraPose):
            """solve builds each candidate step with from_vector."""

            @classmethod
            def from_vector(cls, v):
                candidates.append(v)
                return super().from_vector(v)

        monkeypatch.setattr(solver, "CameraPose", CountingPose)
        base, init, _ = synthetic_objective(seed=9, displace=(2.0, 4.0))
        for inner, start, rejects in (
                (Rosenbrock(), CameraPose(-1.2, 1.0, 0), True),
                (SolverObjective(base), init, False)):
            candidates.clear()
            obj = Recording(inner)
            result = solve(obj, start)
            assert result.converged
            accepted = len(result.cost_trace) - 1
            assert (len(candidates) > accepted) is rejects
            assert obj.poses[0] == start.as_vector().tobytes()
            assert len(obj.poses) == 1 + len(candidates)
            assert len(set(obj.poses)) == len(obj.poses)

    @pytest.mark.parametrize("settings, reason", [
        ({}, TerminationReason.STEP_TOLERANCE),
        ({"STEP_TOLERANCE": 0.0}, TerminationReason.COST_TOLERANCE),
        ({"MAX_ITERATIONS": 2}, TerminationReason.MAX_ITERATIONS),
        # Without tolerances the solve ends only when rejected steps drive
        # the damping past its cap, so the last pose evaluated is a
        # rejected candidate, not the returned pose.
        ({"STEP_TOLERANCE": 0.0, "COST_TOLERANCE": 0.0},
         TerminationReason.MAX_DAMPING),
    ])
    def test_gate_residual_reuses_final_projection(self, monkeypatch,
                                                    settings, reason):
        for name, value in settings.items():
            monkeypatch.setattr(solver, name, value)
        base, init, _ = synthetic_objective(seed=0, displace=(2.0, 4.0))
        objective = SolverObjective(base)
        evaluated = []

        class Recording:
            def residual_and_jacobian(self, pose):
                evaluated.append(pose)
                return objective.residual_and_jacobian(pose)

        fit = solve(Recording(), init)
        assert fit.termination_reason is reason
        assert (evaluated[-1] is fit.pose) is (
            reason is not TerminationReason.MAX_DAMPING)
        kernel_calls = []
        kernel = objective._kernel
        monkeypatch.setattr(objective, "_kernel",
                            lambda pose: kernel_calls.append(pose) or kernel(pose))
        got = objective.residual(fit.pose)
        assert kernel_calls == []
        assert np.array_equal(got, base.residual(fit.pose))
        # A pose the solve never evaluated is projected afresh, and is not
        # kept: asking again projects it again.
        other = CameraPose.from_vector(fit.pose.as_vector())
        assert np.array_equal(objective.residual(other), got)
        assert np.array_equal(objective.residual(other), got)
        assert len(kernel_calls) == 2

    def test_singular_geometry_raises(self):
        class Degenerate:
            def residual(self, pose):
                return np.array([1.0])  # constant, no gradient anywhere

            def residual_and_jacobian(self, pose):
                return self.residual(pose), np.zeros((1, 6))

        # zero Jacobian + a constant residual: step collapses to zero and
        # the solver converges by step tolerance without moving
        result = solve(Degenerate(), CameraPose(0, 0, 0))
        assert result.termination_reason is TerminationReason.STEP_TOLERANCE

        class Exploding:
            def residual(self, pose):
                return np.array([math.inf])

            def residual_and_jacobian(self, pose):
                return self.residual(pose), np.full((1, 6), math.nan)

        with pytest.raises(SingularNormalEquations):
            solve(Exploding(), CameraPose(0, 0, 0))

    def test_iteration_cap(self):
        class Steep:
            """r = x**10. Each step shrinks x by about a tenth, so the cost
            drops by about 88 % per step and the step stays far above the
            step tolerance: only the iteration cap ends the solve."""

            def residual(self, pose):
                return np.array([pose.x ** 10])

            def residual_and_jacobian(self, pose):
                jac = np.zeros((1, 6))
                jac[0, 0] = 10.0 * pose.x ** 9
                return self.residual(pose), jac

        result = solve(Steep(), CameraPose(1.0, 0, 0))
        assert result.termination_reason is TerminationReason.MAX_ITERATIONS
        assert result.iterations == MAX_ITERATIONS == 100
        assert result.converged is False
        assert len(result.cost_trace) == MAX_ITERATIONS + 1


class TestCostLandscape:
    def test_grid_minimum_at_center(self):
        base, _, truth = synthetic_objective(seed=7, displace=(0.0, 0.0))
        a_vals, b_vals, grid = cost_landscape(base, truth, "x", "z", 1.0, 1.0, 5)
        assert grid.shape == (5, 5)
        imin = np.unravel_index(np.argmin(grid), grid.shape)
        assert imin == (2, 2)
        assert a_vals[2] == pytest.approx(truth.x)
        assert b_vals[2] == pytest.approx(truth.z)

    def test_single_point_constant_along_bearing(self, intrinsics):
        from semloc.camera import PoseTransform, project_point
        from semloc.features import DetectedPoint
        from semloc.mapmodel import PointLandmark, PreselectedSet, SemanticClass

        pose = CameraPose(0, 1.6, 0)
        p = np.array([15.0, 1.6, 0.0])  # straight down the travel axis
        uv = project_point(p, PoseTransform.of(pose), intrinsics)
        sel = PreselectedSet([], [PointLandmark(p, SemanticClass.TRAFFIC_SIGN,
                                                0.7, 0, 0)])
        det = [DetectedPoint(uv, SemanticClass.TRAFFIC_SIGN)]
        obj = ReprojectionObjective(sel, [], det, CorrespondenceSet([], [(0, 0)]),
                                    intrinsics, ResidualConfig(), None)
        _, _, grid = cost_landscape(obj, pose, "x", "z", 4.0, 1.0, 9)
        # moving along the bearing (the x axis here) leaves the cost flat
        center_row = grid[:, 4]
        assert np.allclose(center_row, center_row[0], atol=1e-9)
        # moving laterally does not
        assert grid[4, 0] > 1.0

    def test_dimension_validation(self):
        base, _, truth = synthetic_objective(seed=8)
        with pytest.raises(ValueError):
            cost_landscape(base, truth, "x", "x", 1, 1, 3)
        with pytest.raises(ValueError):
            cost_landscape(base, truth, "bogus", "z", 1, 1, 3)
        with pytest.raises(ValueError):
            cost_landscape(base, truth, "x", "z", 1, 1, 1)
