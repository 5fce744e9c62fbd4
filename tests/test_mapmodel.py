import math
import tracemalloc
import warnings

import numpy as np
import pytest

from semloc.mapmodel import (LANE_WINDOW_M, MIN_SIZE_RATIO, DegenerateCluster,
                             LanePolyline, LineLandmark, ParseError,
                             PointLandmark, RoughPose, SemanticClass,
                             SemanticMap, fit_line_landmark,
                             fit_point_landmark, lane_chord, parse_map,
                             preselect, resolvable, serialize_map)
from semloc.synthworld import WorldConfig, generate_world


def scatter_axis_oracle(pts):
    """Principal axis via explicit eigen-decomposition of the 3x3 scatter."""
    pts = np.asarray(pts, dtype=float)
    centered = pts - pts.mean(axis=0)
    w, v = np.linalg.eigh(centered.T @ centered)
    return v[:, np.argmax(w)]


class TestFitLine:
    def test_collinear_points(self):
        lm = fit_line_landmark([(0, 0, 0), (0, 1, 0), (0, 2, 0)],
                               SemanticClass.POLE_LIKE, 0)
        assert np.allclose(lm.p1, [0, 0, 0])
        assert np.allclose(lm.p2, [0, 2, 0])
        assert lm.size_m == pytest.approx(2.0)

    def test_noisy_cluster_against_eigh_oracle(self):
        pts = [(0, 0, 0), (0.01, 1, 0), (-0.01, 2, 0)]
        lm = fit_line_landmark(pts, SemanticClass.POLE_LIKE, 0)
        # endpoint order is canonical (lexicographic); compare as a pair
        errs = sorted([min(np.linalg.norm(lm.p1 - t), np.linalg.norm(lm.p2 - t))
                       for t in (np.array([0, 0, 0]), np.array([0, 2, 0]))])
        assert max(errs) < 0.02
        axis = scatter_axis_oracle(pts)
        fitted = (lm.p2 - lm.p1) / lm.size_m
        assert abs(abs(float(fitted @ axis)) - 1.0) < 1e-9

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateCluster):
            fit_line_landmark([(1, 1, 1), (1, 1, 1)], SemanticClass.POLE_LIKE, 0)

    def test_single_point_degenerate(self):
        with pytest.raises(DegenerateCluster):
            fit_line_landmark([(0, 0, 0)], SemanticClass.POLE_LIKE, 0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3)) * [0.02, 1.5, 0.02]
        a = fit_line_landmark(pts, SemanticClass.POLE_LIKE, 0)
        b = fit_line_landmark(pts[rng.permutation(20)], SemanticClass.POLE_LIKE, 0)
        assert np.allclose(a.p1, b.p1) and np.allclose(a.p2, b.p2)

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = rng.normal(size=(15, 3)) * [0.05, 2.0, 0.05] + rng.normal(size=3)
            angle = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(angle), np.sin(angle)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            shift = rng.normal(size=3) * 5
            a = fit_line_landmark(pts, SemanticClass.POLE_LIKE, 0)
            b = fit_line_landmark(pts @ rot.T + shift, SemanticClass.POLE_LIKE, 0)
            moved = sorted([tuple(rot @ a.p1 + shift), tuple(rot @ a.p2 + shift)])
            got = sorted([tuple(b.p1), tuple(b.p2)])
            assert np.allclose(moved, got, atol=1e-9)


class TestFitPoint:
    def test_two_points(self):
        lm = fit_point_landmark([(0, 0, 0), (2, 0, 0)], SemanticClass.TRAFFIC_SIGN, 0)
        assert np.allclose(lm.p, [1, 0, 0])
        assert lm.size_m == pytest.approx(2.0)

    def test_singleton_floor(self):
        lm = fit_point_landmark([(1, 1, 1)], SemanticClass.TRAFFIC_SIGN, 0)
        assert np.allclose(lm.p, [1, 1, 1])
        assert lm.size_m == pytest.approx(1e-3)

    def test_max_pairwise_against_scan(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(100, 3))
        lm = fit_point_landmark(pts, SemanticClass.TRAFFIC_SIGN, 0)
        best = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                best = max(best, float(np.linalg.norm(pts[i] - pts[j])))
        assert lm.size_m == pytest.approx(best)

    def test_size_bitwise_equal_to_pdist(self):
        # Map files written by compile-map stay byte-identical to the ones
        # scipy's pdist gave.
        from scipy.spatial.distance import pdist
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            pts = (rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-2, 3)
                   + rng.normal(size=3) * 1e3)
            lm = fit_point_landmark(pts, SemanticClass.TRAFFIC_SIGN, 0)
            assert lm.size_m == max(float(pdist(pts).max()), 1e-3)
        # Large enough that the pairs are taken in several row blocks.
        pts = rng.normal(size=(3000, 3)) * 0.3 + rng.normal(size=3) * 1e3
        lm = fit_point_landmark(pts, SemanticClass.TRAFFIC_SIGN, 0)
        assert lm.size_m == float(pdist(pts).max())

    def test_large_cluster_memory_bounded(self):
        # A whole 3000 x 3000 table of pair sums alone is 72 MB.
        pts = np.random.default_rng(12).normal(size=(3000, 3))
        tracemalloc.start()
        try:
            fit_point_landmark(pts, SemanticClass.TRAFFIC_SIGN, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_point_landmark(np.empty((0, 3)), SemanticClass.TRAFFIC_SIGN, 0)


def single_pole_map(size_m, dist_m, road=0):
    pole = LineLandmark([dist_m, 0, 0], [dist_m, size_m, 0],
                        SemanticClass.POLE_LIKE, size_m, road, 0)
    return SemanticMap([pole], [], [])


class TestPreselect:
    def test_ratio_above_threshold_selected(self):
        m = single_pole_map(2.0, 100.0)
        rough = RoughPose([0, 0, 0], [1, 0], 0)
        assert len(preselect(m, rough).lines) == 1

    def test_ratio_at_threshold_excluded(self):
        m = single_pole_map(1.7, 100.0)
        rough = RoughPose([0, 0, 0], [1, 0], 0)
        assert len(preselect(m, rough).lines) == 0

    def test_wrong_road_excluded(self):
        m = single_pole_map(2.0, 100.0, road=3)
        rough = RoughPose([0, 0, 0], [1, 0], 0)
        assert len(preselect(m, rough).lines) == 0

    def test_monotone_in_size(self):
        rough = RoughPose([0, 0, 0], [1, 0], 0)
        rng = np.random.default_rng(8)
        for _ in range(50):
            size = rng.uniform(0.2, 3.0)
            dist = rng.uniform(10, 200)
            small = len(preselect(single_pole_map(size, dist), rough).lines)
            bigger = len(preselect(single_pole_map(size * 1.5, dist), rough).lines)
            assert bigger >= small

    def test_anti_monotone_in_distance(self):
        rough = RoughPose([0, 0, 0], [1, 0], 0)
        rng = np.random.default_rng(12)
        for _ in range(50):
            size = rng.uniform(0.2, 3.0)
            dist = rng.uniform(10, 150)
            near = len(preselect(single_pole_map(size, dist), rough).lines)
            far = len(preselect(single_pole_map(size, dist * 1.5), rough).lines)
            assert far <= near

    def test_lane_window_extraction(self):
        xs = np.arange(0.0, 31.0, 1.0)
        pts = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
        lane = LanePolyline(pts, 0, 7)
        m = SemanticMap([], [], [lane])
        rough = RoughPose([0, 0, 0], [1, 0], 0)
        out = preselect(m, rough)
        assert len(out.lines) == 1
        lm = out.lines[0]
        assert lm.semantic is SemanticClass.LANE_LINE
        assert lm.id == 7
        near, far = LANE_WINDOW_M
        assert lm.p1[0] == pytest.approx(near)
        assert lm.p2[0] == pytest.approx(far)

    def test_lane_window_too_short(self):
        near, far = LANE_WINDOW_M
        rough = RoughPose([0, 0, 0], [1, 0], 0)
        # No vertex but the middle one falls in the window, yet the
        # polyline crosses both ends: the chord is interpolated on it.
        pts = np.array([[0.0, 0, 0], [10.0, 1.0, 2.0], [30.0, 3.0, -2.0]])
        (lm,) = preselect(SemanticMap([], [], [LanePolyline(pts, 0, 1)]),
                          rough).lines
        assert np.allclose(lm.p1, [near, near / 10.0, near / 5.0])
        assert np.allclose(lm.p2, [far, 1.0 + (far - 10.0) / 10.0,
                                   2.0 - (far - 10.0) / 5.0])
        assert lm.size_m == pytest.approx(np.linalg.norm(lm.p2 - lm.p1))
        # A polyline that ends before the far end gives no chord.
        short = np.array([[0.0, 0, 0], [8.0, 0, 0], [far - 0.5, 0, 0]])
        lane = LanePolyline(short, 0, 1)
        assert lane_chord(lane, rough.position, rough.heading) is None
        assert preselect(SemanticMap([], [], [lane]), rough).lines == []

    def test_reversed_polyline_same_chord(self):
        rng = np.random.default_rng(5)
        xs = np.cumsum(rng.uniform(0.5, 9.0, 12)) - 6.0
        pts = np.column_stack([xs, rng.normal(0.0, 0.1, 12),
                               rng.normal(0.0, 0.3, 12)])
        position = np.array([0.3, 1.6, 0.2])
        heading = np.array([math.cos(0.1), math.sin(0.1)])
        ahead = lane_chord(LanePolyline(pts, 0, 1), position, heading)
        behind = lane_chord(LanePolyline(pts[::-1], 0, 1), position, heading)
        assert ahead is not None and ahead.shape == (2, 3)
        np.testing.assert_allclose(behind, ahead, rtol=0.0, atol=1e-12)
        along = (ahead[:, ::2] - position[::2]) @ heading
        assert np.allclose(along, LANE_WINDOW_M)

    def test_same_lane_id_different_points(self):
        xs = np.arange(0.0, 31.0, 1.0)
        flat = np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])
        raised = flat + [0.0, 0.5, 0.0]
        rough = RoughPose([0, 0, 0], [1, 0], 0)
        a = preselect(SemanticMap([], [], [LanePolyline(flat, 0, 4)]), rough)
        b = preselect(SemanticMap([], [], [LanePolyline(raised, 0, 4)]), rough)
        assert a.lines[0].id == b.lines[0].id == 4
        assert a.lines[0].p1[1] == 0.0 and b.lines[0].p1[1] == 0.5


def scalar_resolvable(size_m, anchor, position):
    """The rule one landmark at a time, as a single-vector norm."""
    dist = float(np.linalg.norm(position - anchor))
    return dist > 0 and size_m / dist > MIN_SIZE_RATIO


class TestResolvable:
    def test_matches_scalar_rule(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            position = rng.normal(size=3) * 10.0 ** rng.uniform(-1, 3)
            anchors = position + rng.normal(size=(n, 3)) * rng.uniform(1, 200)
            sizes = rng.uniform(0.05, 4.0, n)
            got = resolvable(sizes, anchors, position).tolist()
            want = [scalar_resolvable(s, a, position)
                    for s, a in zip(sizes, anchors)]
            assert got == want

    def test_ratio_exactly_at_threshold_and_zero_distance(self):
        # 64 is a power of two, so the size is exact and size / distance
        # equals MIN_SIZE_RATIO bit for bit.
        position = np.array([1.0, 2.0, 3.0])
        anchors = [position + [64.0, 0, 0], position + [0, 0, 64.0],
                   position, position + [10.0, 0, 0]]
        sizes = [MIN_SIZE_RATIO * 64.0, np.nextafter(MIN_SIZE_RATIO * 64.0, np.inf),
                 5.0, 2.0]
        assert sizes[0] / 64.0 == MIN_SIZE_RATIO
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = resolvable(sizes, anchors, position).tolist()
        assert got == [False, True, False, True]
        assert got == [scalar_resolvable(s, np.asarray(a), position)
                       for s, a in zip(sizes, anchors)]

    def test_empty(self):
        assert resolvable([], [], np.zeros(3)).shape == (0,)


class TestSerialization:
    def test_empty_map(self):
        m = SemanticMap()
        text = serialize_map(m)
        assert text.strip() == "SEMMAP 1"
        back = parse_map(text)
        assert not (back.lines or back.points or back.lanes)

    def test_paper_scale_size(self):
        m, _ = generate_world(WorldConfig(rng_seed=0))
        assert len(m.lines) == 21
        assert len(m.points) == 5
        assert len(m.lanes) == 2
        assert len(serialize_map(m).encode()) <= 8 * 1024

    def test_malformed_record_line_number(self):
        text = "SEMMAP 1\nL 0 POLE 0 1.0 2.0 3.0 4.0 5.0\n"
        with pytest.raises(ParseError) as err:
            parse_map(text)
        assert err.value.line_no == 2
        assert str(err.value) == "map line 2: L record needs 11 fields, got 9"

    @pytest.mark.parametrize("record", [
        "L 7 POLE 0 nan 0 3 10 2 3 2.0",
        "L 7 POLE 0 10 0 3 10 inf 3 2.0",
        "L 7 POLE 0 10 0 3 10 2 3 inf",
        "P 7 SIGN 0 20 nan -3 0.5",
        "P 7 SIGN 0 20 2 -3 inf",
        "P 7 SIGN 0 20 2 -3 nan",
        "LANE 7 0 2 0 0 0 10 0 -inf",
    ])
    def test_non_finite_record_line_number(self, record):
        # A NaN size or control point never passes preselection and an
        # infinite size always does; either is a malformed map.
        with pytest.raises(ParseError, match="finite") as err:
            parse_map(f"SEMMAP 1\nP 1 SIGN 0 20 2 -3 0.5\n{record}\n")
        assert err.value.line_no == 3

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_map("NOPE 1\n")
        with pytest.raises(ParseError):
            parse_map("")

    def test_bad_class(self):
        with pytest.raises(ParseError):
            parse_map("SEMMAP 1\nP 0 POLE 0 1 2 3 0.5\n")  # POLE is line-shaped

    def test_comments_and_blank_lines(self):
        text = "# header comment\nSEMMAP 1\n\nP 4 SIGN 2 1 2 3 0.5 # trailing\n"
        m = parse_map(text)
        assert len(m.points) == 1
        assert m.points[0].id == 4
        assert m.points[0].road_index == 2

    def test_duplicate_ids_rejected(self):
        text = ("SEMMAP 1\n"
                "P 1 SIGN 0 1 2 3 0.5\n"
                "P 1 SIGN 0 4 5 6 0.5\n")
        with pytest.raises(ParseError):
            parse_map(text)

    def test_roundtrip_random_maps(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            lines, points, lanes = [], [], []
            next_id = 0
            for _ in range(rng.integers(0, 4)):
                p1 = rng.uniform(-100, 100, 3)
                p2 = p1 + rng.uniform(0.1, 5.0, 3)
                lines.append(LineLandmark(p1, p2, SemanticClass.POLE_LIKE,
                                          float(np.linalg.norm(p2 - p1)),
                                          int(rng.integers(0, 3)), next_id))
                next_id += 1
            for _ in range(rng.integers(0, 3)):
                points.append(PointLandmark(rng.uniform(-100, 100, 3),
                                            SemanticClass.TRAFFIC_SIGN,
                                            float(rng.uniform(0.1, 2.0)),
                                            int(rng.integers(0, 3)), next_id))
                next_id += 1
            for _ in range(rng.integers(0, 2)):
                n = int(rng.integers(2, 6))
                pts = np.cumsum(rng.uniform(0.5, 3.0, size=(n, 3)), axis=0)
                lanes.append(LanePolyline(pts, int(rng.integers(0, 3)), next_id))
                next_id += 1
            m = SemanticMap(lines, points, lanes)
            text = serialize_map(m)
            # exact at printed precision: a second pass reproduces the text
            assert serialize_map(parse_map(text)) == text

    def test_roundtrip_preserves_values(self):
        lm = LineLandmark([1.123456789, -2, 3], [1.123456789, 0, 3],
                          SemanticClass.MILESTONE, 2.0, 1, 10)
        m = SemanticMap([lm], [], [])
        back = parse_map(serialize_map(m))
        assert np.allclose(back.lines[0].p1, lm.p1, atol=5e-7)
        assert back.lines[0].semantic is SemanticClass.MILESTONE
        assert back.lines[0].road_index == 1
        assert back.lines[0].id == 10


class TestInvariants:
    def test_rough_pose_normalizes_heading(self):
        rough = RoughPose([0, 0, 0], [3, 4], 0)
        assert np.allclose(rough.heading, [0.6, 0.8])

    def test_rough_pose_rejects_zero_heading(self):
        with pytest.raises(ValueError):
            RoughPose([0, 0, 0], [0, 0], 0)

    def test_line_landmark_rejects_coincident(self):
        with pytest.raises(ValueError):
            LineLandmark([0, 0, 0], [0, 0, 0], SemanticClass.POLE_LIKE, 1.0, 0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        pole, sign = SemanticClass.POLE_LIKE, SemanticClass.TRAFFIC_SIGN
        for make in (
                lambda: LineLandmark([bad, 0, 0], [0, 1, 0], pole, 1.0, 0, 0),
                lambda: LineLandmark([0, 0, 0], [0, 1, bad], pole, 1.0, 0, 0),
                lambda: LineLandmark([0, 0, 0], [0, 1, 0], pole, bad, 0, 0),
                lambda: PointLandmark([0, bad, 0], sign, 1.0, 0, 0),
                lambda: PointLandmark([0, 0, 0], sign, bad, 0, 0),
                lambda: LanePolyline([[0, 0, 0], [1, 0, bad]], 0, 0)):
            with pytest.raises(ValueError, match="finite"):
                make()

    def test_point_class_shape_checked(self):
        with pytest.raises(ValueError):
            PointLandmark([0, 0, 0], SemanticClass.POLE_LIKE, 1.0, 0, 0)
        with pytest.raises(ValueError):
            LineLandmark([0, 0, 0], [0, 1, 0], SemanticClass.TRAFFIC_SIGN, 1.0, 0, 0)
