import warnings

import numpy as np
import pytest
from scipy import ndimage

from semloc import features
from semloc.features import (DetectedLine, DetectedPoint, ExtractionConfig,
                             SemanticMask, _read_pgm, _sample_pairs,
                             extract_features, fit_region_line,
                             read_mask_files, region_centroid, region_grow,
                             threshold_level, write_mask_files)
from semloc.mapmodel import SemanticClass

POLE = SemanticClass.POLE_LIKE
SIGN = SemanticClass.TRAFFIC_SIGN


def reference_region_grow(binary, min_region_px=30):
    """Full-raster labeling with one full-raster pass per region."""
    labels, count = ndimage.label(np.asarray(binary) != 0,
                                  structure=np.ones((3, 3), dtype=bool))
    regions = []
    for index in range(1, count + 1):
        pixels = np.argwhere(labels == index)
        if pixels.shape[0] >= min_region_px:
            regions.append(pixels)
    regions.sort(key=lambda px: (int(px[0, 0]), int(px[0, 1])))
    return regions


def reference_pca_line(pts):
    """Centroid and top scatter eigenvector, x positive (y on a tie)."""
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered)
    direction = eigvecs[:, int(np.argmax(eigvals))]
    if direction[0] < 0 or (direction[0] == 0 and direction[1] < 0):
        direction = -direction
    return centroid, direction


def reference_fit_region_line(region, semantic, inlier_tol=2.0,
                              iterations=100, seed=0, min_inlier_ratio=0.5):
    """RANSAC line fit scoring one sampled pair at a time."""
    pts = np.asarray(region)[:, ::-1].astype(float)
    n = pts.shape[0]
    if n < 2:
        return None
    if n * (n - 1) // 2 <= iterations:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(iterations):
            i, j = rng.choice(n, size=2, replace=False)
            pairs.append((int(i), int(j)))
    best_count = -1
    best_mask = None
    for i, j in pairs:
        direction = pts[j] - pts[i]
        norm = float(np.hypot(direction[0], direction[1]))
        if norm < 1e-9:
            continue
        direction = direction / norm
        offsets = pts - pts[i]
        dist = np.abs(offsets[:, 0] * direction[1]
                      - offsets[:, 1] * direction[0])
        mask = dist <= inlier_tol
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
    if best_mask is None:
        return None
    centroid, direction = reference_pca_line(pts[best_mask])
    offsets = pts - centroid
    dist = np.abs(offsets[:, 0] * direction[1] - offsets[:, 1] * direction[0])
    inliers = pts[dist <= inlier_tol]
    support = inliers.shape[0]
    if support < 2 or support / n < min_inlier_ratio:
        return None
    centroid, direction = reference_pca_line(inliers)
    t = (inliers - centroid) @ direction
    m1 = centroid + t.min() * direction
    m2 = centroid + t.max() * direction
    if float(np.linalg.norm(m2 - m1)) < 1e-6:
        return None
    return DetectedLine(m1, m2, semantic, support)


def assert_same_regions(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def assert_same_line(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.m1.tobytes() == want.m1.tobytes()
    assert got.m2.tobytes() == want.m2.tobytes()
    assert got.support == want.support and got.semantic is want.semantic


def mask_of(raster, semantic=POLE):
    h, w = raster.shape
    return SemanticMask(w, h, {semantic: raster})


class TestThresholdLevel:
    def test_all_below_threshold(self):
        raster = np.full((20, 30), 13, dtype=np.uint8)  # probability 0.051
        assert (raster >= threshold_level(0.1)).sum() == 0

    def test_all_above_threshold(self):
        raster = np.full((20, 30), 128, dtype=np.uint8)  # probability 0.502
        assert (raster >= threshold_level(0.1)).sum() == 20 * 30

    def test_strictly_greater(self):
        raster = np.full((5, 5), 51, dtype=np.uint8)  # exactly 0.2
        assert (raster >= threshold_level(0.2)).sum() == 0

    def test_matches_probability_comparison(self):
        levels = np.arange(256, dtype=np.uint8)
        probability = np.arange(256) / 255.0
        exact = probability[1:-1]
        thresholds = np.concatenate([
            np.random.default_rng(0).uniform(0.0, 1.0, 2000), exact,
            np.nextafter(exact, 0.0), np.nextafter(exact, 1.0)])
        for t in thresholds[(thresholds > 0.0) & (thresholds < 1.0)]:
            level = threshold_level(t)
            assert type(level) is int and 1 <= level <= 255
            assert np.array_equal(levels >= level, probability > t), t

    def test_default_threshold_setting(self):
        assert ExtractionConfig().threshold == 0.1

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ValueError):
            threshold_level(threshold)


class TestRegionGrow:
    def test_two_blocks(self):
        binary = np.zeros((50, 80), dtype=np.uint8)
        binary[5:15, 5:15] = 1
        binary[30:40, 50:60] = 1
        regions = region_grow(binary)
        assert len(regions) == 2
        assert {r.shape[0] for r in regions} == {100}
        # ordered by top-left-most pixel
        assert tuple(regions[0][0]) == (5, 5)

    def test_diagonal_chain_is_one_region(self):
        binary = np.zeros((60, 60), dtype=np.uint8)
        for k in range(50):
            binary[k, k] = 1
        regions = region_grow(binary)
        assert len(regions) == 1
        assert regions[0].shape[0] == 50

    def test_noise_floor(self):
        rng = np.random.default_rng(0)
        binary = np.zeros((100, 100), dtype=np.uint8)
        for _ in range(40):  # isolated pixels, each a region of 1 px
            r, c = rng.integers(0, 100, 2)
            binary[r, c] = 1
        assert region_grow(binary, min_region_px=30) == []


class TestRegionGrowOracle:
    """region_grow labels only the foreground's bounding box; it must give
    the same regions, in the same order, as full-raster labeling."""

    @pytest.mark.parametrize("density", [0.002, 0.05, 0.3, 0.6])
    def test_random_rasters(self, density):
        rng = np.random.default_rng(int(density * 1000))
        for _ in range(10):
            h, w = (int(v) for v in rng.integers(5, 120, 2))
            binary = (rng.random((h, w)) < density).astype(np.uint8)
            for min_px in (1, 3, 30):
                assert_same_regions(region_grow(binary, min_px),
                                    reference_region_grow(binary, min_px))

    @pytest.mark.parametrize("edge", ["top", "bottom", "left", "right"])
    def test_region_touching_border(self, edge):
        binary = np.zeros((40, 60), dtype=np.uint8)
        binary[15:25, 20:45] = 1   # interior region, not on any border
        strip = {"top": (slice(0, 3), slice(5, 50)),
                 "bottom": (slice(37, 40), slice(5, 50)),
                 "left": (slice(2, 38), slice(0, 2)),
                 "right": (slice(2, 38), slice(58, 60))}[edge]
        binary[strip] = 1
        regions = region_grow(binary, 1)
        assert len(regions) == 2
        assert_same_regions(regions, reference_region_grow(binary, 1))

    def test_all_zero(self):
        binary = np.zeros((30, 40), dtype=np.uint8)
        assert region_grow(binary, 1) == []
        assert reference_region_grow(binary, 1) == []
        assert region_grow(np.zeros((30, 0), dtype=np.uint8), 1) == []

    def test_single_full_box_region(self):
        binary = np.ones((17, 23), dtype=np.uint8)
        regions = region_grow(binary, 1)
        assert len(regions) == 1 and regions[0].shape == (17 * 23, 2)
        assert_same_regions(regions, reference_region_grow(binary, 1))

    def test_level_matches_thresholded_raster(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            h, w = (int(v) for v in rng.integers(5, 120, 2))
            raster = rng.integers(0, 256, (h, w), dtype=np.uint8)
            raster[rng.random((h, w)) < 0.7] = 0
            for level in (1, 26, 128, 255):
                assert_same_regions(
                    region_grow(raster, 3, level),
                    reference_region_grow(raster >= level, 3))

    def test_bool_raster(self):
        binary = np.zeros((30, 40), dtype=bool)
        binary[3:9, 10:30] = True
        binary[20, 5:35] = True
        assert_same_regions(region_grow(binary, 1),
                            reference_region_grow(binary, 1))

    def test_nested_bounding_boxes(self):
        # A ring around an island: the island's box lies inside the ring's,
        # so each region must be read from its own labels, not its box.
        binary = np.zeros((30, 30), dtype=np.uint8)
        binary[5:25, 5:25] = 1
        binary[7:23, 7:23] = 0
        binary[12:18, 12:18] = 1
        assert_same_regions(region_grow(binary, 1),
                            reference_region_grow(binary, 1))


class TestFitRegionLineOracle:
    """fit_region_line scores its models in blocks; it must return the line
    the one-pair-at-a-time loop returns, bit for bit."""

    def noisy_strip(self, rng, n_line, n_scatter):
        xs = rng.uniform(10, 400, n_line)
        ys = rng.uniform(0.2, 3.0) * xs + rng.uniform(-1.5, 1.5, n_line)
        scatter = rng.uniform(0, 400, (n_scatter, 2))
        pixels = np.vstack([np.column_stack([ys, xs]), scatter])
        return np.unique(np.rint(pixels).astype(np.intp), axis=0)

    def test_sampled_path(self):
        rng = np.random.default_rng(7)
        for seed in range(40):
            region = self.noisy_strip(rng, int(rng.integers(20, 300)),
                                      int(rng.integers(0, 80)))
            assert region.shape[0] * (region.shape[0] - 1) // 2 > 100
            assert_same_line(fit_region_line(region, POLE, seed=seed),
                             reference_fit_region_line(region, POLE, seed=seed))

    def test_exhaustive_path(self):
        rng = np.random.default_rng(8)
        for n in range(2, 15):  # n(n-1)/2 <= 100 for every n here
            region = self.noisy_strip(rng, n, 0)[:n]
            assert_same_line(fit_region_line(region, POLE),
                             reference_fit_region_line(region, POLE))

    def test_tie_goes_to_first_model(self):
        # Two equal parallel strips: every pair inside either strip scores
        # the same count, and the first pair lies in the upper strip.
        region = np.array([(r, c) for r in (10, 60) for c in range(20)])
        kwargs = dict(iterations=1000, min_inlier_ratio=0.5)
        line = fit_region_line(region, POLE, **kwargs)
        assert_same_line(line, reference_fit_region_line(region, POLE, **kwargs))
        assert line.m1[1] == pytest.approx(10) and line.m2[1] == pytest.approx(10)

    def test_coincident_pixels_give_no_model(self):
        region = np.array([(4, 9)] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fit on an empty inlier set
            assert fit_region_line(region, POLE) is None
        assert reference_fit_region_line(region, POLE) is None

    def test_no_iterations_gives_no_model(self):
        region = np.array([(r, 3) for r in range(40)])
        assert fit_region_line(region, POLE, iterations=0) is None
        assert reference_fit_region_line(region, POLE, iterations=0) is None

    def test_repeated_pixels_are_skipped_models(self):
        region = np.array([(4, 9)] * 8 + [(r, 2 * r) for r in range(5, 60)])
        for seed in range(5):
            assert_same_line(fit_region_line(region, POLE, seed=seed),
                             reference_fit_region_line(region, POLE, seed=seed))

    def test_region_larger_than_one_block(self):
        rng = np.random.default_rng(9)
        region = self.noisy_strip(rng, 3000, 400)
        assert region.shape[0] * 100 > features._SCORE_BLOCK_ELEMENTS
        for seed in range(3):
            assert_same_line(fit_region_line(region, POLE, seed=seed),
                             reference_fit_region_line(region, POLE, seed=seed))

    def test_region_larger_than_block_budget(self):
        # Fewer than one model fits the budget: every block holds one model.
        region = np.argwhere(np.ones((5, features._SCORE_BLOCK_ELEMENTS // 5 + 7)))
        assert_same_line(fit_region_line(region, POLE),
                         reference_fit_region_line(region, POLE))


def reference_pairs(n, iterations, seed):
    rng = np.random.default_rng(seed)
    return np.array([rng.choice(n, size=2, replace=False)
                     for _ in range(iterations)], dtype=np.intp).reshape(-1, 2)


@pytest.fixture
def choice_calls(monkeypatch):
    """Records each Generator.choice call made through np.random.default_rng."""
    calls = []
    real_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._rng = real_rng(seed)
            self.bit_generator = self._rng.bit_generator

        def choice(self, *args, **kwargs):
            calls.append(args)
            return self._rng.choice(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    return calls


class TestSamplePairs:
    """_sample_pairs must give the pairs of repeated rng.choice calls."""

    SEEDS = [(0, 0, 0), (0, 2, 5), (7, 1, 3), 12345, (3, 0, 41)]
    ITERATIONS = (0, 1, 2, 37, 100, 1000)

    def assert_pairs(self, n, iterations, seed, want):
        first, second = _sample_pairs(n, iterations, seed)
        assert first.dtype == second.dtype == np.intp
        assert np.array_equal(np.column_stack([first, second]),
                              want[:iterations]), (n, iterations, seed)

    def test_every_small_population(self):
        # The first k calls of a 100-call loop are the k-call loop.
        for n in range(3, 2001):
            seed = self.SEEDS[n % len(self.SEEDS)]
            want = reference_pairs(n, 100, seed)
            for iterations in (0, 1, 2, 37, 100):
                self.assert_pairs(n, iterations, seed, want)

    @pytest.mark.parametrize("n", [3, 4, 5, 17, 256, 1999, 2000, 10001,
                                   12345, 65536, 99991])
    def test_every_iteration_count(self, n):
        for seed in self.SEEDS:
            want = reference_pairs(n, max(self.ITERATIONS), seed)
            for iterations in self.ITERATIONS:
                self.assert_pairs(n, iterations, seed, want)

    def test_one_draw_from_the_bit_generator(self, choice_calls):
        first, second = _sample_pairs(300, 100, (0, 1, 2))
        assert choice_calls == [] and first.size == 100

    def test_rejected_draw_falls_back_to_choice(self, choice_calls):
        # For n = 3·2^30 Lemire's method rejects a quarter of the 32-bit
        # words, so 100 pairs (300 words) all but surely include one.
        n = 3 << 30
        for seed in self.SEEDS:
            want = reference_pairs(n, 100, seed)
            choice_calls.clear()
            self.assert_pairs(n, 100, seed, want)
            assert len(choice_calls) == 100

    @pytest.mark.parametrize("n", [(1 << 32) + 5, 1 << 40])
    def test_population_beyond_32_bits_falls_back(self, n, choice_calls):
        for seed in self.SEEDS:
            want = reference_pairs(n, 37, seed)
            choice_calls.clear()
            self.assert_pairs(n, 37, seed, want)
            assert len(choice_calls) == 37


class TestFitRegionLine:
    def test_perfect_vertical_strip(self):
        binary = np.zeros((200, 200), dtype=np.uint8)
        binary[50:151, 100] = 1
        region = region_grow(binary)[0]
        line = fit_region_line(region, POLE)
        assert line is not None
        got = sorted([tuple(line.m1), tuple(line.m2)], key=lambda p: p[1])
        assert got[0] == pytest.approx((100, 50), abs=1.0)
        assert got[1] == pytest.approx((100, 150), abs=1.0)
        assert line.support == 101

    def test_noisy_strip_monte_carlo(self):
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pixels = {(y, 100) for y in range(50, 151)}
            for _ in range(10):  # 10% scatter in a 20 px band around the strip
                y = int(rng.integers(50, 151))
                x = int(100 + rng.integers(-10, 11))
                pixels.add((y, x))
            region = np.array(sorted(pixels))
            line = fit_region_line(region, POLE, seed=seed)
            assert line is not None
            got = sorted([line.m1, line.m2], key=lambda p: p[1])
            errs.append(max(np.linalg.norm(got[0] - [100, 50]),
                            np.linalg.norm(got[1] - [100, 150])))
        assert np.percentile(errs, 95) <= 3.0

    def test_filled_square_is_not_a_line(self):
        binary = np.zeros((100, 100), dtype=np.uint8)
        binary[20:70, 20:70] = 1
        region = region_grow(binary)[0]
        assert fit_region_line(region, POLE) is None

    def test_support_consistent_with_reported_line(self):
        rng = np.random.default_rng(3)
        checked = 0
        for seed in range(20):
            n = 80
            xs = rng.uniform(10, 190, n)
            ys = 0.4 * xs + 20 + rng.uniform(-1.5, 1.5, n)
            region = np.unique(np.column_stack([np.rint(ys), np.rint(xs)])
                               .astype(int), axis=0)
            line = fit_region_line(region, POLE, seed=seed)
            if line is None:
                continue
            checked += 1
            d = line.m2 - line.m1
            d = d / np.linalg.norm(d)
            pts = region[:, ::-1].astype(float)
            dist = np.abs((pts[:, 0] - line.m1[0]) * d[1]
                          - (pts[:, 1] - line.m1[1]) * d[0])
            # support counts exactly the pixels within the inlier tolerance
            # of the reported line
            assert line.support == int((dist <= 2.0).sum())
        assert checked >= 15


class TestRegionCentroid:
    def test_block(self):
        pixels = np.array([(r, c) for r in range(10, 13) for c in range(10, 13)])
        pt = region_centroid(pixels, SIGN)
        assert np.allclose(pt.m, [11, 11])
        assert pt.support == 9

    def test_single_pixel(self):
        pt = region_centroid(np.array([[7, 5]]), SIGN)
        assert np.allclose(pt.m, [5, 7])

    def test_l_shape_matches_direct_mean(self):
        pixels = [(r, 4) for r in range(4, 14)] + [(13, c) for c in range(5, 12)]
        pixels = np.array(pixels)
        pt = region_centroid(pixels, SIGN)
        assert pt.m[0] == pytest.approx(pixels[:, 1].mean())
        assert pt.m[1] == pytest.approx(pixels[:, 0].mean())


class TestExtractFeatures:
    def make_mask(self, shift=(0, 0)):
        dy, dx = shift
        pole = np.zeros((240, 320), dtype=np.uint8)
        pole[40 + dy:140 + dy, 60 + dx:63 + dx] = 255
        sign = np.zeros((240, 320), dtype=np.uint8)
        yy, xx = np.mgrid[0:240, 0:320]
        sign[(xx - 200 - dx) ** 2 + (yy - 80 - dy) ** 2 <= 25] = 255
        return SemanticMask(320, 240, {POLE: pole, SIGN: sign})

    def test_composition(self):
        lines, points = extract_features(self.make_mask())
        assert len(lines) == 1 and lines[0].semantic is POLE
        assert len(points) == 1 and points[0].semantic is SIGN
        assert points[0].m == pytest.approx([200, 80], abs=0.5)

    def test_translation_equivariance(self):
        base_lines, base_points = extract_features(self.make_mask())
        lines, points = extract_features(self.make_mask(shift=(13, 21)))
        assert np.allclose(lines[0].m1, base_lines[0].m1 + [21, 13])
        assert np.allclose(lines[0].m2, base_lines[0].m2 + [21, 13])
        assert np.allclose(points[0].m, base_points[0].m + [21, 13])

    def test_missing_class_is_empty(self):
        mask = self.make_mask()
        del mask.channels[SIGN]
        lines, points = extract_features(mask)
        assert len(lines) == 1 and lines[0].semantic is POLE
        assert points == []

    def test_deterministic(self):
        a_lines, a_points = extract_features(self.make_mask())
        b_lines, b_points = extract_features(self.make_mask())
        assert a_lines[0].m1.tobytes() == b_lines[0].m1.tobytes()
        assert a_lines[0].m2.tobytes() == b_lines[0].m2.tobytes()
        assert a_points[0].m.tobytes() == b_points[0].m.tobytes()


class TestMaskFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        raster = rng.integers(0, 256, size=(37, 53), dtype=np.uint8)
        mask = SemanticMask(53, 37, {POLE: raster})
        written = write_mask_files(tmp_path, 12, mask)
        assert [p.name for p in written] == ["000012_POLE.pgm"]
        back = read_mask_files(tmp_path, 12)
        assert back.width == 53 and back.height == 37
        assert back.channels[POLE].dtype == np.uint8
        assert np.array_equal(back.channels[POLE], raster)

    def test_blank_line_between_header_comments(self, tmp_path):
        header = b"P5\n# one\n\n# two\n2 1\n255\n"
        (tmp_path / "000003_POLE.pgm").write_bytes(header + bytes([0, 255]))
        back = read_mask_files(tmp_path, 3)
        assert (back.width, back.height) == (2, 1)
        assert back.channels[POLE].tolist() == [[0, 255]]

    def test_comment_right_after_token(self, tmp_path):
        header = b"P5# magic\n3#w\n1\n# max\n255\n"
        (tmp_path / "000004_POLE.pgm").write_bytes(header + bytes([51, 0, 255]))
        back = read_mask_files(tmp_path, 4)
        assert back.channels[POLE].tolist() == [[51, 0, 255]]

    def test_missing_frame(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_mask_files(tmp_path, 99)

    def test_only_present_classes(self, tmp_path):
        raster = np.full((3, 4), 200, dtype=np.uint8)
        write_mask_files(tmp_path, 5, SemanticMask(4, 3, {POLE: raster,
                                                          SIGN: raster}))
        (tmp_path / "notes.pgm").write_bytes(b"not a mask")
        back = read_mask_files(tmp_path, 5)
        assert set(back.channels) == {POLE, SIGN}


class TestReadPgm:
    def read(self, tmp_path, content):
        path = tmp_path / "000001_POLE.pgm"
        path.write_bytes(content)
        return _read_pgm(path)

    def test_pixels(self, tmp_path):
        pixels = self.read(tmp_path, b"P5\n3 2\n255\n" + bytes(range(6)))
        assert pixels.dtype == np.uint8
        assert pixels.tolist() == [[0, 1, 2], [3, 4, 5]]

    def test_truncated_header(self, tmp_path):
        with pytest.raises(ValueError, match="000001_POLE.pgm: truncated PGM header"):
            self.read(tmp_path, b"P5\n3 2\n")

    def test_truncated_pixel_data(self, tmp_path):
        with pytest.raises(ValueError, match="000001_POLE.pgm: truncated pixel data"):
            self.read(tmp_path, b"P5\n3 2\n255\n" + bytes(5))

    def test_ascii_pgm(self, tmp_path):
        with pytest.raises(ValueError, match="expected 8-bit binary PGM"):
            self.read(tmp_path, b"P2\n3 2\n255\n0 1 2 3 4 5\n")

    @pytest.mark.parametrize("size", [b"-3 2", b"3 -2", b"ab 2", b"3 2.5"])
    def test_bad_size(self, tmp_path, size):
        with pytest.raises(ValueError, match="width and height"):
            self.read(tmp_path, b"P5\n" + size + b"\n255\n" + bytes(12))

    def test_16_bit_pgm(self, tmp_path):
        with pytest.raises(ValueError, match="expected 8-bit binary PGM"):
            self.read(tmp_path, b"P5\n3 2\n65535\n" + bytes(12))


class TestDetectionTypes:
    def test_line_rejects_coincident_endpoints(self):
        with pytest.raises(ValueError):
            DetectedLine([5, 5], [5, 5], POLE)

    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DetectedPoint([np.nan, 0], SIGN)

    def test_mask_shape_validation(self):
        with pytest.raises(ValueError):
            SemanticMask(10, 10, {POLE: np.zeros((5, 5), dtype=np.uint8)})
        with pytest.raises(ValueError):
            SemanticMask(5, 5, {POLE: np.zeros((5, 5))})
