import gc
import math
import os
import sys
import warnings

import numpy as np
import pytest
from scipy import ndimage

from semloc import features
from semloc.features import (THRESHOLD, DetectedLine, DetectedPoint,
                             SemanticMask, _read_pgm, _sample_pairs,
                             _THRESHOLD_LEVEL, extract_features,
                             fit_region_line, read_mask_files,
                             region_centroid, region_grow, write_mask_files)
from semloc.mapmodel import SemanticClass, principal_axis
from semloc.synthworld import WorldConfig, generate_world, render_masks

POLE = SemanticClass.POLE_LIKE
SIGN = SemanticClass.TRAFFIC_SIGN
LANE = SemanticClass.LANE_LINE
MILESTONE = SemanticClass.MILESTONE


def grow_one(raster, *args, **kwargs):
    """region_grow over one raster, as the list of its regions."""
    pairs = region_grow([raster], *args, **kwargs)
    assert all(owner == 0 for owner, _ in pairs)
    return [pixels for _, pixels in pairs]


def reference_region_grow(binary, min_region_px=30):
    """Full-raster ndimage labeling; each label's pixels are gathered by a
    stable sort of the raster-order foreground on its label."""
    labels, count = ndimage.label(np.asarray(binary) != 0,
                                  structure=np.ones((3, 3), dtype=bool))
    owner = labels[labels != 0]
    order = np.argsort(owner, kind="stable")
    bounds = np.cumsum(np.bincount(owner, minlength=count + 1)[1:])[:-1]
    regions = [pixels for pixels in np.split(np.argwhere(labels)[order],
                                             bounds)
               if pixels.shape[0] >= min_region_px]
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


def reference_pairs(n):
    """The pairs of the module's pair table for a region of n pixels, one
    row at a time: first = floor(u n), and second the floor(v (n - 1))-th
    of the other pixels."""
    pairs = []
    for u, v in features._PAIR_TABLE.tolist():
        i, j = math.floor(u * n), math.floor(v * (n - 1))
        pairs.append((i, j + (j >= i)))
    return pairs


def reference_inlier_masks(pts, inlier_tol=2.0):
    """Per pair of the table, the inlier mask of its model over the (x, y)
    ``pts``; None where the pair's pixels coincide."""
    masks = []
    for i, j in reference_pairs(pts.shape[0]):
        direction = pts[j] - pts[i]
        norm = float(np.hypot(direction[0], direction[1]))
        if norm < 1e-9:
            masks.append(None)
            continue
        direction = direction / norm
        offsets = pts - pts[i]
        dist = np.abs(offsets[:, 0] * direction[1]
                      - offsets[:, 1] * direction[0])
        masks.append(dist <= inlier_tol)
    return masks


def reference_model_counts(region):
    """Inlier count of each table model over a (row, col) region, -1 where
    its pair coincides."""
    pts = np.asarray(region)[:, ::-1].astype(float)
    return [-1 if mask is None else int(mask.sum())
            for mask in reference_inlier_masks(pts)]


def reference_fit_region_line(region, semantic, inlier_tol=2.0,
                              min_inlier_ratio=0.5):
    """RANSAC line fit scoring one table pair at a time."""
    pts = np.asarray(region)[:, ::-1].astype(float)
    n = pts.shape[0]
    if n < 2:
        return None
    best_count = -1
    best_mask = None
    for mask in reference_inlier_masks(pts, inlier_tol):
        if mask is not None and int(mask.sum()) > best_count:
            best_count = int(mask.sum())
            best_mask = mask
    if best_mask is None:
        return None
    centroid, direction = reference_pca_line(pts[best_mask])
    offsets = pts - centroid
    dist = np.abs(offsets[:, 0] * direction[1] - offsets[:, 1] * direction[0])
    inliers = pts[dist <= inlier_tol]
    count = inliers.shape[0]
    if count < 2 or count / n < min_inlier_ratio:
        return None
    centroid, direction = reference_pca_line(inliers)
    t = (inliers - centroid) @ direction
    m1 = centroid + t.min() * direction
    m2 = centroid + t.max() * direction
    if float(np.linalg.norm(m2 - m1)) < 1e-6:
        return None
    return DetectedLine(m1, m2, semantic)


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
    assert got.semantic is want.semantic


def mask_of(raster, semantic=POLE):
    return SemanticMask({semantic: raster})


class TestThresholdLevel:
    def test_all_below_threshold(self):
        raster = np.full((20, 30), 13, dtype=np.uint8)  # probability 0.051
        assert (raster >= _THRESHOLD_LEVEL).sum() == 0

    def test_all_above_threshold(self):
        raster = np.full((20, 30), 128, dtype=np.uint8)  # probability 0.502
        assert (raster >= _THRESHOLD_LEVEL).sum() == 20 * 30

    def test_matches_probability_comparison(self):
        levels = np.arange(256, dtype=np.uint8)
        probability = np.arange(256) / 255.0
        assert type(_THRESHOLD_LEVEL) is int
        assert np.array_equal(levels >= _THRESHOLD_LEVEL,
                              probability > THRESHOLD)

    def test_default_threshold_setting(self):
        assert THRESHOLD == 0.1


class TestRegionGrow:
    def test_two_blocks(self):
        binary = np.zeros((50, 80), dtype=np.uint8)
        binary[5:15, 5:15] = 1
        binary[30:40, 50:60] = 1
        regions = grow_one(binary)
        assert len(regions) == 2
        assert {r.shape[0] for r in regions} == {100}
        # ordered by top-left-most pixel
        assert tuple(regions[0][0]) == (5, 5)

    def test_diagonal_chain_is_one_region(self):
        binary = np.zeros((60, 60), dtype=np.uint8)
        for k in range(50):
            binary[k, k] = 1
        regions = grow_one(binary)
        assert len(regions) == 1
        assert regions[0].shape[0] == 50

    def test_noise_floor(self):
        rng = np.random.default_rng(0)
        binary = np.zeros((100, 100), dtype=np.uint8)
        for _ in range(40):  # isolated pixels, each a region of 1 px
            r, c = rng.integers(0, 100, 2)
            binary[r, c] = 1
        assert grow_one(binary, min_region_px=30) == []


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
                assert_same_regions(grow_one(binary, min_px),
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
        regions = grow_one(binary, 1)
        assert len(regions) == 2
        assert_same_regions(regions, reference_region_grow(binary, 1))

    def test_all_zero(self):
        binary = np.zeros((30, 40), dtype=np.uint8)
        assert grow_one(binary, 1) == []
        assert reference_region_grow(binary, 1) == []
        assert grow_one(np.zeros((30, 0), dtype=np.uint8), 1) == []

    def test_single_full_box_region(self):
        binary = np.ones((17, 23), dtype=np.uint8)
        regions = grow_one(binary, 1)
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
                    grow_one(raster, 3, level),
                    reference_region_grow(raster >= level, 3))

    def test_bool_raster(self):
        binary = np.zeros((30, 40), dtype=bool)
        binary[3:9, 10:30] = True
        binary[20, 5:35] = True
        assert_same_regions(grow_one(binary, 1),
                            reference_region_grow(binary, 1))

    def test_nested_bounding_boxes(self):
        # A ring around an island: the island's box lies inside the ring's,
        # so each region must be read from its own labels, not its box.
        binary = np.zeros((30, 30), dtype=np.uint8)
        binary[5:25, 5:25] = 1
        binary[7:23, 7:23] = 0
        binary[12:18, 12:18] = 1
        assert_same_regions(grow_one(binary, 1),
                            reference_region_grow(binary, 1))


class TestRegionGrowRasters:
    """region_grow labels several rasters in one pass; it must give each
    raster's regions, rasters in the order given, as labeling each raster
    on its own does."""

    def rasters(self):
        rng = np.random.default_rng(21)
        rasters = [rng.integers(0, 256, (h, w), dtype=np.uint8)
                   * (rng.random((h, w)) < density)
                   for (h, w), density in [((40, 90), 0.5), ((17, 5), 0.9),
                                           ((64, 64), 0.1), ((3, 120), 0.8)]]
        rasters.insert(2, np.zeros((50, 70), dtype=np.uint8))
        # A full last row, then a full first row: only the background row
        # between their boxes keeps them apart.
        bottom = np.zeros((30, 200), dtype=np.uint8)
        bottom[-1] = 255
        bottom[5:12, 40:45] = 255
        top = np.zeros((20, 60), dtype=np.uint8)
        top[0] = top[10] = 255
        return rasters + [bottom, top]

    @pytest.mark.parametrize("level", [1, 26, 200])
    @pytest.mark.parametrize("min_px", [1, 3, 30])
    def test_matches_per_raster_reference(self, min_px, level):
        rasters = self.rasters()
        got = region_grow(rasters, min_px, level)
        want = [(index, pixels) for index, raster in enumerate(rasters)
                for pixels in reference_region_grow(raster >= level, min_px)]
        assert [owner for owner, _ in got] == [owner for owner, _ in want]
        assert_same_regions([pixels for _, pixels in got],
                            [pixels for _, pixels in want])
        assert all(pixels.dtype == np.intp for _, pixels in got)

    def test_boxes_do_not_touch(self):
        got = region_grow(self.rasters()[-2:], 1)
        assert [(owner, len(pixels)) for owner, pixels in got] == [
            (0, 35), (0, 200), (1, 60), (1, 60)]

    def test_no_foreground(self):
        assert region_grow([]) == []
        blank = np.zeros((4, 4), dtype=np.uint8)
        assert region_grow([blank, blank[:, :0], blank], 1) == []


# Full-size rasters (the 370 x 1226 image) built to stress the labeler:
# long chains of runs in one row after another, many merges, and regions
# that touch only diagonally.
HEIGHT, WIDTH = 370, 1226


def comb(teeth_up):
    raster = np.zeros((HEIGHT, WIDTH), dtype=np.uint8)
    raster[:, ::2] = 1
    raster[-1 if teeth_up else 0] = 1
    return raster


def serpentine(vertical):
    raster = np.zeros((HEIGHT, WIDTH), dtype=np.uint8)
    if vertical:
        raster[:, ::2] = 1
        raster[-1, 1::4] = 1
        raster[0, 3::4] = 1
    else:
        raster[::2] = 1
        raster[1::4, -1] = 1
        raster[3::4, 0] = 1
    return raster


def square_spiral():
    # One path winding inwards, rings two pixels apart.
    raster = np.zeros((HEIGHT, WIDTH), dtype=np.uint8)
    top, left, bottom, right = 0, 0, HEIGHT - 1, WIDTH - 1
    while top + 2 <= bottom and left + 2 <= right:
        raster[top, left:right + 1] = 1
        raster[top:bottom + 1, right] = 1
        raster[bottom, left:right + 1] = 1
        raster[top + 2:bottom + 1, left] = 1
        raster[top + 2, left:left + 3] = 1
        top, left, bottom, right = top + 2, left + 2, bottom - 2, right - 2
    return raster


def checkerboard():
    rows, cols = np.indices((HEIGHT, WIDTH))
    return ((rows + cols) % 2 == 0).astype(np.uint8)


def diagonal_x():
    raster = np.zeros((HEIGHT, WIDTH), dtype=np.uint8)
    cols = np.arange(WIDTH)
    rows = cols * (HEIGHT - 1) // (WIDTH - 1)
    raster[rows, cols] = 1
    raster[HEIGHT - 1 - rows, cols] = 1
    return raster


def random_fill(fraction):
    rng = np.random.default_rng(int(fraction * 100))
    return (rng.random((HEIGHT, WIDTH)) < fraction).astype(np.uint8)


def box_edges():
    # A plus that touches all four edges of the raster, a blob on each
    # edge, and a ring whose hole holds an island.
    raster = np.zeros((HEIGHT, WIDTH), dtype=np.uint8)
    raster[180:190] = 1
    raster[:, 600:610] = 1
    raster[0:4, 100:300] = raster[-3:, 900:1100] = 1
    raster[20:80, 0:2] = raster[300:350, -5:] = 1
    raster[40:140, 700:900] = 1
    raster[50:130, 710:890] = 0
    raster[80:100, 780:800] = 1
    return raster


def diagonal_chains():
    # Staircases in both directions, touching only at corners.
    rows, cols = np.indices((HEIGHT, WIDTH))
    return (((rows + cols) % 7 == 0) | ((cols - rows) % 11 == 0)
            ).astype(np.uint8)


def single_pixels():
    raster = np.zeros((HEIGHT, WIDTH), dtype=np.uint8)
    raster[::2, ::2] = 1
    return raster


ADVERSARIAL = {
    "comb_teeth_down": lambda: comb(False),
    "comb_teeth_up": lambda: comb(True),
    "serpentine_rows": lambda: serpentine(False),
    "serpentine_columns": lambda: serpentine(True),
    "square_spiral": square_spiral,
    "checkerboard": checkerboard,
    "diagonal_x": diagonal_x,
    "random_fill_0.3": lambda: random_fill(0.3),
    "random_fill_0.55": lambda: random_fill(0.55),
    "box_edges": box_edges,
    "diagonal_chains": diagonal_chains,
    "single_pixels": single_pixels,
}


class TestRegionGrowFullRasters:
    """region_grow labels runs of pixels; on full-size rasters it must give
    exactly the regions of ndimage's pixel labeling."""

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("min_px", [1, 30])
    def test_matches_ndimage(self, name, min_px):
        binary = ADVERSARIAL[name]()
        regions = grow_one(binary, min_px)
        assert_same_regions(regions, reference_region_grow(binary, min_px))
        assert all(r.dtype == np.intp for r in regions)

    def test_single_pixel_regions(self):
        binary = single_pixels()
        regions = grow_one(binary, 1)
        assert len(regions) == np.count_nonzero(binary)
        assert all(r.shape == (1, 2) for r in regions)
        assert grow_one(binary, 2) == []

    def test_spiral_is_one_region(self):
        binary = square_spiral()
        regions = grow_one(binary, 1)
        assert len(regions) == 1
        assert regions[0].shape[0] == np.count_nonzero(binary)

    @pytest.mark.parametrize("level", [1, 26, 128, 255])
    def test_levels_either_side(self, level):
        rng = np.random.default_rng(level)
        values = np.array([max(level - 1, 0), level, min(level + 1, 255)],
                          dtype=np.uint8)
        raster = values[rng.integers(0, 3, (HEIGHT, WIDTH))]
        raster[rng.random((HEIGHT, WIDTH)) < 0.4] = 0
        for min_px in (1, 30):
            regions = grow_one(raster, min_px, level)
            assert_same_regions(regions,
                                reference_region_grow(raster >= level, min_px))
            assert all(r.dtype == np.intp for r in regions)

    def test_bool_raster(self):
        binary = random_fill(0.45).astype(bool)
        for min_px in (1, 30):
            regions = grow_one(binary, min_px)
            assert_same_regions(regions, reference_region_grow(binary, min_px))
            assert all(r.dtype == np.intp for r in regions)


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
        for _ in range(40):
            region = self.noisy_strip(rng, int(rng.integers(20, 300)),
                                      int(rng.integers(0, 80)))
            assert_same_line(fit_region_line(region, POLE),
                             reference_fit_region_line(region, POLE))

    def test_small_regions(self):
        # Fewer pixel pairs than table rows: pairs repeat.
        rng = np.random.default_rng(8)
        for n in range(2, 15):
            region = self.noisy_strip(rng, n, 0)[:n]
            assert_same_line(fit_region_line(region, POLE),
                             reference_fit_region_line(region, POLE))

    def test_tie_goes_to_first_model(self):
        # Two equal parallel strips: every pair inside either strip scores
        # the same count, and the first pair lies in the upper strip.
        region = np.array([(r, c) for r in (10, 60) for c in range(20)])
        first, second = reference_pairs(len(region))[0]
        assert region[first, 0] == region[second, 0] == 10
        line = fit_region_line(region, POLE)
        assert_same_line(line, reference_fit_region_line(region, POLE))
        assert line.m1[1] == pytest.approx(10) and line.m2[1] == pytest.approx(10)

    def test_tie_across_blocks_goes_to_first_model(self):
        # Two equal vertical strips, pixels alternating between them in
        # raster order: the first block's best model lies in the left
        # strip, and the next block has a model as good in the right one.
        region = np.array([(r, c) for r in range(20) for c in (10, 60)])
        counts = reference_model_counts(region)
        pairs = reference_pairs(len(region))
        most = max(counts)
        assert counts.index(most) < features._FIRST_BLOCK_MODELS
        assert region[pairs[counts.index(most)][0], 1] == 10
        assert any(counts[k] == most and region[pairs[k][0], 1] == 60
                   for k in range(features._FIRST_BLOCK_MODELS, len(counts)))
        line = fit_region_line(region, POLE)
        assert_same_line(line, reference_fit_region_line(region, POLE))
        assert line.m1[0] == pytest.approx(10) and line.m2[0] == pytest.approx(10)

    def test_coincident_pixels_give_no_model(self):
        region = np.array([(4, 9)] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fit on an empty inlier set
            assert fit_region_line(region, POLE) is None
        assert reference_fit_region_line(region, POLE) is None

    def test_repeated_pixels_are_skipped_models(self):
        for repeats in (8, 20, 40):
            region = np.array([(4, 9)] * repeats
                              + [(r, 2 * r) for r in range(5, 60)])
            pairs = reference_pairs(len(region))
            assert any(i < repeats and j < repeats for i, j in pairs)
            assert_same_line(fit_region_line(region, POLE),
                             reference_fit_region_line(region, POLE))

    def test_region_larger_than_one_block(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            region = self.noisy_strip(rng, 3000, 400)
            assert region.shape[0] * 100 > features._SCORE_BLOCK_ELEMENTS
            assert_same_line(fit_region_line(region, POLE),
                             reference_fit_region_line(region, POLE))

    def test_region_larger_than_block_budget(self):
        # Fewer than one model fits the budget: every block holds one model.
        region = np.argwhere(np.ones((5, features._SCORE_BLOCK_ELEMENTS // 5 + 7)))
        assert_same_line(fit_region_line(region, POLE),
                         reference_fit_region_line(region, POLE))

    def stroke_region(self, length, slope):
        raster = np.zeros((length + 10, int(slope * length) + 20),
                          dtype=np.uint8)
        stroke(raster, 5, 10, length, slope)
        (region,) = grow_one(raster)
        return region

    def first_all_inlier_model(self, region):
        counts = reference_model_counts(region)
        return counts.index(len(region)) if len(region) in counts else None

    def counted_refits(self, monkeypatch):
        """The sizes of the point sets ``fit_region_line`` refits, in call
        order."""
        refits = []
        monkeypatch.setattr(features, "principal_axis",
                            lambda pts: refits.append(len(pts))
                            or principal_axis(pts))
        return refits

    def test_clean_stroke_stops_in_first_block(self, monkeypatch):
        # Its winner and the refit line keep every pixel: one refit.
        region = self.stroke_region(60, 0.5)
        assert self.first_all_inlier_model(region) < features._FIRST_BLOCK_MODELS
        refits = self.counted_refits(monkeypatch)
        assert_same_line(fit_region_line(region, POLE),
                         reference_fit_region_line(region, POLE))
        assert refits == [len(region)]

    def test_all_inlier_model_past_first_block(self):
        # 270 pixels: blocks of 8, then 30 models; model 56 is the first
        # that keeps every pixel, in the third block.
        region = self.stroke_region(90, 0.2)
        assert len(region) == 270
        assert features._SCORE_BLOCK_ELEMENTS // len(region) == 30
        assert self.first_all_inlier_model(region) == 56
        assert_same_line(fit_region_line(region, POLE),
                         reference_fit_region_line(region, POLE))

    def test_refit_that_drops_pixels_is_refit_again(self, monkeypatch):
        # A 3-row band and a short row two pixels above it: the model along
        # the band's top row keeps every pixel, but the refit line runs
        # through the band's middle, more than 2 px from the short row.
        region = np.array(sorted([(r, c) for r in (10, 11, 12)
                                  for c in range(60)]
                                 + [(8, c) for c in range(27, 33)]))
        n = len(region)
        assert max(reference_model_counts(region)) == n
        pts = region[:, ::-1].astype(float)
        centroid, direction = reference_pca_line(pts)
        offsets = pts - centroid
        dist = np.abs(offsets[:, 0] * direction[1]
                      - offsets[:, 1] * direction[0])
        assert np.count_nonzero(dist <= features.INLIER_TOL) == n - 6
        refits = self.counted_refits(monkeypatch)
        assert_same_line(fit_region_line(region, POLE),
                         reference_fit_region_line(region, POLE))
        assert refits == [n, n - 6]

    def test_noisy_strip_without_all_inlier_model(self):
        region = self.noisy_strip(np.random.default_rng(10), 200, 40)
        assert max(reference_model_counts(region)) < len(region)
        assert_same_line(fit_region_line(region, POLE),
                         reference_fit_region_line(region, POLE))


class TestFitRegionLineStops:
    """Scoring stops at the block holding the first model that keeps every
    pixel; a region without one scores every model."""

    def scored_models(self, monkeypatch, region):
        scored = []
        line_distances = features._line_distances

        def counting(xs, ys, anchors, *args):
            scored.append(anchors.shape[0])
            return line_distances(xs, ys, anchors, *args)

        monkeypatch.setattr(features, "_line_distances", counting)
        assert fit_region_line(region, POLE) is not None
        return sum(scored)

    def test_clean_stroke_scores_few_models(self, monkeypatch):
        region = TestFitRegionLineOracle().stroke_region(60, 0.5)
        # The first block, then the re-gate against the refit line.
        assert self.scored_models(monkeypatch, region) == \
            features._FIRST_BLOCK_MODELS + 1
        assert features._FIRST_BLOCK_MODELS + 1 < features.RANSAC_ITERATIONS // 10

    def test_stops_after_block_of_first_all_inlier_model(self, monkeypatch):
        # Model 56 of this 270-pixel stroke is the first to keep every
        # pixel, and an earlier block holds one that misses a single pixel:
        # the blocks of 8, 30 and 30 models, then the re-gate.
        region = TestFitRegionLineOracle().stroke_region(90, 0.2)
        counts = reference_model_counts(region)
        assert counts.index(len(region)) == 56
        assert max(counts[:38]) == len(region) - 1
        assert self.scored_models(monkeypatch, region) == 8 + 30 + 30 + 1

    def test_scatter_region_scores_every_model(self, monkeypatch):
        region = TestFitRegionLineOracle().noisy_strip(
            np.random.default_rng(10), 200, 40)
        assert max(reference_model_counts(region)) < len(region)
        # Every model, the winner's inliers again, then the re-gate.
        assert self.scored_models(monkeypatch, region) == \
            features.RANSAC_ITERATIONS + 2


class TestSamplePairs:
    """Every region draws its pairs from the one fixed table."""

    def assert_valid_pairs(self, n):
        first, second = _sample_pairs(n)
        assert first.dtype == second.dtype == np.intp
        assert first.shape == second.shape == (features.RANSAC_ITERATIONS,)
        assert ((0 <= first) & (first < n)).all(), n
        assert ((0 <= second) & (second < n)).all(), n
        assert (first != second).all(), n
        assert list(zip(first.tolist(), second.tolist())) == \
            reference_pairs(n), n

    @pytest.mark.parametrize("n", [2, 3, 30, 453_620, 2 ** 40])
    def test_distinct_indices_in_range(self, n):
        self.assert_valid_pairs(n)
        # The table's largest u and v, at the edge of the region.
        u, v = features._PAIR_TABLE.max(axis=0).tolist()
        assert math.floor(u * n) < n and math.floor(v * (n - 1)) < n - 1

    def test_every_small_population(self):
        for n in range(2, 2001):
            self.assert_valid_pairs(n)

    def test_writes_to_pairs_leave_the_draws_alone(self):
        # Every call returns the same pairs, in arrays of its own.
        first, second = _sample_pairs(500)
        want = first.copy(), second.copy()
        first[:] = 0
        second[:] = 1
        for _ in range(3):
            again = _sample_pairs(500)
            assert np.array_equal(again[0], want[0])
            assert np.array_equal(again[1], want[1])

    def test_extraction_builds_no_generator(self, monkeypatch):
        rng = np.random.default_rng(3)
        milestone = np.zeros((120, 160), dtype=np.uint8)
        noisy_strip(milestone, rng, 10, 30, 90, 0.3)
        noisy_strip(milestone, rng, 15, 110, 80, -0.2)

        def no_rng(*args, **kwargs):
            raise AssertionError("extract_features built a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        lines, _ = extract_features(SemanticMask({MILESTONE: milestone}))
        assert len(lines) == 2


class TestFitRegionLine:
    def test_perfect_vertical_strip(self):
        binary = np.zeros((200, 200), dtype=np.uint8)
        binary[50:151, 100] = 1
        region = grow_one(binary)[0]
        line = fit_region_line(region, POLE)
        assert line is not None
        got = sorted([tuple(line.m1), tuple(line.m2)], key=lambda p: p[1])
        assert got[0] == pytest.approx((100, 50), abs=1.0)
        assert got[1] == pytest.approx((100, 150), abs=1.0)

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
            line = fit_region_line(region, POLE)
            assert line is not None
            got = sorted([line.m1, line.m2], key=lambda p: p[1])
            errs.append(max(np.linalg.norm(got[0] - [100, 50]),
                            np.linalg.norm(got[1] - [100, 150])))
        assert np.percentile(errs, 95) <= 3.0

    def test_filled_square_is_not_a_line(self):
        binary = np.zeros((100, 100), dtype=np.uint8)
        binary[20:70, 20:70] = 1
        region = grow_one(binary)[0]
        assert fit_region_line(region, POLE) is None


class TestRegionCentroid:
    def test_block(self):
        pixels = np.array([(r, c) for r in range(10, 13) for c in range(10, 13)])
        pt = region_centroid(pixels, SIGN)
        assert np.allclose(pt.m, [11, 11])

    def test_single_pixel(self):
        pt = region_centroid(np.array([[7, 5]]), SIGN)
        assert np.allclose(pt.m, [5, 7])

    def test_l_shape_matches_direct_mean(self):
        pixels = [(r, 4) for r in range(4, 14)] + [(13, c) for c in range(5, 12)]
        pixels = np.array(pixels)
        pt = region_centroid(pixels, SIGN)
        assert pt.m[0] == pytest.approx(pixels[:, 1].mean())
        assert pt.m[1] == pytest.approx(pixels[:, 0].mean())


def stroke(raster, row, col, length, slope):
    """A 3 px wide strip at level 255 going down ``length`` rows from (row,
    col), the stroke ``render_masks`` draws for a line."""
    for k in range(length):
        c = int(round(col + slope * k))
        raster[row + k, c - 1:c + 2] = 255


def noisy_strip(raster, rng, row, col, length, slope):
    """A ``stroke`` with two speckles of random level per row up to 5 px
    either side."""
    stroke(raster, row, col, length, slope)
    for k in range(length):
        r, c = row + k, int(round(col + slope * k))
        for _ in range(2):
            dc = int(rng.integers(-5, 6))
            raster[r, c + dc] = max(raster[r, c + dc],
                                    int(rng.integers(26, 256)))


class TestExtractFeatures:
    def make_mask(self, shift=(0, 0)):
        dy, dx = shift
        pole = np.zeros((240, 320), dtype=np.uint8)
        pole[40 + dy:140 + dy, 60 + dx:63 + dx] = 255
        sign = np.zeros((240, 320), dtype=np.uint8)
        yy, xx = np.mgrid[0:240, 0:320]
        sign[(xx - 200 - dx) ** 2 + (yy - 80 - dy) ** 2 <= 25] = 255
        return SemanticMask({POLE: pole, SIGN: sign})

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

    def test_matches_per_channel_reference(self):
        # POLE_LIKE absent, a sign blob beside a 3 px speck, an empty lane
        # channel (below the threshold) and two noisy milestone strips,
        # though the milestone channel is the third one labeled and follows
        # a region.
        rng = np.random.default_rng(4)
        sign = np.zeros((120, 160), dtype=np.uint8)
        sign[60:70, 60:72] = 200
        sign[100, 5:8] = 255
        lane = np.full((120, 160), _THRESHOLD_LEVEL - 1,
                       dtype=np.uint8)
        milestone = np.zeros((120, 160), dtype=np.uint8)
        noisy_strip(milestone, rng, 10, 30, 90, 0.3)
        noisy_strip(milestone, rng, 15, 110, 80, -0.2)
        mask = SemanticMask({SIGN: sign, LANE: lane, MILESTONE: milestone})
        lines, points = extract_features(mask)

        want_lines, want_points = [], []
        for semantic in SemanticClass:
            if semantic not in mask.channels:
                continue
            channel = mask.channels[semantic] >= _THRESHOLD_LEVEL
            for region in reference_region_grow(channel):
                if semantic.is_line_shaped:
                    want_lines.append(
                        reference_fit_region_line(region, semantic))
                else:
                    want_points.append(
                        (region.astype(float).mean(axis=0)[::-1], semantic))
        assert len(want_lines) == 2 and len(want_points) == 1
        assert len(lines) == 2
        for got, want in zip(lines, want_lines):
            assert_same_line(got, want)
        assert [(p.m.tobytes(), p.semantic) for p in points] == [
            (m.tobytes(), semantic) for m, semantic in want_points]

    def test_line_depends_only_on_its_pixels(self):
        # One noisy strip, fitted as the only region of its channel, as the
        # second region behind a strip above it, and with other classes in
        # the mask: its line is the same bits every time.
        strip = np.zeros((240, 320), dtype=np.uint8)
        noisy_strip(strip, np.random.default_rng(4), 60, 120, 90, 0.3)
        above = np.zeros_like(strip)
        noisy_strip(above, np.random.default_rng(5), 5, 20, 40, 0.1)
        pole = np.zeros_like(strip)
        noisy_strip(pole, np.random.default_rng(6), 20, 250, 150, -0.1)
        sign = np.zeros_like(strip)
        sign[200:215, 40:60] = 255
        masks = [
            SemanticMask({MILESTONE: strip}),
            SemanticMask({MILESTONE: strip | above}),
            SemanticMask({POLE: pole, SIGN: sign, LANE: above,
                          MILESTONE: strip}),
            SemanticMask({POLE: pole, MILESTONE: strip | above}),
        ]
        got = []
        for mask in masks:
            lines, _ = extract_features(mask)
            milestones = [line for line in lines if line.semantic is MILESTONE]
            got.append(milestones[-1])
        assert len(milestones) == 2
        for line in got[1:]:
            assert_same_line(line, got[0])

    def test_rendered_frames_match_reference(self):
        # The strokes and discs the masks benchmark extracts: the first
        # frames of a default world, each fitted as region_grow, the
        # one-model-at-a-time RANSAC and region_centroid would, bit for bit.
        config = WorldConfig()
        semantic_map, trajectory = generate_world(config)
        n_lines = 0
        for pose in trajectory[:8]:
            mask, _, _ = render_masks(semantic_map, pose, config)
            lines, points = extract_features(mask)
            classes = [semantic for semantic in SemanticClass
                       if semantic in mask.channels]
            want_lines, want_points = [], []
            for owner, region in region_grow(
                    [mask.channels[semantic] for semantic in classes],
                    level=_THRESHOLD_LEVEL):
                semantic = classes[owner]
                if semantic.is_line_shaped:
                    line = reference_fit_region_line(region, semantic)
                    if line is not None:
                        want_lines.append(line)
                else:
                    want_points.append(region_centroid(region, semantic))
            assert len(lines) == len(want_lines)
            for got, want in zip(lines, want_lines):
                assert_same_line(got, want)
            assert [(p.m.tobytes(), p.semantic) for p in points] == [
                (p.m.tobytes(), p.semantic) for p in want_points]
            n_lines += len(lines)
        assert n_lines >= 20


class TestMaskFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        raster = rng.integers(0, 256, size=(37, 53), dtype=np.uint8)
        mask = SemanticMask({POLE: raster})
        written = write_mask_files(tmp_path, 12, mask)
        assert [p.name for p in written] == ["000012_POLE.pgm"]
        back = read_mask_files(tmp_path, 12)
        assert back.channels[POLE].dtype == np.uint8
        assert np.array_equal(back.channels[POLE], raster)

    def test_blank_line_between_header_comments(self, tmp_path):
        header = b"P5\n# one\n\n# two\n2 1\n255\n"
        (tmp_path / "000003_POLE.pgm").write_bytes(header + bytes([0, 255]))
        back = read_mask_files(tmp_path, 3)
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
        write_mask_files(tmp_path, 5, SemanticMask({POLE: raster,
                                                    SIGN: raster}))
        (tmp_path / "notes.pgm").write_bytes(b"not a mask")
        back = read_mask_files(tmp_path, 5)
        assert set(back.channels) == {POLE, SIGN}

    def test_shape_mismatch_names_directory_and_frame(self, tmp_path):
        write_mask_files(tmp_path, 4, SemanticMask(
            {POLE: np.zeros((3, 4), dtype=np.uint8)}))
        write_mask_files(tmp_path, 4, SemanticMask(
            {SIGN: np.zeros((2, 2), dtype=np.uint8)}))
        with pytest.raises(ValueError) as err:
            read_mask_files(tmp_path, 4)
        assert str(err.value) == (f"{tmp_path}, frame 4: mask rasters differ "
                                  f"in shape: [(2, 2), (3, 4)]")


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

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="000001_POLE.pgm: truncated PGM header"):
            self.read(tmp_path, b"")

    def test_read_only_view_outlives_the_file_handle(self, tmp_path,
                                                       monkeypatch):
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(features, "open", recording_open, raising=False)
        pixels = self.read(tmp_path, b"P5\n3 2\n255\n" + bytes(range(6)))
        assert len(handles) == 1 and handles[0].closed
        assert not pixels.flags.writeable
        with pytest.raises(ValueError):
            pixels[0, 0] = 9
        gc.collect()
        assert pixels.tolist() == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or sys.version_info < (3, 13),
                        reason="counts /proc/self/fd; before Python 3.13 "
                        "each mapping keeps a descriptor")
    def test_kept_masks_hold_no_descriptors(self, tmp_path):
        raster = np.zeros((4, 6), dtype=np.uint8)
        for frame_id in range(300):
            write_mask_files(tmp_path, frame_id,
                             SemanticMask({POLE: raster, SIGN: raster}))
        before = len(os.listdir("/proc/self/fd"))
        masks = [read_mask_files(tmp_path, k) for k in range(300)]
        assert len(os.listdir("/proc/self/fd")) - before < 300
        assert all(len(mask.channels) == 2 for mask in masks)

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
            SemanticMask({POLE: np.zeros((5, 5), dtype=np.uint8),
                          SIGN: np.zeros((5, 4), dtype=np.uint8)})
        with pytest.raises(ValueError):
            SemanticMask({POLE: np.zeros((5, 5))})
        with pytest.raises(ValueError):
            SemanticMask({POLE: np.zeros(25, dtype=np.uint8)})


def reference_line_geometry(det):
    """Canonical anchor, direction and length with the expressions the
    residual module used before lines cached their geometry, as the frame
    (anchor x, y, direction x, y, twice the length)."""
    m1, m2 = np.asarray(det.m1, dtype=float), np.asarray(det.m2, dtype=float)
    if tuple(m2) < tuple(m1):
        m1, m2 = m2, m1
    d = m2 - m1
    length = float(np.linalg.norm(d))
    return (*m1.tolist(), *d.tolist(), 2.0 * length)


def geometry_bytes(frame):
    assert len(frame) == 5 and all(type(v) is float for v in frame)
    return np.array(frame).tobytes()


class TestLineGeometry:
    def endpoint_pairs(self):
        rng = np.random.default_rng(5)
        pairs = [rng.uniform(-50.0, 1300.0, (2, 2)) for _ in range(200)]
        # Equal x makes the y coordinate decide the canonical order.
        pairs += [np.array([[7.25, 3.0], [7.25, -1.5]]),
                  np.array([[0.1, 0.2], [0.3, 0.2]])]
        return pairs

    def test_equals_reference_bit_for_bit(self):
        for m1, m2 in self.endpoint_pairs():
            det = DetectedLine(m1, m2, POLE)
            assert geometry_bytes(det.geometry) == \
                geometry_bytes(reference_line_geometry(det))

    def test_endpoint_swap_invariant(self):
        for m1, m2 in self.endpoint_pairs():
            assert geometry_bytes(DetectedLine(m1, m2, POLE).geometry) == \
                geometry_bytes(DetectedLine(m2, m1, POLE).geometry)

    def test_computed_once_and_lazily(self):
        from semloc.pipeline import parse_detections
        frames = parse_detections("F 0 0\nDL POLE 1.5 2.5 3.5 40.5\n"
                                  "DL LANE 9 8 7 6\n")
        lines = frames[0].det_lines
        assert all("geometry" not in vars(det) for det in lines)
        first = lines[0].geometry
        assert lines[0].geometry is first
        assert "geometry" not in vars(lines[1])
