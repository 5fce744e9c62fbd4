"""Geometric feature extraction from per-class semantic masks.

A class channel is the 8-bit raster the mask files store, probability
× 255. Pipeline per class: threshold the raster to a binary image, split
it into 8-connected regions, then fit each region with a RANSAC line
(line-shaped classes) or take its centroid (point-shaped classes). Pixel
coordinates are (x = column, y = row) with integer coordinates at pixel
centers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .mapmodel import SemanticClass

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)
# RANSAC models are scored in blocks of at most this many model-pixel
# distances, so a large region cannot raise peak memory.
_SCORE_BLOCK_ELEMENTS = 1 << 16


@dataclass(eq=False)
class SemanticMask:
    """Per-class uint8 rasters of one frame, probability × 255."""

    width: int
    height: int
    channels: dict = field(default_factory=dict)

    def __post_init__(self):
        for cls, raster in self.channels.items():
            if not isinstance(raster, np.ndarray) or raster.dtype != np.uint8:
                raise ValueError(f"{cls} raster must be a uint8 array")
            if raster.shape != (self.height, self.width):
                raise ValueError(
                    f"{cls} raster shape {raster.shape} does not match "
                    f"({self.height}, {self.width})")


@dataclass(frozen=True, eq=False)
class DetectedLine:
    """2D line feature with its semantic class and inlier support."""

    m1: np.ndarray
    m2: np.ndarray
    semantic: SemanticClass
    support: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m1", np.asarray(self.m1, dtype=float))
        object.__setattr__(self, "m2", np.asarray(self.m2, dtype=float))
        if float(np.linalg.norm(self.m2 - self.m1)) < 1e-6:
            raise ValueError("detected line endpoints coincide")


@dataclass(frozen=True, eq=False)
class DetectedPoint:
    """2D point feature (region centroid) with its semantic class."""

    m: np.ndarray
    semantic: SemanticClass
    support: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))
        if not np.all(np.isfinite(self.m)):
            raise ValueError("detected point must be finite")


@dataclass(frozen=True)
class ExtractionConfig:
    threshold: float = 0.1        # binarization probability cutoff
    min_region_px: int = 30       # regions below this are noise
    ransac_iterations: int = 100
    inlier_tol_px: float = 2.0
    min_inlier_ratio: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")


def binarize(mask: SemanticMask, semantic: SemanticClass,
             threshold: float = 0.1) -> np.ndarray:
    """Boolean raster: True where the class probability (level / 255)
    strictly exceeds ``threshold``, decided exactly by comparing levels
    with the smallest level whose probability exceeds the threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    raster = mask.channels.get(semantic)
    if raster is None:
        return np.zeros((mask.height, mask.width), dtype=bool)
    return raster >= np.count_nonzero(np.arange(256) / 255.0 <= threshold)


def region_grow(binary: np.ndarray, min_region_px: int = 30) -> list:
    """8-connected components of a binary raster, small ones discarded.

    Returns (n, 2) arrays of (row, col) pixels in raster-scan order;
    regions are ordered by their top-left-most pixel.

    Labeling runs on the bounding box of the foreground only, and each
    region's pixels are read from its own bounding-box slice.
    """
    foreground = np.asarray(binary) != 0
    rows = np.flatnonzero(foreground.any(axis=1))
    if rows.size == 0:
        return []
    top, bottom = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(foreground[top:bottom].any(axis=0))
    left, right = int(cols[0]), int(cols[-1]) + 1
    box = foreground[top:bottom, left:right]
    labels, _ = ndimage.label(box, structure=_EIGHT_CONNECTED)
    regions = []
    for index, (row_slice, col_slice) in enumerate(
            ndimage.find_objects(labels), start=1):
        pixels = np.argwhere(labels[row_slice, col_slice] == index)
        if pixels.shape[0] >= min_region_px:
            pixels += (top + row_slice.start, left + col_slice.start)
            regions.append(pixels)
    regions.sort(key=lambda px: (int(px[0, 0]), int(px[0, 1])))
    return regions


def fit_region_line(region: np.ndarray, semantic: SemanticClass,
                    inlier_tol: float = 2.0, iterations: int = 100,
                    seed=0, min_inlier_ratio: float = 0.5) -> DetectedLine | None:
    """RANSAC line fit over a pixel region.

    Samples 2-pixel models, keeps the one with the most pixels within
    ``inlier_tol`` perpendicular distance, refits it by total least squares
    on the inliers, and reports the extreme inlier projections as the
    endpoints. None when the best inlier ratio falls below
    ``min_inlier_ratio`` (the region is a blob, not a line).

    Models are scored a block at a time as a (models, pixels) distance
    array; the first model with the most inliers wins.
    """
    pts = np.asarray(region)[:, ::-1].astype(float)  # (x, y) per pixel
    n = pts.shape[0]
    if n < 2:
        return None

    if n * (n - 1) // 2 <= iterations:
        first, second = np.triu_indices(n, 1)
    else:
        rng = np.random.default_rng(seed)
        first, second = np.array(
            [rng.choice(n, size=2, replace=False) for _ in range(iterations)],
            dtype=np.intp).reshape(-1, 2).T

    direction = pts[second] - pts[first]
    norm = np.hypot(direction[:, 0], direction[:, 1])
    valid = norm >= 1e-9
    if not valid.any():
        return None
    first = first[valid]
    direction = direction[valid] / norm[valid, None]
    block = max(1, _SCORE_BLOCK_ELEMENTS // n)
    counts = np.concatenate([
        np.count_nonzero(
            _line_distances(pts, pts[first[k:k + block]],
                            direction[k:k + block]) <= inlier_tol, axis=1)
        for k in range(0, first.size, block)])
    best = int(np.argmax(counts))
    best_mask = _line_distances(
        pts, pts[first[best:best + 1]], direction[best:best + 1])[0] <= inlier_tol

    # Least-squares refit on the winning inliers, then one re-gating pass
    # against the refit line so support and endpoints are consistent.
    centroid, direction = _pca_line(pts[best_mask])
    dist = _line_distances(pts, centroid[None], direction[None])[0]
    inliers = pts[dist <= inlier_tol]
    support = inliers.shape[0]
    if support < 2 or support / n < min_inlier_ratio:
        return None
    centroid, direction = _pca_line(inliers)
    t = (inliers - centroid) @ direction
    m1 = centroid + t.min() * direction
    m2 = centroid + t.max() * direction
    if float(np.linalg.norm(m2 - m1)) < 1e-6:
        return None
    return DetectedLine(m1, m2, semantic, support)


def _line_distances(pts: np.ndarray, anchors: np.ndarray,
                    directions: np.ndarray) -> np.ndarray:
    """(models, pixels) perpendicular distances of ``pts`` to the lines
    through ``anchors`` along the unit ``directions``."""
    dx = pts[:, 0] - anchors[:, 0, None]
    dy = pts[:, 1] - anchors[:, 1, None]
    return np.abs(dx * directions[:, 1, None] - dy * directions[:, 0, None])


def _pca_line(pts: np.ndarray):
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(cov)
    direction = eigvecs[:, int(np.argmax(eigvals))]
    if direction[0] < 0 or (direction[0] == 0 and direction[1] < 0):
        direction = -direction
    return centroid, direction


def region_centroid(region: np.ndarray, semantic: SemanticClass) -> DetectedPoint:
    """Arithmetic mean of the region's pixel coordinates."""
    pixels = np.asarray(region, dtype=float)
    if pixels.shape[0] == 0:
        raise ValueError("empty region")
    mean = pixels.mean(axis=0)
    return DetectedPoint(mean[::-1], semantic, support=pixels.shape[0])


def extract_features(mask: SemanticMask,
                     config: ExtractionConfig = ExtractionConfig()):
    """Full per-frame extraction. Returns (detected lines, detected points).

    Classes are processed in enum order and regions in top-left order, with
    a per-region RNG stream, so the output is reproducible bit for bit for
    a fixed seed.
    """
    det_lines, det_points = [], []
    for class_index, semantic in enumerate(SemanticClass):
        if semantic not in mask.channels:
            continue
        binary = binarize(mask, semantic, config.threshold)
        for region_index, region in enumerate(
                region_grow(binary, config.min_region_px)):
            if semantic.is_line_shaped:
                line = fit_region_line(
                    region, semantic,
                    inlier_tol=config.inlier_tol_px,
                    iterations=config.ransac_iterations,
                    seed=(config.rng_seed, class_index, region_index),
                    min_inlier_ratio=config.min_inlier_ratio)
                if line is not None:
                    det_lines.append(line)
            else:
                det_points.append(region_centroid(region, semantic))
    return det_lines, det_points


# --- mask files ---------------------------------------------------------
# One 8-bit binary PGM per class per frame, probability scaled by 255,
# named <frame>_<class>.pgm.

# One header token, after any whitespace and whole-line comments.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]+)")


def write_mask_files(directory, frame_id: int, mask: SemanticMask) -> list:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for semantic in SemanticClass:
        raster = mask.channels.get(semantic)
        if raster is None:
            continue
        path = directory / f"{frame_id:06d}_{semantic.value}.pgm"
        with open(path, "wb") as fh:
            fh.write(f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii"))
            fh.write(raster.tobytes())
        written.append(path)
    return written


def read_mask_files(directory, frame_id: int) -> SemanticMask:
    directory = Path(directory)
    channels = {}
    width = height = None
    for path in sorted(directory.glob(f"{frame_id:06d}_*.pgm")):
        tag = re.match(rf"{frame_id:06d}_(.+)\.pgm", path.name).group(1)
        raster = _read_pgm(path)
        channels[SemanticClass(tag)] = raster
        height, width = raster.shape
    if not channels:
        raise FileNotFoundError(
            f"no mask files for frame {frame_id} in {directory}")
    return SemanticMask(width, height, channels)


def _read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        match = _PGM_TOKEN.match(data, pos)
        if match is None:
            raise ValueError(f"{path}: truncated PGM header")
        tokens.append(match.group(1))
        pos = match.end()
    if tokens[0] != b"P5" or tokens[3] != b"255":
        raise ValueError(f"{path}: expected 8-bit binary PGM")
    width, height = int(tokens[1]), int(tokens[2])
    pixels = np.frombuffer(data[pos + 1:pos + 1 + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(height, width)
