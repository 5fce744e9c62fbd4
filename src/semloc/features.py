"""Geometric feature extraction from per-class semantic masks.

A class channel is the 8-bit raster the mask files store, probability
× 255. Pipeline per class: threshold the raster at a level, split the
foreground into 8-connected regions, then fit each region with a RANSAC line
(line-shaped classes) or take its centroid (point-shaped classes). Every
region draws its RANSAC pairs from one fixed table, so a region's line
depends only on its pixels. Pixel coordinates are (x = column, y = row)
with integer coordinates at pixel centers.
"""

from __future__ import annotations

import math
import mmap
import os
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .mapmodel import SemanticClass, principal_axis

# RANSAC models are scored in blocks of at most this many model-pixel
# distances, so a large region cannot raise peak memory: each of the two
# float64 buffers a fit scores in is then at most 64 KiB. When every block
# allocated its own temporaries, larger ones got fresh pages from the
# kernel block after block: over 52 masks frames,
# getrusage(RUSAGE_SELF).ru_minflt counted about 560 minor faults per
# frame at 1 << 16 and 450 at 1 << 15, none at 1 << 14 or below, and
# extract_features took about 28 % less time at 1 << 13 or 1 << 14 than
# at 1 << 16. Blocks smaller than 1 << 13 pay more per-block overhead.
_SCORE_BLOCK_ELEMENTS = 1 << 13
# Models in a fit's first block; later blocks fill the budget above. A
# clean stroke has a model that keeps every pixel of its region, and the
# fit stops at the block that holds the first one: in the 242 line regions
# of the 60 frames the masks benchmark renders at seed 0, every region had
# one, the first at table index 0-13 (median 1), 237 of them within the
# first 8.
_FIRST_BLOCK_MODELS = 8
# Probability cutoff of the mask channels, and the smallest 8-bit level
# whose probability (level / 255) strictly exceeds it, so
# ``raster >= _THRESHOLD_LEVEL`` decides the cutoff exactly.
THRESHOLD = 0.1
_THRESHOLD_LEVEL = int(np.count_nonzero(np.arange(256) / 255.0 <= THRESHOLD))
# RANSAC line fit: models tried per region, the inlier distance in pixels,
# and the least inlier share of a region that makes it a line, not a blob.
RANSAC_ITERATIONS = 100
INLIER_TOL = 2.0
MIN_INLIER_RATIO = 0.5
# Row k = 1, 2, ... of the pair table is (0.5 + k (1/g, 1/g²)) mod 1, g the
# plastic number: the R2 low-discrepancy sequence (Roberts 2018), plain
# float arithmetic, so the same table and lines on every numpy version.
_PLASTIC = 1.324717957244746
_PAIR_TABLE = (0.5 + np.arange(1, RANSAC_ITERATIONS + 1)[:, None]
               * np.array([1 / _PLASTIC, 1 / (_PLASTIC * _PLASTIC)])) % 1.0


@dataclass(eq=False)
class SemanticMask:
    """Per-class uint8 rasters of one frame, probability × 255, all of one
    shape."""

    channels: dict = field(default_factory=dict)

    def __post_init__(self):
        shapes = set()
        for cls, raster in self.channels.items():
            if not (isinstance(raster, np.ndarray) and raster.ndim == 2
                    and raster.dtype == np.uint8):
                raise ValueError(f"{cls} raster must be a 2-D uint8 array")
            shapes.add(raster.shape)
        if len(shapes) > 1:
            raise ValueError(f"mask rasters differ in shape: {sorted(shapes)}")


@dataclass(frozen=True, eq=False)
class DetectedLine:
    """2D line feature with its semantic class."""

    m1: np.ndarray
    m2: np.ndarray
    semantic: SemanticClass

    def __post_init__(self):
        object.__setattr__(self, "m1", np.asarray(self.m1, dtype=float))
        object.__setattr__(self, "m2", np.asarray(self.m2, dtype=float))
        if not self.semantic.is_line_shaped:
            raise ValueError(f"{self.semantic} is not a line-shaped class")
        # A NaN or infinite coordinate makes the length NaN or infinite, so
        # one comparison checks both. Python floats, unlike numpy, give
        # inf - inf = nan without a RuntimeWarning.
        (x1, y1), (x2, y2) = self.m1.tolist(), self.m2.tolist()
        if not 1e-6 <= math.hypot(x2 - x1, y2 - y1) < math.inf:
            raise ValueError("detected line endpoints must be finite and "
                             "distinct")

    @cached_property
    def geometry(self) -> tuple:
        """The line's canonical frame as Python floats, computed on first
        use: (anchor x, y, direction x, y, twice the length), where the
        anchor is the lexicographically smaller endpoint and the direction
        runs to the other. Canonical endpoint order makes every distance
        bit-identical under endpoint swaps."""
        m1, m2 = self.m1, self.m2
        if tuple(m2) < tuple(m1):
            m1, m2 = m2, m1
        d = m2 - m1
        return (*m1.tolist(), *d.tolist(), 2.0 * float(np.linalg.norm(d)))


@dataclass(frozen=True, eq=False)
class DetectedPoint:
    """2D point feature (region centroid) with its semantic class."""

    m: np.ndarray
    semantic: SemanticClass

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))
        if self.semantic.is_line_shaped:
            raise ValueError(f"{self.semantic} is not a point-shaped class")
        if not np.all(np.isfinite(self.m)):
            raise ValueError("detected point must be finite")


def region_grow(rasters, min_region_px: int = 30, level: int = 1) -> list:
    """8-connected components of the pixels at or above ``level`` in each
    of ``rasters``, small ones discarded. With the default level a 0/1 or
    bool raster gives its nonzero pixels.

    Returns (raster index, pixels) pairs, rasters in the order given and
    each raster's regions ordered by their top-left-most pixel; pixels is
    an (n, 2) intp array of (row, col) pixels in raster-scan order.

    All rasters are labeled in one pass over one buffer. Only the bounding
    box of each raster's foreground is thresholded; each box keeps its own
    row stride, so the padding is paid per box, not for the union of their
    column spans. Pixels are labeled a run at a time (He, Chao & Suzuki, "A
    run-based two-scan labeling algorithm", IEEE TIP 2008): runs are
    numbered in buffer order, and each run first joins the leftmost run it
    touches in the row above. Its other upper neighbours are joined in
    rounds that jump every run to its root and then hook the larger root
    of each split pair onto the smaller, until no pair is split (Shiloach &
    Vishkin, J. Algorithms 1982). A region's root is then its first run,
    so sorting the runs stably by root lists every region's pixels in
    raster order, regions in raster order and then in top-left order.
    """
    owners, tops, lefts, boxes = [], [], [], []
    for index, raster in enumerate(rasters):
        raster = np.asarray(raster)
        rows = np.flatnonzero(raster.max(axis=1, initial=0) >= level)
        if rows.size == 0:
            continue
        top, bottom = int(rows[0]), int(rows[-1]) + 1
        cols = np.flatnonzero(raster[top:bottom].max(axis=0) >= level)
        left, right = int(cols[0]), int(cols[-1]) + 1
        owners.append(index)
        tops.append(top)
        lefts.append(left)
        boxes.append(raster[top:bottom, left:right])
    if not boxes:
        return []
    # Runs are found in boxes padded with one background pixel at the end of
    # each row, so that none wraps into the next row. Each box follows one
    # background row of its own stride, so that no run of a box's first row
    # touches the box before it; its rows start at offsets[k]. flat holds
    # one more background pixel in front, so flat[p + 1] and flat[p] differ
    # where a run starts at padded position p or ends just before it; the
    # starts and ends alternate.
    heights = np.array([box.shape[0] for box in boxes])
    strides = np.array([box.shape[1] + 1 for box in boxes])
    offsets = np.cumsum((heights + 1) * strides) - heights * strides
    flat = np.zeros(int(offsets[-1] + heights[-1] * strides[-1]) + 1,
                    dtype=bool)
    for box, offset, height, stride in zip(boxes, offsets.tolist(),
                                           heights.tolist(), strides.tolist()):
        flat[offset + 1:offset + 1 + height * stride].reshape(
            height, stride)[:, :-1] = box >= level
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = edges[0::2], edges[1::2]
    run_box = np.searchsorted(offsets, starts, "right") - 1
    stride = strides[run_box]
    # Runs up_first .. up_last - 1 of the row above touch a run, diagonally
    # included: those ending at or after its start and starting at or
    # before its end, in flat positions one stride back. A run hangs from
    # the first of them; runs joined[k] and joined[k] + 1 of one row touch
    # a common run below, so they must share a root too.
    up_first = np.searchsorted(ends, starts - stride, "left")
    up_last = np.searchsorted(starts, ends - stride, "right")
    index = np.arange(starts.size)
    parent = np.where(up_last > up_first, up_first, index)
    joined = _concatenated_ranges(up_first,
                                  np.maximum(up_last - up_first - 1, 0))
    while True:
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
        left_root, right_root = parent[joined], parent[joined + 1]
        split = left_root != right_root
        if not split.any():
            break
        joined = joined[split]
        np.minimum.at(parent, np.maximum(left_root, right_root)[split],
                      np.minimum(left_root, right_root)[split])

    order = np.argsort(parent, kind="stable")
    first = np.flatnonzero(np.diff(parent[order], prepend=-1))
    lengths = (ends - starts)[order]
    sizes = np.add.reduceat(lengths, first)
    kept = sizes >= min_region_px
    keep = np.repeat(kept, np.diff(first, append=order.size))
    runs = order[keep]
    box = run_box[runs]
    run_rows, run_cols = np.divmod(starts[runs] - offsets[box], strides[box])
    lengths = lengths[keep]
    pixels = np.empty((int(lengths.sum()), 2), dtype=np.intp)
    pixels[:, 0] = np.repeat(run_rows + np.array(tops)[box], lengths)
    pixels[:, 1] = _concatenated_ranges(run_cols + np.array(lefts)[box],
                                        lengths)
    bounds = np.cumsum(sizes[kept]).tolist()
    return [(owners[k], pixels[a:b]) for k, a, b in zip(
        run_box[order[first[kept]]].tolist(), [0] + bounds, bounds)]


def _concatenated_ranges(firsts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``firsts[k], firsts[k] + 1, ...``, ``counts[k]`` values for each k,
    concatenated."""
    offsets = np.cumsum(counts) - counts
    return (np.arange(int(counts.sum()))
            + np.repeat(firsts - offsets, counts))


def fit_region_line(region: np.ndarray,
                    semantic: SemanticClass) -> DetectedLine | None:
    """RANSAC line fit over a pixel region.

    Tries the ``RANSAC_ITERATIONS`` 2-pixel models of ``_sample_pairs``,
    keeps the one with the most pixels within ``INLIER_TOL`` pixels of
    perpendicular distance, refits it by total least squares on the
    inliers, and reports the extreme inlier projections as the endpoints.
    None when the best inlier ratio falls below ``MIN_INLIER_RATIO`` (the
    region is a blob, not a line).

    Models are scored a block at a time as a (models, pixels) distance
    array, in two buffers reused from block to block: first
    ``_FIRST_BLOCK_MODELS`` models, then as many as ``_SCORE_BLOCK_ELEMENTS``
    distances hold. The first model with the most inliers wins. No model
    keeps more than every pixel, so scoring stops after the block that
    holds the first model keeping all of them; a region with no such model
    scores every model. When the winner keeps every pixel, the region's
    pixels are its inliers and its distances are not scored again; when
    the re-gate against the refit line keeps every pixel too, that refit
    is the final line, since a second refit would see the same pixels.
    """
    pts = np.asarray(region)[:, ::-1].astype(float)  # (x, y) per pixel
    n = pts.shape[0]
    if n < 2:
        return None

    first, second = _sample_pairs(n)
    direction = pts[second] - pts[first]
    norm = np.hypot(direction[:, 0], direction[:, 1])
    valid = norm >= 1e-9
    if not valid.any():
        return None
    first = first[valid]
    direction = direction[valid] / norm[valid, None]
    block = max(1, _SCORE_BLOCK_ELEMENTS // n)
    xs, ys = np.ascontiguousarray(pts.T)
    out = np.empty((min(block, first.size), n))
    spare = np.empty_like(out)
    best, most = 0, -1
    start, stop = 0, min(_FIRST_BLOCK_MODELS, block)
    while most < n and start < first.size:
        counts = np.count_nonzero(
            _line_distances(xs, ys, pts[first[start:stop]],
                            direction[start:stop], out, spare) <= INLIER_TOL,
            axis=1)
        top = int(np.argmax(counts))
        if counts[top] > most:
            best, most = start + top, int(counts[top])
        start, stop = stop, stop + block
    if most == n:
        winners = pts
    else:
        winners = pts[_line_distances(
            xs, ys, pts[first[best:best + 1]], direction[best:best + 1],
            out, spare)[0] <= INLIER_TOL]

    # Least-squares refit on the winning inliers, then one re-gating pass
    # against the refit line so the inlier count and endpoints agree.
    centroid, direction = principal_axis(winners)
    keep = _line_distances(xs, ys, centroid[None], direction[None],
                           out, spare)[0] <= INLIER_TOL
    count = int(np.count_nonzero(keep))
    if count < 2 or count / n < MIN_INLIER_RATIO:
        return None
    if count == most == n:
        inliers = pts
    else:
        inliers = pts[keep]
        centroid, direction = principal_axis(inliers)
    t = (inliers - centroid) @ direction
    m1 = centroid + t.min() * direction
    m2 = centroid + t.max() * direction
    if float(np.linalg.norm(m2 - m1)) < 1e-6:
        return None
    return DetectedLine(m1, m2, semantic)


def _sample_pairs(n: int) -> tuple:
    """(first, second) intp index arrays of the ``RANSAC_ITERATIONS``
    pixel pairs a region of ``n`` >= 2 pixels tries: row (u, v) of the
    pair table gives first = ⌊u·n⌋ and, among the other n − 1 pixels,
    the ⌊v·(n − 1)⌋-th, so the two indices always differ."""
    first = (_PAIR_TABLE[:, 0] * n).astype(np.intp)
    second = (_PAIR_TABLE[:, 1] * (n - 1)).astype(np.intp)
    second += second >= first
    return first, second


def _line_distances(xs: np.ndarray, ys: np.ndarray, anchors: np.ndarray,
                    directions: np.ndarray, out: np.ndarray,
                    spare: np.ndarray) -> np.ndarray:
    """(models, pixels) perpendicular distances of the pixels (xs, ys) to
    the lines through ``anchors`` along the unit ``directions``, written
    into the first rows of ``out``; ``spare`` is overwritten. Returns
    that view of ``out``."""
    models = anchors.shape[0]
    out, spare = out[:models], spare[:models]
    np.subtract(xs, anchors[:, 0, None], out=out)
    np.multiply(out, directions[:, 1, None], out=out)
    np.subtract(ys, anchors[:, 1, None], out=spare)
    np.multiply(spare, directions[:, 0, None], out=spare)
    np.subtract(out, spare, out=out)
    return np.abs(out, out=out)


def region_centroid(region: np.ndarray, semantic: SemanticClass) -> DetectedPoint:
    """Arithmetic mean of the region's pixel coordinates."""
    pixels = np.asarray(region, dtype=float)
    if pixels.shape[0] == 0:
        raise ValueError("empty region")
    mean = pixels.mean(axis=0)
    return DetectedPoint(mean[::-1], semantic)


def extract_features(mask: SemanticMask):
    """Full per-frame extraction. Returns (detected lines, detected points).

    Channels are cut at ``THRESHOLD``, and one ``region_grow`` call with
    its default region size labels them all. Detections come in the enum
    order of their class, then in the top-left order of their region.
    """
    classes = [semantic for semantic in SemanticClass
               if semantic in mask.channels]
    regions = region_grow([mask.channels[semantic] for semantic in classes],
                          level=_THRESHOLD_LEVEL)
    det_lines, det_points = [], []
    for owner, region in regions:
        semantic = classes[owner]
        if semantic.is_line_shaped:
            line = fit_region_line(region, semantic)
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


def mask_file_name(frame_id: int, semantic: SemanticClass) -> str:
    return f"{frame_id:06d}_{semantic.value}.pgm"


def write_mask_files(directory, frame_id: int, mask: SemanticMask) -> list:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for semantic in SemanticClass:
        raster = mask.channels.get(semantic)
        if raster is None:
            continue
        path = directory / mask_file_name(frame_id, semantic)
        with open(path, "wb") as fh:
            height, width = raster.shape
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(raster.tobytes())
        written.append(path)
    return written


def read_mask_files(directory, frame_id: int) -> SemanticMask:
    """The frame's <frame>_<class>.pgm rasters, each a read-only mapping of
    its file (see ``_read_pgm``); a class without a file is left out of the
    mask."""
    directory = Path(directory)
    channels = {}
    for semantic in SemanticClass:
        try:
            raster = _read_pgm(directory / mask_file_name(frame_id, semantic))
        except FileNotFoundError:
            continue
        channels[semantic] = raster
    if not channels:
        raise FileNotFoundError(
            f"no mask files for frame {frame_id} in {directory}")
    try:
        return SemanticMask(channels)
    except ValueError as exc:
        raise ValueError(f"{directory}, frame {frame_id}: {exc}") from None


# From Python 3.13 a mapping need not keep a duplicate of its file's
# descriptor; _read_pgm reads the mapping's length, never the file's size.
_MMAP_UNTRACKED = {"trackfd": False} if sys.version_info >= (3, 13) else {}


def _read_pgm(path) -> np.ndarray:
    """Pixels of an 8-bit binary PGM, a read-only view of the file mapped
    into memory.

    The mapping lives as long as the raster, after the file is closed.
    Before Python 3.13 it holds a duplicate of the file's descriptor until
    then, so every raster a caller keeps keeps one file open; from 3.13 it
    holds none. A mask file truncated while it is mapped ends the process
    with SIGBUS on the next read of a pixel past its new end."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # mmap rejects empty files
            raise ValueError(f"{path}: truncated PGM header")
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ,
                         **_MMAP_UNTRACKED)
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
    if not (tokens[1].isdigit() and tokens[2].isdigit()):
        raise ValueError(f"{path}: PGM width and height must be "
                         f"non-negative integers")
    width, height = int(tokens[1]), int(tokens[2])
    if len(data) < pos + 1 + width * height:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, np.uint8, width * height, pos + 1)
    return pixels.reshape(height, width)
