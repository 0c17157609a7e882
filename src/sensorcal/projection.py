"""Point-cloud to depth-image projection: equirectangular and pinhole.

Depth images are float32 arrays of shape (H, W, C).  Channel 0 always
stores range in meters; unoccupied pixels hold 0 in every channel, so
occupancy is simply ``img[..., 0] > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .data import PointCloud
from .errors import SchemaMismatchError
from .transform import RigidTransform, transform_points

__all__ = [
    "ProjectionConfig",
    "SphericalCoord",
    "cart_to_spherical",
    "equirect_pixel",
    "equirect_range_pixels",
    "equirect_range_pixels_batch",
    "pinhole_range_pixels",
    "pinhole_rays",
    "project_equirect",
    "project_pinhole",
    "sphere_dirs",
    "unproject_equirect",
    "unproject_pinhole",
]

class SphericalCoord(NamedTuple):
    azimuth: float  # radians in (-pi, pi]
    elevation: float  # radians in [-pi/2, pi/2]
    radius: float  # meters, >= 0


@dataclass(frozen=True)
class ProjectionConfig:
    """Raster geometry plus the ordered channel schema (channel 0 is range)."""

    width: int
    height: int
    channels: tuple[str, ...] = ("range",)
    mode: str = "equirectangular"
    fx: float | None = None
    fy: float | None = None
    cx: float | None = None
    cy: float | None = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("raster dimensions must be >= 1")
        if not self.channels or self.channels[0] != "range":
            raise ValueError("channel 0 must be 'range'")
        if self.mode not in ("equirectangular", "pinhole"):
            raise ValueError(f"unknown projection mode {self.mode!r}")
        if self.mode == "pinhole" and None in (self.fx, self.fy, self.cx, self.cy):
            raise ValueError("pinhole mode requires fx, fy, cx, cy")

    @classmethod
    def equirect(cls, width: int, height: int, schema: tuple[str, ...] = ()) -> "ProjectionConfig":
        return cls(width=width, height=height, channels=("range",) + tuple(schema))

    @classmethod
    def pinhole(
        cls,
        width: int,
        height: int,
        fx: float,
        fy: float,
        cx: float,
        cy: float,
        schema: tuple[str, ...] = (),
    ) -> "ProjectionConfig":
        return cls(
            width=width,
            height=height,
            channels=("range",) + tuple(schema),
            mode="pinhole",
            fx=fx,
            fy=fy,
            cx=cx,
            cy=cy,
        )


def cart_to_spherical(p) -> SphericalCoord:
    """Cartesian point to (azimuth, elevation, radius).

    atan2(0, 0) is defined as 0 and the elevation of the origin is 0, so the
    conversion is total.
    """
    x, y, z = np.asarray(p, dtype=float).reshape(3)
    r = math.sqrt(x * x + y * y + z * z)
    theta = math.atan2(y, x)
    phi = math.asin(max(-1.0, min(1.0, z / r))) if r > 0.0 else 0.0
    return SphericalCoord(azimuth=theta, elevation=phi, radius=r)


def equirect_pixel(s: SphericalCoord, cfg: ProjectionConfig) -> tuple[int, int]:
    """Map spherical coordinates to an always-in-bounds pixel.

    u wraps modulo W at the +-pi azimuth seam; v clamps at the poles (the
    floor formula lands exactly on H at elevation -pi/2).
    """
    theta_norm = (s.azimuth + math.pi) / (2.0 * math.pi)
    phi_norm = (s.elevation + 0.5 * math.pi) / math.pi
    u = int(math.floor(theta_norm * cfg.width)) % cfg.width
    v = int(math.floor((1.0 - phi_norm) * cfg.height))
    v = min(max(v, 0), cfg.height - 1)
    return u, v


def _check_schema(cloud: PointCloud, cfg: ProjectionConfig) -> None:
    expected = ("range",) + cloud.schema
    if cfg.channels != expected:
        raise SchemaMismatchError(
            f"cloud schema {cloud.schema} requires raster channels {expected}, "
            f"config has {cfg.channels}"
        )


def _winner_positions(pix: np.ndarray, r: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Positions of the nearest-wins survivor per pixel.

    Collisions keep the point with the smallest range; exact range ties go to
    the smallest original point index, making the result independent of input
    order for distinct points.
    """
    order = np.lexsort((index, r, pix))
    first = np.ones(order.size, dtype=bool)
    first[1:] = pix[order][1:] != pix[order][:-1]
    return order[first]


def _rasterize(
    pix: np.ndarray,
    r: np.ndarray,
    channels: np.ndarray,
    index: np.ndarray,
    cfg: ProjectionConfig,
) -> np.ndarray:
    """Nearest-wins scatter of per-point values into an (H, W, C) raster."""
    img = np.zeros((cfg.height, cfg.width, len(cfg.channels)), dtype=np.float32)
    if r.size == 0:
        return img
    values = np.concatenate([r[:, None], channels], axis=1).astype(np.float32)
    winners = _winner_positions(pix, r, index)
    img.reshape(-1, len(cfg.channels))[pix[winners]] = values[winners]
    return img


def _ranges(xyz: np.ndarray) -> np.ndarray:
    """Row norms of an (N, 3) array, bit-identical to ``np.linalg.norm(xyz, axis=1)``.

    The squares are summed in the order numpy's reduction uses,
    (x*x + y*y) + z*z, without the cost of a reduction over a length-3 axis
    or an (N, 3) temporary.
    """
    r = xyz[:, 0] * xyz[:, 0]
    sq = xyz[:, 1] * xyz[:, 1]
    r += sq
    np.multiply(xyz[:, 2], xyz[:, 2], out=sq)
    r += sq
    return np.sqrt(r, out=r)


def _equirect_pix(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, r: np.ndarray, cfg: ProjectionConfig
) -> np.ndarray:
    """Flat pixel ids, as integer-valued float64, of points with ranges r > 0.

    The arithmetic of ``equirect_pixel`` done in place on whole columns.  The
    floored column lies in [0, W] and reaches W only at azimuth +pi, so the
    seam wrap is that one value mapped to 0.  A non-finite coordinate can
    make the elevation NaN; fmax sends its row to 0, as the clamp of an
    integer row (NaN cast to the smallest int64) did.  Ids stay far below
    2**53, so the float64 sum is exact.
    """
    u = np.arctan2(y, x)
    u += np.pi
    u /= 2.0 * np.pi
    u *= cfg.width
    np.floor(u, out=u)
    u[u == cfg.width] = 0.0
    v = np.divide(z, r)
    np.maximum(v, -1.0, out=v)
    np.minimum(v, 1.0, out=v)
    np.arcsin(v, out=v)
    v += 0.5 * np.pi
    v /= np.pi
    np.subtract(1.0, v, out=v)
    v *= cfg.height
    np.floor(v, out=v)
    np.fmax(v, 0.0, out=v)
    np.minimum(v, cfg.height - 1, out=v)
    v *= cfg.width
    v += u
    return v


def _nearest_per_segment(
    pix: np.ndarray, r: np.ndarray, seg: np.ndarray | None, n_segments: int, cfg: ProjectionConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per segment, the occupied flat pixel ids and nearest float32 ranges (r >= 0).

    Sorts one uint64 key per point: the pixel id in the high word, with the
    point's segment index (``seg``, or 0 when it is None) in the bits above
    the id, and the float32 bit pattern of the range in the low word.  Bit
    patterns of non-negative floats order like their values, so each
    (segment, pixel) run starts with its winner, and each segment's entries
    are those that a sort of its points alone gives, in the same order.
    Exact ties that ``_winner_positions`` breaks by point index have equal
    float32 ranges, so the (pixel, range) pairs and their order are the
    same.  pix may be integer-valued float64.
    """
    n_pixels = cfg.width * cfg.height
    if n_pixels >= 2**32:
        raise ValueError(
            f"raster {cfg.width}x{cfg.height} has 2**32 or more pixels, "
            "too many for the packed sort key"
        )
    shift = (n_pixels - 1).bit_length()
    if n_segments << shift > 2**32:
        raise ValueError(f"{n_segments} segments do not fit the packed sort key")
    key = pix.astype(np.uint64)
    if seg is not None:
        key |= seg << np.uint64(shift)
    key <<= np.uint64(32)
    key |= r.astype(np.float32, copy=False).view(np.uint32)
    key.sort()
    ids = key >> np.uint64(32)
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    # ranges first: their uint64 temporary is gone before the ids are taken
    r = key[first].astype(np.uint32).view(np.float32)
    ids = ids[first]
    if n_segments == 1:
        return [(ids.view(np.int64), r)]
    starts = np.arange(n_segments + 1, dtype=np.uint64) << np.uint64(shift)
    bounds = ids.searchsorted(starts).tolist()
    ids &= np.uint64((1 << shift) - 1)
    ids = ids.view(np.int64)
    return [(ids[a:b], r[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _nearest_per_pixel(
    pix: np.ndarray, r: np.ndarray, cfg: ProjectionConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Occupied flat pixel ids and their nearest float32 ranges (r >= 0): the
    one segment of ``_nearest_per_segment``."""
    return _nearest_per_segment(pix, r, None, 1, cfg)[0]


def _range_image(pix: np.ndarray, r: np.ndarray, cfg: ProjectionConfig) -> np.ndarray:
    """Single-channel raster of the output of ``_nearest_per_pixel``.

    Float32 rounding is monotonic, so the nearest float64 range rounds to
    the smallest float32 range of its pixel: the raster equals the one
    ``_rasterize`` makes of a cloud without channels.
    """
    img = np.zeros((cfg.height, cfg.width, 1), dtype=np.float32)
    img.reshape(-1)[pix] = r
    return img


# Camera images are rendered and unprojected this many rows at a time, so
# the camera path holds one block of points rather than the whole image's:
# 32 rows of the default 640x320 camera are 20,480 points.
_BLOCK_ROWS = 32


def _row_blocks(points_per_row: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive row ranges [row0, row1) that cover an image in order.

    Every range but the last spans at least _BLOCK_ROWS rows, and none holds
    exactly one point unless it is the whole image.  numpy multiplies a lone
    point by a matrix-vector routine whose bits can differ from those of the
    same point in a larger product; from two points on, the rotated points
    of a block are the rows of the whole image's product.
    """
    height = len(points_per_row)
    bounds, n = [0], 0
    for row, count in enumerate(points_per_row.tolist(), start=1):
        n += count
        if row - bounds[-1] >= _BLOCK_ROWS and n >= 2:
            bounds.append(row)
            n = 0
    if n == 1 and len(bounds) > 1:
        bounds.pop()  # the lone point of the last rows joins the block before
    if bounds[-1] < height:
        bounds.append(height)
    return list(zip(bounds[:-1], bounds[1:]))


def _merge_nearest(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], cfg: ProjectionConfig
) -> tuple[np.ndarray, np.ndarray]:
    """One ``_nearest_per_pixel`` output from the outputs of blocks of points.

    Float32 rounding is monotonic, so a pixel's nearest float32 range over
    all points is the smallest of the blocks' nearest ranges, whatever the
    order of the blocks; and float32 ranges round to themselves.  The result
    is the reduction of all the points at once.
    """
    pix, r = (np.concatenate(parts) for parts in zip(*blocks))
    return _nearest_per_pixel(pix, r, cfg)


def equirect_range_pixels(xyz: np.ndarray, cfg: ProjectionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Occupied flat pixel ids and their winning float32 ranges.

    Sparse equivalent of ``project_equirect(...)[..., 0]``: the returned
    pixels are exactly the nonzero pixels of the raster and carry identical
    values, without allocating the image.  The nearest-wins reduction is
    ``_nearest_per_pixel``.
    """
    return _equirect_segments([np.asarray(xyz, dtype=float)], cfg)[0]


def equirect_range_pixels_batch(
    segments: Sequence[tuple[RigidTransform, np.ndarray]], cfg: ProjectionConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``equirect_range_pixels(transform_points(c, xyz), cfg)`` of each ``(c, xyz)``.

    Each segment is transformed by its own ``transform_points`` call, which
    fixes the bits of its points; ranges, pixel ids and the nearest-wins
    sort then run once over all of them (see ``_nearest_per_segment``).
    Every step is elementwise or keeps the segments apart, so each result is
    bit-identical to the segment projected alone, at a fraction of the
    per-call overhead when segments are small.
    """
    return _equirect_segments([transform_points(c, xyz) for c, xyz in segments], cfg)


def _equirect_segments(
    parts: Sequence[np.ndarray], cfg: ProjectionConfig
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per (N_k, 3) float64 part, ``_nearest_per_pixel`` of its points with r > 0."""
    # segment indices share the sort key's high word with the pixel ids
    per_sort = max(2**32 >> (cfg.width * cfg.height - 1).bit_length(), 1)
    if len(parts) > per_sort:
        out = []
        for k in range(0, len(parts), per_sort):
            out.extend(_equirect_segments(parts[k : k + per_sort], cfg))
        return out
    seg = None
    if len(parts) == 1:
        xyz = parts[0]
    else:
        counts = [len(part) for part in parts]
        # column-major, so each coordinate column the pixel arithmetic reads
        # is contiguous, as transform_points lays out a single part
        xyz = np.empty((sum(counts), 3), order="F")
        end = 0
        for part, count in zip(parts, counts):
            xyz[end : end + count] = part
            end += count
        seg = np.repeat(np.arange(len(parts), dtype=np.uint64), counts)
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    r = _ranges(xyz)
    keep = r > 0.0
    if np.count_nonzero(keep) < keep.size:
        x, y, z, r = x[keep], y[keep], z[keep], r[keep]
        if seg is not None:
            seg = seg[keep]
    return _nearest_per_segment(_equirect_pix(x, y, z, r, cfg), r, seg, len(parts), cfg)


def project_equirect(cloud: PointCloud, cfg: ProjectionConfig) -> np.ndarray:
    """Equirectangular depth image; every point with r > 0 lands in-bounds.

    Channels follow the nearest-wins survivor of ``_winner_positions``.
    """
    _check_schema(cloud, cfg)
    r = _ranges(cloud.xyz)
    keep = r > 0.0
    xyz, r = cloud.xyz[keep], r[keep]
    pix = _equirect_pix(xyz[:, 0], xyz[:, 1], xyz[:, 2], r, cfg).astype(np.int64)
    return _rasterize(pix, r, cloud.channels[keep], np.flatnonzero(keep), cfg)


def _pinhole_pixels(
    xyz: np.ndarray, cfg: ProjectionConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat pixel ids, float64 ranges and point indices of the points that
    land inside a pinhole image looking along +z."""
    z = xyz[:, 2]
    keep = z > 0.0
    xyz = xyz[keep]
    z = z[keep]
    # bounds are checked on the floored floats and only pixels inside are
    # cast: a tiny positive z sends x / z past the int64 range, or to inf
    with np.errstate(over="ignore"):
        u = np.floor(cfg.fx * xyz[:, 0] / z + cfg.cx)
        v = np.floor(cfg.fy * xyz[:, 1] / z + cfg.cy)
    inside = (u >= 0) & (u < cfg.width) & (v >= 0) & (v < cfg.height)
    r = _ranges(xyz[inside])
    pix = v[inside].astype(np.int64) * cfg.width + u[inside].astype(np.int64)
    return pix, r, np.flatnonzero(keep)[inside]


def pinhole_range_pixels(xyz: np.ndarray, cfg: ProjectionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Occupied flat pixel ids and their winning float32 ranges.

    Sparse equivalent of ``project_pinhole(...)[..., 0]`` for a bare cloud,
    as ``equirect_range_pixels`` is of ``project_equirect``.
    """
    pix, r, _ = _pinhole_pixels(np.asarray(xyz, dtype=float), cfg)
    return _nearest_per_pixel(pix, r, cfg)


def project_pinhole(cloud: PointCloud, cfg: ProjectionConfig) -> np.ndarray:
    """Pinhole depth image looking along +z; out-of-frustum points are dropped.

    Channels follow the nearest-wins survivor of ``_winner_positions``.
    """
    if cfg.mode != "pinhole":
        raise ValueError("project_pinhole requires a pinhole ProjectionConfig")
    _check_schema(cloud, cfg)
    pix, r, index = _pinhole_pixels(cloud.xyz, cfg)
    return _rasterize(pix, r, cloud.channels[index], index, cfg)


def pinhole_rays(u: np.ndarray, v: np.ndarray, cfg: ProjectionConfig) -> np.ndarray:
    """(N, 3) unit rays through the centres of the pixels (u, v) of a pinhole image."""
    dx = (u + 0.5 - cfg.cx) / cfg.fx
    dy = (v + 0.5 - cfg.cy) / cfg.fy
    dirs = np.stack([dx, dy, np.ones_like(dx)], axis=1)
    dirs /= _ranges(dirs)[:, None]
    return dirs


def sphere_dirs(azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    """(N, 3) unit vectors at the given azimuths and elevations (radians)."""
    az, el = azimuth, elevation
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1)


def unproject_pinhole(img: np.ndarray, cfg: ProjectionConfig, *, first_row: int = 0) -> PointCloud:
    """Occupied pixels back to a bare camera-frame cloud via pixel-center rays.

    img holds the image rows first_row, first_row + 1, ... of cfg's image,
    so a block of rows unprojects to the points the whole image gives for
    those rows.
    """
    if cfg.mode != "pinhole":
        raise ValueError("unproject_pinhole requires a pinhole ProjectionConfig")
    r = np.asarray(img)[..., 0]
    v, u = np.nonzero(r > 0)
    ranges = r[v, u].astype(float)
    v += first_row
    return PointCloud.bare(pinhole_rays(u, v, cfg) * ranges[:, None])


def unproject_equirect(img: np.ndarray, cfg: ProjectionConfig) -> PointCloud:
    """Occupied pixels back to a bare cloud via pixel-center directions."""
    r = np.asarray(img)[..., 0]
    v, u = np.nonzero(r > 0)
    ranges = r[v, u].astype(float)
    theta = (u + 0.5) / cfg.width * 2.0 * math.pi - math.pi
    phi = (1.0 - (v + 0.5) / cfg.height) * math.pi - 0.5 * math.pi
    return PointCloud.bare(sphere_dirs(theta, phi) * ranges[:, None])
