"""Point-cloud to depth-image projection: equirectangular and pinhole.

Depth images are float32 arrays of shape (H, W, C).  Channel 0 always
stores range in meters; unoccupied pixels hold 0 in every channel, so
occupancy is simply ``img[..., 0] > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import PointCloud
from .errors import SchemaMismatchError

__all__ = [
    "ProjectionConfig",
    "SphericalCoord",
    "cart_to_spherical",
    "default_depth_image",
    "equirect_pixel",
    "equirect_range_pixels",
    "project_equirect",
    "project_pinhole",
    "resize_bilinear",
    "unproject_equirect",
    "unproject_pinhole",
]

# Rasterize-then-resize sizes used for full-resolution depth images.
RASTER_HEIGHT = 1024
RASTER_WIDTH = 2048
RESIZED_HEIGHT = 512
RESIZED_WIDTH = 1024


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
    u: np.ndarray,
    v: np.ndarray,
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
    pix = v * cfg.width + u
    winners = _winner_positions(pix, r, index)
    img.reshape(-1, len(cfg.channels))[pix[winners]] = values[winners]
    return img


def _ranges(xyz: np.ndarray) -> np.ndarray:
    """Row norms of an (N, 3) array, bit-identical to ``np.linalg.norm(xyz, axis=1)``.

    The squares are summed in the order numpy's reduction uses,
    (x*x + y*y) + z*z, without the cost of a reduction over a length-3 axis.
    """
    sq = xyz * xyz
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])


def _equirect_uv(
    xyz: np.ndarray, r: np.ndarray, cfg: ProjectionConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel column and row of points with ranges r, all of them > 0.

    The clips are minimum/maximum pairs: the same values as np.clip, with
    less call overhead.
    """
    theta = np.arctan2(xyz[:, 1], xyz[:, 0])
    phi = np.arcsin(np.minimum(np.maximum(xyz[:, 2] / r, -1.0), 1.0))
    u = np.floor((theta + np.pi) / (2.0 * np.pi) * cfg.width).astype(np.int64) % cfg.width
    v = np.floor((1.0 - (phi + 0.5 * np.pi) / np.pi) * cfg.height).astype(np.int64)
    return u, np.minimum(np.maximum(v, 0), cfg.height - 1)


def equirect_range_pixels(xyz: np.ndarray, cfg: ProjectionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Occupied flat pixel ids and their winning float32 ranges.

    Sparse equivalent of ``project_equirect(...)[..., 0]``: the returned
    pixels are exactly the nonzero pixels of the raster and carry identical
    values, without allocating the image.

    The nearest-wins reduction sorts one uint64 key per point, the pixel id
    in the high word and the float32 bit pattern of the range in the low
    word; bit patterns of non-negative floats order like their values, so
    each pixel's run starts with its winner.  Exact ties that
    ``_winner_positions`` breaks by point index have equal float32 ranges,
    so the (pixel, range) pairs and their order are the same.
    """
    if cfg.width * cfg.height >= 2**32:
        raise ValueError(
            f"raster {cfg.width}x{cfg.height} has 2**32 or more pixels, "
            "too many for the packed sort key"
        )
    xyz = np.asarray(xyz, dtype=float)
    r = _ranges(xyz)
    keep = r > 0.0
    if np.count_nonzero(keep) < keep.size:
        xyz, r = xyz[keep], r[keep]
    u, v = _equirect_uv(xyz, r, cfg)
    pix = (v * cfg.width + u).astype(np.uint64)
    key = (pix << np.uint64(32)) | r.astype(np.float32).view(np.uint32)
    key.sort()
    pix = (key >> np.uint64(32)).astype(np.int64)
    first = np.ones(key.size, dtype=bool)
    first[1:] = pix[1:] != pix[:-1]
    return pix[first], key[first].astype(np.uint32).view(np.float32)


def project_equirect(cloud: PointCloud, cfg: ProjectionConfig) -> np.ndarray:
    """Equirectangular depth image; every point with r > 0 lands in-bounds."""
    _check_schema(cloud, cfg)
    r = _ranges(cloud.xyz)
    keep = r > 0.0
    xyz, r = cloud.xyz[keep], r[keep]
    u, v = _equirect_uv(xyz, r, cfg)
    return _rasterize(u, v, r, cloud.channels[keep], np.flatnonzero(keep), cfg)


def project_pinhole(cloud: PointCloud, cfg: ProjectionConfig) -> np.ndarray:
    """Pinhole depth image looking along +z; out-of-frustum points are dropped."""
    if cfg.mode != "pinhole":
        raise ValueError("project_pinhole requires a pinhole ProjectionConfig")
    _check_schema(cloud, cfg)
    xyz = cloud.xyz
    z = xyz[:, 2]
    keep = z > 0.0
    xyz = xyz[keep]
    z = z[keep]
    u = np.floor(cfg.fx * xyz[:, 0] / z + cfg.cx).astype(np.int64)
    v = np.floor(cfg.fy * xyz[:, 1] / z + cfg.cy).astype(np.int64)
    inside = (u >= 0) & (u < cfg.width) & (v >= 0) & (v < cfg.height)
    index = np.flatnonzero(keep)[inside]
    xyz = xyz[inside]
    r = np.linalg.norm(xyz, axis=1)
    return _rasterize(u[inside], v[inside], r, cloud.channels[index], index, cfg)


def unproject_pinhole(img: np.ndarray, cfg: ProjectionConfig) -> PointCloud:
    """Occupied pixels back to a bare camera-frame cloud via pixel-center rays."""
    if cfg.mode != "pinhole":
        raise ValueError("unproject_pinhole requires a pinhole ProjectionConfig")
    r = np.asarray(img)[..., 0]
    v, u = np.nonzero(r > 0)
    ranges = r[v, u].astype(float)
    dx = (u + 0.5 - cfg.cx) / cfg.fx
    dy = (v + 0.5 - cfg.cy) / cfg.fy
    dirs = np.stack([dx, dy, np.ones_like(dx)], axis=1)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return PointCloud.bare(dirs * ranges[:, None])


def unproject_equirect(img: np.ndarray, cfg: ProjectionConfig) -> PointCloud:
    """Occupied pixels back to a bare cloud via pixel-center directions."""
    r = np.asarray(img)[..., 0]
    v, u = np.nonzero(r > 0)
    ranges = r[v, u].astype(float)
    theta = (u + 0.5) / cfg.width * 2.0 * math.pi - math.pi
    phi = (1.0 - (v + 0.5) / cfg.height) * math.pi - 0.5 * math.pi
    dirs = np.stack(
        [np.cos(phi) * np.cos(theta), np.cos(phi) * np.sin(theta), np.sin(phi)], axis=1
    )
    return PointCloud.bare(dirs * ranges[:, None])


def resize_bilinear(img: np.ndarray, width: int, height: int) -> np.ndarray:
    """Per-channel bilinear resampling with half-pixel centers and edge clamp."""
    if width < 1 or height < 1:
        raise ValueError("target dimensions must be >= 1")
    img = np.asarray(img)
    src_h, src_w = img.shape[0], img.shape[1]
    ys = np.clip((np.arange(height) + 0.5) * src_h / height - 0.5, 0.0, src_h - 1.0)
    xs = np.clip((np.arange(width) + 0.5) * src_w / width - 0.5, 0.0, src_w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = img[y0][:, x0] * (1.0 - wx) + img[y0][:, x1] * wx
    bottom = img[y1][:, x0] * (1.0 - wx) + img[y1][:, x1] * wx
    return (top * (1.0 - wy) + bottom * wy).astype(np.float32)


def default_depth_image(cloud: PointCloud) -> np.ndarray:
    """Full-resolution raster (1024x2048) resized to the 512x1024 working size."""
    cfg = ProjectionConfig.equirect(RASTER_WIDTH, RASTER_HEIGHT, cloud.schema)
    return resize_bilinear(project_equirect(cloud, cfg), RESIZED_WIDTH, RESIZED_HEIGHT)
