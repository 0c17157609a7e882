"""Pluggable calibration estimators and the depth-image alignment cost.

The reference estimator is classical: it projects a source cloud through a
candidate transform, compares the raster against a target depth image, and
minimizes that cost with multi-start Nelder-Mead over the Euler-pose box of
the current stage.  Estimators are callables ``(frame, stage) -> PredictionSet``
so oracle and identity test doubles plug into the same pipeline slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize import minimize

from .data import FrameSet, PointCloud
from .errors import NoOverlapError
from .loss import PAIR_NAMES, LossWeights, PredictionSet, loop_transform, param_loss
from .perturb import MiscalBounds
from .projection import (
    ProjectionConfig,
    _check_schema,
    equirect_range_pixels,
    project_equirect,
    unproject_equirect,
    unproject_pinhole,
)
# from_euler is not called here any more, but bench/tracing.py wraps the
# module attribute sensorcal.estimate.from_euler, so the name stays.
from .transform import (
    RigidTransform,
    apply,
    compose,
    from_euler,
    from_euler_vector,
    invert,
    to_euler,
    transform_points,
)

__all__ = [
    "AlignmentCostConfig",
    "Estimator",
    "EstimatorStage",
    "alignment_cost",
    "estimate_joint",
    "estimate_multiframe",
    "estimate_pairwise",
    "identity_estimator",
    "joint_estimator",
    "oracle_estimator",
    "pairwise_estimator",
    "true_edges",
]

Estimator = Callable[[FrameSet, "EstimatorStage"], PredictionSet]


@dataclass(frozen=True)
class EstimatorStage:
    """Search box, evaluation budget, and convergence tolerance of one stage."""

    bounds: MiscalBounds
    budget: int = 1600
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be > 0")


def _default_cost_projection() -> ProjectionConfig:
    return ProjectionConfig.equirect(1536, 768)


@dataclass(frozen=True)
class AlignmentCostConfig:
    """Parameters of the raster-comparison cost."""

    occupancy_penalty: float = 2.0
    min_overlap: int = 8
    projection: ProjectionConfig = field(default_factory=_default_cost_projection)

    def __post_init__(self) -> None:
        if self.occupancy_penalty < 0.0:
            raise ValueError("occupancy_penalty must be >= 0")
        if self.min_overlap < 1:
            raise ValueError("min_overlap must be >= 1")


def alignment_cost(
    source: PointCloud,
    candidate: RigidTransform,
    target: np.ndarray,
    cfg: AlignmentCostConfig,
) -> float:
    """Mean range discrepancy between the projected source and the target.

    Pixels occupied in both rasters contribute |range difference|; source
    pixels that land on empty target pixels add occupancy_penalty times their
    fraction.  Returns +inf when fewer than min_overlap pixels overlap, which
    flags candidates whose rasters barely intersect.

    Evaluated sparsely over the source's occupied pixels, which is exactly
    equivalent to comparing the two full rasters but does not allocate the
    source image (this runs inside the optimizer loop).
    """
    proj = cfg.projection
    if target.shape[:2] != (proj.height, proj.width):
        raise ValueError("target raster does not match cfg.projection dimensions")
    _check_schema(source, proj)
    pix, src_r = equirect_range_pixels(transform_points(candidate, source.xyz), proj)
    if pix.size == 0:
        return math.inf
    tgt_r = np.ascontiguousarray(target[..., 0]).reshape(-1)[pix]
    both = tgt_r > 0.0
    n_overlap = int(np.count_nonzero(both))
    if n_overlap < cfg.min_overlap:
        return math.inf
    cost = float(np.mean(np.abs(src_r[both] - tgt_r[both])))
    cost += cfg.occupancy_penalty * (pix.size - n_overlap) / pix.size
    return cost


def _bounds_vector(bounds: MiscalBounds, scale: float = 1.0) -> np.ndarray:
    return np.array(
        [bounds.max_rotation] * 3 + [bounds.max_translation] * 3, dtype=float
    ) * scale


def _initial_simplex(x0: np.ndarray, box: np.ndarray, step_fraction: float) -> np.ndarray:
    steps = np.maximum(step_fraction * box, 1e-6)
    simplex = np.tile(x0, (x0.size + 1, 1))
    simplex[1:] += np.diag(steps)
    return simplex


def _nelder_mead(
    cost_fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    box: np.ndarray,
    maxfev: int,
    tolerance: float,
    step_fraction: float = 0.35,
) -> tuple[np.ndarray, float]:
    # errstate: simplex vertices in no-overlap regions are +inf, which is
    # meaningful here but trips numpy warnings inside the scipy bookkeeping
    with np.errstate(invalid="ignore", over="ignore"):
        res = minimize(
            cost_fn,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": maxfev,
                "fatol": tolerance,
                "xatol": 1e-7,
                "initial_simplex": _initial_simplex(x0, box, step_fraction),
                "disp": False,
            },
        )
    return np.asarray(res.x, dtype=float), float(res.fun)


# Boxes with rotation bounds beyond this get a rotation-grid screen: uniform
# starts almost never land inside the (few-degree) attraction basin when the
# box spans tens of degrees per axis.
_SCREEN_ROTATION = 0.1
_SCREEN_TARGET_STEP = 0.06
_SCREEN_MAX_PER_AXIS = 13


def _rotation_screen(
    cost_fn: Callable[[np.ndarray], float], box: np.ndarray, keep: int
) -> tuple[list[np.ndarray], int]:
    """Rank a rotation-only grid by cost and keep the best corners as starts."""
    n = int(np.clip(math.ceil(2.0 * box[0] / _SCREEN_TARGET_STEP) + 1, 3, _SCREEN_MAX_PER_AXIS))
    axis = np.linspace(-box[0], box[0], n)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    probes = np.concatenate([grid, np.zeros_like(grid)], axis=1)
    costs = np.array([cost_fn(p) for p in probes])
    ranked = np.argsort(costs, kind="stable")[:keep]
    return [probes[i] for i in ranked], probes.shape[0]


def _multistart(
    cost_fn: Callable[[np.ndarray], float],
    box: np.ndarray,
    budget: int,
    tolerance: float,
    n_starts: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Identity start plus box samples, refined by Nelder-Mead; best wins.

    For wide rotation boxes the samples come from a coarse rotation-grid
    screen instead of uniform draws.  Screen evaluations count against the
    budget, and ties between starts keep the earliest start, so the reduction
    is deterministic for a fixed seed.
    """
    starts = [np.zeros(box.size)]
    spent = 0
    if n_starts > 1:
        if box[0] > _SCREEN_ROTATION:
            screened, spent = _rotation_screen(cost_fn, box, n_starts - 1)
            starts.extend(screened)
        else:
            starts.extend(rng.uniform(-1.0, 1.0, (n_starts - 1, box.size)) * box)
    maxfev = max((budget - spent) // len(starts), 1)
    best_x, best_f = starts[0], math.inf
    for x0 in starts:
        x, f = _nelder_mead(cost_fn, x0, box, maxfev, tolerance)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


# Coarse raster used for the global search phase: with point-sampled targets
# the basin of attraction at the working resolution is about one pixel wide,
# so the multi-start phase runs on a downsampled problem first.
_COARSE_SHAPE = (128, 64)


def estimate_pairwise(
    source: PointCloud,
    target: np.ndarray,
    stage: EstimatorStage,
    cfg: AlignmentCostConfig,
    *,
    n_starts: int = 8,
    seed: int = 0,
) -> RigidTransform:
    """Recover the transform aligning source onto the target raster.

    Multi-start Nelder-Mead over the Euler-pose box of the stage, run
    coarse-to-fine: the starts compete on a downsampled version of the
    problem, and the winner is polished against the caller's raster.  The
    returned transform never costs more than the identity candidate.
    """
    def fine_cost(x: np.ndarray) -> float:
        return alignment_cost(source, from_euler_vector(x), target, cfg)

    box = _bounds_vector(stage.bounds)
    rng = np.random.default_rng(seed)

    coarse_proj = ProjectionConfig.equirect(*_COARSE_SHAPE)
    coarse_cfg = replace(cfg, projection=coarse_proj)
    coarse_target = project_equirect(unproject_equirect(target, cfg.projection), coarse_proj)
    bare = source.without_channels()

    def coarse_cost(x: np.ndarray) -> float:
        return alignment_cost(bare, from_euler_vector(x), coarse_target, coarse_cfg)

    coarse_budget = max(stage.budget * 3 // 5, 1)
    x_coarse, _ = _multistart(coarse_cost, box, coarse_budget, stage.tolerance, n_starts, rng)
    fine_budget = max(stage.budget - coarse_budget, 1)
    x_fine, f_fine = _nelder_mead(
        fine_cost, x_coarse, box, fine_budget, stage.tolerance, step_fraction=0.08
    )
    candidates = [
        (f_fine, 0, x_fine),
        (fine_cost(x_coarse), 1, x_coarse),
        (fine_cost(np.zeros(6)), 2, np.zeros(6)),
    ]
    f_best, _, x_best = min(candidates, key=lambda c: (c[0], c[1]))
    if not math.isfinite(f_best):
        raise NoOverlapError("no candidate produced enough raster overlap")
    return from_euler_vector(x_best)


# --- frame-level estimation ---------------------------------------------------

# The cross-sensor lidar<-radar residual composes two miscalibrations, so its
# start box is wider; its target raster is also coarsened because a sparse
# radar return must land on a pixel occupied by the lidar band to match.
_LR_BOX_SCALE = 2.5
_LR_RASTER_SHRINK = 8


def _camera_cloud(frame: FrameSet) -> PointCloud:
    return unproject_pinhole(frame.camera_depth, frame.camera_config)


def _frustum_crop(cloud: PointCloud, axis: np.ndarray, half_angle: float) -> PointCloud:
    """Keep points within half_angle of the axis direction (plus all of a
    too-small remainder guard: never return an empty cloud)."""
    norms = np.linalg.norm(cloud.xyz, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    cos_angle = (cloud.xyz @ axis) / norms
    keep = cos_angle >= math.cos(min(half_angle, math.pi))
    if np.count_nonzero(keep) < 32:
        return cloud
    return cloud.subset(keep)


def _camera_half_fov(cfg: ProjectionConfig) -> float:
    return math.atan(
        math.hypot(0.5 * cfg.width / cfg.fx, 0.5 * cfg.height / cfg.fy)
    )


@dataclass(frozen=True)
class _EdgeProblem:
    """One pairwise alignment task: sources per frame, targets per frame."""

    name: str
    sources: tuple[PointCloud, ...]
    targets: tuple[np.ndarray, ...]
    nominal: RigidTransform
    cfg: AlignmentCostConfig
    box: np.ndarray

    def cost(self, x: np.ndarray) -> float:
        return self.residual_cost(from_euler_vector(x))

    def residual_cost(self, residual: RigidTransform) -> float:
        total = 0.0
        for source, target in zip(self.sources, self.targets):
            c = alignment_cost(source, residual, target, self.cfg)
            if not math.isfinite(c):
                return math.inf
            total += c
        return total / len(self.sources)

    def edge(self, x: np.ndarray) -> RigidTransform:
        return self.residual_edge(from_euler_vector(x))

    def residual_edge(self, residual: RigidTransform) -> RigidTransform:
        if self.name == "radar_cam":
            # solved in the cam<-radar direction, so report the inverse edge
            return compose(invert(residual), invert(self.nominal))
        return compose(self.nominal, residual)

    def coords(self, edge: RigidTransform) -> np.ndarray:
        """Inverse of edge(): the residual coordinates producing this edge."""
        if self.name == "radar_cam":
            return to_euler(compose(invert(self.nominal), invert(edge))).as_array()
        return to_euler(compose(invert(self.nominal), edge)).as_array()


def _build_problems(
    frames: Sequence[FrameSet],
    pairs: Iterable[str],
    stage: EstimatorStage,
    cfg: AlignmentCostConfig,
) -> list[_EdgeProblem]:
    cams = [_camera_cloud(f) for f in frames]
    crop_margin = stage.bounds.max_rotation + math.atan2(stage.bounds.max_translation, 4.0) + 0.1
    problems = []
    for name in PAIR_NAMES:
        if name not in pairs:
            continue
        sources: list[PointCloud] = []
        targets: list[np.ndarray] = []
        edge_cfg = cfg
        box = _bounds_vector(stage.bounds)
        if name == "cam_lidar":
            nominal = frames[0].fixed_cam_lidar
        elif name == "lidar_radar":
            nominal = frames[0].fixed_lidar_radar
            shrunk = ProjectionConfig.equirect(
                max(cfg.projection.width // _LR_RASTER_SHRINK, 16),
                max(cfg.projection.height // _LR_RASTER_SHRINK, 8),
            )
            edge_cfg = replace(cfg, projection=shrunk)
            box = _bounds_vector(stage.bounds, _LR_BOX_SCALE)
        else:
            nominal = invert(frames[0].fixed_radar_cam)
        for frame, cam in zip(frames, cams):
            pull_back = invert(nominal)
            if name == "cam_lidar":
                target_cloud = apply(pull_back, cam)
                source = frame.lidar.without_channels()
                axis = pull_back.rotation_matrix() @ np.array([0.0, 0.0, 1.0])
                source = _frustum_crop(
                    source, axis, _camera_half_fov(frame.camera_config) + crop_margin
                )
            elif name == "lidar_radar":
                target_cloud = apply(pull_back, frame.lidar.without_channels())
                source = frame.radar.without_channels()
            else:
                target_cloud = apply(pull_back, cam)
                source = frame.radar.without_channels()
            sources.append(source)
            targets.append(project_equirect(target_cloud, edge_cfg.projection))
        problems.append(
            _EdgeProblem(
                name=name,
                sources=tuple(sources),
                targets=tuple(targets),
                nominal=nominal,
                cfg=edge_cfg,
                box=box,
            )
        )
    return problems


def _predictions(problems: Sequence[_EdgeProblem], xs: dict[str, np.ndarray]) -> PredictionSet:
    preds = PredictionSet()
    for problem in problems:
        preds = preds.with_pair(problem.name, problem.edge(xs[problem.name]))
    return preds


def _loop_consistent(preds: PredictionSet) -> PredictionSet:
    """Rebuild the lidar<-radar edge from the two camera edges.

    The camera edges are the better-observed ones (dense targets), so the
    returned set closes the loop exactly while only replacing the noisiest
    measurement with a composition of stronger ones.
    """
    derived = compose(invert(preds.cam_lidar), invert(preds.radar_cam))
    return preds.with_pair("lidar_radar", derived)


def estimate_multiframe(
    frames: Sequence[FrameSet],
    stage: EstimatorStage,
    w: LossWeights,
    cfg: AlignmentCostConfig,
    *,
    pairs: Iterable[str] = PAIR_NAMES,
    n_starts: int = 8,
    seed: int = 0,
    polish_budget: int | None = None,
) -> PredictionSet:
    """Shared transform set minimizing the mean per-frame objective.

    All frames must carry the same miscalibration (rigid platform).  Each
    edge is first solved independently by multi-start search; when all three
    edges are requested and w.loop_weight > 0, a joint polish refines the 18
    coordinates against the blended alignment + loop-closure objective
    (kept only when it genuinely improves that objective), and the returned
    set is made exactly loop-consistent by deriving the lidar<-radar edge
    from the two camera edges.  With loop_weight == 0 the three pairwise
    solutions are returned untouched.
    """
    if not frames:
        raise ValueError("estimate_multiframe needs at least one frame")
    pairs = tuple(pairs)
    problems = _build_problems(frames, pairs, stage, cfg)
    rng = np.random.default_rng(seed)

    xs: dict[str, np.ndarray] = {}
    for problem in problems:
        x, f = _multistart(
            problem.cost, problem.box, stage.budget, stage.tolerance, n_starts, rng
        )
        if not math.isfinite(f):
            raise NoOverlapError(f"edge {problem.name}: no raster overlap")
        xs[problem.name] = x

    preds = _predictions(problems, xs)
    if w.loop_weight == 0.0 or set(pairs) != set(PAIR_NAMES):
        return preds

    identity = RigidTransform.identity()

    def split(x: np.ndarray) -> dict[str, np.ndarray]:
        return {p.name: x[6 * i : 6 * i + 6] for i, p in enumerate(problems)}

    def joint_cost(x: np.ndarray) -> float:
        # one candidate per edge serves both its alignment cost and the loop
        total = 0.0
        preds = PredictionSet()
        for i, problem in enumerate(problems):
            residual = from_euler_vector(x[6 * i : 6 * i + 6])
            c = problem.residual_cost(residual)
            if not math.isfinite(c):
                return math.inf
            total += c
            preds = preds.with_pair(problem.name, problem.residual_edge(residual))
        loop = loop_transform(preds)
        return (1.0 - w.loop_weight) * total + w.loop_weight * param_loss(loop, identity, w)

    # Loop-consistent variants of the pairwise init: replace one radar edge
    # by the composition of the other two.  This is where the dense lidar
    # data gets a vote on the sparse radar edges; the joint objective picks
    # whichever seed the alignment evidence actually supports.
    edges = {p.name: p.edge(xs[p.name]) for p in problems}
    seeds = [dict(xs)]
    by_name = {p.name: p for p in problems}
    rc_closed = invert(compose(edges["cam_lidar"], edges["lidar_radar"]))
    lr_closed = compose(invert(edges["cam_lidar"]), invert(edges["radar_cam"]))
    for name, closed in (("radar_cam", rc_closed), ("lidar_radar", lr_closed)):
        variant = dict(xs)
        variant[name] = by_name[name].coords(closed)
        seeds.append(variant)

    x0 = np.concatenate([xs[p.name] for p in problems])
    f0 = joint_cost(x0)
    candidates = [np.concatenate([s[p.name] for p in problems]) for s in seeds]
    scores = [f0] + [joint_cost(c) for c in candidates[1:]]
    start = candidates[int(np.argmin(scores))]

    box = np.concatenate([p.box for p in problems])
    budget = polish_budget if polish_budget is not None else stage.budget
    x_polished, f_polished = _nelder_mead(
        joint_cost, start, box, budget, stage.tolerance, step_fraction=0.1
    )
    # Hysteresis: plateau noise in the alignment terms makes sub-0.1%
    # "improvements" meaningless, so only genuine descent replaces the init.
    if not f_polished < f0 * (1.0 - 1e-3):
        return _loop_consistent(preds)
    return _loop_consistent(_predictions(problems, split(x_polished)))


def estimate_joint(
    frame: FrameSet,
    stage: EstimatorStage,
    w: LossWeights,
    cfg: AlignmentCostConfig,
    **kwargs,
) -> PredictionSet:
    """Single-frame joint estimation over all three sensor pairs."""
    return estimate_multiframe([frame], stage, w, cfg, **kwargs)


# --- estimator interface --------------------------------------------------


def true_edges(frame: FrameSet) -> PredictionSet:
    """Ground-truth pairwise edges of the frame under its recorded miscalibration."""
    return PredictionSet(
        cam_lidar=compose(frame.fixed_cam_lidar, invert(frame.lidar_mis)),
        lidar_radar=compose(
            compose(frame.lidar_mis, frame.fixed_lidar_radar), invert(frame.radar_mis)
        ),
        radar_cam=compose(frame.radar_mis, frame.fixed_radar_cam),
    )


def oracle_estimator(frame: FrameSet, stage: EstimatorStage | None = None) -> PredictionSet:
    """Test double returning the recorded ground truth."""
    return true_edges(frame)


def identity_estimator(frame: FrameSet, stage: EstimatorStage | None = None) -> PredictionSet:
    """Test double returning identity transforms for every pair."""
    identity = RigidTransform.identity()
    return PredictionSet(cam_lidar=identity, lidar_radar=identity, radar_cam=identity)


def joint_estimator(
    w: LossWeights,
    cfg: AlignmentCostConfig,
    *,
    n_starts: int = 8,
    seed: int = 0,
    polish_budget: int | None = None,
) -> Estimator:
    """Bind the joint reference estimator into the pipeline interface."""

    def run(frame: FrameSet, stage: EstimatorStage) -> PredictionSet:
        return estimate_joint(
            frame, stage, w, cfg, n_starts=n_starts, seed=seed, polish_budget=polish_budget
        )

    return run


def pairwise_estimator(
    cfg: AlignmentCostConfig,
    *,
    pairs: Iterable[str] = PAIR_NAMES,
    n_starts: int = 8,
    seed: int = 0,
) -> Estimator:
    """Independent per-pair estimation without the loop-closure polish."""
    pairs = tuple(pairs)

    def run(frame: FrameSet, stage: EstimatorStage) -> PredictionSet:
        return estimate_multiframe(
            [frame],
            stage,
            LossWeights(loop_weight=0.0),
            cfg,
            pairs=pairs,
            n_starts=n_starts,
            seed=seed,
        )

    return run
