"""Pluggable calibration estimators and the depth-image alignment cost.

The reference estimator is classical: it projects a source cloud through a
candidate transform, compares the raster against a target depth image, and
minimizes that cost with multi-start Nelder-Mead over the Euler-pose box of
the current stage.  Estimators are callables ``(frames, stage) -> PredictionSet``
over a group of rigidly-linked frames (one frame is a list of one), so oracle
and identity test doubles plug into the same pipeline slots.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import FrameSet, PointCloud
from .errors import NoOverlapError
from .loss import PAIR_NAMES, LossWeights, PredictionSet, loop_transform, param_loss
from .neldermead import Costs, lockstep, minimize, search
from .perturb import MiscalBounds
from .projection import (
    ProjectionConfig,
    _check_schema,
    _equirect_segments,
    _nearest_per_segment,
    _row_blocks,
    equirect_range_pixels,
    project_equirect,
    unproject_equirect,
    unproject_pinhole,
)
from .transform import (
    RigidTransform,
    apply,
    compose,
    from_euler,
    invert,
    to_euler,
    transform_points,
)

__all__ = [
    "AlignmentCostConfig",
    "Estimator",
    "EstimatorStage",
    "alignment_cost",
    "estimate_multiframe",
    "estimate_pairwise",
    "identity_estimator",
    "joint_estimator",
    "oracle_estimator",
    "pairwise_estimator",
    "true_edges",
]

Estimator = Callable[[Sequence[FrameSet], "EstimatorStage"], PredictionSet]


@dataclass(frozen=True)
class EstimatorStage:
    """Search box and evaluation budget of one stage.

    budget is what each edge's multistart and the joint polish may spend.
    The polish keeps to it.  A multistart's rotation screen (wide boxes
    only) is paid first and its starts share the rest, one evaluation each
    at the least, so a screen larger than the budget overspends it and
    starves the starts.  In a +-20 deg stage at budget 1600 the 13^3 = 2197
    probes leave each start one evaluation, of its start point, which is a
    probe already scored; on lidar_radar the identity is not, as rounding
    moves its grid's middle off 0.  So a camera edge makes 2197 cost calls
    per frame, and lidar_radar 2198.

    final is False for every stage of a refinement but the last
    (``refine_multiframe`` sets it).  A final stage does two things earlier
    stages do not, because their output re-perturbs the frames, and moving
    it at all re-rolls the stages after it:

    - its multistarts race their starts and stop the clearly beaten ones
      early (see _RACE), which keeps the winner and its bits unless the
      race retired it;
    - its joint polish may stop once its simplex is within _FINAL_XATOL =
      1e-4 (rad, m) of its best vertex, about 1/40 of a pixel of the
      1536-wide raster; what stops it is then its vertices' costs agreeing
      to _FATOL = 1e-5.  Earlier stages keep _XATOL.
    """

    bounds: MiscalBounds
    budget: int = 1600
    final: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass(frozen=True)
class AlignmentCostConfig:
    """Parameters of the raster-comparison cost."""

    occupancy_penalty: float = 2.0
    min_overlap: int = 8
    projection: ProjectionConfig = ProjectionConfig.equirect(1536, 768)

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
    *,
    first_row: int = 0,
    projected: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Mean range discrepancy between the projected source and the target.

    Pixels occupied in both rasters contribute |range difference|; source
    pixels that land on empty target pixels add occupancy_penalty times their
    fraction.  Returns +inf when fewer than min_overlap pixels overlap, which
    flags candidates whose rasters barely intersect.

    The target may be a band of the raster: its rows are the raster's rows
    first_row, first_row + 1, ..., and every row outside it is empty.  A
    full raster is the band that starts at row 0.

    Evaluated sparsely over the source's occupied pixels, which is exactly
    equivalent to comparing the two full rasters but does not allocate the
    source image (this runs inside the optimizer loop).

    projected, when given, is ``equirect_range_pixels(transform_points(
    candidate, source.xyz), cfg.projection)`` as a batch of candidates
    computed it, and is used up: its pixel ids are changed in place.
    """
    proj = cfg.projection
    n_rows = target.shape[0]
    if target.shape[1] != proj.width or not 0 <= first_row <= proj.height - n_rows:
        raise ValueError("target raster does not match cfg.projection dimensions")
    _check_schema(source, proj)
    if projected is None:
        projected = equirect_range_pixels(transform_points(candidate, source.xyz), proj)
    pix, src_r = projected
    if pix.size == 0:
        return math.inf
    # pix is sorted, so the source pixels inside the band are one slice; the
    # others have no target return and drop out of the overlap unchanged.
    # Only pix.size is read after this, so the slice is shifted in place.
    offset = first_row * proj.width
    lo, hi = pix.searchsorted((offset, offset + n_rows * proj.width)).tolist()
    inside = pix[lo:hi]
    inside -= offset
    tgt_r = target[..., 0].ravel()[inside]
    both = tgt_r > 0.0
    n_overlap = int(np.count_nonzero(both))
    if n_overlap < cfg.min_overlap:
        return math.inf
    # np.mean's own arithmetic without its wrapper: a float32 sum divided by
    # the count in float64 (the float32 sum and an int count below 2**53
    # convert exactly), rounded back to float32
    diff = np.abs(np.subtract(src_r[lo:hi], tgt_r, out=tgt_r), out=tgt_r)[both]
    cost = float(np.float32(float(np.add.reduce(diff)) / n_overlap))
    cost += cfg.occupancy_penalty * (pix.size - n_overlap) / pix.size
    return cost


def _bounds_vector(bounds: MiscalBounds) -> np.ndarray:
    return np.array([bounds.max_rotation] * 3 + [bounds.max_translation] * 3, dtype=float)


def _initial_simplex(x0: np.ndarray, box: np.ndarray, step_fraction: float) -> np.ndarray:
    steps = np.maximum(step_fraction * box, 1e-6)
    simplex = np.tile(x0, (x0.size + 1, 1))
    simplex[1:] += np.diag(steps)
    return simplex


# Nelder-Mead's stop tolerances, in cost and in coordinates (rad, m); a
# search stops when both hold.  The final stage's joint polish takes
# _FINAL_XATOL, about 1/40 of a pixel (2 pi / 1536 = 4.1e-3 rad), and then
# stops when its 19 costs agree to _FATOL: 3e-4 and 1e-3 stop it at the
# same evaluation.  _FATOL stays at 1e-5, because 1e-4 moved an edge of
# `test_the_final_polish_stops_early_within_a_hundredth_of_a_degree` by
# 1.49 mm.
_FATOL, _XATOL = 1e-5, 1e-7
_FINAL_XATOL = 1e-4


def _nm_options(
    x0: np.ndarray, box: np.ndarray, maxfev: int, step_fraction: float, xatol: float = _XATOL
) -> dict:
    return {
        "maxfev": maxfev,
        "fatol": _FATOL,
        "xatol": xatol,
        "initial_simplex": _initial_simplex(x0, box, step_fraction),
    }


# Boxes whose rotation half-width exceeds this (radians) draw their seven
# non-identity starts from a rotation-only grid, ranked by cost, instead of
# uniformly; the grid spaces its points about _SCREEN_TARGET_STEP apart, with
# at most _SCREEN_MAX_PER_AXIS per axis.
_SCREEN_ROTATION = 0.1
_SCREEN_TARGET_STEP = 0.06
_SCREEN_MAX_PER_AXIS = 13
# starts per multistart search: the identity plus seven screened or sampled
_N_STARTS = 8
# A final stage races its starts (neldermead.lockstep): at half of each
# start's maxfev a start whose best cost is above 1.5 x the leader's retires,
# and at three quarters one above 1.25 x.  Over 4,032 final-stage
# multistarts (`small --runs 20` on the 4-frame `gen-scene --seed 7` and
# `--seed 11` sequences and on the one-frame seed-7 scene, rigid-dense, the
# last stage of `refine`), the eventual winner trailed the leader by at most
# 1.319 / 1.147 at those points; on 1,920 more from two other 4-frame
# sequences, by at most 1.344 / 1.101.  Tighter pairs retired winners there:
# 1.2 / 1.05 nineteen, 1.3 / 1.12 three.  Below _RACE_MIN_MAXFEV a winner
# trailed by up to 1.63 / 1.24 (maxfev 25), so no race runs.  The margins
# are measured, not a bound (README, "Performance").
_RACE = ((0.5, 1.5), (0.75, 1.25))
_RACE_MIN_MAXFEV = 200


def _rotation_screen(costs: Costs, box: np.ndarray, keep: int) -> tuple[list[np.ndarray], int]:
    """Rank a rotation-only grid by cost and keep the best corners as starts."""
    n = int(np.clip(math.ceil(2.0 * box[0] / _SCREEN_TARGET_STEP) + 1, 3, _SCREEN_MAX_PER_AXIS))
    axis = np.linspace(-box[0], box[0], n)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    probes = np.concatenate([grid, np.zeros_like(grid)], axis=1)
    ranked = np.argsort(np.array(costs(list(probes))), kind="stable")[:keep]
    return [probes[i] for i in ranked], probes.shape[0]


def _multistart(
    costs: Costs, box: np.ndarray, budget: int, rng: np.random.Generator, *, race: bool = False
) -> tuple[np.ndarray, float]:
    """Identity start plus box samples, refined by Nelder-Mead; best wins.

    For wide rotation boxes the samples come from a coarse rotation-grid
    screen instead of uniform draws.  The screen's evaluations come out of
    the budget, and the starts share what is left, at least one evaluation
    each: a screen larger than the budget (13^3 = 2197 probes in a +-20 deg
    box) overspends it, and its starts then make no descent, each scoring
    only its start point (see ``EstimatorStage``).  The starts run in
    lock-step, so each round's candidates are scored together, and ties
    between starts keep the earliest start, so the reduction is
    deterministic for a fixed seed.
    With race and at least _RACE_MIN_MAXFEV evaluations per start, beaten
    starts retire early (see _RACE); a retired start's cost is above the
    leader's, so it never wins.
    """
    starts = [np.zeros(box.size)]
    spent = 0
    if box[0] > _SCREEN_ROTATION:
        screened, spent = _rotation_screen(costs, box, _N_STARTS - 1)
        starts.extend(screened)
    else:
        starts.extend(rng.uniform(-1.0, 1.0, (_N_STARTS - 1, box.size)) * box)
    maxfev = max((budget - spent) // len(starts), 1)
    searches = [search(x0, options=_nm_options(x0, box, maxfev, 0.35)) for x0 in starts]
    checkpoints = ()
    if race and maxfev >= _RACE_MIN_MAXFEV:
        checkpoints = tuple((int(part * maxfev), margin) for part, margin in _RACE)
    best_x, best_f = starts[0], math.inf
    for x, f in lockstep(searches, costs, checkpoints):
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


# Raster of estimate_pairwise's multi-start phase: the starts compete on this
# downsampled problem, and only the winner is polished at the caller's raster.
_COARSE_SHAPE = (128, 64)


def estimate_pairwise(
    source: PointCloud,
    target: np.ndarray,
    stage: EstimatorStage,
    cfg: AlignmentCostConfig,
    *,
    seed: int = 0,
) -> RigidTransform:
    """Recover the transform aligning source onto the target raster.

    Multi-start Nelder-Mead over the Euler-pose box of the stage, run
    coarse-to-fine: the starts compete on a downsampled version of the
    problem, and the winner is polished against the caller's raster.  The
    returned transform never costs more than the identity candidate.
    """
    box = _bounds_vector(stage.bounds)
    rng = np.random.default_rng(seed)
    identity = RigidTransform.identity()
    fine = _EdgeProblem("fine", (source,), (target,), (0,), identity, cfg, box)
    coarse_proj = ProjectionConfig.equirect(*_COARSE_SHAPE)
    coarse_target = project_equirect(unproject_equirect(target, cfg.projection), coarse_proj)
    coarse = _EdgeProblem(
        "coarse",
        (source.without_channels(),),
        (coarse_target,),
        (0,),
        identity,
        replace(cfg, projection=coarse_proj),
        box,
    )

    coarse_budget = max(stage.budget * 3 // 5, 1)
    x_coarse, _ = _multistart(coarse.costs, box, coarse_budget, rng)
    fine_budget = max(stage.budget - coarse_budget, 1)
    # one call per solve, options passed by keyword: bench/tracing.py wraps
    # this module's `minimize` and reads len(x0) and options["maxfev"]
    options = _nm_options(x_coarse, box, fine_budget, 0.08)
    # the fine search scores x_coarse first and never returns a higher cost
    x_fine, f_fine = minimize(fine.costs, x_coarse, options=options)
    (f_identity,) = fine.costs([np.zeros(6)])
    if not (math.isfinite(f_fine) or math.isfinite(f_identity)):
        raise NoOverlapError("no candidate produced enough raster overlap")
    return from_euler(x_fine if f_fine <= f_identity else np.zeros(6))


# --- frame-level estimation ---------------------------------------------------

# The cross-sensor lidar<-radar residual composes two miscalibrations, so its
# start box is wider; its target raster is also coarsened because a sparse
# radar return must land on a pixel occupied by the lidar band to match.
_LR_BOX_SCALE = 2.5
_LR_RASTER_SHRINK = 8


def _band(pix: np.ndarray, r: np.ndarray, proj: ProjectionConfig) -> tuple[int, np.ndarray]:
    """The rows of a range raster that hold a return, and the first of them.

    pix and r are an output of ``_nearest_per_segment``, so pix is sorted.
    A raster without returns is an empty band at row 0.
    """
    if pix.size == 0:
        return 0, np.zeros((0, proj.width, 1), dtype=np.float32)
    first_row, last_row = int(pix[0]) // proj.width, int(pix[-1]) // proj.width
    band = np.zeros((last_row + 1 - first_row, proj.width, 1), dtype=np.float32)
    band.reshape(-1)[pix - first_row * proj.width] = r
    return first_row, band


def _camera_target(
    frame: FrameSet, pull_back: RigidTransform, proj: ProjectionConfig
) -> tuple[int, np.ndarray]:
    """Band of ``project_equirect(apply(pull_back, camera cloud), proj)``.

    The camera depth image is unprojected, pulled back and reduced one block
    of rows at a time, so the whole camera cloud is never held.  Reducing
    the blocks' nearest float32 ranges once more gives the reduction of the
    whole cloud, in any block order: float32 rounding is monotonic, and
    float32 ranges round to themselves.
    """
    depth, camera = frame.camera_depth, frame.camera_config
    blocks = []
    for row0, row1 in _row_blocks(np.count_nonzero(depth[..., 0] > 0, axis=1)):
        cloud = unproject_pinhole(depth[row0:row1], camera, first_row=row0)
        blocks.append(equirect_range_pixels(apply(pull_back, cloud).xyz, proj))
    pix, r = (np.concatenate(parts) for parts in zip(*blocks))
    return _band(*_nearest_per_segment(pix, r, None, 1, proj)[0], proj)


def _frustum_crop(cloud: PointCloud, axis: np.ndarray, half_angle: float) -> PointCloud:
    """Keep the points within half_angle of the unit axis direction, or, when
    fewer than 32 fall inside that cone, return the input cloud unchanged."""
    norms = np.linalg.norm(cloud.xyz, axis=1)
    norms = np.where(norms > 0, norms, 1.0)
    cos_angle = (cloud.xyz @ axis) / norms
    keep = cos_angle >= math.cos(min(half_angle, math.pi))
    if np.count_nonzero(keep) < 32:
        return cloud
    return cloud.subset(keep)


# Points projected together in one batch of residuals: the batch's
# temporaries stay near 1.5 MB, while 400-point radar sources still batch
# about 40 residuals.
_BATCH_POINTS = 16384


@dataclass(frozen=True, eq=False)
class _EdgeProblem:
    """One pairwise alignment task: sources per frame, targets per frame.

    targets[k] is the band of rows of frame k's raster that hold a return,
    and first_rows[k] the raster row it starts at.  memo maps the bytes of
    a residual's q and t to the problem's mean cost there, for the life of
    the problem.  Problems compare by identity, like the clouds they hold.
    """

    name: str
    sources: tuple[PointCloud, ...]
    targets: tuple[np.ndarray, ...]
    first_rows: tuple[int, ...]
    nominal: RigidTransform
    cfg: AlignmentCostConfig
    box: np.ndarray
    memo: dict[bytes, float] = field(default_factory=dict, repr=False)

    @cached_property
    def _points(self) -> int:
        return sum(len(source) for source in self.sources)

    @cached_property
    def _nominal_inverse(self) -> RigidTransform:
        return invert(self.nominal)

    def costs(self, xs: Sequence[np.ndarray]) -> list[float]:
        """The ``means`` of the candidates' residuals."""
        return self.means([from_euler(x) for x in xs])

    def means(self, residuals: Sequence[RigidTransform]) -> list[float]:
        """Each residual's mean ``alignment_cost`` over the frames, or +inf
        at the first frame without overlap, whose later frames are skipped.

        A residual the memo holds, or one already seen in this call, is
        neither projected nor scored: the cost depends only on its bits, so
        the results keep every bit.  The rest are projected in batches of
        about _BATCH_POINTS points (at least one residual), one
        ``_equirect_segments`` per batch, and scored in order; the memo gains
        each mean.
        """
        keys = [r.q.tobytes() + r.t.tobytes() for r in residuals]
        unique = dict(zip(keys, residuals))
        means = {key: self.memo.get(key) for key in unique}
        todo = [(key, r) for key, r in unique.items() if means[key] is None]
        per_batch = max(_BATCH_POINTS // max(self._points, 1), 1)
        for start in range(0, len(todo), per_batch):
            batch = todo[start : start + per_batch]
            parts = [transform_points(r, source.xyz) for _, r in batch for source in self.sources]
            projected = iter(_equirect_segments(parts, self.cfg.projection))
            for key, residual in batch:
                pixels = [next(projected) for _ in self.sources]
                cost = 0.0
                for source, target, row, pix in zip(
                    self.sources, self.targets, self.first_rows, pixels
                ):
                    c = alignment_cost(
                        source, residual, target, self.cfg, first_row=row, projected=pix
                    )
                    if not math.isfinite(c):
                        cost = math.inf
                        break
                    cost += c
                self.memo[key] = means[key] = cost / len(self.sources)
        return [means[key] for key in keys]

    def edge(self, x: np.ndarray) -> RigidTransform:
        return self.residual_edge(from_euler(x))

    def residual_edge(self, residual: RigidTransform) -> RigidTransform:
        if self.name == "radar_cam":
            # solved in the cam<-radar direction, so report the inverse edge
            return compose(invert(residual), self._nominal_inverse)
        return compose(self.nominal, residual)

    def coords(self, edge: RigidTransform) -> np.ndarray:
        """Inverse of edge(): the residual coordinates producing this edge."""
        if self.name == "radar_cam":
            return to_euler(compose(self._nominal_inverse, invert(edge)))
        return to_euler(compose(self._nominal_inverse, edge))


# camera targets by the id of their depth image, then by (pull-back, raster, camera)
_CAMERA_TARGETS: dict[int, dict[tuple, tuple[int, np.ndarray]]] = {}


def _cached_camera_target(
    frame: FrameSet, pull_back: RigidTransform, proj: ProjectionConfig
) -> tuple[int, np.ndarray]:
    """``_camera_target``, built once per (depth image, camera, pull-back, raster)
    and dropped when the depth image is freed.  ``apply_miscalibration`` keeps
    the depth image, so the stages and runs on one loaded frame share it."""
    depth = frame.camera_depth
    targets = _CAMERA_TARGETS.get(id(depth))
    if targets is None:
        targets = _CAMERA_TARGETS[id(depth)] = {}
        weakref.finalize(depth, _CAMERA_TARGETS.pop, id(depth), None)
    key = (pull_back.q.tobytes(), pull_back.t.tobytes(), proj, frame.camera_config)
    if key not in targets:
        targets[key] = _camera_target(frame, pull_back, proj)
    return targets[key]


def _build_problems(
    frames: Sequence[FrameSet],
    pairs: Iterable[str],
    stage: EstimatorStage,
    cfg: AlignmentCostConfig,
) -> list[_EdgeProblem]:
    crop_margin = stage.bounds.max_rotation + math.atan2(stage.bounds.max_translation, 4.0) + 0.1
    first = frames[0]
    nominals = {
        "cam_lidar": first.fixed.cam_lidar,
        "lidar_radar": first.fixed.lidar_radar,
        "radar_cam": invert(first.fixed.radar_cam),
    }
    problems = []
    for name in PAIR_NAMES:
        if name not in pairs:
            continue
        sources: list[PointCloud] = []
        bands: list[tuple[int, np.ndarray]] = []
        nominal = nominals[name]
        edge_cfg = cfg
        box = _bounds_vector(stage.bounds)
        if name == "lidar_radar":
            shrunk = ProjectionConfig.equirect(
                max(cfg.projection.width // _LR_RASTER_SHRINK, 16),
                max(cfg.projection.height // _LR_RASTER_SHRINK, 8),
            )
            edge_cfg = replace(cfg, projection=shrunk)
            box = box * _LR_BOX_SCALE
        proj = edge_cfg.projection
        pull_back = invert(nominal)
        if name != "lidar_radar":
            bands = [_cached_camera_target(frame, pull_back, proj) for frame in frames]
        for frame in frames:
            if name == "cam_lidar":
                cam = frame.camera_config
                half_fov = math.atan(math.hypot(0.5 * cam.width / cam.fx, 0.5 * cam.height / cam.fy))
                axis = pull_back.rotation_matrix() @ np.array([0.0, 0.0, 1.0])
                source = _frustum_crop(frame.lidar.without_channels(), axis, half_fov + crop_margin)
            else:
                source = frame.radar.without_channels()
            if name == "lidar_radar":
                target_cloud = apply(pull_back, frame.lidar.without_channels())
                bands.append(_band(*equirect_range_pixels(target_cloud.xyz, proj), proj))
            sources.append(source)
        problems.append(
            _EdgeProblem(
                name=name,
                sources=tuple(sources),
                targets=tuple(band for _, band in bands),
                first_rows=tuple(first_row for first_row, _ in bands),
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
    seed: int = 0,
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

    When stage.final, each edge's multistart retires the starts that trail
    the leader by 50% at half their budget or by 25% at three quarters, and
    the joint polish stops once its simplex is within _FINAL_XATOL = 1e-4
    (rad, m) of its best vertex, about 1/40 of a pixel, and its costs agree
    to _FATOL = 1e-5, if that comes before stage.budget evaluations; an
    earlier stage runs every start to its budget, and every search there
    keeps _XATOL = 1e-7 (see ``EstimatorStage``).

    Each edge problem remembers its mean alignment cost by the bits of the
    residual, for the life of this call: its multistart, rotation screen,
    the seeds and the polish score each residual once, and a polish vertex
    that moves one edge projects and scores only that edge.  The results
    keep every bit.

    A camera edge's target is built once per (depth image, camera, pull-back,
    raster) and kept for the life of the depth image, so the stages and runs
    on one loaded frame share it; the caller passes nothing for this.
    """
    if not frames:
        raise ValueError("estimate_multiframe needs at least one frame")
    pairs = tuple(pairs)
    problems = _build_problems(frames, pairs, stage, cfg)
    rng = np.random.default_rng(seed)

    xs: dict[str, np.ndarray] = {}
    for problem in problems:
        x, f = _multistart(problem.costs, problem.box, stage.budget, rng, race=stage.final)
        if not math.isfinite(f):
            raise NoOverlapError(f"edge {problem.name}: no raster overlap")
        xs[problem.name] = x

    preds = _predictions(problems, xs)
    if w.loop_weight == 0.0 or set(pairs) != set(PAIR_NAMES):
        return preds

    identity = RigidTransform.identity()

    def joint_costs(xs: Sequence[np.ndarray]) -> list[float]:
        # one residual per edge serves both its alignment cost and the loop
        candidates = [[from_euler(x[6 * i : 6 * i + 6]) for i in range(3)] for x in xs]
        out = [0.0] * len(xs)
        # edge by edge, over the candidates whose sum is still finite
        for i, problem in enumerate(problems):
            live = [k for k, total in enumerate(out) if math.isfinite(total)]
            for k, mean in zip(live, problem.means([candidates[k][i] for k in live])):
                out[k] += mean
        for k, residuals in enumerate(candidates):
            if math.isfinite(out[k]):
                # problems are in PAIR_NAMES order, as PredictionSet's fields
                edges = PredictionSet(*map(_EdgeProblem.residual_edge, problems, residuals))
                loop_cost = param_loss(loop_transform(edges), identity, w)
                out[k] = (1.0 - w.loop_weight) * out[k] + w.loop_weight * loop_cost
        return out

    # Loop-consistent variants of the pairwise init: replace one radar edge
    # by the composition of the other two.  This is where the dense lidar
    # data gets a vote on the sparse radar edges; the joint objective picks
    # whichever seed the alignment evidence actually supports.
    consistent = _loop_consistent(preds)
    # the three edges in PAIR_NAMES order, six coordinates each
    x0 = np.concatenate([xs[p.name] for p in problems])
    rc_seed, lr_seed = x0.copy(), x0.copy()
    rc_seed[12:] = problems[2].coords(invert(compose(preds.cam_lidar, preds.lidar_radar)))
    lr_seed[6:12] = problems[1].coords(consistent.lidar_radar)
    seeds = [x0, rc_seed, lr_seed]
    scores = joint_costs(seeds)
    f0 = scores[0]
    start = seeds[int(np.argmin(scores))]

    box = np.concatenate([p.box for p in problems])
    xatol = _FINAL_XATOL if stage.final else _XATOL
    options = _nm_options(start, box, stage.budget, 0.1, xatol)
    x_polished, f_polished = minimize(joint_costs, start, options=options)
    # Hysteresis: plateau noise in the alignment terms makes sub-0.1%
    # "improvements" meaningless, so only genuine descent replaces the init.
    if not f_polished < f0 * (1.0 - 1e-3):
        return consistent
    polished = {p.name: x_polished[6 * i : 6 * i + 6] for i, p in enumerate(problems)}
    return _loop_consistent(_predictions(problems, polished))


# --- estimator interface --------------------------------------------------


def true_edges(frame: FrameSet) -> PredictionSet:
    """Ground-truth pairwise edges of the frame under its recorded miscalibration."""
    return frame.fixed.moved(frame.lidar_mis, frame.radar_mis)


def oracle_estimator(
    frames: Sequence[FrameSet], stage: EstimatorStage | None = None
) -> PredictionSet:
    """Test double returning the recorded ground truth of the first frame."""
    return true_edges(frames[0])


def identity_estimator(
    frames: Sequence[FrameSet], stage: EstimatorStage | None = None
) -> PredictionSet:
    """Test double returning identity transforms for every pair."""
    identity = RigidTransform.identity()
    return PredictionSet(cam_lidar=identity, lidar_radar=identity, radar_cam=identity)


def _estimator(
    w: LossWeights, cfg: AlignmentCostConfig, pairs: tuple[str, ...], seed: int
) -> Estimator:
    """``estimate_multiframe`` bound to its settings, looked up at each call so
    that a wrapper on the module's name (the benchmark's tracer) sees it."""

    def run(frames: Sequence[FrameSet], stage: EstimatorStage) -> PredictionSet:
        return estimate_multiframe(frames, stage, w, cfg, pairs=pairs, seed=seed)

    return run


def joint_estimator(w: LossWeights, cfg: AlignmentCostConfig, *, seed: int = 0) -> Estimator:
    """Bind the joint reference estimator into the pipeline interface."""
    return _estimator(w, cfg, PAIR_NAMES, seed)


def pairwise_estimator(
    cfg: AlignmentCostConfig, *, pairs: Iterable[str] = PAIR_NAMES, seed: int = 0
) -> Estimator:
    """Independent per-pair estimation without the loop-closure polish."""
    return _estimator(LossWeights(loop_weight=0.0), cfg, tuple(pairs), seed)
