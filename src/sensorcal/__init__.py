"""Targetless camera/lidar/radar extrinsic calibration toolkit.

Miscalibration simulation, equirectangular depth-image projection, the
pairwise + loop-closure loss suite, a derivative-free reference estimator,
staged refinement, and rigid-platform aggregation, validated end to end on
synthetic ray-cast scenes.
"""

from .data import LIDAR_CHANNELS, RADAR_CHANNELS, FrameSet, PointCloud
from .dataio import (
    Box,
    Cylinder,
    GroundPlane,
    SceneSpec,
    default_sensor_poses,
    generate_scene,
    load_calib,
    load_cloud,
    load_frame,
    random_scene_spec,
    save_calib,
    save_cloud,
    save_frame,
)
from .errors import (
    CalibrationError,
    DegenerateSceneError,
    EmptyCloudError,
    EmptyListError,
    LengthMismatchError,
    MissingPairError,
    NonRigidError,
    NoOverlapError,
    ParseError,
    SchemaMismatchError,
    SizeMismatchError,
)
from .estimate import (
    AlignmentCostConfig,
    EstimatorStage,
    alignment_cost,
    estimate_multiframe,
    estimate_pairwise,
    identity_estimator,
    joint_estimator,
    oracle_estimator,
    pairwise_estimator,
    true_edges,
)
from .loss import (
    PAIR_NAMES,
    LossWeights,
    PredictionSet,
    loop_loss,
    loop_transform,
    pairwise_loss,
    param_loss,
    point_loss,
    smooth_l1,
)
from .metrics import (
    ErrorRecord,
    SummaryStats,
    error_record,
    format_summary_table,
    summarize,
    summarize_by_pair,
)
from .perturb import PRESETS, MiscalBounds, ScenarioPreset, apply_miscalibration, sample_miscalibration
from .pipeline import (
    accumulate_radar,
    aggregate_sequence,
    refine_multiframe,
    stages_from_preset,
)
from .projection import (
    ProjectionConfig,
    SphericalCoord,
    cart_to_spherical,
    equirect_pixel,
    project_equirect,
    project_pinhole,
    unproject_pinhole,
)
from .transform import (
    RigidTransform,
    apply,
    compose,
    from_euler,
    invert,
    quat_angular_distance,
    to_euler,
    translation_distance,
)

__version__ = "0.1.0"
