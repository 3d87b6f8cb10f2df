"""Viseme weight curves for blendshape face rigs.

Generates procedural curves from phoneme alignments, refines weights and
rigid head pose against landmark/image/flow observations with phoneme
guidance, and applies the result to mesh and bone assets.
"""

from .adam import AdamState, adam_step, learning_rate
from .bones import (
    BonePose,
    BonePoseAssets,
    blend_bone_pose,
    parse_bone_assets,
    read_bone_assets,
    serialize_blended_poses,
    slerp,
)
from .camera import Pose, identity_pose, project, quat_normalize, quat_to_matrix, transform_points
from .curves import Curve, parse_curve, read_curve, resample_curve, serialize_curve, write_curve
from .errors import DataError, NumericError, UsageError, VisemefitError
from .evaluation import (
    MetricSeries,
    keypoint_error,
    lip_distance_curves,
    serialize_metric,
    serialize_total_variation,
    total_variation,
)
from .fitting import (
    FitConfig,
    FitResult,
    fit_clip,
    parse_fit_config,
    parse_poses,
    read_fit_config,
    read_poses,
    serialize_fit_config,
    serialize_poses,
    write_poses,
)
from .flow import read_flow_pair, screen_flow, write_flow_pair
from .guidance import GuidanceSets, guidance_sets, top_k
from .images import bilinear_sample, in_bounds, read_ppm, write_ppm
from .losses import FrameProblem
from .mesh import Mesh, parse_obj, read_obj, serialize_obj, write_obj
from .observations import (
    ObservationDir,
    RawObservation,
    parse_landmarks,
    read_landmarks,
    serialize_landmarks,
)
from .procedural import (
    EnvelopeRule,
    EnvelopeRules,
    envelope,
    generate_procedural,
    parse_rules,
    read_rules,
)
from .rig import (
    Rig,
    bake_mesh_sequence,
    blend_mesh,
    blend_vertices,
    default_viseme_labels,
    load_rig,
    load_rig_manifest,
)
from .timeline import (
    PhonemeSegment,
    PhonemeVisemeMap,
    Timeline,
    frame_count,
    parse_alignment,
    parse_viseme_map,
    read_alignment,
    read_viseme_map,
    serialize_timeline,
    viseme_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]
