"""voxcrf: dense-CRF label refinement, depth back-projection and recursive
Bayesian voxel fusion for semantic 3D mapping."""

from .crf import (
    IGNORE_LABEL,
    CrfParams,
    FeatureField,
    LabelDistributionImage,
    LabelImage,
    UnaryField,
    build_features,
    crf_energy,
    map_labeling,
    mean_field_backward,
    mean_field_infer,
    potts_matrix,
    train_crf_params,
    unary_from_probabilities,
)
from .errors import (
    ConfigError,
    FormatError,
    InputError,
    NumericalError,
    SizeLimitError,
    VoxcrfError,
)
from .filtering import FilterPlan, plan_filter
from .fusion import (
    ExtractedMap,
    VoxelMap,
    extract_map,
    integrate_cloud,
    voxel_keys,
)
from .metrics import (
    ConfusionMatrix,
    EvalFrame,
    accumulate,
    compute_metrics,
    evaluate_fused_map,
)
from .projection import (
    CameraIntrinsics,
    Pose,
    SemanticPointCloud,
    back_project,
    make_semantic_cloud,
    transform_cloud,
)

__version__ = "0.1.0"
