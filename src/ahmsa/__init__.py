"""Micro-expression recognition pipeline: 3-channel optical-flow features
(TV-L1 horizontal/vertical flow + optical strain), a hierarchical multi-scale
attention classifier, and leave-one-subject-out evaluation with UF1/UAR.
"""

__version__ = "0.1.0"

from .data import (
    CLASS_NAMES,
    ConfusionMatrix,
    DatasetManifest,
    Sample,
    gen_synthetic,
    load_manifest,
    loso_splits,
    map_emotion,
    uar,
    uf1,
)
from .errors import (
    AhmsaError,
    ConfigError,
    DimensionError,
    TrainingDivergedError,
    UsageError,
    ValidationError,
)
from .model import (
    ModelConfig,
    ModelParams,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .optflow import (
    FlowField,
    FlowOptions,
    LandmarkSet,
    TVL1Params,
    compose_regions,
    extract_feature_map,
    optical_strain,
    read_flow_map,
    read_pgm,
    tvl1_flow,
    write_flow_map,
    write_pgm,
)
from .tensor import Tensor, no_grad
from .train import (
    MetricsReport,
    TrainConfig,
    desk_scale_config,
    evaluate,
    run_loso,
    train_fold,
)

__all__ = [
    "AhmsaError",
    "CLASS_NAMES",
    "ConfigError",
    "ConfusionMatrix",
    "DatasetManifest",
    "DimensionError",
    "FlowField",
    "FlowOptions",
    "LandmarkSet",
    "MetricsReport",
    "ModelConfig",
    "ModelParams",
    "Sample",
    "Tensor",
    "TVL1Params",
    "TrainConfig",
    "TrainingDivergedError",
    "UsageError",
    "ValidationError",
    "compose_regions",
    "desk_scale_config",
    "evaluate",
    "extract_feature_map",
    "forward",
    "gen_synthetic",
    "init_model",
    "load_checkpoint",
    "load_manifest",
    "loso_splits",
    "map_emotion",
    "no_grad",
    "optical_strain",
    "read_flow_map",
    "read_pgm",
    "run_loso",
    "save_checkpoint",
    "train_fold",
    "tvl1_flow",
    "uar",
    "uf1",
    "write_flow_map",
    "write_pgm",
]
