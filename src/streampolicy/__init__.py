"""Streaming policy execution for desk-scale control.

Actions are generated one at a time by a flow-matching policy conditioned on
an action-space state (the running sum of executed actions), which lets
generation overlap execution instead of idling between chunks. A saliency
predictor decides when the next observation can be taken early, hiding
observation latency behind the tail of the current horizon.
"""

from .core import (
    ACTION_DIM,
    OBS_DIM,
    Observation,
    Trajectory,
    cumulative_states,
    load_dataset,
    make_rng,
    save_dataset,
)
from .envsim import EnvKind, EnvState, KIND_CONTROLLER, KIND_DIRECT, generate_demos, make_env
from .flowmatch import FlowParams
from .metrics import MetricsReport, closed_form, measure
from .normkit import NormStats, fit_stats, normalize, denormalize
from .saliency import (
    Indicator,
    Predictor,
    PredictorConfig,
    calibrate_threshold,
    train_predictor,
)
from .streamexec import (
    MODE_STREAMING,
    MODE_SYNC_CHUNK,
    REFERENCE_PROFILE,
    ZERO_LATENCY,
    EpisodeResult,
    SchedulerConfig,
    StageLatency,
    TimelineEvent,
    run_episode,
    run_episodes,
)
from .trainer import TrainConfig, TrainingDivergedError, train
from .velocitynet import Policy, load_policy, save_policy

__version__ = "0.1.0"

__all__ = [
    "ACTION_DIM",
    "OBS_DIM",
    "Observation",
    "Trajectory",
    "cumulative_states",
    "load_dataset",
    "make_rng",
    "save_dataset",
    "EnvKind",
    "EnvState",
    "KIND_CONTROLLER",
    "KIND_DIRECT",
    "generate_demos",
    "make_env",
    "FlowParams",
    "MetricsReport",
    "closed_form",
    "measure",
    "NormStats",
    "fit_stats",
    "normalize",
    "denormalize",
    "Indicator",
    "Predictor",
    "PredictorConfig",
    "calibrate_threshold",
    "train_predictor",
    "MODE_STREAMING",
    "MODE_SYNC_CHUNK",
    "REFERENCE_PROFILE",
    "ZERO_LATENCY",
    "EpisodeResult",
    "SchedulerConfig",
    "StageLatency",
    "TimelineEvent",
    "run_episode",
    "run_episodes",
    "TrainConfig",
    "TrainingDivergedError",
    "train",
    "Policy",
    "load_policy",
    "save_policy",
    "__version__",
]
