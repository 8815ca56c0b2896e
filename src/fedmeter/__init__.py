"""Federated smart-meter anomaly detection under white-box adversarial
attacks, simulated deterministically at desk scale."""

from . import attacks, autodiff, data, evaluation, experiment, federation, models
from .attacks import AttackSpec
from .data import LabeledDataset, UsageWindows
from .evaluation import AsrReport, Metrics
from .experiment import DataConfig, ExperimentConfig, FederationConfig, run_experiment
from .federation import ClientNode, FederationState
from .models import LstmClassifier, TrainConfig, TransformerClassifier

__version__ = "0.1.0"

__all__ = [
    "attacks", "autodiff", "data", "evaluation", "experiment", "federation",
    "models", "AttackSpec", "LabeledDataset", "UsageWindows", "AsrReport",
    "Metrics", "DataConfig",
    "ExperimentConfig", "FederationConfig", "run_experiment", "ClientNode",
    "FederationState", "LstmClassifier", "TrainConfig", "TransformerClassifier",
    "__version__",
]
