"""Group-conditional federated conformal prediction.

Clients compress group-stratified conformity scores into mergeable quantile
sketches; a server merges them into a weighted coreset and solves an
augmented pinball quantile regression whose KKT threshold defines prediction
sets with group-conditional coverage over overlapping covariate groups.
"""

from .conformal import (
    CALIBRATOR_KINDS,
    CalibrationData,
    ConditionalCalibrator,
    EmptySetError,
    GlobalCalibrator,
    calibrate_baseline,
    split_cp_threshold,
    threshold_search,
)
from .federation import ClientDataset, ClientMessage, Coreset, FederationRound, run_round
from .groups import GroupFamily, Interval, LabelSet, interval_family, membership_vector
from .harness import CoverageReport, DegenerateGroupError, ExperimentConfig, run_experiment
from .tdigest import Digest, build_digest_arrays, merge

__version__ = "0.1.0"

__all__ = [
    "CALIBRATOR_KINDS",
    "CalibrationData",
    "ClientDataset",
    "ClientMessage",
    "ConditionalCalibrator",
    "Coreset",
    "CoverageReport",
    "DegenerateGroupError",
    "Digest",
    "EmptySetError",
    "ExperimentConfig",
    "FederationRound",
    "GlobalCalibrator",
    "GroupFamily",
    "Interval",
    "LabelSet",
    "build_digest_arrays",
    "calibrate_baseline",
    "interval_family",
    "membership_vector",
    "merge",
    "run_experiment",
    "run_round",
    "split_cp_threshold",
    "threshold_search",
]
