"""Completion-time prediction (paper §VII future work).

"We aim to enable the network to identify the most suitable cluster for
executing requests and optimize the system by leveraging machine learning
algorithms to predict completion times."

The predictor is an online least-squares regressor over simple request
features.  It is trained from completed job records (features → observed
runtime) and used by the learned placement strategy to rank clusters by the
predicted completion time (predicted runtime plus the cluster's current queue
delay estimate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.spec import ComputeRequest, JobRecord

__all__ = ["CompletionTimePredictor"]

#: Ridge penalty of the per-application least-squares fit.
RIDGE = 1e-3


@dataclass(frozen=True)
class _TrainingExample:
    """One (features, runtime) observation."""

    features: tuple[float, ...]
    runtime_s: float
    app: str


def _request_features(request: ComputeRequest) -> tuple[float, ...]:
    """Feature vector: bias, 1/cpu, 1/mem."""
    return (
        1.0,
        1.0 / max(request.cpu, 1e-6),
        1.0 / max(request.memory_gb, 1e-6),
    )


class CompletionTimePredictor:
    """Per-application online linear regression for job runtimes."""

    def __init__(self, min_examples: int = 3) -> None:
        self.min_examples = min_examples
        self._examples: dict[str, list[_TrainingExample]] = {}
        self._weights: dict[str, np.ndarray] = {}
        self.predictions_made = 0

    # -- training -------------------------------------------------------------------

    def observe(self, request: ComputeRequest, runtime_s: float) -> _TrainingExample:
        """Add one completed-job observation and refit that application's model."""
        example = _TrainingExample(
            features=_request_features(request),
            runtime_s=float(runtime_s),
            app=request.app.upper(),
        )
        self._examples.setdefault(example.app, []).append(example)
        self._fit(example.app)
        return example

    def observe_record(self, record: JobRecord) -> Optional[_TrainingExample]:
        """Convenience: train from a completed :class:`JobRecord`."""
        runtime = record.runtime()
        if runtime is None:
            return None
        return self.observe(record.request, runtime)

    def _fit(self, app: str) -> None:
        examples = self._examples.get(app, [])
        if len(examples) < self.min_examples:
            return
        features = np.array([ex.features for ex in examples], dtype=float)
        targets = np.array([ex.runtime_s for ex in examples], dtype=float)
        n_features = features.shape[1]
        gram = features.T @ features + RIDGE * np.eye(n_features)
        self._weights[app] = np.linalg.solve(gram, features.T @ targets)

    # -- prediction -------------------------------------------------------------------

    def is_trained(self, app: str) -> bool:
        return app.upper() in self._weights

    def predict(self, request: ComputeRequest) -> Optional[float]:
        """Predicted runtime in seconds, or ``None`` before enough training data."""
        app = request.app.upper()
        weights = self._weights.get(app)
        if weights is None:
            # Fall back to the mean runtime of whatever examples exist.
            examples = self._examples.get(app, [])
            if not examples:
                return None
            return float(np.mean([ex.runtime_s for ex in examples]))
        self.predictions_made += 1
        features = np.array(_request_features(request), dtype=float)
        prediction = float(features @ weights)
        return max(0.0, prediction)

    def mean_absolute_error(self, app: str) -> Optional[float]:
        """In-sample MAE of the fitted model (observability for the placement ablation)."""
        app = app.upper()
        weights = self._weights.get(app)
        examples = self._examples.get(app, [])
        if weights is None or not examples:
            return None
        features = np.array([ex.features for ex in examples], dtype=float)
        targets = np.array([ex.runtime_s for ex in examples], dtype=float)
        predictions = features @ weights
        return float(np.mean(np.abs(predictions - targets)))

    def applications(self) -> Sequence[str]:
        return sorted(self._examples)
