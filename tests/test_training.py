"""Evaluation refuses non-finite label probabilities instead of scoring
their default argmax."""

import numpy as np
import pytest

from domaingate import training
from domaingate.data import Instance
from domaingate.inference import InferConfig, PredictionRecord


def test_evaluate_names_instance_with_non_finite_probs(monkeypatch):
    insts = [Instance(f"doc{i}", (1, 2, 3), 0, 0, "pos", "dom0") for i in range(2)]

    def stub_predict_batch(model, instances, cfg):
        probs = [np.array([0.9, 0.1]), np.array([np.nan, np.nan])]
        return [PredictionRecord(inst.doc_id, 0, p, cfg.strategy, cfg.seed)
                for inst, p in zip(instances, probs)]

    monkeypatch.setattr(training, "predict_batch", stub_predict_batch)
    with pytest.raises(FloatingPointError, match="doc1"):
        training.evaluate(None, insts, InferConfig())
