"""The benchmark's traced seams still exist.

perfbench/layers.py wraps public callables by name and reads a few fields of
what they return; a target that is renamed away drops its metrics from a
traced run.  These tests resolve every target the way the tracer does.
"""

import collections
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kgrec import evaluation, training
from kgrec.evaluation import EvalConfig, FastScorer, ItemContextSet, evaluate
from kgrec.graph import InteractionStore
from kgrec.sampling import WalkConfig, build_walk_cache, substream
from kgrec.training import TrainConfig, assemble_pair_batch, train

import synth

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


@pytest.mark.parametrize("module_name, path", _targets())
def test_traced_target_resolves(module_name, path):
    *outer, attr = path.split(".")
    owner = importlib.import_module(f"kgrec.{module_name}")
    for part in outer:
        owner = getattr(owner, part, None)
    assert owner is not None, f"{module_name}.{path}: owner is gone"
    assert vars(owner).get(attr) is not None, f"{module_name}.{path} is gone"


def _world():
    rng = np.random.default_rng(41)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, n_users=4, n_items=8, n_entities=14)
    store = InteractionStore(4, 8, {"train": [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4)]})
    cache = build_walk_cache(kg, items, WalkConfig(0.2, 4, 3, cfg.local_size), seed=41)
    return kg, params, cfg, items, store, cache


def test_pair_batch_exposes_the_rows_the_batch_observer_reads():
    kg, params, cfg, items, store, cache = _world()
    tuples = [(0, 0, 5), (1, 2, 6), (3, 4, 7)]
    batch = assemble_pair_batch(tuples, cfg, kg, cache, store, items, substream(1, "c"))
    rows = (2 + cfg.history_size) * len(tuples)
    assert batch.user_rows.shape == (rows,)
    assert batch.entity_rows.shape == (rows,)


def test_user_scores_returns_one_score_per_item():
    kg, params, cfg, items, store, cache = _world()
    contexts = ItemContextSet.build(kg, items, cache, cfg.local_size,
                                    substream(1, "eval-items"))
    scorer = FastScorer(params, cfg, items, contexts)
    assert scorer.user_scores(1, [2, 3]).shape == (store.item_count,)


def test_samplers_run_once_per_batch_and_once_per_evaluation(monkeypatch):
    """The wrapped sampler names are live: train() calls each once per batch
    and evaluate() once per pass, so the traced call counts mean that."""
    kg, params, cfg, items, _, cache = _world()
    store = InteractionStore(4, 8, {"train": [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4)],
                                    "test": [(0, 5), (2, 6)]})
    calls = collections.Counter()
    for module in (training, evaluation):
        for name in ("sample_local_neighbors", "sample_history"):
            def counted(*args, _sampler=getattr(module, name),
                        _key=f"{module.__name__.rsplit('.', 1)[1]}.{name}", **kwargs):
                calls[_key] += 1
                return _sampler(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    # 25 tuples in batches of 4, capped at 3; no valid split, so no evaluation
    train(store, kg, items, cache, cfg, TrainConfig(batch_size=4, max_batches=3, seed=2),
          params=params)
    assert calls == {"training.sample_local_neighbors": 3, "training.sample_history": 3}
    evaluate(params, cfg, store, kg, items, cache, EvalConfig(), split="test")
    assert calls == {"training.sample_local_neighbors": 3, "training.sample_history": 3,
                     "evaluation.sample_local_neighbors": 1, "evaluation.sample_history": 1}
