"""The benchmark's traced seams still exist.

perfbench/layers.py wraps public callables by name and reads a few fields of
what they return; a target that is renamed away drops its metrics from a
traced run.  These tests resolve every target the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kgrec.evaluation import FastScorer, ItemContextSet
from kgrec.graph import InteractionStore
from kgrec.sampling import WalkConfig, build_walk_cache, substream
from kgrec.training import assemble_pair_batch

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
