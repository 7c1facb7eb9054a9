"""Loss definitions, objective composition, and optimization-loop behavior."""

import math

import numpy as np
import pytest

from kgrec import autodiff as ad
from kgrec.autodiff import finite_difference_check
from kgrec.graph import InputError, InteractionStore, KnowledgeGraph, Triple
from kgrec.model import GraphContextModel, ModelConfig, init_params
from kgrec.sampling import WalkConfig, build_walk_cache, sample_kg_negatives, substream
from kgrec.training import (TrainConfig, assemble_pair_batch, bpr_loss,
                            kg_distance, kg_loss, total_objective, train)
from kgrec.evaluation import EvalConfig

import synth


def _constant_scores(values):
    return ad.constant(np.asarray(values).reshape(-1, 1))


def test_bpr_loss_at_equal_scores_is_log_two():
    loss = bpr_loss(_constant_scores([1.0, -2.0]), _constant_scores([1.0, -2.0]))
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_bpr_loss_vanishes_for_large_margin():
    loss = bpr_loss(_constant_scores([60.0]), _constant_scores([-60.0]))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_batched_pairwise_loss_gradient():
    """Finite differences through the whole batched path: assembly arrays,
    masked recurrence, history attention blocks, and the ranking loss."""
    rng = np.random.default_rng(42)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, n_users=4, n_items=6, n_entities=10, dim=4, scale=3.0)
    pairs = [(u, int(i)) for u in range(4)
             for i in rng.choice(6, size=3, replace=False)]
    store = InteractionStore(4, 6, {"train": list(dict.fromkeys(pairs))})
    cache = build_walk_cache(kg, items, WalkConfig(0.2, 3, 3, cfg.local_size),
                             seed=3)
    tuples = [(0, 1, 4), (2, 3, 5), (3, 0, 2)]
    batch = assemble_pair_batch(tuples, cfg, kg, cache, store, items,
                                substream(4, "ctx"))

    def f():
        y_pos, y_neg = model.scores_batch(batch)
        return bpr_loss(y_pos, y_neg)

    err = finite_difference_check(f, params, eps=1e-5, max_coords=10, rng=rng)
    assert err < 1e-4


def test_bpr_loss_gradient():
    rng = np.random.default_rng(0)
    kg, model, params, cfg, items = synth.random_model_setup(rng, dim=4, scale=3.0)
    ctx_a = synth.random_score_context(rng, kg, model, len(items))
    ctx_b = synth.random_score_context(rng, kg, model, len(items))

    def f():
        y_pos = model.score(0, 1, ctx_a)
        y_neg = model.score(0, 2, ctx_b)
        return bpr_loss(y_pos, y_neg)

    err = finite_difference_check(f, params, eps=1e-5, max_coords=8, rng=rng)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# graph-structure loss
# ---------------------------------------------------------------------------


def test_kg_distance_zero_when_fused_equals_head():
    rng = np.random.default_rng(1)
    kg, model, params, cfg, items = synth.random_model_setup(rng, dim=3)
    d = cfg.dim
    # fused = tail embedding block; make tail embedding equal the head's
    synth.write_concat(params, "rel_fuse_W", np.vstack([np.zeros((d, d)), np.eye(d)]))
    params["entity_emb"].data[1] = params["entity_emb"].data[0]
    assert kg_distance(model, 0, 0, 1).item() == pytest.approx(0.0, abs=1e-15)


def test_kg_distance_is_nonnegative():
    rng = np.random.default_rng(2)
    kg, model, params, cfg, items = synth.random_model_setup(rng)
    for _ in range(50):
        h, t = rng.integers(kg.entity_count, size=2)
        r = rng.integers(kg.relation_count)
        assert kg_distance(model, int(h), int(r), int(t)).item() >= 0.0


def test_kg_distance_hand_computed_example():
    rng = np.random.default_rng(3)
    kg, model, params, cfg, items = synth.random_model_setup(rng, dim=2)
    params["entity_emb"].data[0] = [1.0, 2.0]
    params["relation_emb"].data[0] = [0.5, -1.0]
    params["entity_emb"].data[1] = [3.0, 0.25]
    synth.write_concat(params, "rel_fuse_W", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    # fused = (0.5*1 - 1*0 + 3*1 + 0.25*0, 0.5*0 - 1*1 + 3*1 + 0.25*1) = (3.5, 2.25)
    # head - fused = (-2.5, -0.25) -> squared norm 6.3125
    assert kg_distance(model, 0, 0, 1).item() == pytest.approx(6.3125, abs=1e-12)


def test_kg_loss_at_equal_distances_is_log_half():
    rng = np.random.default_rng(4)
    kg, model, params, cfg, items = synth.random_model_setup(rng)
    quads = [(0, 0, 1, 1)]  # identical tail and corrupt tail
    assert kg_loss(model, quads).item() == pytest.approx(math.log(0.5), abs=1e-12)


def test_kg_loss_decreases_when_true_tail_moves_closer():
    rng = np.random.default_rng(5)
    kg, model, params, cfg, items = synth.random_model_setup(rng)
    quads = [(0, 0, 1, 2)]
    before = kg_loss(model, quads).item()
    # drag the head toward its fused tail
    e_rt = model.relation_fuse([0], [1]).data
    params["entity_emb"].data[0] = e_rt[0]
    after = kg_loss(model, quads).item()
    assert after < before


def test_kg_loss_gradient():
    rng = np.random.default_rng(6)
    kg, model, params, cfg, items = synth.random_model_setup(rng, dim=4, scale=3.0)
    quads = [(0, 0, 1, 5), (2, 1, 3, 7)]
    err = finite_difference_check(lambda: kg_loss(model, quads), params,
                                  names=["entity_emb", "relation_emb", "rel_fuse_W_r",
                                         "rel_fuse_W_t"],
                                  eps=1e-5, max_coords=10, rng=rng)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------


def _tiny_world(seed=0, n_users=4, n_items=6):
    rng = np.random.default_rng(seed)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, n_users=n_users, n_items=n_items, n_entities=n_items + 4)
    pairs = [(u, int(i)) for u in range(n_users)
             for i in rng.choice(n_items, size=3, replace=False)]
    store = InteractionStore(n_users, n_items, {"train": list(dict.fromkeys(pairs))})
    wcfg = WalkConfig(0.2, 4, 3, cfg.local_size)
    cache = build_walk_cache(kg, items, wcfg, seed=seed)
    return kg, model, params, cfg, items, store, cache


def _one_batch(kg, model, cfg, items, store, cache, seed=0):
    rng = substream(seed, "ctx")
    tuples = [(u, i, (i + 1) % store.item_count) for u, i in store.pairs("train")][:4]
    return assemble_pair_batch(tuples, cfg, kg, cache, store, items, rng)


def test_objective_reduces_to_bpr_when_lambdas_are_zero():
    kg, model, params, cfg, items, store, cache = _tiny_world(7)
    batch = _one_batch(kg, model, cfg, items, store, cache)
    y_pos, y_neg = model.scores_batch(batch)
    tcfg = TrainConfig(lambda1=0.0, lambda2=0.0)
    total, parts = total_objective(model, y_pos, y_neg, [], tcfg)
    assert total.item() == bpr_loss(y_pos, y_neg).item()
    assert parts["kg"] == 0.0 and parts["l2"] == 0.0


def test_l2_term_is_zero_at_zero_parameters():
    kg, model, params, cfg, items, store, cache = _tiny_world(8)
    for _, t in params.items():
        t.data[...] = 0.0
    assert params.l2_penalty().item() == 0.0


def test_objective_gradient_is_sum_of_part_gradients():
    kg, model, params, cfg, items, store, cache = _tiny_world(9)
    batch = _one_batch(kg, model, cfg, items, store, cache)
    quads = sample_kg_negatives(kg, substream(1, "kg"))[:3]
    tcfg = TrainConfig(lambda1=0.7, lambda2=0.3)

    def grads_of(builder):
        params.zero_grads()
        builder().backward()
        return {name: t.grad.copy() for name, t in params.items()}

    y_pos, y_neg = model.scores_batch(batch)
    total, _ = total_objective(model, y_pos, y_neg, quads, tcfg)
    g_total = grads_of(lambda: total)
    g_bpr = grads_of(lambda: bpr_loss(*model.scores_batch(batch)))
    g_kg = grads_of(lambda: kg_loss(model, quads))
    g_l2 = grads_of(lambda: params.l2_penalty())
    for name in g_total:
        combined = g_bpr[name] + 0.7 * g_kg[name] + 0.3 * g_l2[name]
        assert np.abs(g_total[name] - combined).max() < 1e-10, name


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def test_single_batch_overfit_drives_ranking_loss_down():
    """10 interactions, repeated updates: mean pairwise loss sinks below 0.05."""
    rng = np.random.default_rng(10)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, n_users=5, n_items=6, n_entities=10, dim=8)
    pairs = [(u, (u + j) % 6) for u in range(5) for j in range(2)]
    store = InteractionStore(5, 6, {"train": pairs})
    cache = build_walk_cache(kg, items, WalkConfig(0.2, 3, 3, cfg.local_size), seed=1)
    tuples = [(u, i, (i + 3) % 6) for u, i in pairs]
    rng_ctx = substream(2, "ctx")
    batch = assemble_pair_batch(tuples, cfg, kg, cache, store, items, rng_ctx)
    adam = ad.AdamState(params)
    loss_value = None
    for _ in range(200):
        y_pos, y_neg = model.scores_batch(batch)
        loss = bpr_loss(y_pos, y_neg)
        params.zero_grads()
        loss.backward()
        adam.step(params, eta=0.02)
        loss_value = loss.item()
    assert loss_value < 0.05


def test_kg_only_training_orders_distances():
    """Criterion: within 500 steps the true tails end up closer than corrupt ones."""
    rng = np.random.default_rng(11)
    triples = [Triple(int(rng.integers(8)), int(rng.integers(2)), int(rng.integers(8)))
               for _ in range(10)]
    kg = KnowledgeGraph(8, 2, triples)
    cfg = ModelConfig(dim=4, local_size=2, history_size=2)
    params = init_params(cfg, 2, 8, kg.relation_embedding_count, rng)
    model = GraphContextModel(cfg, params, np.arange(2))
    quads = sample_kg_negatives(kg, substream(3, "kg"))
    adam = ad.AdamState(params)
    for _ in range(500):
        loss = kg_loss(model, quads)
        params.zero_grads()
        loss.backward()
        adam.step(params, eta=5e-3)
    s_pos = np.mean([kg_distance(model, h, r, t).item() for h, r, t, _ in quads])
    s_neg = np.mean([kg_distance(model, h, r, n).item() for h, r, _, n in quads])
    assert s_pos < s_neg


def _planted_mini(seed=0):
    store, kg, item_entities = synth.planted_dataset(seed, n_users=20, n_items=30,
                                                     core=8)
    cache = build_walk_cache(kg, item_entities, WalkConfig(0.2, 4, 3, 2), seed=seed)
    mcfg = ModelConfig(dim=8, local_size=2, history_size=3)
    return store, kg, item_entities, cache, mcfg


def test_training_loss_decreases_on_planted_data():
    store, kg, item_entities, cache, mcfg = _planted_mini()
    first, fifth = [], []
    for seed in (1, 2, 3):
        tcfg = TrainConfig(eta=5e-3, lambda1=1e-5, lambda2=1e-6, batch_size=64,
                           n_neg=3, epochs=5, seed=seed, eval_every=5, patience=50)
        _, report = train(store, kg, item_entities, cache, mcfg, tcfg,
                          eval_cfg=EvalConfig(k_values=(10, 20)))
        first.append(report.records[0].bpr_loss)
        fifth.append(report.records[4].bpr_loss)
    assert np.mean(fifth) < np.mean(first)


def test_graph_regularizer_changes_the_solution():
    store, kg, item_entities, cache, mcfg = _planted_mini()
    outputs = []
    for lam in (0.0, 0.5):
        tcfg = TrainConfig(eta=5e-3, lambda1=lam, lambda2=0.0, batch_size=64,
                           n_neg=2, epochs=2, seed=4, eval_every=2, patience=50)
        params, _ = train(store, kg, item_entities, cache, mcfg, tcfg,
                          eval_cfg=EvalConfig(k_values=(10, 20)))
        outputs.append(params["entity_emb"].data.copy())
    assert np.abs(outputs[0] - outputs[1]).max() > 1e-9


def test_training_is_deterministic_given_seed():
    store, kg, item_entities, cache, mcfg = _planted_mini()
    reports = []
    snapshots = []
    for _ in range(2):
        tcfg = TrainConfig(eta=5e-3, lambda1=1e-4, lambda2=1e-6, batch_size=64,
                           n_neg=2, epochs=3, seed=9, eval_every=1, patience=50)
        params, report = train(store, kg, item_entities, cache, mcfg, tcfg,
                               eval_cfg=EvalConfig(k_values=(10, 20)))
        reports.append("\n".join(report.report_lines()))
        snapshots.append(params.snapshot())
    assert reports[0] == reports[1]
    for name in snapshots[0]:
        np.testing.assert_array_equal(snapshots[0][name], snapshots[1][name])


def test_fixed_negatives_flag_freezes_tuple_sets():
    store, kg, item_entities, cache, mcfg = _planted_mini()
    tcfg = TrainConfig(eta=1e-3, lambda1=0.0, batch_size=64, n_neg=2, epochs=2,
                       seed=5, eval_every=2, patience=50, fixed_negatives=True)
    params, report = train(store, kg, item_entities, cache, mcfg, tcfg,
                           eval_cfg=EvalConfig(k_values=(10, 20)))
    assert len(report.records) == 2  # runs; behavior is covered by determinism


def test_training_without_validation_split_runs_to_completion():
    rng = np.random.default_rng(12)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, n_users=3, n_items=5, n_entities=9)
    store = InteractionStore(3, 5, {"train": [(0, 0), (1, 1), (2, 2)]})
    cache = build_walk_cache(kg, items, WalkConfig(0.2, 2, 2, cfg.local_size), seed=0)
    tcfg = TrainConfig(eta=1e-3, lambda1=0.0, batch_size=4, n_neg=2, epochs=4,
                       seed=3, patience=1, eval_every=1)
    _, report = train(store, kg, items, cache, cfg, tcfg)
    assert len(report.records) == 4          # patience never fires
    assert all(r.valid_hr20 is None for r in report.records)
    assert report.best_epoch == -1


def test_empty_training_split_is_an_input_error():
    store = InteractionStore(2, 3, {"valid": [(0, 0)]})
    kg = KnowledgeGraph(3, 1, [Triple(0, 0, 1)])
    cache = build_walk_cache(kg, np.arange(3), WalkConfig(0.2, 2, 2, 2), seed=0)
    with pytest.raises(InputError, match="empty"):
        train(store, kg, np.arange(3), cache, ModelConfig(dim=2, local_size=2,
                                                          history_size=2),
              TrainConfig(epochs=1))


def test_no_drawable_ranking_tuple_is_an_input_error():
    # the one train user owns both items, so no negative exists
    store = InteractionStore(1, 2, {"train": [(0, 0), (0, 1)]})
    kg = KnowledgeGraph(3, 1, [Triple(0, 0, 1)])
    cache = build_walk_cache(kg, np.arange(2), WalkConfig(0.2, 2, 2, 2), seed=0)
    with pytest.warns(UserWarning, match="every item"), \
            pytest.raises(InputError, match="no ranking tuple"):
        train(store, kg, np.arange(2), cache, ModelConfig(dim=2, local_size=2,
                                                          history_size=2),
              TrainConfig(epochs=1))


@pytest.mark.parametrize("setting", [{"batch_size": 0}, {"n_neg": 0}, {"epochs": 0},
                                     {"eval_every": 0}, {"patience": -1},
                                     {"max_batches": 0}, {"eta": 0.0}, {"eta": -1.0},
                                     {"eta": math.nan}, {"eta": math.inf},
                                     {"lambda1": -1.0}, {"lambda1": math.nan},
                                     {"lambda2": -1e-9}, {"lambda2": math.inf}])
def test_train_config_rejects_out_of_range_settings(setting):
    with pytest.raises(InputError):
        TrainConfig(**setting)


def test_cache_item_count_is_validated():
    store = InteractionStore(2, 3, {"train": [(0, 0)]})
    kg = KnowledgeGraph(3, 1, [Triple(0, 0, 1)])
    cache = build_walk_cache(kg, np.arange(2), WalkConfig(0.2, 2, 2, 2), seed=0)
    with pytest.raises(InputError, match="cache"):
        train(store, kg, np.arange(3), cache, ModelConfig(dim=2, local_size=2,
                                                          history_size=2),
              TrainConfig(epochs=1))


def test_numeric_abort_names_epoch_batch_and_op():
    store, kg, item_entities, cache, mcfg = _planted_mini()
    params = init_params(mcfg, store.user_count, kg.entity_count,
                         kg.relation_embedding_count, substream(0, "init"))
    # the user aggregation overflows in the first batch's forward
    params["user_emb"].data[...] = 1.0
    synth.write_concat(params, "user_agg_W", 1e308)
    tcfg = TrainConfig(batch_size=16, n_neg=1, epochs=2, seed=3)
    with pytest.raises(ad.NumericError,
                       match=r"^epoch 1 batch 1: op 'matmul' produced non-finite values$"):
        train(store, kg, item_entities, cache, mcfg, tcfg, params=params)
    # a step size that blows the parameters up fails a later batch
    tcfg = TrainConfig(eta=1e155, lambda2=1.0, batch_size=16, n_neg=1, epochs=2, seed=3)
    with pytest.raises(ad.NumericError, match=r"^epoch 1 batch 2: op '\w+' produced"):
        train(store, kg, item_entities, cache, mcfg, tcfg)


def test_max_batches_caps_the_run():
    store, kg, item_entities, cache, mcfg = _planted_mini()
    tcfg = TrainConfig(eta=1e-3, batch_size=16, n_neg=2, epochs=50, seed=2,
                       max_batches=3, eval_every=1, patience=50)
    _, report = train(store, kg, item_entities, cache, mcfg, tcfg,
                      eval_cfg=EvalConfig(k_values=(10, 20)))
    assert len(report.records) == 1
