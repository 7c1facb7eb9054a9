"""Scoring-function tests: attention laws, context fusion, ablations, gradients."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from kgrec import autodiff as ad
from kgrec.autodiff import finite_difference_check
from kgrec.evaluation import FastScorer, ItemContextSet
from kgrec.graph import InputError
from kgrec.model import (GraphContextModel, ItemContext, ItemInputs, ModelConfig,
                         PairBatch, ScoreContext, init_params)
from kgrec.sampling import (WalkConfig, build_walk_cache, reverse_pad, sample_bpr_tuples,
                            sample_kg_negatives, substream)
from kgrec.training import TrainConfig, assemble_pair_batch, total_objective

import synth


def _setup(seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return synth.random_model_setup(rng, **kwargs), rng


def test_model_config_validation():
    with pytest.raises(InputError):
        ModelConfig(dim=0)
    with pytest.raises(InputError):
        ModelConfig(disable_local=True, disable_nonlocal=True)


# The seed-0 init of a dim-4 model over 3 users, 5 entities and 4 relation
# rows, with every weight block stacked back into one tensor: sha256 over each
# tensor's name and little-endian float64 values, in this order.
_INIT_SHA256 = "a440166998ffa1942b17b8c7bacf2bc6b63c9bd72186136ce91c7d8d4e9c61f2"
_STACKED_INIT_ORDER = (
    "user_emb", "entity_emb", "relation_emb", "rel_fuse_W", "attn_W", "attn_b",
    "user_proj_W", "user_proj_b", "agg_W", "agg_b", "gru_wz", "gru_uz", "gru_bz",
    "gru_wr", "gru_ur", "gru_br", "gru_wc", "gru_uc", "gru_bc", "gate_w",
    "hist_attn_w", "hist_attn_b", "user_agg_W", "user_agg_b")


def test_init_stream_is_pinned():
    """The blocks of a split affine are cut from one draw of the full matrix,
    so the init stream and every initial value stay as pinned."""
    params = init_params(ModelConfig(dim=4), 3, 5, 4, substream(0, "init"))
    assert len(params.names()) == 32
    digest = hashlib.sha256()
    for name in _STACKED_INIT_ORDER:
        if name in synth.CONCAT_BLOCKS:
            value = synth.concat_weight(params, name).data
        elif name == "hist_attn_w":   # one (1, 4d) row of the four (d, 1) columns
            value = synth.stack_rows(params, [f"hist_attn_w{k}" for k in range(1, 5)]).data.T
        else:
            value = params[name].data
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).astype("<f8").tobytes())
    assert digest.hexdigest() == _INIT_SHA256


# ---------------------------------------------------------------------------
# relation fusion
# ---------------------------------------------------------------------------


def test_relation_fuse_block_identity_passes_relation_through():
    (kg, model, params, cfg, _), rng = _setup(1)
    d = cfg.dim
    block = np.vstack([np.eye(d), np.zeros((d, d))])
    synth.write_concat(params, "rel_fuse_W", block)
    fused = model.relation_fuse([2], [3]).data
    np.testing.assert_allclose(fused, params["relation_emb"].data[2:3], atol=0)


def test_relation_fuse_zero_weight_gives_zero():
    (kg, model, params, cfg, _), _ = _setup(2)
    synth.write_concat(params, "rel_fuse_W", 0.0)
    assert (model.relation_fuse([0], [1]).data == 0).all()


def test_relation_fuse_gradient():
    (kg, model, params, cfg, _), rng = _setup(3)
    err = finite_difference_check(
        lambda: ad.sum_all(model.relation_fuse([1, 0], [2, 4])),
        params, names=["rel_fuse_W_r", "rel_fuse_W_t", "relation_emb", "entity_emb"],
        eps=1e-5, max_coords=10, rng=rng)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# user-conditioned neighbor attention
# ---------------------------------------------------------------------------


def test_attention_uniform_over_identical_neighbors():
    (kg, model, params, cfg, _), _ = _setup(4)
    neighbors = [(1, 5)] * cfg.local_size
    alpha = model.user_attention(0, 2, neighbors).data
    np.testing.assert_allclose(alpha, 1.0 / cfg.local_size, atol=1e-15)


def test_attention_single_neighbor_is_certain():
    (kg, model, params, cfg, _), _ = _setup(5)
    alpha = model.user_attention(1, 0, [(0, 3)]).data
    assert alpha.shape == (1, 1) and alpha[0, 0] == pytest.approx(1.0)


def test_attention_is_probability_vector():
    (kg, model, params, cfg, _), rng = _setup(6)
    for _ in range(200):
        nbrs = [(int(rng.integers(kg.relation_count)), int(rng.integers(kg.entity_count)))
                for _ in range(int(rng.integers(1, 6)))]
        alpha = model.user_attention(int(rng.integers(4)), int(rng.integers(14)), nbrs).data
        assert (alpha >= 0).all()
        assert abs(alpha.sum() - 1.0) <= 1e-12


def test_attention_differs_between_users():
    (kg, model, params, cfg, _), _ = _setup(7)
    nbrs = [(0, 1), (1, 2), (0, 3)]
    a0 = model.user_attention(0, 5, nbrs).data
    a1 = model.user_attention(1, 5, nbrs).data
    assert np.abs(a0 - a1).max() > 1e-12


def test_disable_user_attention_makes_alpha_user_independent():
    rng = np.random.default_rng(8)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, disable_user_attention=True)
    nbrs = [(0, 1), (1, 2), (0, 3)]
    a0 = model.user_attention(0, 5, nbrs).data
    a1 = model.user_attention(3, 5, nbrs).data
    np.testing.assert_array_equal(a0, a1)


def test_local_embedding_stays_inside_tanh_range():
    (kg, model, params, cfg, _), rng = _setup(9)
    for _ in range(20):
        nbrs = [(int(rng.integers(kg.relation_count)), int(rng.integers(kg.entity_count)))
                for _ in range(3)]
        c = model.local_embedding(0, int(rng.integers(14)), nbrs).data
        assert (np.abs(c) < 1.0).all()


def test_gradient_reaches_user_embedding_through_attention():
    (kg, model, params, cfg, _), rng = _setup(10, scale=3.0)
    nbrs = [(0, 1), (1, 2), (0, 3)]
    err = finite_difference_check(
        lambda: ad.sum_all(model.local_embedding(1, 5, nbrs)),
        params, names=["user_emb", "user_proj_W"], eps=1e-5, max_coords=10, rng=rng)
    assert err < 1e-4


def test_attention_concentrates_with_saturated_scores():
    (kg, model, params, cfg, _), _ = _setup(11)
    d = cfg.dim
    # craft one dominant neighbor: huge relation embedding + aligned projections
    params["user_proj_W"].data[...] = 0.0
    params["user_proj_b"].data[...] = 5.0          # m_u large: widens score gaps
    params["attn_W_h"].data[...] = 0.0
    params["attn_W_rt"].data[...] = 40.0           # score follows fused features
    params["rel_fuse_W_r"].data[...] = np.eye(d)   # fused = relation embedding
    params["rel_fuse_W_t"].data[...] = 0.0
    params["relation_emb"].data[...] = 0.0
    params["relation_emb"].data[0, :] = 1.0        # relation 0 dominates
    alpha = model.user_attention(0, 4, [(0, 1), (1, 2), (1, 3)]).data
    assert alpha[0, 0] > 0.999
    e_local_limit = params["entity_emb"].data[1]
    # with alpha ~ 1 the aggregation input is that neighbor's embedding
    c = model.local_embedding(0, 4, [(0, 1), (1, 2), (1, 3)]).data
    e_h = params["entity_emb"].data[4:5]
    expected = np.tanh(np.concatenate([e_h, e_local_limit[None, :]], axis=1)
                       @ synth.concat_weight(params, "agg_W").data + params["agg_b"].data)
    np.testing.assert_allclose(c, expected, atol=1e-3)


# ---------------------------------------------------------------------------
# non-local context
# ---------------------------------------------------------------------------


def test_nonlocal_consumes_context_in_reverse():
    (kg, model, params, cfg, _), _ = _setup(12)
    ctx = (3, 7)  # most-frequent first
    got = model.nonlocal_embedding(1, ctx).data
    ent = params["entity_emb"]
    # the reversed feed
    h = synth.gru_run(ad.gather_rows(ent, [7, 3]), np.ones((1, 2)), model.gru)
    expected = ad.tanh(ad.affine(ad.hstack(ad.gather_rows(ent, [1]), h),
                                 synth.concat_weight(params, "agg_W"), params["agg_b"])).data
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_nonlocal_order_sensitivity():
    (kg, model, params, cfg, _), _ = _setup(13, scale=2.0)
    a = model.nonlocal_embedding(0, (2, 5, 9)).data
    b = model.nonlocal_embedding(0, (9, 5, 2)).data
    assert np.abs(a - b).max() > 1e-10


def test_nonlocal_empty_context_closed_form():
    (kg, model, params, cfg, _), _ = _setup(14)
    got = model.nonlocal_embedding(2, ()).data
    e_h = params["entity_emb"].data[2:3]
    zeros = np.zeros((1, cfg.dim))
    expected = np.tanh(np.concatenate([e_h, zeros], axis=1)
                       @ synth.concat_weight(params, "agg_W").data + params["agg_b"].data)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("steps", [3, 5])
def test_walk_state_is_one_gather_and_one_gru_node(steps):
    (kg, model, _, _, _), rng = _setup(15)
    walks = [tuple(rng.choice(kg.entity_count, size=n, replace=False)) for n in (steps, 1, 0)]
    items = ItemInputs.build([0, 1, 2], [[(0, 1)]] * 3, *reverse_pad(walks, steps))
    nodes = synth.tape_nodes(model._walk_state(items))
    assert sorted(n.op for n in nodes) == ["gather_rows", "gru_sequence"]


@pytest.mark.parametrize("force", [None, "local", "nonlocal"])
def test_item_stage_holds_the_user_free_gate_and_logit_terms(force):
    """With both contexts on the stage holds s = sigmoid(gate_w) and the
    non-local share (1 - s) ⊙ c_nonlocal, and in every mode the target logits'
    entity half e_h hist_attn_w1, one row per item."""
    (kg, model, params, cfg, _), rng = _setup(18, scale=2.0)
    params["gate_w"].data[...] = rng.normal(size=(1, cfg.dim))
    neighbors = [[(0, 1), (1, 2), (0, 3)]] * 3
    stage = model.item_stage(ItemInputs.build([0, 4, 9], neighbors,
                                              *reverse_pad([(3, 7), (5,), ()], 2)), force=force)
    np.testing.assert_allclose(stage.entity_logits.data,
                               stage.e_h.data @ params["hist_attn_w1"].data, rtol=0, atol=1e-15)
    if force is None:
        s = 1.0 / (1.0 + np.exp(-params["gate_w"].data))
        np.testing.assert_allclose(stage.gate.data, s, rtol=0, atol=1e-15)
        np.testing.assert_allclose(stage.nonlocal_share.data, (1.0 - s) * stage.c_nonlocal.data,
                                   rtol=0, atol=1e-15)
    else:
        assert stage.gate is None and stage.nonlocal_share is None


def test_tape_nodes_per_training_batch_and_per_evaluated_user():
    """At the benchmark's model shape (d=32, S=4, N=16, walk contexts of 4)
    a training batch records 107 nodes and an evaluated user 25, over an
    item stage that holds the user-free terms of the gate and of the target
    logits; the history head is one softmax, one context and one score node
    per target block."""
    store, kg, item_entities = synth.planted_dataset(seed=4)
    cfg = ModelConfig(dim=32, local_size=4, history_size=16)
    cache = build_walk_cache(kg, item_entities, WalkConfig(0.2, 2, 4, 4), seed=4)
    params = init_params(cfg, store.user_count, kg.entity_count,
                         kg.relation_embedding_count, substream(4, "init"))
    model = GraphContextModel(cfg, params, item_entities)
    tuples = sample_bpr_tuples(store, 1, substream(4, "negatives"))[:16]
    batch = assemble_pair_batch(tuples, cfg, kg, cache, store, item_entities,
                                substream(4, "contexts"))
    y_pos, y_neg = model.scores_batch(batch)
    loss, _ = total_objective(model, y_pos, y_neg, sample_kg_negatives(kg, substream(4, "kg")),
                              TrainConfig())
    ops = Counter(node.op for node in synth.tape_nodes(loss))
    assert sum(ops.values()) == 107
    assert [ops[op] for op in ("history_softmax", "history_context", "pair_scores")] == [2, 2, 2]

    inputs = ItemContextSet.build(kg, item_entities, cache, cfg.local_size,
                                  substream(4, "eval-items"))
    stage = model.item_stage(inputs)
    e_h, fused, _ = model.user_stage(stage, [3])
    scores = model.shared_history_scores(3, e_h, fused, stage.entity_logits,
                                         store.positive_list(3, "train"))
    stage_rows = [t for t in vars(stage).values() if isinstance(t, ad.Tensor)]
    ops = Counter(node.op for node in synth.tape_nodes(scores, exclude=stage_rows))
    assert sum(ops.values()) == 25
    assert [ops[op] for op in ("history_softmax", "history_context", "pair_scores")] == [1, 1, 1]


# ---------------------------------------------------------------------------
# gate fusion and ablations
# ---------------------------------------------------------------------------


def test_zero_gate_blends_both_contexts_evenly():
    (kg, model, params, cfg, _), _ = _setup(15)
    params["gate_w"].data[...] = 0.0
    nbrs = [(0, 1), (1, 2), (0, 3)]
    ctx = (4, 6)
    c_l = model.local_embedding(0, 5, nbrs).data
    c_g = model.nonlocal_embedding(5, ctx).data
    c = model.kg_context(0, 5, nbrs, ctx).data
    np.testing.assert_allclose(c, 0.5 * c_l + 0.5 * c_g, atol=1e-15)


def test_gate_saturation_returns_the_local_context():
    (kg, model, params, cfg, _), _ = _setup(15)
    params["gate_w"].data[...] = 1e3  # s saturates to exactly 1.0
    nbrs = [(0, 1), (1, 2), (0, 3)]
    c_l = model.local_embedding(0, 5, nbrs).data
    np.testing.assert_array_equal(model.kg_context(0, 5, nbrs, (4, 6)).data, c_l)


def test_gate_output_is_coordinatewise_between_contexts():
    (kg, model, params, cfg, _), rng = _setup(16, scale=2.0)
    for _ in range(50):
        nbrs = [(int(rng.integers(kg.relation_count)), int(rng.integers(14)))
                for _ in range(3)]
        ctx = tuple(int(e) for e in rng.choice(14, size=2, replace=False))
        e = int(rng.integers(14))
        u = int(rng.integers(4))
        c_l = model.local_embedding(u, e, nbrs).data
        c_g = model.nonlocal_embedding(e, ctx).data
        c = model.kg_context(u, e, nbrs, ctx).data
        lo, hi = np.minimum(c_l, c_g), np.maximum(c_l, c_g)
        assert (c >= lo - 1e-12).all() and (c <= hi + 1e-12).all()


def test_disable_local_equals_forced_nonlocal_bit_for_bit():
    rng = np.random.default_rng(17)
    kg, model, params, cfg, items = synth.random_model_setup(rng)
    flagged = GraphContextModel(
        ModelConfig(dim=cfg.dim, local_size=cfg.local_size,
                    history_size=cfg.history_size, disable_local=True),
        params, items)
    ctx = synth.random_score_context(rng, kg, model, len(items))
    a = flagged.score(0, 1, ctx).data
    b = model.score(0, 1, ctx, force="nonlocal").data
    np.testing.assert_array_equal(a, b)


def test_disable_nonlocal_equals_forced_local_bit_for_bit():
    rng = np.random.default_rng(18)
    kg, model, params, cfg, items = synth.random_model_setup(rng)
    flagged = GraphContextModel(
        ModelConfig(dim=cfg.dim, local_size=cfg.local_size,
                    history_size=cfg.history_size, disable_nonlocal=True),
        params, items)
    ctx = synth.random_score_context(rng, kg, model, len(items))
    a = flagged.score(2, 3, ctx).data
    b = model.score(2, 3, ctx, force="local").data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# history attention and user context
# ---------------------------------------------------------------------------


def test_single_history_item_gets_full_weight():
    (kg, model, params, cfg, items), rng = _setup(19)
    ctx = synth.random_score_context(rng, kg, model, len(items))
    q_i = model.contextualized_item(0, 0, ctx.target)
    q_j = model.contextualized_item(0, 1, ctx.history[0][1])
    beta = model.history_attention(q_i, [q_j]).data
    assert beta[0, 0] == pytest.approx(1.0)


def test_duplicate_history_items_share_weight():
    (kg, model, params, cfg, items), rng = _setup(20)
    ctx = synth.random_score_context(rng, kg, model, len(items))
    q_i = model.contextualized_item(0, 0, ctx.target)
    q_j = model.contextualized_item(0, 1, ctx.history[0][1])
    beta = model.history_attention(q_i, [q_j, q_j, q_j]).data
    np.testing.assert_allclose(beta, 1 / 3, atol=1e-15)


def test_history_attention_sums_to_one():
    (kg, model, params, cfg, items), rng = _setup(21)
    for _ in range(100):
        ctx = synth.random_score_context(rng, kg, model, len(items))
        q_i = model.contextualized_item(0, 0, ctx.target)
        qs = [model.contextualized_item(0, j, c) for j, c in ctx.history]
        beta = model.history_attention(q_i, qs).data
        assert (beta >= 0).all() and abs(beta.sum() - 1.0) <= 1e-12


def test_empty_history_uses_zero_context():
    (kg, model, params, cfg, items), rng = _setup(22)
    ctx = synth.random_score_context(rng, kg, model, len(items), with_history=False)
    q_i = model.contextualized_item(1, 0, ctx.target)
    p_u = model.interaction_context(1, q_i, []).data
    e_u = params["user_emb"].data[1:2]
    zeros = np.zeros((1, 2 * cfg.dim))
    c_u = np.maximum(np.concatenate([e_u, zeros], axis=1)
                     @ synth.concat_weight(params, "user_agg_W").data
                     + params["user_agg_b"].data, 0.0)
    np.testing.assert_array_equal(p_u, np.concatenate([e_u, c_u], axis=1))


# ---------------------------------------------------------------------------
# the score
# ---------------------------------------------------------------------------


def test_score_closed_form_with_only_biases_set():
    """All weights zero except the two aggregation biases: the score reduces
    to d * relu(b_user_agg) . tanh(b_agg)."""
    rng = np.random.default_rng(23)
    kg, model, params, cfg, items = synth.random_model_setup(rng, dim=4)
    for name, t in params.items():
        t.data[...] = 0.0
    params["agg_b"].data[...] = 0.3
    params["user_agg_b"].data[...] = 0.2
    ctx = synth.random_score_context(rng, kg, model, len(items))
    got = model.score(0, 0, ctx).item()
    expected = 4 * 0.2 * math.tanh(0.3)
    assert got == pytest.approx(expected, abs=1e-15)


def test_score_accepts_self_loop_fallback_neighbors():
    """Isolated entities are sampled as (reserved self relation, self) pairs;
    the scorer must embed and rank them like any other context."""
    rng = np.random.default_rng(27)
    kg, model, params, cfg, items = synth.random_model_setup(rng)
    self_rel = kg.self_relation
    target = ItemContext(((self_rel, int(items[0])),) * cfg.local_size, ())
    hist = ((1, ItemContext(((self_rel, int(items[1])),) * cfg.local_size, ())),)
    score = model.score(0, 0, ScoreContext(target, hist))
    assert np.isfinite(score.item())


def test_score_shapes_and_determinism():
    (kg, model, params, cfg, items), rng = _setup(24)
    ctx = synth.random_score_context(rng, kg, model, len(items))
    q = model.contextualized_item(0, 0, ctx.target)
    p = model.interaction_context(0, q, [model.contextualized_item(0, j, c)
                                         for j, c in ctx.history])
    assert q.shape == (1, 2 * cfg.dim)
    assert p.shape == (1, 2 * cfg.dim)
    # fixed contexts make the score a pure function; reseeding cannot move it
    a = model.score(0, 0, ctx).item()
    np.random.seed(999)
    b = model.score(0, 0, ctx).item()
    assert a == b


def test_score_gradient_matches_finite_differences_everywhere():
    rng = np.random.default_rng(25)
    kg, model, params, cfg, items = synth.random_model_setup(rng, dim=4, scale=4.0)
    ctx = synth.random_score_context(rng, kg, model, len(items))
    err = finite_difference_check(lambda: model.score(1, 2, ctx), params,
                                  eps=1e-5, max_coords=20, rng=rng)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# batched path equals the single-sample path
# ---------------------------------------------------------------------------


# the same items under several users, across target and history rows
_REPEAT_TUPLES = [(0, 1, 5), (2, 1, 3), (3, 5, 1), (1, 3, 5), (2, 0, 6)]
_REPEAT_HISTORIES = [[5, 3], [1, 5], [], [3, 1], [1, 6]]


def _repeated_item_batch(model, contexts, tuples, histories):
    """A PairBatch over the distinct items of the tuples' rows."""
    b, n = len(tuples), model.cfg.history_size
    slot_items = ([t[1] for t in tuples] + [t[2] for t in tuples]
                  + [h for hist in histories for h in (hist if hist else [0] * n)])
    unique, row_items = np.unique(slot_items, return_inverse=True)
    ctx_rev, ctx_mask = reverse_pad([contexts[i][1] for i in unique], 3)
    items = ItemInputs.build(model.item_entities[unique],
                             [contexts[i][0] for i in unique], ctx_rev, ctx_mask)
    users = np.array([t[0] for t in tuples])
    return PairBatch(user_rows=np.concatenate([users, users, np.repeat(users, n)]),
                     row_items=row_items, items=items, tuple_users=users,
                     history_mask=np.array([[1.0 if h else 0.0] for h in histories]),
                     size=b, n_targets=2, history_size=n)


def test_item_inputs_split_the_neighbor_draws():
    neighbors = [[(0, 4), (1, 5), (0, 6)], [(2, 7), (2, 7), (1, 3)]]
    ctx_rev, ctx_mask = reverse_pad([[4, 9], []], 3)
    items = ItemInputs.build([11, 12], neighbors, ctx_rev, ctx_mask)
    np.testing.assert_array_equal(items.rels, [[r for r, _ in n] for n in neighbors])
    np.testing.assert_array_equal(items.tails, [[t for _, t in n] for n in neighbors])
    np.testing.assert_array_equal(items.ctx_rev, [[9, 4, 0], [0, 0, 0]])
    np.testing.assert_array_equal(items.ctx_mask, [[1, 1, 0], [0, 0, 0]])
    assert items.rels.dtype == items.tails.dtype == np.int64
    # the non-local-only single row has no neighbor draw at all
    empty = ItemInputs.build([3], [()], np.zeros((1, 0)), np.zeros((1, 0)))
    assert empty.rels.shape == empty.tails.shape == (1, 0)


def test_batched_scores_match_per_sample_scores():
    for disable_user_attention in (False, True):
        rng = np.random.default_rng(26)
        kg, model, params, cfg, items = synth.random_model_setup(
            rng, n_items=8, disable_user_attention=disable_user_attention)
        contexts = {item: synth.random_item_context(rng, kg, cfg.local_size)
                    for item in range(8)}
        batch = _repeated_item_batch(model, contexts, _REPEAT_TUPLES, _REPEAT_HISTORIES)
        assert len(batch.items.entities) < len(batch.row_items) / 3
        first = batch.row_items == batch.row_items[0]
        assert len(set(batch.user_rows[first].tolist())) > 1
        for force in (None, "local", "nonlocal"):
            y_pos, y_neg = model.scores_batch(batch, force=force)
            for idx, (u, ip, ineg) in enumerate(_REPEAT_TUPLES):
                hist = tuple((j, ItemContext(*contexts[j]))
                             for j in _REPEAT_HISTORIES[idx])
                sp = model.score(u, ip, ScoreContext(ItemContext(*contexts[ip]), hist),
                                 force=force).item()
                sn = model.score(u, ineg, ScoreContext(ItemContext(*contexts[ineg]), hist),
                                 force=force).item()
                assert sp == pytest.approx(y_pos.data[idx, 0], abs=1e-10)
                assert sn == pytest.approx(y_neg.data[idx, 0], abs=1e-10)


def test_objective_gradient_on_batch_with_repeated_items():
    rng = np.random.default_rng(27)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, n_items=8, dim=4, scale=3.0)
    contexts = {item: synth.random_item_context(rng, kg, cfg.local_size)
                for item in range(8)}
    batch = _repeated_item_batch(model, contexts, _REPEAT_TUPLES, _REPEAT_HISTORIES)
    quads = sample_kg_negatives(kg, substream(5, "kg"))[:4]
    tcfg = TrainConfig(lambda1=0.5, lambda2=0.1)

    def f():
        y_pos, y_neg = model.scores_batch(batch)
        return total_objective(model, y_pos, y_neg, quads, tcfg)[0]

    err = finite_difference_check(f, params, eps=1e-5, max_coords=10, rng=rng)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# the split affines equal the concatenated forward
# ---------------------------------------------------------------------------


def _concat_relation_fuse(model, rels, tails):
    """[e_r, e_t] rel_fuse_W over a per-pair hstack."""
    p = model.params
    return ad.matmul(ad.hstack(ad.gather_rows(p["relation_emb"], rels),
                               ad.gather_rows(p["entity_emb"], tails)),
                     synth.concat_weight(p, "rel_fuse_W"))


def _concat_q(model, items, user_rows, row_items, force=None):
    """q rows (R, 2d) as the concatenated forward builds them: neighbor
    features tanh([e_h, e_rt] attn_W + attn_b) with e_rt = [e_r, e_t]
    rel_fuse_W, each aggregate tanh([e_h, context] agg_W + agg_b), all over
    per-row hstacks, and q = e_h || fused.  Each concatenated weight is
    stacked from its blocks."""
    p = model.params
    mode = model._resolve_force(force)

    def aggregate(e, context):
        return ad.tanh(ad.affine(ad.hstack(e, context), synth.concat_weight(p, "agg_W"),
                                 p["agg_b"]))

    e_h = ad.gather_rows(p["entity_emb"], items.entities)
    e_rows = ad.gather_rows(e_h, row_items)
    fused = None
    if mode != "nonlocal":
        s = items.rels.shape[1]
        e_rt = _concat_relation_fuse(model, items.rels.ravel(), items.tails.ravel())
        feat = ad.tanh(ad.affine(ad.hstack(ad.repeat_rows(e_h, s), e_rt),
                                 synth.concat_weight(p, "attn_W"), p["attn_b"]))
        users, index = np.unique(user_rows, return_inverse=True)
        alpha = ad.neighbor_softmax(feat, model._user_preferences(users), row_items, index, s)
        e_t = ad.gather_rows(p["entity_emb"], items.tails.ravel())
        cells = (np.asarray(row_items)[:, None] * s + np.arange(s)).ravel()
        weighted = ad.mul(ad.reshape(alpha, len(cells), 1), ad.gather_rows(e_t, cells))
        fused = aggregate(e_rows, synth.sum_row_groups(weighted, s))
    if mode != "local":
        h = synth.gru_run(ad.gather_rows(p["entity_emb"], items.ctx_rev.T.ravel()),
                          items.ctx_mask, model.gru)
        c_nonlocal = ad.gather_rows(aggregate(e_h, h), row_items)
        fused = c_nonlocal if fused is None else synth.unfused_gate(
            ad.sigmoid(p["gate_w"]), fused, c_nonlocal)
    return ad.hstack(e_rows, fused)


def _concat_head(model, users, q_t, q_hist, n, mask=None):
    """Scores (T, 1) of the concatenated head: beta from a_t = q_t [w1; w2]
    and h = q_j [w3; w4], e_hist = sum_j beta_j q_j, c_u = relu([e_u, e_hist]
    W + b) and score = (e_u || c_u)·q.  ``q_hist`` holds one shared history of
    n rows, or n rows per target when ``mask`` is given; None means no history."""
    p, d2 = model.params, 2 * model.cfg.dim
    e_u = ad.gather_rows(p["user_emb"], users)
    t = q_t.shape[0]
    if q_hist is None:
        e_hist = ad.constant(np.zeros((t, d2)))
    else:
        h = ad.reshape(ad.matmul(q_hist, synth.stack_rows(p, ["hist_attn_w3", "hist_attn_w4"])),
                       q_hist.shape[0] // n, n)
        a_t = ad.matmul(q_t, synth.stack_rows(p, ["hist_attn_w1", "hist_attn_w2"]))
        beta = synth.softmax_rows(ad.tanh(ad.add(ad.add(a_t, h), p["hist_attn_b"])))
        if mask is None:
            e_hist = ad.matmul(beta, q_hist)
        else:
            weighted = ad.mul(ad.reshape(beta, t * n, 1), q_hist)
            e_hist = ad.mul(synth.sum_row_groups(weighted, n), mask)
    c_u = ad.relu(ad.affine(ad.hstack(e_u, e_hist), synth.concat_weight(p, "user_agg_W"),
                            p["user_agg_b"]))
    return ad.row_sums(ad.mul(ad.hstack(e_u, c_u), q_t))


def _concat_batch_scores(model, batch):
    b, n, k = batch.size, batch.history_size, batch.n_targets
    q = _concat_q(model, batch.items, batch.user_rows, batch.row_items)
    q_hist = ad.gather_rows(q, np.arange(k * b, k * b + b * n))
    mask = ad.constant(batch.history_mask)
    return [_concat_head(model, batch.tuple_users,
                         ad.gather_rows(q, np.arange(j * b, (j + 1) * b)), q_hist, n, mask)
            for j in range(k)]


def _concat_user_scores(model, items, user, history):
    rows = np.arange(len(items.entities))
    users = np.full(len(rows), user)
    q = _concat_q(model, items, users, rows)
    q_hist = ad.gather_rows(q, history) if len(history) else None
    return _concat_head(model, users, q, q_hist, max(len(history), 1)).data[:, 0]


_FLAG_CASES = [{}, {"disable_local": True}, {"disable_nonlocal": True},
               {"disable_user_attention": True}]


def _split_world(flags, seed):
    rng = np.random.default_rng(seed)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, n_items=8, dim=4, scale=3.0, **flags)
    contexts = {item: synth.random_item_context(rng, kg, cfg.local_size)
                for item in range(8)}
    batch = _repeated_item_batch(model, contexts, _REPEAT_TUPLES, _REPEAT_HISTORIES)
    return kg, model, params, contexts, batch


@pytest.mark.parametrize("flags", _FLAG_CASES)
def test_split_scores_match_the_concatenated_forward(flags):
    kg, model, params, contexts, batch = _split_world(flags, 28)
    for got, want in zip(model.scores_batch(batch), _concat_batch_scores(model, batch)):
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)

    ctx_rev, ctx_mask = reverse_pad([contexts[i][1] for i in range(8)], 3)
    inputs = ItemInputs.build(model.item_entities, [contexts[i][0] for i in range(8)],
                              ctx_rev, ctx_mask)
    scorer = FastScorer(params, model.cfg, model.item_entities, inputs)
    for user, history in ((0, [5, 3, 5]), (3, [1]), (2, [])):
        np.testing.assert_allclose(scorer.user_scores(user, history),
                                   _concat_user_scores(model, inputs, user, history),
                                   rtol=0, atol=1e-12)

    rels, tails = inputs.rels.ravel(), inputs.tails.ravel()
    np.testing.assert_allclose(model.relation_fuse(rels, tails).data,
                               _concat_relation_fuse(model, rels, tails).data,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("flags", _FLAG_CASES)
def test_split_gradients_match_the_concatenated_forward(flags):
    kg, model, params, contexts, batch = _split_world(flags, 29)
    quads = sample_kg_negatives(kg, substream(5, "kg"))[:4]
    tcfg = TrainConfig(lambda1=0.5, lambda2=0.1)
    grads = []
    for scores in (model.scores_batch, lambda b: _concat_batch_scores(model, b)):
        params.zero_grads()
        y_pos, y_neg = scores(batch)
        total_objective(model, y_pos, y_neg, quads, tcfg)[0].backward()
        grads.append({name: t.grad.copy() for name, t in params.items()})
    # the graph term's relation fusion, which total_objective shares between both
    rels, tails = [q[1] for q in quads], [q[2] for q in quads]
    for fuse in (model.relation_fuse, lambda r, t: _concat_relation_fuse(model, r, t)):
        params.zero_grads()
        ad.sum_all(ad.square(fuse(rels, tails))).backward()
        grads.append({name: t.grad.copy() for name, t in params.items()})
    for split, concat in ((0, 1), (2, 3)):
        for name, grad in grads[split].items():
            np.testing.assert_allclose(grad, grads[concat][name], rtol=0, atol=1e-12,
                                       err_msg=name)
