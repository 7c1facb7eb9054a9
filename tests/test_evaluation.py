"""Ranking protocol and metric tests, including the brute-force metric oracle
and the equivalence of the all-item scorer with the single-score path."""

import dataclasses
import hashlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from kgrec import evaluation
from kgrec.autodiff import NumericError, Tensor
from kgrec.evaluation import (EvalConfig, EvalReport, FastScorer, ItemContextSet,
                              evaluate, metrics_for_user, rank_items)
from kgrec.graph import InputError, InteractionStore
from kgrec.model import ItemContext, ItemInputs, ModelConfig, ScoreContext, init_params
from kgrec.sampling import WalkConfig, build_walk_cache, sample_history, substream

import synth


def test_eval_config_sorts_k_and_validates():
    cfg = EvalConfig(k_values=(50, 10, 20))
    assert cfg.k_values == (10, 20, 50)
    with pytest.raises(InputError):
        EvalConfig(k_values=(0,))


def test_rank_orders_by_score_descending():
    scores = np.array([0.1, 0.9, 0.5])
    ranked = rank_items(scores, np.array([0, 1, 2]))
    assert ranked.tolist() == [1, 2, 0]


def test_rank_breaks_ties_by_item_index():
    scores = np.array([0.5, 0.5, 0.5, 0.9])
    ranked = rank_items(scores, np.array([2, 0, 1, 3]))
    assert ranked.tolist() == [3, 0, 1, 2]


def test_rank_cut_at_top_is_the_prefix_of_the_full_order():
    """Scores drawn from a few values tie often, also across the cut; every
    cut equals the first ``top`` of the brute-force order."""
    rng = np.random.default_rng(12)
    for _ in range(60):
        n_items = int(rng.integers(1, 30))
        scores = rng.choice([-1.0, 0.0, 0.25, 2.0], size=n_items)
        candidates = np.flatnonzero(rng.random(n_items) < 0.8)
        if rng.random() < 0.3:
            candidates = rng.permutation(candidates)
        full = sorted(candidates.tolist(), key=lambda i: (-scores[i], i))
        assert rank_items(scores, candidates).tolist() == full
        for top in range(1, len(candidates) + 2):
            assert rank_items(scores, candidates, top).tolist() == full[:top]


def test_metrics_perfect_topk():
    assert metrics_for_user([1, 2, 3], {1, 2, 3}, 3) == (1.0, 1.0, 1.0)


def test_metrics_zero_hits():
    assert metrics_for_user([1, 2, 3], {9}, 3) == (0.0, 0.0, 0.0)


def test_metrics_match_brute_force_on_random_fixtures():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_items = int(rng.integers(5, 40))
        ranked = rng.permutation(n_items)
        test_set = set(int(i) for i in
                       rng.choice(n_items, size=int(rng.integers(1, 5)), replace=False))
        k = int(rng.integers(1, n_items + 1))
        hits = sum(1 for item in ranked[:k] if item in test_set)
        want = (hits / k, hits / len(test_set), 1.0 if hits > 0 else 0.0)
        # the positives as a set, a list and an array
        for positives in (test_set, sorted(test_set), np.array(sorted(test_set))):
            assert metrics_for_user(ranked, positives, k) == want


# ---------------------------------------------------------------------------
# the all-item scorer equals the single-score path
# ---------------------------------------------------------------------------


def _world(seed=0, **flags):
    rng = np.random.default_rng(seed)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, n_users=4, n_items=8, n_entities=14, **flags)
    pairs = [(u, int(i)) for u in range(4)
             for i in rng.choice(8, size=3, replace=False)]
    store = InteractionStore(4, 8, {"train": list(dict.fromkeys(pairs))})
    cache = build_walk_cache(kg, items, WalkConfig(0.2, 4, 3, cfg.local_size),
                             seed=seed)
    return kg, model, params, cfg, items, store, cache


@pytest.mark.parametrize("flags", [
    {},
    {"disable_local": True},
    {"disable_nonlocal": True},
    {"disable_user_attention": True},
])
def test_fast_scorer_matches_tape_scorer(flags):
    kg, model, params, cfg, items, store, cache = _world(3, **flags)
    contexts = ItemContextSet.build(kg, items, cache, cfg.local_size,
                                    substream(1, "eval-items"))
    scorer = FastScorer(params, cfg, items, contexts)
    user = 2
    items, nonempty = sample_history(store, [user], None, cfg.history_size,
                                     substream(1, "eval-history"))
    history = items[0].tolist() if nonempty[0] else []
    grads = {name: t.grad.copy() for name, t in params.items()}
    scores = scorer.user_scores(user, history)
    halves = scorer.all_item_q(user)
    assert len(halves) == 2
    assert all(t.requires_grad is False for t in halves)
    for name, t in params.items():
        np.testing.assert_array_equal(t.grad, grads[name], err_msg=name)

    def item_ctx(i):
        nbrs = tuple(zip(contexts.rels[i].tolist(), contexts.tails[i].tolist()))
        k = int(contexts.ctx_mask[i].sum())
        walk = tuple(contexts.ctx_rev[i, :k][::-1].tolist())
        return ItemContext(nbrs, walk)

    hist = tuple((j, item_ctx(j)) for j in history)
    for i in range(store.item_count):
        tape = model.score(user, i, ScoreContext(item_ctx(i), hist)).item()
        assert tape == pytest.approx(scores[i], abs=1e-10)


@pytest.mark.parametrize("flags", [
    {},
    {"disable_local": True},
    {"disable_nonlocal": True},
    {"disable_user_attention": True},
])
def test_blocked_hoisted_stage_is_bit_equal_to_the_whole_stage(monkeypatch, flags):
    """Blocks of 3 of the 8 items, written in place, give the whole
    catalogue's item stage, every field (the gate, its non-local share and the
    target logit halves included) but ``c_nonlocal``, which the scorer drops
    once the share holds it, and score every item for a user bit for bit as
    that whole stage does."""
    kg, model, params, cfg, items, store, cache = _world(3, **flags)
    contexts = ItemContextSet.build(kg, items, cache, cfg.local_size,
                                    substream(1, "eval-items"))
    monkeypatch.setattr(evaluation, "STAGE_BLOCK", 3)
    scorer = FastScorer(params, cfg, items, contexts)
    whole = model.item_stage(contexts)
    for field in dataclasses.fields(whole):
        got, want = getattr(scorer.stage, field.name), getattr(whole, field.name)
        if field.name == "local_size":
            assert got == want
        elif want is None or (field.name == "c_nonlocal" and whole.nonlocal_share is not None):
            assert got is None, field.name
        else:
            np.testing.assert_array_equal(got.data, want.data, err_msg=field.name)
    for user, history in ((0, [1, 4, 4]), (2, [])):
        e_h, fused, _ = model.user_stage(whole, [user])
        want = model.shared_history_scores(user, e_h, fused, whole.entity_logits, history)
        np.testing.assert_array_equal(scorer.user_scores(user, history), want.data[:, 0])


def test_fast_scorer_handles_empty_history():
    kg, model, params, cfg, items, store, cache = _world(4)
    contexts = ItemContextSet.build(kg, items, cache, cfg.local_size,
                                    substream(2, "eval-items"))
    scorer = FastScorer(params, cfg, items, contexts)
    scores = scorer.user_scores(0, [])
    assert scores.shape == (store.item_count,)
    assert np.isfinite(scores).all()


def test_scorer_build_holds_one_copy_of_the_stage():
    """Building a scorer peaks below 1.6x the bytes of its own stage tables:
    each block's rows go into the tables as the block is computed, so the
    blocks and a joined copy of them never coexist (that build peaked at
    about 2x)."""
    rng = np.random.default_rng(5)
    n_items, n_entities, n_relation_rows, walk = 3846, 4000, 11, 8
    cfg = ModelConfig(dim=32, local_size=4, history_size=4)
    params = init_params(cfg, 10, n_entities, n_relation_rows, rng)
    contexts = ItemInputs(np.arange(n_items),
                          rng.integers(n_relation_rows, size=(n_items, cfg.local_size)),
                          rng.integers(n_entities, size=(n_items, cfg.local_size)),
                          rng.integers(n_entities, size=(n_items, walk)),
                          np.ones((n_items, walk)))
    tracemalloc.start()
    try:
        scorer = FastScorer(params, cfg, np.arange(n_items), contexts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = [getattr(scorer.stage, f.name) for f in dataclasses.fields(scorer.stage)]
    stage_bytes = sum(t.data.nbytes for t in tables if isinstance(t, Tensor))
    assert scorer.stage.c_nonlocal is None
    assert peak < 1.6 * stage_bytes, (peak, stage_bytes)


def _scaled_world(seed, n_users=12, n_items=16):
    """Non-init (scale-2) weights and a store whose every user has test
    positives, so that users' scores differ and rank apart."""
    rng = np.random.default_rng(seed)
    kg, _, params, cfg, items = synth.random_model_setup(
        rng, n_users=n_users, n_items=n_items, n_entities=24, scale=2.0)
    splits = {"train": [], "test": []}
    for u in range(n_users):
        chosen = rng.choice(n_items, size=6, replace=False).tolist()
        splits["train"] += [(u, i) for i in chosen[:4]]
        splits["test"] += [(u, i) for i in chosen[4:]]
    store = InteractionStore(n_users, n_items, splits)
    cache = build_walk_cache(kg, items, WalkConfig(0.2, 4, 3, cfg.local_size), seed=seed)
    return kg, params, cfg, items, store, cache


def test_report_and_scores_do_not_depend_on_the_worker_count(monkeypatch):
    """1, 2 and 3 workers write the same report and give every user the same
    scores, and no worker thread outlives the call.  A short switch interval
    makes the threads interleave often."""
    kg, params, cfg, items, store, cache = _scaled_world(21)
    scored = FastScorer.user_scores
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            digests = {}

            def recording(self, user, history):
                scores = scored(self, user, history)
                digests[user] = hashlib.sha256(scores.tobytes()).hexdigest()
                return scores

            monkeypatch.setattr(FastScorer, "user_scores", recording)
            monkeypatch.setattr(evaluation, "_worker_count", lambda n=workers: n)
            threads = threading.active_count()
            report = evaluate(params, cfg, store, kg, items, cache,
                              EvalConfig(k_values=(1, 3, 5)), split="test", seed=4)
            assert threading.active_count() == threads
            runs[workers] = (report.to_lines(), digests)
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[2] == runs[3]
    assert len(set(runs[1][1].values())) == store.user_count


def test_an_error_cancels_the_users_not_yet_scored(monkeypatch):
    """The first user's error surfaces as raised; the users still queued are
    cancelled, not scored, and no worker thread outlives the call."""
    kg, params, cfg, items, store, cache = _scaled_world(22)
    scored = FastScorer.user_scores
    calls = []

    def failing(self, user, history):
        calls.append(user)
        if user == 0:
            raise NumericError("op 'probe' produced non-finite values")
        time.sleep(0.05)
        return scored(self, user, history)

    monkeypatch.setattr(FastScorer, "user_scores", failing)
    monkeypatch.setattr(evaluation, "_worker_count", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(NumericError, match="probe"):
        evaluate(params, cfg, store, kg, items, cache, split="test", seed=4)
    assert threading.active_count() == threads
    assert len(calls) < store.user_count, calls


def test_evaluation_aborts_on_non_finite_scores():
    """An overflowing user aggregation raises, naming the op, instead of
    ranking NaN scores."""
    kg, model, params, cfg, items, _, cache = _world(11)
    params["user_emb"].data[...] = 1.0
    synth.write_concat(params, "user_agg_W", 1e308)
    store = InteractionStore(4, 8, {"train": [(0, 0), (1, 1)],
                                    "test": [(0, 2), (1, 3)]})
    with pytest.raises(NumericError, match="matmul"):
        evaluate(params, cfg, store, kg, items, cache, EvalConfig(k_values=(3,)),
                 split="test", seed=0)


def test_evaluation_aborts_on_non_finite_scores_at_two_workers(monkeypatch):
    """The same abort raised on a worker thread surfaces unchanged."""
    monkeypatch.setattr(evaluation, "_worker_count", lambda: 2)
    test_evaluation_aborts_on_non_finite_scores()


# ---------------------------------------------------------------------------
# evaluation protocol
# ---------------------------------------------------------------------------


def _store_with_test_sets():
    return InteractionStore(3, 6, {
        "train": [(0, 0), (0, 1), (1, 2), (2, 3)],
        "valid": [(0, 2), (1, 3)],
        "test": [(0, 3), (0, 4), (1, 0)],   # user 2 has no test positives
    })


def test_candidates_exclude_train_and_valid_positives():
    from kgrec.evaluation import _candidates_for

    store = _store_with_test_sets()
    cfg = EvalConfig()
    cands = _candidates_for(store, 0, "test", cfg).tolist()
    assert cands == [3, 4, 5]
    cfg_incl = EvalConfig(include_valid_in_candidates=True)
    assert _candidates_for(store, 0, "test", cfg_incl).tolist() == [2, 3, 4, 5]
    # validation candidates keep the valid positives rankable
    assert _candidates_for(store, 0, "valid", cfg).tolist() == [2, 3, 4, 5]


def test_evaluate_averages_over_users_with_test_positives():
    kg, model, params, cfg, items, _, cache = _world(5)
    store = InteractionStore(4, 8, {
        "train": [(0, 0), (1, 1), (2, 2)],
        "test": [(0, 3), (1, 4)],
    })
    report = evaluate(params, cfg, store, kg, items, cache,
                      EvalConfig(k_values=(2, 4)), split="test", seed=0)
    assert report.users_evaluated == 2
    for k in (2, 4):
        for value in report.metrics[k].values():
            assert 0.0 <= value <= 1.0


def test_hit_ratio_averages_binary_hits():
    """Two users with hit outcomes {1, 0} average to HR = 0.5.

    With every weight zeroed the score collapses to the plain embedding dot
    product, so rankings are fully controlled by the embedding tables.
    """
    kg, model, params, cfg, items, _, cache = _world(6)
    for _, t in params.items():
        t.data[...] = 0.0
    params["user_emb"].data[0, 0] = 1.0
    params["user_emb"].data[1, 1] = 1.0
    ent = params["entity_emb"]
    ent.data[items[1], 0] = 5.0   # user 0's best candidate is their test item
    ent.data[items[2], 0] = 1.0
    ent.data[items[1], 1] = 9.0   # user 1's best candidate is NOT their test item
    ent.data[items[2], 1] = 1.0
    store = InteractionStore(2, 8, {
        "train": [(0, 0), (1, 0)],
        "test": [(0, 1), (1, 2)],
    })
    report = evaluate(params, cfg, store, kg, items, cache,
                      EvalConfig(k_values=(1,)), split="test", seed=0)
    assert report.metrics[1]["hit_ratio"] == 0.5
    assert report.metrics[1]["precision"] == 0.5


def test_recall_and_hit_are_monotone_in_k():
    kg, model, params, cfg, items, _, cache = _world(7)
    store2 = InteractionStore(4, 8, {
        "train": [(0, 0), (0, 1), (1, 2), (2, 3)],
        "test": [(0, 7), (0, 6), (1, 6), (2, 5)],
    })
    report = evaluate(params, cfg, store2, kg, items, cache,
                      EvalConfig(k_values=(1, 3, 5, 8)), split="test", seed=1)
    ks = sorted(report.metrics)
    for a, b in zip(ks, ks[1:]):
        assert report.metrics[a]["recall"] <= report.metrics[b]["recall"] + 1e-12
        assert report.metrics[a]["hit_ratio"] <= report.metrics[b]["hit_ratio"] + 1e-12


def test_user_without_test_positives_leaves_report_unchanged():
    kg, model, params, cfg, items, _, cache = _world(8)
    base = InteractionStore(4, 8, {"train": [(0, 0), (1, 1)],
                                   "test": [(0, 2), (1, 3)]})
    extended = InteractionStore(4, 8, {"train": [(0, 0), (1, 1), (2, 4)],
                                       "test": [(0, 2), (1, 3)]})
    a = evaluate(params, cfg, base, kg, items, cache, EvalConfig(k_values=(3,)),
                 split="test", seed=2)
    b = evaluate(params, cfg, extended, kg, items, cache, EvalConfig(k_values=(3,)),
                 split="test", seed=2)
    assert a.metrics == b.metrics and a.users_evaluated == b.users_evaluated


def test_evaluation_is_deterministic():
    kg, model, params, cfg, items, _, cache = _world(9)
    store2 = InteractionStore(4, 8, {
        "train": [(0, 0), (1, 1), (2, 2)],
        "test": [(0, 7), (2, 6)],
    })
    a = evaluate(params, cfg, store2, kg, items, cache, split="test", seed=5)
    b = evaluate(params, cfg, store2, kg, items, cache, split="test", seed=5)
    assert a.metrics == b.metrics


def test_report_serialization_round_trip():
    report = EvalReport(split="test",
                        metrics={10: {"precision": 0.125, "recall": 0.5,
                                      "hit_ratio": 1.0}},
                        users_evaluated=4)
    lines = report.to_lines()
    assert lines == ["test\t10\tprecision\t0.125", "test\t10\trecall\t0.5",
                     "test\t10\thit_ratio\t1.0"]
    parsed = {}
    for line in lines:
        split, k, metric, value = line.split("\t")
        parsed[(split, int(k), metric)] = float(value)
    assert parsed[("test", 10, "recall")] == 0.5
