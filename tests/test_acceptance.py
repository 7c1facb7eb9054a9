"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 8 (desk-scale public-dataset reproduction) needs the
real dataset files and several hours of CPU; it is skipped unless
``KGREC_LASTFM_DIR`` points at them.
"""

import collections
import math
import os
import time

import numpy as np
import pytest

from kgrec import autodiff as ad
from kgrec.autodiff import AdamState, finite_difference_check
from kgrec.cli import main
from kgrec.evaluation import EvalConfig, evaluate, metrics_for_user
from kgrec.graph import KnowledgeGraph, Triple
from kgrec.model import GraphContextModel, ModelConfig, init_params
from kgrec.sampling import (WalkConfig, biased_steps, build_walk_cache,
                            sample_bpr_tuples, sample_kg_negatives, substream,
                            walk_paths)
from kgrec.training import TrainConfig, kg_distance, kg_loss, train

import synth


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_c1_gradient_suite():
    """Every primitive, the recurrent sequence op, and the full score match central
    finite differences (rel err < 1e-4, eps = 1e-5, float64, >= 50 draws)."""
    started = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(101)

    gru_names = ("gru_wz", "gru_uz", "gru_bz", "gru_wr", "gru_ur", "gru_br",
                 "gru_wc", "gru_uc", "gru_bc")
    # two walk contexts, of 2 steps and of 1
    gru_mask = np.array([[1.0, 1.0], [1.0, 0.0]])
    primitive_builders = {
        "add": (lambda r: ad.add(r["a"], r["b"]), {"a": (3, 4), "b": (1, 4)}),
        "sub": (lambda r: ad.sub(r["a"], r["b"]), {"a": (3, 4), "b": (3, 4)}),
        "mul": (lambda r: ad.mul(r["a"], r["b"]), {"a": (3, 4), "b": (3, 1)}),
        "matmul": (lambda r: ad.matmul(r["a"], r["b"]), {"a": (2, 3), "b": (3, 4)}),
        "hstack": (lambda r: ad.hstack(r["a"], r["b"]), {"a": (2, 3), "b": (2, 2)}),
        "slice_cols": (lambda r: ad.slice_cols(r["a"], 1, 3), {"a": (2, 5)}),
        "gather_rows": (lambda r: ad.gather_rows(r["a"], [2, 0, 2]), {"a": (3, 3)}),
        "repeat_rows": (lambda r: ad.repeat_rows(r["a"], 2), {"a": (3, 3)}),
        "sum_row_groups": (lambda r: synth.sum_row_groups(r["a"], 3), {"a": (6, 2)}),
        "reshape": (lambda r: ad.reshape(r["a"], 2, 6), {"a": (3, 4)}),
        "row_sums": (lambda r: ad.row_sums(r["a"]), {"a": (3, 4)}),
        "tanh": (lambda r: ad.tanh(r["a"]), {"a": (3, 4)}),
        "sigmoid": (lambda r: ad.sigmoid(r["a"]), {"a": (3, 4)}),
        "log_sigmoid": (lambda r: ad.log_sigmoid(r["a"]), {"a": (3, 4)}),
        "softmax_rows": (lambda r: synth.softmax_rows(r["a"]), {"a": (3, 5)}),
        "affine": (lambda r: ad.affine(r["x"], r["w"], r["b"]),
                   {"x": (2, 3), "w": (3, 4), "b": (1, 4)}),
        "square": (lambda r: ad.square(r["a"]), {"a": (2, 4)}),
        # fused ops; rows repeat items (2, 0) and users (0, 1)
        "neighbor_softmax": (
            lambda r: ad.neighbor_softmax(r["f"], r["m"], [2, 0, 2, 1, 0], [1, 0, 0, 1, 1], 2),
            {"f": (6, 3), "m": (2, 3)}),
        "neighbor_aggregate": (
            lambda r: ad.neighbor_aggregate(r["a"], r["e"], r["b"], [2, 0, 2, 1, 0]),
            {"a": (5, 2), "e": (6, 3), "b": (3, 3)}),
        # every item in order, under one user
        "neighbor_softmax_all": (lambda r: ad.neighbor_softmax(r["f"], r["m"], None, None, 2),
                                 {"f": (6, 3), "m": (1, 3)}),
        "neighbor_aggregate_all": (lambda r: ad.neighbor_aggregate(r["a"], r["e"], r["b"], None),
                                   {"a": (3, 2), "e": (6, 3), "b": (3, 3)}),
        # a history of 2 rows per target (target 1's empty), and one shared
        "history_softmax": (lambda r: ad.history_softmax(r["a"], r["h"], r["b"]),
                            {"a": (3, 1), "h": (3, 2), "b": (1, 1)}),
        "history_softmax_shared": (lambda r: ad.history_softmax(r["a"], r["h"], r["b"]),
                                   {"a": (3, 1), "h": (1, 2), "b": (1, 1)}),
        "history_context": (
            lambda r: ad.history_context(r["s"], r["v"], r["p"], [[1.0], [0.0], [1.0]]),
            {"s": (3, 2), "v": (6, 3), "p": (3, 3)}),
        "history_context_shared": (lambda r: ad.history_context(r["s"], r["v"], r["p"]),
                                   {"s": (3, 2), "v": (2, 3), "p": (1, 3)}),
        "pair_scores": (lambda r: ad.pair_scores(r["u"], r["e"], r["c"], r["f"]),
                        {"u": (3, 3), "e": (3, 3), "c": (1, 3), "f": (3, 3)}),
        "gru_sequence": (
            lambda r: ad.gru_sequence(r["x"], gru_mask, ad.GruParams(*(r[n] for n in gru_names))),
            {**{n: (1, 3) if n.endswith(("bz", "br", "bc")) else (3, 3) for n in gru_names},
             "x": (4, 3)}),
    }
    for name, (builder, shapes) in primitive_builders.items():
        for _ in range(50):
            reg = ad.ParamRegistry()
            for pname, shape in shapes.items():
                reg.register(pname, rng.uniform(-1.0, 1.0, size=shape))
            weight = ad.constant(rng.uniform(-1.0, 1.0, size=builder(reg).shape))
            err = finite_difference_check(
                lambda: ad.sum_all(ad.mul(builder(reg), weight)),
                reg, eps=1e-5, max_coords=6, rng=rng)
            worst = max(worst, err)
            assert err < 1e-4, f"{name}: {err}"

    for _ in range(50):
        reg = ad.ParamRegistry()
        for name in gru_names:
            shape = (1, 3) if name.endswith(("bz", "br", "bc")) else (3, 3)
            reg.register(name, rng.uniform(-0.8, 0.8, size=shape))
        reg.register("x", rng.normal(size=(4, 3)))
        gru = ad.GruParams(*(reg[n] for n in gru_names))
        err = finite_difference_check(
            lambda: ad.sum_all(ad.gru_sequence(reg["x"], gru_mask, gru)),
            reg, eps=1e-5, max_coords=4, rng=rng)
        worst = max(worst, err)
        assert err < 1e-4, f"gru: {err}"

    for draw in range(50):
        setup_rng = np.random.default_rng(500 + draw)
        kg, model, params, cfg, items = synth.random_model_setup(
            setup_rng, dim=3, local_size=2, history_size=2, n_entities=10,
            n_items=5, scale=3.0)
        ctx = synth.random_score_context(setup_rng, kg, model, len(items))
        err = finite_difference_check(lambda: model.score(1, 0, ctx), params,
                                      eps=1e-5, max_coords=2, rng=setup_rng)
        worst = max(worst, err)
        assert err < 1e-4, f"score draw {draw}: {err}"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    _report("C1", f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. attention probabilities and gate bounds
# ---------------------------------------------------------------------------


def test_c2_attention_probability_suite():
    rng = np.random.default_rng(202)
    kg, model, params, cfg, items = synth.random_model_setup(
        rng, n_users=6, n_items=8, n_entities=16, scale=2.0)
    for _ in range(1000):
        nbrs = [(int(rng.integers(kg.relation_count)), int(rng.integers(16)))
                for _ in range(int(rng.integers(1, 6)))]
        alpha = model.user_attention(int(rng.integers(6)), int(rng.integers(16)),
                                     nbrs).data
        assert (alpha >= 0.0).all()
        assert abs(alpha.sum() - 1.0) <= 1e-12

    for _ in range(1000):
        ctx = synth.random_score_context(rng, kg, model, len(items))
        q_i = model.contextualized_item(0, 0, ctx.target)
        qs = [model.contextualized_item(0, j, c) for j, c in ctx.history]
        beta = model.history_attention(q_i, qs).data
        assert (beta >= 0.0).all()
        assert abs(beta.sum() - 1.0) <= 1e-12

    for _ in range(200):
        e = int(rng.integers(16))
        u = int(rng.integers(6))
        nbrs = [(int(rng.integers(kg.relation_count)), int(rng.integers(16)))
                for _ in range(3)]
        walk = tuple(int(x) for x in rng.choice(16, size=2, replace=False))
        c_l = model.local_embedding(u, e, nbrs).data
        c_g = model.nonlocal_embedding(e, walk).data
        c = model.kg_context(u, e, nbrs, walk).data
        lo, hi = np.minimum(c_l, c_g), np.maximum(c_l, c_g)
        assert (c >= lo - 1e-12).all() and (c <= hi + 1e-12).all()
    _report("C2", "1000 alpha + 1000 beta instances, 200 gate bounds")


# ---------------------------------------------------------------------------
# 3. sampler oracles
# ---------------------------------------------------------------------------


def test_c3a_walk_context_equals_brute_force_counts():
    cfg = WalkConfig(gamma=0.2, num_walks=6, walk_length=5, context_size=3)
    meta = np.random.default_rng(303)
    for trial in range(100):
        kg = synth.random_kg(meta)
        root = int(meta.integers(kg.entity_count))
        seed = int(meta.integers(1 << 30))
        # every entity is an item, the drawn root first
        roots = (root + np.arange(kg.entity_count)) % kg.entity_count
        cache = build_walk_cache(kg, roots, cfg, seed)
        paths = walk_paths(kg, roots, cfg, substream(seed, "walks"))
        for item, (r, walks) in enumerate(zip(roots.tolist(), paths.tolist())):
            counts = collections.Counter(e for path in walks for e in path if e != r)
            expected = [e for e, _ in sorted(counts.items(),
                                             key=lambda kv: (-kv[1], kv[0]))][:3]
            assert cache.contexts[item].tolist() == expected, f"trial {trial} item {item}"
    _report("C3a", "100 random graphs, every entity an item, exact equality")


def test_c3b_transition_frequencies_match_weights():
    triples = [Triple(0, 0, 1), Triple(1, 1, 2), Triple(1, 2, 3), Triple(0, 3, 2),
               Triple(3, 0, 4)]
    kg = KnowledgeGraph(5, 4, triples)
    gamma, n = 0.2, 100_000
    # n copies of the (prev, cur) = (0, 1) transition in one step call
    steps = biased_steps(kg, np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64),
                         gamma, np.random.default_rng(304))
    counts = collections.Counter(steps.tolist())
    expected = {0: 1 / 6, 2: 1 / 6, 3: 2 / 3}
    for entity, p in expected.items():
        sigma = math.sqrt(p * (1 - p) / n)
        deviation = abs(counts[entity] / n - p)
        assert deviation <= 3 * sigma, (entity, deviation, 3 * sigma)
    _report("C3b", f"{n} draws within 3 binomial sigma")


def test_c3c_negative_exclusion_constraints():
    rng = np.random.default_rng(305)
    store = synth.random_store(rng, n_users=8, n_items=12, per_user=5)
    for u, pos, neg in sample_bpr_tuples(store, 5, rng):
        assert pos in store.positive_list(u, "train")
        assert neg not in store.positive_list(u, "train")
    checked = 0
    for _ in range(25):
        kg = synth.random_kg(rng)
        for h, r, t, neg in sample_kg_negatives(kg, rng):
            assert neg != h and not synth.is_neighbor(kg, h, neg)
            checked += 1
    assert checked > 100
    _report("C3c", f"all ranking negatives + {checked} graph negatives")


# ---------------------------------------------------------------------------
# 4. metric oracle
# ---------------------------------------------------------------------------


def test_c4_metric_oracle():
    rng = np.random.default_rng(404)
    for _ in range(200):
        n_items = int(rng.integers(5, 50))
        ranked = rng.permutation(n_items)
        test_set = set(int(x) for x in
                       rng.choice(n_items, size=int(rng.integers(1, 6)), replace=False))
        k = int(rng.integers(1, n_items + 1))
        got = metrics_for_user(ranked, test_set, k)
        hits = sum(1 for item in ranked[:k] if int(item) in test_set)
        assert got == (hits / k, hits / len(test_set), 1.0 if hits else 0.0)
    _report("C4", "200 random fixtures, exact equality")


# ---------------------------------------------------------------------------
# 5. ablation exactness
# ---------------------------------------------------------------------------


def test_c5_ablation_exactness():
    rng = np.random.default_rng(505)
    kg, model, params, cfg, items = synth.random_model_setup(rng, n_items=8)
    variants = {
        "no_local": ({"disable_local": True}, "nonlocal"),
        "no_nonlocal": ({"disable_nonlocal": True}, "local"),
    }
    for name, (flags, force) in variants.items():
        flagged = GraphContextModel(
            ModelConfig(dim=cfg.dim, local_size=cfg.local_size,
                        history_size=cfg.history_size, **flags), params, items)
        for trial in range(20):
            ctx = synth.random_score_context(rng, kg, model, len(items))
            u, i = int(rng.integers(4)), int(rng.integers(8))
            a = flagged.score(u, i, ctx).data
            b = model.score(u, i, ctx, force=force).data
            assert np.array_equal(a, b), f"{name} trial {trial}"

    ua_model = GraphContextModel(
        ModelConfig(dim=cfg.dim, local_size=cfg.local_size,
                    history_size=cfg.history_size, disable_user_attention=True),
        params, items)
    for _ in range(50):
        nbrs = [(int(rng.integers(kg.relation_count)), int(rng.integers(14)))
                for _ in range(3)]
        e = int(rng.integers(14))
        alphas = [ua_model.user_attention(u, e, nbrs).data for u in range(4)]
        for other in alphas[1:]:
            assert np.array_equal(alphas[0], other)
    _report("C5", "flag paths bit-equal to forced paths; alpha user-invariant")


# ---------------------------------------------------------------------------
# 6. learning smoke test
# ---------------------------------------------------------------------------


def test_c6_planted_preference_learning():
    """Full model reaches HR@10 >= 0.8 on held-out positives of a planted
    two-group dataset while a frozen random scorer stays near K/|I| = 0.1."""
    started = time.perf_counter()
    store, kg, item_entities = synth.planted_dataset(0, n_users=50, n_items=100,
                                                     core=12)
    cache = build_walk_cache(kg, item_entities,
                             WalkConfig(gamma=0.2, num_walks=8, walk_length=4,
                                        context_size=2), seed=0)
    mcfg = ModelConfig(dim=16, local_size=2, history_size=4)
    ecfg = EvalConfig(k_values=(10, 20))
    trained_hr, random_hr = [], []
    for seed in (1, 2, 3):
        tcfg = TrainConfig(eta=5e-3, lambda1=1e-5, lambda2=1e-6, batch_size=128,
                           n_neg=5, epochs=40, seed=seed, patience=100,
                           eval_every=5)
        params, _ = train(store, kg, item_entities, cache, mcfg, tcfg,
                          eval_cfg=ecfg)
        report = evaluate(params, mcfg, store, kg, item_entities, cache, ecfg,
                          split="test", seed=seed)
        trained_hr.append(report.metrics[10]["hit_ratio"])
        frozen = init_params(mcfg, store.user_count, kg.entity_count,
                             kg.relation_embedding_count,
                             np.random.default_rng(seed + 1000))
        frozen_report = evaluate(frozen, mcfg, store, kg, item_entities, cache,
                                 ecfg, split="test", seed=seed)
        random_hr.append(frozen_report.metrics[10]["hit_ratio"])
    elapsed = time.perf_counter() - started
    mean_trained = float(np.mean(trained_hr))
    mean_random = float(np.mean(random_hr))
    assert mean_trained >= 0.8, trained_hr
    assert mean_random <= 0.2, random_hr   # within 2x of the 10/100 baseline
    assert elapsed < 300.0, f"smoke test took {elapsed:.0f}s"
    _report("C6", f"trained HR@10 {mean_trained:.3f}, random {mean_random:.3f}, "
                  f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. graph-loss direction
# ---------------------------------------------------------------------------


def test_c7_graph_loss_orders_distances_within_500_steps():
    rng = np.random.default_rng(707)
    triples = [Triple(int(rng.integers(8)), int(rng.integers(2)),
                      int(rng.integers(8))) for _ in range(10)]
    kg = KnowledgeGraph(8, 2, triples)
    cfg = ModelConfig(dim=4, local_size=2, history_size=2)
    params = init_params(cfg, 2, 8, kg.relation_embedding_count, rng)
    model = GraphContextModel(cfg, params, np.arange(2))
    quads = sample_kg_negatives(kg, substream(7, "kg"))
    adam = AdamState(params)
    for _ in range(500):
        loss = kg_loss(model, quads)
        params.zero_grads()
        loss.backward()
        adam.step(params, eta=5e-3)
    s_pos = np.mean([kg_distance(model, h, r, t).item() for h, r, t, _ in quads])
    s_neg = np.mean([kg_distance(model, h, r, n).item() for h, r, _, n in quads])
    assert s_pos < s_neg
    _report("C7", f"mean true-tail distance {s_pos:.4f} < corrupted {s_neg:.4f}")


# ---------------------------------------------------------------------------
# 8. desk-scale public-dataset reproduction (stretch, not blocking)
# ---------------------------------------------------------------------------


LASTFM_DIR = os.environ.get("KGREC_LASTFM_DIR", "")


@pytest.mark.skipif(not LASTFM_DIR, reason="stretch criterion: set "
                    "KGREC_LASTFM_DIR to the dataset directory to run (hours)")
def test_c8_lastfm_reproduction(tmp_path):
    """d=32 S=4 N=16 gamma=0.2 M=15 L=8 lambda1=5e-5: HR@20 >= 0.45 on the 20%
    test split and the full model beats the gate-disabled, lambda1=0 variant."""
    from kgrec.graph import load_interactions, load_kg, split_interactions

    store, maps = load_interactions(os.path.join(LASTFM_DIR, "ratings.tsv"))
    kg, item_entities = load_kg(os.path.join(LASTFM_DIR, "kg.tsv"),
                                os.path.join(LASTFM_DIR, "item_map.tsv"), maps)
    store = split_interactions(store, (0.6, 0.2, 0.2), seed=7)
    cache = build_walk_cache(kg, item_entities, WalkConfig(0.2, 15, 8, 4), seed=7)
    mcfg = ModelConfig(dim=32, local_size=4, history_size=16)
    ecfg = EvalConfig(k_values=(10, 20, 50))
    # lambda2 leans high in its grid: it must counter the unbounded graph
    # term over a long run (validation selection picks the best epoch anyway)
    tcfg = TrainConfig(eta=1e-3, lambda1=5e-5, lambda2=1e-4, batch_size=256,
                       n_neg=5, epochs=60, seed=7, patience=5, eval_every=5)
    params, _ = train(store, kg, item_entities, cache, mcfg, tcfg, eval_cfg=ecfg)
    full = evaluate(params, mcfg, store, kg, item_entities, cache, ecfg,
                    split="test", seed=7)
    hr20 = full.metrics[20]["hit_ratio"]

    reduced_cfg = ModelConfig(dim=32, local_size=4, history_size=16,
                              disable_nonlocal=True)
    reduced_tcfg = TrainConfig(eta=1e-3, lambda1=0.0, lambda2=1e-5,
                               batch_size=256, n_neg=5, epochs=60, seed=7,
                               patience=5, eval_every=5)
    reduced_params, _ = train(store, kg, item_entities, cache, reduced_cfg,
                              reduced_tcfg, eval_cfg=ecfg)
    reduced = evaluate(reduced_params, reduced_cfg, store, kg, item_entities,
                       cache, ecfg, split="test", seed=7)
    assert hr20 >= 0.45
    assert hr20 >= reduced.metrics[20]["hit_ratio"]
    _report("C8", f"HR@20 {hr20:.4f}")


# ---------------------------------------------------------------------------
# 9. determinism of full runs
# ---------------------------------------------------------------------------


def test_c9_full_runs_are_byte_identical(tmp_path):
    ratings, kg_file, item_map = synth.write_planted_files(tmp_path / "raw", seed=2)
    dataset = tmp_path / "dataset"
    assert main(["preprocess", "--ratings", str(ratings), "--kg", str(kg_file),
                 "--item-map", str(item_map), "--out", str(dataset),
                 "--seed", "5"]) == 0
    cache = tmp_path / "cache.bin"
    assert main(["build-cache", "--dataset", str(dataset), "--out", str(cache),
                 "--seed", "5", "--set", "S=2", "--set", "M=3",
                 "--set", "L=3"]) == 0
    fast = ["--set", "d=6", "--set", "S=2", "--set", "N=3", "--set", "eta=0.005",
            "--set", "B=32", "--set", "n_neg=2", "--set", "epochs=3",
            "--set", "eval_every=1", "--set", "K=10,20"]
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["train", "--dataset", str(dataset), "--cache", str(cache),
                     "--out", str(out), "--seed", "13"] + fast) == 0
        assert main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                     "--checkpoint", str(out / "checkpoint.bin"),
                     "--split", "test", "--out", str(out / "eval.tsv")] + fast) == 0
        outs.append(out)
    a, b = outs
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "train_report.tsv").read_bytes() == (b / "train_report.tsv").read_bytes()
    assert (a / "eval.tsv").read_bytes() == (b / "eval.tsv").read_bytes()
    _report("C9", "checkpoints, train reports and eval reports byte-identical")
