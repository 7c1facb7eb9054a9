"""Sampler tests: neighbor draws, biased walks, negatives, histories.

The walk transition rule is validated two ways: empirical frequencies against
the normalized two-case weights on a fixed fixture, and ranked contexts
against a brute-force visit counter on recorded walks.
"""

import collections
import dataclasses
import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrec.graph import InputError, InteractionStore, KnowledgeGraph, Triple
from kgrec.sampling import (WalkCache, WalkConfig, biased_steps, build_walk_cache,
                            rank_visits, reverse_pad, sample_bpr_tuples, sample_history,
                            sample_kg_negatives, sample_local_neighbors, substream,
                            walk_paths)

import synth


def test_substreams_are_deterministic_and_distinct():
    a = substream(7, "walks").integers(0, 1 << 30, size=4)
    b = substream(7, "walks").integers(0, 1 << 30, size=4)
    c = substream(7, "negatives").integers(0, 1 << 30, size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_walk_config_validation():
    with pytest.raises(InputError):
        WalkConfig(gamma=0.5)
    with pytest.raises(InputError):
        WalkConfig(gamma=0.0)
    with pytest.raises(InputError):
        WalkConfig(num_walks=0)


# ---------------------------------------------------------------------------
# local neighbor sampling
# ---------------------------------------------------------------------------


def test_sample_exact_degree_returns_all_neighbors():
    kg = synth.star_kg(4)
    rels, tails = sample_local_neighbors(kg, [0], 4, np.random.default_rng(0))
    assert sorted(zip(rels[0].tolist(), tails[0].tolist())) == synth.local_context(kg, 0)


def test_sample_with_replacement_when_degree_short():
    kg = KnowledgeGraph(2, 1, [Triple(0, 0, 1)])
    rels, tails = sample_local_neighbors(kg, [0], 4, np.random.default_rng(0))
    assert list(zip(rels[0].tolist(), tails[0].tolist())) == [(0, 1)] * 4


def test_isolated_entity_falls_back_to_self_loops():
    kg = KnowledgeGraph(3, 1, [Triple(0, 0, 1)])
    rels, tails = sample_local_neighbors(kg, [2], 2, np.random.default_rng(0))
    assert list(zip(rels[0].tolist(), tails[0].tolist())) == [(kg.self_relation, 2),
                                                              (kg.self_relation, 2)]


def test_neighbor_sampling_is_seed_deterministic():
    kg = synth.star_kg(8)
    a = sample_local_neighbors(kg, [0], 3, np.random.default_rng(5))
    b = sample_local_neighbors(kg, [0], 3, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def _chi2_upper(dof, z=4.0):
    """About the z-sigma upper quantile of a chi-square with ``dof`` degrees
    of freedom (Wilson-Hilferty); z = 4 is a tail of about 3e-5."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * math.sqrt(a)) ** 3


def _assert_inclusion_chi2(counts, draws, p):
    """Inclusion counts of every pool member against ``draws`` Bernoulli(p)
    trials each; ``p`` may differ per member."""
    counts, draws, p = (np.asarray(x, dtype=np.float64) for x in (counts, draws, p))
    expected = draws * p
    stat = float((((counts - expected) ** 2) / (expected * (1.0 - p))).sum())
    assert stat <= _chi2_upper(len(counts)), (stat, counts, expected)


def _assert_uniform_chi2(counts):
    """Pearson's statistic of category counts against equal probabilities."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = counts.sum() / len(counts)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat <= _chi2_upper(len(counts) - 1), (stat, counts)


def test_neighbor_inclusion_frequencies_match_size_over_degree():
    # a hub of degree 40 >> S, an entity of degree 6, a leaf of degree 1 and an
    # isolated entity, interleaved in one call
    triples = [Triple(0, 0, 1 + j) for j in range(40)]
    triples += [Triple(41, j % 2, 42 + j) for j in range(6)]
    kg = KnowledgeGraph(49, 2, triples)
    leaf, isolated, rows = 1, 48, 6000
    entities = np.tile([0, 41, leaf, isolated], rows)
    s = 4
    rels, tails = sample_local_neighbors(kg, entities, s, np.random.default_rng(91))
    assert rels.shape == tails.shape == (4 * rows, s)
    for entity in (0, 41):
        pairs = synth.local_context(kg, entity)
        mine = entities == entity
        for r_row, t_row in zip(rels[mine], tails[mine]):
            drawn = list(zip(r_row.tolist(), t_row.tolist()))
            assert len(set(drawn)) == s and set(drawn) <= set(pairs)
        counts = collections.Counter(tails[mine].ravel().tolist())
        _assert_inclusion_chi2([counts[t] for _, t in pairs], rows, s / len(pairs))
    # a degree short of S draws with replacement: its one pair fills every slot
    assert (tails[entities == leaf] == 0).all()
    assert (rels[entities == leaf] == kg.inverse(0)).all()
    assert (rels[entities == isolated] == kg.self_relation).all()
    assert (tails[entities == isolated] == isolated).all()


def test_neighbor_slots_are_uniform_with_replacement_when_degree_is_short():
    kg = synth.star_kg(3)
    rels, tails = sample_local_neighbors(kg, np.zeros(5000, dtype=np.int64), 5,
                                         np.random.default_rng(92))
    for slot in range(5):
        counts = collections.Counter(tails[:, slot].tolist())
        assert sorted(counts) == [1, 2, 3]
        _assert_uniform_chi2([counts[t] for t in (1, 2, 3)])


# ---------------------------------------------------------------------------
# biased walk transitions
# ---------------------------------------------------------------------------


def _freqs(kg, prev, cur, gamma, n, seed=0):
    """Frequencies of n copies of one (prev, cur) transition, drawn in one
    step call; a None prev is a first step."""
    prevs = None if prev is None else np.full(n, prev)
    steps = biased_steps(kg, prevs, np.full(n, cur), gamma, np.random.default_rng(seed))
    counts = collections.Counter(steps.tolist())
    return {e: c / n for e, c in counts.items()}


def _assert_within_3_sigma(freqs, expected, n):
    for entity, p in expected.items():
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freqs.get(entity, 0.0) - p) <= 3 * sigma, (entity, freqs, expected)


def test_first_step_is_uniform():
    kg = synth.star_kg(3)
    n = 30000
    freqs = _freqs(kg, None, 0, 0.2, n)
    _assert_within_3_sigma(freqs, {1: 1 / 3, 2: 1 / 3, 3: 1 / 3}, n)


def test_two_candidate_weights():
    # b's neighbors are {a, c}; c is not adjacent to a, so P(a)=gamma, P(c)=1-gamma
    kg = synth.chain_kg()
    n = 30000
    freqs = _freqs(kg, 0, 1, 0.2, n)
    _assert_within_3_sigma(freqs, {0: 0.2, 2: 0.8}, n)


def test_all_candidates_near_previous_is_uniform():
    # triangle: both of b's neighbors touch a
    kg = KnowledgeGraph(3, 1, [Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 0, 0)])
    n = 30000
    freqs = _freqs(kg, 0, 1, 0.2, n)
    _assert_within_3_sigma(freqs, {0: 0.5, 2: 0.5}, n)


def five_node_fixture():
    """cur=1 has neighbors {0, 2, 3}: 0 is prev, 2 neighbors prev, 3 does not."""
    triples = [Triple(0, 0, 1), Triple(1, 1, 2), Triple(1, 2, 3), Triple(0, 3, 2),
               Triple(3, 0, 4)]
    return KnowledgeGraph(5, 4, triples)


def test_transition_frequencies_match_normalized_weights():
    kg = five_node_fixture()
    gamma = 0.2
    # unnormalized weights (0.2, 0.2, 0.8) -> (1/6, 1/6, 2/3)
    expected = {0: 1 / 6, 2: 1 / 6, 3: 2 / 3}
    n = 100_000
    freqs = _freqs(kg, 0, 1, gamma, n, seed=11)
    _assert_within_3_sigma(freqs, expected, n)


def _walk_step_isin(kg, prev, cur, gamma):
    """Candidates of one transition and their probabilities, with ``np.isin``
    membership, as the per-walker step first computed them."""
    candidates = synth.neighbors_of(kg, cur)
    if candidates.size == 0:
        return np.array([cur]), np.ones(1)
    if prev is None:
        return candidates, np.full(candidates.size, 1.0 / candidates.size)
    near_prev = np.isin(candidates, synth.neighbors_of(kg, prev)) | (candidates == prev)
    weights = np.where(near_prev, gamma, 1.0 - gamma)
    return candidates, weights / weights.sum()


def test_walk_step_matches_the_isin_reference():
    # 1000 copies of each of 30 (prev, cur) pairs per graph, in one step call
    # after a previous entity and one without; one Pearson statistic over all
    meta = np.random.default_rng(93)
    n, stat, dof = 1000, 0.0, 0
    seen = collections.Counter()
    for _ in range(60):
        kg = synth.random_kg(meta)
        rng = np.random.default_rng(int(meta.integers(1 << 30)))
        # any entity, linked to cur or not, isolated or not
        curs = meta.integers(kg.entity_count, size=30)
        prevs = meta.integers(kg.entity_count, size=30)
        for prev in (prevs, None):
            steps = biased_steps(kg, None if prev is None else np.repeat(prev, n),
                                 np.repeat(curs, n), 0.2, rng).reshape(30, n)
            for j, cur in enumerate(curs.tolist()):
                p_prev = None if prev is None else int(prev[j])
                candidates, p = _walk_step_isin(kg, p_prev, cur, 0.2)
                counts = np.bincount(steps[j], minlength=kg.entity_count)[candidates]
                assert counts.sum() == n, (p_prev, cur, steps[j])
                stat += float(((counts - n * p) ** 2 / (n * p)).sum())
                dof += candidates.size - 1
                seen["isolated"] += synth.neighbors_of(kg, cur).size == 0
                seen["far"] += p_prev is not None and p_prev != cur \
                    and not synth.is_neighbor(kg, p_prev, cur)
    assert stat <= _chi2_upper(dof), (stat, dof)
    assert seen["isolated"] and seen["far"], seen


def test_stuck_walker_stays_put():
    kg = KnowledgeGraph(3, 1, [Triple(0, 0, 1)])
    rng = np.random.default_rng(0)
    assert biased_steps(kg, None, np.array([2]), 0.2, rng).tolist() == [2]
    assert biased_steps(kg, np.array([0, 2]), np.array([2, 2]), 0.2, rng).tolist() == [2, 2]


# ---------------------------------------------------------------------------
# walks and ranked contexts
# ---------------------------------------------------------------------------


def test_walk_paths_shapes_and_adjacency():
    rng = np.random.default_rng(3)
    kg = synth.random_kg(rng, 10, 2, 25)
    cfg = WalkConfig(gamma=0.2, num_walks=15, walk_length=8, context_size=4)
    roots = [0, 3, 0]
    paths = walk_paths(kg, roots, cfg, np.random.default_rng(1))
    assert paths.shape == (3, 15, 8) and paths.dtype == np.int64
    for root, walks in zip(roots, paths.tolist()):
        for path in walks:
            prev = root
            for step in path:
                assert synth.is_neighbor(kg, prev, step) or step == prev
                prev = step


def test_two_node_walk_stays_in_component():
    kg = KnowledgeGraph(2, 1, [Triple(0, 0, 1)])
    cfg = WalkConfig(gamma=0.2, num_walks=3, walk_length=6, context_size=2)
    assert set(walk_paths(kg, [0], cfg, np.random.default_rng(2)).ravel().tolist()) <= {0, 1}


def test_walks_are_seed_deterministic():
    rng = np.random.default_rng(4)
    kg = synth.random_kg(rng, 8, 2, 20)
    cfg = WalkConfig(gamma=0.3, num_walks=5, walk_length=4, context_size=2)
    np.testing.assert_array_equal(walk_paths(kg, [1, 2], cfg, np.random.default_rng(9)),
                                  walk_paths(kg, [1, 2], cfg, np.random.default_rng(9)))


def test_rank_breaks_ties_by_entity_index():
    # the second root visits only itself, so its context is empty
    paths = [[2] * 7 + [1] * 7 + [3] * 3, [5] * 17]
    ranked = rank_visits(paths, roots=[0, 5], size=2)
    assert [ctx.tolist() for ctx in ranked] == [[1, 2], []]
    assert all(ctx.dtype == np.int64 for ctx in ranked)


def test_rank_excludes_root():
    paths = [[0] * 50 + [4] * 3]
    assert [ctx.tolist() for ctx in rank_visits(paths, roots=[0], size=2)] == [[4]]


def test_walk_contexts_match_brute_force_counter():
    # several roots per graph, repeats allowed, ranked in one call
    cfg = WalkConfig(gamma=0.25, num_walks=6, walk_length=5, context_size=3)
    meta_rng = np.random.default_rng(77)
    for trial in range(100):
        kg = synth.random_kg(meta_rng)
        roots = meta_rng.integers(kg.entity_count, size=5)
        seed = int(meta_rng.integers(1 << 30))
        paths = walk_paths(kg, roots, cfg, np.random.default_rng(seed))
        got = rank_visits(paths, roots, cfg.context_size)
        for root, walks, ctx in zip(roots.tolist(), paths.tolist(), got):
            counter = collections.Counter(e for path in walks for e in path if e != root)
            expected = [e for e, _ in sorted(counter.items(),
                                             key=lambda kv: (-kv[1], kv[0]))][:cfg.context_size]
            assert ctx.tolist() == expected, f"trial {trial}"


# ---------------------------------------------------------------------------
# walk cache
# ---------------------------------------------------------------------------


def test_cache_has_one_entry_per_item():
    kg = synth.star_kg(6)
    cache = build_walk_cache(kg, np.array([1, 2, 3]), WalkConfig(0.2, 3, 3, 2), seed=5)
    assert cache.item_count == 3
    empty = build_walk_cache(kg, np.zeros(0, dtype=np.int64), WalkConfig(0.2, 3, 3, 2), seed=5)
    assert empty.item_count == 0


def test_cache_rebuild_is_bit_identical(tmp_path):
    rng = np.random.default_rng(6)
    kg = synth.random_kg(rng, 12, 2, 30)
    items = np.arange(6)
    cfg = WalkConfig(0.2, 4, 4, 3)
    a = build_walk_cache(kg, items, cfg, seed=21)
    b = build_walk_cache(kg, items, cfg, seed=21)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_workers_change_nothing(tmp_path):
    rng = np.random.default_rng(8)
    kg = synth.random_kg(rng, 12, 2, 30)
    items = np.arange(8)
    cfg = WalkConfig(0.2, 4, 4, 3)
    build_walk_cache(kg, items, cfg, seed=13).save(tmp_path / "default.bin")
    build_walk_cache(kg, items, cfg, seed=13, workers=2).save(tmp_path / "workers.bin")
    assert (tmp_path / "default.bin").read_bytes() == (tmp_path / "workers.bin").read_bytes()


def test_wellconnected_items_fill_the_context():
    # complete-ish graph: every entity near every other
    triples = [Triple(h, 0, t) for h in range(5) for t in range(5) if h != t]
    kg = KnowledgeGraph(5, 1, triples)
    cfg = WalkConfig(0.2, 15, 8, 4)
    cache = build_walk_cache(kg, np.arange(5), cfg, seed=3)
    assert all(len(cache.contexts[i]) == 4 for i in range(5))


def test_cache_contexts_never_contain_their_root():
    rng = np.random.default_rng(12)
    for _ in range(10):
        kg = synth.random_kg(rng)
        n_items = min(4, kg.entity_count)
        item_entities = np.arange(n_items)
        cache = build_walk_cache(kg, item_entities, WalkConfig(0.2, 5, 4, 3),
                                 seed=int(rng.integers(1 << 20)))
        for item in range(n_items):
            assert item_entities[item] not in cache.contexts[item]


def test_cache_file_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    kg = synth.random_kg(rng, 10, 2, 20)
    cfg = WalkConfig(0.3, 3, 4, 2)
    cache = build_walk_cache(kg, np.arange(4), cfg, seed=17)
    path = tmp_path / "cache.bin"
    cache.save(path)
    loaded = WalkCache.load(path)
    assert (loaded.item_count, loaded.context_size, loaded.seed, loaded.gamma,
            loaded.num_walks, loaded.walk_length) == (4, 2, 17, 0.3, 3, 4)
    for i in range(4):
        np.testing.assert_array_equal(loaded.contexts[i], cache.contexts[i])
        assert loaded.contexts[i].dtype == np.int64
    # the same cache writes the same bytes
    again = tmp_path / "again.bin"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("bad, item", [(np.array([-1, 5]), 1), (np.array([2**32 + 3]), 1),
                                       (np.array([0, 2**32]), 2)])
def test_cache_save_refuses_ids_outside_u4(tmp_path, bad, item):
    # <u4 would store -1 as 4294967295 and 2**32 + 3 as 3
    contexts = [np.array([1, 2]), np.zeros(0, dtype=np.int64), np.array([7])]
    contexts[item] = bad
    path = tmp_path / "cache.bin"
    with pytest.raises(InputError, match=f"item {item} holds id .*, outside"):
        WalkCache(contexts, 2, seed=1, gamma=0.2, num_walks=1, walk_length=1).save(path)
    assert not path.exists()
    # the largest and smallest storable ids round-trip unchanged
    contexts[item] = np.array([2**32 - 1, 0])
    WalkCache(contexts, 2, seed=1, gamma=0.2, num_walks=1, walk_length=1).save(path)
    assert [c.tolist() for c in WalkCache.load(path).contexts] == [c.tolist() for c in contexts]


def _reverse_pad_loop(contexts, width):
    """The per-item loop the padded arrays replace."""
    ctx_rev = np.zeros((len(contexts), width), dtype=np.int64)
    ctx_mask = np.zeros(ctx_rev.shape)
    for row, ctx in enumerate(contexts):
        k = min(len(ctx), width)
        ctx_rev[row, :k] = np.asarray(ctx[:k])[::-1]
        ctx_mask[row, :k] = 1.0
    return ctx_rev, ctx_mask


def test_padded_contexts_equal_the_per_item_loop(tmp_path):
    rng = np.random.default_rng(12)
    # empty, shorter than, equal to and longer than the width
    contexts = [np.zeros(0, dtype=np.int64), np.array([5]), np.array([3, 9]),
                np.array([7, 1, 4]), np.array([2, 8, 6, 0, 11]), np.zeros(0, dtype=np.int64)]
    contexts += [rng.integers(0, 50, size=int(rng.integers(0, 6))) for _ in range(40)]
    cache = WalkCache(contexts, 3, seed=1, gamma=0.2, num_walks=2, walk_length=3)
    ctx_rev, ctx_mask = cache.padded_contexts
    want_rev, want_mask = _reverse_pad_loop(contexts, 3)
    np.testing.assert_array_equal(ctx_rev, want_rev)
    np.testing.assert_array_equal(ctx_mask, want_mask)
    assert ctx_rev.dtype == np.int64 and ctx_mask.dtype == np.float64
    assert cache.padded_contexts[0] is ctx_rev, "built once per cache object"
    for width in (1, 5, 7):
        for got, want in zip(reverse_pad(contexts, width), _reverse_pad_loop(contexts, width)):
            np.testing.assert_array_equal(got, want)
    empty_rev, empty_mask = reverse_pad([], 3)
    assert empty_rev.shape == empty_mask.shape == (0, 3)
    # a stored context is at most the context size long
    path = tmp_path / "cache.bin"
    cache.save(path)
    with pytest.raises(InputError, match="exceeds its context size 3"):
        WalkCache.load(path)
    # loading a cache builds nothing; the arrays come on first use
    dataclasses.replace(cache, contexts=[c[:3] for c in contexts]).save(path)
    loaded = WalkCache.load(path)
    assert "padded_contexts" not in vars(loaded)
    np.testing.assert_array_equal(loaded.padded_contexts[0], want_rev)


def test_cache_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(InputError, match="not a walk cache"):
        WalkCache.load(path)


def test_every_truncation_of_a_cache_file_is_an_input_error(tmp_path):
    # empty, short and full contexts; the last item's context is empty, so
    # the file ends with the ids of item 3
    contexts = [np.array([4, 1, 7]), np.zeros(0, dtype=np.int64), np.array([9]),
                np.array([2, 3, 5]), np.zeros(0, dtype=np.int64)]
    path = tmp_path / "cache.bin"
    WalkCache(contexts, 3, seed=2, gamma=0.2, num_walks=2, walk_length=3).save(path)
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for length in range(len(data)):
        cut.write_bytes(data[:length])
        with pytest.raises(InputError, match="not a walk cache file|walk cache is truncated"):
            WalkCache.load(cut)
    loaded = WalkCache.load(path)
    assert [c.tolist() for c in loaded.contexts] == [c.tolist() for c in contexts]
    assert all(c.dtype == np.int64 for c in loaded.contexts)


_CACHE_META = {"context_size": 2, "seed": 2, "gamma": 0.2, "num_walks": 2, "walk_length": 3}
_CACHE_ARRAYS = [["lengths", "<u4", [2]], ["ids", "<u4", [3]]]
_CACHE_IDS = np.array([2, 1, 4, 1, 9], dtype="<u4").tobytes()  # lengths 2, 1; ids 4, 1, 9


def _cache_bytes(meta=None, arrays=None, payload=_CACHE_IDS, version=2):
    return synth.raw_artifact(b"KGWC", version, {"meta": {**_CACHE_META, **(meta or {})},
                                                 "arrays": arrays or _CACHE_ARRAYS}, payload)


def test_cache_load_rejects_bad_records(tmp_path):
    path = tmp_path / "cache.bin"
    path.write_bytes(_cache_bytes())
    assert [c.tolist() for c in WalkCache.load(path).contexts] == [[4, 1], [9]]
    u4 = functools.partial(np.array, dtype="<u4")
    cases = [
        # lengths that do not cover the ids, and a context longer than the context size
        ("lengths do not sum to its id count, or one exceeds its context size 2",
         _cache_bytes(payload=u4([1, 1, 4, 1, 9]).tobytes())),
        ("lengths do not sum to its id count, or one exceeds its context size 2",
         _cache_bytes(arrays=[["lengths", "<u4", [2]], ["ids", "<u4", [4]]],
                      payload=u4([1, 3, 4, 1, 9, 9]).tobytes())),
        # an array that the body cannot hold, and bytes that no array holds
        ("walk cache is truncated$",
         _cache_bytes(arrays=[["lengths", "<u4", [2]], ["ids", "<u4", [1 << 31]]])),
        ("has bytes past its arrays", _cache_bytes(payload=_CACHE_IDS + b"\0\0\0\0")),
        # arrays of another dtype, order or name set
        ("arrays are not", _cache_bytes(arrays=[["lengths", "<f8", [2]], ["ids", "<u4", [1]]])),
        ("arrays are not", _cache_bytes(arrays=[["ids", "<u4", [3]], ["lengths", "<u4", [2]]],
                                        payload=u4([4, 1, 9, 2, 1]).tobytes())),
        ("arrays are not", _cache_bytes(arrays=[["lengths", "<u4", [2]]],
                                        payload=u4([0, 0]).tobytes())),
        # headers that the container refuses
        ("header is corrupt", _cache_bytes(arrays=[["ids", "<u4", [2]], ["ids", "<u4", [3]]])),
        ("header is corrupt", _cache_bytes(arrays=[["lengths", "<i8", [2]], ["ids", "<u4", [1]]])),
        ("header is corrupt", _cache_bytes(arrays=[["lengths", "<u4", [1, 1, 2]],
                                                   ["ids", "<u4", [3]]])),
        ("header is corrupt", synth.raw_artifact(b"KGWC", 2, b"{not json")),
        ("header is corrupt", synth.raw_artifact(b"KGWC", 2, b"\xff")),
        ("header is corrupt", synth.raw_artifact(b"KGWC", 2, [1, 2])),
        # meta values of the wrong kind or range
        ("field 'seed' is -1, expected an int >= 0", _cache_bytes(meta={"seed": -1})),
        ("field 'walk_length' is None", _cache_bytes(meta={"walk_length": None})),
        ("field 'gamma' is '0.2', expected float", _cache_bytes(meta={"gamma": "0.2"})),
        ("field 'num_walks' is 2.0", _cache_bytes(meta={"num_walks": 2.0})),
        ("field 'context_size' is True", _cache_bytes(meta={"context_size": True})),
        ("walk cache num_walks, walk_length and context_size must be >= 1",
         _cache_bytes(meta={"context_size": 0})),
        (r"walk cache gamma must be in \(0, 0.5\), got 0.5", _cache_bytes(meta={"gamma": 0.5})),
        ("unsupported walk cache version 7", _cache_bytes(version=7)),
    ]
    for message, body in cases:
        path.write_bytes(body)
        with pytest.raises(InputError, match=message):
            WalkCache.load(path)


def test_version_one_cache_is_rejected_by_version(tmp_path):
    """Version 1 packed a struct header and one (item, length) record per item."""
    path = tmp_path / "v1.bin"
    path.write_bytes(b"KGWC" + struct.pack("<IIIQdII", 1, 1, 2, 2, 0.2, 2, 3)
                     + struct.pack("<III", 0, 1, 4))
    with pytest.raises(InputError, match="unsupported walk cache version 1$"):
        WalkCache.load(path)


def test_cache_with_context_size_above_the_entity_count_does_not_fit():
    # sized before the padded (items, context_size) table is built
    cache = WalkCache([np.array([1, 2])] * 3, 6, seed=0, gamma=0.2, num_walks=1, walk_length=1)
    with pytest.raises(InputError, match="context size 6 exceeds the dataset's 5 entities"):
        cache.check_fits(3, 5)
    assert "padded_contexts" not in vars(cache)
    dataclasses.replace(cache, context_size=5).check_fits(3, 5)


def test_corrupt_cache_bytes_load_or_raise_input_error(tmp_path):
    """One byte overwritten at any offset, or the file cut there: loading and
    fitting the cache succeeds or raises InputError, and nothing else."""
    kg = synth.random_kg(np.random.default_rng(14), 12, 2, 24)
    path = tmp_path / "cache.bin"
    build_walk_cache(kg, np.arange(5), WalkConfig(0.2, 3, 3, 3), seed=4).save(path)
    data = path.read_bytes()

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(st.integers(0, len(data) - 1), st.integers(0, 255), st.booleans())
    def check(offset, value, truncate):
        path.write_bytes(synth.corrupt_bytes(data, offset, value, truncate))
        try:
            cache = WalkCache.load(path)
            cache.check_fits(5, kg.entity_count)
        except InputError:
            return
        assert cache.padded_contexts[0].shape == (5, cache.context_size)

    check()


# ---------------------------------------------------------------------------
# ranking negatives
# ---------------------------------------------------------------------------


def test_bpr_emits_n_neg_tuples_per_interaction():
    store = InteractionStore(1, 10, {"train": [(0, 3)]})
    tuples = sample_bpr_tuples(store, 5, np.random.default_rng(0))
    assert tuples.dtype == np.int64 and tuples.shape == (5, 3)
    assert (tuples[:, :2] == (0, 3)).all()


def test_bpr_negative_is_forced_with_two_items():
    store = InteractionStore(1, 2, {"train": [(0, 0)]})
    tuples = sample_bpr_tuples(store, 5, np.random.default_rng(0))
    np.testing.assert_array_equal(tuples[:, 2], [1] * 5)


def test_bpr_negatives_never_hit_train_positives():
    rng = np.random.default_rng(14)
    store = synth.random_store(rng, n_users=6, n_items=9, per_user=4)
    for u, _, neg in sample_bpr_tuples(store, 5, rng):
        assert neg not in store.positive_list(u, "train")


def test_bpr_negatives_distinct_when_pool_allows():
    store = InteractionStore(1, 20, {"train": [(0, 0)]})
    tuples = sample_bpr_tuples(store, 5, np.random.default_rng(1))
    negs = [t[2] for t in tuples]
    assert len(set(negs)) == 5


def test_bpr_skips_user_owning_every_item():
    store = InteractionStore(1, 2, {"train": [(0, 0), (0, 1)]})
    with pytest.warns(UserWarning, match="every item"):
        tuples = sample_bpr_tuples(store, 5, np.random.default_rng(0))
    assert tuples.dtype == np.int64 and tuples.shape == (0, 3)


def test_bpr_negatives_are_uniform_over_the_user_complement():
    # user 0 holds 6 of 30 items; user 1's items lie in user 0's pool, so a
    # draw that read the wrong row would miss or skip them
    held = [1, 4, 5, 11, 20, 29]
    store = InteractionStore(2, 30, {"train": [(0, i) for i in held] + [(1, 3), (1, 8)]})
    complement = [i for i in range(30) if i not in held]
    rng = np.random.default_rng(32)
    # one negative per pair: each draw is uniform over the complement
    counts = collections.Counter(neg for _ in range(600)
                                 for u, _, neg in sample_bpr_tuples(store, 1, rng) if u == 0)
    assert sorted(counts) == complement
    _assert_uniform_chi2([counts[i] for i in complement])
    # five per pair: a uniform 5-subset of the complement
    calls, counts = 400, collections.Counter()
    for _ in range(calls):
        tuples = [t for t in sample_bpr_tuples(store, 5, rng) if t[0] == 0]
        for j in range(0, len(tuples), 5):
            negs = [t[2] for t in tuples[j:j + 5]]
            assert len(set(negs)) == 5 and len({t[1] for t in tuples[j:j + 5]}) == 1
            counts.update(negs)
    assert sorted(counts) == complement
    _assert_inclusion_chi2([counts[i] for i in complement], calls * len(held), 5 / 24)


def test_samplers_keep_their_rows_and_draws():
    # literal rows pin the draw order and the row order of both samplers
    store = InteractionStore(3, 8, {"train": [(2, 5), (0, 4), (1, 0), (0, 1), (2, 2), (2, 6)]})
    tuples = sample_bpr_tuples(store, 2, np.random.default_rng(3))
    assert tuples.dtype == np.int64
    np.testing.assert_array_equal(tuples, [
        (0, 1, 6), (0, 1, 7), (0, 4, 0), (0, 4, 5), (1, 0, 2), (1, 0, 1),
        (2, 2, 0), (2, 2, 7), (2, 5, 0), (2, 5, 1), (2, 6, 4), (2, 6, 3)])
    kg = KnowledgeGraph(7, 2, [(3, 0, 4), (0, 0, 1), (1, 1, 2), (2, 0, 0), (0, 0, 1), (5, 1, 3)])
    quads = sample_kg_negatives(kg, np.random.default_rng(3))
    assert quads.dtype == np.int64
    np.testing.assert_array_equal(quads, [
        (3, 0, 4, 6), (0, 0, 1, 3), (1, 1, 2, 3), (2, 0, 0, 3), (5, 1, 3, 0)])


def test_bpr_short_pool_draws_only_from_the_complement():
    # user 0 holds 28 of 30 items; 2 remain for n_neg = 5, drawn with replacement
    store = InteractionStore(1, 30, {"train": [(0, i) for i in range(30) if i not in (6, 17)]})
    rng = np.random.default_rng(33)
    negs = np.array([t[2] for _ in range(50) for t in sample_bpr_tuples(store, 5, rng)])
    negs = negs.reshape(-1, 5)       # one row per (user, positive) pair
    assert set(negs.ravel().tolist()) == {6, 17}
    for slot in range(5):
        _assert_uniform_chi2([(negs[:, slot] == i).sum() for i in (6, 17)])


# ---------------------------------------------------------------------------
# graph negatives
# ---------------------------------------------------------------------------


def test_kg_negative_constraints_exhaustively():
    rng = np.random.default_rng(15)
    for _ in range(20):
        kg = synth.random_kg(rng)
        quads = sample_kg_negatives(kg, rng)
        assert len(quads) <= len(kg.triples)
        for h, r, t, neg in quads:
            assert neg != h
            assert not synth.is_neighbor(kg, h, neg)


def test_kg_negatives_cover_every_triple_when_possible():
    kg = KnowledgeGraph(5, 1, [Triple(0, 0, 1), Triple(2, 0, 3)])
    quads = sample_kg_negatives(kg, np.random.default_rng(0))
    assert quads.dtype == np.int64 and quads.shape == (2, 4)


def test_kg_negative_small_candidate_pool():
    # head 0 is adjacent to 1 and 2; only 3 and 4 remain
    kg = KnowledgeGraph(5, 1, [Triple(0, 0, 1), Triple(0, 0, 2)])
    rng = np.random.default_rng(0)
    for _ in range(50):
        for _, _, _, neg in sample_kg_negatives(kg, rng):
            assert neg in (3, 4)


def test_kg_negative_skips_fully_connected_head():
    triples = [Triple(0, 0, 1), Triple(0, 0, 2), Triple(1, 0, 2)]
    kg = KnowledgeGraph(3, 1, triples)
    with pytest.warns(UserWarning, match="neighbors every entity"):
        quads = sample_kg_negatives(kg, np.random.default_rng(0))
    assert all(h != 0 for h, _, _, _ in quads)


def test_closed_neighborhood_keys_are_built_once_on_first_use():
    kg = KnowledgeGraph(5, 1, [(0, 0, 1), (3, 0, 3)])
    assert "closed_neighborhood_keys" not in vars(kg)
    first = sample_kg_negatives(kg, np.random.default_rng(4))
    keys = kg.closed_neighborhood_keys
    assert keys.tolist() == [0, 1, 5, 6, 12, 18, 24]
    np.testing.assert_array_equal(sample_kg_negatives(kg, np.random.default_rng(4)), first)
    assert kg.closed_neighborhood_keys is keys


def test_kg_negatives_are_uniform_over_the_closed_neighborhood_complement():
    # head 0 links to 1, 2 and 7; head 3 has a self-loop and links to 4; head
    # 7 links to 0
    triples = [(0, 0, 1), (0, 1, 2), (7, 0, 0), (3, 1, 3), (3, 0, 4)]
    kg = KnowledgeGraph(12, 2, triples)
    counts = collections.defaultdict(collections.Counter)
    rng = np.random.default_rng(35)
    for _ in range(2000):
        for h, r, t, neg in sample_kg_negatives(kg, rng):
            assert (h, r, t) in triples
            counts[h][neg] += 1
    for h in (0, 3, 7):
        closed = {h} | {b for a, _, b in triples if a == h} | {a for a, _, b in triples if b == h}
        complement = [e for e in range(12) if e not in closed]
        assert sorted(counts[h]) == complement
        _assert_uniform_chi2([counts[h][e] for e in complement])


# ---------------------------------------------------------------------------
# history sampling
# ---------------------------------------------------------------------------


def test_history_distinct_and_excludes_target():
    pairs = [(0, i) for i in range(20)]
    store = InteractionStore(1, 20, {"train": pairs})
    items, _ = sample_history(store, [0], exclude=[7], size=16, rng=np.random.default_rng(0))
    got = items[0].tolist()
    assert len(got) == 16
    assert len(set(got)) == 16
    assert 7 not in got


def test_history_with_replacement_when_pool_short():
    store = InteractionStore(1, 20, {"train": [(0, 1), (0, 2), (0, 3)]})
    items, _ = sample_history(store, [0], exclude=None, size=16, rng=np.random.default_rng(0))
    got = items[0].tolist()
    assert len(got) == 16
    assert set(got) <= {1, 2, 3}


def test_history_empty_pool_returns_marker():
    store = InteractionStore(2, 5, {"train": [(0, 1)]})
    for users, exclude in (([1], None), ([0], [1])):
        items, nonempty = sample_history(store, users, exclude, 4, np.random.default_rng(0))
        assert nonempty.tolist() == [False]
        assert items.tolist() == [[0, 0, 0, 0]]


def test_history_inclusion_frequencies_match_size_over_pool():
    # user 0 holds 40 train items, excluding a different one of them per row;
    # user 1's target is no train item; user 2 holds fewer items than N;
    # user 3 holds none
    items0 = list(range(0, 80, 2))
    pairs = [(0, i) for i in items0] + [(1, i) for i in range(20, 60)] \
        + [(2, 5), (2, 9), (2, 77)]
    store = InteractionStore(4, 80, {"train": pairs})
    rows, n = 4000, 16
    users = np.tile([0, 1, 2, 3], rows)
    targets = np.tile([0, 1, 5, 0], rows)
    targets[users == 0] = np.resize(items0, rows)
    got, nonempty = sample_history(store, users, targets, n, np.random.default_rng(94))
    assert got.shape == (4 * rows, n)
    assert nonempty.tolist() == [True, True, True, False] * rows
    assert (got[users == 3] == 0).all()

    mine = got[users == 0]
    for row, target in zip(mine, targets[users == 0]):
        assert target not in row and len(set(row.tolist())) == n
        assert set(row.tolist()) <= set(items0)
    counts = collections.Counter(mine.ravel().tolist())
    # each item is excluded in rows / 40 rows and drawn with p = N / 39 in the rest
    _assert_inclusion_chi2([counts[i] for i in items0], rows - rows // 40, n / 39)

    counts = collections.Counter(got[users == 1].ravel().tolist())
    assert sorted(counts) == list(range(20, 60))
    _assert_inclusion_chi2([counts[i] for i in range(20, 60)], rows, n / 40)

    # two items remain after excluding 5, drawn with replacement
    short = got[users == 2]
    assert set(short.ravel().tolist()) == {9, 77}
    for slot in range(n):
        _assert_uniform_chi2([(short[:, slot] == i).sum() for i in (9, 77)])
