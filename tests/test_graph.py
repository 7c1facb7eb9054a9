"""Ingestion, indexing and splitting tests for the data model."""

import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgrec.graph import (IdMaps, InputError, InteractionStore, KnowledgeGraph,
                         Triple, dataset_stats, load_dataset,
                         load_interactions, load_kg, read_artifact, save_dataset,
                         split_counts, split_interactions, write_artifact)

import synth

LASTFM_DIR = os.environ.get("KGREC_LASTFM_DIR", "")


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------


def test_threshold_is_strict(tmp_path):
    path = _write(tmp_path / "r.tsv", "u1\ti1\t5\nu2\ti2\t4\nu3\ti3\t3\n")
    store, maps = load_interactions(path, threshold=4)
    assert store.interaction_count() == 1
    assert maps.raw("user", 0) == "u1" and maps.raw("item", 0) == "i1"


def test_no_threshold_keeps_everything(tmp_path):
    path = _write(tmp_path / "r.tsv", "u1\ti1\t5\nu2\ti2\t1\n")
    store, _ = load_interactions(path)
    assert store.interaction_count() == 2


def test_duplicate_pairs_collapse(tmp_path):
    path = _write(tmp_path / "r.tsv", "u1\ti1\t5\nu1\ti1\t3\nu1\ti1\t5\n")
    store, _ = load_interactions(path)
    assert store.interaction_count() == 1


def test_first_appearance_indexing(tmp_path):
    path = _write(tmp_path / "r.tsv", "bob\tx\t1\nann\ty\t1\nbob\tz\t1\n")
    _, maps = load_interactions(path)
    assert [maps.raw("user", i) for i in range(2)] == ["bob", "ann"]
    assert [maps.raw("item", i) for i in range(3)] == ["x", "y", "z"]


def test_comments_and_blank_lines_ignored(tmp_path):
    path = _write(tmp_path / "r.tsv", "# header\n\nu1\ti1\t5\n")
    store, _ = load_interactions(path)
    assert store.interaction_count() == 1


def test_malformed_line_reports_line_number(tmp_path):
    path = _write(tmp_path / "r.tsv", "u1\ti1\t5\nu2 i2 5\n")
    with pytest.raises(InputError, match=":2"):
        load_interactions(path)


def test_text_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_bytes(b"u1\ti1\t5\n\xff\xfe\ti2\t5\n")
    with pytest.raises(InputError, match="not UTF-8 text"):
        load_interactions(str(path))


def test_non_numeric_rating_reports_line_number(tmp_path):
    path = _write(tmp_path / "r.tsv", "u1\ti1\tbad\n")
    with pytest.raises(InputError, match=":1"):
        load_interactions(path)


def test_empty_result_is_an_error(tmp_path):
    path = _write(tmp_path / "r.tsv", "u1\ti1\t2\n")
    with pytest.raises(InputError, match="no interactions"):
        load_interactions(path, threshold=4)


@pytest.mark.skipif(not LASTFM_DIR, reason="set KGREC_LASTFM_DIR to run")
def test_lastfm_interaction_statistics():
    store, _ = load_interactions(os.path.join(LASTFM_DIR, "ratings.tsv"))
    assert store.user_count == 1872
    assert store.item_count == 3846
    assert store.interaction_count() == 21173


# ---------------------------------------------------------------------------
# knowledge graph
# ---------------------------------------------------------------------------


def _load_single_triple(tmp_path):
    ratings = _write(tmp_path / "r.tsv", "u1\titem_a\t5\n")
    store, maps = load_interactions(ratings)
    kg_file = _write(tmp_path / "kg.tsv", "a\tr\tb\n")
    item_map = _write(tmp_path / "map.tsv", "item_a\ta\n")
    kg, item_entities = load_kg(kg_file, item_map, maps)
    return kg, item_entities, maps


def test_single_triple_builds_symmetric_adjacency(tmp_path):
    kg, item_entities, maps = _load_single_triple(tmp_path)
    a, b = maps.dense("entity", "a"), maps.dense("entity", "b")
    r = maps.dense("relation", "r")
    assert _edge_row(kg, a) == [(r, b)]
    assert _edge_row(kg, b) == [(kg.inverse(r), a)]
    assert kg.relation_count == 2
    assert item_entities.tolist() == [a]


def test_repeated_triples_stored_once():
    kg = KnowledgeGraph(2, 1, [Triple(0, 0, 1), Triple(0, 0, 1)])
    assert len(kg.triples) == 1
    assert _edge_row(kg, 0) == [(0, 1)]


def test_self_relation_is_reserved_past_inverses():
    kg = KnowledgeGraph(2, 3, [Triple(0, 2, 1)])
    assert kg.self_relation == 6
    assert kg.relation_embedding_count == 7


def test_item_mapped_to_unknown_entity_is_error(tmp_path):
    ratings = _write(tmp_path / "r.tsv", "u1\ti1\t5\n")
    _, maps = load_interactions(ratings)
    kg_file = _write(tmp_path / "kg.tsv", "a\tr\tb\n")
    item_map = _write(tmp_path / "map.tsv", "i1\tmissing\n")
    with pytest.raises(InputError, match="unknown entity"):
        load_kg(kg_file, item_map, maps)


def test_item_mapped_twice_is_error(tmp_path):
    ratings = _write(tmp_path / "r.tsv", "u1\ti1\t5\n")
    _, maps = load_interactions(ratings)
    kg_file = _write(tmp_path / "kg.tsv", "a\tr\tb\n")
    item_map = _write(tmp_path / "map.tsv", "i1\ta\ni1\tb\n")
    with pytest.raises(InputError, match="more than once"):
        load_kg(kg_file, item_map, maps)


def test_unmapped_item_is_error(tmp_path):
    ratings = _write(tmp_path / "r.tsv", "u1\ti1\t5\nu1\ti2\t5\n")
    _, maps = load_interactions(ratings)
    kg_file = _write(tmp_path / "kg.tsv", "a\tr\tb\n")
    item_map = _write(tmp_path / "map.tsv", "i1\ta\n")
    with pytest.raises(InputError, match="without an entity"):
        load_kg(kg_file, item_map, maps)


def test_two_items_sharing_an_entity_is_error(tmp_path):
    ratings = _write(tmp_path / "r.tsv", "u1\ti1\t5\nu1\ti2\t5\n")
    _, maps = load_interactions(ratings)
    kg_file = _write(tmp_path / "kg.tsv", "a\tr\tb\n")
    item_map = _write(tmp_path / "map.tsv", "i1\ta\ni2\ta\n")
    with pytest.raises(InputError, match="shared"):
        load_kg(kg_file, item_map, maps)


def test_item_map_rows_for_unknown_items_are_ignored(tmp_path):
    ratings = _write(tmp_path / "r.tsv", "u1\ti1\t5\n")
    _, maps = load_interactions(ratings)
    kg_file = _write(tmp_path / "kg.tsv", "a\tr\tb\n")
    item_map = _write(tmp_path / "map.tsv", "i1\ta\nother\tb\n")
    kg, item_entities = load_kg(kg_file, item_map, maps)
    assert len(item_entities) == 1


@pytest.mark.skipif(not LASTFM_DIR, reason="set KGREC_LASTFM_DIR to run")
def test_lastfm_kg_statistics():
    store, maps = load_interactions(os.path.join(LASTFM_DIR, "ratings.tsv"))
    kg, _ = load_kg(os.path.join(LASTFM_DIR, "kg.tsv"),
                    os.path.join(LASTFM_DIR, "item_map.tsv"), maps)
    assert kg.entity_count == 9366
    assert kg.original_relation_count == 60
    assert len(kg.triples) == 15518


# ---------------------------------------------------------------------------
# local context
# ---------------------------------------------------------------------------


def _edge_row(kg, entity):
    """The (relation, tail) pairs of ``entity``'s row of the edge CSR arrays."""
    a, b = kg.edge_offsets[entity], kg.edge_offsets[entity + 1]
    return list(zip(kg.edge_relations[a:b].tolist(), kg.edge_tails[a:b].tolist()))


def test_local_context_on_chain():
    kg = synth.chain_kg()
    assert _edge_row(kg, 1) == [(0, 2), (kg.inverse(0), 0)]


def test_local_context_isolated_entity():
    kg = KnowledgeGraph(3, 1, [Triple(0, 0, 1)])
    assert _edge_row(kg, 2) == []


def test_local_context_star_center():
    kg = synth.star_kg(5)
    assert len(_edge_row(kg, 0)) == 5


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 7)),
                min_size=1, max_size=30))
def test_bidirectional_closure(raw_triples):
    kg = KnowledgeGraph(8, 3, [Triple(*t) for t in raw_triples])
    for h in range(8):
        for t in synth.neighbors_of(kg, h):
            assert synth.is_neighbor(kg, int(t), h)
            assert synth.is_neighbor(kg, h, int(t))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 7)),
                max_size=30))
def test_edge_rows_match_brute_force(raw_triples):
    kg = KnowledgeGraph(8, 3, raw_triples)
    for entity in range(8):
        assert _edge_row(kg, entity) == synth.local_context(kg, entity)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 7)),
                max_size=30))
def test_is_neighbor_matches_brute_force(raw_triples):
    kg = KnowledgeGraph(8, 3, raw_triples)
    linked = {(h, t) for h, _, t in raw_triples} | {(t, h) for h, _, t in raw_triples}
    for a in range(8):
        for b in range(8):
            assert synth.is_neighbor(kg, a, b) == ((a, b) in linked)


def _lexsort_tables(entity_count, relation_count, triples):
    """The graph's tables built with one lexsort per order, as a reference."""
    table = np.array(triples, dtype=np.int64).reshape(-1, 3)
    h, r, t = table.T
    order = np.lexsort((t, r, h))
    h_s, r_s, t_s = h[order], r[order], t[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (np.diff(h_s) != 0) | (np.diff(r_s) != 0) | (np.diff(t_s) != 0)
    kept = np.sort(order[starts])
    h, r, t = h[kept], r[kept], t[kept]
    heads = np.concatenate([h, t])
    rels = np.concatenate([r, r + relation_count])
    tails = np.concatenate([t, h])
    order = np.lexsort((tails, rels, heads))
    order2 = np.lexsort((tails, heads))
    n_heads, n_tails = heads[order2], tails[order2]
    distinct = np.ones(len(order2), dtype=bool)
    distinct[1:] = (np.diff(n_heads) != 0) | (np.diff(n_tails) != 0)
    return {
        "triple_table": table[kept],
        "edge_offsets": _csr_offsets(heads, entity_count),
        "edge_relations": rels[order],
        "edge_tails": tails[order],
        "neighbor_offsets": _csr_offsets(n_heads[distinct], entity_count),
        "neighbor_entities": n_tails[distinct],
    }


def _csr_offsets(heads, entity_count):
    return np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=entity_count))])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(1, 3), st.data())
def test_tables_equal_the_lexsort_reference(entity_count, relation_count, data):
    # small id ranges make duplicates, self-loops and both edge directions common
    triple = st.tuples(st.integers(0, entity_count - 1), st.integers(0, relation_count - 1),
                       st.integers(0, entity_count - 1))
    triples = data.draw(st.lists(triple, max_size=40))
    triples += data.draw(st.lists(st.sampled_from(triples), max_size=10)) if triples else []
    kg = KnowledgeGraph(entity_count, relation_count, triples)
    want = _lexsort_tables(entity_count, relation_count, triples)
    for name in ("triple_table", "edge_offsets", "edge_relations", "edge_tails",
                 "neighbor_offsets", "neighbor_entities"):
        got = getattr(kg, name)
        assert got.dtype == np.int64, name
        np.testing.assert_array_equal(got, want[name].reshape(got.shape), err_msg=name)


def test_graph_too_large_to_index_is_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="too large"):
            KnowledgeGraph(3_000_000_000, 60, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_triples_equal_plain_tuples():
    kg = KnowledgeGraph(3, 1, [(0, 0, 1), Triple(1, 0, 2), (0, 0, 1)])
    assert kg.triples == [Triple(0, 0, 1), Triple(1, 0, 2)] == [(0, 0, 1), (1, 0, 2)]
    assert kg.triples[0].tail == 1 and hash(kg.triples[0]) == hash((0, 0, 1))


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_counts_examples():
    assert split_counts(10, (0.6, 0.2, 0.2)) == (6, 2, 2)
    # floor, floor, remainder at the documented corpus size
    assert split_counts(21173, (0.6, 0.2, 0.2)) == (12703, 4235, 4235)


def test_split_sizes_and_determinism():
    pairs = [(u, i) for u in range(2) for i in range(5)]
    store = InteractionStore.unsplit(pairs, 2, 5)
    a = split_interactions(store, (0.6, 0.2, 0.2), seed=9)
    b = split_interactions(store, (0.6, 0.2, 0.2), seed=9)
    assert [len(a.pairs(s)) for s in ("train", "valid", "test")] == [6, 2, 2]
    for s in ("train", "valid", "test"):
        assert a.pairs(s) == b.pairs(s)


def test_split_ratios_must_sum_to_one():
    store = InteractionStore.unsplit([(0, 0)], 1, 1)
    with pytest.raises(InputError):
        split_interactions(store, (0.5, 0.2, 0.2), seed=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_split_partitions_all_interactions(n, seed):
    pairs = [(j % 7, j) for j in range(n)]
    store = InteractionStore.unsplit(pairs, 7, n)
    split = split_interactions(store, (0.6, 0.2, 0.2), seed=seed)
    rebuilt = sorted(p for s in ("train", "valid", "test") for p in split.pairs(s))
    assert rebuilt == sorted(pairs)
    sizes = [len(split.pairs(s)) for s in ("train", "valid", "test")]
    assert sum(sizes) == n


def test_store_rejects_interaction_in_two_splits():
    with pytest.raises(InputError, match="two splits"):
        InteractionStore(1, 2, {"train": [(0, 0)], "valid": [(0, 0)]})


def test_rows_of_the_wrong_width_are_input_errors():
    with pytest.raises(InputError, match="row 0"):
        InteractionStore(2, 3, {"train": [(0, 1, 2), (1, 0)]})
    with pytest.raises(InputError, match="row 1"):
        InteractionStore(2, 3, {"train": [(0, 1), (1,)]})
    with pytest.raises(InputError, match="shape"):
        InteractionStore(2, 3, {"train": np.array([[0, 1, 2], [1, 0, 0]])})
    with pytest.raises(InputError, match="shape"):
        KnowledgeGraph(3, 1, np.array([[0, 0, 1, 2]]))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_id_maps_round_trip(tmp_path):
    maps = IdMaps()
    assert maps.intern("user", ["alpha", "beta", "alpha"]).tolist() == [0, 1, 0]
    assert maps.intern("user", iter(["gamma", "beta"])).tolist() == [2, 1]
    maps.intern("entity", ["e0"])
    path = tmp_path / "ids.tsv"
    maps.save(path)
    loaded = IdMaps.load(path)
    assert loaded.dense("user", "beta") == 1
    assert loaded.raw("entity", 0) == "e0"
    assert loaded.count("item") == 0


@pytest.mark.parametrize("text, lineno, message", [
    ("user\ta\t0\nuser\tb\n", 2, "expected 3 tab-separated fields, got 2"),
    ("user\ta\t0\nuser\tb\t1\textra\n", 2, "expected 3 tab-separated fields, got 4"),
    ("user\ta\t0\nplace\tb\t0\n", 2, "unknown namespace 'place'"),
    ("user\ta\t0\nuser\tb\t2\n", 2, "non-contiguous index for 'b'"),
    ("item\ta\t0\nitem\tb\t1\nitem\ta\t2\n", 3, "non-contiguous index for 'a'"),
    # comment, blank and whitespace lines are skipped but keep their numbers
    ("# ns\traw\tindex\n\nuser\ta\t0\n \t \n\t\t\n#user\tb\t1\nuser\tb\t5\n", 7,
     "non-contiguous index for 'b'"),
])
def test_id_maps_load_names_the_first_bad_line(tmp_path, text, lineno, message):
    path = _write(tmp_path / "ids.tsv", text)
    with pytest.raises(InputError) as err:
        IdMaps.load(path)
    assert str(err.value) == f"{path}:{lineno}: {message}"


def test_id_maps_load_skips_comment_and_blank_lines(tmp_path):
    path = _write(tmp_path / "ids.tsv", "# ns\traw\tindex\n\nuser\tb\t0\n \n#user\tx\t1\n"
                                        "entity\tb\t0\r\nuser\ta\t1")
    maps = IdMaps.load(path)
    assert [maps.raw("user", j) for j in range(maps.count("user"))] == ["b", "a"]
    assert maps.dense("entity", "b") == 0 and maps.count("item") == 0
    assert not maps.has("user", "x")


def test_dataset_directory_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    kg = synth.random_kg(rng, 10, 2, 20)
    pairs = [(0, 0), (0, 1), (1, 2)]
    store = InteractionStore(2, 3, {"train": pairs[:2], "valid": [], "test": pairs[2:]})
    item_entities = np.array([0, 1, 2])
    maps = IdMaps()
    for ns, count in (("user", 2), ("item", 3), ("entity", 10), ("relation", 2)):
        maps.intern(ns, [f"{ns}{j}" for j in range(count)])
    save_dataset(tmp_path / "ds", store, kg, item_entities, maps)
    store2, kg2, item_entities2, maps2 = load_dataset(tmp_path / "ds")
    assert store2.pairs("train") == store.pairs("train")
    assert store2.pairs("test") == store.pairs("test")
    assert kg2.entity_count == kg.entity_count
    for table in ("edge_offsets", "edge_relations", "edge_tails"):
        np.testing.assert_array_equal(getattr(kg2, table), getattr(kg, table))
    assert item_entities2.tolist() == [0, 1, 2]
    assert maps2.raw("entity", 9) == "entity9"
    stats = dataset_stats(store2, kg2)
    assert stats["interactions"] == 3 and stats["entities"] == 10


def test_empty_split_file_loads_without_a_warning(tmp_path):
    rng = np.random.default_rng(0)
    kg = synth.random_kg(rng, 10, 2, 20)
    store = InteractionStore(2, 3, {"train": [(0, 0), (1, 2)], "test": [(0, 1)]})
    maps = IdMaps()
    for ns, count in (("user", 2), ("item", 3), ("entity", 10), ("relation", 2)):
        maps.intern(ns, [f"{ns}{j}" for j in range(count)])
    save_dataset(tmp_path / "ds", store, kg, np.array([0, 1, 2]), maps)
    assert (tmp_path / "ds" / "valid.tsv").read_text() == ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, *_ = load_dataset(tmp_path / "ds")
    assert loaded.pairs("valid") == [] and loaded.pairs("test") == [(0, 1)]
    assert loaded.positive_list(1, "train") == [2]


@pytest.mark.parametrize("name, text", [
    ("meta.tsv", "users\ttwo\n"),                  # not an integer
    ("meta.tsv", "users\t2\n"),                    # counts missing
    ("item_entities.tsv", "0\t0\n1\t1\n7\t2\n"),   # item out of range
    ("train.tsv", "0\t0\t5\n"),                     # three fields
    ("kg.tsv", "0\tr\t1\n"),                        # not an integer
])
def test_malformed_dataset_directory_is_an_input_error(tmp_path, name, text):
    rng = np.random.default_rng(0)
    kg = synth.random_kg(rng, 10, 2, 20)
    store = InteractionStore(2, 3, {"train": [(0, 0), (1, 2)]})
    maps = IdMaps()
    for ns, count in (("user", 2), ("item", 3), ("entity", 10), ("relation", 2)):
        maps.intern(ns, [f"{ns}{j}" for j in range(count)])
    save_dataset(tmp_path / "ds", store, kg, np.array([0, 1, 2]), maps)
    (tmp_path / "ds" / name).write_text(text)
    with pytest.raises(InputError, match="malformed dataset"):
        load_dataset(tmp_path / "ds")


def test_reingestion_is_bit_identical(tmp_path):
    text = "u2\tj\t5\nu1\tk\t5\nu2\tk\t4\n"
    p1 = _write(tmp_path / "a.tsv", text)
    p2 = _write(tmp_path / "b.tsv", text)
    s1, m1 = load_interactions(p1)
    s2, m2 = load_interactions(p2)
    assert all(s1.pairs(s) == s2.pairs(s) for s in ("train", "valid", "test"))
    assert all(m1.raw("user", j) == m2.raw("user", j) for j in range(2))


# raw ids from small pools, so rows repeat, with numeric-looking, non-ASCII
# and spaced names; and any short text without a tab or line break
_RAW_ITEM = st.sampled_from(["i", "2", "02", "ï", "2.0"])
_RAW_ID = st.one_of(
    st.sampled_from(["a", "1", "01", "1.0", "-2", "é", "日本", "x y", "#"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
            min_size=1, max_size=3))


# a fault drawn into about one file in ten
_ONE_IN_TEN = st.sampled_from([False] * 9 + [True])


def _raw_file(draw, rows, n_fields):
    """Tab-joined rows with comment and blank lines mixed in, maybe one line
    of the wrong field count, LF or CRLF line ends."""
    lines = ["\t".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["# a\tcomment", "", " \t ", "#"])))
    if draw(_ONE_IN_TEN):
        width = draw(st.sampled_from([k for k in (1, 2, 3, 4) if k != n_fields]))
        lines.insert(draw(st.integers(0, len(lines))), "\t".join(["f"] * width))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def _raw_corpus(draw):
    ratings = draw(st.lists(st.tuples(_RAW_ID, _RAW_ITEM, st.sampled_from(
        ["5", "4", "3.5", " 2 ", "1e1", "-1", "nan", "inf"])), min_size=1, max_size=10))
    if draw(_ONE_IN_TEN):
        at = draw(st.integers(0, len(ratings) - 1))
        ratings[at] = (*ratings[at][:2], draw(st.sampled_from(["bad", "", "4,5"])))
    triples = draw(st.lists(st.tuples(_RAW_ID, st.sampled_from(["r", "1", "ü"]), _RAW_ID),
                            min_size=2, max_size=8))
    # items paired with distinct entities of the triples, then perturbed
    items = list(dict.fromkeys(item for _, item, _ in ratings))
    entities = draw(st.permutations(list(dict.fromkeys(e for h, _, t in triples for e in (h, t)))))
    mapping = list(zip(items, entities))
    for fault in draw(st.lists(st.sampled_from(
            ["drop", "twice", "unknown", "absent", "shared"]), max_size=2)):
        if fault == "drop" and mapping:
            mapping.pop(draw(st.integers(0, len(mapping) - 1)))
        elif fault == "twice" and mapping:
            mapping.append((draw(st.sampled_from(mapping))[0], draw(st.sampled_from(entities))))
        elif fault == "unknown":
            mapping.append((draw(st.sampled_from(items)), "no such entity"))
        elif fault == "absent":
            mapping.append(("no such item", draw(st.sampled_from(entities))))
        elif fault == "shared" and len(mapping) > 1:
            mapping[1] = (mapping[1][0], mapping[0][1])
    mapping = draw(st.permutations(mapping))
    return (_raw_file(draw, ratings, 3), _raw_file(draw, triples, 3),
            _raw_file(draw, mapping, 2), draw(st.sampled_from([None, 3.0, 4.0, 4.5])))


def _ingest(load_interactions_fn, load_kg_fn, paths, threshold):
    """Everything ingest returns, or the message of its ``InputError``."""
    try:
        store, maps = load_interactions_fn(paths[0], threshold)
        kg, item_entities = load_kg_fn(paths[1], paths[2], maps)
    except InputError as exc:
        return str(exc)
    return (store.pairs("train"), store.user_count, store.item_count,
            {ns: [maps.raw(ns, j) for j in range(maps.count(ns))]
             for ns in ("user", "item", "entity", "relation")},
            kg.entity_count, kg.original_relation_count, kg.triple_table.tolist(),
            item_entities.dtype, item_entities.tolist())


def test_bulk_ingest_equals_the_per_line_reference(tmp_path):
    paths = [tmp_path / name for name in ("ratings.tsv", "kg.tsv", "item_map.tsv")]
    outcomes = []

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_raw_corpus())
    @example(("u\ti\t5\nu\t2\t5\nv\t02\t5\nv\tï\t5\n", "a\tr\tb\n",
              "i\tb\n2\tb\n02\ta\nï\ta\n", None))  # two shared entities
    @example(("u\ti\t5\nu\t2\t5\n", "a\tr\tb\n", "i\ta\n2\tb\ni\tb\n", None))  # mapped twice
    @example(("u\ti\t5\nu\t2\t5\n", "a\tr\tb\n", "i\tc\n2\tb\n", None))  # unknown entity
    @example(("u\ti\t5\nu\t2\tx\n", "a\tr\tb\n", "i\ta\n2\tb\n", 3.0))  # rating "x"
    # Hypothesis biases its draws with literals of the loaded modules, so no
    # outcome below may rest on draws alone: one example reaches each
    @example(("u\ti\t5\n", "a\tr\tb\n", "i\ta\n", None))  # ok
    @example(("u\ti\n", "a\tr\tb\n", "i\ta\n", None))  # two rating fields
    @example(("u\ti\t5\n", "a\tr\tb\n", "i\ta\tx\n", None))  # three item-map fields
    @example(("u\ti\t3\n", "a\tr\tb\n", "i\ta\n", 4.0))  # every rating below the threshold
    @example(("u\ti\t5\nu\t2\t5\n", "a\tr\tb\n", "i\ta\n", None))  # item "2" unmapped
    def check(corpus):
        *texts, threshold = corpus
        for path, text in zip(paths, texts):
            path.write_bytes(text.encode("utf-8"))
        got = _ingest(load_interactions, load_kg, paths, threshold)
        assert got == _ingest(synth.reference_load_interactions, synth.reference_load_kg,
                              paths, threshold)
        outcomes.append(got if isinstance(got, str) else "ok")

    check()
    # the examples reach success and every kind of refusal
    for kind in ("ok", "expected 3 tab-separated fields", "expected 2 tab-separated",
                 "non-numeric rating", "no interactions retained", "unknown entity",
                 "mapped more than once", "items without an entity", "shared by several"):
        assert any(kind in outcome for outcome in outcomes), kind


def test_positives_match_brute_force_on_every_split():
    rng = np.random.default_rng(42)
    # user 7 has no interaction at all
    keys = rng.choice(7 * 12, size=40, replace=False)
    unsplit = InteractionStore.unsplit([(int(k) // 12, int(k) % 12) for k in keys], 8, 12)
    store = split_interactions(unsplit, seed=5)
    for split in ("train", "valid", "test"):
        for user in range(8):
            expected = {i for u, i in store.pairs(split) if u == user}
            assert store.positive_list(user, split) == sorted(expected)
        users = store.users_in(split)
        assert users.dtype == np.int64
        assert users.tolist() == sorted({u for u, _ in store.pairs(split)})


# ---------------------------------------------------------------------------
# binary artifact container
# ---------------------------------------------------------------------------

class _FileError(InputError):
    pass


def test_artifact_round_trip_is_exact_and_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4)),
              "ids": np.array([7, 0, 2**32 - 1], dtype="<u4"), "none": np.zeros((0, 5)),
              "scalar": np.array(2.5)}
    meta = {"z": 1, "a": 0.1, "flag": True, "name": "x"}
    path, again = tmp_path / "a.bin", tmp_path / "b.bin"
    write_artifact(path, b"TEST", 4, meta, arrays)
    got_meta, got = read_artifact(path, b"TEST", 4, "test", _FileError,
                                  {"z": int, "a": float, "flag": bool})
    assert got_meta == {"z": 1, "a": 0.1, "flag": True} and list(got) == list(arrays)
    for name, a in arrays.items():
        assert got[name].dtype == a.dtype and got[name].shape == a.shape
        np.testing.assert_array_equal(got[name], a)
    # key order does not reach the bytes
    write_artifact(again, b"TEST", 4, dict(reversed(meta.items())), arrays)
    assert again.read_bytes() == path.read_bytes()


def test_artifact_reader_refuses_every_fault_with_the_callers_error(tmp_path):
    path = tmp_path / "a.bin"
    write_artifact(path, b"TEST", 4, {"k": 1}, {"a": np.ones((2, 2))})
    data = path.read_bytes()

    def header(arrays, payload=b"", meta=None):
        return synth.raw_artifact(b"TEST", 4, {"meta": meta or {}, "arrays": arrays}, payload)

    cases = [
        ("not a test file", b"NOPE" + data[4:]),
        ("unsupported test version 5", b"TEST" + struct.pack("<I", 5) + data[8:]),
        # a version is named before anything after it is read
        ("unsupported test version 5", b"TEST" + struct.pack("<I", 5)),
        ("test is truncated", data[:10]),
        ("test is truncated", data[:-1]),
        ("test has bytes past its arrays", data + b"\0"),
        ("header is corrupt", header([["a", "<f4", [1]]], b"\0" * 4)),
        ("header is corrupt", header([["a", "<f8", [1, 1, 1]]], b"\0" * 8)),
        ("header is corrupt", header([["a", "<f8", [-1]]])),
        ("header is corrupt", header([["a", "<f8", [1.0]]], b"\0" * 8)),
        ("header is corrupt", header([["a", "<f8", [1]], ["a", "<f8", [1]]], b"\0" * 16)),
        ("header is corrupt", header([[1, "<f8", [1]]], b"\0" * 8)),
        ("header is corrupt", header([["a", "<f8"]], b"\0" * 8)),
        ("header is corrupt", header({"a": 1})),
        ("header is corrupt", header([], meta=[1])),
        ("header is corrupt", synth.raw_artifact(b"TEST", 4, {"meta": {}, "arrays": [],
                                                              "extra": 0})),
        ("header is corrupt", synth.raw_artifact(b"TEST", 4, b'{"meta": {}')),
        ("header is corrupt", synth.raw_artifact(b"TEST", 4, b"[" * 100_000)),
    ]
    for message, body in cases:
        path.write_bytes(body)
        with pytest.raises(_FileError, match=message):
            read_artifact(path, b"TEST", 4, "test", _FileError, {})


def test_artifact_meta_fields_are_checked_by_kind_and_range(tmp_path):
    path = tmp_path / "a.bin"
    fields = {"n": int, "x": float, "on": bool}
    write_artifact(path, b"TEST", 4, {"on": False, "x": 1, "n": 0, "more": "ok"}, {})
    assert read_artifact(path, b"TEST", 4, "test", _FileError, fields)[0] == {
        "n": 0, "x": 1, "on": False}
    for meta, message in [({"x": 0.5, "on": True}, "field 'n' is None, expected an int >= 0"),
                          ({"n": -1, "x": 0.5, "on": True}, "field 'n' is -1"),
                          ({"n": True, "x": 0.5, "on": True}, "field 'n' is True"),
                          ({"n": 1, "x": False, "on": True}, "field 'x' is False, expected float"),
                          ({"n": 1, "x": "1", "on": True}, "field 'x' is '1', expected float"),
                          ({"n": 1, "x": 0.5, "on": 1}, "field 'on' is 1, expected bool")]:
        write_artifact(path, b"TEST", 4, meta, {})
        with pytest.raises(_FileError, match=message):
            read_artifact(path, b"TEST", 4, "test", _FileError, fields)
