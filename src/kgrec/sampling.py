"""Stochastic set construction: fixed-size neighbor samples, biased random
walks with frequency-ranked contexts, ranking/graph negative sampling, and
history sampling.

Every function is a deterministic function of its inputs and the generator
state.  Named sub-streams derived from one root seed keep the components
independently reproducible.
"""

from __future__ import annotations

import multiprocessing
import struct
import warnings
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .graph import InputError, InteractionStore, KnowledgeGraph


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named purpose under a single root seed."""
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


@dataclass(frozen=True)
class WalkConfig:
    """Biased-walk parameters: return bias gamma, walk count, length, context size."""

    gamma: float = 0.2
    num_walks: int = 15
    walk_length: int = 8
    context_size: int = 4

    def __post_init__(self):
        if not 0.0 < self.gamma < 0.5:
            raise InputError(f"gamma must be in (0, 0.5), got {self.gamma}")
        if min(self.num_walks, self.walk_length, self.context_size) < 1:
            raise InputError("num_walks, walk_length and context_size must be >= 1")


def _uniform_slots(pool: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """(n, size) positions into n pools of the given sizes.

    Row i is a uniform ``size``-subset of range(pool[i]) when the pool is that
    large, drawn by Floyd's algorithm with one ``integers`` call per slot over
    all such rows; ``size`` uniform positions with replacement when
    0 < pool[i] < size, from one call over those rows; and 0 for an empty
    pool, which the caller masks.
    """
    pool = np.asarray(pool, dtype=np.int64)
    slots = np.zeros((len(pool), size), dtype=np.int64)
    short = (pool > 0) & (pool < size)
    slots[short] = rng.integers(0, pool[short, None], size=(int(short.sum()), size))
    full = pool >= size
    chosen = np.empty((int(full.sum()), size), dtype=np.int64)
    top = pool[full] - size
    for k in range(size):
        # Floyd: draw from 0..top+k; a value already taken yields top+k itself
        pick = rng.integers(0, top + k + 1)
        taken = (chosen[:, :k] == pick[:, None]).any(axis=1)
        chosen[:, k] = np.where(taken, top + k, pick)
    slots[full] = chosen
    return slots


def sample_local_neighbors(kg: KnowledgeGraph, entities, size: int,
                           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``size`` (relation, tail) neighbors of every entity, as (n, size)
    relation and tail arrays.

    Uniform without replacement when an entity has at least ``size``
    neighbors, with replacement otherwise; an isolated entity falls back to
    ``size`` self-loops tagged with the reserved self relation.
    """
    if size < 1:
        raise InputError("size must be >= 1")
    entities = np.asarray(entities, dtype=np.int64).ravel()
    start = kg.edge_offsets[entities]
    degree = kg.edge_offsets[entities + 1] - start
    edges = start[:, None] + _uniform_slots(degree, size, rng)
    rels = np.full((len(entities), size), kg.self_relation, dtype=np.int64)
    tails = np.repeat(entities[:, None], size, axis=1)
    linked = degree > 0
    rels[linked] = kg.edge_relations[edges[linked]]
    tails[linked] = kg.edge_tails[edges[linked]]
    return rels, tails


def walk_step(kg: KnowledgeGraph, prev: int | None, cur: int, gamma: float,
              rng: np.random.Generator) -> int:
    """One biased transition from ``cur``.

    Candidates are the distinct neighbor entities of ``cur``; a candidate
    weighs gamma when it equals the previous entity or neighbors it, and
    1 - gamma otherwise.  Without a previous entity all weights tie, i.e. the
    step is uniform.  An entity with no neighbors stays put.
    """
    candidates = kg.neighbors_of(cur)
    if candidates.size == 0:
        return cur
    if prev is None:
        return int(candidates[rng.integers(0, candidates.size)])
    near_prev = candidates == prev
    prev_neighbors = kg.neighbors_of(prev)
    if prev_neighbors.size:
        # prev_neighbors is sorted, so membership is a binary search per candidate
        at = np.searchsorted(prev_neighbors, candidates).clip(max=prev_neighbors.size - 1)
        near_prev |= prev_neighbors[at] == candidates
    weights = np.where(near_prev, gamma, 1.0 - gamma)
    weights = weights / weights.sum()
    return int(rng.choice(candidates, p=weights))


def run_walks(kg: KnowledgeGraph, root: int, cfg: WalkConfig,
              rng: np.random.Generator) -> list:
    """``num_walks`` paths of ``walk_length`` entities each, roots excluded."""
    paths = []
    for _ in range(cfg.num_walks):
        prev: int | None = None
        cur = root
        path = []
        for _ in range(cfg.walk_length):
            nxt = walk_step(kg, prev, cur, cfg.gamma, rng)
            path.append(nxt)
            prev, cur = cur, nxt
        paths.append(path)
    return paths


def rank_walk_visits(paths, root: int, size: int) -> list:
    """Top visited entities across paths: frequency descending, index ascending.

    The root never appears in its own context.
    """
    counts = Counter()
    for path in paths:
        counts.update(path)
    counts.pop(root, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [entity for entity, _ in ranked[:size]]


def nonlocal_context(kg: KnowledgeGraph, root: int, cfg: WalkConfig,
                     rng: np.random.Generator) -> list:
    return rank_walk_visits(run_walks(kg, root, cfg, rng), root, cfg.context_size)


# ---------------------------------------------------------------------------
# precomputed walk cache
# ---------------------------------------------------------------------------

_CACHE_MAGIC = b"KGWC"
_CACHE_VERSION = 1
_CACHE_HEADER = "<IIIQdII"


def reverse_pad(contexts, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``width`` ids of every context in reverse order (least
    frequent first), 0-padded to an (n, width) array, and its mask: 1.0 where
    the array holds a real id."""
    lengths = np.array([min(len(ctx), width) for ctx in contexts], dtype=np.int64)
    flat = np.concatenate([np.asarray(ctx, dtype=np.int64)[:width] for ctx in contexts]
                          + [np.zeros(0, dtype=np.int64)])
    mask = np.arange(width) < lengths[:, None]
    # column j of row i holds id lengths[i] - 1 - j of that row's context
    ends = np.cumsum(lengths) - 1
    ctx_rev = np.zeros((len(lengths), width), dtype=np.int64)
    ctx_rev[mask] = flat[(ends[:, None] - np.arange(width))[mask]]
    return ctx_rev, mask.astype(np.float64)


@dataclass
class WalkCache:
    """Frozen per-item walk contexts, ordered most-frequent first."""

    contexts: list
    context_size: int
    seed: int
    gamma: float
    num_walks: int
    walk_length: int

    @property
    def item_count(self) -> int:
        return len(self.contexts)

    def context(self, item: int) -> np.ndarray:
        return self.contexts[item]

    @cached_property
    def padded_contexts(self) -> tuple[np.ndarray, np.ndarray]:
        """``reverse_pad`` of every item's context at ``context_size``, as (I, C)
        id and mask arrays; built on first use and kept."""
        return reverse_pad(self.contexts, self.context_size)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack(_CACHE_HEADER, _CACHE_VERSION, self.item_count,
                                 self.context_size, self.seed, self.gamma,
                                 self.num_walks, self.walk_length))
            for item, ctx in enumerate(self.contexts):
                fh.write(struct.pack("<II", item, len(ctx)))
                fh.write(np.asarray(ctx, dtype="<u4").tobytes())

    @classmethod
    def load(cls, path) -> "WalkCache":
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != _CACHE_MAGIC:
            raise InputError(f"{path}: not a walk cache file")
        body = 4 + struct.calcsize(_CACHE_HEADER)
        try:
            version, item_count, context_size, seed, gamma, num_walks, \
                walk_length = struct.unpack(_CACHE_HEADER, data[4:body])
        except struct.error as exc:
            raise InputError(f"{path}: cache file is corrupt: {exc}") from None
        if version != _CACHE_VERSION:
            raise InputError(f"{path}: unsupported cache version {version}")
        # the body is item_count (item, length) records of little-endian u32
        # words, each followed by its context; bytes past the last record are
        # not read, and a count the body cannot hold sizes no list
        words = np.frombuffer(data, dtype="<u4", count=(len(data) - body) // 4, offset=body)
        listed = words.tolist()
        end = len(listed)
        if 2 * item_count > end:
            raise InputError(f"{path}: cache file is corrupt")
        starts = [None] * item_count
        at = 0
        for _ in range(item_count):
            if at + 2 > end:
                raise InputError(f"{path}: cache file is corrupt")
            item, length = listed[at], listed[at + 1]
            at += 2
            if item >= item_count or at + length > end:
                raise InputError(f"{path}: cache file is corrupt")
            starts[item] = at
            at += length
        if None in starts:
            raise InputError(f"{path}: cache is missing items")
        # the word before each context is its length
        flat = words.astype(np.int64)
        contexts = [flat[a:a + listed[a - 1]] for a in starts]
        return cls(contexts, context_size, seed, gamma, num_walks, walk_length)


def _cache_entry(item: int, kg: KnowledgeGraph, item_entities, cfg: WalkConfig,
                 seed: int) -> np.ndarray:
    # one generator per item (seed xor item) so parallel builds are bit-identical
    rng = np.random.default_rng(seed ^ item)
    ctx = nonlocal_context(kg, int(item_entities[item]), cfg, rng)
    return np.asarray(ctx, dtype=np.int64)


def build_walk_cache(kg: KnowledgeGraph, item_entities, cfg: WalkConfig,
                     seed: int, workers: int = 1) -> WalkCache:
    items = list(range(len(item_entities)))
    worker = partial(_cache_entry, kg=kg, item_entities=item_entities, cfg=cfg, seed=seed)
    if workers > 1:
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, len(items) // (workers * 4))
        with ctx.Pool(workers) as pool:
            contexts = pool.map(worker, items, chunksize=chunk)
    else:
        contexts = [worker(item) for item in items]
    return WalkCache(contexts, cfg.context_size, seed, cfg.gamma,
                     cfg.num_walks, cfg.walk_length)


# ---------------------------------------------------------------------------
# negative and history sampling
# ---------------------------------------------------------------------------


def _draw_outside(keys: np.ndarray, owners, count: int, size: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``size`` ids per owner, uniform over range(count) minus the ids that
    ``keys`` (sorted distinct ``owner * count + id``) hold for that owner, as
    an (n, size) array, and the (n,) pool sizes.

    Distinct when the pool has ``size`` members, with replacement when it is
    shorter (``_uniform_slots``); a row with an empty pool holds junk.
    """
    owners = np.asarray(owners, dtype=np.int64)
    starts = np.searchsorted(keys, owners * count)
    pool = count - (np.searchsorted(keys, (owners + 1) * count) - starts)
    # owner o's k-th free key has o * count - starts[o] + k free keys below
    # it, and keys[j] has keys[j] - j: one search turns a rank into a key
    ranks = _uniform_slots(pool, size, rng) + (owners * count - starts)[:, None]
    ranks += np.searchsorted(keys - np.arange(len(keys)), ranks, side="right")
    return ranks - owners[:, None] * count, pool


def sample_bpr_tuples(store: InteractionStore, n_neg: int,
                      rng: np.random.Generator) -> np.ndarray:
    """(n, 3) int64 (user, positive, negative) rows: ``n_neg`` negatives per
    train pair, pairs in (user, item) order.

    Negatives are uniform over items outside the user's train positives,
    distinct within one pair's draw when the pool has ``n_neg`` items and
    drawn with replacement when it is shorter.
    """
    users = np.repeat(np.arange(store.user_count), np.diff(store.train_offsets))
    negatives, pool = _draw_outside(users * store.item_count + store.train_items, users,
                                    store.item_count, n_neg, rng)
    for u in np.unique(users[pool == 0]):
        warnings.warn(f"user {u} interacts with every item; skipped in sampling")
    kept = pool > 0
    return np.column_stack([np.repeat(users[kept], n_neg),
                            np.repeat(store.train_items[kept], n_neg),
                            negatives[kept].ravel()])


def sample_kg_negatives(kg: KnowledgeGraph, rng: np.random.Generator) -> np.ndarray:
    """One corrupted tail per original triple, as (n, 4) int64 (head,
    relation, tail, corrupt) rows in triple order.

    The corrupt tail is uniform over entities that are neither the head nor
    any neighbor of the head.
    """
    triples = kg.triple_table
    corrupt, pool = _draw_outside(kg.closed_neighborhood_keys, triples[:, 0],
                                  kg.entity_count, 1, rng)
    for h in np.unique(triples[pool == 0, 0]):
        warnings.warn(f"entity {h} neighbors every entity; triple skipped")
    kept = pool > 0
    return np.column_stack([triples[kept], corrupt[kept, 0]])


def sample_history(store: InteractionStore, users, exclude, size: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``size`` items per user from their train positives, minus that row's
    target item; returns the (n, size) items and the (n,) mask of rows whose
    pool is not empty.

    ``exclude`` holds each row's target item, or is None for none.  Without
    replacement when the pool is large enough, with replacement otherwise.
    A row with an empty pool holds item 0 and a False mask, which the model
    treats as a zero history context.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    start = store.train_offsets[users]
    pool = store.train_offsets[users + 1] - start
    at, found = np.zeros(len(users), dtype=np.int64), np.zeros(len(users), dtype=bool)
    if exclude is not None:
        at, found = store.train_position(users, np.ravel(exclude))
        pool = pool - found
    slots = _uniform_slots(pool, size, rng)
    # a slot at or past the target's position reads the item after it
    slots += found[:, None] & (slots >= (at - start)[:, None])
    nonempty = pool > 0
    items = np.zeros((len(users), size), dtype=np.int64)
    items[nonempty] = store.train_items[start[nonempty, None] + slots[nonempty]]
    return items, nonempty
