"""Stochastic set construction: fixed-size neighbor samples, biased random
walks with frequency-ranked contexts, ranking/graph negative sampling, and
history sampling.

Every function is a deterministic function of its inputs and the generator
state.  Named sub-streams derived from one root seed keep the components
independently reproducible.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import InputError, InteractionStore, KnowledgeGraph, read_artifact, write_artifact


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


def biased_steps(kg: KnowledgeGraph, prev, cur, gamma: float,
                 rng: np.random.Generator) -> np.ndarray:
    """One biased transition of every walker, from the (n,) entities ``cur``
    after the (n,) entities ``prev`` (None on the first step, which is uniform).

    A distinct neighbor of ``cur`` weighs gamma when it is ``prev`` or
    neighbors it, and 1 - gamma otherwise; an entity with no neighbors stays
    put.  Drawn by rejection: a uniform proposal is kept when it is far from
    ``prev``, and with probability gamma / (1 - gamma) < 1 when it is near.
    """
    start = kg.neighbor_offsets[cur]
    degree = kg.neighbor_offsets[cur + 1] - start
    nxt = np.array(cur, dtype=np.int64)
    pending = np.flatnonzero(degree > 0)
    keys = kg.closed_neighborhood_keys  # prev * E + x for x = prev or a neighbor
    while pending.size:
        cand = kg.neighbor_entities[start[pending] + rng.integers(0, degree[pending])]
        accept = np.ones(pending.size, dtype=bool)
        if prev is not None:
            key = prev[pending] * kg.entity_count + cand
            near = keys[np.searchsorted(keys, key).clip(max=keys.size - 1)] == key
            accept = ~near | (rng.random(pending.size) < gamma / (1.0 - gamma))
        nxt[pending[accept]] = cand[accept]
        pending = pending[~accept]
    return nxt


def walk_paths(kg: KnowledgeGraph, roots, cfg: WalkConfig,
               rng: np.random.Generator) -> np.ndarray:
    """(len(roots), num_walks, walk_length) entities: every root's walks,
    roots excluded, with all walkers stepping together."""
    prev, cur = None, np.repeat(np.asarray(roots, dtype=np.int64), cfg.num_walks)
    paths = np.empty((cur.size, cfg.walk_length), dtype=np.int64)
    for k in range(cfg.walk_length):
        prev, cur = cur, biased_steps(kg, prev, cur, cfg.gamma, rng)
        paths[:, k] = cur
    return paths.reshape(-1, cfg.num_walks, cfg.walk_length)


def rank_visits(paths, roots, size: int) -> list:
    """Every root's top ``size`` visited entities, never the root itself:
    frequency descending, index ascending, as one int64 array per root.
    ``paths`` holds one row of visits per root (any trailing shape)."""
    roots = np.asarray(roots, dtype=np.int64)
    visits = np.asarray(paths, dtype=np.int64)
    visits = visits.reshape(len(roots), math.prod(visits.shape[1:]))
    owners = np.broadcast_to(np.arange(len(roots))[:, None], visits.shape)
    kept = visits != roots[:, None]
    n = int(visits.max(initial=0)) + 1
    keys, counts = np.unique(owners[kept] * n + visits[kept], return_counts=True)
    order = np.lexsort((keys % n, -counts, keys // n))
    owner, entity = keys[order] // n, keys[order] % n
    # an owner's entries are a run; keep the first ``size`` of each
    top = np.arange(owner.size) - np.searchsorted(owner, owner) < size
    return np.split(entity[top], np.searchsorted(owner[top], np.arange(len(roots))))[1:]


# ---------------------------------------------------------------------------
# precomputed walk cache
# ---------------------------------------------------------------------------

_CACHE_MAGIC = b"KGWC"
_CACHE_VERSION = 2
_CACHE_FIELDS = {"context_size": int, "seed": int, "gamma": float, "num_walks": int,
                 "walk_length": int}
# one entry per item in ``lengths``, the contexts one after another in ``ids``
_CACHE_ARRAYS = [("lengths", "<u4", 1), ("ids", "<u4", 1)]


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

    def check_fits(self, item_count: int, entity_count: int) -> None:
        """Raise ``InputError`` unless the cache covers ``item_count`` items
        whose contexts name only entities below ``entity_count``, at a context
        size no larger than ``entity_count``."""
        if self.item_count != item_count:
            raise InputError(f"walk cache covers {self.item_count} items, "
                             f"dataset has {item_count}")
        # checked before ``padded_contexts`` sizes an (items, context_size) table
        if self.context_size > entity_count:
            raise InputError(f"walk cache context size {self.context_size} exceeds the "
                             f"dataset's {entity_count} entities")
        top = self.padded_contexts[0].max(axis=1, initial=0)
        if (top >= entity_count).any():
            item = int(np.argmax(top >= entity_count))
            raise InputError(f"walk cache context of item {item} names entity {top[item]}, "
                             f"dataset has {entity_count} entities")

    def save(self, path) -> None:
        lengths = np.array([len(ctx) for ctx in self.contexts], dtype="<u4")
        ids = np.concatenate([np.zeros(0, dtype=np.int64), *self.contexts])
        bad = np.flatnonzero((ids < 0) | (ids >= 2**32))  # not storable as <u4
        if bad.size:
            item = int(np.searchsorted(np.cumsum(lengths), bad[0], side="right"))
            raise InputError(f"walk cache item {item} holds id {ids[bad[0]]}, outside [0, 2**32)")
        write_artifact(path, _CACHE_MAGIC, _CACHE_VERSION,
                       {name: kind(getattr(self, name)) for name, kind in _CACHE_FIELDS.items()},
                       {"lengths": lengths, "ids": ids.astype("<u4")})

    @classmethod
    def load(cls, path) -> "WalkCache":
        meta, arrays = read_artifact(path, _CACHE_MAGIC, _CACHE_VERSION, "walk cache",
                                     InputError, _CACHE_FIELDS)
        seed = meta.pop("seed")
        try:
            cfg = WalkConfig(**meta)
        except InputError as exc:
            raise InputError(f"{path}: walk cache {exc}") from None
        if [(name, a.dtype.str, a.ndim) for name, a in arrays.items()] != _CACHE_ARRAYS:
            raise InputError(f"{path}: walk cache arrays are not {_CACHE_ARRAYS}")
        lengths = arrays["lengths"].astype(np.int64)
        if lengths.sum() != arrays["ids"].size or lengths.max(initial=0) > cfg.context_size:
            raise InputError(f"{path}: walk cache lengths do not sum to its id count, or one "
                             f"exceeds its context size {cfg.context_size}")
        ids, ends = arrays["ids"].astype(np.int64), np.cumsum(lengths).tolist()
        return cls([ids[a:b] for a, b in zip([0, *ends], ends)], cfg.context_size,
                   seed, cfg.gamma, cfg.num_walks, cfg.walk_length)


def build_walk_cache(kg: KnowledgeGraph, item_entities, cfg: WalkConfig,
                     seed: int, workers: int = 1) -> WalkCache:
    """Every item's ranked walk context, from the ``walks`` sub-stream of
    ``seed``.  ``workers`` is accepted and ignored."""
    paths = walk_paths(kg, item_entities, cfg, substream(seed, "walks"))
    return WalkCache(rank_visits(paths, item_entities, cfg.context_size), cfg.context_size,
                     seed, cfg.gamma, cfg.num_walks, cfg.walk_length)


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
