"""Top-K ranking protocol and metrics.

Evaluation ranks every candidate item for a user (full ranking) with the
model's own forward over constant parameters, then averages precision,
recall and hit ratio over users.  Contexts are sampled once per
evaluation from dedicated sub-streams, so reports are deterministic.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import InputError, InteractionStore, KnowledgeGraph
from .model import GraphContextModel, ItemInputs, ItemStage, ModelConfig
from .sampling import WalkCache, sample_history, sample_local_neighbors, substream

# Items per item-stage call when a scorer is built.  A block's (block·S, d)
# temporaries, 512·4·32 floats (0.5 MB) at the benchmark's shape, stay in a
# core's L2 cache, where the whole catalogue's (3.9 MB each) did not: one
# pass over 3846 items took 29.5-51.1 ms against 42.6-63.1 ms unblocked (one
# BLAS thread, medians of 21 in one process, four runs on a noisy 2-vCPU
# host); an earlier measurement read 34 ms with blocks of 256 or of 1024
# against 31 ms with 512.
STAGE_BLOCK = 512


@dataclass
class EvalConfig:
    k_values: tuple = (10, 20, 50)
    include_valid_in_candidates: bool = False

    def __post_init__(self):
        if any(k < 1 for k in self.k_values):
            raise InputError(f"K values must be positive: {self.k_values}")
        self.k_values = tuple(sorted(self.k_values))


@dataclass
class EvalReport:
    split: str
    metrics: dict               # K -> {"precision": .., "recall": .., "hit_ratio": ..}
    users_evaluated: int

    def to_lines(self) -> list:
        lines = []
        for k in sorted(self.metrics):
            for name in ("precision", "recall", "hit_ratio"):
                lines.append(f"{self.split}\t{k}\t{name}\t{self.metrics[k][name]!r}")
        return lines


class ItemContextSet:
    """Evaluation-time sampled inputs of every item, shared by all users."""

    @staticmethod
    def build(kg: KnowledgeGraph, item_entities, cache: WalkCache,
              local_size: int, rng: np.random.Generator) -> ItemInputs:
        """Neighbors drawn for items 0..I-1 in order, and every item's walk
        context."""
        entities = np.asarray(item_entities, dtype=np.int64)
        rels, tails = sample_local_neighbors(kg, entities, local_size, rng)
        return ItemInputs(entities, rels, tails, *cache.padded_contexts)


def _item_stage_in_blocks(model: GraphContextModel, items: ItemInputs) -> ItemStage:
    """``model.item_stage(items)`` run on STAGE_BLOCK items at a time, each
    block's rows written into one preallocated table per field and the gate
    taken from the first block: the same rows, as constants.  With both
    contexts on, ``c_nonlocal`` is left out, since users read only its share."""
    n = len(items.entities)
    values = {f.name: None for f in fields(ItemStage)}
    tables = {}
    for start in range(0, n, STAGE_BLOCK):
        block = model.item_stage(ItemInputs(*(getattr(items, f.name)[start:start + STAGE_BLOCK]
                                              for f in fields(ItemInputs))))
        size = len(block.e_h.data)
        if start == 0:
            values.update(gate=block.gate, local_size=block.local_size)
            kept = [f.name for f in fields(ItemStage) if f.name not in ("gate", "local_size")
                    and getattr(block, f.name) is not None]
            if block.nonlocal_share is not None:
                kept.remove("c_nonlocal")
            for name in kept:
                rows = getattr(block, name).data
                tables[name] = np.empty((n * len(rows) // size, rows.shape[1]))
        for name, table in tables.items():
            rows = getattr(block, name).data
            at = start * (len(rows) // size)
            table[at:at + len(rows)] = rows
        del block, rows                 # freed before the next block is computed
    values.update({name: ad.constant(table) for name, table in tables.items()})
    return ItemStage(**values)


class FastScorer:
    """Scores every item for one user at a time with the model's own forward.

    The model reads constant views of the parameters, so no op records a
    tape.  The user-free item stage, which holds the user-free terms of the
    gate and of the target logits, runs once, when the scorer is built, in
    blocks of STAGE_BLOCK items written into the stage's tables; each user
    then pays for the user stage over all items and the history head, and
    users may be scored from several threads at once.  Build a new scorer
    after the parameters change.
    """

    def __init__(self, params, cfg: ModelConfig, item_entities,
                 contexts: ItemInputs):
        frozen = {name: ad.constant(t.data) for name, t in params.items()}
        self.model = GraphContextModel(cfg, frozen, item_entities)
        self.stage = _item_stage_in_blocks(self.model, contexts)

    def all_item_q(self, user: int) -> tuple[Tensor, Tensor]:
        """Every item's q halves for this user: entity rows and fused context
        rows, each (I, d)."""
        return self.model.user_stage(self.stage, [user])[:2]

    def user_scores(self, user: int, history_items) -> np.ndarray:
        """Preference score of this user for every item: shape (I,)."""
        e_h, fused = self.all_item_q(user)
        return self.model.shared_history_scores(user, e_h, fused, self.stage.entity_logits,
                                                history_items).data[:, 0]


def rank_items(scores: np.ndarray, candidates: np.ndarray, top: int | None = None) -> np.ndarray:
    """Candidates ordered by descending score, ties broken by ascending index;
    with ``top``, only the first ``top`` of that order.

    A cut keeps the candidates scoring at least the top-th largest score,
    ties at the cut included, and sorts only those."""
    candidates = np.asarray(candidates)
    chosen = scores[candidates]
    if top is not None and top < len(candidates):
        keep = chosen >= np.partition(chosen, len(chosen) - top)[len(chosen) - top]
        candidates, chosen = candidates[keep], chosen[keep]
    return candidates[np.lexsort((candidates, -chosen))][:top]


def metrics_for_user(ranked, test_positives, k: int) -> tuple:
    """(precision, recall, hit) of one ranked list against the test positives
    (a list, set or array of distinct items)."""
    hits = len(set(np.asarray(ranked[:k]).tolist()).intersection(test_positives))
    precision = hits / k
    recall = hits / len(test_positives)
    hit = 1.0 if hits else 0.0
    return precision, recall, hit


def _candidates_for(store: InteractionStore, user: int, split: str,
                    cfg: EvalConfig) -> np.ndarray:
    """Items ranked for ``user`` on ``split``, ascending: every item less the
    user's train items (off the train split) and valid items (on the test
    split, unless ``include_valid_in_candidates``)."""
    excluded = ["train"] if split != "train" else []
    if split == "test" and not cfg.include_valid_in_candidates:
        excluded.append("valid")
    keep = np.ones(store.item_count, dtype=bool)
    for name in excluded:
        keep[store.positive_list(user, name)] = False
    return np.flatnonzero(keep)


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def evaluate(params, model_cfg: ModelConfig, store: InteractionStore,
             kg: KnowledgeGraph, item_entities, cache: WalkCache,
             cfg: EvalConfig | None = None, split: str = "test",
             seed: int = 0) -> EvalReport:
    """Unweighted per-user average of P@K / R@K / HR@K on one split.

    Users without positives in the target split are skipped.  Users are
    scored on a thread pool, one worker per usable CPU, that lives only
    inside the call; the report is the same for any worker count.
    """
    cfg = cfg or EvalConfig()
    cache.check_fits(len(item_entities), kg.entity_count)
    contexts = ItemContextSet.build(kg, item_entities, cache, model_cfg.local_size,
                                    substream(seed, "eval-items"))
    scorer = FastScorer(params, model_cfg, item_entities, contexts)
    rng_hist = substream(seed, "eval-history")

    users = store.users_in(split)
    histories, has_history = sample_history(store, users, None, model_cfg.history_size,
                                            rng_hist)

    def user_rows(user: int, history, nonempty: bool) -> list:
        scores = scorer.user_scores(user, history if nonempty else [])
        ranked = rank_items(scores, _candidates_for(store, user, split, cfg),
                            max(cfg.k_values))
        positives = store.positive_list(user, split)
        return [metrics_for_user(ranked, positives, k) for k in cfg.k_values]

    # users are scored concurrently and summed in user order, so the report
    # does not depend on the worker count; an error cancels the pending users
    totals = {k: np.zeros(3) for k in cfg.k_values}
    pool = ThreadPoolExecutor(max(1, min(_worker_count(), len(users))))
    try:
        jobs = [pool.submit(user_rows, *job)
                for job in zip(users.tolist(), histories, has_history)]
        for job in jobs:
            for k, row in zip(cfg.k_values, job.result()):
                totals[k] += np.array(row)
    finally:
        pool.shutdown(cancel_futures=True)

    metrics = {}
    for k in cfg.k_values:
        avg = totals[k] / len(users) if len(users) else np.zeros(3)
        metrics[k] = {"precision": float(avg[0]), "recall": float(avg[1]),
                      "hit_ratio": float(avg[2])}
    return EvalReport(split=split, metrics=metrics, users_evaluated=len(users))
