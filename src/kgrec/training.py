"""Loss functions and the optimization loop.

Per epoch the loop consumes every (user, positive, negative) ranking tuple
and, in proportionally sized batches, every corrupted graph triple, so both
corpora finish together.  Losses are mean-reduced per batch; the graph term
and the L2 penalty are weighted by lambda1/lambda2.  Validation hit-ratio@20
drives early stopping and best-checkpoint selection.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, NumericError, ParamRegistry, Tensor
from .evaluation import EvalConfig, evaluate
from .graph import InputError, InteractionStore, KnowledgeGraph
from .model import (GraphContextModel, ItemInputs, ModelConfig, PairBatch,
                    init_params)
from .sampling import (WalkCache, sample_bpr_tuples, sample_history,
                       sample_kg_negatives, sample_local_neighbors, substream)


@dataclass
class TrainConfig:
    eta: float = 1e-3
    lambda1: float = 5e-5      # graph-structure regularization weight
    lambda2: float = 1e-5      # L2 weight over all trainable tensors
    batch_size: int = 128
    n_neg: int = 5
    epochs: int = 50
    max_batches: int | None = None
    seed: int = 7
    patience: int = 10
    eval_every: int = 1
    fixed_negatives: bool = False

    def __post_init__(self):
        if min(self.batch_size, self.n_neg, self.epochs, self.eval_every) < 1:
            raise InputError("batch_size, n_neg, epochs and eval_every must be >= 1")
        if self.patience < 0:
            raise InputError("patience must be >= 0")
        if self.max_batches is not None and self.max_batches < 1:
            raise InputError("max_batches must be unset or >= 1")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise InputError("eta must be finite and > 0")
        if not all(math.isfinite(w) and w >= 0 for w in (self.lambda1, self.lambda2)):
            raise InputError("lambda1 and lambda2 must be finite and >= 0")


@dataclass
class EpochRecord:
    epoch: int
    bpr_loss: float
    kg_loss: float
    l2_term: float
    valid_hr20: float | None
    seconds: float


@dataclass
class TrainReport:
    records: list = field(default_factory=list)
    best_epoch: int = -1
    best_valid_hr20: float = float("nan")

    def report_lines(self) -> list:
        """Deterministic per-epoch records (timing is kept separate)."""
        lines = ["epoch\tl_bpr\tl_kg\tl2\thr20_valid"]
        for r in self.records:
            hr = "" if r.valid_hr20 is None else repr(r.valid_hr20)
            lines.append(f"{r.epoch}\t{r.bpr_loss!r}\t{r.kg_loss!r}\t{r.l2_term!r}\t{hr}")
        return lines

    def timing_lines(self) -> list:
        lines = ["epoch\tseconds"]
        for r in self.records:
            lines.append(f"{r.epoch}\t{r.seconds:.3f}")
        return lines


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def bpr_loss(y_pos: Tensor, y_neg: Tensor) -> Tensor:
    """Mean pairwise ranking loss  -log sigmoid(y+ - y-)  over a batch."""
    diffs = ad.sub(y_pos, y_neg)
    n = diffs.shape[0]
    return ad.mul(ad.sum_all(ad.log_sigmoid(diffs)), -1.0 / n)


def kg_distance(model: GraphContextModel, heads, relations, tails) -> Tensor:
    """Squared distance between each head and its relation-fused tail, (n, 1);
    scalar ids give one row."""
    e_h = ad.gather_rows(model.params["entity_emb"], heads)
    e_rt = model.relation_fuse(np.ravel(relations), np.ravel(tails))
    return ad.row_sums(ad.square(ad.sub(e_h, e_rt)))


def kg_loss(model: GraphContextModel, quads) -> Tensor:
    """Mean  log sigmoid(s(h,t) - s(h,t'))  over corrupted triples.

    Minimizing it drives connected tails closer to the head than corrupted
    tails in the fused embedding space.  ``quads`` are (head, relation, tail,
    corrupt) rows.
    """
    heads, rels, tails, corrupt = np.asarray(quads, dtype=np.int64).reshape(-1, 4).T
    s_pos = kg_distance(model, heads, rels, tails)
    s_neg = kg_distance(model, heads, rels, corrupt)
    return ad.mul(ad.sum_all(ad.log_sigmoid(ad.sub(s_pos, s_neg))), 1.0 / len(quads))


def total_objective(model: GraphContextModel, y_pos: Tensor, y_neg: Tensor,
                    quads, cfg: TrainConfig) -> tuple[Tensor, dict]:
    """Ranking loss + lambda1 * graph loss + lambda2 * L2; also float parts."""
    loss = bpr_loss(y_pos, y_neg)
    parts = {"bpr": loss.item(), "kg": 0.0, "l2": 0.0}
    if cfg.lambda1 != 0.0 and len(quads):
        kg_term = kg_loss(model, quads)
        parts["kg"] = kg_term.item()
        loss = ad.add(loss, ad.mul(kg_term, cfg.lambda1))
    if cfg.lambda2 != 0.0:
        l2_term = model.params.l2_penalty()
        parts["l2"] = l2_term.item()
        loss = ad.add(loss, ad.mul(l2_term, cfg.lambda2))
    return loss, parts


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------


def assemble_pair_batch(tuples, model_cfg: ModelConfig, kg: KnowledgeGraph,
                        cache: WalkCache, store: InteractionStore,
                        item_entities, rng: np.random.Generator) -> PairBatch:
    """Sample neighbors and histories for a slice of ranking tuples.

    Histories are drawn for every tuple, excluding the tuple's positive item,
    in one call; then neighbors for every distinct item in the batch, in
    ascending item order, in one call.  Tuples with an empty history pool get
    placeholder rows that are masked out of the history aggregation.
    """
    users, positives, negatives = np.asarray(tuples, dtype=np.int64).reshape(-1, 3).T
    n = model_cfg.history_size
    histories, has_history = sample_history(store, users, positives, n, rng)
    # every row's item, target-major then history rows
    unique_items, row_items = np.unique(
        np.concatenate([positives, negatives, histories.ravel()]), return_inverse=True)
    entities = item_entities[unique_items]
    rels, tails = sample_local_neighbors(kg, entities, model_cfg.local_size, rng)
    ctx_rev, ctx_mask = cache.padded_contexts
    items = ItemInputs(entities, rels, tails, ctx_rev[unique_items], ctx_mask[unique_items])
    return PairBatch(user_rows=np.concatenate([users, users, np.repeat(users, n)]),
                     row_items=row_items, items=items, tuple_users=users,
                     history_mask=has_history[:, None].astype(np.float64),
                     size=len(users), n_targets=2, history_size=n)


# ---------------------------------------------------------------------------
# the optimization loop
# ---------------------------------------------------------------------------


def train(store: InteractionStore, kg: KnowledgeGraph, item_entities,
          cache: WalkCache, model_cfg: ModelConfig, train_cfg: TrainConfig,
          params: ParamRegistry | None = None,
          eval_cfg: EvalConfig | None = None,
          log=None) -> tuple[ParamRegistry, TrainReport]:
    """Optimize the model and return (best-validation parameters, report).

    A ``NumericError`` raised by a batch is re-raised with the epoch and the
    batch (both counted from 1) in front of its message.  A store whose train
    users each own every item gives no ranking tuple and an ``InputError``.
    """
    if not store.users_in("train").size:
        raise InputError("training split is empty")
    cache.check_fits(store.item_count, kg.entity_count)

    seed = train_cfg.seed
    rng_init = substream(seed, "init")
    rng_neg = substream(seed, "negatives")
    rng_ctx = substream(seed, "contexts")

    if params is None:
        params = init_params(model_cfg, store.user_count, kg.entity_count,
                             kg.relation_embedding_count, rng_init)
    model = GraphContextModel(model_cfg, params, item_entities)
    adam = AdamState(params)
    eval_cfg = eval_cfg or EvalConfig()
    # early stopping reads HR@20, so the validation run must rank that deep
    valid_cfg = dataclasses.replace(eval_cfg, k_values=tuple(set(eval_cfg.k_values) | {20}))
    report = TrainReport()

    # without validation data there is nothing to select or stop on
    has_validation = store.users_in("valid").size > 0
    best_snapshot = None
    best_hr = -1.0
    batches_done = 0
    stop = False
    kg_quads = np.zeros((0, 4), dtype=np.int64)

    for epoch in range(1, train_cfg.epochs + 1):
        started = time.perf_counter()
        if epoch == 1 or not train_cfg.fixed_negatives:
            ranking_tuples = sample_bpr_tuples(store, train_cfg.n_neg, rng_neg)
            if train_cfg.lambda1 != 0.0:
                kg_quads = sample_kg_negatives(kg, rng_neg)
            if not len(ranking_tuples):
                raise InputError("no ranking tuple can be drawn: every train user owns every item")
        order = rng_neg.permutation(len(ranking_tuples))
        # permutation(0) draws nothing, so a run without graph quads keeps its stream
        kg_order = rng_neg.permutation(len(kg_quads))

        b1 = train_cfg.batch_size
        n_batches = math.ceil(len(ranking_tuples) / b1)
        b2 = math.ceil(len(kg_quads) / n_batches)

        sums = {"bpr": 0.0, "kg": 0.0, "l2": 0.0}
        weights = {"bpr": 0, "kg": 0}
        for bi in range(n_batches):
            tuple_slice = ranking_tuples[order[bi * b1:(bi + 1) * b1]]
            quad_slice = kg_quads[kg_order[bi * b2:(bi + 1) * b2]]
            batch = assemble_pair_batch(tuple_slice, model_cfg, kg, cache, store,
                                        item_entities, rng_ctx)
            try:
                y_pos, y_neg = model.scores_batch(batch)
                loss, parts = total_objective(model, y_pos, y_neg, quad_slice, train_cfg)
                params.zero_grads()
                loss.backward()
                adam.step(params, train_cfg.eta)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {bi + 1}: {exc}") from exc
            sums["bpr"] += parts["bpr"] * len(tuple_slice)
            weights["bpr"] += len(tuple_slice)
            sums["kg"] += parts["kg"] * len(quad_slice)
            weights["kg"] += len(quad_slice)
            sums["l2"] = parts["l2"]
            batches_done += 1
            if train_cfg.max_batches is not None and batches_done >= train_cfg.max_batches:
                stop = True
                break

        hr20 = None
        if has_validation and (epoch % train_cfg.eval_every == 0 or stop
                               or epoch == train_cfg.epochs):
            valid = evaluate(params, model_cfg, store, kg, item_entities, cache,
                             valid_cfg, split="valid", seed=seed)
            hr20 = valid.metrics[20]["hit_ratio"]
            if hr20 > best_hr:
                best_hr = hr20
                best_snapshot = params.snapshot()
                report.best_epoch = epoch

        record = EpochRecord(
            epoch=epoch,
            bpr_loss=sums["bpr"] / max(weights["bpr"], 1),
            kg_loss=sums["kg"] / max(weights["kg"], 1),
            l2_term=sums["l2"],
            valid_hr20=hr20,
            seconds=time.perf_counter() - started,
        )
        report.records.append(record)
        if log is not None:
            log(f"epoch {epoch}: bpr={record.bpr_loss:.4f} kg={record.kg_loss:.4f} "
                f"l2={record.l2_term:.4f}"
                + (f" hr20={hr20:.4f}" if hr20 is not None else ""))
        # patience is measured in epochs, counted from the first evaluation;
        # it should be at least eval_every or the run stops between evals
        if stop or (best_snapshot is not None
                    and epoch - report.best_epoch > train_cfg.patience):
            break

    if best_snapshot is not None:
        params.restore(best_snapshot)
        report.best_valid_hr20 = best_hr
    return params, report
