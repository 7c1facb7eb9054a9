"""The preference scoring function.

An item is represented by its knowledge-graph entity together with two fused
context embeddings: a user-conditioned attention over sampled one-hop
neighbors (local), and a recurrent aggregation of its frequency-ranked walk
context (non-local), blended by a learned elementwise gate.  A user is
represented by their embedding plus an attention over the contextualized
items of their interaction history, keyed on the target item.  The score is
the dot product of the two contextualized representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GruParams, ParamRegistry, Tensor
from .graph import InputError
from .sampling import reverse_pad


@dataclass
class ModelConfig:
    dim: int = 32            # embedding width d
    local_size: int = 4      # sampled one-hop neighbors per entity (S)
    history_size: int = 16   # sampled history items per user (N)
    disable_local: bool = False
    disable_nonlocal: bool = False
    disable_user_attention: bool = False

    def __post_init__(self):
        if self.dim < 1 or self.local_size < 1 or self.history_size < 1:
            raise InputError("dim, local_size and history_size must be >= 1")
        if self.disable_local and self.disable_nonlocal:
            raise InputError("cannot disable both the local and non-local context")


_GRU_NAMES = ("gru_wz", "gru_uz", "gru_bz", "gru_wr", "gru_ur", "gru_br",
              "gru_wc", "gru_uc", "gru_bc")


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_params(cfg: ModelConfig, n_users: int, n_entities: int,
                n_relation_rows: int, rng: np.random.Generator) -> ParamRegistry:
    """Fresh registry: embeddings uniform(-0.05, 0.05), weight matrices
    Xavier-uniform, every bias and the gate vector at zero (so the initial
    gate blends both contexts evenly)."""
    d = cfg.dim
    reg = ParamRegistry()
    reg.register("user_emb", rng.uniform(-0.05, 0.05, size=(n_users, d)))
    reg.register("entity_emb", rng.uniform(-0.05, 0.05, size=(n_entities, d)))
    reg.register("relation_emb", rng.uniform(-0.05, 0.05, size=(n_relation_rows, d)))
    reg.register("rel_fuse_W", _xavier(rng, 2 * d, d))
    reg.register("attn_W", _xavier(rng, 2 * d, d))
    reg.register("attn_b", np.zeros((1, d)))
    reg.register("user_proj_W", _xavier(rng, d, d))
    reg.register("user_proj_b", np.zeros((1, d)))
    reg.register("agg_W", _xavier(rng, 2 * d, d))
    reg.register("agg_b", np.zeros((1, d)))
    for name in _GRU_NAMES:
        if name.endswith(("bz", "br", "bc")):
            reg.register(name, np.zeros((1, d)))
        else:
            reg.register(name, _xavier(rng, d, d))
    reg.register("gate_w", np.zeros((1, d)))
    reg.register("hist_attn_w", _xavier(rng, 1, 4 * d))
    reg.register("hist_attn_b", np.zeros((1, 1)))
    reg.register("user_agg_W", _xavier(rng, 3 * d, d))
    reg.register("user_agg_b", np.zeros((1, d)))
    return reg


@dataclass(frozen=True)
class ItemContext:
    """Fixed sampled inputs for one item's representation."""

    neighbors: tuple        # ((relation, tail), ...) from sample_local_neighbors
    walk_context: tuple     # entity ids, most-frequent first


@dataclass(frozen=True)
class ScoreContext:
    """Everything stochastic a single score depends on, frozen."""

    target: ItemContext
    history: tuple          # ((item, ItemContext), ...); empty means no history


@dataclass(frozen=True)
class ItemInputs:
    """Sampled inputs of distinct items, one row per item."""

    entities: np.ndarray    # (U,) entity of every item
    rels: np.ndarray        # (U, S) sampled neighbor relations
    tails: np.ndarray       # (U, S) sampled neighbor tails
    ctx_rev: np.ndarray     # (U, C) walk context, least-frequent first, 0-padded
    ctx_mask: np.ndarray    # (U, C) 1.0 where ctx_rev is real

    @classmethod
    def build(cls, entities, neighbors, ctx_rev, ctx_mask) -> "ItemInputs":
        """From each item's ((relation, tail), ...) draw and its rows of the
        reversed, padded walk contexts (``WalkCache.padded_contexts``)."""
        pairs = np.asarray(neighbors, dtype=np.int64).reshape(len(neighbors), -1, 2)
        return cls(np.asarray(entities, dtype=np.int64), pairs[:, :, 0], pairs[:, :, 1],
                   np.asarray(ctx_rev, dtype=np.int64), np.asarray(ctx_mask, dtype=np.float64))


@dataclass
class ItemStage:
    """The user-free half of the item representation, one row per item.

    ``feat`` and ``e_t`` hold S rows per item (neighbor k of item u is row
    u * S + k) and are None when the local context is off; ``c_nonlocal`` is
    None when the non-local context is off.
    """

    e_h: Tensor                 # (U, d) entity rows
    feat: Tensor | None         # (U*S, d) neighbor attention features
    e_t: Tensor | None          # (U*S, d) neighbor tail rows
    c_nonlocal: Tensor | None   # (U, d) non-local aggregate
    local_size: int             # S


@dataclass
class PairBatch:
    """One training batch: its distinct items, and rows laid out target-major.

    Rows 0..B-1 are the first targets of each tuple, rows B..2B-1 the second
    targets, and so on for ``n_targets`` blocks; the trailing B*N rows are the
    history items in tuple-major order.  Row r pairs user ``user_rows[r]``
    with item ``row_items[r]``, an index into ``items``.
    """

    user_rows: np.ndarray       # (R,) user of every row
    row_items: np.ndarray       # (R,) every row's item, as an index into items
    items: ItemInputs           # the batch's distinct items
    tuple_users: np.ndarray     # (B,) user of each tuple
    history_mask: np.ndarray    # (B, 1) 0.0 for tuples with an empty history
    size: int                   # B
    n_targets: int              # target blocks per tuple
    history_size: int           # N

    @property
    def entity_rows(self) -> np.ndarray:
        """(R,) entity of every row's item."""
        return self.items.entities[self.row_items]


class GraphContextModel:
    """Differentiable scorer over a parameter registry.

    All methods build autodiff graphs; none of them draws randomness, so a
    score is a pure function of (parameters, sampled contexts).  ``params``
    may also be any mapping from parameter name to Tensor: over constants no
    op records a tape.
    """

    def __init__(self, cfg: ModelConfig, params: ParamRegistry, item_entities):
        self.cfg = cfg
        self.params = params
        self.item_entities = np.asarray(item_entities, dtype=np.int64)
        self.gru = GruParams(*(params[name] for name in _GRU_NAMES))

    # -- helpers -----------------------------------------------------------

    def _resolve_force(self, force: str | None) -> str | None:
        if force is not None:
            return force
        if self.cfg.disable_local:
            return "nonlocal"
        if self.cfg.disable_nonlocal:
            return "local"
        return None

    def _user_preferences(self, users) -> Tensor:
        """m_u per user; the all-ones vector when user attention is disabled."""
        if self.cfg.disable_user_attention:
            return ad.constant(np.ones((len(users), self.cfg.dim)))
        e_u = ad.gather_rows(self.params["user_emb"], users)
        return ad.relu(ad.affine(e_u, self.params["user_proj_W"],
                                 self.params["user_proj_b"]))

    def _fuse_relation_tails(self, rel_flat, tail_flat) -> tuple[Tensor, Tensor]:
        e_r = ad.gather_rows(self.params["relation_emb"], rel_flat)
        e_t = ad.gather_rows(self.params["entity_emb"], tail_flat)
        e_rt = ad.matmul(ad.hstack(e_r, e_t), self.params["rel_fuse_W"])
        return e_rt, e_t

    def _aggregate(self, e_h: Tensor, context: Tensor) -> Tensor:
        return ad.tanh(ad.affine(ad.hstack(e_h, context),
                                 self.params["agg_W"], self.params["agg_b"]))

    def _nonlocal_items(self, e_h: Tensor, items: ItemInputs) -> Tensor:
        h = ad.constant(np.zeros((e_h.shape[0], self.cfg.dim)))
        for step in range(items.ctx_rev.shape[1]):
            x = ad.gather_rows(self.params["entity_emb"], items.ctx_rev[:, step])
            h_next = ad.gru_cell(x, h, self.gru)
            # items past their context length keep the previous state
            h = ad.elementwise_gate(ad.constant(items.ctx_mask[:, step:step + 1]),
                                    h_next, h)
        return self._aggregate(e_h, h)

    def item_stage(self, items: ItemInputs, force: str | None = None) -> ItemStage:
        """The user-free half of every item's representation, once per item:
        entity rows, fused neighbor rows and attention features, and the
        walk-context GRU with its non-local aggregate."""
        mode = self._resolve_force(force)
        s = items.rels.shape[1]
        e_h = ad.gather_rows(self.params["entity_emb"], items.entities)
        feat = e_t = c_nonlocal = None
        if mode != "nonlocal":
            e_rt, e_t = self._fuse_relation_tails(items.rels.ravel(), items.tails.ravel())
            feat = ad.tanh(ad.affine(ad.hstack(ad.repeat_rows(e_h, s), e_rt),
                                     self.params["attn_W"], self.params["attn_b"]))
        if mode != "local":
            c_nonlocal = self._nonlocal_items(e_h, items)
        return ItemStage(e_h, feat, e_t, c_nonlocal, s)

    def user_stage(self, stage: ItemStage, user_rows,
                   row_items) -> tuple[Tensor, Tensor | None]:
        """Contextualized q rows (R, 2d) = entity embedding || fused context,
        and the neighbor attention (R, S), None when the local context is off.

        Row r is user ``user_rows[r]`` with item ``row_items[r]`` of the
        stage.  ``m_u`` runs once per distinct user; the neighbor softmax, the
        local aggregate and the gate run per row and read the item stage by
        index.
        """
        e_h = ad.gather_rows(stage.e_h, row_items)
        alpha = c_local = None
        if stage.feat is not None:
            # m_u once per distinct user; the fused ops read the item stage's
            # neighbor rows and m_u by index
            users, user_index = np.unique(user_rows, return_inverse=True)
            m = self._user_preferences(users)
            alpha = ad.neighbor_softmax(stage.feat, m, row_items, user_index,
                                        stage.local_size)
            c_local = self._aggregate(e_h, ad.neighbor_sum(alpha, stage.e_t, row_items))
        if stage.c_nonlocal is None:
            fused = c_local
        else:
            c_nonlocal = ad.gather_rows(stage.c_nonlocal, row_items)
            if c_local is None:
                fused = c_nonlocal
            else:
                gate = ad.sigmoid(self.params["gate_w"])
                fused = ad.elementwise_gate(gate, c_local, c_nonlocal)
        return ad.hstack(e_h, fused), alpha

    def _one_row(self, user: int, entity: int, neighbors, walk_context,
                 force: str | None = None) -> tuple[Tensor, Tensor | None]:
        """Both stages for a single (user, entity) row."""
        items = ItemInputs.build([entity], [neighbors],
                                 *reverse_pad([walk_context], len(walk_context)))
        return self.user_stage(self.item_stage(items, force=force), np.array([user]),
                               np.zeros(1, dtype=np.int64))

    # -- the history head ----------------------------------------------------

    def _history_logits(self, q_hist: Tensor) -> Tensor:
        """The history rows' half of the attention logits, (H, 1)."""
        d2 = 2 * self.cfg.dim
        w = ad.slice_cols(self.params["hist_attn_w"], d2, 2 * d2)
        return ad.matmul(q_hist, ad.transpose(w))

    def _history_weights(self, q_targets: Tensor, hist_logits: Tensor) -> Tensor:
        """beta = softmax(tanh(a_t + h + b)) over history items, (T, N); the
        history logits ``h`` are (T, N), or (1, N) when every target shares
        one history."""
        w = ad.slice_cols(self.params["hist_attn_w"], 0, 2 * self.cfg.dim)
        a_t = ad.matmul(q_targets, ad.transpose(w))
        return ad.softmax_rows(ad.tanh(ad.add(ad.add(a_t, hist_logits),
                                              self.params["hist_attn_b"])))

    def _user_vector(self, e_u: Tensor, e_hist: Tensor) -> Tensor:
        """p_u = e_u || relu([e_u, e_hist] W + b), one row per target."""
        c_u = ad.relu(ad.affine(ad.hstack(e_u, e_hist), self.params["user_agg_W"],
                                self.params["user_agg_b"]))
        return ad.hstack(e_u, c_u)

    def interaction_context_rows(self, user: int, q_targets: Tensor,
                             q_hist: Tensor | None) -> Tensor:
        """p_u (T, 2d) of one user against T targets that share the history
        rows ``q_hist`` (N, 2d); None stands for an empty history."""
        rows = q_targets.shape[0]
        e_u = ad.gather_rows(self.params["user_emb"], np.full(rows, user))
        if q_hist is None:
            e_hist = ad.constant(np.zeros((rows, 2 * self.cfg.dim)))
        else:
            h = ad.reshape(self._history_logits(q_hist), 1, q_hist.shape[0])
            e_hist = ad.matmul(self._history_weights(q_targets, h), q_hist)
        return self._user_vector(e_u, e_hist)

    # -- single-instance operations ----------------------------------------

    def relation_fuse(self, relations, tails) -> Tensor:
        """Linear fusion of relation and tail embeddings, one row per pair."""
        e_rt, _ = self._fuse_relation_tails(np.asarray(relations, dtype=np.int64),
                                            np.asarray(tails, dtype=np.int64))
        return e_rt

    def user_attention(self, user: int, entity: int, neighbors) -> Tensor:
        """Attention probabilities (1, S) over sampled neighbors for one user."""
        if not neighbors:
            raise InputError("user_attention needs at least one sampled neighbor")
        return self._one_row(user, entity, neighbors, (), force="local")[1]

    def local_embedding(self, user: int, entity: int, neighbors) -> Tensor:
        return self.kg_context(user, entity, neighbors, (), force="local")

    def nonlocal_embedding(self, entity: int, walk_context) -> Tensor:
        # no user enters the non-local context, so row 0's user is never read
        return self.kg_context(0, entity, (), walk_context, force="nonlocal")

    def kg_context(self, user: int, entity: int, neighbors, walk_context,
                   force: str | None = None) -> Tensor:
        """Gated fusion of the local and non-local context embeddings (1, d)."""
        q, _ = self._one_row(user, entity, neighbors, walk_context, force=force)
        return ad.slice_cols(q, self.cfg.dim, 2 * self.cfg.dim)

    def contextualized_item(self, user: int, item: int, context: ItemContext,
                            force: str | None = None) -> Tensor:
        """q_i = item entity embedding || fused context embedding, shape (1, 2d)."""
        q, _ = self._one_row(user, self.item_entities[item], context.neighbors,
                             context.walk_context, force=force)
        return q

    def _stack(self, history_qs) -> Tensor:
        return ad.reshape(ad.hstack(history_qs), len(history_qs), 2 * self.cfg.dim)

    def history_attention(self, q_target: Tensor, history_qs) -> Tensor:
        """Relevance probabilities (1, N) of history items for one target."""
        q_hist = self._stack(history_qs)
        h = ad.reshape(self._history_logits(q_hist), 1, len(history_qs))
        return self._history_weights(q_target, h)

    def interaction_context(self, user: int, q_target: Tensor,
                            history_qs) -> Tensor:
        """p_u = user embedding || aggregated history context, shape (1, 2d)."""
        q_hist = self._stack(history_qs) if history_qs else None
        return self.interaction_context_rows(user, q_target, q_hist)

    def score(self, user: int, item: int, ctx: ScoreContext,
              force: str | None = None) -> Tensor:
        """Preference score, shape (1, 1)."""
        q_i = self.contextualized_item(user, item, ctx.target, force=force)
        history_qs = [self.contextualized_item(user, j, jctx, force=force)
                      for j, jctx in ctx.history]
        p_u = self.interaction_context(user, q_i, history_qs)
        return ad.dot(p_u, q_i)

    # -- batched scoring for training ----------------------------------------

    def scores_batch(self, batch: PairBatch, force: str | None = None) -> list:
        """Scores for every target block; returns ``n_targets`` (B, 1) tensors."""
        b, n, k = batch.size, batch.history_size, batch.n_targets
        stage = self.item_stage(batch.items, force=force)
        q, _ = self.user_stage(stage, batch.user_rows, batch.row_items)
        # tuple t's history is rows t*n .. t*n+n-1 of q_hist
        q_hist = ad.gather_rows(q, np.arange(k * b, k * b + b * n))
        hist_logits = ad.reshape(self._history_logits(q_hist), b, n)
        e_u = ad.gather_rows(self.params["user_emb"], batch.tuple_users)
        mask = ad.constant(batch.history_mask)
        outputs = []
        for block in range(k):
            q_t = ad.gather_rows(q, np.arange(block * b, (block + 1) * b))
            beta = self._history_weights(q_t, hist_logits)
            weighted = ad.mul(ad.reshape(beta, b * n, 1), q_hist)
            e_hist = ad.mul(ad.sum_row_groups(weighted, n), mask)
            p_u = self._user_vector(e_u, e_hist)
            outputs.append(ad.row_sums(ad.mul(p_u, q_t)))
        return outputs
