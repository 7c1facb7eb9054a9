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


def _register_blocks(reg: ParamRegistry, prefix: str, suffixes, value: np.ndarray) -> None:
    """Register the equal row blocks of one drawn matrix, top first, as
    prefix + suffix each: the weight of one input of a split affine."""
    for suffix, block in zip(suffixes, np.split(value, len(suffixes))):
        reg.register(prefix + suffix, block)


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
    _register_blocks(reg, "rel_fuse_W_", ("r", "t"), _xavier(rng, 2 * d, d))
    _register_blocks(reg, "attn_W_", ("h", "rt"), _xavier(rng, 2 * d, d))
    reg.register("attn_b", np.zeros((1, d)))
    reg.register("user_proj_W", _xavier(rng, d, d))
    reg.register("user_proj_b", np.zeros((1, d)))
    _register_blocks(reg, "agg_W_", ("h", "c"), _xavier(rng, 2 * d, d))
    reg.register("agg_b", np.zeros((1, d)))
    for name in _GRU_NAMES:
        if name.endswith(("bz", "br", "bc")):
            reg.register(name, np.zeros((1, d)))
        else:
            reg.register(name, _xavier(rng, d, d))
    reg.register("gate_w", np.zeros((1, d)))
    # the drawn (1, 4d) row, as four (d, 1) columns
    _register_blocks(reg, "hist_attn_w", "1234", _xavier(rng, 1, 4 * d).T)
    reg.register("hist_attn_b", np.zeros((1, 1)))
    _register_blocks(reg, "user_agg_W_", ("u", "he", "hf"), _xavier(rng, 3 * d, d))
    reg.register("user_agg_b", np.zeros((1, d)))
    return reg


@dataclass(frozen=True)
class ItemContext:
    """Fixed sampled inputs for one item's representation."""

    neighbors: tuple        # ((relation, tail), ...), S sampled pairs
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

    ``feat`` and ``tails`` hold S rows per item (neighbor k of item u is row
    u * S + k) and are None when the local context is off; ``c_nonlocal`` is
    None when the non-local context is off, and may be None when both are on,
    since users read only its share; ``gate`` and ``nonlocal_share`` are None
    unless both contexts are on.
    """

    e_h: Tensor                     # (U, d) entity rows
    p_h: Tensor                     # (U, d) entity half of the aggregate, e_h agg_W_h + agg_b
    feat: Tensor | None             # (U*S, d) neighbor attention features
    tails: Tensor | None            # (U*S, d) tail half of the aggregate, e_t agg_W_c
    c_nonlocal: Tensor | None       # (U, d) non-local aggregate
    gate: Tensor | None             # (1, d) s = sigmoid(gate_w)
    nonlocal_share: Tensor | None   # (U, d) (1 - s) ⊙ c_nonlocal
    entity_logits: Tensor           # (U, 1) e_h hist_attn_w1, the target logits' entity half
    local_size: int                 # S


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
        """(e_rt, e_t) per pair: e_r rel_fuse_W_r + e_t rel_fuse_W_t, with the
        relation half run once per relation row and gathered."""
        p = self.params
        relation_half = ad.matmul(p["relation_emb"], p["rel_fuse_W_r"])
        e_t = ad.gather_rows(p["entity_emb"], tail_flat)
        e_rt = ad.add(ad.gather_rows(relation_half, rel_flat),
                      ad.matmul(e_t, p["rel_fuse_W_t"]))
        return e_rt, e_t

    def _neighbor_rows(self, e_h: Tensor, items: ItemInputs,
                       w_context: Tensor) -> tuple[Tensor, Tensor]:
        """Attention features tanh(e_h attn_W_h + attn_b + e_rt attn_W_rt), with
        the head half run once per item, and tail rows times agg_W_c, of every
        item's S neighbors, (U*S, d) each; the raw rows die on return."""
        p = self.params
        e_rt, e_t = self._fuse_relation_tails(items.rels.ravel(), items.tails.ravel())
        head_half = ad.affine(e_h, p["attn_W_h"], p["attn_b"])
        feat = ad.tanh(ad.add(ad.repeat_rows(head_half, items.rels.shape[1]),
                              ad.matmul(e_rt, p["attn_W_rt"])))
        return feat, ad.matmul(e_t, w_context)

    def _walk_state(self, items: ItemInputs) -> Tensor:
        """The GRU's last state over every item's reversed walk context, (U, d)."""
        x = ad.gather_rows(self.params["entity_emb"], items.ctx_rev.T.ravel())
        return ad.gru_sequence(x, items.ctx_mask, self.gru)

    def item_stage(self, items: ItemInputs, force: str | None = None) -> ItemStage:
        """The user-free half of every item's representation, once per item:
        entity rows, neighbor rows, the walk-context GRU with its non-local
        aggregate, and the user-free terms of the gate and of the target logits.
        Both aggregates, tanh(e_h agg_W_h + agg_b + context agg_W_c), run as
        tanh(P_h + context agg_W_c); the gate s ⊙ c_local + (1 - s) ⊙ c_nonlocal
        keeps its second product here, and a_t = e_h w1 + fused w2 its first."""
        mode = self._resolve_force(force)
        e_h = ad.gather_rows(self.params["entity_emb"], items.entities)
        p_h = ad.affine(e_h, self.params["agg_W_h"], self.params["agg_b"])
        w_context = self.params["agg_W_c"]
        feat = tails = c_nonlocal = gate = share = None
        if mode != "nonlocal":
            feat, tails = self._neighbor_rows(e_h, items, w_context)
        if mode != "local":
            c_nonlocal = ad.tanh(ad.add(p_h, ad.matmul(self._walk_state(items), w_context)))
        if mode is None:
            gate = ad.sigmoid(self.params["gate_w"])
            share = ad.mul(ad.sub(1.0, gate), c_nonlocal)
        return ItemStage(e_h, p_h, feat, tails, c_nonlocal, gate, share,
                         self._logit_half(e_h, 1), items.rels.shape[1])

    def user_stage(self, stage: ItemStage, user_rows,
                   row_items=None) -> tuple[Tensor, Tensor, Tensor | None]:
        """The halves of the q rows, entity rows (R, d) and fused context rows
        (R, d), and the neighbor attention (R, S), None when the local context
        is off.  Row r is user ``user_rows[r]`` with item ``row_items[r]`` of the
        stage, read by index; ``row_items=None`` means every item of the stage
        in order, for the one user in ``user_rows``, read from the stage's
        tables as they are.  ``m_u`` runs once per distinct user.
        """
        def rows(t: Tensor) -> Tensor:
            return t if row_items is None else ad.gather_rows(t, row_items)

        alpha = c_local = None
        if stage.feat is not None:
            if row_items is None:
                users, user_index = user_rows, None
            else:
                users, user_index = np.unique(user_rows, return_inverse=True)
            alpha = ad.neighbor_softmax(stage.feat, self._user_preferences(users), row_items,
                                        user_index, stage.local_size)
            c_local = ad.neighbor_aggregate(alpha, stage.tails, stage.p_h, row_items)
        if c_local is None:
            fused = rows(stage.c_nonlocal)
        elif stage.nonlocal_share is None:
            fused = c_local
        else:
            fused = ad.add(ad.mul(stage.gate, c_local), rows(stage.nonlocal_share))
        return rows(stage.e_h), fused, alpha

    def _stage_for(self, entities, contexts, force: str | None = None) -> ItemStage:
        """The item stage of items with these ItemContexts, a row each."""
        walks = [c.walk_context for c in contexts]
        items = ItemInputs.build(entities, [c.neighbors for c in contexts],
                                 *reverse_pad(walks, max(map(len, walks))))
        return self.item_stage(items, force=force)

    def _rows_for(self, user: int, entities, contexts,
                  force: str | None = None) -> tuple[Tensor, Tensor, Tensor | None]:
        """Both stages for one user over items with these ItemContexts, a row each."""
        return self.user_stage(self._stage_for(entities, contexts, force), [user])

    # -- the history head ----------------------------------------------------
    # Each affine over a concatenation runs as one product per input (w1..w4:
    # the (d, 1) hist_attn_w1..4; W_u, W_he, W_hf, b_u: user_agg_W_u, _he, _hf
    # and user_agg_b):
    #   score = e_u·e_h + c_u·fused,  c_u = relu(e_u W_u + b_u + sum_j beta_j V_j),
    #   V_j = e_h,j W_he + fused_j W_hf,  beta = softmax(tanh(a_t + h + b)),
    #   a_t = e_h w1 + fused w2,  h_j = e_h,j w3 + fused_j w4.
    # beta, c_u and the score are the fused ops history_softmax,
    # history_context and pair_scores.  A target's e_h w1 is the item stage's
    # ``entity_logits``.

    def _logit_half(self, rows: Tensor, k: int) -> Tensor:
        """rows w_k, (R, 1)."""
        return ad.matmul(rows, self.params[f"hist_attn_w{k}"])

    def _user_rows(self, users) -> tuple[Tensor, Tensor]:
        """(e_u, e_u W_u + b_u), one row per user."""
        e_u = ad.gather_rows(self.params["user_emb"], users)
        return e_u, ad.affine(e_u, self.params["user_agg_W_u"], self.params["user_agg_b"])

    def _history(self, e_h: Tensor, fused: Tensor, n: int) -> tuple[Tensor, Tensor]:
        """Logits h (H/n, n) of H history rows (the q halves) in groups of n,
        and their value rows V (H, d)."""
        logits = ad.add(self._logit_half(e_h, 3), self._logit_half(fused, 4))
        logits = ad.reshape(logits, e_h.shape[0] // n, n)
        return logits, ad.add(ad.matmul(e_h, self.params["user_agg_W_he"]),
                              ad.matmul(fused, self.params["user_agg_W_hf"]))

    def _attention(self, a_e: Tensor, f_t: Tensor, logits: Tensor) -> Tensor:
        """beta (T, n) of targets with logit halves a_e = e_t w1 (T, 1) and
        fused rows f_t; ``logits`` are (T, n), or (1, n) for one shared history."""
        return ad.history_softmax(ad.add(a_e, self._logit_half(f_t, 2)), logits,
                                  self.params["hist_attn_b"])

    def _head(self, user, e_t: Tensor, f_t: Tensor, a_e: Tensor, history,
              mask=None) -> tuple[Tensor, Tensor]:
        """(score (T, 1), c_u) of T targets with q halves (e_t, f_t) and logit
        halves a_e = e_t w1.  ``user`` is from ``_user_rows`` (one row per
        target, or one for all), ``history`` from ``_history`` (None when
        empty): one history shared by every target, or with ``mask`` (T, 1),
        which zeroes empty histories, one per target."""
        e_u, pre = user
        if history is None:
            c_u = ad.relu(pre)
        else:
            logits, values = history
            c_u = ad.history_context(self._attention(a_e, f_t, logits), values, pre, mask)
        return ad.pair_scores(e_u, e_t, c_u, f_t), c_u

    def shared_history_scores(self, user: int, e_h: Tensor, fused: Tensor,
                              entity_logits: Tensor, history) -> Tensor:
        """Scores (R, 1) of one user for every row of the halves (e_h, fused),
        whose logit halves e_h w1 are ``entity_logits``, all against their rows
        ``history`` (indices; empty for no history)."""
        hist = None
        if len(history):
            hist = self._history(ad.gather_rows(e_h, history), ad.gather_rows(fused, history),
                                 len(history))
        return self._head(self._user_rows([user]), e_h, fused, entity_logits, hist)[0]

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
        return self._rows_for(user, [entity], [ItemContext(neighbors, ())], force="local")[2]

    def local_embedding(self, user: int, entity: int, neighbors) -> Tensor:
        return self.kg_context(user, entity, neighbors, (), force="local")

    def nonlocal_embedding(self, entity: int, walk_context) -> Tensor:
        # no user enters the non-local context, so row 0's user is never read
        return self.kg_context(0, entity, (), walk_context, force="nonlocal")

    def kg_context(self, user: int, entity: int, neighbors, walk_context,
                   force: str | None = None) -> Tensor:
        """Gated fusion of the local and non-local context embeddings (1, d)."""
        return self._rows_for(user, [entity], [ItemContext(neighbors, walk_context)],
                              force=force)[1]

    def contextualized_item(self, user: int, item: int, context: ItemContext,
                            force: str | None = None) -> Tensor:
        """q_i = item entity embedding || fused context embedding, shape (1, 2d)."""
        e_h, fused, _ = self._rows_for(user, [self.item_entities[item]], [context],
                                       force=force)
        return ad.hstack(e_h, fused)

    def _halves(self, qs) -> tuple[Tensor, Tensor]:
        """(entity rows, fused rows) of a list of (1, 2d) q rows."""
        d = self.cfg.dim
        q = ad.reshape(ad.hstack(qs), len(qs), 2 * d)
        return ad.slice_cols(q, 0, d), ad.slice_cols(q, d, 2 * d)

    def history_attention(self, q_target: Tensor, history_qs) -> Tensor:
        """Relevance probabilities (1, N) of history items for one target."""
        n = len(history_qs)
        logits, _ = self._history(*self._halves(history_qs), n)
        e_t, f_t = self._halves([q_target])
        return self._attention(self._logit_half(e_t, 1), f_t, logits)

    def interaction_context(self, user: int, q_target: Tensor,
                            history_qs) -> Tensor:
        """p_u = user embedding || aggregated history context, shape (1, 2d)."""
        n = len(history_qs)
        hist = self._history(*self._halves(history_qs), n) if n else None
        u = self._user_rows([user])
        e_t, f_t = self._halves([q_target])
        return ad.hstack(u[0], self._head(u, e_t, f_t, self._logit_half(e_t, 1), hist)[1])

    def score(self, user: int, item: int, ctx: ScoreContext,
              force: str | None = None) -> Tensor:
        """Preference score, shape (1, 1): the target is row 0 of one pass
        over the target and history items."""
        items = [item] + [j for j, _ in ctx.history]
        contexts = [ctx.target] + [c for _, c in ctx.history]
        stage = self._stage_for(self.item_entities[items], contexts, force)
        e_h, fused, _ = self.user_stage(stage, [user])
        scores = self.shared_history_scores(user, e_h, fused, stage.entity_logits,
                                            np.arange(1, len(items)))
        return ad.gather_rows(scores, [0])

    # -- batched scoring for training ----------------------------------------

    def scores_batch(self, batch: PairBatch, force: str | None = None) -> list:
        """Scores for every target block; returns ``n_targets`` (B, 1) tensors.

        The user stage runs once over the history rows and once per target
        block, and the head reads its outputs, and each target's rows of the
        stage's logit halves, as they are."""
        b, n, k = batch.size, batch.history_size, batch.n_targets
        stage = self.item_stage(batch.items, force=force)

        def halves(rows: slice) -> tuple[Tensor, Tensor]:
            return self.user_stage(stage, batch.user_rows[rows], batch.row_items[rows])[:2]

        def target(block: int) -> tuple[Tensor, Tensor, Tensor]:
            rows = slice(block * b, (block + 1) * b)
            return *halves(rows), ad.gather_rows(stage.entity_logits, batch.row_items[rows])

        # tuple t's history is rows t*n .. t*n+n-1 of the trailing B*N rows
        history = self._history(*halves(slice(k * b, k * b + b * n)), n)
        user = self._user_rows(batch.tuple_users)
        return [self._head(user, *target(block), history, batch.history_mask)[0]
                for block in range(k)]
