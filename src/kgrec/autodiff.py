"""Reverse-mode automatic differentiation over small dense float64 matrices.

Everything the scoring model computes is assembled from the primitives in
this module.  Each op records a backward closure; ``Tensor.backward()``
replays them in reverse topological order.  Rank is capped at 2: scalars are
shape (1, 1) and vectors are rows.  Any op that produces a non-finite value
raises ``NumericError`` naming the producing op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .graph import InputError, read_artifact, write_artifact


class NumericError(RuntimeError):
    """An op produced NaN or Inf."""


class ShapeError(ValueError):
    """Operands violate an op's shape contract."""


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 2:
        raise ShapeError(f"rank-{arr.ndim} array not supported (max rank 2)")
    return np.atleast_2d(arr)


class Tensor:
    """A 2-D float64 array plus the bookkeeping needed for ``backward()``."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        self.data = _as_matrix(data)
        if not np.isfinite(self.data).all():
            raise NumericError(f"op '{op}' produced non-finite values")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self._parents: tuple[Tensor, ...] = ()
        self._backprop: Callable[[], None] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on shape {self.shape}")
        return float(self.data[0, 0])

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        Nodes used along several paths sum their incoming gradients.  A graph
        supports one ``backward()``: each node drops its backward closure and
        its parent links once its gradient has been passed on, so the tape is
        freed by reference counting instead of waiting for the cyclic
        collector (every closure refers back to its own output node).
        """
        if self.shape != (1, 1):
            raise ShapeError(f"backward() needs a scalar, got {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones((1, 1))
        while order:
            # popping drops the order's reference, so a node nobody else
            # holds is freed as soon as its own backprop has run
            node = order.pop()
            if node._backprop is not None:
                node._backprop()
                # every contribution to this node landed before its backprop
                # ran, so its gradient buffer is dead weight from here on
                node.grad = None
                node._backprop = None
                node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False, op="const")


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else constant(value)


def _finish(out: Tensor, parents: tuple[Tensor, ...], backprop: Callable[[], None]) -> Tensor:
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
    return out


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add one gradient contribution.

    ``owned`` marks ``g`` as a fresh array with no other references, which the
    first contribution may adopt without copying.  Views into another node's
    gradient must stay unowned or later accumulation would corrupt it.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # gradient of a broadcast operand collapses over the broadcast axes
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _broadcast_op(fn, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from exc


# ---------------------------------------------------------------------------
# elementwise and structural primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(_broadcast_op(np.add, a, b, "add"), op="add")

    def backprop():
        if a.requires_grad:
            g = _unbroadcast(out.grad, a.shape)
            _accum(a, g, owned=g is not out.grad)
        if b.requires_grad:
            g = _unbroadcast(out.grad, b.shape)
            _accum(b, g, owned=g is not out.grad)

    return _finish(out, (a, b), backprop)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(_broadcast_op(np.subtract, a, b, "sub"), op="sub")

    def backprop():
        if a.requires_grad:
            g = _unbroadcast(out.grad, a.shape)
            _accum(a, g, owned=g is not out.grad)
        if b.requires_grad:
            _accum(b, _unbroadcast(-out.grad, b.shape), owned=True)

    return _finish(out, (a, b), backprop)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(_broadcast_op(np.multiply, a, b, "mul"), op="mul")

    def backprop():
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad * b.data, a.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad * a.data, b.shape), owned=True)

    return _finish(out, (a, b), backprop)


def square(a: Tensor) -> Tensor:
    return mul(a, a)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = Tensor(a.data @ b.data, op="matmul")

    def backprop():
        if a.requires_grad:
            _accum(a, out.grad @ b.data.T, owned=True)
        if b.requires_grad:
            _accum(b, a.data.T @ out.grad, owned=True)

    return _finish(out, (a, b), backprop)


def hstack(*tensors) -> Tensor:
    """Concatenate along columns; row counts must agree."""
    if len(tensors) == 1 and isinstance(tensors[0], (list, tuple)):
        tensors = tuple(tensors[0])
    ts = [_wrap(t) for t in tensors]
    rows = ts[0].shape[0]
    if any(t.shape[0] != rows for t in ts):
        raise ShapeError(f"hstack: row counts differ: {[t.shape for t in ts]}")
    out = Tensor(np.concatenate([t.data for t in ts], axis=1), op="hstack")
    offsets = np.cumsum([0] + [t.shape[1] for t in ts])

    def backprop():
        for t, j0, j1 in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                _accum(t, out.grad[:, j0:j1])

    return _finish(out, tuple(ts), backprop)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] of {a.shape}")
    out = Tensor(a.data[:, start:stop].copy(), op="slice_cols")

    def backprop():
        buf = np.zeros_like(a.data)
        buf[:, start:stop] = out.grad
        _accum(a, buf, owned=True)

    return _finish(out, (a,), backprop)


def _row_index(indices, rows: int, op: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ShapeError(f"{op}: index out of range for {rows} rows")
    return idx


def _accum_rows(t: Tensor, idx: np.ndarray | None, g: np.ndarray) -> None:
    """Add row i of ``g`` into row idx[i] of t's gradient, where t is read as
    rows of g's width (consecutive rows of t form one row when g is wider).
    ``idx=None`` means every row in order; ``g`` is then adopted, so it must
    be a fresh array.

    One bincount over flat (row, col) cells sums duplicates in index order,
    as np.add.at does, at a fraction of its cost.
    """
    if not t.requires_grad:
        return
    if idx is None:
        _accum(t, g.reshape(t.shape), owned=True)
        return
    width = g.shape[1]
    cells = (idx[:, None] * width + np.arange(width)).ravel()
    buf = np.bincount(cells, weights=g.ravel(), minlength=t.data.size)
    # an empty index yields integer counts whatever the weights' type
    _accum(t, buf.astype(np.float64, copy=False).reshape(t.shape), owned=True)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by index; duplicate indices scatter-add on backward."""
    idx = _row_index(indices, a.shape[0], "gather_rows")
    out = Tensor(a.data[idx], op="gather_rows")

    def backprop():
        _accum_rows(a, idx, out.grad)

    return _finish(out, (a,), backprop)


def repeat_rows(a: Tensor, k: int) -> Tensor:
    """Repeat each row k times consecutively."""
    if k < 1:
        raise ShapeError("repeat_rows: k must be >= 1")
    out = Tensor(np.repeat(a.data, k, axis=0), op="repeat_rows")

    def backprop():
        _accum(a, out.grad.reshape(a.shape[0], k, a.shape[1]).sum(axis=1), owned=True)

    return _finish(out, (a,), backprop)


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != a.data.size:
        raise ShapeError(f"reshape: {a.shape} -> ({rows}, {cols})")
    out = Tensor(a.data.reshape(rows, cols), op="reshape")

    def backprop():
        _accum(a, out.grad.reshape(a.shape))

    return _finish(out, (a,), backprop)


def row_sums(a: Tensor) -> Tensor:
    """Sum each row; returns an (n, 1) column."""
    out = Tensor(a.data.sum(axis=1, keepdims=True), op="row_sums")

    def backprop():
        _accum(a, np.broadcast_to(out.grad, a.shape))

    return _finish(out, (a,), backprop)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.array([[a.data.sum()]]), op="sum_all")

    def backprop():
        _accum(a, np.full(a.shape, out.grad[0, 0]), owned=True)

    return _finish(out, (a,), backprop)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data), op="tanh")

    def backprop():
        _accum(a, out.grad * (1.0 - out.data * out.data), owned=True)

    return _finish(out, (a,), backprop)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), op="relu")

    def backprop():
        _accum(a, out.grad * (a.data > 0.0), owned=True)

    return _finish(out, (a,), backprop)


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # the tanh form cannot overflow, so it needs no split by sign
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(_sigmoid_data(a.data), op="sigmoid")

    def backprop():
        _accum(a, out.grad * out.data * (1.0 - out.data), owned=True)

    return _finish(out, (a,), backprop)


def log_sigmoid(a: Tensor) -> Tensor:
    out = Tensor(-np.logaddexp(0.0, -a.data), op="log_sigmoid")

    def backprop():
        # d/dx log(sigmoid(x)) = sigmoid(-x)
        _accum(a, out.grad * np.exp(-np.logaddexp(0.0, a.data)), owned=True)

    return _finish(out, (a,), backprop)


def _column_softmax(logits: np.ndarray, out=None) -> np.ndarray:
    """exp of (n, R) logits normalised down each column, one softmax per
    column; the caller shifts logits that could overflow exp.  Laid out so,
    every step runs along rows of R."""
    e = np.exp(logits, out=out)
    e /= e.sum(axis=0)
    return e


def _softmax_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (g - (g * y).sum(axis=1, keepdims=True)) * y


# ---------------------------------------------------------------------------
# fused neighbor attention
# ---------------------------------------------------------------------------
#
# The item stage holds S rows per item (neighbor k of item u is row u*S + k).
# Indexed, these ops read them by item index: the (R, S, d) rows are
# fancy-index copies that exist during the forward and are gathered again in
# backward, so the tape holds only the indices.  With ``row_items=None`` every
# item is a row, in order, and the ops read the tables as they are.


def _neighbor_items(row_items, table: Tensor, s: int, op: str) -> np.ndarray | None:
    return None if row_items is None else _row_index(row_items, table.shape[0] // s, op)


def _neighbor_rows(table: Tensor, s: int, items: np.ndarray | None) -> np.ndarray:
    """(R, S, d): the S rows of each row's item."""
    rows = table.data.reshape(-1, s, table.shape[1])
    return rows if items is None else rows[items]


def neighbor_softmax(feat: Tensor, m: Tensor, row_items, row_users, s: int) -> Tensor:
    """alpha (R, S): alpha[r, k] = softmax_k(feat[row_items[r]*S + k] . m[row_users[r]]).

    With ``row_items`` and ``row_users`` both None, row r is item r under m's
    only row, for every item: the logits are one ``feat @ m`` product.
    """
    if s < 1 or feat.shape[0] % s != 0 or feat.shape[1] != m.shape[1]:
        raise ShapeError(f"neighbor_softmax: feat {feat.shape}, m {m.shape}, S={s}")
    if (row_items is None) != (row_users is None) or (row_items is None and m.shape[0] != 1):
        raise ShapeError("neighbor_softmax: every-item rows need both indices None "
                         f"and one m row, got m {m.shape}")
    items = _neighbor_items(row_items, feat, s, "neighbor_softmax")
    users = (np.zeros(feat.shape[0] // s, dtype=np.intp) if row_users is None
             else _row_index(row_users, m.shape[0], "neighbor_softmax"))
    if items is not None and items.size != users.size:
        raise ShapeError(f"neighbor_softmax: {items.size} items for {users.size} users")
    # laid out (S, R), as history_softmax's logits are
    with np.errstate(over="ignore", invalid="ignore"):
        if items is None:
            logits = np.ascontiguousarray((feat.data @ m.data[0]).reshape(-1, s).T)
        else:
            logits = np.einsum("rsd,rd->sr", _neighbor_rows(feat, s, items), m.data[users])
        logits -= logits.max(axis=0)
        out = Tensor(_column_softmax(logits, out=logits).T, op="neighbor_softmax")

    def backprop():
        d_logits = _softmax_backward(out.grad, out.data)
        if feat.requires_grad:
            # one (S*d)-wide row per item: the item's S neighbor rows
            g = d_logits[:, :, None] * m.data[users][:, None, :]
            _accum_rows(feat, items, g.reshape(len(g), -1))
        if m.requires_grad:
            _accum_rows(m, users, np.einsum("rs,rsd->rd", d_logits,
                                            _neighbor_rows(feat, s, items)))

    return _finish(out, (feat, m), backprop)


def neighbor_aggregate(alpha: Tensor, tails: Tensor, base: Tensor, row_items) -> Tensor:
    """(R, d): row r is tanh(base[i] + sum_k alpha[r, k] * tails[i*S + k]) with
    i = row_items[r] and S = alpha's width; ``row_items=None`` means row r is
    item r, for every item."""
    s = alpha.shape[1]
    # base has one row per item, as tails has S
    if tails.shape[0] % s != 0 or base.shape != (tails.shape[0] // s, tails.shape[1]):
        raise ShapeError(f"neighbor_aggregate: tails {tails.shape}, base {base.shape}, S={s}")
    items = _neighbor_items(row_items, tails, s, "neighbor_aggregate")
    rows = base.shape[0] if items is None else items.size
    if rows != alpha.shape[0]:
        raise ShapeError(f"neighbor_aggregate: {rows} rows for alpha {alpha.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        pre = np.einsum("rs,rsd->rd", alpha.data, _neighbor_rows(tails, s, items))
        pre += base.data if items is None else base.data[items]
    # tanh saturates, so an overflow must be caught before it
    if not np.isfinite(pre).all():
        raise NumericError("op 'neighbor_aggregate' produced non-finite values")
    out = Tensor(np.tanh(pre, out=pre), op="neighbor_aggregate")

    def backprop():
        g = out.grad * (1.0 - out.data * out.data)
        if alpha.requires_grad:
            _accum(alpha, np.einsum("rd,rsd->rs", g, _neighbor_rows(tails, s, items)),
                   owned=True)
        if tails.requires_grad:
            _accum_rows(tails, items, (alpha.data[:, :, None] * g[:, None, :]).reshape(rows, -1))
        # last: with every item a row, base adopts g
        _accum_rows(base, items, g)

    return _finish(out, (alpha, tails, base), backprop)


# ---------------------------------------------------------------------------
# fused history attention
# ---------------------------------------------------------------------------
#
# T target rows attend over a history of n rows.  In the shared form every
# target reads one history: its logits are (1, n) and its value rows (n, d).
# In the per-tuple form target t reads its own, rows t*n .. t*n+n-1 of (T*n, d)
# value rows, with (T, n) logits and a (T, 1) mask that is 0.0 where the
# history is empty.


def history_softmax(a_t: Tensor, h: Tensor, b: Tensor) -> Tensor:
    """beta (T, n), the row-wise softmax of tanh(a_t + h + b): a_t (T, 1) per
    target, h (T, n) per target or (1, n) shared by all, b (1, 1)."""
    t, n = a_t.shape[0], h.shape[1]
    if a_t.shape[1] != 1 or h.shape[0] not in (1, t) or b.shape != (1, 1):
        raise ShapeError(f"history_softmax: a_t {a_t.shape}, h {h.shape}, b {b.shape}")
    # laid out (n, T) for _column_softmax
    act = np.empty((n, t))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(h.data.T, a_t.data.T, out=act)
        act += b.data
    # tanh saturates, so an overflow must be caught before it
    if not np.isfinite(act).all():
        raise NumericError("op 'history_softmax' produced non-finite values")
    np.tanh(act, out=act)
    # tanh bounds the logits to [-1, 1], so exp needs no shift by their maximum
    out = Tensor(_column_softmax(act).T, op="history_softmax")

    def backprop():
        g = _softmax_backward(out.grad, out.data)
        g *= 1.0 - act.T * act.T
        _accum(a_t, g.sum(axis=1, keepdims=True), owned=True)
        _accum(b, _unbroadcast(g, b.shape), owned=True)
        # last: a per-target h adopts g
        _accum(h, _unbroadcast(g, h.shape), owned=True)

    return _finish(out, (a_t, h, b), backprop)


def history_context(beta: Tensor, values: Tensor, pre: Tensor, mask=None) -> Tensor:
    """c_u (T, d) = relu(pre + sum_j beta[t, j] v_j) over T targets, with
    pre (T, d) per target or (1, d) shared by all.  Without ``mask`` the n
    value rows (n, d) are one history shared by every target; with ``mask``
    (T, 1) they are (T*n, d), n per target, and the mask scales each sum."""
    t, n = beta.shape
    d = values.shape[1]
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
    if (values.shape[0] != (n if mask is None else t * n) or pre.shape[1] != d
            or pre.shape[0] not in (1, t) or (mask is not None and mask.shape != (t, 1))):
        raise ShapeError(f"history_context: beta {beta.shape}, values {values.shape}, "
                         f"pre {pre.shape}, mask {None if mask is None else mask.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if mask is None:
            data = beta.data @ values.data
        else:
            data = np.einsum("tn,tnd->td", beta.data, values.data.reshape(t, n, d))
            data *= mask
        data += pre.data
    out = Tensor(np.maximum(data, 0.0, out=data), op="history_context")

    def backprop():
        g = out.grad * (out.data > 0.0)
        g_sum = g if mask is None else g * mask
        if beta.requires_grad:
            _accum(beta, g_sum @ values.data.T if mask is None else
                   np.einsum("td,tnd->tn", g_sum, values.data.reshape(t, n, d)), owned=True)
        if values.requires_grad:
            # beta may be laid out by columns; out= keeps the rows contiguous
            _accum(values, beta.data.T @ g_sum if mask is None else
                   np.multiply(beta.data[:, :, None], g_sum[:, None, :],
                               out=np.empty((t, n, d))).reshape(t * n, d), owned=True)
        # last: a per-target pre adopts g
        _accum(pre, _unbroadcast(g, pre.shape), owned=True)

    return _finish(out, (beta, values, pre), backprop)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(T, 1) dot products of the rows of b with a's rows, or with a's one row."""
    return (b @ a[0] if a.shape[0] == 1 else np.einsum("td,td->t", a, b))[:, None]


def pair_scores(e_u: Tensor, e_t: Tensor, c_u: Tensor, f_t: Tensor) -> Tensor:
    """(T, 1): row t is e_u·e_t + c_u·f_t, the user halves (e_u, c_u) against
    the item halves (e_t, f_t), each (T, d); a user half of one row is shared
    by every target."""
    t, d = e_t.shape
    if f_t.shape != (t, d) or any(u.shape[1] != d or u.shape[0] not in (1, t)
                                  for u in (e_u, c_u)):
        raise ShapeError(f"pair_scores: e_u {e_u.shape}, e_t {e_t.shape}, "
                         f"c_u {c_u.shape}, f_t {f_t.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        data = _row_dots(e_u.data, e_t.data)
        data += _row_dots(c_u.data, f_t.data)
    out = Tensor(data, op="pair_scores")

    def backprop():
        g = out.grad
        for user, item in ((e_u, e_t), (c_u, f_t)):
            if user.requires_grad:
                _accum(user, _unbroadcast(g * item.data, user.shape), owned=True)
            if item.requires_grad:
                _accum(item, g * user.data, owned=True)

    return _finish(out, (e_u, e_t, c_u, f_t), backprop)


def elementwise_gate(s, a, b) -> Tensor:
    """s ⊙ a + (1 - s) ⊙ b, broadcasting s as needed, as one node."""
    s, a, b = _wrap(s), _wrap(a), _wrap(b)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            data = s.data * a.data + (1.0 - s.data) * b.data
    except ValueError as exc:
        raise ShapeError(f"elementwise_gate: incompatible shapes {s.shape}, {a.shape} "
                         f"and {b.shape}") from exc
    out = Tensor(data, op="elementwise_gate")

    def backprop():
        g = out.grad
        if a.requires_grad:
            _accum(a, _unbroadcast(g * s.data, a.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * (1.0 - s.data), b.shape), owned=True)
        if s.requires_grad:
            _accum(s, _unbroadcast(g * a.data, s.shape) - _unbroadcast(g * b.data, s.shape),
                   owned=True)

    return _finish(out, (s, a, b), backprop)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


# ---------------------------------------------------------------------------
# gated recurrent unit
# ---------------------------------------------------------------------------


@dataclass
class GruParams:
    """Weights of one gated recurrent cell (update z, reset r, candidate c)."""

    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wc: Tensor
    uc: Tensor
    bc: Tensor


def gru_sequence(x: Tensor, mask, p: GruParams) -> Tensor:
    """The last state (U, d) of U sequences of C steps from a zero state.

    ``x`` is step-major, (C*U, d_in): row k*U + u is step k of sequence u.
    ``mask`` (U, C) is 1.0 where a step is real; a sequence keeps its state
    over a masked step.  Each step runs h' = (1 - z) ⊙ h + z ⊙ tanh(xWc +
    (r ⊙ h)Uc + bc), with z = sigmoid(xWz + bz + hUz) and r = sigmoid(xWr +
    br + hUr), then h = m ⊙ h' + (1 - m) ⊙ h.

    One tape node whose backward runs back through the steps, after
    Appleyard et al. (arXiv:1604.01946).  A non-finite gate pre-activation
    raises ``NumericError`` too, although the saturating nonlinearity would
    hide it.
    """
    x = _wrap(x)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2 or x.shape[0] != mask.size or x.shape[1] != p.wz.shape[0]:
        raise ShapeError(f"gru_sequence: x {x.shape}, mask {mask.shape}, W {p.wz.shape}")
    weights = (p.wz, p.uz, p.bz, p.wr, p.ur, p.br, p.wc, p.uc, p.bc)
    units, n_steps = mask.shape
    hs = np.zeros((units, p.uz.shape[0]))
    # the backward's inputs, one tuple per step, kept only for a backward
    steps = [] if x.requires_grad or any(w.requires_grad for w in weights) else None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            xs = x.data[k * units:(k + 1) * units]
            pre_z = xs @ p.wz.data + p.bz.data
            pre_c = xs @ p.wc.data + p.bc.data
            # step 0 starts from the zero state: its recurrent products and
            # its reset gate are zero, and adding them changes no bit
            r = rh = None
            if k:
                pre_z += hs @ p.uz.data
                pre_r = xs @ p.wr.data + p.br.data + hs @ p.ur.data
                r = _sigmoid_data(pre_r)
                rh = r * hs
                pre_c += rh @ p.uc.data
                if not np.isfinite(pre_r).all():
                    raise NumericError("op 'gru_sequence' produced non-finite values")
            if not (np.isfinite(pre_z).all() and np.isfinite(pre_c).all()):
                raise NumericError("op 'gru_sequence' produced non-finite values")
            z = _sigmoid_data(pre_z)
            c = np.tanh(pre_c)
            m = mask[:, k:k + 1]
            if steps is not None:
                steps.append((xs, hs, r, rh, z, c, m))
            hs = m * (z * c + (1.0 - z) * hs) + (1.0 - m) * hs
    out = Tensor(hs, op="gru_sequence")

    def backprop():
        g = out.grad
        d_x = np.zeros((n_steps, units, x.shape[1]))
        for k in range(n_steps - 1, -1, -1):
            xs, hs, r, rh, z, c, m = steps[k]
            g_new = g * m
            d_c = g_new * z * (1.0 - c * c)
            d_z = g_new * (c - hs) * z * (1.0 - z)
            if not k:
                # the zero state feeds no weight of step 0's recurrent products
                # or reset gate, and its own gradient is not needed
                for pre, w, b in ((d_z, p.wz, p.bz), (d_c, p.wc, p.bc)):
                    if w.requires_grad:
                        _accum(w, xs.T @ pre, owned=True)
                    if b.requires_grad:
                        _accum(b, pre.sum(axis=0, keepdims=True), owned=True)
                d_x[k] = d_z @ p.wz.data.T + d_c @ p.wc.data.T
                continue
            d_rh = d_c @ p.uc.data.T
            d_r = d_rh * hs * r * (1.0 - r)
            for pre, w, u, b, u_in in ((d_z, p.wz, p.uz, p.bz, hs),
                                       (d_r, p.wr, p.ur, p.br, hs),
                                       (d_c, p.wc, p.uc, p.bc, rh)):
                if w.requires_grad:
                    _accum(w, xs.T @ pre, owned=True)
                if u.requires_grad:
                    _accum(u, u_in.T @ pre, owned=True)
                if b.requires_grad:
                    _accum(b, pre.sum(axis=0, keepdims=True), owned=True)
            d_x[k] = d_z @ p.wz.data.T + d_r @ p.wr.data.T + d_c @ p.wc.data.T
            g = (g_new * (1.0 - z) + d_rh * r + d_z @ p.uz.data.T + d_r @ p.ur.data.T
                 + g * (1.0 - m))
        _accum(x, d_x.reshape(x.shape), owned=True)

    return _finish(out, (x, *weights), backprop)


# ---------------------------------------------------------------------------
# parameter registry, Adam, gradient checking
# ---------------------------------------------------------------------------


class ParamRegistry:
    """Named learnable tensors with persistent gradient buffers."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def register(self, name: str, value) -> Tensor:
        if name in self._entries:
            raise ValueError(f"parameter {name!r} already registered")
        t = Tensor(np.array(value, dtype=np.float64, copy=True),
                   requires_grad=True, op=f"param:{name}")
        t.grad = np.zeros_like(t.data)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._entries.items()

    def zero_grads(self) -> None:
        for t in self._entries.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            else:
                t.grad.fill(0.0)

    def l2_penalty(self) -> Tensor:
        """Sum of squared entries over every tensor, as one tape node: its
        backward adds 2 g θ into each tensor's gradient."""
        params = tuple(self._entries.values())
        out = Tensor(sum(np.vdot(t.data, t.data) for t in params), op="l2_penalty")

        def backprop():
            scale = 2.0 * out.grad[0, 0]
            for t in params:
                _accum(t, scale * t.data, owned=True)

        return _finish(out, params, backprop)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._entries.items()}

    def restore(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            self[name].data[...] = arr


class AdamState:
    """Per-parameter moment estimates for bias-corrected Adam."""

    def __init__(self, registry: ParamRegistry, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in registry.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in registry.items()}
        # one scratch pair sized to the largest parameter, sliced per
        # parameter, so a step allocates nothing
        size = max((t.data.size for _, t in registry.items()), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, registry: ParamRegistry, eta: float) -> None:
        """Apply one update to all parameters, then zero gradients.

        In place, in the operation order of  m = b1 m + (1-b1) g,
        v = b2 v + (1-b2) g g,  p -= eta (m/c1) / (sqrt(v/c2) + eps).
        """
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name, p in registry.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            step, denom = (buf[:g.size].reshape(g.shape) for buf in self._scratch)
            m *= self.beta1
            np.multiply(1.0 - self.beta1, g, out=step)
            m += step
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=step)
            step *= g
            v += step
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, c1, out=step)
            np.multiply(eta, step, out=step)
            step /= denom
            p.data -= step
            if not np.isfinite(p.data).all():
                raise NumericError(f"adam update produced non-finite values in {name!r}")
        registry.zero_grads()


def finite_difference_check(f: Callable[[], Tensor], registry: ParamRegistry,
                            names: Iterable[str] | None = None, eps: float = 1e-5,
                            max_coords: int = 20,
                            rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    Perturbs a random sample of coordinates per parameter and returns the
    worst relative error  |a - n| / max(|a|, |n|, 1)  over the sample.  ``f``
    must be a pure function of the registry values.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if names is None:
        names = [name for name, _ in registry.items()]
    names = list(names)
    loss = f()
    registry.zero_grads()
    loss.backward()
    analytic = {name: registry[name].grad.copy() for name in names}
    registry.zero_grads()
    worst = 0.0
    for name in names:
        p = registry[name]
        size = p.data.size
        coords = rng.choice(size, size=min(max_coords, size), replace=False)
        flat = p.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = f().item()
            flat[c] = orig - eps
            f_minus = f().item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[name].reshape(-1)[c]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

class CheckpointError(InputError):
    """A checkpoint file is not in the format ``save_checkpoint`` writes."""


_CKPT_MAGIC = b"KGCK"
_CKPT_VERSION = 3
# the model config and the table sizes; the tensors are the file's arrays
_CKPT_FIELDS = {"dim": int, "local_size": int, "history_size": int, "disable_local": bool,
                "disable_nonlocal": bool, "disable_user_attention": bool,
                "n_users": int, "n_entities": int, "n_relations": int}


def save_checkpoint(path, registry: ParamRegistry, meta: dict) -> None:
    """Write every registered tensor under ``meta``, which holds each
    ``read_checkpoint_meta`` field but ``n_params``."""
    write_artifact(path, _CKPT_MAGIC, _CKPT_VERSION,
                   {name: kind(meta[name]) for name, kind in _CKPT_FIELDS.items()},
                   {name: t.data for name, t in registry.items()})


def _read_checkpoint(path) -> tuple[dict, dict]:
    meta, arrays = read_artifact(path, _CKPT_MAGIC, _CKPT_VERSION, "checkpoint",
                                 CheckpointError, _CKPT_FIELDS)
    return {**meta, "n_params": len(arrays)}, arrays


def read_checkpoint_meta(path) -> dict:
    return _read_checkpoint(path)[0]


def load_checkpoint(path, registry: ParamRegistry) -> dict:
    """Load saved tensors into an already-shaped registry; validates shapes."""
    meta, arrays = _read_checkpoint(path)
    for name, values in arrays.items():
        if name not in registry:
            raise CheckpointError(f"{path}: unknown parameter {name!r}")
        if (values.dtype.str, values.shape) != ("<f8", registry[name].shape):
            raise CheckpointError(f"{path}: parameter {name!r} has shape {values.shape} of "
                                  f"{values.dtype.str}, expected {registry[name].shape} of <f8")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: parameter {name!r} holds non-finite values")
        registry[name].data[...] = values
    missing = set(registry.names()) - set(arrays)
    if missing:
        raise CheckpointError(f"{path}: missing parameters {sorted(missing)}")
    return meta
