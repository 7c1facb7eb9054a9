"""Gradient and contract tests for the autodiff core.

Every primitive's analytic gradient is compared against central finite
differences (eps = 1e-5, float64) over repeated random draws.
"""

import gc
import struct
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrec import autodiff as ad
from kgrec.autodiff import (AdamState, CheckpointError, GruParams, NumericError,
                            ParamRegistry, ShapeError, Tensor, finite_difference_check,
                            gru_sequence, load_checkpoint,
                            read_checkpoint_meta, save_checkpoint)

import synth

N_DRAWS = 50

GRU_NAMES = ("gru_wz", "gru_uz", "gru_bz", "gru_wr", "gru_ur", "gru_br",
             "gru_wc", "gru_uc", "gru_bc")
# rows of the fused neighbor ops: items and users both repeat, and the same
# item appears under several users
NBR_ITEMS = [2, 0, 2, 1, 2, 0, 3]
NBR_USERS = [1, 1, 0, 2, 0, 1, 2]
NBR_S = 3
# walk-context masks (U, C): full, partial and zero-length rows
GRU_MASK = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=float)
# history attention: T targets over n history rows; target 1's history is
# empty in the per-tuple form
HIST_T, HIST_N = 4, 3
HIST_MASK = np.array([[1.0], [0.0], [1.0], [1.0]])


def _gru_shapes(dx, dh, mask):
    """Weights, and step-major inputs x for every step of ``mask``."""
    shapes = {name: (1, dh) if name.endswith(("bz", "br", "bc"))
              else (dx if name[-2] == "w" else dh, dh) for name in GRU_NAMES}
    return {**shapes, "x": (mask.size, dx)}


def _gru_params(reg):
    return GruParams(*(reg[name] for name in GRU_NAMES))


def _registry_with(rng, shapes):
    reg = ParamRegistry()
    for name, shape in shapes.items():
        reg.register(name, rng.uniform(-1.0, 1.0, size=shape))
    return reg


def _check(build, shapes, rng, tol=1e-6, nudge=None):
    reg = _registry_with(rng, shapes)
    if nudge:
        nudge(reg)
    weight = ad.constant(rng.uniform(-1.0, 1.0, size=build(reg).shape))
    err = finite_difference_check(lambda: ad.sum_all(ad.mul(build(reg), weight)),
                                  reg, eps=1e-5, max_coords=12, rng=rng)
    assert err < tol, f"max relative error {err}"


@pytest.mark.parametrize("name,builder,shapes", [
    ("add", lambda r: ad.add(r["a"], r["b"]), {"a": (3, 4), "b": (3, 4)}),
    ("add_broadcast", lambda r: ad.add(r["a"], r["b"]), {"a": (3, 4), "b": (1, 4)}),
    ("sub", lambda r: ad.sub(r["a"], r["b"]), {"a": (2, 5), "b": (2, 5)}),
    ("mul", lambda r: ad.mul(r["a"], r["b"]), {"a": (3, 4), "b": (3, 4)}),
    ("mul_broadcast", lambda r: ad.mul(r["a"], r["b"]), {"a": (4, 3), "b": (4, 1)}),
    ("square", lambda r: ad.square(r["a"]), {"a": (2, 3)}),
    ("matmul", lambda r: ad.matmul(r["a"], r["b"]), {"a": (3, 4), "b": (4, 2)}),
    # the history attention's logits: rows times a (d, 1) weight column
    ("matmul_column", lambda r: ad.matmul(r["a"], r["b"]), {"a": (3, 4), "b": (4, 1)}),
    ("hstack", lambda r: ad.hstack(r["a"], r["b"]), {"a": (3, 2), "b": (3, 4)}),
    ("slice_cols", lambda r: ad.slice_cols(r["a"], 1, 4), {"a": (3, 5)}),
    ("gather_dup", lambda r: ad.gather_rows(r["a"], [0, 2, 0, 1, 0]), {"a": (3, 4)}),
    ("repeat_rows", lambda r: ad.repeat_rows(r["a"], 3), {"a": (2, 4)}),
    ("sum_row_groups", lambda r: synth.sum_row_groups(r["a"], 2), {"a": (6, 3)}),
    ("reshape", lambda r: ad.reshape(r["a"], 6, 2), {"a": (3, 4)}),
    ("row_sums", lambda r: ad.row_sums(r["a"]), {"a": (4, 5)}),
    ("tanh", lambda r: ad.tanh(r["a"]), {"a": (3, 4)}),
    ("sigmoid", lambda r: ad.sigmoid(r["a"]), {"a": (3, 4)}),
    ("log_sigmoid", lambda r: ad.log_sigmoid(r["a"]), {"a": (3, 4)}),
    ("softmax_rows", lambda r: synth.softmax_rows(r["a"]), {"a": (4, 5)}),
    # the model's gate s ⊙ c_local + (1 - s) ⊙ c_nonlocal: a (1, d) row
    # times rows, and a number minus a row
    ("mul_row_broadcast", lambda r: ad.mul(r["s"], r["a"]), {"s": (1, 4), "a": (3, 4)}),
    ("sub_from_number", lambda r: ad.sub(1.0, r["a"]), {"a": (1, 4)}),
    ("gru_sequence", lambda r: gru_sequence(r["x"], GRU_MASK, _gru_params(r)),
     _gru_shapes(3, 4, GRU_MASK)),
    ("neighbor_softmax",
     lambda r: ad.neighbor_softmax(r["f"], r["m"], NBR_ITEMS, NBR_USERS, NBR_S),
     {"f": (4 * NBR_S, 5), "m": (3, 5)}),
    ("neighbor_aggregate", lambda r: ad.neighbor_aggregate(r["a"], r["e"], r["b"], NBR_ITEMS),
     {"a": (len(NBR_ITEMS), NBR_S), "e": (4 * NBR_S, 5), "b": (4, 5)}),
    # every item in order, under one user
    ("neighbor_softmax_all", lambda r: ad.neighbor_softmax(r["f"], r["m"], None, None, NBR_S),
     {"f": (4 * NBR_S, 5), "m": (1, 5)}),
    ("neighbor_aggregate_all", lambda r: ad.neighbor_aggregate(r["a"], r["e"], r["b"], None),
     {"a": (4, NBR_S), "e": (4 * NBR_S, 5), "b": (4, 5)}),
    # a history per target, and one shared by all targets
    ("history_softmax", lambda r: ad.history_softmax(r["a"], r["h"], r["b"]),
     {"a": (HIST_T, 1), "h": (HIST_T, HIST_N), "b": (1, 1)}),
    ("history_softmax_shared", lambda r: ad.history_softmax(r["a"], r["h"], r["b"]),
     {"a": (HIST_T, 1), "h": (1, HIST_N), "b": (1, 1)}),
    ("history_context", lambda r: ad.history_context(r["s"], r["v"], r["p"], HIST_MASK),
     {"s": (HIST_T, HIST_N), "v": (HIST_T * HIST_N, 5), "p": (HIST_T, 5)}),
    ("history_context_shared", lambda r: ad.history_context(r["s"], r["v"], r["p"]),
     {"s": (HIST_T, HIST_N), "v": (HIST_N, 5), "p": (1, 5)}),
    ("pair_scores", lambda r: ad.pair_scores(r["u"], r["e"], r["c"], r["f"]),
     {"u": (HIST_T, 5), "e": (HIST_T, 5), "c": (HIST_T, 5), "f": (HIST_T, 5)}),
    ("pair_scores_shared", lambda r: ad.pair_scores(r["u"], r["e"], r["c"], r["f"]),
     {"u": (1, 5), "e": (HIST_T, 5), "c": (1, 5), "f": (HIST_T, 5)}),
])
def test_primitive_gradients(name, builder, shapes):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(N_DRAWS):
        _check(builder, shapes, rng)


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(5)
    for _ in range(N_DRAWS):
        reg = ParamRegistry()
        # keep inputs away from zero: central differences straddle the kink
        vals = rng.uniform(0.1, 1.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
        reg.register("a", vals)
        err = finite_difference_check(lambda: ad.sum_all(ad.relu(reg["a"])), reg,
                                      eps=1e-5, max_coords=12, rng=rng)
        assert err < 1e-6


def test_affine_gradient_tight():
    rng = np.random.default_rng(7)
    for _ in range(N_DRAWS):
        reg = _registry_with(rng, {"x": (2, 3), "w": (3, 4), "b": (1, 4)})
        err = finite_difference_check(
            lambda: ad.sum_all(ad.affine(reg["x"], reg["w"], reg["b"])),
            reg, eps=1e-5, max_coords=12, rng=rng)
        assert err < 1e-6


def _softmaxes(x):
    """The row softmax of x (1, k) by each softmax in autodiff: the neighbor
    attention's over logits feat @ m, and the history attention's over
    tanh(0 + x + 0)."""
    k = x.shape[1]
    zero = ad.constant(np.zeros((1, 1)))
    return (ad.neighbor_softmax(ad.constant(x.data.T), ad.constant([[1.0]]), None, None, k),
            ad.history_softmax(zero, x, zero))


def test_softmax_is_probability_vector():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = ad.constant(rng.normal(scale=5.0, size=(1, int(rng.integers(1, 9)))))
        for y in _softmaxes(x):
            assert (y.data >= 0).all()
            assert abs(y.data.sum() - 1.0) <= 1e-12


def test_softmax_uniform_on_equal_inputs():
    for y in _softmaxes(ad.constant(np.zeros((1, 3)))):
        np.testing.assert_allclose(y.data, np.full((1, 3), 1 / 3), atol=0)


def test_gate_output_between_inputs():
    """s ⊙ a + (1 - s) ⊙ b from mul, sub and add, as the model blends its two
    contexts, stays coordinatewise between a and b up to rounding."""
    rng = np.random.default_rng(13)
    for _ in range(200):
        s = ad.sigmoid(ad.constant(rng.normal(size=(2, 4))))
        a = ad.constant(rng.normal(size=(2, 4)))
        b = ad.constant(rng.normal(size=(2, 4)))
        out = synth.unfused_gate(s, a, b).data
        lo = np.minimum(a.data, b.data)
        hi = np.maximum(a.data, b.data)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()


def test_backward_simple_quadratic():
    reg = ParamRegistry()
    x = reg.register("x", [[1.0, -2.0, 3.0]])
    ad.sum_all(ad.square(x)).backward()
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_backward_sums_over_reused_node():
    reg = ParamRegistry()
    x = reg.register("x", [[2.0]])
    # f = x*x + 3x -> df/dx = 2x + 3 = 7
    loss = ad.add(ad.mul(x, x), ad.mul(x, 3.0))
    loss.backward()
    assert x.grad[0, 0] == pytest.approx(7.0)


def test_backward_requires_scalar():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with pytest.raises(ShapeError):
        x.backward()


def test_backward_frees_the_tape_without_the_cyclic_collector():
    reg = ParamRegistry()
    x = reg.register("x", [[0.5, -1.0, 2.0]])
    mid = ad.tanh(ad.mul(x, 3.0))
    loss = ad.sum_all(ad.square(mid))
    alive = weakref.ref(mid.data)
    del mid
    gc.disable()
    try:
        loss.backward()
        del loss
        assert alive() is None
    finally:
        gc.enable()
    assert np.abs(x.grad).sum() > 0.0


def test_gather_rows_backward_equals_add_at():
    rng = np.random.default_rng(29)
    cases = [(5, 3, [4, 0, 4, 4, 2, 0]), (1, 1, [0, 0, 0]), (4, 2, []), (3, 0, [1, 2])]
    for _ in range(50):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        cases.append((rows, cols, rng.integers(0, rows, size=int(rng.integers(0, 4 * rows)))))
    for rows, cols, picks in cases:
        reg = ParamRegistry()
        a = reg.register("a", np.zeros((rows, cols)))
        weight = rng.normal(size=(len(picks), cols)) * 10.0 ** rng.integers(-8, 8)
        ad.sum_all(ad.mul(ad.gather_rows(a, picks), ad.constant(weight))).backward()
        expected = np.zeros((rows, cols))
        np.add.at(expected, np.asarray(picks, dtype=np.intp), weight)
        np.testing.assert_array_equal(a.grad, expected)
    # an empty gather's gradient can be the first one an intermediate adopts
    for first, second in (([], [0, 0]), ([0, 0], [])):
        reg = ParamRegistry()
        x = reg.register("x", [[1.0], [2.0]])
        mid = ad.mul(x, 2.0)
        ad.add(ad.sum_all(ad.gather_rows(mid, first)),
               ad.sum_all(ad.gather_rows(mid, second))).backward()
        np.testing.assert_array_equal(x.grad, [[4.0], [0.0]])


def test_shape_errors():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((4, 5)))
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.matmul(a, b)
    with pytest.raises(ShapeError):
        ad.hstack(a, ad.constant(np.ones((3, 3))))
    # the history ops: a_t one column, h one row or one per target, n value
    # rows shared or n per target with a (T, 1) mask, user halves of one row
    # or one per target
    a_t, beta, pre = (ad.constant(np.ones(shape)) for shape in ((3, 1), (3, 2), (1, 4)))
    for a, h, b in ((a_t, np.ones((2, 2)), [[0.0]]), (beta, np.ones((1, 2)), [[0.0]]),
                    (a_t, np.ones((1, 2)), [[0.0, 0.0]])):
        with pytest.raises(ShapeError):
            ad.history_softmax(a, ad.constant(h), ad.constant(b))
    for rows, mask in ((6, None), (2, np.ones((3, 1))), (6, np.ones((2, 1)))):
        with pytest.raises(ShapeError):
            ad.history_context(beta, ad.constant(np.ones((rows, 4))), pre, mask)
    with pytest.raises(ShapeError):
        ad.history_context(beta, ad.constant(np.ones((2, 4))), ad.constant(np.ones((2, 4))))
    e_t = ad.constant(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        ad.pair_scores(ad.constant(np.ones((2, 4))), e_t, pre, e_t)
    with pytest.raises(ShapeError):
        ad.pair_scores(pre, e_t, pre, ad.constant(np.ones((3, 3))))
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2)))
    reg = _registry_with(np.random.default_rng(0), _gru_shapes(2, 2, GRU_MASK))
    # one step-major row short of the mask's 15
    with pytest.raises(ShapeError):
        gru_sequence(ad.constant(reg["x"].data[1:]), GRU_MASK, _gru_params(reg))


def test_non_finite_output_aborts_with_op_name():
    big = ad.constant(np.full((1, 1), 1e200))
    with pytest.raises(NumericError, match="mul"):
        ad.mul(big, big)


def _unfused_neighbor_softmax(feat, m, items, users, s):
    cells = (np.asarray(items)[:, None] * s + np.arange(s)).ravel()
    scores = ad.row_sums(ad.mul(ad.gather_rows(feat, cells),
                                ad.repeat_rows(ad.gather_rows(m, users), s)))
    return synth.softmax_rows(ad.reshape(scores, len(items), s))


def _unfused_neighbor_sum(alpha, e_t, items):
    rows, s = alpha.shape
    cells = (np.asarray(items)[:, None] * s + np.arange(s)).ravel()
    weighted = ad.mul(ad.reshape(alpha, rows * s, 1), ad.gather_rows(e_t, cells))
    return synth.sum_row_groups(weighted, s)


def _unfused_neighbor_aggregate(alpha, tails, base, items):
    return ad.tanh(ad.add(ad.gather_rows(base, items), _unfused_neighbor_sum(alpha, tails, items)))


_FUSED_CASES = {
    "neighbor_softmax": (
        lambda r: ad.neighbor_softmax(r["f"], r["m"], NBR_ITEMS, NBR_USERS, NBR_S),
        lambda r: _unfused_neighbor_softmax(r["f"], r["m"], NBR_ITEMS, NBR_USERS, NBR_S),
        {"f": (4 * NBR_S, 6), "m": (3, 6)}),
    "neighbor_aggregate": (
        lambda r: ad.neighbor_aggregate(synth.softmax_rows(r["a"]), r["e"], r["b"], NBR_ITEMS),
        lambda r: _unfused_neighbor_aggregate(synth.softmax_rows(r["a"]), r["e"], r["b"],
                                              NBR_ITEMS),
        {"a": (len(NBR_ITEMS), NBR_S), "e": (4 * NBR_S, 6), "b": (4, 6)}),
    # the GRU and the shared history context keep the unfused arithmetic,
    # so their forward is compared bit for bit (see _EXACT)
    "gru_sequence": (
        lambda r: gru_sequence(r["x"], GRU_MASK, _gru_params(r)),
        lambda r: synth.gru_run(r["x"], GRU_MASK, _gru_params(r)),
        _gru_shapes(5, 4, GRU_MASK)),
    "history_softmax": (
        lambda r: ad.history_softmax(r["a"], r["h"], r["b"]),
        lambda r: synth.unfused_history_softmax(r["a"], r["h"], r["b"]),
        {"a": (HIST_T, 1), "h": (HIST_T, HIST_N), "b": (1, 1)}),
    "history_softmax_shared": (
        lambda r: ad.history_softmax(r["a"], r["h"], r["b"]),
        lambda r: synth.unfused_history_softmax(r["a"], r["h"], r["b"]),
        {"a": (HIST_T, 1), "h": (1, HIST_N), "b": (1, 1)}),
    "history_context": (
        lambda r: ad.history_context(synth.softmax_rows(r["s"]), r["v"], r["p"], HIST_MASK),
        lambda r: synth.unfused_history_context(synth.softmax_rows(r["s"]), r["v"], r["p"],
                                                HIST_MASK),
        {"s": (HIST_T, HIST_N), "v": (HIST_T * HIST_N, 6), "p": (HIST_T, 6)}),
    "history_context_shared": (
        lambda r: ad.history_context(synth.softmax_rows(r["s"]), r["v"], r["p"]),
        lambda r: synth.unfused_history_context(synth.softmax_rows(r["s"]), r["v"], r["p"]),
        {"s": (HIST_T, HIST_N), "v": (HIST_N, 6), "p": (1, 6)}),
    "pair_scores": (
        lambda r: ad.pair_scores(r["u"], r["e"], r["c"], r["f"]),
        lambda r: synth.unfused_pair_scores(r["u"], r["e"], r["c"], r["f"]),
        {"u": (HIST_T, 6), "e": (HIST_T, 6), "c": (HIST_T, 6), "f": (HIST_T, 6)}),
    "pair_scores_shared": (
        lambda r: ad.pair_scores(r["u"], r["e"], r["c"], r["f"]),
        lambda r: synth.unfused_pair_scores(r["u"], r["e"], r["c"], r["f"]),
        {"u": (1, 6), "e": (HIST_T, 6), "c": (1, 6), "f": (HIST_T, 6)}),
}
# the cases whose values, and whose gradients, are compared bit for bit; the
# history softmax drops the shift by the row maximum and sums down columns,
# and the row dots and the per-tuple sums may run in another order
_EXACT = {"values": ("gru_sequence", "history_context_shared"),
          "grads": ("history_context_shared", "pair_scores")}


@pytest.mark.parametrize("name", sorted(_FUSED_CASES))
def test_fused_op_matches_unfused_composition(name):
    fused, unfused, shapes = _FUSED_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()) + 1)
    for _ in range(20):
        reg = _registry_with(rng, shapes)
        for k in shapes:
            reg[k].data *= 3.0
        weight = ad.constant(rng.normal(size=fused(reg).shape))
        results = []
        for build in (fused, unfused):
            reg.zero_grads()
            out = build(reg)
            ad.sum_all(ad.mul(out, weight)).backward()
            results.append((out.data, {k: reg[k].grad.copy() for k in shapes}))
        (got, got_grads), (want, want_grads) = results
        if name.startswith(_EXACT["values"]):
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for k in shapes:
            if name.startswith(_EXACT["grads"]):
                np.testing.assert_array_equal(got_grads[k], want_grads[k], err_msg=k)
            else:
                np.testing.assert_allclose(got_grads[k], want_grads[k], rtol=0, atol=1e-12,
                                           err_msg=k)


@pytest.mark.parametrize("op", ["neighbor_softmax", "neighbor_aggregate"])
def test_every_item_form_matches_the_indexed_form(op):
    rng = np.random.default_rng(zlib.crc32(op.encode()) + 2)
    n_items, every = 5, np.arange(5)
    if op == "neighbor_softmax":
        shapes = {"f": (n_items * NBR_S, 6), "m": (1, 6)}

        def build(r, items):
            users = None if items is None else np.zeros(n_items, dtype=int)
            return ad.neighbor_softmax(r["f"], r["m"], items, users, NBR_S)
    else:
        shapes = {"a": (n_items, NBR_S), "e": (n_items * NBR_S, 6), "b": (n_items, 6)}

        def build(r, items):
            return ad.neighbor_aggregate(synth.softmax_rows(r["a"]), r["e"], r["b"], items)
    for _ in range(20):
        reg = _registry_with(rng, shapes)
        for k in shapes:
            reg[k].data *= 3.0
        weight = ad.constant(rng.normal(size=build(reg, None).shape))
        results = []
        for items in (None, every):
            reg.zero_grads()
            out = build(reg, items)
            ad.sum_all(ad.mul(out, weight)).backward()
            results.append((out.data, {k: reg[k].grad.copy() for k in shapes}))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for k in shapes:
            np.testing.assert_allclose(got_grads[k], want_grads[k], rtol=0, atol=1e-12,
                                       err_msg=k)


@pytest.mark.parametrize("op", ["history_softmax", "history_context"])
def test_shared_history_form_matches_the_per_tuple_form(op):
    """One history shared by T targets reads as that history repeated for
    every target, with no empty one."""
    rng = np.random.default_rng(zlib.crc32(op.encode()) + 3)
    if op == "history_softmax":
        shapes = {"a": (HIST_T, 1), "h": (1, HIST_N), "b": (1, 1)}

        def build(r, shared):
            h = r["h"] if shared else ad.gather_rows(r["h"], np.zeros(HIST_T, dtype=int))
            return ad.history_softmax(r["a"], h, r["b"])
    else:
        shapes = {"s": (HIST_T, HIST_N), "v": (HIST_N, 6), "p": (1, 6)}

        def build(r, shared):
            beta = synth.softmax_rows(r["s"])
            if shared:
                return ad.history_context(beta, r["v"], r["p"])
            values = ad.gather_rows(r["v"], np.tile(np.arange(HIST_N), HIST_T))
            return ad.history_context(beta, values, r["p"], np.ones((HIST_T, 1)))
    for _ in range(20):
        reg = _registry_with(rng, shapes)
        for k in shapes:
            reg[k].data *= 3.0
        weight = ad.constant(rng.normal(size=build(reg, True).shape))
        results = []
        for shared in (True, False):
            reg.zero_grads()
            out = build(reg, shared)
            ad.sum_all(ad.mul(out, weight)).backward()
            results.append((out.data, {k: reg[k].grad.copy() for k in shapes}))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for k in shapes:
            np.testing.assert_allclose(got_grads[k], want_grads[k], rtol=0, atol=1e-12,
                                       err_msg=k)


def test_fused_neighbor_ops_pick_rows_by_item_and_user():
    feat = ad.constant(np.arange(12.0).reshape(6, 2))       # 3 items, S = 2
    m = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    alpha = ad.neighbor_softmax(feat, m, [2, 2, 0], [0, 1, 1], 2).data
    # row 0: item 2 (feature rows 4, 5) under user 0 reads column 0
    np.testing.assert_allclose(alpha[0], synth.softmax_rows(ad.constant([[8.0, 10.0]])).data[0])
    np.testing.assert_allclose(alpha[1], synth.softmax_rows(ad.constant([[9.0, 11.0]])).data[0])
    np.testing.assert_allclose(alpha[2], synth.softmax_rows(ad.constant([[1.0, 3.0]])).data[0])
    base = ad.constant([[0.0, 0.0], [0.5, -0.5], [9.0, 9.0]])
    tails = ad.constant(feat.data / 10.0)
    # row 0: item 1 (tail rows 2, 3) on base row 1
    mixed = ad.neighbor_aggregate(ad.constant([[0.25, 0.75]]), tails, base, [1]).data
    np.testing.assert_allclose(mixed, np.tanh([[0.5 + 0.25 * 0.4 + 0.75 * 0.6,
                                                -0.5 + 0.25 * 0.5 + 0.75 * 0.7]]))
    with pytest.raises(ShapeError):
        ad.neighbor_softmax(feat, m, [3], [0], 2)
    with pytest.raises(ShapeError):
        ad.neighbor_aggregate(ad.constant([[1.0, 0.0]]), feat, base, [0, 1])
    # base needs one row per item in the indexed form too
    with pytest.raises(ShapeError):
        ad.neighbor_aggregate(ad.constant([[1.0, 0.0]]), feat, ad.constant(base.data[:2]), [0])
    # the every-item form takes one m row and a base row per item
    with pytest.raises(ShapeError):
        ad.neighbor_softmax(feat, m, None, None, 2)
    with pytest.raises(ShapeError):
        ad.neighbor_softmax(feat, ad.constant([[1.0, 0.0]]), None, [0, 0, 0], 2)
    with pytest.raises(ShapeError):
        ad.neighbor_aggregate(ad.constant(np.ones((3, 2))), feat, ad.constant(np.ones((2, 2))),
                              None)


def test_fused_ops_name_themselves_on_overflow():
    huge = ad.constant(np.full((4, 2), 1e200))
    with pytest.raises(NumericError, match="'neighbor_softmax'"):
        ad.neighbor_softmax(huge, ad.constant(np.full((1, 2), 1e200)), [0, 1], [0, 0], 2)
    with pytest.raises(NumericError, match="'neighbor_aggregate'"):
        ad.neighbor_aggregate(ad.constant([[1e200, 1e200]]), huge, ad.constant(np.zeros((2, 2))),
                              [1])
    # a finite weighted sum that overflows on the base row; its tanh alone would hide it
    with pytest.raises(NumericError, match="'neighbor_aggregate'"):
        ad.neighbor_aggregate(ad.constant([[1.0, 0.0]]), ad.constant(np.full((4, 2), 1e308)),
                              ad.constant(np.full((2, 2), 1e308)), [1])
    # history logits that overflow only once a_t and h are summed, per target
    # and shared; their tanh alone would hide it
    a_t = ad.constant(np.full((2, 1), 1e308))
    for h in (np.full((2, 3), 1e308), np.full((1, 3), 1e308)):
        with pytest.raises(NumericError, match="'history_softmax'"):
            ad.history_softmax(a_t, ad.constant(h), ad.constant([[0.0]]))
    beta = ad.constant([[0.5, 0.5]])
    for values, mask in ((np.full((2, 1), 1e308), None), (np.full((2, 1), 1e308), [[1.0]])):
        with pytest.raises(NumericError, match="'history_context'"):
            ad.history_context(beta, ad.constant(values), ad.constant([[1e308]]), mask)
    with pytest.raises(NumericError, match="'pair_scores'"):
        ad.pair_scores(ad.constant([[1e200]]), ad.constant([[1e200]]),
                       ad.constant([[0.0]]), ad.constant([[0.0]]))
    rng = np.random.default_rng(37)
    mask = np.ones((1, 2))
    reg = _registry_with(rng, _gru_shapes(2, 2, mask))
    reg["x"].data[1] = 1e200
    reg["gru_wz"].data[...] = 1e200
    # the update gate's pre-activation overflows at the second step; its
    # sigmoid alone would hide it
    with pytest.raises(NumericError, match="'gru_sequence'"):
        gru_sequence(reg["x"], mask, _gru_params(reg))


def test_forward_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 3))
    a = ad.tanh(ad.matmul(ad.constant(x), ad.constant(x))).data
    b = ad.tanh(ad.matmul(ad.constant(x), ad.constant(x))).data
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------


def _gru_registry(rng, d):
    reg = ParamRegistry()
    for name in GRU_NAMES:
        shape = (1, d) if name.endswith(("bz", "br", "bc")) else (d, d)
        reg.register(name, rng.uniform(-0.8, 0.8, size=shape))
    return reg, _gru_params(reg)


def test_gru_zero_weights_zero_input_keeps_zero_state():
    reg = ParamRegistry()
    for name in GRU_NAMES:
        shape = (1, 3) if name.endswith(("bz", "br", "bc")) else (3, 3)
        reg.register(name, np.zeros(shape))
    h = gru_sequence(ad.constant(np.zeros((1, 3))), np.ones((1, 1)), _gru_params(reg))
    # update gate sits at 0.5 and the candidate at 0, so the state stays 0
    np.testing.assert_array_equal(h.data, np.zeros((1, 3)))


def test_gru_sequence_length_matters():
    rng = np.random.default_rng(17)
    reg, p = _gru_registry(rng, 4)
    x = rng.normal(size=(1, 4))
    one = gru_sequence(ad.constant(x), np.ones((1, 1)), p).data
    two = gru_sequence(ad.constant(np.vstack([x, x])), np.ones((1, 2)), p).data
    assert np.abs(one - two).max() > 1e-8
    # a masked second step keeps the state of the first
    masked = gru_sequence(ad.constant(np.vstack([x, x])), [[1.0, 0.0]], p).data
    np.testing.assert_array_equal(masked, one)


def test_gru_empty_sequence_is_zero():
    rng = np.random.default_rng(19)
    reg, p = _gru_registry(rng, 4)
    reg.register("table", rng.normal(size=(3, 4)))
    x = ad.gather_rows(reg["table"], np.zeros(0, dtype=int))
    h = gru_sequence(x, np.zeros((2, 0)), p)
    np.testing.assert_array_equal(h.data, np.zeros((2, 4)))
    ad.sum_all(ad.mul(h, ad.constant(rng.normal(size=(2, 4))))).backward()
    for name, t in reg.items():
        np.testing.assert_array_equal(t.grad, np.zeros_like(t.data), err_msg=name)


def test_gru_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    # mixed lengths, 3, 1 and 2 steps
    mask = np.array([[1, 1, 1], [1, 0, 0], [1, 1, 0]], dtype=float)
    for _ in range(N_DRAWS):
        reg, p = _gru_registry(rng, 3)
        reg.register("x", rng.normal(size=(mask.size, 3)))
        err = finite_difference_check(lambda: ad.sum_all(gru_sequence(reg["x"], mask, p)),
                                      reg, eps=1e-5, max_coords=4, rng=rng)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# registry, Adam, checkpoints
# ---------------------------------------------------------------------------


def test_registry_rejects_duplicate_names():
    reg = ParamRegistry()
    reg.register("w", np.ones((1, 1)))
    with pytest.raises(ValueError):
        reg.register("w", np.ones((1, 1)))


def test_l2_penalty_value():
    reg = ParamRegistry()
    reg.register("a", [[1.0, 2.0]])
    reg.register("b", [[3.0]])
    assert reg.l2_penalty().item() == pytest.approx(14.0)


def test_adam_zero_gradient_leaves_parameter_unchanged():
    reg = ParamRegistry()
    p = reg.register("p", [[1.0, -2.0]])
    before = p.data.copy()
    AdamState(reg).step(reg, eta=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_magnitude_close_to_eta():
    reg = ParamRegistry()
    p = reg.register("p", [[0.0, 0.0]])
    p.grad[...] = np.array([[0.5, -2.0]])
    AdamState(reg).step(reg, eta=1e-2)
    # bias-corrected m/sqrt(v) is the gradient sign, up to the epsilon guard
    np.testing.assert_allclose(np.abs(p.data), 1e-2, rtol=1e-6)
    assert p.data[0, 0] < 0 < p.data[0, 1]
    assert (p.grad == 0).all(), "gradients must be zeroed after the step"


def test_adam_step_equals_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(41)
    reg = ParamRegistry()
    p = reg.register("p", rng.normal(size=(5, 3)))
    q = reg.register("q", rng.normal(size=(1, 4)))
    state = AdamState(reg)
    b1, b2, eps, eta = 0.9, 0.999, 1e-8, 0.01
    expected = {"p": p.data.copy(), "q": q.data.copy()}
    moments = {name: (np.zeros_like(v), np.zeros_like(v)) for name, v in expected.items()}
    for t in range(1, 21):
        grads = {name: rng.normal(size=v.shape) * 10.0 ** rng.integers(-6, 3)
                 for name, v in expected.items()}
        for name, g in grads.items():
            reg[name].grad[...] = g
        state.step(reg, eta)
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for name, g in grads.items():
            m, v = moments[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            expected[name] -= eta * (m / c1) / (np.sqrt(v / c2) + eps)
            assert np.array_equal(reg[name].data, expected[name]), (t, name)


def test_adam_trajectories_are_reproducible():
    def run():
        rng = np.random.default_rng(29)
        reg = ParamRegistry()
        p = reg.register("p", rng.normal(size=(2, 2)))
        state = AdamState(reg)
        for _ in range(5):
            loss = ad.sum_all(ad.square(ad.sub(p, ad.constant(np.ones((2, 2))))))
            reg.zero_grads()
            loss.backward()
            state.step(reg, eta=0.05)
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def _meta(**sizes):
    """A checkpoint header: the given sizes over a default model config."""
    return {"dim": 1, "local_size": 4, "history_size": 16, "disable_local": False,
            "disable_nonlocal": False, "disable_user_attention": False,
            "n_users": 1, "n_entities": 1, "n_relations": 1, **sizes}


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    reg = _registry_with(rng, {"a": (2, 3), "b": (1, 4)})
    meta = _meta(dim=4, local_size=3, history_size=7, disable_nonlocal=True,
                 n_users=2, n_entities=3, n_relations=5)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, reg, meta)
    saved = reg.snapshot()
    for _, t in reg.items():
        t.data += 1.0
    got = load_checkpoint(path, reg)
    assert {k: got[k] for k in meta} == meta
    assert read_checkpoint_meta(path)["n_params"] == 2
    for name, arr in saved.items():
        np.testing.assert_array_equal(reg[name].data, arr)


def test_checkpoint_shape_validation(tmp_path):
    rng = np.random.default_rng(33)
    reg = _registry_with(rng, {"a": (2, 3)})
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, reg, _meta())
    other = ParamRegistry()
    other.register("a", np.zeros((3, 2)))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path, other)


def test_truncated_checkpoint_raises_checkpoint_error_at_every_offset(tmp_path):
    rng = np.random.default_rng(35)
    reg = _registry_with(rng, {"a": (2, 3), "bias": (1, 2)})
    full = tmp_path / "ckpt.bin"
    save_checkpoint(full, reg, _meta(dim=2))
    data = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut, reg)
    cut.write_bytes(data)
    load_checkpoint(cut, reg)


def test_version_one_checkpoint_is_rejected_by_version(tmp_path):
    """Version 1 stored the concatenated weights and no model config."""
    path = tmp_path / "v1.bin"
    path.write_bytes(b"KGCK" + struct.pack("<IIIIII", 1, 4, 2, 3, 5, 0))
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path, ParamRegistry())


def test_version_two_checkpoint_is_rejected_by_version(tmp_path):
    """Version 2 packed the model config and sizes into a struct header."""
    path = tmp_path / "v2.bin"
    path.write_bytes(b"KGCK" + struct.pack("<I", 2)
                     + struct.pack("<III???IIII", 1, 4, 16, False, False, False, 1, 1, 1, 0))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 2$"):
        read_checkpoint_meta(path)


def test_checkpoint_header_values_are_checked(tmp_path):
    reg = _registry_with(np.random.default_rng(37), {"a": (2, 3)})
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, reg, _meta())
    meta = read_checkpoint_meta(path)
    assert list(meta) == ["dim", "local_size", "history_size", "disable_local",
                          "disable_nonlocal", "disable_user_attention", "n_users",
                          "n_entities", "n_relations", "n_params"]
    stored = {key: value for key, value in meta.items() if key != "n_params"}
    a = reg["a"].data.tobytes()
    cases = [
        ("field 'n_users' is -1, expected an int >= 0", {"n_users": -1}, "<f8", a),
        ("field 'dim' is 2.5", {"dim": 2.5}, "<f8", a),
        ("field 'disable_local' is 0, expected bool", {"disable_local": 0}, "<f8", a),
        ("field 'n_relations' is None", {"n_relations": None}, "<f8", a),
        (r"parameter 'a' has shape \(2, 3\) of <u4, expected \(2, 3\) of <f8", {}, "<u4", a[:24]),
    ]
    for message, change, dtype, payload in cases:
        path.write_bytes(synth.raw_artifact(b"KGCK", 3, {"meta": {**stored, **change},
                                                         "arrays": [["a", dtype, [2, 3]]]},
                                            payload))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path, reg)


def test_corrupt_checkpoint_bytes_load_or_raise_checkpoint_error(tmp_path):
    """One byte overwritten at any offset, or the file cut there: loading
    succeeds or raises CheckpointError, and nothing else."""
    reg = _registry_with(np.random.default_rng(39), {"a": (2, 3), "bias": (1, 2)})
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, reg, _meta(dim=2))
    data = path.read_bytes()

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(st.integers(0, len(data) - 1), st.integers(0, 255), st.booleans())
    def check(offset, value, truncate):
        path.write_bytes(synth.corrupt_bytes(data, offset, value, truncate))
        try:
            read_checkpoint_meta(path)
            load_checkpoint(path, reg)
        except CheckpointError:
            return
        assert all(np.isfinite(t.data).all() for _, t in reg.items())

    check()
