"""A NaN or a +inf at a chunk edge of any input raises NumericsError from
every public mechanism, the stack and the row softmax.

Each public function checks finiteness once (see tensor_ops): exp_rows, the
shifted exp under every softmax, by its row maxima, full and sliding-window
attention once over their output, MoBA's routed rows once after the merge.
The attention mechanisms also refuse a non-finite q, k or v on entry, since
a +inf key can weigh 0. These tests put the bad value on the last row of a
chunk and the first row of the next, where a check that skips a chunk or a
split would let it through.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from dssalab.attention import (
    ROW_CHUNK, causal_keep, full_attention, linear_attention_parallel, linear_attention_recurrent,
    masked_attention, swa,
)
from dssalab.moba import MobaParams, moba_forward
from dssalab.sse import CHUNK, SSEParams, sse_forward
from dssalab.stack import LayerPlan, StackConfig, init_stack_params, stack_forward
from dssalab.tensor_ops import NEG_INF, NumericsError, exp_rows, softmax_rows

EDGE_ROWS = sorted({ROW_CHUNK - 1, ROW_CHUNK, CHUNK})
N = 2 * ROW_CHUNK + 3  # three chunks, the last one of three rows
D = 4

# MoBA splits its rows at m, a multiple of ROW_CHUNK: rows before m attend
# fully, rows from m on are routed. At N, top_k = 4 and these block sizes,
# m is 128 (every edge row full), 64 (row 63 full, row 64 routed) and 0
# (every row routed)
MECHANISMS = {
    "full_attention": full_attention,
    "swa": lambda q, k, v: swa(q, k, v, 8),
    "moba, edge rows full": lambda q, k, v: moba_forward(q, k, v, MobaParams(block_size=32, top_k=4)),
    "moba, split at the edge": lambda q, k, v: moba_forward(q, k, v, MobaParams(block_size=16, top_k=4)),
    "moba, edge rows routed": lambda q, k, v: moba_forward(q, k, v, MobaParams(block_size=8, top_k=4)),
    # two heads side by side: a bad value in column 0 lies in head 0 alone
    "full_attention, two heads": lambda q, k, v: full_attention(q, k, v, n_heads=2),
    "swa, two heads": lambda q, k, v: swa(q, k, v, 8, n_heads=2),
    "moba, edge rows routed, two heads":
        lambda q, k, v: moba_forward(q, k, v, MobaParams(block_size=8, top_k=4), n_heads=2),
}


def poisoned(base: list[np.ndarray]):
    """(case, copies of base) with a NaN or a +inf at [row, 0] of one array,
    for every array and every edge row."""
    for which, row, bad in itertools.product(range(len(base)), EDGE_ROWS, (np.nan, np.inf)):
        arrays = [a.copy() for a in base]
        arrays[which][row, 0] = bad
        yield (which, row, bad), arrays


def assert_each_raises(call, base: list[np.ndarray]) -> None:
    call(*base)  # the clean inputs pass: the bad value is what raises
    for case, arrays in poisoned(base):
        try:
            with np.errstate(all="ignore"):
                call(*arrays)
        except NumericsError:
            continue
        pytest.fail(f"no NumericsError for (array, row, value) = {case}")


@pytest.mark.parametrize("name", MECHANISMS)
def test_attention_raises_on_non_finite_at_chunk_edges(name):
    rng = np.random.default_rng(31)
    assert_each_raises(MECHANISMS[name], [rng.standard_normal((N, D)) for _ in range(3)])


@pytest.mark.parametrize("call", [
    full_attention,
    lambda q, k, v: swa(q, k, v, 4),
    lambda q, k, v: moba_forward(q, k, v, MobaParams(block_size=2, top_k=2)),  # every row routed
], ids=["full_attention", "swa", "moba"])
def test_attention_raises_on_an_inf_key_that_weighs_zero(call):
    # every query scores key 3 at -inf, so it weighs 0 and the output is
    # finite: only a check of the inputs sees it
    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((8, 2)) for _ in range(3))
    q[:, 0] = -np.abs(q[:, 0])
    k[3, 0] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericsError):
        call(q, k, v)


# finite q and keys whose scores pass float64: the key -1e200 scores -inf
# (weight 0) and the others 1e200. Row t of the routed inputs scores every
# even key at +inf (n = 256, b = 2, top_k = 2: every row is routed). A
# gate weight of 1e200 scores SSE's gates at +inf
Q_HUGE, K_HUGE, V_ONES = np.full((3, 1), 1e200), np.array([[1.0], [-1e200], [1.0]]), np.ones((3, 1))
Q_ROUTED = np.full((256, 1), 1e200)
K_ROUTED = np.where(np.arange(256) % 2 == 0, 1e200, -1e200)[:, None]
OVERFLOWING_SCORES = {
    # name -> (call, its result with numpy's warnings ignored: an array or NumericsError)
    "full_attention": (lambda: full_attention(Q_HUGE, K_HUGE, V_ONES), V_ONES),
    "swa": (lambda: swa(Q_HUGE, K_HUGE, V_ONES, 2), V_ONES),
    "masked_attention": (lambda: masked_attention(Q_HUGE, K_HUGE, V_ONES, causal_keep(3)), V_ONES),
    "moba, rows attending fully": (lambda: moba_forward(Q_HUGE, K_HUGE, V_ONES, MobaParams(1, 3)), V_ONES),
    "moba, routed rows": (lambda: moba_forward(Q_ROUTED, K_ROUTED, np.ones((256, 1)), MobaParams(2, 2)),
                          NumericsError),
    "linear_attention_parallel": (lambda: linear_attention_parallel(Q_HUGE, K_HUGE, V_ONES), NumericsError),
    "linear_attention_recurrent": (lambda: linear_attention_recurrent(Q_HUGE, K_HUGE, V_ONES), NumericsError),
    "sse_forward, one partition": (
        lambda: sse_forward(Q_HUGE, Q_HUGE, K_HUGE, V_ONES, SSEParams(1, 1, np.zeros((1, 1)))).outputs,
        NumericsError),
    "sse_forward, gate scores": (
        lambda: sse_forward(Q_HUGE, Q_HUGE, K_HUGE, V_ONES, SSEParams(2, 1, np.full((1, 2), 1e200))).outputs,
        NumericsError),
}


@pytest.mark.parametrize("name", OVERFLOWING_SCORES)
def test_scores_past_float64_give_a_result_or_one_error(name):
    # numpy's own RuntimeWarning must not come first: the mechanism returns
    # what it returns with warnings ignored, or raises its own NumericsError
    call, want = OVERFLOWING_SCORES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is NumericsError:
            with pytest.raises(NumericsError):
                call()
        else:
            got = call()
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sse_forward_raises_on_non_finite_at_chunk_edges():
    rng = np.random.default_rng(32)
    params = SSEParams(num_partitions=4, top_k=2, gate_weight=rng.standard_normal((D, 4)))
    assert_each_raises(lambda x, q, k, v: sse_forward(x, q, k, v, params),
                       [rng.standard_normal((N, D)) for _ in range(4)])
    assert_each_raises(lambda x, q, k, v: sse_forward(x, q, k, v, params, n_heads=2),
                       [rng.standard_normal((N, D)) for _ in range(4)])


def test_stack_forward_raises_on_non_finite_at_chunk_edges():
    rng = np.random.default_rng(33)
    config = StackConfig(d_model=8, n_heads=2, d_ff=12, moba_block_size=16, moba_top_k=4, swa_window=8)
    params = init_stack_params(LayerPlan(kinds=("sse_swa", "moba", "fa")), config, seed=3)
    assert_each_raises(lambda x: stack_forward(x, params, config), [rng.standard_normal((N, 8))])


def test_softmax_rows_checks_every_row_at_chunk_edges():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((N, 5))
    x[:, 1] = NEG_INF  # -inf beside finite entries: weight 0, no error
    before = x.copy()
    got = softmax_rows(x)
    assert np.array_equal(x, before)  # softmax_rows works on a copy
    assert np.all(got[:, 1] == 0.0) and np.allclose(got.sum(axis=1), 1.0)
    bad_rows = {"a NaN": [0.0, np.nan, 1.0, NEG_INF, 2.0], "a +inf": [0.0, np.inf, 1.0, NEG_INF, 2.0],
                "all -inf": [NEG_INF] * 5}
    for (name, bad), row in itertools.product(bad_rows.items(), EDGE_ROWS):
        y = x.copy()
        y[row] = bad
        with pytest.raises(NumericsError):
            softmax_rows(y)
        # exp_rows, the shifted exp under every softmax, on y and on the
        # keys-down layout MoBA's routed rows hand it
        with pytest.raises(NumericsError):
            exp_rows(y.copy())
        with pytest.raises(NumericsError):
            exp_rows(y.T.copy().T)
