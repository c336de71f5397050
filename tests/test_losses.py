"""Tests for the load-balance, distillation, and combined objectives.

The top-K KL path is checked against a longdouble oracle that picks the
support, normalizes, and sums the KL terms with explicit scalar loops, and
bit for bit against the per-token float64 loop it replaced.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dssalab import losses
from dssalab.losses import (
    DEFAULT_TOPK,
    LLM_AUX_COEFF,
    LLM_KD_COEFF,
    LLM_MSE_COEFF,
    STUDENT_PROB_FLOOR,
    VLM_KD_COEFF,
    VLM_MSE_COEFF,
    aux_loss,
    combined_loss_llm,
    combined_loss_vlm,
    kd_topk_kl,
    layerwise_mse,
)
from dssalab.tensor_ops import NumericsError, ShapeError, exp_rows


def kl_topk_oracle(teacher: np.ndarray, student: np.ndarray, top_k: int) -> float:
    """Scalar-loop longdouble KL on the teacher's top-K support, with the
    same renormalize-both convention and student probability floor."""
    n, _ = teacher.shape
    total = np.longdouble(0.0)
    for t in range(n):
        row = [(-teacher[t, j], j) for j in range(teacher.shape[1])]
        row.sort()  # ties break toward the lower vocab index
        support = [j for _, j in row[:top_k]]

        def norm_probs(logits_row):
            shifted = [np.longdouble(logits_row[j]) for j in support]
            m = max(shifted)
            exps = [np.exp(v - m) for v in shifted]
            z = sum(exps)
            return [e / z for e in exps]

        p = norm_probs(teacher[t])
        q = norm_probs(student[t])
        for pi, qi in zip(p, q):
            qi = max(qi, np.longdouble(STUDENT_PROB_FLOOR))
            total += pi * (np.log(pi) - np.log(qi))
    return float(total / n)


def kd_per_token(teacher: np.ndarray, student: np.ndarray, top_k: int) -> tuple[float, int]:
    """The per-token loop kd_topk_kl replaced: (value, clamped tokens), the
    same float64 operations one token row at a time."""

    def log_softmax(row):
        e = row.copy()
        return row - exp_rows(e) - np.log(np.sum(e))

    total = 0.0
    clamped_tokens = 0
    log_floor = np.log(STUDENT_PROB_FLOOR)
    for t in range(teacher.shape[0]):
        support = np.argsort(-teacher[t], kind="stable")[:top_k]
        log_p = log_softmax(teacher[t, support])
        log_q = log_softmax(student[t, support])
        if np.any(log_q < log_floor):
            clamped_tokens += 1
            log_q = np.maximum(log_q, log_floor)
        total += float(np.sum(np.exp(log_p) * (log_p - log_q)))
    return total / teacher.shape[0], clamped_tokens


def test_default_coefficients():
    assert LLM_AUX_COEFF == 0.001
    assert LLM_KD_COEFF == 0.1
    assert LLM_MSE_COEFF == 0.1
    assert VLM_KD_COEFF == 1.0
    assert VLM_MSE_COEFF == 1.0
    assert DEFAULT_TOPK == 128


def test_aux_loss_uniform_is_one_per_token():
    n, num_partitions, top_k = 12, 4, 2
    gates = np.full((n, num_partitions), 1.0 / num_partitions)
    freqs = np.full((n, num_partitions), top_k / num_partitions)
    res = aux_loss(gates, freqs, num_partitions, top_k)
    assert res.per_token == pytest.approx(1.0, abs=1e-12)
    assert res.raw == pytest.approx(float(n), abs=1e-12)


def test_aux_loss_zero_frequency_is_zero():
    gates = np.full((5, 4), 0.25)
    freqs = np.zeros((5, 4))
    res = aux_loss(gates, freqs, 4, 2)
    assert res.raw == 0.0
    assert res.per_token == 0.0


def test_aux_loss_hand_computed():
    # n=3 tokens, N=2 partitions, k=1: raw = 2 * sum f*e
    gates = np.array([[0.75, 0.25], [0.5, 0.5], [1.0, 0.0]])
    freqs = np.array([[1.0, 0.0], [0.5, 0.5], [2.0 / 3.0, 1.0 / 3.0]])
    want = 2.0 * (0.75 * 1.0 + 0.25 * 0.0 + 0.5 * 0.5 + 0.5 * 0.5 + 1.0 * 2.0 / 3.0 + 0.0 / 3.0)
    res = aux_loss(gates, freqs, 2, 1)
    assert res.raw == pytest.approx(want, abs=1e-12)
    assert res.per_token == pytest.approx(want / 3.0, abs=1e-12)


def test_aux_loss_refuses_nan_frequency():
    freqs = np.full((4, 4), 0.5)
    freqs[2, 1] = np.nan
    with pytest.raises(ValueError, match="running frequencies"):
        aux_loss(np.full((4, 4), 0.25), freqs, 4, 2)


def test_aux_loss_refuses_zero_tokens():
    with pytest.raises(ValueError, match="at least one token, got 0"):
        aux_loss(np.zeros((0, 4)), np.zeros((0, 4)), 4, 2)


def test_aux_loss_validation():
    ok_gates = np.full((4, 4), 0.25)
    ok_freqs = np.full((4, 4), 0.5)
    with pytest.raises(ShapeError):
        aux_loss(ok_gates, ok_freqs[:, :3], 4, 2)
    with pytest.raises(ShapeError):
        aux_loss(ok_gates, ok_freqs, 5, 2)
    with pytest.raises(ValueError):
        aux_loss(ok_gates, ok_freqs, 4, 0)
    with pytest.raises(ValueError):
        aux_loss(ok_gates, ok_freqs, 4, 5)
    with pytest.raises(ValueError):
        aux_loss(ok_gates * 2.0, ok_freqs, 4, 2)  # rows no longer sum to 1
    with pytest.raises(ValueError):
        aux_loss(ok_gates, ok_freqs + 1.0, 4, 2)  # frequencies above 1


def test_kd_self_distillation_is_zero():
    rng = np.random.default_rng(0)
    logits = rng.normal(0.0, 3.0, size=(8, 50))
    res = kd_topk_kl(logits, logits.copy(), top_k=16)
    assert abs(res.value) <= 1e-12
    assert res.clamped_tokens == 0


def test_kd_matches_longdouble_oracle():
    rng = np.random.default_rng(123)
    for top_k in (1, 3, 17, 50):
        teacher = rng.normal(0.0, 2.0, size=(6, 50))
        student = rng.normal(0.0, 2.0, size=(6, 50))
        got = kd_topk_kl(teacher, student, top_k=top_k)
        want = kl_topk_oracle(teacher, student, top_k)
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-13)
        assert got.value >= -1e-15  # KL is nonnegative


def test_kd_hand_case_small_vocab():
    # vocab 4, top_k 2: teacher keeps indices {2, 0}; renormalized teacher
    # probs over support are softmax([3, 1]) and student softmax([0, 2]).
    teacher = np.array([[1.0, 0.0, 3.0, -1.0]])
    student = np.array([[2.0, 5.0, 0.0, -2.0]])
    p = np.exp([3.0, 1.0]) / np.sum(np.exp([3.0, 1.0]))
    q = np.exp([0.0, 2.0]) / np.sum(np.exp([0.0, 2.0]))
    want = float(np.sum(p * (np.log(p) - np.log(q))))
    got = kd_topk_kl(teacher, student, top_k=2)
    assert got.value == pytest.approx(want, rel=1e-12)
    assert got.clamped_tokens == 0


def test_kd_tie_break_prefers_lower_vocab_index():
    # indices 1 and 3 share the top logit; top_k=1 must pick index 1, where
    # the student is confident, so the KL is 0. Picking index 3 would not be.
    teacher = np.array([[0.0, 5.0, 0.0, 5.0]])
    student = np.array([[-9.0, 9.0, -9.0, -9.0]])
    res = kd_topk_kl(teacher, student, top_k=1)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_kd_clamps_underflowing_student_and_counts_tokens():
    # student mass on the teacher support underflows for token 0 only
    teacher = np.array([[10.0, 0.0, -10.0], [0.0, 1.0, 2.0]])
    student = np.array([[-60.0, 60.0, 0.0], [0.0, 1.0, 2.0]])
    res = kd_topk_kl(teacher, student, top_k=2)
    assert res.clamped_tokens == 1
    assert np.isfinite(res.value)
    # the clamped token contributes roughly -log(floor) under a confident teacher
    assert res.value > 10.0


def test_kd_logit_spread_past_float64_stays_finite():
    # 1e308 - (-1e308) overflows float64: the teacher's -1e308 logit has
    # probability 0 and contributes 0, the student's is clamped
    spread = np.array([[1e308, -1e308, 0.0]])
    res = kd_topk_kl(spread, np.zeros((1, 3)), top_k=3)
    assert res.value == pytest.approx(np.log(3.0), rel=1e-15)
    assert res.clamped_tokens == 0
    res = kd_topk_kl(np.zeros((1, 3)), spread, top_k=3)
    assert np.isfinite(res.value)
    assert res.clamped_tokens == 1


@given(st.data())
def test_kd_equals_per_token_loop(data):
    # a few repeated logits make ties; gaps past -log(floor) = 27.6 clamp
    n = data.draw(st.integers(1, 6))
    vocab = data.draw(st.integers(1, 24))
    top_k = data.draw(st.integers(1, vocab))
    logit = st.one_of(st.sampled_from([-2.0, 0.0, 1.0]), st.floats(-80.0, 80.0))
    teacher, student = (
        np.array(data.draw(st.lists(logit, min_size=n * vocab, max_size=n * vocab))).reshape(n, vocab)
        for _ in range(2)
    )
    got = kd_topk_kl(teacher, student, top_k=top_k)
    assert (got.value, got.clamped_tokens) == kd_per_token(teacher, student, top_k)


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_kd_ranked_in_row_blocks_equals_per_token_loop(monkeypatch, rows):
    # blocks of 1, 2 and 3 rows (the last partial) and one block of all 7;
    # logits on a grid of tenths tie often, so the stable ranking shows
    rng = np.random.default_rng(47)
    teacher, student = (np.round(rng.normal(0.0, 1.0, (7, 24)), 1) for _ in range(2))
    monkeypatch.setattr(losses, "KD_RANK_ENTRIES", rows * 24 + 5)
    got = kd_topk_kl(teacher, student, top_k=9)
    assert (got.value, got.clamped_tokens) == kd_per_token(teacher, student, 9)


def test_kd_memory_stays_below_32_mib():
    # an argsort of the whole teacher held two 125 MB temporaries here (250 MB)
    rng = np.random.default_rng(48)
    teacher = rng.standard_normal((512, 32_000))
    np.round(teacher, 1, out=teacher)  # ties across the whole vocabulary
    student = rng.standard_normal((512, 32_000))
    tracemalloc.start()
    try:
        got = kd_topk_kl(teacher, student, top_k=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024 * 1024, peak
    assert (got.value, got.clamped_tokens) == kd_per_token(teacher, student, 128)


def test_kd_finiteness_checks_stay_below_20_mib():
    # checked whole, each logit array built a 31.25 MiB n x vocab bool mask
    # here, past the blocked ranking's 16 MiB
    rng = np.random.default_rng(49)
    teacher, student = (rng.standard_normal((1024, 32_000)) for _ in range(2))
    tracemalloc.start()
    try:
        kd_topk_kl(teacher, student, top_k=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 1024 * 1024, peak


def test_kd_refuses_zero_tokens():
    with pytest.raises(ValueError, match="at least one token, got 0"):
        kd_topk_kl(np.zeros((0, 8)), np.zeros((0, 8)), top_k=2)


def test_kd_validation():
    with pytest.raises(ShapeError):
        kd_topk_kl(np.zeros((2, 8)), np.zeros((3, 8)))
    with pytest.raises(ValueError):
        kd_topk_kl(np.zeros((2, 8)), np.zeros((2, 8)), top_k=9)
    with pytest.raises(ValueError):
        kd_topk_kl(np.zeros((2, 8)), np.zeros((2, 8)), top_k=0)
    with pytest.raises(ValueError):
        kd_topk_kl(np.full((2, 8), np.inf), np.zeros((2, 8)), top_k=2)


def test_layerwise_mse_identical_is_zero():
    layers = [np.random.default_rng(i).normal(size=(5, 4)) for i in range(3)]
    assert layerwise_mse(layers, [l.copy() for l in layers]) == 0.0


def test_layerwise_mse_constant_shift():
    # shifting every component of a width-4 vector by 1 adds 4 per token
    s = [np.zeros((7, 4)), np.zeros((7, 4))]
    t = [np.ones((7, 4)), np.zeros((7, 4))]
    assert layerwise_mse(s, t) == pytest.approx(2.0, abs=1e-15)  # (4 + 0) / 2


def test_layerwise_mse_matches_scalar_oracle():
    rng = np.random.default_rng(77)
    s = [rng.normal(size=(4, 3)) for _ in range(2)]
    t = [rng.normal(size=(4, 3)) for _ in range(2)]
    acc = 0.0
    for sl, tl in zip(s, t):
        layer = 0.0
        for i in range(4):
            row = 0.0
            for j in range(3):
                row += (sl[i, j] - tl[i, j]) ** 2
            layer += row
        acc += layer / 4.0
    want = acc / 2.0
    assert layerwise_mse(s, t) == pytest.approx(want, rel=1e-14)


def test_layerwise_mse_refuses_non_finite_result():
    # an infinite layer, and finite layers whose squares pass float64
    zeros = np.zeros((3, 2))
    with pytest.raises(NumericsError):
        layerwise_mse([zeros, np.full((3, 2), np.inf)], [zeros, zeros])
    with pytest.raises(NumericsError):
        layerwise_mse([np.full((3, 2), 1e200)], [np.full((3, 2), -1e200)])


def test_layerwise_mse_refuses_zero_tokens():
    with pytest.raises(ValueError, match="layer 1 has 0"):
        layerwise_mse([np.zeros((2, 3)), np.zeros((0, 3))], [np.zeros((2, 3)), np.zeros((0, 3))])


def test_layerwise_mse_validation():
    with pytest.raises(ShapeError):
        layerwise_mse([np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(ValueError):
        layerwise_mse([], [])
    with pytest.raises(ShapeError):
        layerwise_mse([np.zeros((2, 2))], [np.zeros((2, 3))])


def test_combined_llm_reduces_to_ce_with_zero_coefficients():
    res = combined_loss_llm(ce=2.5, aux=9.0, kd=3.0, mse=4.0, c=0.0, alpha=0.0, beta=0.0)
    assert res.combined == 2.5


def test_combined_llm_default_coefficients_hand_value():
    # ce + 0.001*aux + 0.1*kd + 0.1*|kd/mse|*mse with unit parts = 1.201
    res = combined_loss_llm(ce=1.0, aux=1.0, kd=1.0, mse=1.0)
    assert res.combined == pytest.approx(1.201, abs=1e-12)
    assert res.c == 0.001 and res.alpha == 0.1 and res.beta == 0.1


def test_combined_llm_ratio_term_equals_beta_abs_kd():
    rng = np.random.default_rng(5)
    for _ in range(100):
        ce, aux = rng.uniform(0.0, 5.0, size=2)
        kd = rng.uniform(-4.0, 4.0)
        mse = rng.uniform(1e-6, 10.0)
        beta = rng.uniform(0.0, 2.0)
        res = combined_loss_llm(ce=ce, aux=aux, kd=kd, mse=mse, c=0.0, alpha=0.0, beta=beta)
        assert res.combined == pytest.approx(ce + beta * abs(kd), rel=1e-12, abs=1e-12)


def test_combined_llm_zero_mse_warns_and_drops_term():
    with pytest.warns(RuntimeWarning):
        res = combined_loss_llm(ce=1.0, aux=0.0, kd=3.0, mse=0.0, c=0.0, alpha=1.0, beta=0.5)
    assert res.combined == pytest.approx(1.0 + 3.0, abs=1e-12)


@pytest.mark.parametrize("mse", [1e-310, 5e-324])
def test_combined_llm_ratio_term_at_subnormal_mse(mse):
    # kd / mse overflows float64, yet the term is beta * |kd|
    res = combined_loss_llm(ce=1.0, aux=0.0, kd=-3.0, mse=mse, c=0.0, alpha=0.0, beta=0.5)
    assert res.combined == 1.0 + 0.5 * 3.0
    assert combined_loss_llm(ce=0.0, aux=0.0, kd=1.0, mse=mse).combined == 0.1 + 0.1


def test_combined_llm_refuses_negative_mse():
    for kd in (0.0, 1.0):
        with pytest.raises(ValueError, match="mse is a squared distance, got -0.001"):
            combined_loss_llm(ce=1.0, aux=0.0, kd=kd, mse=-1e-3)


def test_combined_llm_rejects_non_finite_parts():
    with pytest.raises(NumericsError):
        combined_loss_llm(ce=np.inf, aux=0.0, kd=0.0, mse=1.0)
    with pytest.raises(NumericsError):
        combined_loss_llm(ce=0.0, aux=np.nan, kd=0.0, mse=1.0)


def test_combined_vlm():
    res = combined_loss_vlm(kd=2.0, mse=3.0)
    assert res.combined == 5.0
    assert res.alpha == 1.0 and res.beta == 1.0
    res = combined_loss_vlm(kd=2.0, mse=3.0, alpha=0.5, beta=2.0)
    assert res.combined == pytest.approx(7.0, abs=1e-15)
    with pytest.raises(NumericsError):
        combined_loss_vlm(kd=np.inf, mse=0.0)


@pytest.mark.parametrize(
    "parts",
    [
        dict(ce=1.7e308, aux=0.0, kd=1.7e308, mse=1.0),  # ce + alpha*kd + beta*|kd|
        dict(ce=1.0, aux=10.0, kd=0.0, mse=1.0, c=1e308),  # c * aux alone
        dict(ce=-1.7e308, aux=0.0, kd=1.7e308, mse=1.0, alpha=10.0),  # -1.7e308 + inf is inf
        dict(ce=np.float64(1.7e308), aux=0.0, kd=np.float64(1.7e308), mse=1.0),  # no overflow warning
    ],
)
def test_combined_llm_refuses_sum_past_float64(parts):
    with pytest.raises(NumericsError, match="combined_loss_llm: the weighted sum of finite parts is inf"):
        combined_loss_llm(**parts)


@pytest.mark.parametrize(
    "parts, value",
    [
        (dict(kd=1.7e308, mse=1.7e308), "inf"),
        (dict(kd=-1.7e308, mse=1.7e308, alpha=2.0, beta=2.0), "nan"),  # -inf + inf
        (dict(kd=np.float64(-1.7e308), mse=np.float64(1.7e308), alpha=2.0, beta=2.0), "nan"),
    ],
)
def test_combined_vlm_refuses_sum_past_float64(parts, value):
    with pytest.raises(NumericsError, match=f"combined_loss_vlm: the weighted sum of finite parts is {value}"):
        combined_loss_vlm(**parts)
