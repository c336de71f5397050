"""Distillation and load-balance objectives.

Four pieces: a partition load-balance penalty driven by the gate values
and running selection frequencies of the sparse-state attention, a top-K
teacher-support KL for logit distillation, a layer-wise representation
MSE, and the two combined objectives (language model and vision-language
variants) that weight them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .tensor_ops import NumericsError, ShapeError, as_f64, ensure_finite, exp_rows

# Recommended coefficients for the combined objectives.
LLM_AUX_COEFF = 0.001
LLM_KD_COEFF = 0.1
LLM_MSE_COEFF = 0.1
VLM_KD_COEFF = 1.0
VLM_MSE_COEFF = 1.0
DEFAULT_TOPK = 128

STUDENT_PROB_FLOOR = 1e-12


@dataclass
class LossBreakdown:
    """Component values plus the combined scalar and its coefficients."""

    ce: float
    aux: float
    kd: float
    mse: float
    c: float
    alpha: float
    beta: float
    combined: float


@dataclass
class AuxLossResult:
    raw: float
    per_token: float


@dataclass
class KdLossResult:
    value: float
    clamped_tokens: int  # tokens where the student underflowed the floor


def aux_loss(gates, freqs, num_partitions: int, top_k: int) -> AuxLossResult:
    """Load-balance penalty (N/k) * sum_t sum_i f_t^i * e_t^i.

    gates rows must be probability vectors; freqs holds the running
    selection frequency of each partition after step t. Uniform gates with
    uniform frequency k/N give exactly 1 per token.
    """
    gates, freqs = as_f64(gates), as_f64(freqs)
    if gates.shape != freqs.shape:
        raise ShapeError(f"gates shape {gates.shape} != freqs shape {freqs.shape}")
    if gates.ndim != 2 or gates.shape[1] != num_partitions:
        raise ShapeError(f"gates shape {gates.shape} != (n, {num_partitions})")
    if not 1 <= top_k <= num_partitions:
        raise ValueError(f"need 1 <= top_k <= num_partitions, got {top_k}/{num_partitions}")
    if gates.shape[0] == 0:
        raise ValueError("aux_loss needs at least one token, got 0")
    if not np.allclose(gates.sum(axis=1), 1.0, atol=1e-8):
        raise ValueError("gate rows must sum to 1")
    # written so that a NaN, whose comparisons are all False, fails too
    if not (0.0 <= freqs.min() and freqs.max() <= 1.0):
        raise ValueError("running frequencies must lie in [0, 1]")
    raw = float(num_partitions / top_k * np.sum(freqs * gates))
    return AuxLossResult(raw=raw, per_token=raw / gates.shape[0])


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a 2-D x. An entry more than float64's range
    below its row maximum gets -inf: its probability is 0 in float64."""
    e = x.copy()
    with np.errstate(over="ignore"):
        return x - exp_rows(e) - np.log(np.sum(e, axis=1, keepdims=True))


def kd_topk_kl(teacher_logits, student_logits, top_k: int = DEFAULT_TOPK) -> KdLossResult:
    """Token-mean KL between teacher and student on the teacher's top-K support.

    Per token, the K largest teacher logits (ties toward the lower vocab
    index) define the support; both distributions are renormalized over
    that same support before KL. Student probabilities below 1e-12 are
    clamped and counted; a teacher probability of 0 contributes 0.
    """
    teacher, student = as_f64(teacher_logits), as_f64(student_logits)
    if teacher.shape != student.shape or teacher.ndim != 2:
        raise ShapeError(f"logit shapes disagree: {teacher.shape} vs {student.shape}")
    ensure_finite(teacher, "kd_topk_kl teacher")
    ensure_finite(student, "kd_topk_kl student")
    n, vocab = teacher.shape
    if n == 0:
        raise ValueError("kd_topk_kl needs at least one token, got 0")
    if not 1 <= top_k <= vocab:
        raise ValueError(f"need 1 <= top_k <= vocab size, got {top_k}/{vocab}")

    # stable sort = lowest index wins ties
    support = np.argsort(-teacher, axis=1, kind="stable")[:, :top_k]
    log_p = _log_softmax(np.take_along_axis(teacher, support, axis=1))
    log_q = _log_softmax(np.take_along_axis(student, support, axis=1))
    log_floor = np.log(STUDENT_PROB_FLOOR)
    clamped_tokens = int(np.count_nonzero((log_q < log_floor).any(axis=1)))
    log_q = np.maximum(log_q, log_floor)
    p = np.exp(log_p)
    per_token = np.sum(np.multiply(p, log_p - log_q, out=np.zeros_like(p), where=p > 0), axis=1)
    # the tokens summed one after another, as a per-token loop would
    return KdLossResult(value=sum(per_token.tolist()) / n, clamped_tokens=clamped_tokens)


def layerwise_mse(student_layers, teacher_layers) -> float:
    """Mean over layers of the token-mean squared representation distance."""
    if len(student_layers) != len(teacher_layers):
        raise ShapeError(f"layer counts disagree: {len(student_layers)} vs {len(teacher_layers)}")
    if len(student_layers) == 0:
        raise ValueError("need at least one layer")
    per_layer = []
    # an infinity, or a square or sum past float64, is refused below rather
    # than warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (s, t) in enumerate(zip(student_layers, teacher_layers)):
            s, t = as_f64(s), as_f64(t)
            if s.shape != t.shape or s.ndim != 2:
                raise ShapeError(f"layer shapes disagree: {s.shape} vs {t.shape}")
            if s.shape[0] == 0:
                raise ValueError(f"layerwise_mse needs at least one token per layer, layer {i} has 0")
            per_layer.append(float(np.mean(np.sum((s - t) ** 2, axis=1))))
        mse = float(np.mean(per_layer))
    if not np.isfinite(mse):
        raise NumericsError(f"layerwise_mse is not finite: {mse}")
    return mse


def _ratio_mse_term(kd: float, mse: float, beta: float) -> float:
    """beta * |kd/mse| * mse in its closed form beta * |kd| for mse > 0; the
    literal quotient overflows float64 at a small enough mse (1e-310, say)."""
    if mse < 0.0:
        raise ValueError(f"mse is a squared distance, got {mse}")
    if mse == 0.0:
        warnings.warn("mse is 0; the ratio-weighted term is defined as 0", RuntimeWarning, stacklevel=3)
        return 0.0
    return beta * abs(kd)


def combined_loss_llm(ce: float, aux: float, kd: float, mse: float,
                      c: float = LLM_AUX_COEFF, alpha: float = LLM_KD_COEFF,
                      beta: float = LLM_MSE_COEFF) -> LossBreakdown:
    """ce + c*aux + alpha*kd + beta*|kd/mse|*mse (the last term collapses
    to beta*|kd| whenever mse > 0)."""
    for name, val in (("ce", ce), ("aux", aux), ("kd", kd), ("mse", mse)):
        if not np.isfinite(val):
            raise NumericsError(f"{name} is not finite: {val}")
    combined = ce + c * aux + alpha * kd + _ratio_mse_term(kd, mse, beta)
    return LossBreakdown(ce=ce, aux=aux, kd=kd, mse=mse, c=c, alpha=alpha, beta=beta, combined=combined)


def combined_loss_vlm(kd: float, mse: float, alpha: float = VLM_KD_COEFF,
                      beta: float = VLM_MSE_COEFF) -> LossBreakdown:
    """alpha*kd + beta*mse, for the vision-language distillation setting."""
    for name, val in (("kd", kd), ("mse", mse)):
        if not np.isfinite(val):
            raise NumericsError(f"{name} is not finite: {val}")
    combined = alpha * kd + beta * mse
    return LossBreakdown(ce=0.0, aux=0.0, kd=kd, mse=mse, c=0.0, alpha=alpha, beta=beta, combined=combined)
