"""Hybrid layer stack.

A decoder stack that mixes three attention mechanisms per a layer plan:

* ``sse_swa``: gated sparse-state linear attention merged with a sliding
  window branch. Each branch has its own QKV and output projections; the
  branch outputs are RMS-normed and summed, with the window branch scaled
  by a per-sequence dropout gate during training.
* ``moba``: block-sparse softmax attention.
* ``fa``: full causal softmax attention.

Every layer is pre-norm: RMSNorm, attention, residual add, then RMSNorm,
a SwiGLU feed-forward, residual add. The module also hosts the sensitivity
driven procedure that picks which layers to run as ``moba``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

import numpy as np

from .attention import full_attention, swa
from .moba import MobaParams, moba_forward
from .sse import SSEParams, sse_forward
from .tensor_ops import ShapeError, as_f64, ensure_finite, rms_norm, silu

LAYER_KINDS = ("sse_swa", "moba", "fa")
DEFAULT_NUM_LAYERS = 36
DEFAULT_MOBA_LAYERS = (0, 1, 2, 3, 6, 12, 17, 21, 24)
DEFAULT_FA_LAYERS = (35,)


@dataclass(frozen=True)
class LayerPlan:
    """Which mechanism runs at each depth."""

    kinds: tuple[str, ...]

    def __post_init__(self):
        for kind in self.kinds:
            if kind not in LAYER_KINDS:
                raise ValueError(f"unknown layer kind {kind!r}")

    def __len__(self) -> int:
        return len(self.kinds)

    def counts(self) -> dict[str, int]:
        return {kind: self.kinds.count(kind) for kind in LAYER_KINDS}


def default_plan() -> LayerPlan:
    """Default 36-layer hybrid plan: block-sparse layers concentrated in the
    lower half plus one mid/deep stripe, one full-attention layer at the
    top, window-merged linear attention everywhere else."""
    kinds = ["sse_swa"] * DEFAULT_NUM_LAYERS
    for i in DEFAULT_MOBA_LAYERS:
        kinds[i] = "moba"
    for i in DEFAULT_FA_LAYERS:
        kinds[i] = "fa"
    return LayerPlan(kinds=tuple(kinds))


@dataclass(frozen=True)
class StackConfig:
    """Shared hyperparameters for a stack instance."""

    d_model: int = 16
    n_heads: int = 2
    d_ff: int = 32
    sse_partitions: int = 4
    sse_top_k: int = 2
    moba_block_size: int = 4096
    moba_top_k: int = 12
    swa_window: int = 128
    merge_dropout: float = 0.5
    scale_qk: bool = True

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.merge_dropout <= 1.0:
            raise ValueError(f"merge_dropout must be in [0, 1], got {self.merge_dropout}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class LayerParams:
    kind: str
    weights: dict[str, np.ndarray]


def _proj_set(rng, d_model: int, prefix: str) -> dict[str, np.ndarray]:
    scale = 0.2 / np.sqrt(d_model)
    return {
        f"{prefix}_wq": rng.normal(0.0, scale, (d_model, d_model)),
        f"{prefix}_wk": rng.normal(0.0, scale, (d_model, d_model)),
        f"{prefix}_wv": rng.normal(0.0, scale, (d_model, d_model)),
        f"{prefix}_wo": rng.normal(0.0, scale, (d_model, d_model)),
    }


def init_stack_params(plan: LayerPlan, config: StackConfig, seed: int = 0) -> list[LayerParams]:
    """Seeded random weights for every layer in the plan."""
    rng = np.random.default_rng(seed)
    d = config.d_model
    params: list[LayerParams] = []
    for kind in plan.kinds:
        weights: dict[str, np.ndarray] = {
            "norm_attn": np.ones(d),
            "norm_mlp": np.ones(d),
            "mlp_w1": rng.normal(0.0, 0.2 / np.sqrt(d), (d, config.d_ff)),
            "mlp_w3": rng.normal(0.0, 0.2 / np.sqrt(d), (d, config.d_ff)),
            "mlp_w2": rng.normal(0.0, 0.2 / np.sqrt(config.d_ff), (config.d_ff, d)),
        }
        if kind == "sse_swa":
            weights.update(_proj_set(rng, d, "sse"))
            weights.update(_proj_set(rng, d, "swa"))
            weights["sse_gate"] = rng.normal(0.0, 0.2 / np.sqrt(d), (d, config.sse_partitions))
            weights["merge_norm_sse"] = np.ones(d)
            weights["merge_norm_swa"] = np.ones(d)
        else:
            weights.update(_proj_set(rng, d, kind))
        params.append(LayerParams(kind=kind, weights=weights))
    return params


def merge_gate(dropout_rate: float, rng: np.random.Generator | None, training: bool) -> float:
    """Per-sequence inverted dropout gate on the window branch.

    Training draws 0 with probability p and 1/(1-p) otherwise, so the gate
    has unit mean; inference always returns 1.
    """
    if not training or dropout_rate == 0.0:
        return 1.0
    if not 0.0 <= dropout_rate <= 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1], got {dropout_rate}")
    if dropout_rate >= 1.0:
        return 0.0
    if rng is None:
        raise ValueError("training with dropout needs an rng")
    keep = rng.random() >= dropout_rate
    return (1.0 / (1.0 - dropout_rate)) if keep else 0.0


def sse_swa_block(sse_out, swa_out, norm_sse, norm_swa, gate: float = 1.0) -> np.ndarray:
    """Merge the two branch outputs: each is RMS-normed, the window branch
    is scaled by the dropout gate (see merge_gate), then they are summed."""
    sse_out, swa_out = as_f64(sse_out), as_f64(swa_out)
    if sse_out.shape != swa_out.shape:
        raise ShapeError(f"branch shapes disagree: {sse_out.shape} vs {swa_out.shape}")
    return rms_norm(sse_out, norm_sse) + gate * rms_norm(swa_out, norm_swa)


def _multihead(normed: np.ndarray, lw: dict, prefix: str, config: StackConfig,
               per_head) -> np.ndarray:
    """Project with the `prefix` q/k/v weights, run per_head on each head's
    slices, concatenate the heads and apply the `prefix` output projection."""
    q, k, v = (normed @ lw[f"{prefix}_w{name}"] for name in "qkv")
    if config.scale_qk:
        q = q / np.sqrt(config.d_head)
    heads = zip(*(np.split(t, config.n_heads, axis=1) for t in (q, k, v)))
    return np.concatenate([per_head(*h) for h in heads], axis=1) @ lw[f"{prefix}_wo"]


@dataclass
class StackTrace:
    """Forward pass record: final hidden plus the merge gate of each
    sse_swa layer."""

    hidden: np.ndarray
    merge_gates: list[float] = field(default_factory=list)


def _attend(kind: str, normed: np.ndarray, lw: dict, config: StackConfig,
            gate: float) -> np.ndarray:
    if kind == "sse_swa":
        sse_params = SSEParams(
            num_partitions=config.sse_partitions,
            top_k=config.sse_top_k,
            gate_weight=lw["sse_gate"],
            feature_map="silu",
        )
        sse_out = _multihead(
            normed, lw, "sse", config,
            lambda qh, kh, vh: sse_forward(normed, qh, kh, vh, sse_params).outputs,
        )
        swa_out = _multihead(
            normed, lw, "swa", config, lambda qh, kh, vh: swa(qh, kh, vh, config.swa_window)
        )
        return sse_swa_block(sse_out, swa_out, lw["merge_norm_sse"], lw["merge_norm_swa"], gate=gate)
    if kind == "moba":
        mp = MobaParams(block_size=config.moba_block_size, top_k=config.moba_top_k)
        return _multihead(normed, lw, "moba", config, lambda qh, kh, vh: moba_forward(qh, kh, vh, mp))
    if kind == "fa":
        return _multihead(normed, lw, "fa", config, full_attention)
    raise ValueError(f"unknown layer kind {kind!r}")


def stack_forward(x, params: list[LayerParams], config: StackConfig,
                  training: bool = False, seed: int = 0) -> StackTrace:
    """Run the stack on token features x of shape (n, d_model)."""
    hidden = as_f64(x).copy()
    if hidden.ndim != 2 or hidden.shape[1] != config.d_model:
        raise ShapeError(f"input shape {hidden.shape} != (n, {config.d_model})")
    rng = np.random.default_rng(seed)
    trace = StackTrace(hidden=hidden)
    for layer in params:
        lw = layer.weights
        gate = merge_gate(config.merge_dropout, rng, training) if layer.kind == "sse_swa" else 1.0
        attn = _attend(layer.kind, rms_norm(hidden, lw["norm_attn"]), lw, config, gate)
        hidden = hidden + attn
        normed = rms_norm(hidden, lw["norm_mlp"])
        hidden = hidden + (silu(normed @ lw["mlp_w1"]) * (normed @ lw["mlp_w3"])) @ lw["mlp_w2"]
        if layer.kind == "sse_swa":
            trace.merge_gates.append(gate)
    ensure_finite(hidden, "stack_forward")
    trace.hidden = hidden
    return trace


@dataclass(frozen=True)
class SensitivityProfile:
    """Per-layer retrieval scores, each measured with that layer swapped to
    a sparse mechanism."""

    scores: tuple[float, ...]


def select_moba_layers(profile: SensitivityProfile, drop_threshold: float) -> list[int]:
    """Pick layers whose swap score sits well below their peers.

    Scans from the deepest layer toward the shallowest. Each layer is
    compared against the median score of the already-scanned layers that
    were NOT picked; while that set is empty the median of the whole
    profile stands in, so selection depends only on relative scores. A
    layer is picked when its score falls more than drop_threshold below
    the reference. Returns the picked indices in ascending order.
    """
    if len(profile.scores) == 0:
        raise ValueError("sensitivity profile has no scores")
    if drop_threshold < 0:
        raise ValueError(f"drop_threshold must be >= 0, got {drop_threshold}")
    global_median = median(profile.scores)
    picked: list[int] = []
    kept_scores: list[float] = []
    for idx in range(len(profile.scores) - 1, -1, -1):
        reference = median(kept_scores) if kept_scores else global_median
        if profile.scores[idx] < reference - drop_threshold:
            picked.append(idx)
        else:
            kept_scores.append(profile.scores[idx])
    return sorted(picked)
