"""Independent reference implementations the benchmark checks outputs against.

Written from the documented semantics of each mechanism, not by calling the
package under test: a wrong fast path in the package cannot make its own
reference agree with it. Quadratic work runs in row chunks so that computing
the references never raises the peak memory above what the program itself
needs (peak memory is an end-to-end metric).
"""

from __future__ import annotations

import numpy as np

CHUNK = 256
FP8_MAX = 448.0


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row softmax; entries of -inf get probability 0."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def silu(x: np.ndarray) -> np.ndarray:
    return x * (0.5 * (1.0 + np.tanh(0.5 * x)))


def rms_norm(x: np.ndarray, w: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    return w * x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)


def full_attention(q, k, v) -> np.ndarray:
    n = q.shape[0]
    out = np.empty((n, v.shape[1]))
    for r0 in range(0, n, CHUNK):
        r1 = min(r0 + CHUNK, n)
        scores = q[r0:r1] @ k[:r1].T
        rows = np.arange(r0, r1)[:, None]
        scores[np.arange(r1)[None, :] > rows] = -np.inf
        out[r0:r1] = softmax(scores) @ v[:r1]
    return out


def swa(q, k, v, window: int) -> np.ndarray:
    """Banded form: each query scores only its last `window` keys."""
    n, d = q.shape
    pad_k = np.concatenate([np.zeros((window - 1, d)), k])
    pad_v = np.concatenate([np.zeros((window - 1, v.shape[1])), v])
    kw = np.lib.stride_tricks.sliding_window_view(pad_k, window, axis=0)  # (n, d, w)
    vw = np.lib.stride_tricks.sliding_window_view(pad_v, window, axis=0)
    out = np.empty((n, v.shape[1]))
    for r0 in range(0, n, CHUNK):
        r1 = min(r0 + CHUNK, n)
        scores = np.einsum("nd,ndw->nw", q[r0:r1], kw[r0:r1])
        pos = np.arange(r0, r1)[:, None] - (window - 1) + np.arange(window)[None, :]
        scores[pos < 0] = -np.inf
        out[r0:r1] = np.einsum("nw,ndw->nd", softmax(scores), vw[r0:r1])
    return out


def moba_blocks(q, k, block_size: int, top_k: int) -> list[np.ndarray]:
    """Per query: its own block plus the top_k - 1 best visible others by
    softmax of the query against mean-pooled block keys, ties to the lower
    index. Returned sorted ascending."""
    n = q.shape[0]
    nb = -(-n // block_size)
    pooled = np.stack([k[b * block_size:(b + 1) * block_size].mean(axis=0) for b in range(nb)])
    current = np.arange(n) // block_size
    scores = q @ pooled.T
    invisible = np.arange(nb)[None, :] > current[:, None]
    scores[invisible] = -np.inf
    probs = softmax(scores)
    probs[invisible] = -np.inf
    probs[np.arange(n), current] = np.inf  # own block always kept
    order = np.argsort(-probs, axis=1, kind="stable")
    return [np.sort(order[t, : min(top_k, current[t] + 1)]) for t in range(n)]


def moba(q, k, v, block_size: int, top_k: int) -> np.ndarray:
    n = q.shape[0]
    out = np.empty((n, v.shape[1]))
    for t, blocks in enumerate(moba_blocks(q, k, block_size, top_k)):
        keys = np.concatenate([np.arange(b * block_size, min((b + 1) * block_size, t + 1)) for b in blocks])
        out[t] = softmax(q[t] @ k[keys].T) @ v[keys]
    return out


def sse(x, q, k, v, gate_weight, num_partitions: int, top_k: int) -> np.ndarray:
    """Gated top-k partitioned linear attention with the silu feature map."""
    q, k = silu(q), silu(k)
    gates = softmax(x @ gate_weight)
    chosen = np.sort(np.argsort(-gates, axis=1, kind="stable")[:, :top_k], axis=1)
    state = np.zeros((num_partitions, q.shape[1], v.shape[1]))
    out = np.zeros((q.shape[0], v.shape[1]))
    for t in range(q.shape[0]):
        update = np.outer(k[t], v[t])
        for i in chosen[t]:
            state[i] += gates[t, i] * update
            out[t] += gates[t, i] * (q[t] @ state[i])
    return out


def stack(x, layers, config) -> np.ndarray:
    """Pre-norm hybrid stack in inference mode (merge gate 1)."""
    h = np.array(x, dtype=np.float64)
    heads, dh = config.n_heads, config.d_head
    scale = 1.0 / np.sqrt(dh) if config.scale_qk else 1.0

    def multihead(normed, w, prefix, attend):
        q, k, v = (normed @ w[f"{prefix}_w{p}"] for p in "qkv")
        q = q * scale
        cols = [slice(i * dh, (i + 1) * dh) for i in range(heads)]
        return np.concatenate([attend(q[:, c], k[:, c], v[:, c]) for c in cols], axis=1) @ w[f"{prefix}_wo"]

    for layer in layers:
        w = layer.weights
        normed = rms_norm(h, w["norm_attn"])
        if layer.kind == "sse_swa":
            s = multihead(normed, w, "sse", lambda q, k, v: sse(
                normed, q, k, v, w["sse_gate"], config.sse_partitions, config.sse_top_k))
            o = multihead(normed, w, "swa", lambda q, k, v: swa(q, k, v, config.swa_window))
            attn = rms_norm(s, w["merge_norm_sse"]) + rms_norm(o, w["merge_norm_swa"])
        elif layer.kind == "moba":
            attn = multihead(normed, w, "moba", lambda q, k, v: moba(
                q, k, v, config.moba_block_size, config.moba_top_k))
        else:
            attn = multihead(normed, w, "fa", full_attention)
        h = h + attn
        normed = rms_norm(h, w["norm_mlp"])
        h = h + (silu(normed @ w["mlp_w1"]) * (normed @ w["mlp_w3"])) @ w["mlp_w2"]
    return h


def round_half_away(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, np.floor(x + 0.5), -np.floor(0.5 - x))


def quantize_groups(x, group_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row, per-group symmetric INT8: scale = max|group| / 127."""
    n, d = x.shape
    codes = np.empty((n, d), dtype=np.int8)
    scales = np.empty((n, -(-d // group_size)))
    for g, c0 in enumerate(range(0, d, group_size)):
        group = x[:, c0:c0 + group_size]
        amax = np.abs(group).max(axis=1)
        s = np.where(amax == 0.0, 1.0, amax / 127.0)
        codes[:, c0:c0 + group_size] = np.clip(round_half_away(group / s[:, None]), -127, 127)
        scales[:, g] = s
    return codes, scales


def quantize_weight(w, block: int, grid) -> tuple[np.ndarray, np.ndarray]:
    """Per block: the clip c with least reconstruction MSE (ties to larger c)."""
    codes = np.zeros(w.shape, dtype=np.int8)
    scales = np.ones((-(-w.shape[0] // block), -(-w.shape[1] // block)))
    for br, r0 in enumerate(range(0, w.shape[0], block)):
        for bc, c0 in enumerate(range(0, w.shape[1], block)):
            blk = w[r0:r0 + block, c0:c0 + block]
            amax = np.abs(blk).max()
            if amax == 0.0:
                continue
            best = None
            for c in sorted(grid, reverse=True):
                s = c * amax / 127.0
                cand = np.clip(round_half_away(blk / s), -127, 127)
                err = float(np.mean((cand * s - blk) ** 2))
                if best is None or err < best[0]:
                    best = (err, s, cand)
            scales[br, bc] = best[1]
            codes[r0:r0 + block, c0:c0 + block] = best[2]
    return codes, scales


def int8_product(a_codes, a_scales, w_codes, w_scales, group: int) -> np.ndarray:
    """Integer tile products scaled in float64, tiles summed in ascending order."""
    col_scale = np.repeat(w_scales, group, axis=1)[:, : w_codes.shape[1]]
    out = np.zeros((a_codes.shape[0], w_codes.shape[1]))
    for g, r0 in enumerate(range(0, a_codes.shape[1], group)):
        acc = a_codes[:, r0:r0 + group].astype(np.int64) @ w_codes[r0:r0 + group].astype(np.int64)
        out += acc.astype(np.float64) * a_scales[:, g:g + 1] * col_scale[g]
    return out


def _fp8_positive_values() -> np.ndarray:
    """All finite non-negative values of the 1-4-3 format, ascending; the
    index of a value is its 7-bit code."""
    vals = [m / 8.0 * 2.0 ** -6 for m in range(8)]  # subnormals
    vals += [(1.0 + m / 8.0) * 2.0 ** (e - 7) for e in range(1, 16) for m in range(8)]
    return np.array(vals[:127])  # code 0x7f is NaN


def fp8_round(x: np.ndarray) -> np.ndarray:
    """Nearest representable value, ties to the even code, saturating at 448."""
    table = _fp8_positive_values()
    mag = np.minimum(np.abs(x), FP8_MAX)
    hi = np.searchsorted(table, mag)
    lo = np.maximum(hi - 1, 0)
    d_lo, d_hi = mag - table[lo], table[hi] - mag
    pick = np.where((d_hi < d_lo) | ((d_hi == d_lo) & (hi % 2 == 0)), hi, lo)
    return np.copysign(table[pick], x)


def fp8_product(x, w_dequant, group: int) -> np.ndarray:
    lhs = np.empty_like(x)
    for c0 in range(0, x.shape[1], group):
        g = x[:, c0:c0 + group]
        amax = np.abs(g).max(axis=1)
        s = np.where(amax == 0.0, 1.0, amax / FP8_MAX)[:, None]
        lhs[:, c0:c0 + group] = fp8_round(g / s) * s
    return lhs @ w_dequant
