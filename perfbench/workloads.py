"""The three benchmark workloads.

Each workload makes its inputs from a seed in `setup` (the set-up the
benchmark times), runs one closed-loop operation in `op`, and computes the
outputs that operation must produce in `reference`, with the independent
code in `oracle.py`. Import this module only after `src/` is on sys.path.
Package functions are called through their modules, so that a traced run,
which swaps module attributes, sees the calls made from here.
"""

from __future__ import annotations

import numpy as np

import oracle
from dssalab import attention, fp8, moba, quant, spike, sse, stack

D_HEAD = 16
SWA_WINDOW = 128
MOBA = moba.MobaParams(block_size=64, top_k=4)
SSE_PARTITIONS, SSE_TOP_K = 4, 2
GROUP = 128

SIZES = {
    "full": {"prefill_hybrid": 256, "attn_long": (2048, 4096), "quant_matmul": (64, (256, 1024))},
    "tiny": {"prefill_hybrid": 24, "attn_long": (256, 512), "quant_matmul": (8, (128, 256))},
}


class PrefillHybrid:
    """`stack_forward` on the paper's default 36-layer plan, inference mode.

    `traced` on each workload names the wrapped functions its op must call,
    and `calibration` the kind of run.Calibration kernel that its times
    are scaled by.
    """

    name = "prefill_hybrid"
    calibration = "interpreter"
    traced = ("stack_forward", "sse_forward", "sse_gate", "moba_forward", "moba_select",
              "full_attention", "swa", "softmax_rows", "rms_norm", "silu")

    def setup(self, seed: int, size: str) -> dict:
        n = SIZES[size][self.name]
        config = stack.StackConfig()
        rng = np.random.default_rng(seed)
        return {
            "config": config,
            "params": stack.init_stack_params(stack.default_plan(), config, seed=seed),
            "x": rng.normal(0.0, 1.0, (n, config.d_model)),
        }

    def tokens(self, inputs: dict) -> int:
        return inputs["x"].shape[0]

    def op(self, inputs: dict) -> dict:
        return {"hidden": stack.stack_forward(inputs["x"], inputs["params"], inputs["config"]).hidden}

    def reference(self, inputs: dict) -> dict:
        return {"hidden": oracle.stack(inputs["x"], inputs["params"], inputs["config"])}


class AttnLong:
    """Each mechanism alone on one head at two lengths, as few large calls."""

    name = "attn_long"
    calibration = "memory"
    traced = ("sse_forward", "sse_gate", "moba_forward", "moba_select", "full_attention", "swa",
              "softmax_rows", "silu")

    def setup(self, seed: int, size: str) -> dict:
        rng = np.random.default_rng(seed)
        heads = {}
        for n in SIZES[size][self.name]:
            q, k, v, x = (rng.normal(0.0, 1.0, (n, D_HEAD)) for _ in range(4))
            heads[n] = (x, q / np.sqrt(D_HEAD), k, v)
        gate = rng.normal(0.0, 1.0 / np.sqrt(D_HEAD), (D_HEAD, SSE_PARTITIONS))
        params = sse.SSEParams(num_partitions=SSE_PARTITIONS, top_k=SSE_TOP_K, gate_weight=gate,
                               feature_map="silu")
        return {"heads": heads, "sse": params}

    def tokens(self, inputs: dict) -> int:
        return sum(inputs["heads"])

    def op(self, inputs: dict) -> dict:
        out = {}
        for n, (x, q, k, v) in inputs["heads"].items():
            out[f"fa_{n}"] = attention.full_attention(q, k, v)
            out[f"swa_{n}"] = attention.swa(q, k, v, SWA_WINDOW)
            out[f"moba_{n}"] = moba.moba_forward(q, k, v, MOBA)
            out[f"sse_{n}"] = sse.sse_forward(x, q, k, v, inputs["sse"]).outputs
        return out

    def reference(self, inputs: dict) -> dict:
        gate = inputs["sse"].gate_weight
        out = {}
        for n, (x, q, k, v) in inputs["heads"].items():
            out[f"fa_{n}"] = oracle.full_attention(q, k, v)
            out[f"swa_{n}"] = oracle.swa(q, k, v, SWA_WINDOW)
            out[f"moba_{n}"] = oracle.moba(q, k, v, MOBA.block_size, MOBA.top_k)
            out[f"sse_{n}"] = oracle.sse(x, q, k, v, gate, SSE_PARTITIONS, SSE_TOP_K)
        return out


class QuantMatmul:
    """Token activations through two block-quantized weights, on the INT8,
    spike and 8-bit-float paths. Weight quantization is set-up."""

    name = "quant_matmul"
    calibration = "interpreter"
    traced = ("quantize_weight_blocks", "quantize_activation_groups", "int8_matmul_reference",
              "spike_encode", "spike_matmul", "fp8_quantize", "fp8_matmul_emulated")

    def setup(self, seed: int, size: str) -> dict:
        tokens, dims = SIZES[size][self.name]
        rng = np.random.default_rng(seed)
        mats = []
        for d in dims:
            w = rng.normal(0.0, 1.0 / np.sqrt(d), (d, d))
            mats.append((rng.normal(0.0, 1.0, (tokens, d)), w, quant.quantize_weight_blocks(w)))
        return {"mats": mats}

    def tokens(self, inputs: dict) -> int:
        return inputs["mats"][0][0].shape[0]

    def op(self, inputs: dict) -> dict:
        out = {}
        for a, _, qw in inputs["mats"]:
            d = a.shape[1]
            qa = quant.quantize_activation_groups(a, GROUP)
            out[f"int8_{d}"] = quant.int8_matmul_reference(qa, qw)
            out[f"spike_{d}"], _ = spike.spike_matmul(spike.spike_encode(qa), qw)
            out[f"fp8_{d}"] = fp8.fp8_matmul_emulated(fp8.fp8_quantize(a, GROUP), qw)
        return out

    def reference(self, inputs: dict) -> dict:
        out = {}
        for a, w, qw in inputs["mats"]:
            d = a.shape[1]
            w_codes, w_scales = oracle.quantize_weight(w, GROUP, quant.DEFAULT_CLIP_GRID)
            if not (np.array_equal(w_codes, qw.codes) and np.array_equal(w_scales, qw.scales)):
                raise ValueError(f"weight quantization of the {d}x{d} matrix differs from the oracle")
            a_codes, a_scales = oracle.quantize_groups(a, GROUP)
            out[f"int8_{d}"] = out[f"spike_{d}"] = oracle.int8_product(a_codes, a_scales, w_codes, w_scales, GROUP)
            w_dequant = w_codes * np.repeat(np.repeat(w_scales, GROUP, 0), GROUP, 1)[:d, :d]
            out[f"fp8_{d}"] = oracle.fp8_product(a, w_dequant, GROUP)
        return out


def is_exact(output: str) -> bool:
    """INT8 and spike products must match bit for bit; the rest within tolerance."""
    return output.startswith(("int8_", "spike_"))


WORKLOADS = {w.name: w for w in (PrefillHybrid(), AttnLong(), QuantMatmul())}
