#ifndef MUGI_MODEL_WORKLOAD_H_
#define MUGI_MODEL_WORKLOAD_H_

/**
 * @file
 * Workload generator: turns a Table 1 model configuration into the
 * stream of GEMM and nonlinear operations one inference step performs.
 * This is the input to the performance / cost simulator (Sec. 5.4) and
 * the basis of every architecture experiment (Fig. 11-17, Table 3).
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/config.h"
#include "nonlinear/reference.h"

namespace mugi {
namespace model {

/** Classification used in the latency/carbon breakdowns (Fig. 15/16). */
enum class OpClass {
    kProjection,  ///< QKVO projections.
    kAttention,   ///< QK^T and PV GEMMs against the KV cache.
    kFfn,         ///< FFN matrices.
    kNonlinear,   ///< softmax / SiLU / GELU work.
};

/** One GEMM: out[m, n] += act[m, k] * weight[k, n], repeated count x. */
struct GemmOp {
    std::string name;
    OpClass cls = OpClass::kProjection;
    std::size_t m = 0;  ///< Activation rows (batch-like dim).
    std::size_t n = 0;  ///< Output features (weight rows on Mugi).
    std::size_t k = 0;  ///< Reduction dim.
    std::size_t count = 1;  ///< Repetitions (e.g. per KV head, layer).
    int weight_bits = 4;    ///< INT4 under WOQ/KVQ, 16 for BF16.
    int act_bits = 16;      ///< BF16 activations / Q tokens.
    /** Weights are streamed once per pass (false for KV cache reuse). */
    bool weights_from_dram = true;

    std::uint64_t
    macs() const
    {
        return static_cast<std::uint64_t>(m) * n * k * count;
    }
    /** Bytes of weight traffic for one pass. */
    std::uint64_t
    weight_bytes() const
    {
        return static_cast<std::uint64_t>(n) * k * count * weight_bits /
               8;
    }
    std::uint64_t
    activation_bytes() const
    {
        return static_cast<std::uint64_t>(m) * k * count * act_bits / 8;
    }
    std::uint64_t
    output_bytes() const
    {
        return static_cast<std::uint64_t>(m) * n * count * 4;
    }
};

/** One batch of element-wise nonlinear work. */
struct NonlinearWork {
    std::string name;
    nonlinear::NonlinearOp op = nonlinear::NonlinearOp::kExp;
    std::size_t elements = 0;
    /** True when the op is a softmax (adds the sum + divide pass). */
    bool is_softmax = false;
    /** Softmax row length (elements per normalization group). */
    std::size_t row_length = 0;
};

/** An inference step's full operation stream. */
struct Workload {
    std::string name;
    ModelConfig config;
    std::size_t batch = 1;
    std::size_t seq_len = 1;
    bool decode = true;  ///< Decode step vs prefill pass.
    std::vector<GemmOp> gemms;
    std::vector<NonlinearWork> nonlinears;

    std::uint64_t total_macs() const;
    std::uint64_t total_weight_bytes() const;
    std::uint64_t total_nonlinear_elements() const;

    /** Tokens produced by this step (batch for decode). */
    std::size_t tokens() const { return decode ? batch : batch * seq_len; }
};

/**
 * One decode step (one new token per sequence in the batch) at
 * context length @p context, with WOQ weights and KVQ cache
 * (Sec. 2.3): all weight and KV GEMMs are BF16-INT4.
 */
Workload build_decode_workload(const ModelConfig& config,
                               std::size_t batch, std::size_t context);

/** A full prefill pass over @p seq_len tokens. */
Workload build_prefill_workload(const ModelConfig& config,
                                std::size_t batch, std::size_t seq_len);

/**
 * One continuous-batching decode step over @p contexts.size()
 * concurrent requests, request i attending a KV cache of length
 * contexts[i].  Projection and FFN GEMMs batch every request's token
 * into one op (streaming the WOQ weights from DRAM once for the
 * whole batch -- the serving win over per-request decode);
 * per-request attention and softmax work is emitted per context
 * length.  Total MACs and nonlinear elements equal the sum of the
 * equivalent independent batch-1 decode workloads exactly; only the
 * weight traffic is shared.
 */
Workload build_mixed_decode_workload(
    const ModelConfig& config, std::span<const std::size_t> contexts);

/**
 * One chunk of a chunked prefill: @p tokens new prompt positions
 * appended to a context that already holds @p start positions.  The
 * chunk's queries attend causally, so query t (1-based) sees
 * start + t cached K/V vectors.
 */
struct PrefillChunk {
    std::size_t start = 0;   ///< KV positions cached before the chunk.
    std::size_t tokens = 0;  ///< New prompt tokens this chunk feeds.

    /**
     * Total K/V positions attended across the chunk's causal queries:
     * sum_{t=1..tokens} (start + t).  This is the exact attention
     * volume, so splitting a prompt into chunks never changes the
     * summed attention MACs.
     */
    std::uint64_t
    attended() const
    {
        return static_cast<std::uint64_t>(tokens) * start +
               static_cast<std::uint64_t>(tokens) * (tokens + 1) / 2;
    }
};

/** One prefill chunk as a standalone (batch-1) workload. */
Workload build_prefill_chunk_workload(const ModelConfig& config,
                                      const PrefillChunk& chunk);

/**
 * One continuous-batching serving step mixing decode tokens and
 * prefill chunks (the chunked-prefill schedule of serve::Scheduler):
 * every decode token and every chunk token shares one projection /
 * FFN GEMM -- the WOQ weight stream is paid once for the whole mixed
 * step -- while attention and softmax are emitted per request at its
 * exact (causal) context.  Exact-sum invariant: total MACs and
 * nonlinear elements equal the sum of the equivalent standalone
 * batch-1 decode workloads (build_decode_workload) and standalone
 * prefill-chunk workloads (build_prefill_chunk_workload).
 */
Workload build_mixed_step_workload(
    const ModelConfig& config,
    std::span<const std::size_t> decode_contexts,
    std::span<const PrefillChunk> prefill_chunks);

}  // namespace model
}  // namespace mugi

#endif  // MUGI_MODEL_WORKLOAD_H_
