#include "model/workload.h"

#include <algorithm>
#include <utility>

namespace mugi {
namespace model {

std::uint64_t
Workload::total_macs() const
{
    std::uint64_t total = 0;
    for (const GemmOp& g : gemms) {
        total += g.macs();
    }
    return total;
}

std::uint64_t
Workload::total_weight_bytes() const
{
    std::uint64_t total = 0;
    for (const GemmOp& g : gemms) {
        if (g.weights_from_dram) {
            total += g.weight_bytes();
        }
    }
    return total;
}

std::uint64_t
Workload::total_nonlinear_elements() const
{
    std::uint64_t total = 0;
    for (const NonlinearWork& n : nonlinears) {
        total += n.elements;
    }
    return total;
}

namespace {

/**
 * One attention entry of the op stream: its QK^T and PV GEMMs (per
 * KV head and layer) and its softmax.
 */
struct AttentionEntry {
    std::string qk_name;
    std::string pv_name;
    std::string softmax_name;
    std::size_t q_rows = 0;  ///< Query rows per KV head.
    std::size_t kv_len = 0;  ///< Attended K/V positions.
    /** Softmax elements per layer and query head. */
    std::size_t softmax_elements = 0;
    std::size_t row_length = 0;  ///< Softmax row length.
};

/**
 * Emit the per-layer op stream over @p m activation rows: the Q/K/V/O
 * projections, every entry's attention GEMMs, the FFN, every entry's
 * softmax, then the FFN activation.
 */
void
emit_ops(const ModelConfig& c, std::size_t m,
         std::vector<AttentionEntry> entries, Workload& w)
{
    const std::size_t d = c.d_model;
    const std::size_t hd = c.head_dim();
    const std::size_t kv_dim = c.num_kv_heads * hd;
    const std::size_t L = c.num_layers;

    // --- Projections (WOQ INT4 weights): every row batches into one
    // GEMM, so the weights stream from DRAM once for all rows. ---
    w.gemms.push_back({"q_proj", OpClass::kProjection, m, d, d, L, 4,
                       16, true});
    w.gemms.push_back({"k_proj", OpClass::kProjection, m, kv_dim, d, L,
                       4, 16, true});
    w.gemms.push_back({"v_proj", OpClass::kProjection, m, kv_dim, d, L,
                       4, 16, true});
    w.gemms.push_back({"o_proj", OpClass::kProjection, m, d, d, L, 4,
                       16, true});

    // --- Attention against the (KVQ INT4) cache, per entry. ---
    for (AttentionEntry& e : entries) {
        w.gemms.push_back({std::move(e.qk_name), OpClass::kAttention,
                           e.q_rows, e.kv_len, hd, L * c.num_kv_heads,
                           4, 16, false});
        w.gemms.push_back({std::move(e.pv_name), OpClass::kAttention,
                           e.q_rows, hd, e.kv_len, L * c.num_kv_heads,
                           4, 16, false});
    }

    // --- FFN (WOQ INT4 weights), batched like the projections. ---
    if (c.gated_ffn()) {
        w.gemms.push_back({"ffn_gate", OpClass::kFfn, m, c.d_ff, d, L,
                           4, 16, true});
    }
    w.gemms.push_back({"ffn_up", OpClass::kFfn, m, c.d_ff, d, L, 4, 16,
                       true});
    w.gemms.push_back({"ffn_down", OpClass::kFfn, m, d, c.d_ff, L, 4,
                       16, true});

    // --- Nonlinear work: softmax per entry, activation batched. ---
    for (AttentionEntry& e : entries) {
        NonlinearWork softmax;
        softmax.name = std::move(e.softmax_name);
        softmax.op = nonlinear::NonlinearOp::kExp;
        softmax.is_softmax = true;
        softmax.row_length = e.row_length;
        softmax.elements = L * c.num_heads * e.softmax_elements;
        w.nonlinears.push_back(std::move(softmax));
    }
    NonlinearWork act;
    act.name = c.activation() == nonlinear::NonlinearOp::kSilu
                   ? "silu"
                   : "gelu";
    act.op = c.activation();
    act.elements = L * m * c.d_ff;
    w.nonlinears.push_back(std::move(act));
}

/**
 * @p batch sequences of @p q_tokens queries each attending @p kv_len
 * positions, as one batched attention entry.  Per KV head, the GQA
 * group's queries batch together: the Mugi mapping places these
 * group x batch Q tokens on the columns (Sec. 4.2).
 */
void
emit_layer_ops(const ModelConfig& c, std::size_t batch,
               std::size_t q_tokens, std::size_t kv_len, Workload& w)
{
    std::vector<AttentionEntry> entries;
    entries.push_back({"attn_qk", "attn_pv", "softmax",
                       batch * c.gqa_group() * q_tokens, kv_len,
                       batch * q_tokens * kv_len, kv_len});
    emit_ops(c, batch * q_tokens, std::move(entries), w);
}

}  // namespace

Workload
build_decode_workload(const ModelConfig& config, std::size_t batch,
                      std::size_t context)
{
    Workload w;
    w.name = config.name + "-decode";
    w.config = config;
    w.batch = batch;
    w.seq_len = context;
    w.decode = true;
    emit_layer_ops(config, batch, /*q_tokens=*/1, /*kv_len=*/context, w);
    return w;
}

Workload
build_mixed_decode_workload(const ModelConfig& c,
                            std::span<const std::size_t> contexts)
{
    Workload w = build_mixed_step_workload(c, contexts, {});
    w.name = c.name + "-decode-mixed" + std::to_string(contexts.size());
    return w;
}

Workload
build_prefill_chunk_workload(const ModelConfig& config,
                             const PrefillChunk& chunk)
{
    const PrefillChunk chunks[] = {chunk};
    Workload w = build_mixed_step_workload(config, {}, chunks);
    w.name = config.name + "-prefill-chunk";
    w.decode = false;
    w.batch = 1;
    w.seq_len = chunk.tokens;
    return w;
}

Workload
build_mixed_step_workload(const ModelConfig& c,
                          std::span<const std::size_t> decode_contexts,
                          std::span<const PrefillChunk> prefill_chunks)
{
    const std::size_t D = decode_contexts.size();
    std::size_t P = 0;  // Total prompt tokens fed this step.
    for (const PrefillChunk& chunk : prefill_chunks) {
        P += chunk.tokens;
    }

    Workload w;
    w.name = c.name + "-step-mixed-d" + std::to_string(D) + "-p" +
             std::to_string(P);
    w.config = c;
    // tokens() == batch for a decode-style step: decode tokens plus
    // prompt tokens processed, the serving notion of work done.
    w.batch = D + P;
    w.seq_len = 0;
    for (const std::size_t context : decode_contexts) {
        w.seq_len = std::max(w.seq_len, context);
    }
    for (const PrefillChunk& chunk : prefill_chunks) {
        w.seq_len = std::max(w.seq_len, chunk.start + chunk.tokens);
    }
    w.decode = true;
    if (w.batch == 0) {
        return w;
    }

    // Attention and softmax run per request, against its own cache
    // length.  Decode entries are shaped exactly like a batch-1
    // decode at the same context; chunk entries fold the ragged
    // causal rows into one op whose reduction volume is the exact
    // attended() sum, so per-request MACs are preserved exactly.
    std::vector<AttentionEntry> entries;
    entries.reserve(D + prefill_chunks.size());
    for (std::size_t i = 0; i < D; ++i) {
        const std::string index = std::to_string(i);
        entries.push_back({"attn_qk#" + index, "attn_pv#" + index,
                           "softmax#" + index, c.gqa_group(),
                           decode_contexts[i], decode_contexts[i],
                           decode_contexts[i]});
    }
    for (std::size_t j = 0; j < prefill_chunks.size(); ++j) {
        const PrefillChunk& chunk = prefill_chunks[j];
        const std::size_t attended =
            static_cast<std::size_t>(chunk.attended());
        const std::string index = std::to_string(j);
        entries.push_back({"prefill_qk#" + index,
                           "prefill_pv#" + index,
                           "prefill_softmax#" + index, c.gqa_group(),
                           attended, attended,
                           chunk.start + chunk.tokens});
    }
    // Every decode token and chunk token shares the projection and
    // FFN GEMMs: chunked prefill rides the decode batch's weight
    // stream for free.
    emit_ops(c, D + P, std::move(entries), w);
    return w;
}

Workload
build_prefill_workload(const ModelConfig& config, std::size_t batch,
                       std::size_t seq_len)
{
    Workload w;
    w.name = config.name + "-prefill";
    w.config = config;
    w.batch = batch;
    w.seq_len = seq_len;
    w.decode = false;
    // Prefill attends causally; kv_len averages seq_len/2 per query.
    emit_layer_ops(config, batch, seq_len,
                   std::max<std::size_t>(1, seq_len / 2), w);
    return w;
}

}  // namespace model
}  // namespace mugi
