#include "model/transformer.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "nonlinear/reference.h"
#include "quant/group_quant.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace mugi {
namespace model {
namespace {

/** Each weight tensor starts on a 64-byte boundary (a cache line). */
constexpr std::size_t kTensorAlignFloats = 64 / sizeof(float);

/**
 * A private anonymous mapping for @p floats weights, unmapped when
 * the last handle drops: it starts on a 2 MB boundary and is advised
 * MADV_HUGEPAGE, so where the kernel's THP mode allows it (`madvise`
 * or `always`) each whole 2 MB of the block is one huge page, one
 * fault, instead of 512 small ones.  It spans whole pages, and whole
 * huge pages when its part past the last 2 MB boundary is at least
 * half a huge page: that part then takes one fault, not hundreds,
 * for under 1 MB of slack.  A shorter tail keeps 4 KB pages, so a
 * small model never maps 2 MB.  With THP off, or no huge page free,
 * it gets 4 KB pages.  The kernel hands out zeroed pages; nothing
 * here writes them.
 */
std::shared_ptr<float[]>
map_weight_block(std::size_t floats)
{
    constexpr std::size_t kHugePage = std::size_t{2} << 20;
    const auto page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const auto round_up = [](std::size_t n, std::size_t unit) {
        return (n + unit - 1) / unit * unit;
    };
    std::size_t bytes = round_up(floats * sizeof(float), page);
    if (bytes % kHugePage >= kHugePage / 2) {
        bytes = round_up(bytes, kHugePage);
    }
    // Map a huge page less one page more than needed, keep the part
    // from the first 2 MB boundary on, and unmap the rest.
    const std::size_t mapped = bytes + kHugePage - page;
    void* const raw = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
        throw std::bad_alloc();
    }
    const auto at = reinterpret_cast<std::uintptr_t>(raw);
    const std::size_t lead = (kHugePage - at % kHugePage) % kHugePage;
    char* const base = static_cast<char*>(raw);
    char* const start = base + lead;
    if (lead > 0) {
        ::munmap(base, lead);
    }
    if (lead + bytes < mapped) {
        ::munmap(start + bytes, mapped - lead - bytes);
    }
    ::madvise(start, bytes, MADV_HUGEPAGE);
    // On failure the constructor calls the deleter, which unmaps.
    return std::shared_ptr<float[]>(
        static_cast<float*>(static_cast<void*>(start)),
        [bytes](float* p) { ::munmap(p, bytes); });
}

/**
 * One row's cached attention for the @p count query heads from
 * @p first on, which share one kv head: score each head of @p q_row
 * against the first scores.size() gathered keys ([positions, hd]
 * row-major), softmax the scores with @p softmax_exp (nullptr =
 * exact), and accumulate the weighted values into @p out_row.  Dot
 * products run in ascending dimension order and values in ascending
 * position order, so the bytes depend only on the row's own prefix.
 */
void
attend_heads(const float* q_row, const float* keys,
             const float* values, std::span<float> scores,
             std::size_t first, std::size_t count, std::size_t hd,
             const nonlinear::NonlinearApproximator* softmax_exp,
             float* out_row)
{
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    for (std::size_t h = first; h < first + count; ++h) {
        const float* qrow = q_row + h * hd;
        for (std::size_t s = 0; s < scores.size(); ++s) {
            const float* krow = keys + s * hd;
            float dot = 0.0f;
            for (std::size_t i = 0; i < hd; ++i) {
                dot += qrow[i] * krow[i];
            }
            scores[s] = dot * scale;
        }
        if (softmax_exp != nullptr) {
            nonlinear::softmax_with(*softmax_exp, scores, scores);
        } else {
            nonlinear::softmax_ref(scores, scores);
        }
        float* orow = out_row + h * hd;
        for (std::size_t s = 0; s < scores.size(); ++s) {
            const float p = scores[s];
            if (p == 0.0f) continue;
            const float* vrow = values + s * hd;
            for (std::size_t i = 0; i < hd; ++i) {
                orow[i] += p * vrow[i];
            }
        }
    }
}

/** @p capture bound to one (op, layer) site; empty if it is empty. */
std::function<void(std::span<const float>)>
capture_site(const CaptureFn& capture, nonlinear::NonlinearOp op,
             std::size_t layer)
{
    if (!capture) {
        return {};
    }
    return [&capture, op, layer](std::span<const float> values) {
        capture(op, layer, values);
    };
}

}  // namespace

TransformerModel::TransformerModel(const ModelConfig& config,
                                   std::uint32_t seed)
    : config_(config), layers_(config.num_layers)
{
    support::Mt19937 rng(seed);
    const std::size_t d = config_.d_model;
    const std::size_t ff = config_.d_ff;
    const std::size_t kv_dim = config_.num_kv_heads * config_.head_dim();
    // Variance-aware init: the pre-norm input is ~unit RMS, so a
    // weight std of a/sqrt(fan_in) yields outputs ~ N(0, a^2).  The
    // chosen gains land the nonlinear input distributions in the
    // ranges Fig. 4 reports: attention scores with std ~2.2 (softmax
    // inputs spreading to ~-16 with exponents clustered in [-3, 4])
    // and FFN pre-activations with std ~2.
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
    const float inv_sqrt_ff =
        1.0f / std::sqrt(static_cast<float>(config_.d_ff));
    const float resid_gain =
        1.0f / std::sqrt(2.0f * config_.num_layers);
    const float qk_std = 1.5f * inv_sqrt_d;

    // Every weight matrix in draw order, with its shape and stddev.
    struct Draw {
        support::MatrixF* weights;
        std::size_t rows, cols;
        float stddev;
    };
    std::vector<Draw> draws = {
        {&embedding_, config_.vocab, d, 1.0f},
        {&lm_head_, d, config_.vocab, inv_sqrt_d}};
    for (LayerWeights& w : layers_) {
        draws.push_back({&w.wq, d, d, qk_std});
        draws.push_back({&w.wk, d, kv_dim, qk_std});
        draws.push_back({&w.wv, d, kv_dim, inv_sqrt_d});
        draws.push_back({&w.wo, d, d, inv_sqrt_d * resid_gain});
        if (config_.gated_ffn()) {
            draws.push_back({&w.w_gate, d, ff, 2.0f * inv_sqrt_d});
        }
        draws.push_back({&w.w_up, d, ff, 2.0f * inv_sqrt_d});
        draws.push_back({&w.w_down, ff, d, inv_sqrt_ff * resid_gain});
        w.norm1_gain.assign(d, 1.0f);
        w.norm1_bias.assign(d, 0.0f);
        w.norm2_gain.assign(d, 1.0f);
        w.norm2_bias.assign(d, 0.0f);
    }
    final_norm_gain_.assign(d, 1.0f);
    final_norm_bias_.assign(d, 0.0f);

    // One block holds them all, each on a 64-byte boundary, and each
    // is drawn in place: no per-tensor allocation, no zero-fill.
    const auto aligned = [](std::size_t n) {
        return (n + kTensorAlignFloats - 1) / kTensorAlignFloats *
               kTensorAlignFloats;
    };
    std::size_t floats = 0;
    for (const Draw& draw : draws) {
        floats = aligned(floats) + draw.rows * draw.cols;
    }
    const std::shared_ptr<float[]> block = map_weight_block(floats);
    std::size_t first = 0;
    for (const Draw& draw : draws) {
        first = aligned(first);
        *draw.weights =
            support::MatrixF(draw.rows, draw.cols, block, first);
        support::fill_gaussian(*draw.weights, rng, 0.0f, draw.stddev);
        first += draw.rows * draw.cols;
    }
}

void
TransformerModel::apply_woq(std::size_t group_size)
{
    const auto fake_quant = [&](support::MatrixF& w) {
        if (w.size() == 0) return;
        // Quantize along the reduction (input) dimension: transpose
        // view not needed because groups run along columns of each
        // row, matching a [in, out] layout grouped per output row
        // after transposition; for the error model the orientation is
        // immaterial.
        const quant::QuantizedMatrix q =
            quant::quantize_int4(w, group_size);
        // Into w's own elements: a new matrix would leave w's slice
        // of the weight block unused beside the copy.
        w.data() = quant::dequantize(q).data();
    };
    for (LayerWeights& layer : layers_) {
        fake_quant(layer.wq);
        fake_quant(layer.wk);
        fake_quant(layer.wv);
        fake_quant(layer.wo);
        fake_quant(layer.w_gate);
        fake_quant(layer.w_up);
        fake_quant(layer.w_down);
    }
}

void
TransformerModel::norm(const support::MatrixF& in,
                       std::span<const float> gain,
                       std::span<const float> bias,
                       support::MatrixF& out) const
{
    if (config_.uses_rmsnorm()) {
        rmsnorm(in, gain, out);
    } else {
        layernorm(in, gain, bias, out);
    }
}

support::MatrixF
TransformerModel::attention(std::size_t layer_idx,
                            const support::MatrixF& x_norm,
                            const NonlinearHooks& hooks,
                            const CaptureFn& capture) const
{
    const LayerWeights& w = layers_[layer_idx];
    const std::size_t T = x_norm.rows();
    const std::size_t heads = config_.num_heads;
    const std::size_t kv_heads = config_.num_kv_heads;
    const std::size_t hd = config_.head_dim();
    const std::size_t group = config_.gqa_group();

    support::MatrixF q = linear(x_norm, w.wq);
    support::MatrixF k = linear(x_norm, w.wk);
    support::MatrixF v = linear(x_norm, w.wv);
    if (config_.uses_rope()) {
        apply_rope(q, heads, hd, 0);
        apply_rope(k, kv_heads, hd, 0);
    }

    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    support::MatrixF out(T, config_.d_model, 0.0f);
    const auto capture_rows = capture_site(
        capture, nonlinear::NonlinearOp::kExp, layer_idx);
    std::vector<float> scores(T);

    for (std::size_t h = 0; h < heads; ++h) {
        const std::size_t kv_h = h / group;
        for (std::size_t t = 0; t < T; ++t) {
            // A causal row scores and normalizes only its prefix
            // [0, t]: the masked positions take no probability and
            // never reach the softmax's exp.
            const std::span<float> row(scores.data(),
                                       config_.causal() ? t + 1 : T);
            const float* qrow = q.row_data(t) + h * hd;
            for (std::size_t s = 0; s < row.size(); ++s) {
                const float* krow = k.row_data(s) + kv_h * hd;
                float dot = 0.0f;
                for (std::size_t i = 0; i < hd; ++i) {
                    dot += qrow[i] * krow[i];
                }
                row[s] = dot * scale;
            }
            softmax_row(row, hooks.softmax_exp, capture_rows);
            // out_t += probs . v
            float* orow = out.row_data(t) + h * hd;
            for (std::size_t s = 0; s < row.size(); ++s) {
                const float p = row[s];
                if (p == 0.0f) continue;
                const float* vrow = v.row_data(s) + kv_h * hd;
                for (std::size_t i = 0; i < hd; ++i) {
                    orow[i] += p * vrow[i];
                }
            }
        }
    }
    return linear(out, w.wo);
}

support::MatrixF
TransformerModel::ffn(std::size_t layer_idx,
                      const support::MatrixF& x_norm,
                      const NonlinearHooks& hooks,
                      const CaptureFn& capture) const
{
    const LayerWeights& w = layers_[layer_idx];
    const auto capture_inputs =
        capture_site(capture, config_.activation(), layer_idx);

    if (config_.gated_ffn()) {
        support::MatrixF gate = linear(x_norm, w.w_gate);
        const support::MatrixF up = linear(x_norm, w.w_up);
        apply_activation(gate, config_.activation(), hooks.activation,
                         capture_inputs);
        for (std::size_t i = 0; i < gate.size(); ++i) {
            gate.data()[i] *= up.data()[i];
        }
        return linear(gate, w.w_down);
    }
    support::MatrixF hidden = linear(x_norm, w.w_up);
    apply_activation(hidden, config_.activation(), hooks.activation,
                     capture_inputs);
    return linear(hidden, w.w_down);
}

support::MatrixF
TransformerModel::run_layers(
    support::MatrixF x, std::span<const NonlinearHooks> layer_hooks,
    const CaptureFn& capture) const
{
    assert(layer_hooks.empty() ||
           layer_hooks.size() == layers_.size());
    const NonlinearHooks exact;
    support::MatrixF x_norm;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const LayerWeights& w = layers_[l];
        const NonlinearHooks& hooks =
            layer_hooks.empty() ? exact : layer_hooks[l];
        norm(x, w.norm1_gain, w.norm1_bias, x_norm);
        const support::MatrixF attn =
            attention(l, x_norm, hooks, capture);
        for (std::size_t i = 0; i < x.size(); ++i) {
            x.data()[i] += attn.data()[i];
        }
        norm(x, w.norm2_gain, w.norm2_bias, x_norm);
        const support::MatrixF f = ffn(l, x_norm, hooks, capture);
        for (std::size_t i = 0; i < x.size(); ++i) {
            x.data()[i] += f.data()[i];
        }
    }
    final_norm(x, x_norm);
    return linear(x_norm, lm_head_);
}

support::MatrixF
TransformerModel::forward_tokens(
    std::span<const int> tokens,
    std::span<const NonlinearHooks> layer_hooks,
    const CaptureFn& capture) const
{
    support::MatrixF x(tokens.size(), config_.d_model);
    for (std::size_t t = 0; t < tokens.size(); ++t) {
        const std::span<const float> e = embedding(tokens[t]);
        std::copy(e.begin(), e.end(), x.row_data(t));
    }
    return run_layers(std::move(x), layer_hooks, capture);
}

support::MatrixF
TransformerModel::forward_embeddings(
    const support::MatrixF& embeddings,
    std::span<const NonlinearHooks> layer_hooks,
    const CaptureFn& capture) const
{
    assert(embeddings.cols() == config_.d_model);
    return run_layers(embeddings, layer_hooks, capture);
}

std::span<const float>
TransformerModel::embedding(int token) const
{
    assert(token >= 0 &&
           static_cast<std::size_t>(token) < config_.vocab);
    return {embedding_.row_data(static_cast<std::size_t>(token)),
            config_.d_model};
}

support::MatrixF
TransformerModel::decode_layer(std::size_t layer_idx,
                               const support::MatrixF& x,
                               quant::KvCache& cache,
                               const NonlinearHooks& hooks) const
{
    assert(x.rows() == 1);
    quant::KvCache* const caches[] = {&cache};
    const NonlinearHooks* const hook_ptrs[] = {&hooks};
    return decode_layer_batch(layer_idx, x, caches, hook_ptrs);
}

support::MatrixF
TransformerModel::decode_layer_batch(
    std::size_t layer_idx, const support::MatrixF& x,
    std::span<quant::KvCache* const> caches,
    std::span<const NonlinearHooks* const> hooks,
    support::ThreadPool* pool) const
{
    const std::size_t rows = x.rows();
    assert(caches.size() == rows && hooks.size() == rows);
    const LayerWeights& w = layers_[layer_idx];
    const std::size_t kv_heads = config_.num_kv_heads;
    const std::size_t hd = config_.head_dim();
    const std::size_t group = config_.gqa_group();
    assert(config_.num_heads == kv_heads * group);
    // Ragged rows: row r takes its cache's next position after the
    // earlier rows sharing that cache.  group_of[r] indexes the
    // distinct caches in order of first appearance.
    std::vector<std::size_t> pos(rows);
    std::vector<std::size_t> group_of(rows);
    std::vector<quant::KvCache*> group_cache;
    std::vector<std::size_t> group_next;
    for (std::size_t r = 0; r < rows; ++r) {
        const auto it = std::find(group_cache.begin(),
                                  group_cache.end(), caches[r]);
        group_of[r] =
            static_cast<std::size_t>(it - group_cache.begin());
        if (it == group_cache.end()) {
            group_cache.push_back(caches[r]);
            group_next.push_back(caches[r]->length().value());
        }
        pos[r] = group_next[group_of[r]]++;
    }

    support::MatrixF x_norm;
    norm(x, w.norm1_gain, w.norm1_bias, x_norm);

    // Pooled stages: every task writes a disjoint slice of the
    // stage's output with the serial per-cell float-op sequence, so
    // each join (the stage barrier) reproduces the serial bytes
    // exactly.  One GEMM per projection covers every row, split by
    // output columns inside linear; the other stages split by rows.
    support::MatrixF q = linear(x_norm, w.wq, pool);
    support::MatrixF k = linear(x_norm, w.wk, pool);
    const support::MatrixF v = linear(x_norm, w.wv, pool);
    const auto rope = [&](std::size_t first, std::size_t last) {
        for (std::size_t r = first; r < last; ++r) {
            rope_rotate_row(q.row_data(r), config_.num_heads, hd,
                            pos[r]);
            rope_rotate_row(k.row_data(r), kv_heads, hd, pos[r]);
        }
    };
    if (config_.uses_rope()) {
        support::for_ranges(pool, rows, rope);
    }
    // Append every row's K/V before any attention reads, so a row
    // sees the earlier rows of its own cache.
    support::MatrixF k_heads(kv_heads, hd);
    support::MatrixF v_heads(kv_heads, hd);
    for (std::size_t r = 0; r < rows; ++r) {
        std::copy_n(k.row_data(r), k_heads.size(),
                    k_heads.row_data(0));
        std::copy_n(v.row_data(r), v_heads.size(),
                    v_heads.row_data(0));
        caches[r]->append(k_heads, v_heads);
    }

    // Attention, one task item per (cache, kv head): gather that kv
    // head's resident sequence once into contiguous [positions, hd]
    // scratch (KvCache::read_keys / read_values), then each row of
    // the cache attends its own prefix with the query heads of the
    // kv head's GQA group.
    support::MatrixF attn_out(rows, config_.d_model, 0.0f);
    const auto attend = [&](std::size_t first, std::size_t last) {
        std::vector<float> keys, values, scores;
        for (std::size_t item = first; item < last; ++item) {
            const std::size_t g = item / kv_heads;
            const std::size_t kv_h = item % kv_heads;
            const quant::KvCache& cache = *group_cache[g];
            const units::Positions length = cache.length();
            keys.resize(length.value() * hd);
            values.resize(length.value() * hd);
            scores.resize(length.value());
            cache.read_keys(kv_h, units::Positions(0), length,
                            keys.data());
            cache.read_values(kv_h, units::Positions(0), length,
                              values.data());
            for (std::size_t r = 0; r < rows; ++r) {
                if (group_of[r] == g) {
                    attend_heads(q.row_data(r), keys.data(),
                                 values.data(),
                                 {scores.data(), pos[r] + 1},
                                 kv_h * group, group, hd,
                                 hooks[r]->softmax_exp,
                                 attn_out.row_data(r));
                }
            }
        }
    };
    support::for_ranges(pool, group_cache.size() * kv_heads, attend);
    support::MatrixF out = linear(attn_out, w.wo, pool);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out.data()[i] += x.data()[i];
    }

    norm(out, w.norm2_gain, w.norm2_bias, x_norm);
    // FFN: batched projections, per-row activation (each row feeds
    // its own hooks exactly the input stream a one-row call would --
    // see apply_activation_span).
    const std::size_t ff = config_.d_ff;
    const bool gated = config_.gated_ffn();
    support::MatrixF hidden =
        linear(x_norm, gated ? w.w_gate : w.w_up, pool);
    const support::MatrixF up =
        gated ? linear(x_norm, w.w_up, pool) : support::MatrixF();
    const auto activate = [&](std::size_t first, std::size_t last) {
        for (std::size_t r = first; r < last; ++r) {
            float* hrow = hidden.row_data(r);
            apply_activation_span(std::span<float>(hrow, ff),
                                  config_.activation(),
                                  hooks[r]->activation);
            if (gated) {
                const float* urow = up.row_data(r);
                for (std::size_t i = 0; i < ff; ++i) {
                    hrow[i] *= urow[i];
                }
            }
        }
    };
    support::for_ranges(pool, rows, activate);
    const support::MatrixF f = linear(hidden, w.w_down, pool);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out.data()[i] += f.data()[i];
    }
    return out;
}

}  // namespace model
}  // namespace mugi
