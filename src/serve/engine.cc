#include "serve/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>
#include <unordered_map>

#include "model/ops.h"
#include "sim/cost_model.h"

namespace mugi {
namespace serve {
namespace {

/**
 * Rows per pass through the layers.  A step may carry several
 * 32-token chunks; passing them in blocks keeps each GEMM's output
 * rows cache-resident and the step's activations small (a block's
 * [rows, d_ff] FFN matrix is 87 KB on the perfbench model, where a
 * 130-row pass raised peak RSS by a fifth).  32 ran fastest of 8-64
 * rows there, on a shared 4-core Xeon.
 */
constexpr std::size_t kRowBlock = 32;

/** The node-default kernel of every op, indexed by its value. */
std::array<vlp::VlpApproximator, 3>
node_kernels(std::size_t rows)
{
    const auto kernel = [rows](nonlinear::NonlinearOp op) {
        return vlp::VlpApproximator(default_vlp_config(op, rows));
    };
    return {kernel(nonlinear::NonlinearOp::kExp),
            kernel(nonlinear::NonlinearOp::kSilu),
            kernel(nonlinear::NonlinearOp::kGelu)};
}

}  // namespace

vlp::VlpConfig
default_vlp_config(nonlinear::NonlinearOp op,
                   std::size_t mapping_rows)
{
    vlp::VlpConfig config;
    config.op = op;
    if (op == nonlinear::NonlinearOp::kExp) {
        // Softmax window covering the profiled [-3, 4] exponent band.
        config.lut_min_exp = -3;
        config.lut_max_exp = 4;
    } else {
        // SiLU/GELU cluster around zero (Fig. 4).
        config.lut_min_exp = -6;
        config.lut_max_exp = 1;
    }
    config.mapping_rows = mapping_rows;
    return config;
}

Engine::Engine(const sim::DesignConfig& design)
    : design_(design), kernels_(node_kernels(design.array_rows))
{
}

Engine::Engine(const sim::DesignConfig& design,
               const model::ModelConfig& model)
    : design_(design), model_config_(model),
      kernels_(node_kernels(design.array_rows))
{
}

Engine::Engine(const sim::DesignConfig& design,
               std::shared_ptr<const model::TransformerModel> model)
    : design_(design), model_config_(model->config()),
      model_(std::move(model)),
      kernels_(node_kernels(design.array_rows))
{
}

std::unique_ptr<Engine>
Engine::default_mugi()
{
    return std::make_unique<Engine>(sim::make_mugi(256));
}

model::NonlinearHooks
Engine::default_hooks() const
{
    const nonlinear::NonlinearOp act =
        model_config_ ? model_config_->activation()
                      : nonlinear::NonlinearOp::kSilu;
    return {&kernel(nonlinear::NonlinearOp::kExp), &kernel(act)};
}

Session
Engine::create_session(const SessionOptions& options) const
{
    assert(model_config_.has_value() &&
           "session serving needs a model (config) at engine build");
    assert((!model_ || options.initial_context.value() == 0) &&
           "functional sessions build context by prefilling tokens");
    const std::size_t layers = model_config_->num_layers;
    Session session(options.kv_precision,
                    options.initial_context.value(), layers);
    if (model_) {
        session.caches_.reserve(layers);
        for (std::size_t l = 0; l < layers; ++l) {
            session.caches_.emplace_back(model_config_->num_kv_heads,
                                         model_config_->head_dim(),
                                         options.kv_precision,
                                         options.kv_pool);
        }
    } else {
        // Nothing reads an analytic cache, so one cache over every
        // layer's KV heads accounts the per-layer caches' bytes in
        // one block per all-layer block group.
        session.caches_.emplace_back(
            layers * model_config_->num_kv_heads,
            model_config_->head_dim(), options.kv_precision,
            options.kv_pool);
        session.caches_.front().extend(
            units::positions_for(options.initial_context));
    }
    session.set_hooks(default_hooks());
    return session;
}

support::MatrixF
Engine::forward_rows(const StepPlan& plan,
                     support::ThreadPool* pool) const
{
    assert(model_ && "token stepping needs a functional model");
    const model::ModelConfig& config = *model_config_;
    const std::size_t d = config.d_model;
    // Rows in plan order: decode entries, then every chunk token.
    // consumed lists the rows whose logits the caller reads.
    std::vector<Session*> row_sessions = plan.decode_sessions;
    std::vector<int> row_tokens = plan.decode_tokens;
    std::vector<std::size_t> consumed(row_tokens.size());
    std::iota(consumed.begin(), consumed.end(), std::size_t{0});
    for (const StepPlan::PrefillEntry& entry : plan.prefills) {
        assert(!entry.tokens.empty() &&
               "functional prefill chunks carry their tokens");
        row_sessions.insert(row_sessions.end(), entry.tokens.size(),
                            entry.session);
        row_tokens.insert(row_tokens.end(), entry.tokens.begin(),
                          entry.tokens.end());
        consumed.push_back(row_tokens.size() - 1);
    }
    const std::size_t rows = row_tokens.size();

    // Blocks of rows run through the layers in row order.  A row's
    // computation depends on other rows only through its cache, which
    // earlier blocks have already extended, so the blocking changes
    // no byte.
    support::MatrixF last(consumed.size(), d);
    std::size_t next = 0;
    for (std::size_t begin = 0; begin < rows; begin += kRowBlock) {
        const std::size_t n = std::min(kRowBlock, rows - begin);
        support::MatrixF x(n, d);
        std::vector<quant::KvCache*> caches(n);
        std::vector<const model::NonlinearHooks*> hooks(n);
        for (std::size_t r = 0; r < n; ++r) {
            const std::span<const float> e =
                model_->embedding(row_tokens[begin + r]);
            std::copy(e.begin(), e.end(), x.row_data(r));
        }
        for (std::size_t l = 0; l < config.num_layers; ++l) {
            for (std::size_t r = 0; r < n; ++r) {
                caches[r] = &row_sessions[begin + r]->caches_[l];
                hooks[r] = &row_sessions[begin + r]->hooks_for(l);
            }
            x = model_->decode_layer_batch(l, x, caches, hooks, pool);
        }
        for (; next < consumed.size() && consumed[next] < begin + n;
             ++next) {
            std::copy_n(x.row_data(consumed[next] - begin), d,
                        last.row_data(next));
        }
    }
    support::MatrixF x_norm;
    model_->final_norm(last, x_norm);
    return model::linear(x_norm, model_->lm_head(), pool);
}

StepResult
Engine::step(std::span<Session* const> sessions,
             std::span<const int> tokens) const
{
    assert(tokens.empty() || tokens.size() == sessions.size());
    StepPlan plan;
    plan.decode_sessions.assign(sessions.begin(), sessions.end());
    plan.decode_tokens.assign(tokens.begin(), tokens.end());
    return step(plan);
}

StepResult
Engine::step(const StepPlan& plan, support::ThreadPool* pool) const
{
    assert(model_config_.has_value());
    assert(plan.decode_tokens.size() ==
               (model_ ? plan.decode_sessions.size() : 0) &&
           "functional engines step tokens, analytic ones positions");
    if (plan.empty()) {
        // A drained continuous batch: nothing ran, so return a zeroed
        // report instead of evaluating a 0-token workload (whose
        // derived rates would be NaN and poison accumulators).
        return {};
    }

    // Context each session's new token attends: its cache after the
    // append, i.e. position + 1 (matches build_decode_workload's
    // kv_len semantics).  A session listed twice steps twice, so its
    // second occurrence attends one more position.
    const std::size_t D = plan.decode_sessions.size();
    std::vector<std::size_t> contexts;
    contexts.reserve(D);
    std::unordered_map<const Session*, std::size_t> occurrences;
    for (Session* session : plan.decode_sessions) {
        contexts.push_back(session->position().value() + 1 +
                           occurrences[session]++);
    }
    std::vector<model::PrefillChunk> chunks;
    chunks.reserve(plan.prefills.size());
    for (const StepPlan::PrefillEntry& entry : plan.prefills) {
        chunks.push_back(
            {entry.session->position().value(), entry.size().value()});
    }
    const model::Workload workload = model::build_mixed_step_workload(
        *model_config_, contexts, chunks);

    StepResult result;
    result.perf = sim::run_workload(design_, workload);

    // Pooled execution: meter the pool's busy/task counters around
    // the functional region, which analytic engines do not have.
    // The pool only decides *when* disjoint-output tasks run, never
    // what they compute, so the pooled pass is bit-identical to a
    // serial one.
    if (!model_) {
        pool = nullptr;
    }
    const auto wall_start = std::chrono::steady_clock::now();
    const std::uint64_t busy_start = pool ? pool->busy_ns() : 0;
    const std::uint64_t tasks_start = pool ? pool->tasks_completed() : 0;

    support::MatrixF logits;
    if (model_) {
        logits = forward_rows(plan, pool);
    }
    // Positions advance in plan order.  A functional forward pass
    // has already appended the rows to the caches; an analytic
    // session's cache grows by bookkeeping alone.
    const auto advance = [&](Session& session, std::size_t n) {
        if (!model_) {
            session.caches_.front().extend(units::Positions(n));
        }
        session.position_ += n;
    };
    // Outputs in plan order: logits row i is decode entry i, row
    // D + j the last token of chunk j.
    const auto output = [&](Session& session, std::size_t row) {
        StepResult::SessionOutput out;
        out.position = units::Positions(session.position_);
        if (model_) {
            const float* begin = logits.row_data(row);
            const float* end = begin + logits.cols();
            out.logits.assign(begin, end);
            out.next_token = static_cast<int>(
                std::max_element(begin, end) - begin);
        }
        return out;
    };
    for (std::size_t i = 0; i < D; ++i) {
        Session& session = *plan.decode_sessions[i];
        advance(session, 1);
        result.outputs.push_back(output(session, i));
    }
    for (std::size_t j = 0; j < plan.prefills.size(); ++j) {
        Session& session = *plan.prefills[j].session;
        advance(session, plan.prefills[j].size().value());
        result.prefill_outputs.push_back(output(session, D + j));
    }

    if (pool) {
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        const double busy_s =
            static_cast<double>(pool->busy_ns() - busy_start) * 1e-9;
        result.workers.threads = pool->num_threads();
        result.workers.tasks = pool->tasks_completed() - tasks_start;
        if (wall_s > 0.0) {
            result.workers.busy_fraction = std::min(
                1.0, busy_s / (static_cast<double>(
                                   pool->num_threads()) *
                               wall_s));
        }
        result.workers.idle_fraction =
            1.0 - result.workers.busy_fraction;
    }
    return result;
}

StepResult
Engine::step(Session& session, int token) const
{
    Session* batch[1] = {&session};
    return step(std::span<Session* const>(batch),
                std::span<const int>(&token, 1));
}

std::vector<float>
Engine::prefill(Session& session, std::span<const int> prompt) const
{
    return prefill_chunk(session, prompt);
}

std::vector<float>
Engine::prefill_chunk(Session& session,
                      std::span<const int> tokens) const
{
    assert(model_ && "chunked prefill needs a functional model");
    if (tokens.empty()) {
        return {};
    }
    StepPlan plan;
    plan.prefills.push_back({&session, tokens});
    const support::MatrixF logits = forward_rows(plan, nullptr);
    session.position_ += tokens.size();
    return {logits.data().begin(), logits.data().end()};
}

SystemReport
Engine::evaluate(const model::Workload& workload) const
{
    SystemReport report;
    report.perf = sim::run_workload(design_, workload);
    report.area = sim::node_area(design_);
    report.carbon = carbon::assess(design_, report.perf);
    report.event_sim = sim::simulate(design_, workload);
    return report;
}

std::vector<float>
Engine::run_softmax(std::span<const float> logits) const
{
    std::vector<float> out(logits.size());
    nonlinear::softmax_with(kernel(nonlinear::NonlinearOp::kExp),
                            logits, out);
    return out;
}

std::vector<float>
Engine::run_activation(nonlinear::NonlinearOp op,
                       std::span<const float> values) const
{
    assert(op != nonlinear::NonlinearOp::kExp);
    std::vector<float> out(values.size());
    kernel(op).apply_batch(values, out);
    return out;
}

}  // namespace serve
}  // namespace mugi
