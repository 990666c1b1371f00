#include "serve/session.h"

#include <cassert>

namespace mugi {
namespace serve {

Session::Session(quant::KvPrecision kv_precision,
                 std::size_t initial_context, std::size_t num_layers)
    : kv_precision_(kv_precision), position_(initial_context),
      hooks_(num_layers)
{
}

units::Bytes
Session::kv_bytes() const
{
    units::Bytes total{0};
    for (const quant::KvCache& cache : caches_) {
        total += cache.memory_bytes();
    }
    return total;
}

void
Session::adopt_kv_prefix(const Session& donor,
                         units::Positions positions)
{
    assert(position_ == 0 &&
           "prefix adoption needs an untouched session");
    assert(caches_.size() == donor.caches_.size());
    assert(kv_precision_ == donor.kv_precision_);
    assert(positions.value() <= donor.position_);
    if (positions.value() == 0) {
        return;
    }
    for (std::size_t l = 0; l < caches_.size(); ++l) {
        caches_[l].share_prefix_from(donor.caches_[l], positions);
    }
    position_ = positions.value();
}

units::Blocks
Session::kv_block_count() const
{
    units::Blocks blocks{0};
    for (const quant::KvCache& cache : caches_) {
        blocks += cache.blocks_in_use();
    }
    return blocks;
}

units::Blocks
Session::shared_kv_blocks() const
{
    units::Blocks shared{0};
    for (const quant::KvCache& cache : caches_) {
        shared += cache.shared_blocks();
    }
    return shared;
}

void
Session::set_hooks(const model::NonlinearHooks& hooks)
{
    hooks_.assign(hooks_.size(), hooks);
}

void
Session::set_layer_hooks(std::size_t layer,
                         const model::NonlinearHooks& hooks)
{
    assert(layer < hooks_.size());
    hooks_[layer] = hooks;
}

}  // namespace serve
}  // namespace mugi
