#include "quant/block_allocator.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "support/audit.h"
#include "support/fault.h"

namespace mugi {
namespace quant {

BlockPool::BlockPool(units::Tokens block_tokens)
    : block_tokens_(block_tokens)
{
    assert(block_tokens_.value() > 0);
}

units::Bytes
BlockPool::bytes_in_use() const
{
    support::MutexLock lock(mutex_);
    return units::Bytes(block_bytes_in_use_);
}

units::Bytes
BlockPool::peak_bytes_in_use() const
{
    support::MutexLock lock(mutex_);
    return units::Bytes(peak_bytes_in_use_);
}

units::Blocks
BlockPool::blocks_in_use() const
{
    support::MutexLock lock(mutex_);
    return units::Blocks(blocks_in_use_);
}

units::Blocks
BlockPool::shared_blocks() const
{
    support::MutexLock lock(mutex_);
    return units::Blocks(shared_blocks_);
}

BlockId
BlockPool::allocate(units::Bytes bytes)
{
    const std::size_t size = bytes.value();
    assert(size > 0);
    support::MutexLock lock(mutex_);
    BlockId id;
    const auto it = free_lists_.find(size);
    if (it != free_lists_.end() && !it->second.empty()) {
        id = it->second.back();
        it->second.pop_back();
        // Zero-fill the reused slot's storage, if it ever got any:
        // the INT4 KV append path ORs nibbles into block bytes and
        // relies on a fresh block reading as all zeros (pinned by
        // block_allocator_test).
        std::fill(slots_[id.value()].storage.begin(),
                  slots_[id.value()].storage.end(), std::byte{0});
    } else {
        // The new slot's index must fit the handle.
        assert(slots_.size() <= std::numeric_limits<BlockId::Rep>::max());
        id = BlockId(static_cast<BlockId::Rep>(slots_.size()));
        slots_.push_back(Slot{{}, size, false, 0});
    }
    slots_[id.value()].in_use = true;
    slots_[id.value()].refs = 1;
    block_bytes_in_use_ += size;
    ++blocks_in_use_;
    peak_bytes_in_use_ =
        std::max(peak_bytes_in_use_, block_bytes_in_use_);
    return id;
}

void
BlockPool::retain(BlockId id)
{
    support::MutexLock lock(mutex_);
    assert(id.value() < slots_.size() && slots_[id.value()].in_use);
    Slot& slot = slots_[id.value()];
    ++slot.refs;
    if (slot.refs == 2) {
        ++shared_blocks_;
    }
}

std::size_t
BlockPool::ref_count(BlockId id) const
{
    support::MutexLock lock(mutex_);
    assert(id.value() < slots_.size() && slots_[id.value()].in_use);
    return slots_[id.value()].refs;
}

void
BlockPool::release(BlockId id)
{
    // Chaos-bench negative gate only: dropping a release corrupts the
    // refcount accounting, which the leak/invariant gates MUST catch.
    if (MUGI_FAULT_POINT("block_pool.leak_release")) {
        return;
    }
    support::MutexLock lock(mutex_);
    assert(id.value() < slots_.size() && slots_[id.value()].in_use);
    Slot& slot = slots_[id.value()];
    assert(slot.refs > 0);
    --slot.refs;
    if (slot.refs == 1) {
        --shared_blocks_;
    }
    if (slot.refs > 0) {
        return;  // Other holders keep the block alive.
    }
    slot.in_use = false;
    block_bytes_in_use_ -= slot.bytes;
    --blocks_in_use_;
    free_lists_[slot.bytes].push_back(id);
}

std::byte*
BlockPool::data(BlockId id)
{
    support::MutexLock lock(mutex_);
    assert(id.value() < slots_.size() && slots_[id.value()].in_use);
    Slot& slot = slots_[id.value()];
    if (slot.storage.empty()) {
        slot.storage.resize(slot.bytes);  // Value-initialized: zeros.
    }
    return slot.storage.data();
}

units::Bytes
BlockPool::block_bytes(BlockId id) const
{
    support::MutexLock lock(mutex_);
    assert(id.value() < slots_.size() && slots_[id.value()].in_use);
    return units::Bytes(slots_[id.value()].bytes);
}

std::size_t
BlockPool::ref_total() const
{
    support::MutexLock lock(mutex_);
    std::size_t total = 0;
    for (const Slot& slot : slots_) {
        if (slot.in_use) {
            total += slot.refs;
        }
    }
    return total;
}

std::string
BlockPool::check_invariants() const
{
    support::MutexLock lock(mutex_);
    std::ostringstream out;
    // Recompute every counter from the slot table alone; any drift
    // between the two views is the refcount/accounting corruption
    // this auditor exists to catch.
    std::size_t live = 0, live_bytes = 0, shared = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot& slot = slots_[i];
        if (!slot.storage.empty() &&
            slot.storage.size() != slot.bytes) {
            out << "slot " << i << " stores " << slot.storage.size()
                << " bytes of a " << slot.bytes << "-byte block";
            return out.str();
        }
        if (!slot.in_use) {
            continue;
        }
        ++live;
        live_bytes += slot.bytes;
        if (slot.refs == 0) {
            out << "live block " << i << " has zero refs";
            return out.str();
        }
        if (slot.refs >= 2) {
            ++shared;
        }
    }
    if (live != blocks_in_use_) {
        out << "blocks_in_use " << blocks_in_use_ << " != " << live
            << " live slots";
        return out.str();
    }
    if (live_bytes != block_bytes_in_use_) {
        out << "block_bytes_in_use " << block_bytes_in_use_
            << " != " << live_bytes << " recomputed live bytes";
        return out.str();
    }
    if (shared != shared_blocks_) {
        out << "shared_blocks " << shared_blocks_ << " != " << shared
            << " slots with refs >= 2";
        return out.str();
    }
    // Free lists partition exactly the non-live slots: every entry
    // names a released slot of the list's byte size, no slot appears
    // twice, and nothing released is missing.
    std::unordered_set<BlockId> seen;
    for (const auto& [bytes, ids] : free_lists_) {
        for (const BlockId id : ids) {
            if (id.value() >= slots_.size()) {
                out << "free list " << bytes
                    << " holds out-of-range id " << id;
                return out.str();
            }
            if (slots_[id.value()].in_use) {
                out << "free list " << bytes << " holds live block "
                    << id;
                return out.str();
            }
            if (slots_[id.value()].bytes != bytes) {
                out << "free list " << bytes << " holds block " << id
                    << " of " << slots_[id.value()].bytes << " bytes";
                return out.str();
            }
            if (!seen.insert(id).second) {
                out << "block " << id
                    << " appears twice across free lists";
                return out.str();
            }
        }
    }
    if (seen.size() != slots_.size() - live) {
        out << "free lists hold " << seen.size() << " blocks, but "
            << (slots_.size() - live) << " slots are released";
        return out.str();
    }
    if (peak_bytes_in_use_ < block_bytes_in_use_) {
        out << "peak_bytes_in_use " << peak_bytes_in_use_
            << " below current footprint " << block_bytes_in_use_;
        return out.str();
    }
    return {};
}

void
BlockPool::audit(const char* where) const
{
    support::audit_or_abort(where, check_invariants());
}

void
BlockPool::corrupt_refs_for_test(BlockId id, std::uint32_t refs)
{
    support::MutexLock lock(mutex_);
    assert(id.value() < slots_.size() && slots_[id.value()].in_use);
    // Deliberately skip the shared_blocks_ bookkeeping: the point is
    // to manufacture drift check_invariants() must report.
    slots_[id.value()].refs = refs;
}

}  // namespace quant
}  // namespace mugi
