#include "model/profiler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "numerics/float_bits.h"

namespace mugi {
namespace model {
namespace {

constexpr double kExponentLo = -32.5;
constexpr double kExponentHi = 31.5;
constexpr std::size_t kExponentBins = 64;
constexpr double kValueLo = -32.0;
constexpr double kValueHi = 32.0;
constexpr std::size_t kValueBins = 256;

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins, 0)
{
    assert(hi > lo && bins > 0);
}

void
Histogram::add(double value)
{
    ++total_;
    if (value < lo_) {
        ++underflow_;
        return;
    }
    if (value >= hi_) {
        ++overflow_;
        return;
    }
    const std::size_t bin = static_cast<std::size_t>(
        (value - lo_) / (hi_ - lo_) * static_cast<double>(bins_.size()));
    ++bins_[std::min(bin, bins_.size() - 1)];
}

double
Histogram::bin_center(std::size_t i) const
{
    const double width = (hi_ - lo_) / static_cast<double>(bins_.size());
    return lo_ + (static_cast<double>(i) + 0.5) * width;
}

double
Histogram::fraction_in(double a, double b) const
{
    if (total_ == 0) {
        return 0.0;
    }
    std::size_t count = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        const double c = bin_center(i);
        if (c >= a && c <= b) {
            count += bins_[i];
        }
    }
    return static_cast<double>(count) / static_cast<double>(total_);
}

void
Histogram::merge(const Histogram& other)
{
    assert(other.lo_ == lo_ && other.hi_ == hi_ &&
           other.bins_.size() == bins_.size());
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        bins_[i] += other.bins_[i];
    }
    total_ += other.total_;
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
}

std::pair<int, int>
SiteProfile::dominant_exponent_window(int size) const
{
    int best_lo = 0;
    double best = -1.0;
    for (int lo = -32; lo + size - 1 <= 31; ++lo) {
        const double f = exponent_coverage(lo, lo + size - 1);
        if (f > best) {
            best = f;
            best_lo = lo;
        }
    }
    return {best_lo, best_lo + size - 1};
}

double
SiteProfile::exponent_coverage(int lo, int hi) const
{
    return exponents.fraction_in(lo - 0.25, hi + 0.25);
}

NonlinearProfiler::NonlinearProfiler() = default;

CaptureFn
NonlinearProfiler::capture()
{
    return [this](nonlinear::NonlinearOp op, std::size_t layer,
                  std::span<const float> inputs) {
        record(op, layer, inputs);
    };
}

void
NonlinearProfiler::record(nonlinear::NonlinearOp op, std::size_t layer,
                          std::span<const float> inputs)
{
    const std::pair<int, std::size_t> key{static_cast<int>(op), layer};
    auto it = sites_.find(key);
    if (it == sites_.end()) {
        SiteProfile profile;
        profile.op = op;
        profile.layer = layer;
        profile.values = Histogram(kValueLo, kValueHi, kValueBins);
        profile.exponents =
            Histogram(kExponentLo, kExponentHi, kExponentBins);
        it = sites_.emplace(key, std::move(profile)).first;
    }
    SiteProfile& site = it->second;
    for (const float x : inputs) {
        if (!std::isfinite(x)) {
            continue;
        }
        site.values.add(x);
        const numerics::FloatFields f = numerics::decompose(x);
        if (f.is_zero) {
            ++site.zero_count;
            continue;
        }
        site.exponents.add(static_cast<double>(f.exponent));
    }
}

const SiteProfile&
NonlinearProfiler::site(nonlinear::NonlinearOp op,
                        std::size_t layer) const
{
    const auto it = sites_.find({static_cast<int>(op), layer});
    if (it == sites_.end()) {
        throw std::out_of_range("no profile for requested site");
    }
    return it->second;
}

bool
NonlinearProfiler::has_site(nonlinear::NonlinearOp op,
                            std::size_t layer) const
{
    return sites_.count({static_cast<int>(op), layer}) != 0;
}

SiteProfile
NonlinearProfiler::merged(nonlinear::NonlinearOp op) const
{
    SiteProfile merged;
    merged.op = op;
    merged.values = Histogram(kValueLo, kValueHi, kValueBins);
    merged.exponents = Histogram(kExponentLo, kExponentHi, kExponentBins);
    for (const auto& [key, site] : sites_) {
        if (key.first != static_cast<int>(op)) {
            continue;
        }
        merged.values.merge(site.values);
        merged.exponents.merge(site.exponents);
        merged.zero_count += site.zero_count;
    }
    return merged;
}

}  // namespace model
}  // namespace mugi
