#ifndef MUGI_VLP_TEMPORAL_H_
#define MUGI_VLP_TEMPORAL_H_

/**
 * @file
 * The temporal converter (TC) of value-level parallelism (Sec. 2.1,
 * Fig. 2(a)): the equivalence logic through which a row subscribes
 * to a temporal sweep.  arch::MugiNode fires its mantissa and
 * exponent subscriptions through it.
 */

#include <cstdint>

namespace mugi {
namespace vlp {

/**
 * Temporal converter: equivalence logic that asserts a spike on the
 * cycle where the counting-up sequence equals the held value
 * (Fig. 2(a)).
 */
class TemporalConverter {
  public:
    explicit TemporalConverter(std::uint32_t value) : value_(value) {}

    /** True exactly when @p counter equals the held value. */
    bool spikes_at(std::uint32_t counter) const { return counter == value_; }

    std::uint32_t value() const { return value_; }

  private:
    std::uint32_t value_;
};

}  // namespace vlp
}  // namespace mugi

#endif  // MUGI_VLP_TEMPORAL_H_
