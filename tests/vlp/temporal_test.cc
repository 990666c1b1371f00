#include "vlp/temporal.h"

#include <gtest/gtest.h>

namespace mugi {
namespace vlp {
namespace {

TEST(Temporal, ConverterSpikesExactlyOnce)
{
    const TemporalConverter tc(3);
    int spikes = 0;
    for (std::uint32_t c = 0; c < 8; ++c) {
        if (tc.spikes_at(c)) {
            ++spikes;
            EXPECT_EQ(c, 3u);
        }
    }
    EXPECT_EQ(spikes, 1);
}

}  // namespace
}  // namespace vlp
}  // namespace mugi
