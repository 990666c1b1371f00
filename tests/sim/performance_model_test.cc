#include "sim/performance_model.h"

#include <random>

#include <gtest/gtest.h>

#include "vlp/vlp_gemm.h"

namespace mugi {
namespace sim {
namespace {

model::GemmOp
simple_gemm(std::size_t m, std::size_t n, std::size_t k,
            bool from_dram = true)
{
    model::GemmOp op;
    op.name = "gemm";
    op.m = m;
    op.n = n;
    op.k = k;
    op.count = 1;
    op.weights_from_dram = from_dram;
    return op;
}

TEST(PerfModel, MugiCyclesMatchCycleAccurateArray)
{
    // The analytic VLP GEMM cycles must equal the cycles the literal
    // temporal-array simulation counts on the same shape: n weight
    // rows on the H = 32 rows, m activation columns on the 8 columns.
    // The count does not depend on the values.
    const DesignConfig mugi = make_mugi(32);
    const struct {
        std::size_t m, n, k;
    } cases[] = {{8, 64, 16}, {5, 33, 7}, {16, 32, 4}, {8, 256, 64}};
    for (const auto& c : cases) {
        const vlp::VlpGemmResult array = vlp::vlp_gemm_mugi_baseline(
            vlp::Int4Matrix(c.n, c.k),
            support::MatrixF(c.k, c.m, 1.0f), 32, 8);
        const OpCost cost = gemm_cost(mugi, simple_gemm(c.m, c.n, c.k));
        EXPECT_EQ(cost.compute_cycles,
                  static_cast<double>(array.cycles))
            << c.m << "x" << c.n << "x" << c.k;
    }
}

TEST(PerfModel, MugiPeaksAtBatchEight)
{
    // Sec. 6.3.1: Mugi's best throughput arrives at batch 8 (columns
    // full); larger batches give no per-token gain.
    const DesignConfig mugi = make_mugi(256);
    const double c4 =
        gemm_cost(mugi, simple_gemm(4, 4096, 4096)).compute_cycles;
    const double c8 =
        gemm_cost(mugi, simple_gemm(8, 4096, 4096)).compute_cycles;
    const double c16 =
        gemm_cost(mugi, simple_gemm(16, 4096, 4096)).compute_cycles;
    EXPECT_EQ(c4, c8);        // 4 rows waste half the columns.
    EXPECT_EQ(c16, 2.0 * c8); // Two full column loads.
}

TEST(PerfModel, SystolicSmallBatchUnderutilization)
{
    // SA throughput per MAC degrades when m < A, and worsens as the
    // array grows (Sec. 6.2).
    const model::GemmOp op = simple_gemm(8, 4096, 4096);
    const double sa16 =
        gemm_cost(make_systolic(16), op).compute_cycles;
    const double sa64 =
        gemm_cost(make_systolic(64), op).compute_cycles;
    const double macs = static_cast<double>(op.macs());
    const double util16 = macs / (sa16 * 256.0);
    const double util64 = macs / (sa64 * 4096.0);
    EXPECT_LT(util16, 0.55);
    EXPECT_LT(util64, util16);
}

TEST(PerfModel, MemoryBoundOpsHitTheRoofline)
{
    // A single VLP node consumes INT4 weights at H/16 bytes/cycle,
    // far below the 640 B/cycle HBM roofline (the paper's "more
    // compute bounded" observation); only a very tall array flips an
    // op to memory-bound.
    model::GemmOp op = simple_gemm(8, 65536, 4096);
    const OpCost small = gemm_cost(make_mugi(256), op);
    EXPECT_GT(small.compute_cycles, small.memory_cycles);
    EXPECT_EQ(small.cycles, small.compute_cycles);

    const OpCost tall = gemm_cost(make_mugi(16384), op);
    EXPECT_GT(tall.memory_cycles, tall.compute_cycles);
    EXPECT_EQ(tall.cycles, tall.memory_cycles);
}

TEST(PerfModel, NonlinearVlpVsVectorArrays)
{
    // Fig. 11: Mugi(128) ~44-45x a precise 16-lane VA; ~5x PWL; ~10x
    // Taylor (throughput, iso-normalization).
    model::NonlinearWork work;
    work.op = nonlinear::NonlinearOp::kExp;
    work.elements = 1 << 20;
    const double mugi =
        nonlinear_cost(make_mugi(128), work).compute_cycles;
    const double va_fp = nonlinear_cost(
        make_vector_array(16, NonlinearScheme::kPrecise), work)
        .compute_cycles;
    const double va_pwl =
        nonlinear_cost(make_vector_array(16, NonlinearScheme::kPwl),
                       work)
            .compute_cycles;
    const double va_taylor = nonlinear_cost(
        make_vector_array(16, NonlinearScheme::kTaylor), work)
        .compute_cycles;
    EXPECT_NEAR(va_fp / mugi, 44.0, 2.0);
    EXPECT_NEAR(va_pwl / mugi, 5.0, 0.5);
    EXPECT_NEAR(va_taylor / mugi, 10.0, 1.0);
}

TEST(PerfModel, SoftmaxNormalizationIsLatencyHiddenButCostsEnergy)
{
    model::NonlinearWork exp_only;
    exp_only.op = nonlinear::NonlinearOp::kExp;
    exp_only.elements = 1 << 20;
    model::NonlinearWork softmax = exp_only;
    softmax.is_softmax = true;
    softmax.row_length = 128;
    const DesignConfig mugi = make_mugi(128);
    const OpCost exp_cost = nonlinear_cost(mugi, exp_only);
    const OpCost sm_cost = nonlinear_cost(mugi, softmax);
    // The vector array scales outputs as they exit the oFIFO
    // (Sec. 5.2.1): only a per-row drain of extra latency...
    EXPECT_LT(sm_cost.compute_cycles, exp_cost.compute_cycles * 1.01);
    // ...but the sum + reciprocal-multiply still costs energy.
    EXPECT_GT(sm_cost.dynamic_energy_pj, exp_cost.dynamic_energy_pj);
}

TEST(PerfModel, WorkloadReportConsistency)
{
    const DesignConfig mugi = make_mugi(256);
    const model::Workload w =
        model::build_decode_workload(model::llama2_7b(), 8, 2048);
    const PerfReport report = run_workload(mugi, w);
    EXPECT_GT(report.total_cycles, 0.0);
    EXPECT_GT(report.throughput_tokens_per_s, 0.0);
    EXPECT_GT(report.power_w, 0.0);
    // Identities between the reported metrics.
    EXPECT_NEAR(report.energy_efficiency,
                report.throughput_tokens_per_s *
                    report.power_efficiency,
                1e-6 * report.energy_efficiency);
    EXPECT_NEAR(report.power_efficiency,
                report.throughput_tokens_per_s / report.power_w,
                1e-6 * report.power_efficiency);
    // Breakdown sums to the total.
    double sum = 0.0;
    for (const auto& [cls, cycles] : report.cycles_by_class) {
        sum += cycles;
    }
    EXPECT_NEAR(sum, report.total_cycles, 1e-6 * report.total_cycles);
}

TEST(PerfModel, NocScalesNearLinearly)
{
    // Table 3: 4x4 Mugi(256) ~16x the single node (compute-bound,
    // memory supplies the minimum bandwidth, Sec. 5.2.3).
    const model::Workload w =
        model::build_decode_workload(model::llama2_70b(), 8, 4096);
    const PerfReport one = run_workload(make_mugi(256), w);
    const PerfReport mesh =
        run_workload(make_mugi(256).with_noc(4, 4), w);
    EXPECT_NEAR(mesh.throughput_tokens_per_s /
                    one.throughput_tokens_per_s,
                16.0, 0.5);
}

TEST(PerfModel, GqaImprovesMugiAttentionThroughput)
{
    // Sec. 6.2: GQA's grouped queries fill Mugi's 8 columns.  Compare
    // 70B attention (group 8) against a hypothetical MHA 70B.
    model::ModelConfig gqa = model::llama2_70b();
    model::ModelConfig mha = gqa;
    mha.num_kv_heads = mha.num_heads;  // Disable GQA.
    const DesignConfig mugi = make_mugi(256);
    const auto attention_cycles = [&](const model::ModelConfig& m) {
        const model::Workload w =
            model::build_decode_workload(m, 1, 4096);
        const PerfReport r = run_workload(mugi, w);
        return r.cycles_by_class.at(model::OpClass::kAttention);
    };
    // Same attention MACs, but the MHA mapping leaves 7/8 columns
    // idle at batch 1.
    EXPECT_NEAR(attention_cycles(mha) / attention_cycles(gqa), 8.0,
                0.5);
}

TEST(PerfModel, KvFootprintDiscountsASharedPrefix)
{
    // kv_footprint(..., shared_positions) is the admission-side view
    // of a prefix-cache hit: only the fully-shared leading blocks
    // leave the paged accounting (their storage belongs to the
    // donor), and the contiguous accounting drops every shared
    // token.
    const model::ModelConfig config = model::llama2_7b();
    const std::size_t B = 16;
    const KvFootprint full = kv_footprint(
        config, units::Positions(47), quant::KvPrecision::kInt4,
        units::Tokens(B));
    const KvFootprint tail = kv_footprint(
        config, units::Positions(47), quant::KvPrecision::kInt4,
        units::Tokens(B), units::Positions(32));
    EXPECT_EQ(full.blocks, units::Blocks(3));
    // Two of three blocks shared.
    EXPECT_EQ(tail.blocks, units::Blocks(1));
    EXPECT_EQ(full.paged_bytes, tail.paged_bytes * 3);
    const units::Bytes per_position =
        quant::KvCache::bytes_per_position(
            config.num_kv_heads, config.head_dim(),
            quant::KvPrecision::kInt4);
    EXPECT_EQ(tail.contiguous_bytes,
              per_position * (config.num_layers * (47 - 32)));
    // shared_positions == 0 is exactly the old accounting.
    const KvFootprint same = kv_footprint(
        config, units::Positions(47), quant::KvPrecision::kInt4,
        units::Tokens(B), units::Positions(0));
    EXPECT_EQ(same.paged_bytes, full.paged_bytes);
    EXPECT_EQ(same.contiguous_bytes, full.contiguous_bytes);
}

TEST(PerfModel, EnergyByClassCoversAllClasses)
{
    const model::Workload w =
        model::build_decode_workload(model::llama2_7b(), 8, 1024);
    const PerfReport r = run_workload(make_mugi(128), w);
    EXPECT_GT(r.energy_by_class.at(model::OpClass::kProjection), 0.0);
    EXPECT_GT(r.energy_by_class.at(model::OpClass::kAttention), 0.0);
    EXPECT_GT(r.energy_by_class.at(model::OpClass::kFfn), 0.0);
    EXPECT_GT(r.energy_by_class.at(model::OpClass::kNonlinear), 0.0);
}

}  // namespace
}  // namespace sim
}  // namespace mugi
