#ifndef MUGI_MODEL_PROFILER_H_
#define MUGI_MODEL_PROFILER_H_

/**
 * @file
 * Runtime profiling of nonlinear-operation inputs (Sec. 3.3, Fig. 4):
 * per (op, layer) histograms of input *values* and of input
 * *exponents*.  The exponent histogram is the evidence behind the
 * value-centric LUT window: exponents cluster in a narrow band even
 * when values spread widely.
 */

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "model/transformer.h"
#include "nonlinear/reference.h"

namespace mugi {
namespace model {

/** A fixed-bin 1-D histogram. */
class Histogram {
  public:
    Histogram() = default;
    Histogram(double lo, double hi, std::size_t bins);

    void add(double value);

    std::size_t total() const { return total_; }
    std::size_t underflow() const { return underflow_; }
    std::size_t overflow() const { return overflow_; }
    const std::vector<std::size_t>& bins() const { return bins_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /** Center of bin @p i. */
    double bin_center(std::size_t i) const;

    /** Fraction of samples inside [a, b]. */
    double fraction_in(double a, double b) const;

    /**
     * Add @p other's samples, out-of-range ones included; @p other
     * must have the same range and bins.
     */
    void merge(const Histogram& other);

  private:
    double lo_ = 0.0;
    double hi_ = 1.0;
    std::vector<std::size_t> bins_;
    std::size_t total_ = 0;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
};

/** Distribution snapshot for one (op, layer). */
struct SiteProfile {
    nonlinear::NonlinearOp op;
    std::size_t layer = 0;
    Histogram values;     ///< Raw input values.
    Histogram exponents;  ///< Unbiased input exponents.
    std::size_t zero_count = 0;

    /**
     * Smallest window of @p size exponents covering the largest
     * fraction of inputs -- the profiler's suggestion for the LUT
     * window (Fig. 4 / Fig. 5 connection).
     */
    std::pair<int, int> dominant_exponent_window(int size) const;

    /** Fraction of (non-zero) inputs inside exponent window [lo,hi]. */
    double exponent_coverage(int lo, int hi) const;
};

/** Collects SiteProfiles through the transformer capture hook. */
class NonlinearProfiler {
  public:
    NonlinearProfiler();

    /** The CaptureFn to pass to TransformerModel's forward passes. */
    CaptureFn capture();

    /** All profiled sites, keyed by (op, layer). */
    const std::map<std::pair<int, std::size_t>, SiteProfile>&
    sites() const
    {
        return sites_;
    }

    /** Profile of one (op, layer); throws if absent. */
    const SiteProfile& site(nonlinear::NonlinearOp op,
                            std::size_t layer) const;

    bool has_site(nonlinear::NonlinearOp op, std::size_t layer) const;

    /** Merge values/exponents across layers for one op. */
    SiteProfile merged(nonlinear::NonlinearOp op) const;

  private:
    void record(nonlinear::NonlinearOp op, std::size_t layer,
                std::span<const float> inputs);

    std::map<std::pair<int, std::size_t>, SiteProfile> sites_;
};

}  // namespace model
}  // namespace mugi

#endif  // MUGI_MODEL_PROFILER_H_
