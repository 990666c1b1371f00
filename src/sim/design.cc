#include "sim/design.h"

#include <algorithm>

namespace mugi {
namespace sim {

const char*
nonlinear_scheme_name(NonlinearScheme scheme)
{
    switch (scheme) {
      case NonlinearScheme::kVlp:
        return "vlp";
      case NonlinearScheme::kLut:
        return "lut";
      case NonlinearScheme::kPrecise:
        return "precise";
      case NonlinearScheme::kTaylor:
        return "taylor";
      case NonlinearScheme::kPwl:
        return "pwl";
    }
    return "?";
}

double
DesignConfig::peak_macs_per_cycle() const
{
    if (is_vlp()) {
        // One outer-product sweep of H x 8 MACs per 2^3 cycles.
        return static_cast<double>(array_rows);
    }
    if (kind == DesignKind::kTensor) {
        return static_cast<double>(array_rows) * array_cols *
               array_depth;
    }
    return static_cast<double>(array_rows) * array_cols;
}

DesignConfig
DesignConfig::with_noc(std::size_t rows, std::size_t cols) const
{
    DesignConfig mesh = *this;
    mesh.noc_rows = rows;
    mesh.noc_cols = cols;
    mesh.name = std::to_string(rows) + "x" + std::to_string(cols) +
                " " + name;
    return mesh;
}

DesignConfig
make_mugi(std::size_t array_rows)
{
    DesignConfig d;
    d.name = "Mugi(" + std::to_string(array_rows) + ")";
    d.kind = DesignKind::kMugi;
    d.array_rows = array_rows;
    d.array_cols = 8;
    d.nonlinear = NonlinearScheme::kVlp;
    d.vector_lanes = 8;
    return d;
}

DesignConfig
make_mugi_l(std::size_t array_rows)
{
    DesignConfig d = make_mugi(array_rows);
    d.name = "Mugi-L(" + std::to_string(array_rows) + ")";
    d.kind = DesignKind::kMugiLut;
    d.nonlinear = NonlinearScheme::kLut;
    return d;
}

DesignConfig
make_carat(std::size_t array_rows)
{
    DesignConfig d;
    d.name = "Carat(" + std::to_string(array_rows) + ")";
    d.kind = DesignKind::kCarat;
    d.array_rows = array_rows;
    d.array_cols = 8;
    // Carat has no VLP nonlinear support; it falls back to a Taylor
    // vector array sized to its accumulator bandwidth, which lands at
    // ~3x Mugi's nonlinear latency (Sec. 6.3.1: "Carat triples the
    // nonlinear latency of Mugi, due to relying on non-VLP
    // approximations"): H/2.4 lanes at 10 cycles/element vs Mugi's
    // H/8 elements/cycle.
    d.nonlinear = NonlinearScheme::kTaylor;
    d.vector_lanes = std::max<std::size_t>(16, (array_rows * 10) / 24);
    return d;
}

DesignConfig
make_systolic(std::size_t dim, bool figna)
{
    DesignConfig d;
    d.name = std::string(figna ? "SA-F(" : "SA(") +
             std::to_string(dim) + ")";
    d.kind = figna ? DesignKind::kSystolicFigna : DesignKind::kSystolic;
    d.array_rows = dim;
    d.array_cols = dim;
    d.nonlinear = NonlinearScheme::kPrecise;
    d.vector_lanes = 16;
    return d;
}

DesignConfig
make_simd(std::size_t dim, bool figna)
{
    DesignConfig d = make_systolic(dim, figna);
    d.name = std::string(figna ? "SD-F(" : "SD(") +
             std::to_string(dim) + ")";
    d.kind = figna ? DesignKind::kSimdFigna : DesignKind::kSimd;
    return d;
}

DesignConfig
make_tensor()
{
    DesignConfig d;
    d.name = "Tensor";
    d.kind = DesignKind::kTensor;
    d.array_rows = 8;
    d.array_cols = 16;
    d.array_depth = 16;
    d.nonlinear = NonlinearScheme::kPrecise;
    // GPU-class wide SIMD for nonlinear work (SFU-style lanes).
    d.vector_lanes = 128;
    d.sram_bytes = 1024 * 1024;  // Table 2: 1 MB for the tensor core.
    return d;
}

DesignConfig
make_vector_array(std::size_t lanes, NonlinearScheme scheme)
{
    DesignConfig d;
    d.name = std::string("VA-") + nonlinear_scheme_name(scheme) + "(" +
             std::to_string(lanes) + ")";
    // A vector array is modeled as a 1-D SIMD design.
    d.kind = DesignKind::kSimd;
    d.array_rows = lanes;
    d.array_cols = 1;
    d.nonlinear = scheme;
    d.vector_lanes = lanes;
    return d;
}

}  // namespace sim
}  // namespace mugi
