#ifndef MUGI_SIM_DESIGN_H_
#define MUGI_SIM_DESIGN_H_

/**
 * @file
 * Accelerator design configurations of Table 2: Mugi, Carat, systolic
 * array (SA), SIMD array (SD), their FIGNA variants (-F), the tensor
 * core, and the Mugi-L ablation (dedicated LUT instead of temporal
 * VLP nonlinear).  A design is one node; NoC configurations replicate
 * it over a 2-D mesh (Sec. 5.2.3).
 */

#include <cstddef>
#include <string>

namespace mugi {
namespace sim {

/** Datapath families of Table 2. */
enum class DesignKind {
    kMugi,           ///< VLP array, shared nonlinear + GEMM.
    kMugiLut,        ///< Mugi-L: VLP GEMM + dedicated LUT nonlinear.
    kCarat,          ///< Prior VLP design (modified for BF16-INT4).
    kSystolic,       ///< Weight/output-stationary MAC systolic array.
    kSystolicFigna,  ///< Systolic with FIGNA FP-INT PEs.
    kSimd,           ///< SIMD array with adder trees.
    kSimdFigna,      ///< SIMD with FIGNA PEs.
    kTensor,         ///< Fully-pipelined 8x16x16 tensor core.
};

/** Nonlinear-operation scheme attached to a design. */
enum class NonlinearScheme {
    kVlp,      ///< Temporal VLP on the shared array (Mugi).
    kLut,      ///< Dedicated programmable LUT (Mugi-L).
    kPrecise,  ///< Precise 44-cycle MAC vector array (VA-FP).
    kTaylor,   ///< Taylor-series vector array (degree 9).
    kPwl,      ///< Piecewise-linear vector array (22 segments).
};

const char* nonlinear_scheme_name(NonlinearScheme scheme);

/** One accelerator node (plus optional mesh replication). */
struct DesignConfig {
    std::string name;
    DesignKind kind = DesignKind::kMugi;
    std::size_t array_rows = 128;  ///< H (Table 2 "Array height").
    std::size_t array_cols = 8;    ///< W (8 for VLP; H for SA/SD).
    std::size_t array_depth = 1;   ///< 16 for the tensor core.
    NonlinearScheme nonlinear = NonlinearScheme::kVlp;
    std::size_t vector_lanes = 8;  ///< Vec / vector-array width.
    std::size_t sram_bytes = 64 * 1024;  ///< Each of i/w/o SRAM.
    std::size_t noc_rows = 1;      ///< Mesh shape (1x1 = single node).
    std::size_t noc_cols = 1;

    std::size_t nodes() const { return noc_rows * noc_cols; }
    bool
    is_vlp() const
    {
        return kind == DesignKind::kMugi || kind == DesignKind::kCarat ||
               kind == DesignKind::kMugiLut;
    }

    /** Peak MACs per cycle of one node. */
    double peak_macs_per_cycle() const;

    /** Replicated mesh variant of this node. */
    DesignConfig with_noc(std::size_t rows, std::size_t cols) const;
};

// ---- Table 2 factory functions. ----

/** Mugi node with H array rows (128/256 in Table 3; 64 in Fig. 14). */
DesignConfig make_mugi(std::size_t array_rows);
/** Mugi-L: dedicated-LUT ablation. */
DesignConfig make_mugi_l(std::size_t array_rows);
/** Carat modified for BF16-INT4 (Sec. 5.2.2). */
DesignConfig make_carat(std::size_t array_rows);
/** Systolic array of A x A BF16 MACs (A = 4..64). */
DesignConfig make_systolic(std::size_t dim, bool figna = false);
/** SIMD array of A x A MACs with adder trees. */
DesignConfig make_simd(std::size_t dim, bool figna = false);
/** Tensor core: 8x16x16 MACs/cycle, 1 MB SRAM. */
DesignConfig make_tensor();
/**
 * Standalone vector array of @p lanes MAC lanes running @p scheme
 * (the VA-FP / VA-AP baselines of Fig. 11).
 */
DesignConfig make_vector_array(std::size_t lanes,
                               NonlinearScheme scheme);

}  // namespace sim
}  // namespace mugi

#endif  // MUGI_SIM_DESIGN_H_
