#pragma once

#include <string>
#include <vector>

#include "src/cache/characterization_cache.hpp"
#include "src/circuit/arith.hpp"
#include "src/circuit/netlist.hpp"
#include "src/error/error_metrics.hpp"

namespace axf::gen {

/// One entry of the approximate-circuit library (the unit the ApproxFPGAs
/// methodology explores).  Netlists are stored post-`simplify`.
struct LibraryCircuit {
    std::string name;
    std::string origin;  ///< generator family ("loa", "cgp", "bam", ...)
    circuit::Netlist netlist;
    circuit::ArithSignature signature;
    error::ErrorReport error;
};

/// A homogeneous library (one operator, one bit-width), e.g. "the 4,494
/// 8x8 unsigned approximate multipliers" of the paper.
using AcLibrary = std::vector<LibraryCircuit>;

/// Library-generation policy.
struct LibraryConfig {
    circuit::ArithOp op = circuit::ArithOp::Multiplier;
    int width = 8;

    /// MED budgets the CGP runs target; each budget contributes one run per
    /// seed architecture and harvests every accepted novel design.
    std::vector<double> medBudgets = {0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05};
    int cgpGenerations = 220;
    int cgpLambda = 4;
    std::uint64_t seed = 0xA90F5;

    /// Error-analysis policy of every library report, structural and CGP
    /// alike (one analyzer per build).  CGP fitness does not use it: the
    /// runs evaluate offspring under `CgpEvolver::Options::fitnessConfig`.
    error::ErrorAnalysisConfig errorConfig;

    /// Optional cap on the library size (0 = unlimited).  When capped, a
    /// deterministic uniform thinning keeps the error spread intact.
    std::size_t maxCircuits = 0;

    /// Skip the (slow) evolutionary part; structural families only.
    bool structuralOnly = false;

    /// Optional characterization cache (not owned).  When set, the
    /// simplify+error-analysis pipeline reuses content-addressed results
    /// from earlier builds (same or other processes via the on-disk
    /// store); null keeps the fully-recomputing behavior.  Warm builds are
    /// bit-identical to cold builds at any thread count.
    cache::CharacterizationCache* cache = nullptr;

    /// Cooperative cancellation for the whole build, checked at candidate
    /// and CGP-run boundaries and threaded into the characterization
    /// fan-outs.  A cancelled build throws util::OperationCancelled; work
    /// already characterized stays warm in `cache` for the retry.
    const util::CancellationToken* cancel = nullptr;
};

/// Generates the full library for the configuration: structural families
/// (exact + parameter sweeps of classic approximate architectures) plus
/// CGP-evolved designs, deduplicated by structural hash and annotated with
/// their error profiles.
AcLibrary buildLibrary(const LibraryConfig& config);

/// Structural families only (deterministic, no evolution).
AcLibrary buildStructuralFamilies(const LibraryConfig& config);

/// Convenience: the signature shared by all circuits of a config.
circuit::ArithSignature librarySignature(const LibraryConfig& config);

}  // namespace axf::gen
