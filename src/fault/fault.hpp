#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/circuit/arith.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/netlist.hpp"
#include "src/error/error_metrics.hpp"
#include "src/util/bytes.hpp"
#include "src/verify/absint.hpp"

namespace axf::fault {

/// `FaultSite::afterInstr` of a primary-input site (shared with
/// `verify::StuckSite`, the form the static skip proves sites in).
using verify::kFaultAtInputs;

/// One stuck-at fault location in a compiled program: the output plane of
/// an emitted instruction (including the carry plane of a dual-destination
/// HalfAdd) or a primary-input slot, forced to 0 or 1.  Constants are not
/// fault sites (a stuck constant is either a no-op or another constant,
/// i.e. a different circuit, not a defect model).
struct FaultSite {
    /// Representative node in the *source* netlist whose value the slot
    /// carries: a stuck-at here is exactly a stuck-at on that node's
    /// output (opcode fusion preserves every surviving node's function).
    circuit::NodeId node = circuit::kInvalidNode;
    std::uint32_t slot = 0;
    /// Producing instruction index, or `kFaultAtInputs` for primary-input
    /// sites.
    std::uint32_t afterInstr = 0;
    bool stuckTo = false;
    bool isInput = false;
    /// Number of pre-collapse sites this site represents (>= 1): stuck-ats
    /// on a single-consumer value and on the Buf copy reading it are the
    /// same fault and are collapsed onto one representative.
    std::uint32_t collapsed = 1;

    void serialize(util::ByteWriter& out) const;
    static bool deserialize(util::ByteReader& in, FaultSite& out);
};

/// Deterministic fault-site enumeration over a compiled program.  Site
/// order is fixed: input slots first (interface order), then instructions
/// in stream order (a HalfAdd contributes its sum plane, then its carry
/// plane), with stuck-at-0 before stuck-at-1 per plane.
struct SiteEnumeration {
    std::vector<FaultSite> sites;
    /// Pre-collapse site count (== sum of `collapsed` over `sites`).
    std::uint32_t totalSites = 0;
};

SiteEnumeration enumerateFaultSites(const circuit::CompiledNetlist& compiled,
                                    bool includeInputFaults = true,
                                    bool collapseEquivalent = true);

/// Campaign configuration.  The embedded `analysis` member carries the
/// shared evaluation contract (`exhaustiveLimit`, `sampleCount`, `seed`,
/// `threads`) with the same semantics as `analyzeError`: spaces within the
/// exhaustive limit are swept completely per fault, larger spaces are
/// sampled (`sampleCount` vectors per fault, seeded deterministically).
struct CampaignConfig {
    error::ErrorAnalysisConfig analysis;
    bool includeInputFaults = true;
    bool collapseEquivalent = true;
    /// Statically prove cannot-deviate sites before evaluating anything
    /// (ternary abstract interpretation over the compiled program, see
    /// src/verify/absint.hpp) and skip them outright: a proven site gets
    /// the nominal error report and zero deviation without simulating a
    /// single vector.  Sound, so results are bit-identical either way —
    /// this only changes what work is spent discovering them.
    bool staticSkip = true;
    /// A fault is *critical* when its error-under-fault MED reaches
    /// `criticalFactor * max(nominal MED, criticalFloor)`.
    double criticalFactor = 4.0;
    double criticalFloor = 1e-3;
    std::size_t maxCritical = 32;
};

/// Per-fault campaign result: the full error report of the faulted circuit
/// plus how often its outputs deviated from the fault-free circuit.
struct FaultImpact {
    FaultSite site;
    error::ErrorReport error;
    std::uint64_t deviatedVectors = 0;
    double deviationProbability = 0.0;

    /// A fault is detected when at least one evaluated vector exposes it.
    bool detected() const { return deviatedVectors != 0; }

    void serialize(util::ByteWriter& out) const;
    static bool deserialize(util::ByteReader& in, FaultImpact& out);
};

/// Full resilience characterization of one circuit.  All aggregate metrics
/// weight each site by its `collapsed` count, so collapsing equivalent
/// sites changes the campaign cost but not the reported statistics.
struct ResilienceReport {
    error::ErrorReport nominal;           ///< fault-free reference
    std::vector<FaultImpact> faults;      ///< enumeration order
    std::uint32_t totalSites = 0;         ///< pre-collapse site count
    std::uint64_t vectorsPerFault = 0;
    bool exhaustive = false;

    double meanMedUnderFault = 0.0;   ///< collapsed-weighted mean fault MED
    double worstMedUnderFault = 0.0;
    std::uint32_t worstFault = 0;     ///< index into `faults`
    /// Collapsed-weighted fraction of sites detected by the evaluated
    /// vector set (a test-coverage style figure of merit).
    double faultCoverage = 0.0;
    /// Indices of critical faults (see CampaignConfig), most severe first.
    std::vector<std::uint32_t> criticalFaults;

    std::string summary() const;

    void serialize(util::ByteWriter& out) const;
    static bool deserialize(util::ByteReader& in, ResilienceReport& out);
};

/// Runs a stuck-at campaign over every enumerated fault site.
///
/// Determinism contract (same as `analyzeError`): results are
/// bit-identical at any `analysis.threads` setting and across kernel
/// backends.  Each fault's metrics are folded from fixed-size per-block
/// partial accumulators merged strictly in block order; the work split
/// over threads is a fixed-size fault partition that never depends on the
/// thread count.
///
/// Both modes replay cones against a shared fault-free reference sweep:
/// each 1024-lane block is simulated once, each fault re-executes only
/// its fan-out cone, and blocks where the fault does not reach an output
/// reuse the nominal partial accumulators outright.  Exhaustive blocks
/// enumerate the input space and accumulate in 256-lane partials.  Sampled
/// blocks carry 16 consecutive 64-lane sample batches, one per word: batch
/// b is drawn from its own stream `mixSeed(seed + b)` and folds into its
/// own partial, merged in batch order; lanes past `sampleCount` are
/// masked out.
///
/// Throws std::invalid_argument on an interface mismatch, an operand wider
/// than 32 bits or a sampled campaign without samples (as `analyzeError`
/// does).
ResilienceReport analyzeResilience(const circuit::Netlist& netlist,
                                   const circuit::ArithSignature& sig,
                                   const CampaignConfig& config = {});

/// Scalar oracle helper: a copy of `netlist` with `node`'s output stuck at
/// `value`.  Gate and constant nodes are replaced in place by a constant
/// (ids unchanged); for an Input node the input is kept (the interface
/// must survive) and every consumer is redirected to an inserted constant.
circuit::Netlist stuckAtNetlist(const circuit::Netlist& netlist, circuit::NodeId node,
                                bool value);

}  // namespace axf::fault
