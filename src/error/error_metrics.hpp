#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/circuit/arith.hpp"
#include "src/circuit/netlist.hpp"
#include "src/util/bytes.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/rng.hpp"

namespace axf::error {

/// Error profile of an approximate arithmetic circuit against the exact
/// operator.  All distance metrics are computed over the evaluated input
/// set (exhaustive when feasible, stratified-sampled otherwise).
struct ErrorReport {
    /// Mean Error Distance *relative to the maximum output value*, the
    /// paper's headline quality metric ("average of the absolute error
    /// difference across all the input combinations relative to the
    /// maximum number of outputs", Han & Orshansky normalization).
    double med = 0.0;
    double meanAbsoluteError = 0.0;   ///< unnormalized mean |approx - exact|
    double worstCaseError = 0.0;      ///< max |approx - exact|
    double meanRelativeError = 0.0;   ///< mean |err| / max(1, exact)
    double errorProbability = 0.0;    ///< fraction of inputs with any error
    double meanSquaredError = 0.0;
    std::uint64_t vectorsEvaluated = 0;
    bool exhaustive = false;

    /// Provably exact: zero error over the *exhaustive* input space.  A
    /// sampled report can never prove exactness (a mismatch may hide in the
    /// unsampled vectors), so this is false for sampled reports even when
    /// no mismatch was observed.
    bool isExact() const { return exhaustive && errorProbability == 0.0; }

    /// No mismatch on the evaluated vectors — the weaker, sampled-friendly
    /// predicate ("exact as far as the evaluation can tell").  Equal to
    /// `isExact()` whenever the report is exhaustive.
    bool observedExact() const { return errorProbability == 0.0; }

    std::string summary() const;

    /// Fixed-order binary encoding for the characterization cache.
    void serialize(util::ByteWriter& out) const;
    /// Decodes a report written by `serialize`; false on truncated input
    /// (the reader is left failed, `out` unspecified).
    static bool deserialize(util::ByteReader& in, ErrorReport& out);
};

/// Evaluation policy.  `exhaustiveLimit` bounds the input-space size (in
/// vectors) up to which exhaustive sweep is used; larger spaces fall back
/// to `sampleCount` pseudo-random vectors drawn with the given seed.
struct ErrorAnalysisConfig {
    std::uint64_t exhaustiveLimit = 1ull << 16;  ///< 8x8 operators stay exhaustive
    std::uint64_t sampleCount = 1ull << 14;
    std::uint64_t seed = 0xE5527;
    /// Worker threads: 0 = use the whole process-wide pool, 1 = force
    /// serial, N > 1 = cap the fan-out at N threads.  The input space is
    /// partitioned into fixed-size chunks whose partial results merge in
    /// chunk order, so the report is bit-identical for every thread count.
    int threads = 0;

    /// Cooperative cancellation checked at chunk boundaries (nullptr =
    /// never cancelled).  Not part of the cache key or the report — it
    /// only decides whether the sweep finishes.  NOTE: config literals
    /// initialize this struct positionally in several call sites; new
    /// fields go at the end.
    const util::CancellationToken* cancel = nullptr;

    /// True when `sig`'s input space is swept exhaustively under this
    /// config.  The single source of truth for the analyzer's path choice
    /// AND the characterization-cache key canonicalization — keep it that
    /// way, or cached reports could be served for the wrong policy.
    bool isExhaustiveFor(const circuit::ArithSignature& sig) const {
        const int inputWidth = sig.inputWidth();
        return inputWidth < 64 && (std::uint64_t{1} << inputWidth) <= exhaustiveLimit;
    }
};

/// The error analysis of one (signature, config), reusable across netlists.
///
/// A sampled config's stimulus — every chunk's input planes and their
/// exact results — is drawn once, by the first sweep that reaches the
/// chunk, and kept; later `analyze` calls only compile and sweep, and a
/// one-shot analysis draws and sweeps in one pass.  Exhaustive configs
/// generate their blocks on the fly and store nothing.  A drawn sampled
/// analyzer holds `sampleCount * (inputWidth / 8 + 8)` bytes.
///
/// Runs on the compiled multi-word engine (`BatchSimulator`, 1024 lanes
/// per sweep), thread-parallel over input-space chunks per
/// `config.threads`.  Reports are bit-identical across kernel backends
/// and thread counts.
class ErrorAnalyzer {
public:
    /// Throws std::invalid_argument on an operand wider than 32 bits or a
    /// sampled config without samples.
    explicit ErrorAnalyzer(const circuit::ArithSignature& sig,
                           const ErrorAnalysisConfig& config = {});

    /// Error profile of `netlist` implementing the signature.  The netlist
    /// interface must be LSB-first operand A bits, then operand B bits;
    /// outputs LSB-first.  Throws std::invalid_argument on an arity
    /// mismatch, util::OperationCancelled when `config.cancel` stops the
    /// sweep.  Const and safe to call from several threads at once.
    ErrorReport analyze(const circuit::Netlist& netlist) const;

    const circuit::ArithSignature& signature() const { return sig_; }
    const ErrorAnalysisConfig& config() const { return config_; }

private:
    /// One sampled chunk's stimulus, drawn under `drawn` by the first
    /// sweep that needs it.
    struct SampledChunk {
        std::once_flag drawn;
        std::vector<std::uint64_t> planes;  ///< input bit-planes, block after block
        std::vector<std::uint64_t> exact;   ///< exact result of every vector
    };

    circuit::ArithSignature sig_;
    ErrorAnalysisConfig config_;
    bool exhaustive_ = false;
    std::uint64_t vectors_ = 0;
    mutable std::vector<SampledChunk> chunks_;  ///< empty for exhaustive configs
};

/// Computes the error profile of `netlist` implementing `sig`:
/// `ErrorAnalyzer(sig, config).analyze(netlist)`.  Callers analyzing many
/// netlists under one config should hold an `ErrorAnalyzer` instead.
ErrorReport analyzeError(const circuit::Netlist& netlist, const circuit::ArithSignature& sig,
                         const ErrorAnalysisConfig& config = {});

/// Reference implementation on the per-node interpreter (`Simulator`, 64
/// lanes per sweep; no compiled program and no kernel backend), retained
/// for differential testing and as the benchmark baseline the compiled
/// engine is measured against.  Always serial.
ErrorReport analyzeErrorBaseline(const circuit::Netlist& netlist,
                                 const circuit::ArithSignature& sig,
                                 const ErrorAnalysisConfig& config = {});

/// True when the circuit matches the exact operator on every evaluated
/// vector (exhaustive for spaces within the config limit).
bool isFunctionallyExact(const circuit::Netlist& netlist, const circuit::ArithSignature& sig,
                         const ErrorAnalysisConfig& config = {});

}  // namespace axf::error
