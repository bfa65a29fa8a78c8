#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/core/dataset.hpp"
#include "src/core/pareto.hpp"

namespace axf::core {

/// Fidelity scores of one Table-I model on the validation subset.
struct ModelScore {
    std::string id;
    std::string name;
    std::map<FpgaParam, double> fidelityByParam;
    /// Chosen hyperparameter variant per parameter (only when the flow runs
    /// with `tuneHyperparameters`; "default" otherwise).
    std::map<FpgaParam, std::string> variantByParam;
};

/// Per-FPGA-parameter outcome of the methodology.
struct TargetOutcome {
    FpgaParam param = FpgaParam::Latency;
    std::vector<std::string> selectedModels;       ///< top-k ids by fidelity
    std::vector<std::size_t> pseudoParetoIndices;  ///< union over models & fronts
    std::vector<std::size_t> resynthesized;        ///< newly synthesized circuits
    std::vector<std::size_t> finalParetoIndices;   ///< measured-circuit front
    double coverageOfTrueFront = 0.0;  ///< vs. the exhaustive ground truth
};

/// End-to-end result of one ApproxFPGAs run on one library.
struct FlowResult {
    CircuitDataset dataset;  ///< circuits with their measurement flags
    std::vector<ModelScore> leaderboard;  ///< all 18 models x 3 params
    std::vector<TargetOutcome> targets;   ///< one per FPGA parameter

    // Exploration-time accounting (Vivado-equivalent seconds, Fig. 3).
    double exhaustiveSynthSeconds = 0.0;  ///< synthesizing the whole library
    double flowSynthSeconds = 0.0;        ///< subset + pseudo-Pareto re-synthesis
    std::size_t circuitsSynthesized = 0;  ///< unique circuits the flow synthesized

    double speedup() const {
        return flowSynthSeconds > 0.0 ? exhaustiveSynthSeconds / flowSynthSeconds : 0.0;
    }
    double meanCoverage() const;
};

/// The ApproxFPGAs methodology (Fig. 2): synthesize a training subset,
/// learn estimators, score them with the fidelity metric, estimate the
/// whole library, peel multiple pseudo-Pareto fronts, re-synthesize their
/// union, and report the final Pareto-optimal FPGA-ACs.
class ApproxFpgasFlow {
public:
    struct Config {
        double trainFraction = 0.10;   ///< share of the library synthesized up front
        double validationShare = 0.20;  ///< of the subset, held out for fidelity
        int paretoFronts = 3;          ///< successive pseudo-fronts peeled
        int topModels = 3;             ///< models selected per parameter
        std::uint64_t seed = 0x5EED;
        synth::FpgaFlow fpgaFlow{};
        synth::AsicFlow asicFlow{};
        /// Restrict scoring to these model ids (empty = all of Table I).
        std::vector<std::string> modelIds;
        /// Run the paper's "modification of ML parameters" loop (Fig. 2):
        /// per model and parameter, sweep a small hyperparameter grid and
        /// keep the variant with the best validation fidelity.
        bool tuneHyperparameters = false;
        /// Compute ground-truth fronts for coverage reporting (synthesizes
        /// everything once; never counted into flow time).
        bool evaluateCoverage = true;
        /// Optional characterization cache (not owned): ASIC and FPGA
        /// reports are reused across runs and processes.  The *modeled*
        /// Vivado-equivalent seconds are still charged on cache hits —
        /// results (including exploration-time accounting) are identical
        /// with and without the cache; only wall-clock changes.
        cache::CharacterizationCache* cache = nullptr;
    };

    explicit ApproxFpgasFlow(Config config) : config_(std::move(config)) {}

    /// Runs the methodology over a pre-built library.  Independent steps
    /// run on `util::ThreadPool::global()`; the result is bit-identical at
    /// any pool size.
    FlowResult run(gen::AcLibrary library) const;

    /// Quality axis used for Pareto construction (the paper plots MED).
    static double qualityOf(const CharacterizedCircuit& cc) { return cc.circuit.error.med; }

private:
    Config config_;
};

}  // namespace axf::core
