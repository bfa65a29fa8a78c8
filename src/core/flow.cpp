#include "src/core/flow.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>

#include "src/core/fidelity.hpp"
#include "src/ml/tuning.hpp"
#include "src/obs/trace.hpp"
#include "src/synth/synth_time.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::core {

double FlowResult::meanCoverage() const {
    if (targets.empty()) return 0.0;
    double acc = 0.0;
    for (const TargetOutcome& t : targets) acc += t.coverageOfTrueFront;
    return acc / static_cast<double>(targets.size());
}

namespace {

constexpr std::size_t kParamCount = kAllFpgaParams.size();

/// FPGA-implements the listed circuits (distinct, not yet measured) on the
/// pool, then marks them measured and charges their Vivado-equivalent cost
/// to `secondsAccount` in list order, so the sum never depends on the
/// schedule.  A characterization-cache hit still charges the modeled
/// seconds: the cache accelerates the simulation infrastructure, not the
/// methodology.
void measureCircuits(std::vector<CharacterizedCircuit>& circuits,
                     const std::vector<std::size_t>& indices, const synth::FpgaFlow& flow,
                     cache::CharacterizationCache* cache, double& secondsAccount) {
    util::ThreadPool::global().parallelFor(indices.size(), [&](std::size_t k) {
        CharacterizedCircuit& cc = circuits[indices[k]];
        cc.fpga = cache::implementCached(cache, flow, cc.circuit.netlist);
    });
    for (std::size_t idx : indices) {
        circuits[idx].fpgaMeasured = true;
        secondsAccount += circuits[idx].fpga.synthSeconds;
    }
}

/// One (model, parameter) leaderboard cell: the validation fidelity and the
/// factory used later for full-library estimation — the best grid variant
/// with tuning enabled, otherwise the Table-I default.
struct LeaderboardCell {
    double fidelity = 0.0;
    std::string variant;
    std::function<ml::RegressorPtr()> make;
};

}  // namespace

FlowResult ApproxFpgasFlow::run(gen::AcLibrary library) const {
    // Every independent step below is a fixed-index parallelFor whose body
    // writes only its own slot; everything order-dependent (sums, flags,
    // unions) is replayed serially in the one-step-at-a-time order, so the
    // result is bit-identical at any pool size.
    obs::Span flowSpan("flow");
    util::ThreadPool& pool = util::ThreadPool::global();
    FlowResult result;
    {
        obs::Span span("flow.characterize");
        result.dataset =
            CircuitDataset::characterize(std::move(library), config_.asicFlow, config_.cache);
        // Exhaustive-exploration cost baseline (Fig. 3 comparison).
        for (const CharacterizedCircuit& cc : result.dataset.circuits())
            result.exhaustiveSynthSeconds += synth::vivadoEquivalentSeconds(cc.circuit.netlist);
    }
    std::vector<CharacterizedCircuit>& circuits = result.dataset.circuits();
    const std::size_t n = circuits.size();
    util::Rng rng(config_.seed);

    // --- step 1: synthesize the random training subset --------------------
    const std::size_t subsetSize =
        std::max<std::size_t>(8, static_cast<std::size_t>(config_.trainFraction *
                                                          static_cast<double>(n)));
    const std::vector<std::size_t> subset = rng.sampleIndices(n, std::min(subsetSize, n));
    {
        obs::Span span("flow.train_synth");
        measureCircuits(circuits, subset, config_.fpgaFlow, config_.cache,
                        result.flowSynthSeconds);
    }

    // --- step 2: train/validation split -----------------------------------
    const std::size_t valCount = std::max<std::size_t>(
        2, static_cast<std::size_t>(config_.validationShare *
                                    static_cast<double>(subset.size())));
    std::vector<std::size_t> validation(subset.begin(),
                                        subset.begin() + static_cast<std::ptrdiff_t>(
                                                             std::min(valCount, subset.size())));
    std::vector<std::size_t> training(subset.begin() + static_cast<std::ptrdiff_t>(
                                                           std::min(valCount, subset.size())),
                                      subset.end());
    if (training.empty()) training = validation;

    // --- step 3: fidelity leaderboard over the Table-I zoo ----------------
    std::vector<ml::ModelSpec> specs = ml::tableOneModels(CircuitDataset::asicColumns());
    if (!config_.modelIds.empty()) {
        std::vector<ml::ModelSpec> filtered;
        for (const ml::ModelSpec& spec : specs)
            if (std::find(config_.modelIds.begin(), config_.modelIds.end(), spec.id) !=
                config_.modelIds.end())
                filtered.push_back(spec);
        specs = std::move(filtered);
    }

    // cells[s * kParamCount + p] scores specs[s] on kAllFpgaParams[p].
    std::vector<LeaderboardCell> cells(specs.size() * kParamCount);
    {
        obs::Span span("flow.leaderboard");
        const ml::Matrix xTrain = result.dataset.featureMatrix(training);
        const ml::Matrix xVal = result.dataset.featureMatrix(validation);
        std::array<ml::Vector, kParamCount> yTrain, yVal;
        for (std::size_t p = 0; p < kParamCount; ++p) {
            yTrain[p] = result.dataset.measuredTargets(training, kAllFpgaParams[p]);
            yVal[p] = result.dataset.measuredTargets(validation, kAllFpgaParams[p]);
        }
        const ml::AsicColumns asicColumns = CircuitDataset::asicColumns();
        const auto fidelityScore = [](const ml::Vector& measured, const ml::Vector& estimated) {
            return fidelity(measured, estimated);
        };
        pool.parallelFor(cells.size(), [&](std::size_t c) {
            const ml::ModelSpec& spec = specs[c / kParamCount];
            const std::size_t p = c % kParamCount;
            LeaderboardCell& cell = cells[c];
            if (config_.tuneHyperparameters) {
                ml::TunedModel tuned = ml::tuneModel(spec.id, asicColumns, xTrain, yTrain[p], xVal,
                                                     yVal[p], fidelityScore);
                cell = {tuned.validationScore, std::move(tuned.variantDescription),
                        std::move(tuned.make)};
            } else {
                ml::RegressorPtr model = spec.make();
                model->fit(xTrain, yTrain[p]);
                cell = {fidelity(yVal[p], model->predictAll(xVal)), "default", spec.make};
            }
        });
        for (std::size_t s = 0; s < specs.size(); ++s) {
            ModelScore score;
            score.id = specs[s].id;
            score.name = specs[s].name;
            for (std::size_t p = 0; p < kParamCount; ++p) {
                score.fidelityByParam[kAllFpgaParams[p]] = cells[s * kParamCount + p].fidelity;
                score.variantByParam[kAllFpgaParams[p]] = cells[s * kParamCount + p].variant;
            }
            result.leaderboard.push_back(std::move(score));
        }
    }

    // --- step 4..5: per-parameter estimation and pseudo-fronts -------------
    // A refit needs only the leaderboard and the step-1 subset, so the top-k
    // (model, parameter) refits of all targets run together.
    {
        obs::Span span("flow.estimate");
        struct Refit {
            std::size_t target;
            std::size_t cell;
        };
        std::vector<Refit> refits;
        for (std::size_t p = 0; p < kParamCount; ++p) {
            TargetOutcome outcome;
            outcome.param = kAllFpgaParams[p];

            // Top-k models by validation fidelity for this parameter.
            std::vector<std::size_t> ranked(result.leaderboard.size());
            std::iota(ranked.begin(), ranked.end(), std::size_t{0});
            std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
                return cells[a * kParamCount + p].fidelity > cells[b * kParamCount + p].fidelity;
            });
            const std::size_t k = std::min<std::size_t>(
                static_cast<std::size_t>(std::max(config_.topModels, 0)), ranked.size());
            for (std::size_t m = 0; m < k; ++m) {
                outcome.selectedModels.push_back(result.leaderboard[ranked[m]].id);
                refits.push_back({p, ranked[m] * kParamCount + p});
            }
            result.targets.push_back(std::move(outcome));
        }

        std::vector<std::size_t> allIndices(n);
        std::iota(allIndices.begin(), allIndices.end(), std::size_t{0});
        const ml::Matrix xAll = result.dataset.featureMatrix(allIndices);
        const ml::Matrix xSubset = result.dataset.featureMatrix(subset);
        std::array<ml::Vector, kParamCount> ySubset;
        for (std::size_t p = 0; p < kParamCount; ++p)
            ySubset[p] = result.dataset.measuredTargets(subset, kAllFpgaParams[p]);

        // Re-train on the full synthesized subset, estimate everything and
        // peel successive pseudo-Pareto fronts in (MED, estimate).
        std::vector<std::vector<std::size_t>> peeled(refits.size());
        pool.parallelFor(refits.size(), [&](std::size_t r) {
            ml::RegressorPtr model = cells[refits[r].cell].make();
            model->fit(xSubset, ySubset[refits[r].target]);
            const ml::Vector estimates = model->predictAll(xAll);
            std::vector<ParetoPoint> points(n);
            for (std::size_t i = 0; i < n; ++i)
                points[i] = ParetoPoint{qualityOf(circuits[i]), estimates[i], i};
            for (const std::vector<std::size_t>& front :
                 successiveParetoFronts(points, config_.paretoFronts))
                for (std::size_t pos : front) peeled[r].push_back(points[pos].index);
        });
        for (std::size_t r = 0; r < refits.size(); ++r) {
            std::vector<std::size_t>& pseudo = result.targets[refits[r].target].pseudoParetoIndices;
            pseudo.insert(pseudo.end(), peeled[r].begin(), peeled[r].end());
        }
        for (TargetOutcome& outcome : result.targets) {
            std::vector<std::size_t>& pseudo = outcome.pseudoParetoIndices;
            std::sort(pseudo.begin(), pseudo.end());
            pseudo.erase(std::unique(pseudo.begin(), pseudo.end()), pseudo.end());
        }
    }

    // --- step 6: re-synthesize the pseudo-Pareto circuits ------------------
    // One parallel pass over the union of all targets; a circuit belongs
    // to (and is charged by) the first target, in sorted index order, that
    // lists it unmeasured.
    {
        obs::Span span("flow.resynth");
        std::vector<std::size_t> pending;
        std::vector<bool> claimed(n, false);
        for (TargetOutcome& outcome : result.targets)
            for (std::size_t idx : outcome.pseudoParetoIndices)
                if (!circuits[idx].fpgaMeasured && !claimed[idx]) {
                    claimed[idx] = true;
                    pending.push_back(idx);
                    outcome.resynthesized.push_back(idx);
                }
        measureCircuits(circuits, pending, config_.fpgaFlow, config_.cache,
                        result.flowSynthSeconds);
    }

    // --- step 7: final Pareto fronts over measured circuits ---------------
    {
        obs::Span span("flow.final_fronts");
        result.circuitsSynthesized = 0;
        for (const CharacterizedCircuit& cc : circuits)
            if (cc.fpgaMeasured) ++result.circuitsSynthesized;

        for (TargetOutcome& outcome : result.targets) {
            std::vector<ParetoPoint> measured;
            for (std::size_t i = 0; i < n; ++i) {
                if (!circuits[i].fpgaMeasured) continue;
                measured.push_back(ParetoPoint{qualityOf(circuits[i]),
                                               fpgaParamOf(circuits[i].fpga, outcome.param), i});
            }
            for (std::size_t pos : paretoFront(measured))
                outcome.finalParetoIndices.push_back(measured[pos].index);
            std::sort(outcome.finalParetoIndices.begin(), outcome.finalParetoIndices.end());
        }
    }

    // --- evaluation only: coverage against the exhaustive ground truth ----
    if (config_.evaluateCoverage) {
        obs::Span span("flow.coverage");
        // Ground-truth measurements (not charged to the flow's time).
        std::vector<synth::FpgaReport> truth(n);
        pool.parallelFor(n, [&](std::size_t i) {
            truth[i] = circuits[i].fpgaMeasured
                           ? circuits[i].fpga
                           : cache::implementCached(config_.cache, config_.fpgaFlow,
                                                    circuits[i].circuit.netlist);
        });
        for (TargetOutcome& outcome : result.targets) {
            std::vector<ParetoPoint> all(n);
            for (std::size_t i = 0; i < n; ++i)
                all[i] = ParetoPoint{qualityOf(circuits[i]), fpgaParamOf(truth[i], outcome.param), i};
            std::vector<ParetoPoint> trueFront;
            for (std::size_t pos : paretoFront(all)) trueFront.push_back(all[pos]);
            std::vector<ParetoPoint> found;
            for (std::size_t idx : outcome.finalParetoIndices)
                found.push_back(ParetoPoint{0.0, 0.0, idx});
            outcome.coverageOfTrueFront = paretoCoverage(found, trueFront);
        }
    }
    return result;
}

}  // namespace axf::core
