#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include <span>

#include "src/circuit/arith.hpp"
#include "src/circuit/netlist.hpp"
#include "src/error/error_metrics.hpp"
#include "src/fault/fault.hpp"
#include "src/search/objectives.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"

namespace axf::gen {

/// Cartesian Genetic Programming over the two-input gate alphabet — the
/// same representation EvoApproxLib was evolved with (single-row CGP,
/// unrestricted levels-back).  Used here to grow the heterogeneous library
/// of approximate adders/multipliers the ApproxFPGAs study explores.
struct CgpParams {
    int inputs = 0;
    int outputs = 0;
    int cells = 0;  ///< single-row grid length (function nodes)
    std::vector<circuit::GateKind> functions = defaultFunctionSet();

    static std::vector<circuit::GateKind> defaultFunctionSet();
};

/// Linear CGP chromosome.  Cell i may reference primary inputs or any cell
/// j < i (full levels-back), so decoding is a single forward sweep.
class CgpGenome {
public:
    struct Gene {
        std::uint8_t function = 0;  ///< index into params.functions
        std::uint16_t a = 0;        ///< operand node index
        std::uint16_t b = 0;

        friend bool operator==(const Gene&, const Gene&) = default;
    };

    CgpGenome(CgpParams params, util::Rng& rng);  ///< random individual

    /// Embeds an existing netlist (two-input gates only) as the genome
    /// prefix; remaining cells are randomized.  Throws if the netlist does
    /// not fit (too many gates / wrong interface / 3-input gates).
    static CgpGenome seedFromNetlist(const circuit::Netlist& netlist, int extraCells,
                                     util::Rng& rng);

    /// Point-mutates `count` uniformly chosen genes (function, operand or
    /// output gene, like classic CGP goldman mutation).
    void mutate(int count, util::Rng& rng);

    /// Single-point crossover over the flattened (cell genes + output
    /// genes) chromosome: the child takes `a`'s genes before a uniformly
    /// chosen cut and `b`'s from it on.  Both parents must share the same
    /// geometry AND function set (throws std::invalid_argument otherwise
    /// — gene.function indices are only meaningful within one alphabet);
    /// operand ranges are position-dependent only, so any cut stays
    /// structurally valid.
    static CgpGenome crossover(const CgpGenome& a, const CgpGenome& b, util::Rng& rng);

    /// Genome identity: same geometry, function alphabet and chromosome
    /// (the search archives deduplicate on this).
    friend bool operator==(const CgpGenome& a, const CgpGenome& b) {
        return a.genes_ == b.genes_ && a.outputGenes_ == b.outputGenes_ &&
               a.params_.inputs == b.params_.inputs &&
               a.params_.outputs == b.params_.outputs &&
               a.params_.functions == b.params_.functions;
    }

    /// Checkpoint encoding of the chromosome alone — geometry and function
    /// alphabet come from the owning problem's `CgpParams`, not the file
    /// (every genome of one search shares them).
    void serialize(util::ByteWriter& out) const;

    /// Decodes a chromosome written by `serialize` for the given geometry;
    /// nullopt on truncation or any constraint violation (function index
    /// outside the alphabet, operand breaking the levels-back order,
    /// output gene outside the node space).
    static std::optional<CgpGenome> deserialize(util::ByteReader& in, const CgpParams& params);

    /// Decodes the active cone into a netlist (inactive cells skipped).
    circuit::Netlist decode() const;

    /// Number of active (output-reachable) cells.
    int activeCells() const;

    const CgpParams& params() const { return params_; }

private:
    /// Checkpoint-restore path: adopts a validated chromosome verbatim.
    CgpGenome(CgpParams params, std::vector<Gene> genes, std::vector<std::uint16_t> outputGenes)
        : params_(std::move(params)), genes_(std::move(genes)),
          outputGenes_(std::move(outputGenes)) {}

    CgpParams params_;
    std::vector<Gene> genes_;
    std::vector<std::uint16_t> outputGenes_;

    int nodeSpace() const { return params_.inputs + params_.cells; }
    std::uint16_t randomOperand(int cellIndex, util::Rng& rng) const;
    std::vector<bool> activeMask() const;
};

/// One harvested point of an evolutionary run.  Harvests carry no error
/// report: `buildLibrary` reports them in its own stage, through the
/// characterization cache.
struct CgpHarvest {
    circuit::Netlist netlist;       ///< decoded, simplified
    int generation = 0;
};

/// (1 + lambda) evolution strategy minimizing active-cell count subject to
/// a MED budget.  Every accepted, structurally novel individual is
/// harvested, which is how a single run yields a whole family of library
/// circuits (mirroring how EvoApproxLib snapshots its Pareto archive).
class CgpEvolver {
public:
    struct Options {
        double medBudget = 0.01;   ///< accept offspring with MED <= budget
        int lambda = 4;
        int generations = 300;
        int mutatedGenes = 4;
        std::uint64_t seed = 1;
        /// Fitness-evaluation policy: sampled and cheap (evolution runs
        /// thousands of evaluations; sampling noise only perturbs the walk).
        /// Its stimulus is drawn once, by the evolver's first analysis.
        error::ErrorAnalysisConfig fitnessConfig{/*exhaustiveLimit=*/1u << 12,
                                                 /*sampleCount=*/1u << 13,
                                                 /*seed=*/0xF17};
    };

    CgpEvolver(circuit::ArithSignature signature, Options options);

    /// Runs evolution from the seed netlist; returns all harvested circuits
    /// (deduplicated by structural hash) sorted by generation.
    std::vector<CgpHarvest> run(const circuit::Netlist& seedNetlist);

private:
    Options options_;
    error::ErrorAnalyzer fitness_;
};

/// The CGP offspring loop adapted to the `search::Problem` concept — the
/// proof that the island engine is workload-agnostic: the same
/// `search::IslandSearch` that drives the accelerator DSE explores the
/// (MED, active-cell) trade-off of approximate circuits.  Objectives are
/// `{med, activeCells}` (both minimized), so the archive IS the
/// error/size Pareto family a library build harvests.  An optional
/// stuck-at campaign (`setResilienceObjective`) appends mean
/// error-under-fault as a third objective, turning the archive into a
/// quality x size x resilience front.  All genomes share this problem's
/// geometry (`params`); fitness evaluation uses the sampled, cheap
/// error-analysis profile exactly like `CgpEvolver` (one analyzer, its
/// stimulus drawn once) and is const, RNG-free and thread-safe.
class CgpSearchProblem {
public:
    using Genome = CgpGenome;

    CgpSearchProblem(circuit::ArithSignature signature, CgpParams params,
                     error::ErrorAnalysisConfig fitnessConfig = {/*exhaustiveLimit=*/1u << 12,
                                                                /*sampleCount=*/1u << 13,
                                                                /*seed=*/0xF17},
                     int mutatedGenes = 4)
        : params_(std::move(params)), fitness_(signature, fitnessConfig),
          mutatedGenes_(mutatedGenes) {}

    std::size_t objectiveCount() const { return resilience_ ? 3 : 2; }

    /// Enables the resilience objective: every evaluation additionally
    /// runs a stuck-at campaign with this configuration and appends the
    /// circuit's `meanMedUnderFault`.  Keep the embedded analysis budget
    /// modest (campaign cost scales with fault-site count).
    void setResilienceObjective(fault::CampaignConfig campaign) {
        resilience_ = std::move(campaign);
    }

    CgpGenome random(util::Rng& rng) const { return CgpGenome(params_, rng); }

    CgpGenome mutate(const CgpGenome& genome, util::Rng& rng) const {
        CgpGenome child = genome;
        child.mutate(mutatedGenes_, rng);
        return child;
    }

    CgpGenome crossover(const CgpGenome& a, const CgpGenome& b, util::Rng& rng) const {
        return CgpGenome::crossover(a, b, rng);
    }

    void evaluate(std::span<const CgpGenome> batch, std::span<search::Objectives> out) const;

    /// Checkpoint hooks (`search::CheckpointableProblem`): the problem owns
    /// the shared geometry, so only the chromosome travels per genome.
    void serializeGenome(const CgpGenome& genome, util::ByteWriter& out) const {
        genome.serialize(out);
    }

    std::optional<CgpGenome> deserializeGenome(util::ByteReader& in) const {
        return CgpGenome::deserialize(in, params_);
    }

    const CgpParams& params() const { return params_; }

private:
    CgpParams params_;
    error::ErrorAnalyzer fitness_;
    int mutatedGenes_;
    std::optional<fault::CampaignConfig> resilience_;
};

}  // namespace axf::gen
