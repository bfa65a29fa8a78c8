#include <gtest/gtest.h>

#include "src/circuit/simulator.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/cgp.hpp"
#include "src/gen/multipliers.hpp"
#include "src/util/rng.hpp"

namespace axf::gen {
namespace {

using circuit::Netlist;
using circuit::Simulator;

TEST(CgpGenome, RandomGenomeDecodesToValidNetlist) {
    util::Rng rng(1);
    CgpParams params;
    params.inputs = 6;
    params.outputs = 4;
    params.cells = 40;
    const CgpGenome genome(params, rng);
    const Netlist net = genome.decode();
    net.validate();
    EXPECT_EQ(net.inputCount(), 6u);
    EXPECT_EQ(net.outputCount(), 4u);
    EXPECT_LE(static_cast<int>(net.gateCount()), params.cells);
    EXPECT_EQ(genome.activeCells(), static_cast<int>(net.gateCount()));
}

TEST(CgpGenome, RejectsEmptyGeometry) {
    util::Rng rng(1);
    CgpParams params;  // all zero
    EXPECT_THROW(CgpGenome(params, rng), std::invalid_argument);
}

TEST(CgpGenome, SeedRoundTripPreservesFunction) {
    util::Rng rng(2);
    const Netlist seed = rippleCarryAdder(4);
    const CgpGenome genome = CgpGenome::seedFromNetlist(seed, 10, rng);
    const Netlist decoded = genome.decode();
    ASSERT_EQ(decoded.inputCount(), seed.inputCount());
    ASSERT_EQ(decoded.outputCount(), seed.outputCount());
    Simulator ss(seed), sd(decoded);
    for (std::uint64_t v = 0; v < 256; ++v)
        EXPECT_EQ(ss.evaluateScalar(v), sd.evaluateScalar(v)) << "input " << v;
}

TEST(CgpGenome, SeedRoundTripWithMuxMajLowering) {
    // Carry-select adders contain Mux; the seed path must lower them.
    util::Rng rng(3);
    const Netlist seed = carrySelectAdder(4, 2);
    const CgpGenome genome = CgpGenome::seedFromNetlist(seed, 8, rng);
    const Netlist decoded = genome.decode();
    Simulator ss(seed), sd(decoded);
    for (std::uint64_t v = 0; v < 256; ++v) EXPECT_EQ(ss.evaluateScalar(v), sd.evaluateScalar(v));
}

TEST(CgpGenome, MutationKeepsGenomeDecodable) {
    util::Rng rng(4);
    CgpGenome genome = CgpGenome::seedFromNetlist(wallaceMultiplier(4), 16, rng);
    for (int step = 0; step < 200; ++step) {
        genome.mutate(3, rng);
        const Netlist net = genome.decode();
        net.validate();
        EXPECT_EQ(net.inputCount(), 8u);
        EXPECT_EQ(net.outputCount(), 8u);
    }
}

TEST(CgpGenome, DeterministicWithSeed) {
    const auto build = [] {
        util::Rng rng(7);
        CgpGenome genome = CgpGenome::seedFromNetlist(rippleCarryAdder(4), 12, rng);
        genome.mutate(20, rng);
        return genome.decode().structuralHash();
    };
    EXPECT_EQ(build(), build());
}

TEST(CgpEvolver, HarvestsWithinBudgetAndImproves) {
    CgpEvolver::Options options;
    options.medBudget = 0.01;
    options.generations = 60;
    options.seed = 11;
    CgpEvolver evolver(multiplierSignature(4), options);
    const std::vector<CgpHarvest> harvest = evolver.run(wallaceMultiplier(4));
    ASSERT_GE(harvest.size(), 2u);  // the seed plus at least one improvement
    for (const CgpHarvest& h : harvest) {
        EXPECT_EQ(h.netlist.inputCount(), 8u);
        EXPECT_EQ(h.netlist.outputCount(), 8u);
    }
    // Evolution minimizes size: the last harvest is no bigger than the seed.
    EXPECT_LE(harvest.back().netlist.gateCount(), harvest.front().netlist.gateCount());
    // Harvested circuits are structurally distinct.
    std::set<std::uint64_t> hashes;
    for (const CgpHarvest& h : harvest) hashes.insert(h.netlist.structuralHash());
    EXPECT_EQ(hashes.size(), harvest.size());
}

TEST(CgpEvolver, ZeroBudgetKeepsExactness) {
    CgpEvolver::Options options;
    options.medBudget = 0.0;
    options.generations = 40;
    options.seed = 12;
    // Fitness on the exhaustive space so "exact" really means exact.
    options.fitnessConfig.exhaustiveLimit = 1u << 16;
    CgpEvolver evolver(adderSignature(4), options);
    // Harvests carry no report; analyze each one over its whole space.
    const error::ErrorAnalyzer exhaustive(adderSignature(4), {/*exhaustiveLimit=*/1u << 16});
    for (const CgpHarvest& h : evolver.run(rippleCarryAdder(4)))
        EXPECT_TRUE(exhaustive.analyze(h.netlist).isExact()) << h.netlist.gateCount();
}

TEST(CgpEvolver, DeterministicRuns) {
    CgpEvolver::Options options;
    options.medBudget = 0.02;
    options.generations = 30;
    options.seed = 13;
    CgpEvolver evolver(multiplierSignature(4), options);
    const auto a = evolver.run(arrayMultiplier(4));
    const auto b = evolver.run(arrayMultiplier(4));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].netlist.structuralHash(), b[i].netlist.structuralHash());
}

TEST(CgpParams, DefaultFunctionSetTwoInputOnly) {
    for (circuit::GateKind kind : CgpParams::defaultFunctionSet())
        EXPECT_LE(circuit::fanInCount(kind), 2);
}

}  // namespace
}  // namespace axf::gen
