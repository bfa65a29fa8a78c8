#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <type_traits>

#include "src/circuit/simulator.hpp"
#include "src/gen/library.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::circuit {
namespace {

/// Truth-table fixture: builds a single-gate netlist and checks all input
/// combinations against the expected function.
struct GateCase {
    GateKind kind;
    int arity;
    // expected output for input bits (a, b, c) packed as bit0=a, bit1=b, bit2=c
    std::function<bool(bool, bool, bool)> fn;
};

class GateTruthTable : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateTruthTable, MatchesExpectedFunction) {
    const GateCase& gc = GetParam();
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    const NodeId c = net.addInput();
    net.markOutput(net.addGate(gc.kind, a, gc.arity >= 2 ? b : kInvalidNode,
                               gc.arity >= 3 ? c : kInvalidNode));
    Simulator sim(net);
    for (std::uint64_t in = 0; in < 8; ++in) {
        const bool av = in & 1, bv = in & 2, cv = in & 4;
        if (gc.arity < 2 && bv) continue;
        if (gc.arity < 3 && cv) continue;
        EXPECT_EQ(sim.evaluateScalar(in) & 1, gc.fn(av, bv, cv) ? 1u : 0u)
            << gateKindName(gc.kind) << " on input " << in;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGateKinds, GateTruthTable,
    ::testing::Values(
        GateCase{GateKind::Buf, 1, [](bool a, bool, bool) { return a; }},
        GateCase{GateKind::Not, 1, [](bool a, bool, bool) { return !a; }},
        GateCase{GateKind::And, 2, [](bool a, bool b, bool) { return a && b; }},
        GateCase{GateKind::Or, 2, [](bool a, bool b, bool) { return a || b; }},
        GateCase{GateKind::Xor, 2, [](bool a, bool b, bool) { return a != b; }},
        GateCase{GateKind::Nand, 2, [](bool a, bool b, bool) { return !(a && b); }},
        GateCase{GateKind::Nor, 2, [](bool a, bool b, bool) { return !(a || b); }},
        GateCase{GateKind::Xnor, 2, [](bool a, bool b, bool) { return a == b; }},
        GateCase{GateKind::AndNot, 2, [](bool a, bool b, bool) { return a && !b; }},
        GateCase{GateKind::OrNot, 2, [](bool a, bool b, bool) { return a || !b; }},
        GateCase{GateKind::Mux, 3, [](bool a, bool b, bool c) { return c ? b : a; }},
        GateCase{GateKind::Maj, 3,
                 [](bool a, bool b, bool c) { return (a && b) || (a && c) || (b && c); }}),
    [](const ::testing::TestParamInfo<GateCase>& info) {
        return gateKindName(info.param.kind);
    });

TEST(Simulator, Constants) {
    Netlist net;
    net.addInput();
    net.markOutput(net.addConst(false));
    net.markOutput(net.addConst(true));
    Simulator sim(net);
    EXPECT_EQ(sim.evaluateScalar(0), 0b10u);
}

TEST(Simulator, LanesAreIndependent) {
    // One AND gate; drive each lane with a different combination.
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    net.markOutput(net.addGate(GateKind::And, a, b));
    Simulator sim(net);
    const Simulator::Word wa = 0b0101;
    const Simulator::Word wb = 0b0011;
    std::vector<Simulator::Word> in = {wa, wb}, out(1);
    sim.evaluate(in, out);
    EXPECT_EQ(out[0] & 0xF, 0b0001u);
}

TEST(Simulator, ShapeChecks) {
    Netlist net;
    net.addInput();
    net.markOutput(0);
    Simulator sim(net);
    std::vector<Simulator::Word> bad(2), out(1);
    EXPECT_THROW(sim.evaluate(bad, out), std::invalid_argument);
    std::vector<Simulator::Word> in(1), badOut(2);
    EXPECT_THROW(sim.evaluate(in, badOut), std::invalid_argument);
}

TEST(Simulator, NodeValuesExposed) {
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId g = net.addGate(GateKind::Not, a);
    net.markOutput(g);
    Simulator sim(net);
    std::vector<Simulator::Word> in = {0xFF}, out(1);
    sim.evaluate(in, out);
    EXPECT_EQ(sim.nodeValues()[a], 0xFFull);
    EXPECT_EQ(sim.nodeValues()[g], ~0xFFull);
}

// Both keep a reference to their netlist, so a temporary must not bind.
static_assert(std::is_constructible_v<Simulator, const Netlist&>);
static_assert(!std::is_constructible_v<Simulator, Netlist>);
static_assert(!std::is_constructible_v<Simulator, const Netlist>);
static_assert(std::is_constructible_v<ActivityCounter, const Netlist&>);
static_assert(!std::is_constructible_v<ActivityCounter, Netlist>);
static_assert(!std::is_constructible_v<ActivityCounter, const Netlist>);

TEST(ActivityCounter, ConstantNodesNeverToggle) {
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId c = net.addConst(true);
    net.markOutput(net.addGate(GateKind::And, a, c));
    ActivityCounter counter(net);
    util::Rng rng(9);
    std::vector<Simulator::Word> block(1);
    for (int i = 0; i < 16; ++i) {
        block[0] = rng.uniformInt(0, ~std::uint64_t{0});
        counter.accumulate(block);
    }
    const std::vector<double> rates = counter.toggleRates();
    EXPECT_DOUBLE_EQ(rates[c], 0.0);
    EXPECT_NEAR(rates[a], 0.5, 0.08);  // random input toggles ~half the time
    EXPECT_EQ(counter.blocksSeen(), 16u);
}

TEST(ActivityCounter, NeedsTwoBlocks) {
    Netlist net;
    net.addInput();
    net.markOutput(0);
    ActivityCounter counter(net);
    EXPECT_EQ(counter.toggleRates()[0], 0.0);
}

/// Random DAG over the full gate alphabet, constants included; every node
/// that no output reads is dead logic.
Netlist randomNetlist(int inputs, int gates, int outputs, util::Rng& rng) {
    static constexpr GateKind kAllKinds[] = {
        GateKind::Const0, GateKind::Const1, GateKind::Buf,    GateKind::Not,
        GateKind::And,    GateKind::Or,     GateKind::Xor,    GateKind::Nand,
        GateKind::Nor,    GateKind::Xnor,   GateKind::AndNot, GateKind::OrNot,
        GateKind::Mux,    GateKind::Maj};
    Netlist net("random");
    for (int i = 0; i < inputs; ++i) net.addInput();
    for (int g = 0; g < gates; ++g) {
        const GateKind kind = kAllKinds[rng.index(std::size(kAllKinds))];
        const auto pick = [&] { return static_cast<NodeId>(rng.index(net.nodeCount())); };
        if (kind == GateKind::Const0 || kind == GateKind::Const1)
            net.addConst(kind == GateKind::Const1);
        else
            net.addGate(kind, pick(), pick(), pick());
    }
    for (int o = 0; o < outputs; ++o)
        net.markOutput(static_cast<NodeId>(rng.index(net.nodeCount())));
    return net;
}

TEST(EstimateToggleRates, MatchesSerialActivityCounter) {
    // The chunk-parallel estimator must equal an ActivityCounter fed the
    // same addressable per-block stimuli, bit for bit.
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    net.markOutput(net.addGate(GateKind::Xor, a, b));
    net.markOutput(net.addGate(GateKind::And, a, b));

    constexpr std::uint64_t kSeed = 0xAC71;
    constexpr int kBlocks = 24;
    ActivityCounter counter(net);
    std::vector<Simulator::Word> block(net.inputCount());
    for (int i = 0; i < kBlocks; ++i) {
        fillActivityBlock(kSeed, static_cast<std::uint64_t>(i), block);
        counter.accumulate(block);
    }
    const std::vector<double> serial = counter.toggleRates();
    const std::vector<double> estimated = estimateToggleRates(net, kSeed, kBlocks);
    ASSERT_EQ(serial.size(), estimated.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], estimated[i]) << "node " << i;
}

TEST(EstimateToggleRates, MatchesActivityCounterAcrossRuns) {
    // The estimator (compiled program, 16 blocks per run) must equal an
    // ActivityCounter (reference interpreter) fed the same addressable
    // per-block stimuli, bit for bit, on a random DAG with constants and
    // dead nodes, at block counts inside one run, on a run boundary and
    // across several runs.
    util::Rng rng(0xAC71);
    const Netlist net = randomNetlist(6, 60, 4, rng);
    constexpr std::uint64_t kSeed = 0xAC71;
    for (const int blocks : {2, 15, 16, 17, 24, 31, 46, 47}) {
        ActivityCounter counter(net);
        std::vector<Simulator::Word> block(net.inputCount());
        for (int i = 0; i < blocks; ++i) {
            fillActivityBlock(kSeed, static_cast<std::uint64_t>(i), block);
            counter.accumulate(block);
        }
        const std::vector<double> serial = counter.toggleRates();
        const std::vector<double> estimated = estimateToggleRates(net, kSeed, blocks);
        ASSERT_EQ(serial.size(), estimated.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(serial[i], estimated[i]) << "node " << i << " blocks " << blocks;
    }
}

TEST(EstimateToggleRates, ThreadCountInvariant) {
    const Netlist net = [] {
        Netlist n;
        const NodeId a = n.addInput();
        const NodeId b = n.addInput();
        const NodeId c = n.addInput();
        n.markOutput(n.addGate(GateKind::Maj, a, b, c));
        n.markOutput(n.addGate(GateKind::Xor, a, c));
        return n;
    }();
    // 41 blocks -> 40 transitions -> 5 chunks: enough to exercise the
    // cross-chunk predecessor re-evaluation on both pools.
    util::ThreadPool serial(1);
    util::ThreadPool parallel(4);
    const std::vector<double> one = estimateToggleRates(net, 0x7AB, 41, &serial);
    const std::vector<double> many = estimateToggleRates(net, 0x7AB, 41, &parallel);
    ASSERT_EQ(one.size(), many.size());
    for (std::size_t i = 0; i < one.size(); ++i) EXPECT_EQ(one[i], many[i]) << "node " << i;
}

TEST(EstimateToggleRates, MatchesGoldenDigest) {
    // Pins the rates themselves (FNV-1a over every double's bits) at the
    // FPGA flow's activity seed: the 8/16-bit adder and multiplier
    // structural families plus random DAGs with constants and dead nodes.
    // The block counts straddle chunk boundaries of 8 and of 15/16
    // transitions, so any regrouping of the sweep shows up here.
    std::vector<Netlist> corpus;
    for (const ArithOp op : {ArithOp::Adder, ArithOp::Multiplier}) {
        for (const int width : {8, 16}) {
            gen::LibraryConfig config;
            config.op = op;
            config.width = width;
            config.errorConfig = {/*exhaustiveLimit=*/0, /*sampleCount=*/64};
            for (gen::LibraryCircuit& c : gen::buildStructuralFamilies(config))
                corpus.push_back(std::move(c.netlist));
        }
    }
    util::Rng rng(0x7066);
    for (int k = 0; k < 30; ++k)
        corpus.push_back(randomNetlist(2 + static_cast<int>(rng.index(9)),
                                       10 + static_cast<int>(rng.index(70)),
                                       1 + static_cast<int>(rng.index(6)), rng));
    ASSERT_GT(corpus.size(), 100u);

    const std::uint64_t seed = synth::FpgaFlow::Options{}.activitySeed;
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) h = (h ^ ((v >> (8 * byte)) & 0xFF)) * 1099511628211ull;
    };
    for (const Netlist& net : corpus) {
        for (const int blocks : {2, 9, 16, 17, 24, 25, 31, 32, 41}) {
            const std::vector<double> rates = estimateToggleRates(net, seed, blocks);
            mix(rates.size());
            for (const double r : rates) mix(std::bit_cast<std::uint64_t>(r));
        }
    }
    EXPECT_EQ(h, 0xC9EB9CFB28A9917Cull) << std::hex << "digest 0x" << h << " over " << std::dec
                         << corpus.size() << " netlists";
}

TEST(EstimateToggleRates, FewerThanTwoBlocksIsAllZero) {
    Netlist net;
    net.addInput();
    net.markOutput(0);
    for (int blocks : {0, 1})
        for (double r : estimateToggleRates(net, 1, blocks)) EXPECT_EQ(r, 0.0);
}

}  // namespace
}  // namespace axf::circuit
