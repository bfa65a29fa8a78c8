#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/circuit/batch_sim.hpp"
#include "src/circuit/simulator.hpp"
#include "src/circuit/transform.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/cgp.hpp"
#include "src/gen/library.hpp"
#include "src/gen/multipliers.hpp"
#include "src/util/rng.hpp"

namespace axf::circuit {
namespace {

/// Random DAG over the full gate alphabet: every kind is drawn with equal
/// probability, operands reference any earlier node (netlist invariant).
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
        const auto pickNode = [&] {
            return static_cast<NodeId>(rng.index(net.nodeCount()));
        };
        if (kind == GateKind::Const0 || kind == GateKind::Const1) {
            net.addConst(kind == GateKind::Const1);
        } else {
            net.addGate(kind, pickNode(), pickNode(), pickNode());
        }
    }
    for (int o = 0; o < outputs; ++o)
        net.markOutput(static_cast<NodeId>(rng.index(net.nodeCount())));
    return net;
}

/// Exhaustively cross-checks BatchSimulator (blockLanes()-lane blocks,
/// pruned compile) against the reference interpreter's
/// Simulator::evaluateScalar over the full input space of the netlist.
void crossCheckExhaustive(const Netlist& net) {
    const int totalBits = static_cast<int>(net.inputCount());
    ASSERT_LE(totalBits, 12);
    const std::uint64_t space = std::uint64_t{1} << totalBits;

    Simulator scalar(net);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    BatchSimulator batch(compiled);
    EXPECT_LE(compiled.slotCount(), net.nodeCount());

    const std::size_t W = batch.blockWords();
    std::vector<CompiledNetlist::Word> in(net.inputCount() * W);
    std::vector<CompiledNetlist::Word> out(net.outputCount() * W);
    for (std::uint64_t base = 0; base < space; base += batch.blockLanes()) {
        fillExhaustiveBlock(in, totalBits, base);
        batch.evaluate(in, out);
        const std::uint64_t lanes =
            std::min<std::uint64_t>(batch.blockLanes(), space - base);
        for (std::uint64_t lane = 0; lane < lanes; ++lane) {
            std::uint64_t batchResult = 0;
            for (std::size_t o = 0; o < net.outputCount(); ++o)
                if ((out[o * W + lane / 64] >> (lane % 64)) & 1u)
                    batchResult |= std::uint64_t{1} << o;
            ASSERT_EQ(batchResult, scalar.evaluateScalar(base + lane))
                << "vector " << base + lane;
        }
    }
}

TEST(BatchSimulator, MatchesScalarOnRandomNetlists) {
    util::Rng rng(0xBA7C);
    for (int trial = 0; trial < 20; ++trial) {
        const int inputs = 4 + static_cast<int>(rng.index(7));   // 4..10
        const int gates = 20 + static_cast<int>(rng.index(60));  // plenty of dead logic
        const int outputs = 1 + static_cast<int>(rng.index(8));
        crossCheckExhaustive(randomNetlist(inputs, gates, outputs, rng));
    }
}

TEST(BatchSimulator, EveryGateKindExercised) {
    // One tiny netlist per kind, checked over its full input space, so a
    // wrong lowering of any single gate cannot hide inside a random DAG.
    for (const GateKind kind :
         {GateKind::Buf, GateKind::Not, GateKind::And, GateKind::Or, GateKind::Xor,
          GateKind::Nand, GateKind::Nor, GateKind::Xnor, GateKind::AndNot, GateKind::OrNot,
          GateKind::Mux, GateKind::Maj}) {
        Netlist net(gateKindName(kind));
        const NodeId a = net.addInput();
        const NodeId b = net.addInput();
        const NodeId c = net.addInput();
        net.markOutput(net.addGate(kind, a, fanInCount(kind) >= 2 ? b : kInvalidNode,
                                   fanInCount(kind) >= 3 ? c : kInvalidNode));
        crossCheckExhaustive(net);
    }
}

TEST(BatchSimulator, ConstantsAndDeadInputs) {
    Netlist net("consts");
    net.addInput();  // dead input: interface must survive pruning
    const NodeId one = net.addConst(true);
    const NodeId zero = net.addConst(false);
    net.markOutput(one);
    net.markOutput(zero);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    EXPECT_EQ(compiled.inputCount(), 1u);
    EXPECT_EQ(compiled.instructionCount(), 0u);
    crossCheckExhaustive(net);
}

TEST(BatchSimulator, PruningDropsDeadCone) {
    Netlist net("dead");
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    const NodeId live = net.addGate(GateKind::And, a, b);
    net.addGate(GateKind::Xor, a, b);  // dead
    net.addGate(GateKind::Or, a, b);   // dead
    net.markOutput(live);
    const CompiledNetlist pruned = CompiledNetlist::compile(net);
    EXPECT_EQ(pruned.instructionCount(), 1u);
    const CompiledNetlist full = CompiledNetlist::compile(net, {.pruneDead = false});
    EXPECT_EQ(full.instructionCount(), 3u);
    EXPECT_TRUE(full.preservesAllNodes());
    crossCheckExhaustive(net);
}

TEST(BatchSimulator, RebindInstallsConstantsOfProgramAtSameAddress) {
    // A program compiled where a destroyed one lived has the same address
    // but its own constants: rebinding to it must install them (And(x, 1)
    // left its 1 in the slot where Or(x, 0) keeps its 0).
    const auto withConstant = [](GateKind kind, bool value) {
        Netlist net(gateKindName(kind));
        const NodeId x = net.addInput();
        net.markOutput(net.addGate(kind, x, net.addConst(value)));
        return net;
    };
    const Netlist andOne = withConstant(GateKind::And, true);
    const Netlist orZero = withConstant(GateKind::Or, false);
    std::optional<CompiledNetlist> program(CompiledNetlist::compile(andOne));
    BatchSimulator sim(*program);
    util::Rng rng(0x5EB1);
    const auto expectMatchesOracle = [&](const Netlist& net) {
        Simulator oracle(net);
        const std::size_t W = sim.blockWords();
        std::vector<CompiledNetlist::Word> in(W), out(W);
        for (CompiledNetlist::Word& w : in) w = rng.uniformInt(0, ~std::uint64_t{0});
        sim.evaluate(in, out);
        for (std::size_t w = 0; w < W; ++w) {
            CompiledNetlist::Word expected = 0;
            oracle.evaluate({&in[w], 1}, {&expected, 1});
            ASSERT_EQ(out[w], expected) << net.name() << " word " << w;
        }
    };
    sim.rebind(*program);
    expectMatchesOracle(andOne);
    const CompiledNetlist* const address = &*program;
    program.emplace(CompiledNetlist::compile(orZero));
    ASSERT_EQ(&*program, address);
    sim.rebind(*program);
    expectMatchesOracle(orZero);
}

TEST(BatchSimulator, ShapeChecks) {
    Netlist net("shape");
    net.addInput();
    net.markOutput(0);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    BatchSimulator sim(compiled);
    std::vector<CompiledNetlist::Word> bad(sim.blockWords() * 2);
    std::vector<CompiledNetlist::Word> out(sim.blockWords());
    EXPECT_THROW(sim.evaluate(bad, out), std::invalid_argument);
    std::vector<CompiledNetlist::Word> in(sim.blockWords());
    std::vector<CompiledNetlist::Word> badOut(sim.blockWords() * 3);
    EXPECT_THROW(sim.evaluate(in, badOut), std::invalid_argument);
}

TEST(FillExhaustiveBlock, MatchesScalarBitReference) {
    // Scalar reference: bit `bit` of lane L must equal bit `bit` of the
    // enumerated index (base + L), over every bit class (pattern bits
    // 0..5, word-index bits 6..9, base bits 10+) and several bases.
    constexpr std::size_t W = CompiledNetlist::kBlockWords;
    const auto check = [](int totalBits, std::uint64_t base) {
        std::vector<CompiledNetlist::Word> in(static_cast<std::size_t>(totalBits) * W);
        fillExhaustiveBlock(in, totalBits, base);
        for (std::uint64_t lane = 0; lane < W * 64; ++lane) {
            const std::uint64_t index = base + lane;
            for (int bit = 0; bit < totalBits; ++bit) {
                const std::uint64_t got =
                    (in[static_cast<std::size_t>(bit) * W + lane / 64] >> (lane % 64)) & 1u;
                ASSERT_EQ(got, (index >> bit) & 1u)
                    << "base=" << base << " lane=" << lane << " bit=" << bit;
            }
        }
    };
    for (const std::uint64_t base : {0ull, 1024ull, 64512ull}) {
        check(16, base);
        check(11, base);
    }
    check(7, 0);
    check(10, 0);
}

/// FNV-1a over everything a compiled program is made of: the slot count,
/// every instruction, the run partition, the slot tables, the hoisted
/// constants and the fusion counters.  Fault campaigns enumerate their
/// sites over these instructions, so the compiler must reproduce them
/// byte for byte, not merely compute the same function.
void digestProgram(std::uint64_t& h, const CompiledNetlist& compiled) {
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xFFu;
            h *= 0x100000001B3ull;
        }
    };
    mix(compiled.slotCount());
    mix(compiled.instructionCount());
    for (const kernels::Instr& ins : compiled.instructions()) {
        mix(static_cast<std::uint64_t>(ins.op));
        mix(ins.dst);
        mix(ins.a);
        mix(ins.b);
        mix(ins.c);
    }
    mix(compiled.runs().size());
    for (const CompiledNetlist::Run& run : compiled.runs()) {
        mix(static_cast<std::uint64_t>(run.op));
        mix(run.begin);
        mix(run.end);
    }
    for (const auto table : {compiled.inputSlots(), compiled.outputSlots()}) {
        mix(table.size());
        for (const std::uint32_t slot : table) mix(slot);
    }
    mix(compiled.slotNodes().size());
    for (const NodeId node : compiled.slotNodes()) mix(node);
    mix(compiled.constantSlots().size());
    for (const auto& [slot, value] : compiled.constantSlots()) {
        mix(slot);
        mix(value ? 1 : 0);
    }
    const CompiledNetlist::Stats stats = compiled.stats();
    mix(stats.fusedOps);
    mix(stats.gatesFused);
}

TEST(CompiledNetlist, ProgramsMatchGoldenDigest) {
    // Corpus: the structural library families (8/16-bit adders and
    // multipliers, post-simplify), the CGP seed architectures lowered to
    // two inputs, seeded CGP children, random CGP genomes and random
    // full-alphabet DAGs; each compiled at the default options, without
    // fusion and without pruning.  A compiler rewrite must leave the
    // digest unmodified: any change to instruction selection, slot
    // assignment or scheduling order shows up here.
    std::vector<Netlist> corpus;
    util::Rng rng(0xD16E57);
    for (const ArithOp op : {ArithOp::Adder, ArithOp::Multiplier}) {
        for (const int width : {8, 16}) {
            gen::LibraryConfig config;
            config.op = op;
            config.width = width;
            config.errorConfig = {/*exhaustiveLimit=*/0, /*sampleCount=*/64};
            for (gen::LibraryCircuit& c : gen::buildStructuralFamilies(config))
                corpus.push_back(std::move(c.netlist));
            const Netlist seeds[] = {
                op == ArithOp::Adder ? gen::rippleCarryAdder(width)
                                     : gen::wallaceMultiplier(width),
                op == ArithOp::Adder ? gen::carryLookaheadAdder(width)
                                     : gen::arrayMultiplier(width)};
            for (const Netlist& seed : seeds) {
                corpus.push_back(simplify(lowerToTwoInput(seed)));
                const gen::CgpGenome parent = gen::CgpGenome::seedFromNetlist(
                    seed, std::max(8, static_cast<int>(seed.gateCount()) / 5), rng);
                for (int k = 0; k < 50; ++k) {
                    gen::CgpGenome child = parent;
                    child.mutate(4, rng);
                    corpus.push_back(child.decode());
                }
                for (int k = 0; k < 10; ++k)
                    corpus.push_back(gen::CgpGenome(parent.params(), rng).decode());
            }
        }
    }
    for (int k = 0; k < 40; ++k)
        corpus.push_back(randomNetlist(4 + static_cast<int>(rng.index(7)),
                                       20 + static_cast<int>(rng.index(60)),
                                       1 + static_cast<int>(rng.index(8)), rng));
    ASSERT_GT(corpus.size(), 900u);

    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const Netlist& net : corpus) {
        digestProgram(h, CompiledNetlist::compile(net));
        digestProgram(h, CompiledNetlist::compile(net, {.fuseOps = false}));
        digestProgram(h, CompiledNetlist::compile(net, {.pruneDead = false}));
    }
    EXPECT_EQ(h, 0xC1E68D83C17993D8ull) << std::hex << "digest 0x" << h << " over " << std::dec
                         << corpus.size() << " netlists";
}

TEST(FillExhaustiveBlock, LaneCarriesItsIndex) {
    constexpr std::size_t W = CompiledNetlist::kBlockWords;
    const int totalBits = 12;
    std::vector<CompiledNetlist::Word> in(static_cast<std::size_t>(totalBits) * W);
    const std::uint64_t base = 2048;  // multiple of the 1024-lane block
    fillExhaustiveBlock(in, totalBits, base);
    for (std::uint64_t lane = 0; lane < W * 64; ++lane) {
        std::uint64_t value = 0;
        for (int bit = 0; bit < totalBits; ++bit)
            if ((in[static_cast<std::size_t>(bit) * W + lane / 64] >> (lane % 64)) & 1u)
                value |= std::uint64_t{1} << bit;
        ASSERT_EQ(value, base + lane);
    }
}

}  // namespace
}  // namespace axf::circuit
