#include <gtest/gtest.h>

#include <vector>

#include "src/circuit/simulator.hpp"
#include "src/circuit/transform.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/cgp.hpp"
#include "src/gen/multipliers.hpp"
#include "src/util/rng.hpp"

namespace axf::circuit {
namespace {

/// Property check: two netlists with identical interfaces compute the same
/// function on `blocks` random 64-lane blocks.
void expectEquivalent(const Netlist& a, const Netlist& b, std::uint64_t seed, int blocks = 8) {
    ASSERT_EQ(a.inputCount(), b.inputCount());
    ASSERT_EQ(a.outputCount(), b.outputCount());
    Simulator sa(a), sb(b);
    util::Rng rng(seed);
    std::vector<Simulator::Word> in(a.inputCount());
    std::vector<Simulator::Word> outA(a.outputCount()), outB(b.outputCount());
    for (int blk = 0; blk < blocks; ++blk) {
        for (auto& w : in) w = rng.uniformInt(0, ~std::uint64_t{0});
        sa.evaluate(in, outA);
        sb.evaluate(in, outB);
        for (std::size_t o = 0; o < outA.size(); ++o)
            ASSERT_EQ(outA[o], outB[o]) << "output " << o << " differs in block " << blk;
    }
}

TEST(Simplify, ConstantFolding) {
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId zero = net.addConst(false);
    const NodeId one = net.addConst(true);
    net.markOutput(net.addGate(GateKind::And, a, zero));  // -> 0
    net.markOutput(net.addGate(GateKind::And, a, one));   // -> a
    net.markOutput(net.addGate(GateKind::Xor, a, one));   // -> ~a
    net.markOutput(net.addGate(GateKind::Or, a, one));    // -> 1
    const Netlist simple = simplify(net);
    // One Not gate should be the only logic left.
    EXPECT_EQ(simple.gateCount(), 1u);
    expectEquivalent(net, simple, 0x51);
}

TEST(Simplify, IdentityFolding) {
    Netlist net;
    const NodeId a = net.addInput();
    net.markOutput(net.addGate(GateKind::Xor, a, a));   // -> 0
    net.markOutput(net.addGate(GateKind::And, a, a));   // -> a
    net.markOutput(net.addGate(GateKind::Xnor, a, a));  // -> 1
    const Netlist simple = simplify(net);
    EXPECT_EQ(simple.gateCount(), 0u);
    expectEquivalent(net, simple, 0x52);
}

TEST(Simplify, DoubleInversion) {
    Netlist net;
    const NodeId a = net.addInput();
    net.markOutput(net.addGate(GateKind::Not, net.addGate(GateKind::Not, a)));
    const Netlist simple = simplify(net);
    EXPECT_EQ(simple.gateCount(), 0u);
    expectEquivalent(net, simple, 0x53);
}

TEST(Simplify, CommonSubexpressionElimination) {
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    net.markOutput(net.addGate(GateKind::And, a, b));
    net.markOutput(net.addGate(GateKind::And, b, a));  // commutative duplicate
    const Netlist simple = simplify(net);
    EXPECT_EQ(simple.gateCount(), 1u);
    expectEquivalent(net, simple, 0x54);
}

TEST(Simplify, MuxRules) {
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    const NodeId s = net.addInput();
    const NodeId zero = net.addConst(false);
    const NodeId one = net.addConst(true);
    net.markOutput(net.addGate(GateKind::Mux, a, b, zero));  // -> a
    net.markOutput(net.addGate(GateKind::Mux, a, b, one));   // -> b
    net.markOutput(net.addGate(GateKind::Mux, zero, one, s));  // -> s
    net.markOutput(net.addGate(GateKind::Mux, one, zero, s));  // -> ~s
    const Netlist simple = simplify(net);
    EXPECT_LE(simple.gateCount(), 1u);
    expectEquivalent(net, simple, 0x55);
}

TEST(Simplify, MajRules) {
    Netlist net;
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    const NodeId zero = net.addConst(false);
    const NodeId one = net.addConst(true);
    net.markOutput(net.addGate(GateKind::Maj, a, b, zero));  // -> and
    net.markOutput(net.addGate(GateKind::Maj, a, b, one));   // -> or
    net.markOutput(net.addGate(GateKind::Maj, a, a, b));     // -> a
    const Netlist simple = simplify(net);
    EXPECT_EQ(simple.gateCount(), 2u);
    expectEquivalent(net, simple, 0x56);
}

class SimplifyEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SimplifyEquivalence, PreservesArithmeticFunctions) {
    // Property sweep over real generator outputs.
    const int n = GetParam();
    for (const Netlist& net :
         {gen::rippleCarryAdder(n), gen::koggeStoneAdder(n), gen::carrySelectAdder(n, 2),
          gen::loaAdder(n, n / 2), gen::acaAdder(n, 2)}) {
        const Netlist simple = simplify(net);
        expectEquivalent(net, simple, 0x60 + static_cast<std::uint64_t>(n));
        EXPECT_LE(simple.gateCount(), net.gateCount());
        simple.validate();
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, SimplifyEquivalence, ::testing::Values(2, 3, 4, 6, 8, 12));

TEST(LowerToTwoInput, RemovesWideGatesPreservingFunction) {
    for (const Netlist& net : {gen::carrySelectAdder(6, 2), gen::wallaceMultiplier(4),
                               gen::arrayMultiplier(4)}) {
        const Netlist lowered = lowerToTwoInput(net);
        for (const Node& node : lowered.nodes())
            EXPECT_LE(fanInCount(node.kind), 2) << gateKindName(node.kind);
        expectEquivalent(net, lowered, 0x70);
        lowered.validate();
    }
}

TEST(Simplify, Idempotent) {
    const Netlist net = gen::wallaceMultiplier(4);
    const Netlist once = simplify(net);
    const Netlist twice = simplify(once);
    EXPECT_EQ(once.structuralHash(), twice.structuralHash());
}

/// Every raw candidate of the library's structural family sweeps at
/// width `n` (the parameter grids of `gen::buildLibrary`).
void appendStructuralCandidates(std::vector<Netlist>& out, int n) {
    out.push_back(gen::rippleCarryAdder(n));
    out.push_back(gen::carryLookaheadAdder(n));
    out.push_back(gen::carrySelectAdder(n, 2));
    out.push_back(gen::carrySelectAdder(n, 4));
    out.push_back(gen::koggeStoneAdder(n));
    for (int k = 1; k < n; ++k) {
        out.push_back(gen::loaAdder(n, k));
        out.push_back(gen::truncatedAdder(n, k));
        out.push_back(gen::etaAdder(n, k));
    }
    for (int w = 1; w < n; ++w) out.push_back(gen::acaAdder(n, w));
    for (int r = 1; r <= n / 2; ++r)
        for (int p = 0; p <= n / 2 && r + p <= n; p += 2) out.push_back(gen::gearAdder(n, r, p));
    for (int blk = 1; blk < n; ++blk) out.push_back(gen::etaIIAdder(n, blk));
    for (const gen::ApproxFaKind kind : {gen::ApproxFaKind::PassA, gen::ApproxFaKind::OrSum,
                                         gen::ApproxFaKind::XorNoCarry,
                                         gen::ApproxFaKind::CarrySkip})
        for (int k = 1; k < n; ++k) out.push_back(gen::approxCellAdder(n, k, kind));

    out.push_back(gen::arrayMultiplier(n));
    out.push_back(gen::wallaceMultiplier(n));
    for (int t = 1; t <= n; ++t) out.push_back(gen::truncatedMultiplier(n, t));
    for (int h = 0; h <= n; ++h)
        for (int v = 0; v <= n / 2; ++v)
            if (h + v > 0) out.push_back(gen::brokenArrayMultiplier(n, h, v));
    if ((n & (n - 1)) == 0) out.push_back(gen::kulkarniMultiplier(n));
    for (int c = 1; c <= n; ++c) out.push_back(gen::approxCompressorMultiplier(n, c));
    for (int k = 2; k < n; ++k) out.push_back(gen::drumMultiplier(n, k));
    if (n >= 3) out.push_back(gen::mitchellMultiplier(n));
}

/// Random DAG over the full gate alphabet that exercises every rewrite of
/// `simplify`: constants, Buf chains, Mux and Maj, and repeated
/// subexpressions (a gate re-emitted over the same or swapped operands).
Netlist randomRewriteNetlist(util::Rng& rng) {
    static constexpr GateKind kAllKinds[] = {
        GateKind::Const0, GateKind::Const1, GateKind::Buf,    GateKind::Not,
        GateKind::And,    GateKind::Or,     GateKind::Xor,    GateKind::Nand,
        GateKind::Nor,    GateKind::Xnor,   GateKind::AndNot, GateKind::OrNot,
        GateKind::Mux,    GateKind::Maj};
    Netlist net("rewrite" + std::to_string(rng.index(1000)));
    const int inputs = 2 + static_cast<int>(rng.index(9));
    for (int i = 0; i < inputs; ++i) net.addInput();
    const int steps = 20 + static_cast<int>(rng.index(120));
    const auto pick = [&] { return static_cast<NodeId>(rng.index(net.nodeCount())); };
    for (int s = 0; s < steps; ++s) {
        switch (rng.index(8)) {
            case 0: {  // Buf chain
                NodeId x = pick();
                for (int len = 1 + static_cast<int>(rng.index(4)); len > 0; --len)
                    x = net.addGate(GateKind::Buf, x);
                break;
            }
            case 1: {  // repeated subexpression, operands possibly swapped
                const Node n = net.node(pick());
                if (fanInCount(n.kind) == 0) break;
                if (fanInCount(n.kind) == 2 && rng.index(2) == 0)
                    net.addGate(n.kind, n.b, n.a);
                else
                    net.addGate(n.kind, n.a, n.b, n.c);
                break;
            }
            default: {
                const GateKind kind = kAllKinds[rng.index(std::size(kAllKinds))];
                if (kind == GateKind::Const0 || kind == GateKind::Const1)
                    net.addConst(kind == GateKind::Const1);
                else
                    net.addGate(kind, pick(), pick(), pick());
                break;
            }
        }
    }
    for (int o = 1 + static_cast<int>(rng.index(8)); o > 0; --o) net.markOutput(pick());
    return net;
}

TEST(Simplify, MatchesGoldenDigest) {
    // Pins `simplify`'s output node for node: the CSE table decides which
    // node id every gate gets, and the library dedup hashes that
    // structure.  Corpus: every 8- and 16-bit structural family candidate,
    // the CGP seeds lowered to two inputs, 240 seeded CGP children of
    // 16x16 Wallace and 8x8 array multipliers and random full-alphabet
    // DAGs.  FNV-1a over the name, every node's kind and operands, and the
    // outputs of each result.
    std::vector<Netlist> corpus;
    for (const int n : {8, 16}) {
        appendStructuralCandidates(corpus, n);
        for (const Netlist& seed : {gen::rippleCarryAdder(n), gen::carryLookaheadAdder(n),
                                    gen::wallaceMultiplier(n), gen::arrayMultiplier(n)})
            corpus.push_back(lowerToTwoInput(seed));
    }
    util::Rng rng(0x51A7F);
    for (const Netlist& seed : {gen::wallaceMultiplier(16), gen::arrayMultiplier(8)}) {
        const gen::CgpGenome parent = gen::CgpGenome::seedFromNetlist(
            seed, std::max(8, static_cast<int>(seed.gateCount()) / 5), rng);
        for (int k = 0; k < 120; ++k) {
            gen::CgpGenome child = parent;
            child.mutate(1 + static_cast<int>(rng.index(8)), rng);
            corpus.push_back(child.decode());
        }
    }
    for (int k = 0; k < 200; ++k) corpus.push_back(randomRewriteNetlist(rng));
    ASSERT_GT(corpus.size(), 900u);

    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xFFu;
            h *= 0x100000001B3ull;
        }
    };
    for (const Netlist& net : corpus) {
        const Netlist out = simplify(net);
        for (const char ch : out.name()) mix(static_cast<unsigned char>(ch));
        mix(out.nodeCount());
        for (const Node& node : out.nodes()) {
            mix(static_cast<std::uint64_t>(node.kind));
            mix(node.a);
            mix(node.b);
            mix(node.c);
        }
        mix(out.outputCount());
        for (const NodeId o : out.outputs()) mix(o);
    }
    EXPECT_EQ(h, 0xFF4E01DFA0D36408ull) << std::hex << "digest 0x" << h << " over " << std::dec
                         << corpus.size() << " netlists";
}

}  // namespace
}  // namespace axf::circuit
