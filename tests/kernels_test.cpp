// Kernel-backend dispatch and opcode-fusion tests: every backend the CPU
// can execute must produce bit-identical results for raw runs, for whole
// ErrorReports and for a complete AutoAxFpgaFlow::Result (whose bits are
// also pinned to a golden digest); the peephole rewrites must preserve
// semantics gate-for-gate; a forced-backend value the CPU cannot honour
// warns and falls back.

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>
#include <vector>

#include "src/autoax/dse.hpp"
#include "src/autoax/sobel.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/kernels.hpp"
#include "src/circuit/simulator.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/multipliers.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/rng.hpp"

namespace axf::circuit {
namespace {

/// Random DAG over the full gate alphabet (mirrors batch_sim_test).
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

/// Scalar bit reference of the lane <-> plane layout: bits [0, bits) of
/// `lane`, read from plane-major planes of `words` words each.
std::uint32_t laneValue(const CompiledNetlist::Word* planes, std::size_t words, std::size_t bits,
                        std::size_t lane) {
    std::uint32_t value = 0;
    for (std::size_t bit = 0; bit < bits; ++bit)
        value |= static_cast<std::uint32_t>((planes[bit * words + lane / 64] >> (lane % 64)) & 1u)
                 << bit;
    return value;
}

/// Exhaustive batch-vs-scalar cross-check of one compiled program.
void crossCheck(const Netlist& net, const CompiledNetlist& compiled) {
    const int totalBits = static_cast<int>(net.inputCount());
    ASSERT_LE(totalBits, 12);
    ASSERT_LE(net.outputCount(), 32u);
    const std::uint64_t space = std::uint64_t{1} << totalBits;
    Simulator scalar(net);
    BatchSimulator batch(compiled);
    const std::size_t W = batch.blockWords();
    std::vector<CompiledNetlist::Word> in(net.inputCount() * W);
    std::vector<CompiledNetlist::Word> out(net.outputCount() * W);
    for (std::uint64_t base = 0; base < space; base += batch.blockLanes()) {
        fillExhaustiveBlock(in, totalBits, base);
        batch.evaluate(in, out);
        const std::uint64_t lanes =
            std::min<std::uint64_t>(batch.blockLanes(), space - base);
        for (std::uint64_t lane = 0; lane < lanes; ++lane)
            ASSERT_EQ(laneValue(out.data(), W, net.outputCount(), lane),
                      scalar.evaluateScalar(base + lane))
                << "vector " << base + lane;
    }
}

TEST(KernelCodecs, MatchScalarBitReferenceOnEveryBackend) {
    using Word = CompiledNetlist::Word;
    constexpr std::size_t kWords = kernels::kBlockWords;
    constexpr std::size_t kLanes = kernels::kBlockLanes;
    util::Rng rng(0xC0DEC);
    // Full 32-bit lane values: the encoder must ignore bits >= 16.
    std::vector<std::uint32_t> values(kLanes);
    for (std::uint32_t& v : values) v = static_cast<std::uint32_t>(rng.uniformInt(0, ~0u));
    std::vector<Word> randomPlanes(32 * kWords);
    for (Word& p : randomPlanes) p = rng.uniformInt(0, ~Word{0});

    for (const kernels::Backend* backend : kernels::availableBackends()) {
        const std::string where = backend->name;

        std::vector<Word> encoded(16 * kWords, 0xA5A5A5A5A5A5A5A5ull);
        backend->encode16(values.data(), encoded.data());
        for (std::size_t lane = 0; lane < kLanes; ++lane)
            ASSERT_EQ(laneValue(encoded.data(), kWords, 16, lane), values[lane] & 0xFFFFu)
                << where << " encode16 lane " << lane;

        for (const std::size_t bits : {1u, 7u, 16u}) {
            std::vector<std::uint16_t> decoded(kLanes, 0xBEEF);
            backend->decode16(randomPlanes.data(), bits, decoded.data());
            for (std::size_t lane = 0; lane < kLanes; ++lane)
                ASSERT_EQ(decoded[lane], laneValue(randomPlanes.data(), kWords, bits, lane))
                    << where << " decode16 bits=" << bits << " lane " << lane;
        }
        for (const std::size_t bits : {1u, 17u, 32u}) {
            std::vector<std::uint32_t> decoded(kLanes, 0xDEADBEEFu);
            backend->decode32(randomPlanes.data(), bits, decoded.data());
            for (std::size_t lane = 0; lane < kLanes; ++lane)
                ASSERT_EQ(decoded[lane], laneValue(randomPlanes.data(), kWords, bits, lane))
                    << where << " decode32 bits=" << bits << " lane " << lane;
        }
    }
}

TEST(KernelBackends, PortableAlwaysAvailable) {
    const auto backends = kernels::availableBackends();
    ASSERT_FALSE(backends.empty());
    EXPECT_STREQ(backends.front()->name, "portable");
    std::set<std::string> names;
    for (const kernels::Backend* b : backends) names.insert(b->name);
    EXPECT_EQ(names.size(), backends.size()) << "duplicate backend names";
    // The selected backend is one of the available ones.
    names.clear();
    for (const kernels::Backend* b : backends) names.insert(b->name);
    EXPECT_TRUE(names.count(kernels::selectedBackend().name));
}

TEST(KernelBackends, UnknownNameRejected) {
    EXPECT_EQ(kernels::backendByName("bogus"), nullptr);
    EXPECT_NE(kernels::backendByName("portable"), nullptr);
}

TEST(ForcedSelection, UnknownBackendWarnsAndFallsBack) {
    testing::internal::CaptureStderr();
    const kernels::Backend* backend = kernels::resolveForcedBackend("bogus");
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_EQ(backend, nullptr);
    EXPECT_NE(warning.find("AXF_FORCE_BACKEND=bogus"), std::string::npos) << warning;
    EXPECT_NE(warning.find("falling back"), std::string::npos) << warning;

    // A known name resolves silently.
    testing::internal::CaptureStderr();
    EXPECT_NE(kernels::resolveForcedBackend("portable"), nullptr);
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}

TEST(KernelBackends, RunsBitIdenticalAcrossBackends) {
    util::Rng rng(0x5EED);
    for (int trial = 0; trial < 8; ++trial) {
        const Netlist net = randomNetlist(4 + static_cast<int>(rng.index(7)),
                                          30 + static_cast<int>(rng.index(80)),
                                          1 + static_cast<int>(rng.index(8)), rng);
        for (const kernels::Backend* backend : kernels::availableBackends()) {
            CompiledNetlist::Options options;
            options.backend = backend;
            const CompiledNetlist compiled = CompiledNetlist::compile(net, options);
            EXPECT_STREQ(compiled.stats().backend, backend->name);
            crossCheck(net, compiled);  // scalar reference == ground truth
        }
    }
}

TEST(KernelBackends, UnprunedProgramBitIdenticalAcrossBackends) {
    // The unpruned program (every node kept, slot == node id; what the
    // toggle-rate estimator reads) at block width: every node value of
    // every word must match the reference interpreter on every backend.
    util::Rng rng(0xA11);
    const Netlist net = randomNetlist(8, 60, 6, rng);
    std::vector<CompiledNetlist::Word> in(net.inputCount() * kernels::kBlockWords);
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = 0x9E3779B97F4A7C15ull * (i + 1);
    std::vector<std::vector<CompiledNetlist::Word>> nodeWords(kernels::kBlockWords);
    Simulator reference(net);
    std::vector<CompiledNetlist::Word> wordIn(net.inputCount()), wordOut(net.outputCount());
    for (std::size_t w = 0; w < kernels::kBlockWords; ++w) {
        for (std::size_t i = 0; i < net.inputCount(); ++i)
            wordIn[i] = in[i * kernels::kBlockWords + w];
        reference.evaluate(wordIn, wordOut);
        nodeWords[w].assign(reference.nodeValues().begin(), reference.nodeValues().end());
    }
    for (const kernels::Backend* backend : kernels::availableBackends()) {
        CompiledNetlist::Options options;
        options.pruneDead = false;
        options.backend = backend;
        const CompiledNetlist compiled = CompiledNetlist::compile(net, options);
        ASSERT_TRUE(compiled.preservesAllNodes());
        BatchSimulator sim(compiled);
        std::vector<CompiledNetlist::Word> out(net.outputCount() * kernels::kBlockWords);
        sim.evaluate(in, out);
        const std::span<const CompiledNetlist::Word> ws = sim.workspace();
        for (std::size_t node = 0; node < net.nodeCount(); ++node)
            for (std::size_t w = 0; w < kernels::kBlockWords; ++w)
                ASSERT_EQ(ws[node * kernels::kBlockWords + w], nodeWords[w][node])
                    << backend->name << " node " << node << " word " << w;
        for (std::size_t o = 0; o < net.outputCount(); ++o)
            for (std::size_t w = 0; w < kernels::kBlockWords; ++w)
                ASSERT_EQ(out[o * kernels::kBlockWords + w],
                          nodeWords[w][net.outputs()[o]])
                    << backend->name << " output " << o << " word " << w;
    }
}

TEST(KernelFusion, RewriteRulesPreserveSemantics) {
    // One targeted netlist per rewrite family, checked exhaustively: a
    // wrong fusion identity cannot hide inside a random DAG.
    using GK = GateKind;
    const auto single = [](GK inner, GK outer) {
        Netlist net(std::string(gateKindName(inner)) + "_into_" + gateKindName(outer));
        const NodeId a = net.addInput();
        const NodeId b = net.addInput();
        const NodeId c = net.addInput();
        const NodeId inv = net.addGate(inner, a, b, c);
        net.markOutput(net.addGate(outer, inv, b, c));
        net.markOutput(net.addGate(outer, b, inv, c));
        if (fanInCount(outer) >= 3) net.markOutput(net.addGate(outer, b, c, inv));
        return net;
    };
    for (const GK outer : {GK::And, GK::Or, GK::Xor, GK::Nand, GK::Nor, GK::Xnor, GK::AndNot,
                           GK::OrNot, GK::Mux, GK::Maj}) {
        const Netlist net = single(GK::Not, outer);
        crossCheck(net, CompiledNetlist::compile(net));
    }
    {
        // Double negation, Buf chains and output-side inversion.
        Netlist net("chains");
        const NodeId a = net.addInput();
        const NodeId b = net.addInput();
        const NodeId n1 = net.addGate(GK::Not, a);
        const NodeId n2 = net.addGate(GK::Not, n1);  // ~~a
        const NodeId buf = net.addGate(GK::Buf, n2);
        const NodeId buf2 = net.addGate(GK::Buf, buf);
        const NodeId g = net.addGate(GK::And, buf2, b);
        net.markOutput(net.addGate(GK::Not, g));  // And -> Nand dual
        const CompiledNetlist compiled = CompiledNetlist::compile(net);
        EXPECT_GT(compiled.stats().fusedOps, 0u);
        EXPECT_LT(compiled.instructionCount(), net.gateCount());
        crossCheck(net, compiled);
    }
    {
        // Full adder + half adder: Xor3 and HalfAdd fusion.
        Netlist net("adder_cell");
        const NodeId a = net.addInput();
        const NodeId b = net.addInput();
        const NodeId cin = net.addInput();
        const NodeId axb = net.addGate(GK::Xor, a, b);
        net.markOutput(net.addGate(GK::Xor, axb, cin));    // sum -> Xor3
        net.markOutput(net.addGate(GK::Maj, a, b, cin));   // carry
        const NodeId hs = net.addGate(GK::Xor, a, cin);    // half-adder pair
        const NodeId hc = net.addGate(GK::And, a, cin);
        net.markOutput(hs);
        net.markOutput(hc);
        const CompiledNetlist compiled = CompiledNetlist::compile(net);
        // 7 gates -> Xor3 + Maj + HalfAdd = 3 instructions.
        EXPECT_EQ(compiled.instructionCount(), 3u);
        crossCheck(net, compiled);
    }
}

TEST(KernelFusion, AndOrTreeWideningPreservesSemantics) {
    using GK = GateKind;
    // An OR-compressor level and an AND-tree level: the single-use inner
    // gate of each pair must widen to one Or3 / And3 instruction.
    Netlist net("compressor");
    const NodeId a = net.addInput();
    const NodeId b = net.addInput();
    const NodeId c = net.addInput();
    const NodeId d = net.addInput();
    const NodeId orInner = net.addGate(GK::Or, a, b);
    net.markOutput(net.addGate(GK::Or, orInner, c));   // -> Or3(a, b, c)
    const NodeId andInner = net.addGate(GK::And, b, c);
    net.markOutput(net.addGate(GK::And, d, andInner)); // -> And3 (inner on b side)
    // A multi-use inner gate must NOT be absorbed: both consumers and the
    // output read it.
    const NodeId shared = net.addGate(GK::Or, c, d);
    net.markOutput(net.addGate(GK::Or, shared, a));
    net.markOutput(shared);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    // or-pair -> Or3, and-pair -> And3, shared Or kept + its consumer.
    EXPECT_EQ(compiled.instructionCount(), 4u);
    EXPECT_GE(compiled.stats().fusedOps, 2u);
    crossCheck(net, compiled);
    // Bit-identical across every backend (the new kernel-table entries).
    for (const kernels::Backend* backend : kernels::availableBackends()) {
        CompiledNetlist::Options options;
        options.backend = backend;
        crossCheck(net, CompiledNetlist::compile(net, options));
    }
}

TEST(KernelFusion, GeneratorCircuitsShrink) {
    const Netlist net = gen::wallaceMultiplier(6);  // 12-bit space: exhaustive check
    const CompiledNetlist fused = CompiledNetlist::compile(net);
    CompiledNetlist::Options plain;
    plain.fuseOps = false;
    const CompiledNetlist unfused = CompiledNetlist::compile(net, plain);
    EXPECT_LT(fused.instructionCount(), unfused.instructionCount());
    EXPECT_GT(fused.stats().gatesFused, 0u);
    EXPECT_EQ(unfused.stats().gatesFused, 0u);
    crossCheck(net, fused);
    crossCheck(net, unfused);
}

TEST(KernelBackends, ErrorReportsBitIdenticalAcrossBackends) {
    const Netlist mul = gen::truncatedMultiplier(8, 4);
    const auto mulSig = gen::multiplierSignature(8);
    const Netlist add = gen::loaAdder(16, 6);
    const auto addSig = gen::adderSignature(16);
    error::ErrorAnalysisConfig sampled;
    sampled.exhaustiveLimit = 1;  // force the sampled path
    sampled.sampleCount = 1u << 12;

    const error::ErrorReport refMul = error::analyzeError(mul, mulSig);
    const error::ErrorReport refAdd = error::analyzeError(add, addSig, sampled);
    for (const kernels::Backend* backend : kernels::availableBackends()) {
        kernels::ScopedBackendOverride override(backend);
        const error::ErrorReport m = error::analyzeError(mul, mulSig);
        const error::ErrorReport s = error::analyzeError(add, addSig, sampled);
        EXPECT_EQ(m.med, refMul.med) << backend->name;
        EXPECT_EQ(m.meanAbsoluteError, refMul.meanAbsoluteError) << backend->name;
        EXPECT_EQ(m.worstCaseError, refMul.worstCaseError) << backend->name;
        EXPECT_EQ(m.meanRelativeError, refMul.meanRelativeError) << backend->name;
        EXPECT_EQ(m.errorProbability, refMul.errorProbability) << backend->name;
        EXPECT_EQ(m.meanSquaredError, refMul.meanSquaredError) << backend->name;
        EXPECT_EQ(m.vectorsEvaluated, refMul.vectorsEvaluated) << backend->name;
        EXPECT_EQ(s.med, refAdd.med) << backend->name;
        EXPECT_EQ(s.meanSquaredError, refAdd.meanSquaredError) << backend->name;
        EXPECT_EQ(s.errorProbability, refAdd.errorProbability) << backend->name;
    }
}

/// A whole AutoAxFpgaFlow::Result (Sobel workload: adder menu only, the
/// cheapest full pipeline), from component characterization up.
autoax::AutoAxFpgaFlow::Result runSobelFlow() {
    std::vector<autoax::Component> adders;
    for (auto net : {gen::rippleCarryAdder(16), gen::loaAdder(16, 8)}) {
        autoax::Component c;
        c.name = net.name();
        c.signature = gen::adderSignature(16);
        c.error = error::analyzeError(net, c.signature);
        c.fpga = synth::FpgaFlow().implement(net);
        c.netlist = std::move(net);
        adders.push_back(std::move(c));
    }
    autoax::SobelAccelerator model(std::move(adders));
    autoax::AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 6;
    cfg.hillIterations = 20;
    cfg.archiveSeed = 4;
    cfg.archiveCap = 12;
    cfg.imageSize = 32;
    cfg.sceneCount = 1;
    cfg.threads = 1;
    return autoax::AutoAxFpgaFlow(cfg).run(model);
}

/// FNV-1a over every field of a flow result, doubles as their bit patterns.
std::uint64_t flowDigest(const autoax::AutoAxFpgaFlow::Result& r) {
    std::uint64_t h = 1469598103934665603ull;
    const auto add = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte)
            h = (h ^ ((v >> (8 * byte)) & 0xFF)) * 1099511628211ull;
    };
    const auto addConfigs = [&](const std::vector<autoax::EvaluatedConfig>& configs) {
        add(configs.size());
        for (const autoax::EvaluatedConfig& e : configs) {
            for (const int choice : e.config.choice) add(static_cast<std::uint64_t>(choice));
            add(std::bit_cast<std::uint64_t>(e.ssim));
            add(std::bit_cast<std::uint64_t>(e.cost.lutCount));
            add(std::bit_cast<std::uint64_t>(e.cost.powerMw));
            add(std::bit_cast<std::uint64_t>(e.cost.latencyNs));
            add(std::bit_cast<std::uint64_t>(e.cost.synthSeconds));
        }
    };
    add(std::bit_cast<std::uint64_t>(r.designSpaceSize));
    addConfigs(r.trainingSet);
    add(r.scenarios.size());
    for (const autoax::AutoAxFpgaFlow::ScenarioResult& s : r.scenarios) {
        add(static_cast<std::uint64_t>(s.param));
        addConfigs(s.autoax);
        addConfigs(s.random);
        add(s.estimatorQueries);
        add(s.realEvaluations);
    }
    add(r.totalRealEvaluations);
    return h;
}

TEST(KernelBackends, FlowResultBitIdenticalAcrossBackends) {
    // Re-run per backend: every quality figure must be the same bits.
    const autoax::AutoAxFpgaFlow::Result ref = runSobelFlow();
    for (const kernels::Backend* backend : kernels::availableBackends()) {
        kernels::ScopedBackendOverride override(backend);
        const autoax::AutoAxFpgaFlow::Result r = runSobelFlow();
        EXPECT_EQ(r.totalRealEvaluations, ref.totalRealEvaluations) << backend->name;
        ASSERT_EQ(r.trainingSet.size(), ref.trainingSet.size()) << backend->name;
        for (std::size_t i = 0; i < ref.trainingSet.size(); ++i) {
            EXPECT_EQ(r.trainingSet[i].config, ref.trainingSet[i].config) << backend->name;
            EXPECT_EQ(r.trainingSet[i].ssim, ref.trainingSet[i].ssim) << backend->name;
        }
        ASSERT_EQ(r.scenarios.size(), ref.scenarios.size()) << backend->name;
        for (std::size_t s = 0; s < ref.scenarios.size(); ++s) {
            EXPECT_EQ(r.scenarios[s].realEvaluations, ref.scenarios[s].realEvaluations)
                << backend->name;
            ASSERT_EQ(r.scenarios[s].autoax.size(), ref.scenarios[s].autoax.size())
                << backend->name;
            for (std::size_t p = 0; p < ref.scenarios[s].autoax.size(); ++p) {
                EXPECT_EQ(r.scenarios[s].autoax[p].ssim, ref.scenarios[s].autoax[p].ssim)
                    << backend->name;
                EXPECT_EQ(r.scenarios[s].autoax[p].config, ref.scenarios[s].autoax[p].config)
                    << backend->name;
            }
        }
    }
}

TEST(KernelBackends, FlowResultMatchesGoldenDigest) {
    // Pins the Sobel flow's output itself, not just agreement between
    // backends: every SSIM, cost and chosen configuration.
    EXPECT_EQ(flowDigest(runSobelFlow()), 0x7b641d38eb4162bcu);
}

}  // namespace
}  // namespace axf::circuit
