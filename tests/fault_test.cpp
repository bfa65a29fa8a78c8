// Stuck-at fault-injection engine (src/fault): every campaign site, in
// exhaustive and sampled mode, against the mutate-the-netlist oracle on the
// reference interpreter across every gate kind and backend, site
// enumeration and equivalence collapsing, campaign determinism at any
// thread count and backend, cache integration (cold == warm), report
// serialization, and the resilience objective in both search problems.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "src/autoax/dse.hpp"
#include "src/autoax/sobel.hpp"
#include "src/cache/characterization_cache.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/kernels.hpp"
#include "src/circuit/netlist.hpp"
#include "src/circuit/simulator.hpp"
#include "src/error/accumulator.hpp"
#include "src/error/error_metrics.hpp"
#include "src/fault/fault.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/cgp.hpp"
#include "src/gen/multipliers.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"

namespace axf::fault {
namespace {

using circuit::CompiledNetlist;
using circuit::GateKind;
using circuit::Netlist;
using Word = CompiledNetlist::Word;

/// A netlist holding every GateKind and triggering every fused opcode
/// (Xor3/And3/Or3 chains, the HalfAdd Xor+And pair, MuxNotA/MuxNotB),
/// with constants, shaped to `multiplierSignature(4)`: 8 inputs, 8 outputs.
Netlist gateZoo() {
    Netlist net("gate_zoo");
    const auto a = net.addInput(), b = net.addInput(), c = net.addInput(), d = net.addInput();
    const auto e = net.addInput(), f = net.addInput(), g = net.addInput(), h = net.addInput();
    const auto k0 = net.addConst(false), k1 = net.addConst(true);
    const auto nNot = net.addGate(GateKind::Not, a);
    const auto nBuf = net.addGate(GateKind::Buf, b);
    const auto nAnd = net.addGate(GateKind::And, a, h);
    const auto nOr = net.addGate(GateKind::Or, c, g);
    const auto nXor = net.addGate(GateKind::Xor, d, f);
    const auto nNand = net.addGate(GateKind::Nand, b, e);
    const auto nNor = net.addGate(GateKind::Nor, a, d);
    const auto nXnor = net.addGate(GateKind::Xnor, g, h);
    const auto nAndNot = net.addGate(GateKind::AndNot, c, e);
    const auto nOrNot = net.addGate(GateKind::OrNot, f, b);
    const auto nMux = net.addGate(GateKind::Mux, nAnd, nOr, nXor);
    const auto nMaj = net.addGate(GateKind::Maj, e, f, g);
    // Fusion bait: single-consumer 2-gate chains, the half-adder pair and
    // inverted Mux data operands.
    const auto x3 = net.addGate(GateKind::Xor, net.addGate(GateKind::Xor, a, b), c);
    const auto a3 = net.addGate(GateKind::And, net.addGate(GateKind::And, c, d), e);
    const auto o3 = net.addGate(GateKind::Or, net.addGate(GateKind::Or, f, g), h);
    const auto haS = net.addGate(GateKind::Xor, d, h);
    const auto haC = net.addGate(GateKind::And, d, h);
    const auto mA = net.addGate(GateKind::Mux, net.addGate(GateKind::Not, g), nNand, a);
    const auto mB = net.addGate(GateKind::Mux, nNor, net.addGate(GateKind::Not, c), h);
    const auto kA = net.addGate(GateKind::And, nMaj, k1);
    const auto kO = net.addGate(GateKind::Or, nMux, k0);
    for (const auto o : {nNot, nBuf, x3, a3, o3, net.addGate(GateKind::Maj, haS, haC, kA),
                         net.addGate(GateKind::Mux, mA, mB, nXnor),
                         net.addGate(GateKind::Maj, nAndNot, nOrNot, kO)})
        net.markOutput(o);
    return net;
}

std::vector<std::uint8_t> serialized(const ResilienceReport& report) {
    util::ByteWriter out;
    report.serialize(out);
    return out.take();
}

TEST(FaultSites, EnumerationOrderAndCollapsing) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    const SiteEnumeration full = enumerateFaultSites(compiled, true, false);
    const SiteEnumeration collapsed = enumerateFaultSites(compiled, true, true);

    // Collapsing merges equivalent sites but conserves the site mass.
    EXPECT_LE(collapsed.sites.size(), full.sites.size());
    EXPECT_EQ(collapsed.totalSites, full.totalSites);
    std::uint32_t mass = 0;
    for (const FaultSite& s : collapsed.sites) mass += s.collapsed;
    EXPECT_EQ(mass, collapsed.totalSites);
    std::uint32_t fullMass = 0;
    for (const FaultSite& s : full.sites) {
        EXPECT_EQ(s.collapsed, 1u);
        fullMass += s.collapsed;
    }
    EXPECT_EQ(fullMass, full.totalSites);

    // Order contract: input sites first, then ascending producing
    // instruction, stuck-at-0 before stuck-at-1 per plane.
    const auto rank = [](const FaultSite& s) {
        return s.isInput ? std::uint64_t{0} : std::uint64_t{s.afterInstr} + 1;
    };
    for (std::size_t i = 1; i < collapsed.sites.size(); ++i)
        EXPECT_LE(rank(collapsed.sites[i - 1]), rank(collapsed.sites[i])) << i;
    for (std::size_t i = 0; i + 1 < collapsed.sites.size(); i += 2) {
        EXPECT_EQ(collapsed.sites[i].slot, collapsed.sites[i + 1].slot);
        EXPECT_FALSE(collapsed.sites[i].stuckTo);
        EXPECT_TRUE(collapsed.sites[i + 1].stuckTo);
    }

    // Dropping input faults removes exactly the input sites.
    const SiteEnumeration noInputs = enumerateFaultSites(compiled, false, false);
    std::size_t inputSites = 0;
    for (const FaultSite& s : full.sites) inputSites += s.isInput;
    EXPECT_EQ(noInputs.sites.size(), full.sites.size() - inputSites);
    EXPECT_EQ(inputSites, 2u * net.inputCount());
}

TEST(FaultCampaign, ExhaustiveMatchesScalarSimulatorOracle) {
    // Brute-force oracle on a space small enough to sweep twice per site
    // with the scalar simulator: per-fault worst case, error count and
    // deviated-vector count must match exactly; FP means to the last ulp
    // are not required (the campaign's block-partial accumulation is its
    // own canonical order) but must agree to ~1e-12.
    const Netlist net = gen::wallaceMultiplier(4);
    const circuit::ArithSignature sig = gen::multiplierSignature(4);
    CampaignConfig config;
    config.collapseEquivalent = false;
    const ResilienceReport report = analyzeResilience(net, sig, config);
    ASSERT_TRUE(report.exhaustive);
    EXPECT_EQ(report.vectorsPerFault, 256u);

    circuit::Simulator cleanSim(net);
    for (const FaultImpact& impact : report.faults) {
        // Simulator keeps a reference to its netlist (a temporary does not
        // compile), so the mutated copy is named.
        const Netlist faultyNet = stuckAtNetlist(net, impact.site.node, impact.site.stuckTo);
        circuit::Simulator faultySim(faultyNet);
        std::uint64_t deviated = 0, errs = 0, worst = 0;
        double absSum = 0.0;
        for (std::uint64_t x = 0; x < 256; ++x) {
            const std::uint64_t clean = cleanSim.evaluateScalar(x);
            const std::uint64_t faulty = faultySim.evaluateScalar(x);
            deviated += faulty != clean;
            const std::uint64_t exact = sig.exact(x & 0xF, x >> 4);
            const std::uint64_t diff = faulty > exact ? faulty - exact : exact - faulty;
            errs += diff != 0;
            worst = std::max(worst, diff);
            absSum += static_cast<double>(diff);
        }
        EXPECT_EQ(impact.deviatedVectors, deviated) << "node " << impact.site.node;
        EXPECT_EQ(impact.error.worstCaseError, static_cast<double>(worst));
        EXPECT_EQ(impact.error.errorProbability, static_cast<double>(errs) / 256.0);
        EXPECT_EQ(impact.error.vectorsEvaluated, 256u);
        EXPECT_NEAR(impact.error.meanAbsoluteError, absSum / 256.0,
                    1e-12 * (1.0 + absSum / 256.0));
        EXPECT_DOUBLE_EQ(impact.deviationProbability,
                         static_cast<double>(deviated) / 256.0);
    }
    // The fault-free reference profile of an exact multiplier is clean.
    EXPECT_EQ(report.nominal.errorProbability, 0.0);
    EXPECT_EQ(report.faultCoverage > 0.0, true);
}

/// Lane values (one integer per lane, bit i = output i) of a 64-lane
/// interpreter sweep.
std::array<std::uint64_t, 64> laneValues(const std::vector<Word>& outWords) {
    std::array<std::uint64_t, 64> values{};
    for (std::size_t bit = 0; bit < outWords.size(); ++bit)
        for (std::size_t lane = 0; lane < 64; ++lane)
            values[lane] |= ((outWords[bit] >> lane) & 1u) << bit;
    return values;
}

TEST(FaultCampaign, EverySiteMatchesStuckAtNetlistOracleAllBackends) {
    // Every uncollapsed, unskipped site of a netlist holding every gate
    // kind and fused opcode, in exhaustive and in forced-sampled mode (two
    // blocks, a partial last batch), on every backend: the campaign's
    // per-fault deviation, worst case, error probability and vector count
    // must equal the interpreter's sweep of the mutated netlist over the
    // same vectors — all 256 inputs, or the 64-lane batches regenerated
    // from mixSeed(seed + batch).
    const Netlist net = gateZoo();
    const circuit::ArithSignature sig = gen::multiplierSignature(4);
    for (const GateKind kind :
         {GateKind::Const0, GateKind::Const1, GateKind::Buf, GateKind::Not, GateKind::And,
          GateKind::Or, GateKind::Xor, GateKind::Nand, GateKind::Nor, GateKind::Xnor,
          GateKind::AndNot, GateKind::OrNot, GateKind::Mux, GateKind::Maj})
        EXPECT_TRUE(std::any_of(net.nodes().begin(), net.nodes().end(),
                                [&](const circuit::Node& n) { return n.kind == kind; }))
            << gateKindName(kind);
    using circuit::kernels::OpCode;
    const CompiledNetlist compiled = CompiledNetlist::compile(net);
    for (const OpCode op : {OpCode::Xor3, OpCode::And3, OpCode::Or3, OpCode::HalfAdd,
                            OpCode::MuxNotA, OpCode::MuxNotB})
        EXPECT_TRUE(std::any_of(compiled.instructions().begin(), compiled.instructions().end(),
                                [&](const circuit::kernels::Instr& i) { return i.op == op; }))
            << circuit::kernels::opCodeName(op);

    for (const bool exhaustive : {true, false}) {
        CampaignConfig config;
        config.collapseEquivalent = false;
        config.staticSkip = false;
        if (!exhaustive) {
            config.analysis.exhaustiveLimit = 1;
            config.analysis.sampleCount = 1024 + 700;
        }
        const std::uint64_t vectors = exhaustive ? 256 : config.analysis.sampleCount;
        // The evaluated vectors as 64-lane input blocks.
        std::vector<std::vector<Word>> blocks;
        for (std::uint64_t batch = 0; batch * 64 < vectors; ++batch) {
            std::vector<Word> in(net.inputCount());
            util::Rng rng(error::detail::mixSeed(config.analysis.seed + batch));
            for (std::size_t bit = 0; bit < in.size(); ++bit) {
                if (!exhaustive) {
                    in[bit] = rng.uniformInt(0, ~std::uint64_t{0});
                    continue;
                }
                for (std::uint64_t lane = 0; lane < 64; ++lane)
                    in[bit] |= (((batch * 64 + lane) >> bit) & 1u) << lane;
            }
            blocks.push_back(std::move(in));
        }
        const auto sweep = [&](const Netlist& circuit) {
            circuit::Simulator sim(circuit);
            std::vector<std::array<std::uint64_t, 64>> lanes;
            std::vector<Word> out(circuit.outputCount());
            for (const std::vector<Word>& in : blocks) {
                sim.evaluate(in, out);
                lanes.push_back(laneValues(out));
            }
            return lanes;
        };
        const auto clean = sweep(net);

        for (const circuit::kernels::Backend* backend : circuit::kernels::availableBackends()) {
            circuit::kernels::ScopedBackendOverride override(backend);
            const ResilienceReport report = analyzeResilience(net, sig, config);
            ASSERT_EQ(report.exhaustive, exhaustive);
            ASSERT_EQ(report.faults.size(),
                      enumerateFaultSites(compiled, true, false).sites.size());
            for (const FaultImpact& impact : report.faults) {
                const Netlist faultyNet =
                    stuckAtNetlist(net, impact.site.node, impact.site.stuckTo);
                const auto faulty = sweep(faultyNet);
                std::uint64_t deviated = 0, errs = 0, worst = 0;
                for (std::uint64_t v = 0; v < vectors; ++v) {
                    const std::uint64_t got = faulty[v / 64][v % 64];
                    deviated += got != clean[v / 64][v % 64];
                    std::uint64_t a = 0, b = 0;
                    for (int bit = 0; bit < 4; ++bit) {
                        a |= ((blocks[v / 64][bit] >> (v % 64)) & 1u) << bit;
                        b |= ((blocks[v / 64][4 + bit] >> (v % 64)) & 1u) << bit;
                    }
                    const std::uint64_t exact = sig.exact(a, b);
                    const std::uint64_t diff = got > exact ? got - exact : exact - got;
                    errs += diff != 0;
                    worst = std::max(worst, diff);
                }
                const std::string where = std::string(backend->name) +
                                          (exhaustive ? " exhaustive" : " sampled") + " node " +
                                          std::to_string(impact.site.node) + " sa" +
                                          std::to_string(impact.site.stuckTo);
                EXPECT_EQ(impact.deviatedVectors, deviated) << where;
                EXPECT_EQ(impact.error.worstCaseError, static_cast<double>(worst)) << where;
                EXPECT_EQ(impact.error.errorProbability,
                          static_cast<double>(errs) / static_cast<double>(vectors))
                    << where;
                EXPECT_EQ(impact.error.vectorsEvaluated, vectors) << where;
            }
        }
    }
}

TEST(FaultCampaign, SampledCampaignWithoutSamplesRejected) {
    // A sampled campaign over no vectors would report every fault harmless.
    CampaignConfig config;
    config.analysis.sampleCount = 0;
    EXPECT_THROW(analyzeResilience(gen::truncatedAdder(16, 15), gen::adderSignature(16), config),
                 std::invalid_argument);
    // Exhaustive campaigns ignore the sample count.
    const ResilienceReport exhaustive = analyzeResilience(
        gen::truncatedMultiplier(4, 2), gen::multiplierSignature(4), config);
    EXPECT_TRUE(exhaustive.exhaustive);
    EXPECT_EQ(exhaustive.vectorsPerFault, 256u);
}

TEST(FaultCampaign, CollapsingPreservesAggregateMetrics) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    CampaignConfig on, off;
    on.collapseEquivalent = true;
    off.collapseEquivalent = false;
    const ResilienceReport a = analyzeResilience(net, sig, on);
    const ResilienceReport b = analyzeResilience(net, sig, off);
    EXPECT_EQ(a.totalSites, b.totalSites);
    EXPECT_LE(a.faults.size(), b.faults.size());
    EXPECT_NEAR(a.meanMedUnderFault, b.meanMedUnderFault, 1e-12);
    EXPECT_NEAR(a.faultCoverage, b.faultCoverage, 1e-12);
    EXPECT_EQ(a.worstMedUnderFault, b.worstMedUnderFault);
}

TEST(FaultCampaign, ReportBitIdenticalAtAnyThreadCount) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    for (const bool exhaustive : {true, false}) {
        CampaignConfig config;
        if (!exhaustive) {
            config.analysis.exhaustiveLimit = 1;
            config.analysis.sampleCount = 1u << 10;
        }
        config.analysis.threads = 1;
        const std::vector<std::uint8_t> serial = serialized(analyzeResilience(net, sig, config));
        for (const int threads : {0, 2, 4}) {
            config.analysis.threads = threads;
            EXPECT_EQ(serialized(analyzeResilience(net, sig, config)), serial)
                << "threads=" << threads << " exhaustive=" << exhaustive;
        }
    }
}

TEST(FaultCampaign, ReportBitIdenticalAcrossBackends) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    for (const bool exhaustive : {true, false}) {
        CampaignConfig config;
        if (!exhaustive) {
            config.analysis.exhaustiveLimit = 1;
            config.analysis.sampleCount = 1u << 9;
        }
        const std::vector<std::uint8_t> reference = serialized(analyzeResilience(net, sig, config));
        for (const circuit::kernels::Backend* backend : circuit::kernels::availableBackends()) {
            circuit::kernels::ScopedBackendOverride override(backend);
            EXPECT_EQ(serialized(analyzeResilience(net, sig, config)), reference)
                << backend->name << " exhaustive=" << exhaustive;
        }
    }
}

TEST(FaultCampaign, ColdAndWarmCacheBitIdentical) {
    const std::string dir =
        (std::filesystem::temp_directory_path() / "axf_fault_cache_test").string();
    std::filesystem::remove_all(dir);
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    const CampaignConfig config;
    const std::vector<std::uint8_t> direct = serialized(analyzeResilience(net, sig, config));

    cache::CharacterizationCache::Options options;
    options.directory = dir;
    {
        cache::CharacterizationCache cold(options);
        EXPECT_EQ(serialized(cache::analyzeResilienceCached(
                      &cold, net.structuralHash(), net, sig, config)),
                  direct);
        EXPECT_EQ(cold.stats().stores, 1u);
        cold.flush();
    }
    cache::CharacterizationCache warm(options);  // fresh instance = new process
    EXPECT_EQ(serialized(cache::analyzeResilienceCached(&warm, net.structuralHash(), net, sig,
                                                        config)),
              direct);
    EXPECT_EQ(warm.stats().hits, 1u);
    EXPECT_EQ(warm.stats().stores, 0u);

    // Null cache degrades to the plain computation.
    EXPECT_EQ(serialized(cache::analyzeResilienceCached(nullptr, net.structuralHash(), net, sig,
                                                        config)),
              direct);
    std::filesystem::remove_all(dir);
}

TEST(FaultCampaign, CacheDigestCanonicalization) {
    using CC = cache::CharacterizationCache;
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    CampaignConfig a;
    CampaignConfig b = a;
    b.analysis.threads = 7;  // result-neutral
    EXPECT_EQ(CC::digestOf(a, sig), CC::digestOf(b, sig));
    CampaignConfig sampledKnobs = a;
    sampledKnobs.analysis.sampleCount = 1234;  // canonicalized away (exhaustive space)
    EXPECT_EQ(CC::digestOf(a, sig), CC::digestOf(sampledKnobs, sig));
    CampaignConfig sampled = a;
    sampled.analysis.exhaustiveLimit = 1;  // path change = different result
    EXPECT_NE(CC::digestOf(sampled, sig), CC::digestOf(a, sig));
    CampaignConfig noInputs = a;
    noInputs.includeInputFaults = false;  // result-affecting campaign knob
    EXPECT_NE(CC::digestOf(noInputs, sig), CC::digestOf(a, sig));
}

TEST(FaultReport, SerializationRoundTrips) {
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    const ResilienceReport report = analyzeResilience(net, sig, {});
    ASSERT_GT(report.faults.size(), 0u);
    EXPECT_FALSE(report.summary().empty());

    const std::vector<std::uint8_t> bytes = serialized(report);
    util::ByteReader in(bytes);
    ResilienceReport back;
    ASSERT_TRUE(ResilienceReport::deserialize(in, back));
    EXPECT_EQ(serialized(back), bytes);
    EXPECT_EQ(back.faults.size(), report.faults.size());
    EXPECT_EQ(back.totalSites, report.totalSites);
    EXPECT_EQ(back.meanMedUnderFault, report.meanMedUnderFault);
    EXPECT_EQ(back.criticalFaults, report.criticalFaults);

    util::ByteReader truncated(std::span<const std::uint8_t>(bytes.data(), bytes.size() / 2));
    ResilienceReport bad;
    EXPECT_FALSE(ResilienceReport::deserialize(truncated, bad));
}

TEST(FaultCampaign, SampledReportMatchesGoldenBits) {
    // Pins the sampled campaign's output itself (the determinism tests
    // only compare configurations with each other).  700 vectors leave a
    // partial last lane group.
    CampaignConfig config;
    config.analysis.sampleCount = 700;
    const ResilienceReport report =
        analyzeResilience(gen::loaAdder(16, 4), gen::adderSignature(16), config);
    ASSERT_FALSE(report.exhaustive);
    EXPECT_EQ(report.faults.size(), 122u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(report.meanMedUnderFault), 0x3f94fe659cdd789bu);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(report.worstMedUnderFault), 0x3fd0a40a0ed3eea5u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(report.nominal.med), 0x3ef599af3348cce3u);
    std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over every serialized byte
    for (const std::uint8_t byte : serialized(report)) digest = (digest ^ byte) * 1099511628211ull;
    EXPECT_EQ(digest, 0x381f24e5f3e3fe30u);
}

TEST(FaultCampaign, ReportsMatchGoldenDigestAtAnyThreadCount) {
    // Pins the exhaustive cone replay and the sampled lane-group sweep
    // (blockWords() - 1 faults per pass, 256-lane sub-partials) to the
    // bytes they output, at every thread count.
    const Netlist net = gen::truncatedMultiplier(6, 2);
    const circuit::ArithSignature sig = gen::multiplierSignature(6);
    for (const bool exhaustive : {true, false}) {
        CampaignConfig config;
        if (!exhaustive) {
            config.analysis.exhaustiveLimit = 1;
            config.analysis.sampleCount = 1u << 9;
        }
        const std::uint64_t golden = exhaustive ? 0xe64a588914e13e60u : 0x9d6ae1e0799f2397u;
        for (const int threads : {1, 0, 4}) {
            config.analysis.threads = threads;
            std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over every serialized byte
            for (const std::uint8_t byte : serialized(analyzeResilience(net, sig, config)))
                digest = (digest ^ byte) * 1099511628211ull;
            EXPECT_EQ(digest, golden) << "threads=" << threads << " exhaustive=" << exhaustive;
        }
    }
}

TEST(FaultObjective, CgpSearchProblemGrowsThirdObjective) {
    gen::CgpParams params;
    params.inputs = 8;
    params.outputs = 8;
    params.cells = 24;
    const circuit::ArithSignature sig = gen::multiplierSignature(4);
    gen::CgpSearchProblem problem(sig, params);
    EXPECT_EQ(problem.objectiveCount(), 2u);

    CampaignConfig campaign;
    campaign.analysis.sampleCount = 256;
    problem.setResilienceObjective(campaign);
    EXPECT_EQ(problem.objectiveCount(), 3u);

    util::Rng rng(42);
    const std::vector<gen::CgpGenome> batch = {problem.random(rng), problem.random(rng)};
    std::vector<search::Objectives> out(batch.size());
    problem.evaluate(batch, out);
    for (const search::Objectives& o : out) {
        ASSERT_EQ(o.size(), 3u);
        EXPECT_GE(o[2], 0.0);  // mean MED under fault
        EXPECT_TRUE(std::isfinite(o[2]));
    }
}

TEST(FaultObjective, ResilienceAwareDseProducesThreeObjectiveFronts) {
    // End-to-end: component menus -> per-component campaigns -> 3-objective
    // island archives -> re-evaluated fronts, on the cheapest workload.
    std::vector<autoax::Component> adders;
    for (Netlist net : {gen::rippleCarryAdder(16), gen::loaAdder(16, 8)}) {
        autoax::Component c;
        c.name = net.name();
        c.signature = gen::adderSignature(16);
        c.error = error::analyzeError(net, c.signature);
        c.fpga = synth::FpgaFlow().implement(net);
        c.netlist = std::move(net);
        adders.push_back(std::move(c));
    }
    const autoax::SobelAccelerator model(std::move(adders));
    EXPECT_EQ(model.componentMenu(0), &model.adderMenu());
    EXPECT_EQ(model.componentMenu(1), nullptr);

    autoax::AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 6;
    cfg.hillIterations = 20;
    cfg.archiveSeed = 4;
    cfg.archiveCap = 12;
    cfg.imageSize = 32;
    cfg.sceneCount = 1;
    cfg.threads = 1;
    cfg.resilienceObjective = true;
    cfg.faultCampaign.analysis.exhaustiveLimit = 1;  // 16-bit adders: sampled
    cfg.faultCampaign.analysis.sampleCount = 256;
    const autoax::AutoAxFpgaFlow::Result result = autoax::AutoAxFpgaFlow(cfg).run(model);
    ASSERT_EQ(result.scenarios.size(), 3u);
    for (const auto& scenario : result.scenarios)
        EXPECT_GT(scenario.autoax.size(), 0u);

    // Same flow without the objective still works (2-objective archives).
    cfg.resilienceObjective = false;
    const autoax::AutoAxFpgaFlow::Result plain = autoax::AutoAxFpgaFlow(cfg).run(model);
    ASSERT_EQ(plain.scenarios.size(), 3u);
}

}  // namespace
}  // namespace axf::fault
