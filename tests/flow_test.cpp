#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "src/core/flow.hpp"
#include "src/core/release.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::core {
namespace {

/// Small but real library shared by the flow tests (structural only; no
/// evolution, so this stays fast and deterministic).
gen::AcLibrary smallLibrary() {
    gen::LibraryConfig cfg;
    cfg.op = circuit::ArithOp::Multiplier;
    cfg.width = 8;  // ~90 structural designs: big enough that the flow
    cfg.structuralOnly = true;  // must not synthesize the whole library
    return gen::buildLibrary(cfg);
}

/// One shared flow run reused by the read-only assertions below.
const FlowResult& sharedResult() {
    static const FlowResult kResult = [] {
        ApproxFpgasFlow::Config cfg;
        cfg.trainFraction = 0.15;  // small library: keep the subset meaningful
        return ApproxFpgasFlow(cfg).run(smallLibrary());
    }();
    return kResult;
}

/// One result-defining field of a FlowResult.
struct FieldBits {
    std::string path;
    std::uint64_t bits;    ///< exact: a count, an index, a hash or a double's bit pattern
    std::uint64_t golden;  ///< what the golden digest hashes (see flowDigest)
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ull;
    return h;
}

std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
    return h;
}

/// Every field of `r` in a fixed order: list sizes, indices, the exact bit
/// patterns of doubles, and strings as their FNV-1a hash.
std::vector<FieldBits> flowFields(const FlowResult& r) {
    std::vector<FieldBits> out;
    const auto add = [&out](std::string path, std::uint64_t bits) {
        out.push_back({std::move(path), bits, bits});
    };
    const auto addDouble = [&out](std::string path, double v) {
        out.push_back({std::move(path), std::bit_cast<std::uint64_t>(v),
                       std::bit_cast<std::uint32_t>(static_cast<float>(v))});
    };
    const auto addIndices = [&add](const std::string& path, const std::vector<std::size_t>& v) {
        add(path + ".size", v.size());
        for (std::size_t i = 0; i < v.size(); ++i) add(path + "[" + std::to_string(i) + "]", v[i]);
    };

    add("circuits.size", r.dataset.size());
    for (std::size_t i = 0; i < r.dataset.size(); ++i) {
        const CharacterizedCircuit& cc = r.dataset.circuits()[i];
        const std::string p = "circuits[" + std::to_string(i) + "].";
        add(p + "name", fnv1a(cc.circuit.name));
        add(p + "netlist", cc.circuit.netlist.structuralHash());
        addDouble(p + "med", cc.circuit.error.med);
        addDouble(p + "asic.areaUm2", cc.asic.areaUm2);
        addDouble(p + "asic.delayNs", cc.asic.delayNs);
        addDouble(p + "asic.powerMw", cc.asic.powerMw);
        addDouble(p + "asic.cellCount", cc.asic.cellCount);
        add(p + "features.size", cc.features.size());
        for (std::size_t f = 0; f < cc.features.size(); ++f)
            addDouble(p + "features[" + std::to_string(f) + "]", cc.features[f]);
        add(p + "fpgaMeasured", cc.fpgaMeasured ? 1 : 0);
        addDouble(p + "fpga.lutCount", cc.fpga.lutCount);
        addDouble(p + "fpga.sliceCount", cc.fpga.sliceCount);
        addDouble(p + "fpga.latencyNs", cc.fpga.latencyNs);
        addDouble(p + "fpga.powerMw", cc.fpga.powerMw);
        addDouble(p + "fpga.logicDepth", cc.fpga.logicDepth);
        addDouble(p + "fpga.synthSeconds", cc.fpga.synthSeconds);
    }

    add("leaderboard.size", r.leaderboard.size());
    for (std::size_t m = 0; m < r.leaderboard.size(); ++m) {
        const ModelScore& s = r.leaderboard[m];
        const std::string p = "leaderboard[" + std::to_string(m) + "].";
        add(p + "id", fnv1a(s.id));
        add(p + "name", fnv1a(s.name));
        add(p + "fidelity.size", s.fidelityByParam.size());
        for (const auto& [param, fidelity] : s.fidelityByParam)
            addDouble(p + "fidelity." + fpgaParamName(param), fidelity);
        add(p + "variant.size", s.variantByParam.size());
        for (const auto& [param, variant] : s.variantByParam)
            add(p + "variant." + fpgaParamName(param), fnv1a(variant));
    }

    add("targets.size", r.targets.size());
    for (std::size_t t = 0; t < r.targets.size(); ++t) {
        const TargetOutcome& o = r.targets[t];
        const std::string p = "targets[" + std::to_string(t) + "].";
        add(p + "param", static_cast<std::uint64_t>(o.param));
        add(p + "selectedModels.size", o.selectedModels.size());
        for (std::size_t m = 0; m < o.selectedModels.size(); ++m)
            add(p + "selectedModels[" + std::to_string(m) + "]", fnv1a(o.selectedModels[m]));
        addIndices(p + "pseudoParetoIndices", o.pseudoParetoIndices);
        addIndices(p + "resynthesized", o.resynthesized);
        addIndices(p + "finalParetoIndices", o.finalParetoIndices);
        addDouble(p + "coverageOfTrueFront", o.coverageOfTrueFront);
    }

    addDouble("exhaustiveSynthSeconds", r.exhaustiveSynthSeconds);
    addDouble("flowSynthSeconds", r.flowSynthSeconds);
    add("circuitsSynthesized", r.circuitsSynthesized);
    return out;
}

/// FNV-1a over every field, with doubles rounded to float.  The compiler
/// may contract the FPGA model's multiply-adds into FMAs differently per
/// build (the ThreadSanitizer build fuses the static-power add that the
/// optimized build does not), which moves the last bits of a double but
/// not its float rounding.
std::uint64_t flowDigest(const FlowResult& r) {
    std::uint64_t h = 1469598103934665603ull;
    for (const FieldBits& f : flowFields(r)) h = fnv1a(h, f.golden);
    return h;
}

/// Field-by-field bit comparison; reports the first field that differs.
void expectSameResult(const FlowResult& a, const FlowResult& b) {
    const std::vector<FieldBits> fa = flowFields(a), fb = flowFields(b);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
        ASSERT_EQ(fa[i].path, fb[i].path);
        ASSERT_EQ(fa[i].bits, fb[i].bits) << "first differing field: " << fa[i].path;
    }
}

/// Runs the flow as a task of a one-worker pool.  On a worker thread every
/// nested parallelFor (the global pool's included) runs inline, so this is
/// the flow's serial schedule.
FlowResult runInline(const ApproxFpgasFlow::Config& cfg, gen::AcLibrary library) {
    util::ThreadPool one(1);
    FlowResult result;
    one.submit([&] { result = ApproxFpgasFlow(cfg).run(std::move(library)); });
    one.wait();
    return result;
}

class FlowTest : public ::testing::Test {
protected:
    static const FlowResult& result() { return sharedResult(); }
};

TEST_F(FlowTest, LeaderboardCoversAllModelsAndParams) {
    EXPECT_EQ(result().leaderboard.size(), 18u);
    for (const ModelScore& s : result().leaderboard) {
        ASSERT_EQ(s.fidelityByParam.size(), 3u);
        for (const auto& [param, fidelity] : s.fidelityByParam) {
            EXPECT_GE(fidelity, 0.0);
            EXPECT_LE(fidelity, 1.0);
        }
    }
}

TEST_F(FlowTest, AccountingIsConsistent) {
    const FlowResult& r = result();
    EXPECT_GT(r.exhaustiveSynthSeconds, r.flowSynthSeconds);
    EXPECT_GT(r.speedup(), 1.0);
    std::size_t measured = 0;
    for (const CharacterizedCircuit& cc : r.dataset.circuits())
        if (cc.fpgaMeasured) ++measured;
    EXPECT_EQ(measured, r.circuitsSynthesized);
    EXPECT_LT(measured, r.dataset.size());  // flow must not synthesize everything
}

TEST_F(FlowTest, TargetsCoverAllThreeParams) {
    const FlowResult& r = result();
    ASSERT_EQ(r.targets.size(), 3u);
    std::set<FpgaParam> params;
    for (const TargetOutcome& t : r.targets) params.insert(t.param);
    EXPECT_EQ(params.size(), 3u);
}

TEST_F(FlowTest, PseudoParetoCircuitsWereSynthesized) {
    const FlowResult& r = result();
    for (const TargetOutcome& t : r.targets) {
        EXPECT_EQ(t.selectedModels.size(), 3u);
        EXPECT_FALSE(t.pseudoParetoIndices.empty());
        for (std::size_t idx : t.pseudoParetoIndices)
            EXPECT_TRUE(r.dataset.circuits()[idx].fpgaMeasured);
        // Re-synthesized circuits are a subset of the pseudo-Pareto set.
        for (std::size_t idx : t.resynthesized) {
            EXPECT_TRUE(std::binary_search(t.pseudoParetoIndices.begin(),
                                           t.pseudoParetoIndices.end(), idx));
        }
    }
}

TEST_F(FlowTest, FinalFrontIsNonDominatedAmongMeasured) {
    const FlowResult& r = result();
    for (const TargetOutcome& t : r.targets) {
        ASSERT_FALSE(t.finalParetoIndices.empty());
        for (std::size_t a : t.finalParetoIndices) {
            const CharacterizedCircuit& ca = r.dataset.circuits()[a];
            EXPECT_TRUE(ca.fpgaMeasured);
            for (std::size_t b = 0; b < r.dataset.size(); ++b) {
                const CharacterizedCircuit& cb = r.dataset.circuits()[b];
                if (!cb.fpgaMeasured || a == b) continue;
                const double qa = ca.circuit.error.med, qb = cb.circuit.error.med;
                const double pa = fpgaParamOf(ca.fpga, t.param), pb = fpgaParamOf(cb.fpga, t.param);
                EXPECT_FALSE(qb <= qa && pb <= pa && (qb < qa || pb < pa))
                    << "front member " << a << " dominated by " << b;
            }
        }
    }
}

TEST_F(FlowTest, CoverageBounded) {
    for (const TargetOutcome& t : result().targets) {
        EXPECT_GE(t.coverageOfTrueFront, 0.0);
        EXPECT_LE(t.coverageOfTrueFront, 1.0);
        // The methodology exists to find most of the true front.
        EXPECT_GT(t.coverageOfTrueFront, 0.3);
    }
    EXPECT_GT(result().meanCoverage(), 0.4);
}

TEST_F(FlowTest, DeterministicAcrossRuns) {
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    const FlowResult again = ApproxFpgasFlow(cfg).run(smallLibrary());
    EXPECT_EQ(again.circuitsSynthesized, result().circuitsSynthesized);
    for (std::size_t t = 0; t < again.targets.size(); ++t) {
        EXPECT_EQ(again.targets[t].finalParetoIndices, result().targets[t].finalParetoIndices);
        EXPECT_EQ(again.targets[t].selectedModels, result().targets[t].selectedModels);
    }
}

TEST_F(FlowTest, ResultMatchesGoldenBits) {
    // Pins what the flow outputs, not just that schedules agree with each
    // other: a change that shifts every run's result the same way fails
    // here.  The digest covers every FlowResult field, including each
    // circuit's FPGA report and the modelled Fig-3 seconds, and holds at
    // any AXF_THREADS.
    EXPECT_EQ(flowDigest(result()), 0x7b04a319da23d10cull);
}

TEST(FlowSchedule, ParallelRunMatchesSerialSchedule) {
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    expectSameResult(runInline(cfg, smallLibrary()), sharedResult());
}

TEST(FlowSchedule, TunedParallelRunMatchesSerialSchedule) {
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    cfg.modelIds = {"ML14", "ML16"};
    cfg.topModels = 2;
    cfg.tuneHyperparameters = true;
    const gen::AcLibrary library = smallLibrary();
    expectSameResult(runInline(cfg, library), ApproxFpgasFlow(cfg).run(library));
}

TEST(FlowSchedule, CachedRunsMatchSerialSchedule) {
    // Cold then warm on the pool (concurrent stores, then concurrent hits),
    // against the serial schedule on a cold cache of its own.
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    const gen::AcLibrary library = smallLibrary();
    cache::CharacterizationCache serialCache, sharedCache;
    cfg.cache = &serialCache;
    const FlowResult serial = runInline(cfg, library);
    cfg.cache = &sharedCache;
    const FlowResult cold = ApproxFpgasFlow(cfg).run(library);
    const std::uint64_t coldHits = sharedCache.stats().hits;
    const FlowResult warm = ApproxFpgasFlow(cfg).run(library);
    EXPECT_GT(sharedCache.stats().hits, coldHits);
    expectSameResult(serial, cold);
    expectSameResult(serial, warm);
    expectSameResult(serial, sharedResult());
}

TEST(FlowConfig, ModelFilterRestrictsLeaderboard) {
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    cfg.modelIds = {"ML11", "ML4", "ML14"};
    cfg.topModels = 2;
    cfg.evaluateCoverage = false;
    const FlowResult r = ApproxFpgasFlow(cfg).run(smallLibrary());
    EXPECT_EQ(r.leaderboard.size(), 3u);
    for (const TargetOutcome& t : r.targets) EXPECT_EQ(t.selectedModels.size(), 2u);
}

TEST(Dataset, CharacterizeFillsFeaturesAndAsic) {
    const CircuitDataset ds = CircuitDataset::characterize(smallLibrary());
    ASSERT_GT(ds.size(), 0u);
    const ml::AsicColumns cols = CircuitDataset::asicColumns();
    for (const CharacterizedCircuit& cc : ds.circuits()) {
        ASSERT_EQ(cc.features.size(), CircuitDataset::featureDimension());
        EXPECT_DOUBLE_EQ(cc.features[cols.area], cc.asic.areaUm2);
        EXPECT_DOUBLE_EQ(cc.features[cols.delay], cc.asic.delayNs);
        EXPECT_DOUBLE_EQ(cc.features[cols.power], cc.asic.powerMw);
        EXPECT_FALSE(cc.fpgaMeasured);
    }
}

TEST(Dataset, MeasuredTargetsThrowsOnUnmeasured) {
    const CircuitDataset ds = CircuitDataset::characterize(smallLibrary());
    EXPECT_THROW(ds.measuredTargets({0}, FpgaParam::Area), std::logic_error);
}

TEST(FlowConfig, HyperparameterTuningRecordsVariants) {
    ApproxFpgasFlow::Config cfg;
    cfg.trainFraction = 0.15;
    cfg.modelIds = {"ML14", "ML16"};  // small grids keep this test fast
    cfg.topModels = 2;
    cfg.tuneHyperparameters = true;
    cfg.evaluateCoverage = false;
    const FlowResult r = ApproxFpgasFlow(cfg).run(smallLibrary());
    ASSERT_EQ(r.leaderboard.size(), 2u);
    for (const ModelScore& s : r.leaderboard) {
        for (FpgaParam param : kAllFpgaParams) {
            ASSERT_TRUE(s.variantByParam.count(param));
            EXPECT_NE(s.variantByParam.at(param), "");
            EXPECT_NE(s.variantByParam.at(param), "default");  // a grid choice was made
        }
    }
}

TEST(Release, WritesVerilogCAndIndex) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "axf_release_test";
    std::filesystem::remove_all(dir);
    const std::size_t released = releaseLibrary(sharedResult(), dir);
    EXPECT_GT(released, 0u);
    ASSERT_TRUE(std::filesystem::exists(dir / "index.csv"));

    // Every index row has a matching .v and .c artifact with sane content.
    std::ifstream csv(dir / "index.csv");
    std::string header, firstRow;
    std::getline(csv, header);
    ASSERT_TRUE(static_cast<bool>(std::getline(csv, firstRow)));
    const std::string name = firstRow.substr(0, firstRow.find(','));
    ASSERT_TRUE(std::filesystem::exists(dir / (name + ".v")));
    ASSERT_TRUE(std::filesystem::exists(dir / (name + ".c")));

    std::stringstream v, c;
    v << std::ifstream(dir / (name + ".v")).rdbuf();
    c << std::ifstream(dir / (name + ".c")).rdbuf();
    EXPECT_NE(v.str().find("module " + name), std::string::npos);
    EXPECT_NE(v.str().find("endmodule"), std::string::npos);
    EXPECT_NE(c.str().find("uint64_t " + name + "(uint64_t a, uint64_t b)"), std::string::npos);
    EXPECT_NE(c.str().find("return out;"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Dataset, ParamHelpers) {
    synth::FpgaReport report;
    report.latencyNs = 1.0;
    report.powerMw = 2.0;
    report.lutCount = 3.0;
    EXPECT_DOUBLE_EQ(fpgaParamOf(report, FpgaParam::Latency), 1.0);
    EXPECT_DOUBLE_EQ(fpgaParamOf(report, FpgaParam::Power), 2.0);
    EXPECT_DOUBLE_EQ(fpgaParamOf(report, FpgaParam::Area), 3.0);
    EXPECT_STREQ(fpgaParamName(FpgaParam::Power), "power");
}

}  // namespace
}  // namespace axf::core
