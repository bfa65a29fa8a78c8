#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/autoax/accelerator.hpp"
#include "src/autoax/dse.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/kernels.hpp"
#include "src/circuit/simulator.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/multipliers.hpp"
#include "src/synth/fpga.hpp"

namespace axf::autoax {
namespace {

Component makeComponent(circuit::Netlist netlist, circuit::ArithSignature sig) {
    Component c;
    c.name = netlist.name();
    c.signature = sig;
    c.error = error::analyzeError(netlist, sig);
    c.fpga = synth::FpgaFlow().implement(netlist);
    c.netlist = std::move(netlist);
    return c;
}

/// Fixed menus shared by the accelerator tests: index 0 is exact, later
/// indices are increasingly aggressive approximations (MED-sorted).
std::vector<Component> multiplierMenu() {
    std::vector<Component> menu;
    menu.push_back(makeComponent(gen::wallaceMultiplier(8), gen::multiplierSignature(8)));
    for (int t : {3, 5, 7})
        menu.push_back(makeComponent(gen::truncatedMultiplier(8, t), gen::multiplierSignature(8)));
    return menu;
}

std::vector<Component> adderMenu() {
    std::vector<Component> menu;
    menu.push_back(makeComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
    for (int k : {4, 8})
        menu.push_back(makeComponent(gen::loaAdder(16, k), gen::adderSignature(16)));
    return menu;
}

const GaussianAccelerator& accelerator() {
    static const GaussianAccelerator kAccel(multiplierMenu(), adderMenu());
    return kAccel;
}

/// All-exact configuration of the shared accelerator.
AcceleratorConfig exactConfig() { return accelerator().configSpace().accurateCorner(); }

TEST(GaussianAccelerator, CachedMultiplierTablesReproduceBehaviour) {
    // Table builds are content-addressed: a second accelerator over the
    // same menus loads the exhaustive 8x8 tables from the cache and must
    // behave identically to the uncached construction.
    cache::CharacterizationCache cache;
    const GaussianAccelerator cold(multiplierMenu(), adderMenu(), &cache);
    EXPECT_GT(cache.stats().stores, 0u);
    const GaussianAccelerator warm(multiplierMenu(), adderMenu(), &cache);
    EXPECT_GT(cache.stats().hits, 0u);

    const img::Image scene = img::syntheticScene(40, 40, 0xAB);
    AcceleratorConfig mixed = exactConfig();
    for (int slot = 0; slot < GaussianAccelerator::kMultiplierSlots; ++slot)
        mixed.choice[GaussianAccelerator::multiplierSlot(slot)] =
            static_cast<int>(static_cast<std::size_t>(slot) % multiplierMenu().size());
    for (int node = 0; node < GaussianAccelerator::kAdderSlots; ++node)
        mixed.choice[GaussianAccelerator::adderSlot(node)] =
            static_cast<int>(static_cast<std::size_t>(node) % adderMenu().size());
    const img::Image reference = accelerator().filter(scene, mixed);
    EXPECT_EQ(cold.filter(scene, mixed).pixels(), reference.pixels());
    EXPECT_EQ(warm.filter(scene, mixed).pixels(), reference.pixels());
}

TEST(GaussianAccelerator, RejectsBadMenus) {
    EXPECT_THROW(GaussianAccelerator({}, adderMenu()), std::invalid_argument);
    // 8-bit adders in the adder menu are the wrong width.
    std::vector<Component> badAdders;
    badAdders.push_back(makeComponent(gen::rippleCarryAdder(8), gen::adderSignature(8)));
    EXPECT_THROW(GaussianAccelerator(multiplierMenu(), std::move(badAdders)),
                 std::invalid_argument);
}

TEST(GaussianAccelerator, ExactConfigMatchesReference) {
    const img::Image scene = img::syntheticScene(48, 48, 0xE);
    const img::Image hw = accelerator().filter(scene, exactConfig());
    const img::Image ref = accelerator().filterExact(scene);
    EXPECT_EQ(hw.pixels(), ref.pixels());
    EXPECT_DOUBLE_EQ(accelerator().quality(exactConfig(), {scene}), 1.0);
}

TEST(GaussianAccelerator, CarryOutputsTruncateLikeTheHardware) {
    // A degenerate multiplier whose table is all-65535 drives every
    // adder-tree level to a 17-bit result (carry-out set).  The behavioural
    // model must truncate operands to the adder's 16-bit interface when
    // feeding the next level — 2 * 65535 -> 131070, truncated to 65534 on
    // re-entry, etc. — ending at min(255, 131063 >> 4) = 255 everywhere.
    circuit::Netlist ones("mul8_allones");
    for (int i = 0; i < 16; ++i) ones.addInput();
    const circuit::NodeId one = ones.addConst(true);
    for (int i = 0; i < 16; ++i) ones.markOutput(one);
    std::vector<Component> mults;
    mults.push_back(makeComponent(std::move(ones), gen::multiplierSignature(8)));
    std::vector<Component> adds;
    adds.push_back(makeComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
    const GaussianAccelerator accel(std::move(mults), std::move(adds));

    const img::Image scene = img::syntheticScene(40, 40, 0x21);
    const img::Image out = accel.filter(scene, accel.configSpace().accurateCorner());
    for (std::size_t i = 0; i < out.pixelCount(); ++i)
        ASSERT_EQ(out.pixels()[i], 255) << "pixel " << i;
}

TEST(GaussianAccelerator, ApproximationDegradesQualityMonotonically) {
    const std::vector<img::Image> scenes = {img::syntheticScene(48, 48, 0xF)};
    double previous = 1.1;
    for (int level = 0; level < 4; ++level) {
        AcceleratorConfig config = exactConfig();
        for (int slot = 0; slot < GaussianAccelerator::kMultiplierSlots; ++slot)
            config.choice[GaussianAccelerator::multiplierSlot(slot)] = level;
        const double q = accelerator().quality(config, scenes);
        EXPECT_LE(q, previous + 1e-9) << "level " << level;
        EXPECT_GE(q, 0.0);
        previous = q;
    }
}

TEST(GaussianAccelerator, FilterSmoothsImage) {
    // A Gaussian blur reduces local variance.
    const img::Image scene = img::syntheticScene(48, 48, 0x10);
    const img::Image blurred = accelerator().filterExact(scene);
    double varIn = 0, varOut = 0, meanIn = 0, meanOut = 0;
    for (std::size_t i = 0; i < scene.pixelCount(); ++i) {
        meanIn += scene.pixels()[i];
        meanOut += blurred.pixels()[i];
    }
    meanIn /= static_cast<double>(scene.pixelCount());
    meanOut /= static_cast<double>(scene.pixelCount());
    for (std::size_t i = 0; i < scene.pixelCount(); ++i) {
        varIn += (scene.pixels()[i] - meanIn) * (scene.pixels()[i] - meanIn);
        varOut += (blurred.pixels()[i] - meanOut) * (blurred.pixels()[i] - meanOut);
    }
    EXPECT_LT(varOut, varIn);
    EXPECT_NEAR(meanOut, meanIn, 6.0);  // blur preserves brightness
}

TEST(GaussianAccelerator, ConfigValidation) {
    const img::Image scene = img::syntheticScene(48, 48, 0x11);
    AcceleratorConfig bad = exactConfig();
    bad.choice[GaussianAccelerator::multiplierSlot(0)] = 99;
    EXPECT_THROW(accelerator().filter(scene, bad), std::out_of_range);
    AcceleratorConfig shortConfig;
    shortConfig.choice = {0, 0, 0};
    EXPECT_THROW(accelerator().cost(shortConfig), std::out_of_range);
}

TEST(BatchAdd16Wide, MatchesScalarSimulationOnEveryBackend) {
    // 2500 lanes are two full 1024-lane blocks and a partial last block.
    // Operands carry 17 bits, like a previous level's carry-out: the adder
    // sees only bits 0..15 of each.
    const circuit::Netlist adder = gen::loaAdder(16, 6);
    circuit::Simulator scalarSim(adder);
    constexpr std::size_t kLanes = 2500;
    constexpr std::size_t kGuard = 24;
    constexpr std::uint32_t kSentinel = 0xDEADBEEFu;
    util::Rng rng(0x12);
    std::vector<std::uint32_t> a(kLanes), b(kLanes), expected(kLanes);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
        a[lane] = static_cast<std::uint32_t>(rng.uniformInt(0, 0x1FFFF));
        b[lane] = static_cast<std::uint32_t>(rng.uniformInt(0, 0x1FFFF));
        expected[lane] = static_cast<std::uint32_t>(scalarSim.evaluateScalar(
            (a[lane] & 0xFFFFu) | (static_cast<std::uint64_t>(b[lane] & 0xFFFFu) << 16)));
    }
    for (const circuit::kernels::Backend* backend : circuit::kernels::availableBackends()) {
        const circuit::kernels::ScopedBackendOverride backendOverride(backend);
        const circuit::CompiledNetlist compiled = circuit::CompiledNetlist::compile(adder);
        circuit::BatchSimulator sim(compiled);
        std::vector<circuit::CompiledNetlist::Word> inWords(32 *
                                                            circuit::BatchSimulator::kBlockWords);
        std::vector<circuit::CompiledNetlist::Word> outWords(
            compiled.outputCount() * circuit::BatchSimulator::kBlockWords);
        std::vector<std::uint32_t> out(kLanes + kGuard, kSentinel);
        batchAdd16Wide(sim, a.data(), b.data(), out.data(), kLanes, inWords, outWords);
        for (std::size_t lane = 0; lane < kLanes; ++lane)
            ASSERT_EQ(out[lane], expected[lane]) << backend->name << " lane " << lane;
        for (std::size_t lane = kLanes; lane < out.size(); ++lane)
            EXPECT_EQ(out[lane], kSentinel) << backend->name << " wrote past lane " << kLanes;
    }
    // A program without the 16+16-bit interface is rejected, not misread.
    const circuit::CompiledNetlist narrow = circuit::CompiledNetlist::compile(gen::loaAdder(8, 4));
    circuit::BatchSimulator narrowSim(narrow);
    std::vector<circuit::CompiledNetlist::Word> words(32 * circuit::BatchSimulator::kBlockWords);
    std::vector<std::uint32_t> out(kLanes);
    EXPECT_THROW(batchAdd16Wide(narrowSim, a.data(), b.data(), out.data(), kLanes, words, words),
                 std::invalid_argument);
}

TEST(AcceleratorCost, AccurateCornerCostsMoreThanCheapCorner) {
    const AcceleratorCost a = accelerator().cost(accelerator().configSpace().accurateCorner());
    const AcceleratorCost c = accelerator().cost(accelerator().configSpace().cheapCorner());
    EXPECT_GT(a.lutCount, c.lutCount);
    EXPECT_GT(a.powerMw, c.powerMw);
    EXPECT_GT(a.synthSeconds, 0.0);
}

TEST(AcceleratorCost, DeterministicPerConfig) {
    AcceleratorConfig config = exactConfig();
    config.choice[GaussianAccelerator::multiplierSlot(3)] = 1;
    config.choice[GaussianAccelerator::adderSlot(5)] = 2;
    const AcceleratorCost a = accelerator().cost(config);
    const AcceleratorCost b = accelerator().cost(config);
    EXPECT_DOUBLE_EQ(a.lutCount, b.lutCount);
    EXPECT_DOUBLE_EQ(a.latencyNs, b.latencyNs);
}

TEST(AcceleratorConfig, HashDiscriminates) {
    AcceleratorConfig a = exactConfig();
    AcceleratorConfig b = exactConfig();
    b.choice[GaussianAccelerator::adderSlot(7)] = 1;
    EXPECT_NE(a.hash(), b.hash());
    EXPECT_EQ(a.hash(), exactConfig().hash());
}

TEST(ConfigSpace, DescribesTheGaussianDatapath) {
    const ConfigSpace& space = accelerator().configSpace();
    ASSERT_EQ(space.groups.size(), 2u);
    EXPECT_EQ(space.groups[0].name, "multiplier");
    EXPECT_EQ(space.groups[0].slots, 9);
    EXPECT_EQ(space.groups[1].name, "adder");
    EXPECT_EQ(space.groups[1].slots, 8);
    EXPECT_EQ(space.slotCount(), 17u);
    EXPECT_EQ(space.menuSizeOf(0), static_cast<int>(accelerator().multiplierMenu().size()));
    EXPECT_EQ(space.menuSizeOf(16), static_cast<int>(accelerator().adderMenu().size()));
    const AcceleratorConfig cheap = space.cheapCorner();
    EXPECT_EQ(cheap.choice[0], static_cast<int>(accelerator().multiplierMenu().size()) - 1);
    EXPECT_EQ(cheap.choice[16], static_cast<int>(accelerator().adderMenu().size()) - 1);
}

TEST(ConfigFeatures, ExactConfigProfile) {
    const std::vector<double> f = accelerator().features(exactConfig());
    ASSERT_EQ(f.size(), 14u);
    EXPECT_DOUBLE_EQ(f[0], 0.0);   // mult MED mass
    EXPECT_DOUBLE_EQ(f[6], 9.0);   // exact multiplier count
    EXPECT_DOUBLE_EQ(f[13], 8.0);  // exact adder count
}

TEST(DesignSpace, SizeFormula) {
    const double size = accelerator().designSpaceSize();
    EXPECT_DOUBLE_EQ(size, std::pow(4.0, 9.0) * std::pow(3.0, 8.0));
}

TEST(QualityCostFront, MembersNonDominated) {
    std::vector<EvaluatedConfig> points(12);
    util::Rng rng(0x13);
    for (auto& p : points) {
        p.ssim = rng.uniformReal(0.3, 1.0);
        p.cost.lutCount = rng.uniformReal(100, 1000);
    }
    const std::vector<std::size_t> front = qualityCostFront(points, core::FpgaParam::Area);
    ASSERT_FALSE(front.empty());
    for (std::size_t a : front) {
        for (std::size_t b : front) {
            if (a == b) continue;
            EXPECT_FALSE(points[b].ssim >= points[a].ssim &&
                             points[b].cost.lutCount <= points[a].cost.lutCount &&
                             (points[b].ssim > points[a].ssim ||
                              points[b].cost.lutCount < points[a].cost.lutCount));
        }
    }
}

TEST(AutoAxFlow, SmallRunProducesAllScenarios) {
    AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 20;
    cfg.hillIterations = 150;
    cfg.archiveSeed = 8;
    cfg.archiveCap = 40;
    cfg.imageSize = 48;
    cfg.sceneCount = 1;
    const AutoAxFpgaFlow::Result result = AutoAxFpgaFlow(cfg).run(accelerator());

    EXPECT_EQ(result.trainingSet.size(), 22u);  // 20 random + 2 corner anchors
    ASSERT_EQ(result.scenarios.size(), 3u);
    EXPECT_GE(result.totalRealEvaluations, result.trainingSet.size());
    for (const auto& s : result.scenarios) {
        EXPECT_FALSE(s.autoax.empty());
        EXPECT_LE(s.autoax.size(), cfg.archiveCap);
        EXPECT_EQ(s.random.size(), s.realEvaluations);
        // Dedup accounting: the archive reuses training entries (at least
        // the two corners), so fresh evaluations stay below its size.
        EXPECT_LE(s.realEvaluations, s.autoax.size());
        EXPECT_GT(s.estimatorQueries, static_cast<std::size_t>(cfg.hillIterations));
        for (const EvaluatedConfig& e : s.autoax) {
            EXPECT_GE(e.ssim, -1.0);
            EXPECT_LE(e.ssim, 1.0);
            EXPECT_GT(e.cost.lutCount, 0.0);
        }
    }
}

TEST(AutoAxFlow, SearchBeatsNothingAtQualityExtreme) {
    // The archive is seeded with the all-accurate corner, so AutoAx must
    // always offer an SSIM = 1.0 design.
    AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 15;
    cfg.hillIterations = 100;
    cfg.imageSize = 48;
    cfg.sceneCount = 1;
    const AutoAxFpgaFlow::Result result = AutoAxFpgaFlow(cfg).run(accelerator());
    for (const auto& s : result.scenarios) {
        double best = 0.0;
        for (const EvaluatedConfig& e : s.autoax) best = std::max(best, e.ssim);
        EXPECT_DOUBLE_EQ(best, 1.0);
    }
}

}  // namespace
}  // namespace axf::autoax
