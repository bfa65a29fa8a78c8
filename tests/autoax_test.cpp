#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/autoax/accelerator.hpp"
#include "src/autoax/dse.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/kernels.hpp"
#include "src/circuit/simulator.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/multipliers.hpp"
#include "src/img/ssim.hpp"
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

/// A menu entry without error or FPGA characterization, for netlists
/// `analyzeError` rejects (the accelerator builds only on the netlist).
Component uncharacterized(circuit::Netlist netlist, circuit::ArithSignature sig) {
    Component c;
    c.name = netlist.name();
    c.signature = sig;
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

/// A degenerate 8x8 multiplier whose every output is constant 1 (product
/// 65535): two of them overflow a 16-bit adder into its carry-out.
circuit::Netlist allOnesMultiplier() {
    circuit::Netlist ones("mul8_allones");
    for (int i = 0; i < 16; ++i) ones.addInput();
    const circuit::NodeId one = ones.addConst(true);
    for (int i = 0; i < 16; ++i) ones.markOutput(one);
    return ones;
}

/// A 16+16-input adder with only 12 outputs, the carry-free sums a_i ^ b_i
/// of the low bits: the next adder level must see zeros in bits 12..15.
circuit::Netlist narrowXorAdder() {
    circuit::Netlist net("add16_xor12");
    std::vector<circuit::NodeId> a, b;
    for (int i = 0; i < 16; ++i) a.push_back(net.addInput());
    for (int i = 0; i < 16; ++i) b.push_back(net.addInput());
    for (std::size_t i = 0; i < 12; ++i)
        net.markOutput(net.addGate(circuit::GateKind::Xor, a[i], b[i]));
    return net;
}

/// FNV-1a over the pixels of an image.
std::uint64_t pixelDigest(const img::Image& image) {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t p : image.pixels()) h = (h ^ p) * 1099511628211ull;
    return h;
}

/// Exact bits of one filtered scene: the output pixels and their SSIM
/// against the exact filter.
struct SceneGolden {
    std::uint64_t pixels;  ///< pixelDigest of `filter`
    double ssim;           ///< SsimReference(filterExact).compare(filter)
};

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
    // A 16-bit signature over an 8-bit netlist: the program lacks the
    // 16+16 inputs, which must fail at construction, not at filter time.
    std::vector<Component> mislabeled;
    mislabeled.push_back(uncharacterized(gen::rippleCarryAdder(8), gen::adderSignature(16)));
    EXPECT_THROW(GaussianAccelerator(multiplierMenu(), std::move(mislabeled)),
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
    std::vector<Component> mults;
    mults.push_back(makeComponent(allOnesMultiplier(), gen::multiplierSignature(8)));
    std::vector<Component> adds;
    adds.push_back(makeComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
    const GaussianAccelerator accel(std::move(mults), std::move(adds));

    const img::Image scene = img::syntheticScene(40, 40, 0x21);
    const img::Image out = accel.filter(scene, accel.configSpace().accurateCorner());
    for (std::size_t i = 0; i < out.pixelCount(); ++i)
        ASSERT_EQ(out.pixels()[i], 255) << "pixel " << i;
}

TEST(GaussianAccelerator, FilterMatchesScalarNetlistOracle) {
    // Every pixel recomputed from the netlists with the scalar simulator:
    // the nine tap products, then the eight adder nodes with operands
    // truncated to the 16-bit adder interface at each level.  The menus
    // add the all-ones multiplier (17-bit carry-outs) and the 12-output
    // adder.  One workspace is held across configs, and each scene opens
    // with two fixed ones: all-ones products summed by full adders set
    // bits 12..15 of every level-1 operand, then 12-output level-1 nodes
    // feed full adders, which must read zeros there, not stale bits.
    std::vector<Component> mults;
    mults.push_back(makeComponent(gen::wallaceMultiplier(8), gen::multiplierSignature(8)));
    mults.push_back(makeComponent(gen::truncatedMultiplier(8, 5), gen::multiplierSignature(8)));
    mults.push_back(makeComponent(allOnesMultiplier(), gen::multiplierSignature(8)));
    std::vector<Component> adds;
    adds.push_back(makeComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
    adds.push_back(makeComponent(gen::loaAdder(16, 6), gen::adderSignature(16)));
    adds.push_back(uncharacterized(narrowXorAdder(), gen::adderSignature(16)));
    std::vector<circuit::Simulator> multSims, addSims;
    for (const Component& c : mults) multSims.emplace_back(c.netlist);
    for (const Component& c : adds) addSims.emplace_back(c.netlist);
    const GaussianAccelerator accel(std::move(mults), std::move(adds));
    const std::unique_ptr<AcceleratorModel::Workspace> workspace = accel.makeWorkspace();

    constexpr int kAllOnes = 2, kNarrow = 2;
    AcceleratorConfig wideAllOnes = accel.configSpace().accurateCorner();
    AcceleratorConfig narrowLevel1 = wideAllOnes;
    for (int slot = 0; slot < GaussianAccelerator::kMultiplierSlots; ++slot)
        wideAllOnes.choice[GaussianAccelerator::multiplierSlot(slot)] = kAllOnes;
    for (int node = 0; node < 4; ++node)
        narrowLevel1.choice[GaussianAccelerator::adderSlot(node)] = kNarrow;
    util::Rng rng(0x0AC1E);
    for (const auto& [width, height] : {std::pair{37, 29}, std::pair{40, 40}}) {
        const img::Image scene = img::syntheticScene(width, height, 0x0A);
        std::vector<AcceleratorConfig> configs = {wideAllOnes, narrowLevel1};
        for (int trial = 0; trial < 4; ++trial)
            configs.push_back(accel.configSpace().randomConfig(rng));
        for (std::size_t trial = 0; trial < configs.size(); ++trial) {
            const AcceleratorConfig& config = configs[trial];
            const auto choice = [&config](std::size_t slot) {
                return static_cast<std::size_t>(config.choice[slot]);
            };
            const auto add = [&](int node, std::uint64_t a, std::uint64_t b) {
                return addSims[choice(GaussianAccelerator::adderSlot(node))].evaluateScalar(
                    (a & 0xFFFFu) | ((b & 0xFFFFu) << 16));
            };

            const img::Image out = accel.filter(scene, config, *workspace);
            for (int y = 0; y < height; ++y) {
                for (int x = 0; x < width; ++x) {
                    std::array<std::uint64_t, 9> p{};
                    for (int slot = 0; slot < 9; ++slot) {
                        const std::uint64_t pix =
                            scene.atClamped(x + slot % 3 - 1, y + slot / 3 - 1);
                        const auto weight = static_cast<std::uint64_t>(
                            GaussianAccelerator::kernelWeights()[static_cast<std::size_t>(slot)]);
                        p[static_cast<std::size_t>(slot)] =
                            multSims[choice(GaussianAccelerator::multiplierSlot(slot))]
                                .evaluateScalar(pix | (weight << 8)) &
                            0xFFFFu;
                    }
                    const std::uint64_t l2a = add(4, add(0, p[0], p[1]), add(1, p[2], p[3]));
                    const std::uint64_t l2b = add(5, add(2, p[4], p[5]), add(3, p[6], p[7]));
                    const std::uint64_t sum = add(7, add(6, l2a, l2b), p[8]);
                    ASSERT_EQ(out.at(x, y), std::min<std::uint64_t>(255, sum >> 4))
                        << width << "x" << height << " config " << trial << " pixel (" << x
                        << ", " << y << ")";
                }
            }
        }
    }
}

TEST(GaussianAccelerator, FilterAndSsimMatchGoldens) {
    // Exact bits of eight random approximate configurations on three scene
    // shapes: 64x64 (whole 1024-lane blocks), 40x40 (a partial last block)
    // and 37x29 (rows straddling block boundaries, SSIM tail windows).
    static constexpr SceneGolden kGolden[] = {
        // config 0: 64x64, 40x40, 37x29
        {0xd7558341807943a0ull, 0x1.82d745398aaacp-1},
        {0x150b14552b2fb127ull, 0x1.8e7d1a5e75046p-1},
        {0x6da62835ee73257cull, 0x1.9c3030a9087dp-1},
        // config 1: 64x64, 40x40, 37x29
        {0x5cad1251a1560f32ull, 0x1.c7ab77d06533bp-1},
        {0x24b24318c671b3c5ull, 0x1.cf108faa66931p-1},
        {0x0e6e8b8a151d2fccull, 0x1.d66654c239568p-1},
        // config 2: 64x64, 40x40, 37x29
        {0xc2d47e70256ec39full, 0x1.ca2478ed31e9ap-1},
        {0x30d3d5a4f4a53090ull, 0x1.d1a4788668d24p-1},
        {0x35d448539a679970ull, 0x1.d5846521f7071p-1},
        // config 3: 64x64, 40x40, 37x29
        {0x6d593aebf3df1d18ull, 0x1.a9ea1d013bdeep-1},
        {0x1ff998d39137bcaaull, 0x1.b2cb1a40c237dp-1},
        {0x1831a77436979cebull, 0x1.b7df85cc9a5d1p-1},
        // config 4: 64x64, 40x40, 37x29
        {0xfbdd57cfb6ea942bull, 0x1.adf317d042248p-1},
        {0xb8d807342b367c79ull, 0x1.b5953a5c22a55p-1},
        {0x459a38a245376aeeull, 0x1.c27b58264e4e1p-1},
        // config 5: 64x64, 40x40, 37x29
        {0x2d8a1b16293655b2ull, 0x1.c49d11e9f459p-1},
        {0x3933314c8620eb12ull, 0x1.ccaf9353e3613p-1},
        {0x8f064322bcc0611dull, 0x1.d6e638e2ea5d4p-1},
        // config 6: 64x64, 40x40, 37x29
        {0xbf2aa41e702b7695ull, 0x1.c93dc2d518ca2p-1},
        {0xd618aa574e89c1feull, 0x1.d3507623ff0fep-1},
        {0x00389843db2b16e4ull, 0x1.da5aa3565eb1p-1},
        // config 7: 64x64, 40x40, 37x29
        {0xbcff5991a63ab21dull, 0x1.bd15d338b3bafp-1},
        {0x2cdf9793d8252358ull, 0x1.c327e886c1da6p-1},
        {0x143310c8585b63faull, 0x1.c2f860cbfbfb5p-1},
    };
    util::Rng rng(0x601D);
    std::size_t i = 0;
    for (int c = 0; c < 8; ++c) {
        const AcceleratorConfig config = accelerator().configSpace().randomConfig(rng);
        for (const auto& [width, height] :
             {std::pair{64, 64}, std::pair{40, 40}, std::pair{37, 29}}) {
            const img::Image scene = img::syntheticScene(width, height, 0x60);
            const img::Image out = accelerator().filter(scene, config);
            const double q = img::SsimReference(accelerator().filterExact(scene)).compare(out);
            EXPECT_EQ(pixelDigest(out), kGolden[i].pixels) << "config " << c << ", " << width
                                                            << "x" << height;
            EXPECT_EQ(q, kGolden[i].ssim)
                << "config " << c << ", " << width << "x" << height << ": " << std::hexfloat << q;
            ++i;
        }
    }
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
