// Sobel accelerator workload: exact-config fidelity, approximation
// behaviour, cost composition, and an end-to-end AutoAx DSE smoke test
// through the same engine as the Gaussian case study.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/autoax/dse.hpp"
#include "src/autoax/sobel.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/adders.hpp"
#include "src/img/ssim.hpp"
#include "src/synth/fpga.hpp"

namespace axf::autoax {
namespace {

Component makeAdder(circuit::Netlist netlist) {
    Component c;
    c.name = netlist.name();
    c.signature = gen::adderSignature(16);
    c.error = error::analyzeError(netlist, c.signature);
    c.fpga = synth::FpgaFlow().implement(netlist);
    c.netlist = std::move(netlist);
    return c;
}

const SobelAccelerator& sobel() {
    static const SobelAccelerator kSobel = [] {
        std::vector<Component> menu;
        menu.push_back(makeAdder(gen::rippleCarryAdder(16)));
        menu.push_back(makeAdder(gen::loaAdder(16, 5)));
        menu.push_back(makeAdder(gen::loaAdder(16, 9)));
        return SobelAccelerator(std::move(menu));
    }();
    return kSobel;
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

TEST(SobelAccelerator, RejectsBadMenus) {
    EXPECT_THROW(SobelAccelerator({}), std::invalid_argument);
    const auto menuOf = [](circuit::ArithSignature signature, circuit::Netlist netlist) {
        std::vector<Component> menu(1);
        menu[0].signature = signature;
        menu[0].netlist = std::move(netlist);
        return menu;
    };
    EXPECT_THROW(SobelAccelerator(menuOf(gen::adderSignature(8), gen::rippleCarryAdder(8))),
                 std::invalid_argument);
    // A 16-bit signature over an 8-bit netlist: the program lacks the
    // 16+16 inputs, which must fail at construction, not at filter time.
    EXPECT_THROW(SobelAccelerator(menuOf(gen::adderSignature(16), gen::rippleCarryAdder(8))),
                 std::invalid_argument);
}

TEST(SobelAccelerator, FilterAndSsimMatchGoldens) {
    // Exact bits of eight random configurations on three scene shapes:
    // 64x64 (whole 1024-lane blocks), 40x40 (a partial last block) and
    // 37x29 (rows straddling block boundaries, SSIM tail windows).
    static constexpr SceneGolden kGolden[] = {
        // config 0: 64x64, 40x40, 37x29
        {0x92ab5dce48b75512ull, 0x1.ed0faa69d5009p-1},
        {0x62081457547af58cull, 0x1.f1e5a6b113b95p-1},
        {0x6e00a679508cf66dull, 0x1.f615e23724d09p-1},
        // config 1: 64x64, 40x40, 37x29
        {0x26ced060438d42f4ull, 0x1.d0400bc4fc468p-1},
        {0x9daa261d19382d9aull, 0x1.e3f4ca8dff5cfp-1},
        {0x7b44506f9e34cff7ull, 0x1.e9fadc34aed65p-1},
        // config 2: 64x64, 40x40, 37x29
        {0x5b848119290302e0ull, 0x1.ef23f2e2b6024p-1},
        {0xe408dc541a6f447dull, 0x1.f2dcf1b003b29p-1},
        {0x9bb5abe7eeeae2dfull, 0x1.f5b5883bfd229p-1},
        // config 3: 64x64, 40x40, 37x29
        {0x3fb5bffc935b0a81ull, 0x1.d7dd02c366776p-1},
        {0x7f95b4ed5f96711aull, 0x1.e4742ccd8eacap-1},
        {0xd2768a3a8044987dull, 0x1.e6dad046905acp-1},
        // config 4: 64x64, 40x40, 37x29
        {0xe1600fd66b87a0ddull, 0x1.69f1c2bfa9775p-1},
        {0xca0cb68eb21d3937ull, 0x1.679db167f2c8dp-1},
        {0xeb4203e0df9add84ull, 0x1.4e33dd8798299p-1},
        // config 5: 64x64, 40x40, 37x29
        {0xc56ab90871a3ec03ull, 0x1p+0},
        {0xe1bdac3cbf3571c8ull, 0x1p+0},
        {0xe6b44d087d585c34ull, 0x1p+0},
        // config 6: 64x64, 40x40, 37x29
        {0xc8a9c225e892e3b1ull, 0x1.d9c6d186bf11bp-1},
        {0x2111724aef8066faull, 0x1.d8cca9edd8ec6p-1},
        {0x76a9f84d526b51e5ull, 0x1.d6fb90e63671bp-1},
        // config 7: 64x64, 40x40, 37x29
        {0xc29c33844b7ef45cull, 0x1.695010e6b6e31p-1},
        {0xee3819900f25f1b5ull, 0x1.6bb842a65c738p-1},
        {0x7a8210fd153f9af4ull, 0x1.6e7f47552b5c7p-1},
    };
    util::Rng rng(0x50B1);
    std::size_t i = 0;
    for (int c = 0; c < 8; ++c) {
        const AcceleratorConfig config = sobel().configSpace().randomConfig(rng);
        for (const auto& [width, height] :
             {std::pair{64, 64}, std::pair{40, 40}, std::pair{37, 29}}) {
            const img::Image scene = img::syntheticScene(width, height, 0x61);
            const img::Image out = sobel().filter(scene, config);
            const double q = img::SsimReference(sobel().filterExact(scene)).compare(out);
            EXPECT_EQ(pixelDigest(out), kGolden[i].pixels) << "config " << c << ", " << width
                                                            << "x" << height;
            EXPECT_EQ(q, kGolden[i].ssim)
                << "config " << c << ", " << width << "x" << height << ": " << std::hexfloat << q;
            ++i;
        }
    }
}

TEST(SobelAccelerator, ConfigSpaceIsThreeAdderSlots) {
    const ConfigSpace& space = sobel().configSpace();
    ASSERT_EQ(space.groups.size(), 1u);
    EXPECT_EQ(space.groups[0].name, "adder");
    EXPECT_EQ(space.groups[0].slots, 3);
    EXPECT_DOUBLE_EQ(sobel().designSpaceSize(), 27.0);
}

TEST(SobelAccelerator, ExactConfigMatchesReference) {
    // With exact adders in every slot the behavioural pipeline (bias,
    // two's-complement subtraction, 16-bit truncation) must collapse to
    // the plain Sobel arithmetic.
    const img::Image scene = img::syntheticScene(48, 48, 0x5E);
    const AcceleratorConfig exact = sobel().configSpace().accurateCorner();
    EXPECT_EQ(sobel().filter(scene, exact).pixels(), sobel().filterExact(scene).pixels());
    EXPECT_DOUBLE_EQ(sobel().quality(exact, {scene}), 1.0);
}

TEST(SobelAccelerator, EdgesDetected) {
    // A vertical step edge must light up its column and stay dark in flat
    // regions.
    img::Image step(32, 32, 0);
    for (int y = 0; y < 32; ++y)
        for (int x = 16; x < 32; ++x) step.set(x, y, 200);
    const img::Image out = sobel().filterExact(step);
    EXPECT_GT(out.at(16, 16), 100);  // on the edge
    EXPECT_EQ(out.at(4, 16), 0);     // flat left region
    EXPECT_EQ(out.at(28, 16), 0);    // flat right region
}

TEST(SobelAccelerator, ApproximationDegradesQuality) {
    const std::vector<img::Image> scenes = {img::syntheticScene(48, 48, 0x5F)};
    const double exact = sobel().quality(sobel().configSpace().accurateCorner(), scenes);
    const double cheap = sobel().quality(sobel().configSpace().cheapCorner(), scenes);
    EXPECT_DOUBLE_EQ(exact, 1.0);
    EXPECT_LT(cheap, exact);
    EXPECT_GT(cheap, 0.0);  // still recognizably the same image
}

TEST(SobelAccelerator, CostComposesAndDiscriminates) {
    const AcceleratorCost accurate = sobel().cost(sobel().configSpace().accurateCorner());
    const AcceleratorCost cheap = sobel().cost(sobel().configSpace().cheapCorner());
    EXPECT_GT(accurate.lutCount, cheap.lutCount);
    EXPECT_GT(accurate.powerMw, cheap.powerMw);
    EXPECT_GT(cheap.lutCount, 0.0);
    // Deterministic per config.
    const AcceleratorCost again = sobel().cost(sobel().configSpace().accurateCorner());
    EXPECT_DOUBLE_EQ(accurate.lutCount, again.lutCount);
}

TEST(SobelAccelerator, FeatureVectorShape) {
    const std::vector<double> f = sobel().features(sobel().configSpace().accurateCorner());
    ASSERT_EQ(f.size(), 7u);
    EXPECT_DOUBLE_EQ(f[0], 0.0);  // MED mass of the exact corner
}

TEST(SobelAccelerator, OversizedTrainingBudgetTerminates) {
    // 27 distinct configs exist; a default-sized training request must cap
    // at the design-space size instead of spinning forever on rejection
    // sampling.
    AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 100;  // > designSpaceSize() == 27
    cfg.hillIterations = 20;
    cfg.archiveSeed = 4;
    cfg.archiveCap = 10;
    cfg.imageSize = 48;
    cfg.sceneCount = 1;
    const AutoAxFpgaFlow::Result result = AutoAxFpgaFlow(cfg).run(sobel());
    EXPECT_LE(result.trainingSet.size(), 27u);
    EXPECT_GE(result.trainingSet.size(), 20u);  // nearly the whole space found
}

TEST(SobelAccelerator, EndToEndDseSmoke) {
    // The full AutoAx flow over the Sobel workload: all three scenarios,
    // corners reachable, dedup accounting intact.  27 configs means the
    // memo carries most of the weight — realEvaluations must stay small.
    AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 10;
    cfg.hillIterations = 60;
    cfg.archiveSeed = 4;
    cfg.archiveCap = 20;
    cfg.imageSize = 48;
    cfg.sceneCount = 1;
    const AutoAxFpgaFlow::Result result = AutoAxFpgaFlow(cfg).run(sobel());
    ASSERT_EQ(result.scenarios.size(), 3u);
    // 27 distinct configs exist in total; the memo must cap total fresh
    // simulations at that.
    EXPECT_LE(result.totalRealEvaluations, 27u);
    for (const auto& s : result.scenarios) {
        EXPECT_FALSE(s.autoax.empty());
        EXPECT_EQ(s.random.size(), s.realEvaluations);
        double best = 0.0;
        for (const EvaluatedConfig& e : s.autoax) best = std::max(best, e.ssim);
        EXPECT_DOUBLE_EQ(best, 1.0);  // exact corner always offered
    }
}

}  // namespace
}  // namespace axf::autoax
