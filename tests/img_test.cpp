#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/img/image.hpp"
#include "src/img/ssim.hpp"
#include "src/util/rng.hpp"

namespace axf::img {
namespace {

TEST(Image, BasicAccessAndClamping) {
    Image im(4, 3, 7);
    EXPECT_EQ(im.width(), 4);
    EXPECT_EQ(im.height(), 3);
    EXPECT_EQ(im.pixelCount(), 12u);
    EXPECT_EQ(im.at(2, 1), 7);
    im.set(2, 1, 200);
    EXPECT_EQ(im.at(2, 1), 200);
    EXPECT_EQ(im.atClamped(-5, 1), im.at(0, 1));
    EXPECT_EQ(im.atClamped(99, 99), im.at(3, 2));
}

TEST(Image, SyntheticSceneDeterministicAndVaried) {
    const Image a = syntheticScene(64, 64, 42);
    const Image b = syntheticScene(64, 64, 42);
    EXPECT_EQ(a.pixels(), b.pixels());
    const Image c = syntheticScene(64, 64, 43);
    EXPECT_NE(a.pixels(), c.pixels());

    // Scene must have real contrast (not flat).
    int minV = 255, maxV = 0;
    for (std::uint8_t p : a.pixels()) {
        minV = std::min<int>(minV, p);
        maxV = std::max<int>(maxV, p);
    }
    EXPECT_GT(maxV - minV, 80);
}

TEST(Psnr, IdenticalImagesCapped) {
    const Image a = syntheticScene(32, 32, 1);
    EXPECT_DOUBLE_EQ(psnr(a, a), 99.0);
}

TEST(Psnr, DecreasesWithNoise) {
    const Image a = syntheticScene(64, 64, 2);
    util::Rng rng(3);
    Image mild = a, strong = a;
    for (std::size_t i = 0; i < a.pixelCount(); ++i) {
        mild.pixels()[i] = static_cast<std::uint8_t>(
            std::clamp<int>(a.pixels()[i] + static_cast<int>(rng.gaussian(0, 2)), 0, 255));
        strong.pixels()[i] = static_cast<std::uint8_t>(
            std::clamp<int>(a.pixels()[i] + static_cast<int>(rng.gaussian(0, 25)), 0, 255));
    }
    EXPECT_GT(psnr(a, mild), psnr(a, strong));
    EXPECT_GT(psnr(a, strong), 10.0);
}

TEST(Ssim, IdenticalIsOne) {
    const Image a = syntheticScene(64, 64, 4);
    EXPECT_DOUBLE_EQ(ssim(a, a), 1.0);
}

TEST(Ssim, BoundedAndMonotoneInDistortion) {
    const Image a = syntheticScene(64, 64, 5);
    util::Rng rng(6);
    Image mild = a, strong = a;
    for (std::size_t i = 0; i < a.pixelCount(); ++i) {
        mild.pixels()[i] = static_cast<std::uint8_t>(
            std::clamp<int>(a.pixels()[i] + static_cast<int>(rng.gaussian(0, 4)), 0, 255));
        strong.pixels()[i] = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
    const double sMild = ssim(a, mild);
    const double sStrong = ssim(a, strong);
    EXPECT_LT(sStrong, sMild);
    EXPECT_LT(sMild, 1.0);
    EXPECT_GE(sMild, 0.5);
    EXPECT_GE(sStrong, -1.0);
    EXPECT_LE(sStrong, 0.6);
}

TEST(Ssim, ConstantShiftPenalizedLessThanStructureLoss) {
    const Image a = syntheticScene(64, 64, 7);
    Image shifted = a;
    for (auto& p : shifted.pixels())
        p = static_cast<std::uint8_t>(std::min(255, p + 8));  // luminance shift
    Image flat(64, 64, 128);  // structure destroyed
    EXPECT_GT(ssim(a, shifted), ssim(a, flat));
}

TEST(Ssim, BorderArtifactsAreScoredOnUnalignedDimensions) {
    // 70 - 8 = 62, 62 % 4 != 0: the stride-4 sweep alone stops at x0 = 60,
    // so columns 68..69 (and rows 68..69) fall outside every window.  The
    // clamped tail windows must pick them up.
    const Image a = syntheticScene(70, 70, 9);
    Image distorted = a;
    for (int y = 0; y < 70; ++y)
        for (int x = 68; x < 70; ++x)
            distorted.set(x, y, static_cast<std::uint8_t>(255 - distorted.at(x, y)));
    EXPECT_LT(ssim(a, distorted), 1.0);

    Image bottomRow = a;
    for (int x = 0; x < 70; ++x)
        bottomRow.set(x, 69, static_cast<std::uint8_t>(255 - bottomRow.at(x, 69)));
    EXPECT_LT(ssim(a, bottomRow), 1.0);
}

/// Naive SSIM: every window re-summed in doubles straight from both
/// images, over the stride-4 window starts plus the clamped tail start.
double naiveSsim(const Image& a, const Image& b) {
    constexpr int kWindow = 8, kStride = 4;
    constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
    constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
    const auto starts = [](int dim) {
        std::vector<int> v;
        for (int s = 0; s + kWindow <= dim; s += kStride) v.push_back(s);
        if (v.back() + kWindow < dim) v.push_back(dim - kWindow);
        return v;
    };
    double total = 0.0;
    std::size_t windows = 0;
    for (const int y0 : starts(a.height())) {
        for (const int x0 : starts(a.width())) {
            double sumA = 0, sumB = 0, sumAA = 0, sumBB = 0, sumAB = 0;
            for (int y = y0; y < y0 + kWindow; ++y) {
                for (int x = x0; x < x0 + kWindow; ++x) {
                    const double va = a.at(x, y), vb = b.at(x, y);
                    sumA += va;
                    sumB += vb;
                    sumAA += va * va;
                    sumBB += vb * vb;
                    sumAB += va * vb;
                }
            }
            constexpr double n = kWindow * kWindow;
            const double muA = sumA / n, muB = sumB / n;
            const double varA = sumAA / n - muA * muA, varB = sumBB / n - muB * muB;
            const double cov = sumAB / n - muA * muB;
            total += ((2.0 * muA * muB + kC1) * (2.0 * cov + kC2)) /
                     ((muA * muA + muB * muB + kC1) * (varA + varB + kC2));
            ++windows;
        }
    }
    return total / static_cast<double>(windows);
}

TEST(Ssim, MatchesNaiveDoubleReferenceBitForBit) {
    // Aligned shapes (64x64, 52x44, 8x8: the tail start coincides with the
    // last stride position) and an unaligned one (37x29: tail windows in
    // both dimensions).  Both the one-shot `ssim` and a held
    // `SsimReference` must reproduce the naive sums to the last bit.
    for (const auto& [width, height] :
         {std::pair{64, 64}, std::pair{52, 44}, std::pair{37, 29}, std::pair{8, 8}}) {
        const Image a = syntheticScene(width, height, 10);
        const Image b = syntheticScene(width, height, 11);
        const std::uint64_t expected = std::bit_cast<std::uint64_t>(naiveSsim(a, b));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ssim(a, b)), expected) << width << "x" << height;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(SsimReference(a).compare(b)), expected)
            << width << "x" << height;
    }
}

TEST(Ssim, ShapeChecks) {
    const Image a = syntheticScene(32, 32, 8);
    const Image b = syntheticScene(16, 16, 8);
    EXPECT_THROW(ssim(a, b), std::invalid_argument);
    const Image tiny(4, 4, 0);
    EXPECT_THROW(ssim(tiny, tiny), std::invalid_argument);
}

}  // namespace
}  // namespace axf::img
