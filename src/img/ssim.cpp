#include "src/img/ssim.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace axf::img {

namespace {

constexpr int kWindow = 8;
constexpr int kStride = 4;  // half-overlapping windows
constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);

/// Window start coordinates along one dimension: the stride-4 sweep plus a
/// clamped tail window so the right/bottom border is always scored even
/// when `(dim - window) % stride != 0`.  On aligned dimensions the tail
/// coincides with the last stride position and nothing is added, keeping
/// historical scores unchanged there.
std::vector<int> windowStarts(int dim, int window, int stride) {
    std::vector<int> starts;
    for (int v = 0; v + window <= dim; v += stride) starts.push_back(v);
    if (starts.back() + window < dim) starts.push_back(dim - window);
    return starts;
}

}  // namespace

SsimReference::SsimReference(const Image& reference)
    : width_(reference.width()), height_(reference.height()), pixels_(reference.pixels()) {
    if (width_ < kWindow || height_ < kWindow)
        throw std::invalid_argument("ssim: image too small");
    ys_ = windowStarts(height_, kWindow, kStride);
    xs_ = windowStarts(width_, kWindow, kStride);
    stats_.reserve(ys_.size() * xs_.size());
    for (const int y0 : ys_) {
        for (const int x0 : xs_) {
            WindowStat s;
            for (int y = y0; y < y0 + kWindow; ++y) {
                for (int x = x0; x < x0 + kWindow; ++x) {
                    const double a = reference.at(x, y);
                    s.sumA += a;
                    s.sumAA += a * a;
                }
            }
            stats_.push_back(s);
        }
    }
}

double SsimReference::compare(const Image& distorted) const {
    if (width_ != distorted.width() || height_ != distorted.height())
        throw std::invalid_argument("ssim: image dimensions differ");
    double total = 0.0;
    std::size_t windows = 0;
    const std::uint8_t* ref = pixels_.data();
    const std::uint8_t* dist = distorted.pixels().data();
    const auto width = static_cast<std::size_t>(width_);
    for (std::size_t yi = 0; yi < ys_.size(); ++yi) {
        const auto y0 = static_cast<std::size_t>(ys_[yi]);
        for (std::size_t xi = 0; xi < xs_.size(); ++xi) {
            const auto x0 = static_cast<std::size_t>(xs_[xi]);
            const WindowStat& s = stats_[yi * xs_.size() + xi];
            // Integer window sums: each is at most 64 * 255^2 < 2^32, and an
            // integer that size is exact in a double, so these equal the
            // double accumulation of the same pixels bit for bit.
            std::uint32_t sumB = 0, sumBB = 0, sumAB = 0;
            for (std::size_t y = y0; y < y0 + kWindow; ++y) {
                const std::uint8_t* a = ref + y * width + x0;
                const std::uint8_t* b = dist + y * width + x0;
                for (std::size_t x = 0; x < kWindow; ++x) {
                    const std::uint32_t vb = b[x];
                    sumB += vb;
                    sumBB += vb * vb;
                    sumAB += a[x] * vb;
                }
            }
            constexpr double n = kWindow * kWindow;
            const double muA = s.sumA / n;
            const double muB = static_cast<double>(sumB) / n;
            const double varA = s.sumAA / n - muA * muA;
            const double varB = static_cast<double>(sumBB) / n - muB * muB;
            const double cov = static_cast<double>(sumAB) / n - muA * muB;
            const double value = ((2.0 * muA * muB + kC1) * (2.0 * cov + kC2)) /
                                 ((muA * muA + muB * muB + kC1) * (varA + varB + kC2));
            total += value;
            ++windows;
        }
    }
    return windows == 0 ? 1.0 : total / static_cast<double>(windows);
}

double ssim(const Image& reference, const Image& distorted) {
    return SsimReference(reference).compare(distorted);
}

}  // namespace axf::img
