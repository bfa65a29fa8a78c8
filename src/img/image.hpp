#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/util/rng.hpp"

namespace axf::img {

/// 8-bit grayscale image with value semantics.
class Image {
public:
    Image() = default;
    Image(int width, int height, std::uint8_t fill = 0)
        : width_(width), height_(height),
          pixels_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill) {}

    int width() const { return width_; }
    int height() const { return height_; }
    std::size_t pixelCount() const { return pixels_.size(); }

    std::uint8_t at(int x, int y) const {
        return pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                       static_cast<std::size_t>(x)];
    }
    void set(int x, int y, std::uint8_t v) {
        pixels_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                static_cast<std::size_t>(x)] = v;
    }

    /// Clamped accessor (border replication for convolution).  Inline: the
    /// accelerator gathers call it 9-12 times per pixel.
    std::uint8_t atClamped(int x, int y) const {
        return at(std::clamp(x, 0, width_ - 1), std::clamp(y, 0, height_ - 1));
    }

    const std::vector<std::uint8_t>& pixels() const { return pixels_; }
    std::vector<std::uint8_t>& pixels() { return pixels_; }

private:
    int width_ = 0;
    int height_ = 0;
    std::vector<std::uint8_t> pixels_;
};

/// Deterministic synthetic test scenes: smooth gradients, geometric
/// structures, texture noise — enough spectral variety to exercise a
/// Gaussian filter the way natural benchmark images do.
Image syntheticScene(int width, int height, std::uint64_t seed);

/// Peak signal-to-noise ratio in dB (infinity-capped at 99 dB).
double psnr(const Image& a, const Image& b);

}  // namespace axf::img
