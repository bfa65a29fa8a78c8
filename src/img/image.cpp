#include "src/img/image.hpp"

#include <algorithm>
#include <cmath>

namespace axf::img {

namespace {

/// Bilinear value noise on a coarse lattice (Perlin-like texture term).
double valueNoise(const std::vector<double>& lattice, int cells, double u, double v) {
    const double gx = u * static_cast<double>(cells - 1);
    const double gy = v * static_cast<double>(cells - 1);
    const int x0 = static_cast<int>(gx);
    const int y0 = static_cast<int>(gy);
    const int x1 = std::min(x0 + 1, cells - 1);
    const int y1 = std::min(y0 + 1, cells - 1);
    const double fx = gx - x0;
    const double fy = gy - y0;
    const auto l = [&](int x, int y) {
        return lattice[static_cast<std::size_t>(y) * static_cast<std::size_t>(cells) +
                       static_cast<std::size_t>(x)];
    };
    const double top = l(x0, y0) * (1 - fx) + l(x1, y0) * fx;
    const double bot = l(x0, y1) * (1 - fx) + l(x1, y1) * fx;
    return top * (1 - fy) + bot * fy;
}

}  // namespace

Image syntheticScene(int width, int height, std::uint64_t seed) {
    util::Rng rng(seed);
    constexpr int kCells = 9;
    std::vector<double> lattice(kCells * kCells);
    for (double& v : lattice) v = rng.uniformReal(0.0, 1.0);

    // Random geometric content: a few disks and one rectangle.
    struct Disk {
        double cx, cy, r, value;
    };
    std::vector<Disk> disks;
    for (int i = 0; i < 4; ++i)
        disks.push_back(Disk{rng.uniformReal(0.1, 0.9), rng.uniformReal(0.1, 0.9),
                             rng.uniformReal(0.05, 0.2), rng.uniformReal(0.2, 1.0)});
    const double rx0 = rng.uniformReal(0.05, 0.5), ry0 = rng.uniformReal(0.05, 0.5);
    const double rx1 = rx0 + rng.uniformReal(0.1, 0.4), ry1 = ry0 + rng.uniformReal(0.1, 0.4);
    const double gradAngle = rng.uniformReal(0.0, 6.28318);

    Image image(width, height);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            const double u = static_cast<double>(x) / std::max(1, width - 1);
            const double v = static_cast<double>(y) / std::max(1, height - 1);
            double value = 0.35 + 0.3 * (std::cos(gradAngle) * u + std::sin(gradAngle) * v);
            value += 0.25 * valueNoise(lattice, kCells, u, v);
            for (const Disk& d : disks) {
                const double dx = u - d.cx, dy = v - d.cy;
                if (dx * dx + dy * dy < d.r * d.r) value = 0.6 * value + 0.4 * d.value;
            }
            if (u >= rx0 && u <= rx1 && v >= ry0 && v <= ry1) value = 1.0 - value;
            image.set(x, y,
                      static_cast<std::uint8_t>(std::clamp(value, 0.0, 1.0) * 255.0 + 0.5));
        }
    }
    return image;
}

double psnr(const Image& a, const Image& b) {
    double mse = 0.0;
    for (std::size_t i = 0; i < a.pixelCount(); ++i) {
        const double d =
            static_cast<double>(a.pixels()[i]) - static_cast<double>(b.pixels()[i]);
        mse += d * d;
    }
    mse /= static_cast<double>(a.pixelCount());
    if (mse <= 1e-12) return 99.0;
    return std::min(99.0, 10.0 * std::log10(255.0 * 255.0 / mse));
}

}  // namespace axf::img
