#include "src/autoax/sobel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::autoax {

using circuit::BatchSimulator;
using circuit::CompiledNetlist;
using Word = CompiledNetlist::Word;

namespace {

/// Pixel-loop tile and buffer sizing: one simulator block.
constexpr std::size_t kBlockWords = BatchSimulator::kBlockWords;
constexpr std::size_t kBlockLanes = BatchSimulator::kBlockLanes;

/// Bias keeping both gradient operands non-negative on the unsigned adder
/// interface: |column/row sums| <= 1020 < 4096, and the biased operand
/// stays < 2^13, far inside the 16-bit datapath.
constexpr std::uint32_t kBias = 1u << 12;

}  // namespace

SobelAccelerator::SobelAccelerator(std::vector<Component> adderMenu)
    : adders_(std::move(adderMenu)) {
    if (adders_.empty()) throw std::invalid_argument("SobelAccelerator: empty adder menu");
    for (const Component& c : adders_)
        if (c.signature.op != circuit::ArithOp::Adder || c.signature.widthA != 16 ||
            c.netlist.inputCount() != 32 || c.netlist.outputCount() > 32)
            throw std::invalid_argument(
                "SobelAccelerator: adder menu needs 16-bit adders (32 inputs, at most 32 "
                "outputs)");
    space_.groups = {{"adder", kAdderSlots, static_cast<int>(adders_.size())}};

    adderCompiled_.resize(adders_.size());
    util::ThreadPool::global().parallelFor(adders_.size(), [&](std::size_t i) {
        adderCompiled_[i] = CompiledNetlist::compile(adders_[i].netlist);
    });
}

/// Per-thread scratch: one rebindable simulator workspace per datapath
/// adder plus the shared word blocks (same pattern as the Gaussian model).
struct SobelAccelerator::WorkspaceImpl : AcceleratorModel::Workspace {
    std::vector<BatchSimulator> sims;
    std::vector<Word> inWords;
    std::vector<Word> outWords;
};

std::unique_ptr<AcceleratorModel::Workspace> SobelAccelerator::makeWorkspace() const {
    auto ws = std::make_unique<WorkspaceImpl>();
    ws->inWords.resize(32 * kBlockWords);
    return ws;
}

img::Image SobelAccelerator::filter(const img::Image& input, const AcceleratorConfig& config,
                                    Workspace& workspace) const {
    space_.validate(config);
    auto& ws = dynamic_cast<WorkspaceImpl&>(workspace);

    std::size_t maxOutputs = 0;
    for (int slot = 0; slot < kAdderSlots; ++slot) {
        const auto& compiled =
            adderCompiled_[static_cast<std::size_t>(config.choice[static_cast<std::size_t>(slot)])];
        maxOutputs = std::max(maxOutputs, compiled.outputCount());
        if (ws.sims.size() <= static_cast<std::size_t>(slot))
            ws.sims.emplace_back(compiled);
        else
            ws.sims[static_cast<std::size_t>(slot)].rebind(compiled);
    }
    if (ws.outWords.size() < maxOutputs * kBlockWords) ws.outWords.resize(maxOutputs * kBlockWords);

    img::Image output(input.width(), input.height());
    const std::size_t total = input.pixelCount();

    std::array<std::uint32_t, kBlockLanes> ax{}, bx{}, gx{}, ay{}, by{}, gy{}, adx{}, ady{}, mag{};
    const auto add = [&](int slot, const std::array<std::uint32_t, kBlockLanes>& a,
                         const std::array<std::uint32_t, kBlockLanes>& b,
                         std::array<std::uint32_t, kBlockLanes>& out, std::size_t lanes) {
        BatchSimulator& sim = ws.sims[static_cast<std::size_t>(slot)];
        batchAdd16Wide(sim, a.data(), b.data(), out.data(), lanes, ws.inWords,
                       ws.outWords);
    };

    for (std::size_t base = 0; base < total; base += kBlockLanes) {
        const std::size_t lanes = std::min<std::size_t>(kBlockLanes, total - base);
        // Over the row-major neighbourhood n (n[4] = the pixel):
        // gx = (n[2] + 2n[5] + n[8]) - (n[0] + 2n[3] + n[6]) and
        // gy = (n[6] + 2n[7] + n[8]) - (n[0] + 2n[1] + n[2]).  The 1-2-1
        // accumulations are shift-adds (exact in hardware), the wide
        // subtraction is the approximate adder as a + (~b) + 1 with the +1
        // folded into the bias term.
        gather3x3(input, base, lanes, [&](std::size_t lane, const std::array<std::uint32_t, 9>& n) {
            ax[lane] = n[2] + 2 * n[5] + n[8] + kBias;
            bx[lane] = (~(n[0] + 2 * n[3] + n[6]) + 1) & 0xFFFFu;
            ay[lane] = n[6] + 2 * n[7] + n[8] + kBias;
            by[lane] = (~(n[0] + 2 * n[1] + n[2]) + 1) & 0xFFFFu;
        });
        add(0, ax, bx, gx, lanes);
        add(1, ay, by, gy, lanes);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            const int dx = static_cast<int>(gx[lane] & 0xFFFFu) - static_cast<int>(kBias);
            const int dy = static_cast<int>(gy[lane] & 0xFFFFu) - static_cast<int>(kBias);
            adx[lane] = static_cast<std::uint32_t>(std::abs(dx)) & 0xFFFFu;
            ady[lane] = static_cast<std::uint32_t>(std::abs(dy)) & 0xFFFFu;
        }
        add(2, adx, ady, mag, lanes);
        std::uint8_t* pixels = output.pixels().data() + base;
        for (std::size_t lane = 0; lane < lanes; ++lane)
            pixels[lane] =
                static_cast<std::uint8_t>(std::min<std::uint32_t>(255u, (mag[lane] & 0xFFFFu) / 4));
    }
    return output;
}

img::Image SobelAccelerator::filterExact(const img::Image& input) const {
    img::Image output(input.width(), input.height());
    for (int y = 0; y < input.height(); ++y) {
        for (int x = 0; x < input.width(); ++x) {
            const auto p = [&](int dx, int dy) {
                return static_cast<int>(input.atClamped(x + dx, y + dy));
            };
            const int dx = (p(1, -1) + 2 * p(1, 0) + p(1, 1)) -
                           (p(-1, -1) + 2 * p(-1, 0) + p(-1, 1));
            const int dy = (p(-1, 1) + 2 * p(0, 1) + p(1, 1)) -
                           (p(-1, -1) + 2 * p(0, -1) + p(1, -1));
            output.set(x, y, static_cast<std::uint8_t>(
                                 std::min(255, (std::abs(dx) + std::abs(dy)) / 4)));
        }
    }
    return output;
}

AcceleratorCost SobelAccelerator::cost(const AcceleratorConfig& config) const {
    space_.validate(config);
    AcceleratorCost cost;
    std::array<double, kAdderSlots> latency{};
    for (int slot = 0; slot < kAdderSlots; ++slot) {
        const Component& c =
            adders_[static_cast<std::size_t>(config.choice[static_cast<std::size_t>(slot)])];
        cost.lutCount += c.fpga.lutCount;
        cost.powerMw += c.fpga.powerMw;
        cost.synthSeconds += 0.25 * c.fpga.synthSeconds;
        latency[static_cast<std::size_t>(slot)] = c.fpga.latencyNs;
    }
    // gx and gy run in parallel; the magnitude add is serial behind them.
    cost.latencyNs = std::max(latency[0], latency[1]) + latency[2];

    // Shift-add row/column sums, two's-complement negate, |.| units, line
    // buffers, and P&R variance.
    cost.lutCount += 46.0;
    cost.powerMw += 0.21;
    cost.latencyNs += 1.1;
    cost.synthSeconds += 60.0;
    util::Rng jitter(config.hash() ^ 0x50BE1ull);
    cost.lutCount *= 1.0 + jitter.uniformReal(-0.02, 0.02);
    cost.powerMw *= 1.0 + jitter.uniformReal(-0.03, 0.03);
    cost.latencyNs *= 1.0 + jitter.uniformReal(-0.03, 0.03);
    return cost;
}

std::vector<double> SobelAccelerator::features(const AcceleratorConfig& config) const {
    space_.validate(config);
    double medSum = 0, medMax = 0, wceSum = 0, lut = 0, pow = 0, latSum = 0, exactCount = 0;
    for (int slot = 0; slot < kAdderSlots; ++slot) {
        const Component& c =
            adders_[static_cast<std::size_t>(config.choice[static_cast<std::size_t>(slot)])];
        // The magnitude slot sees already-differenced operands: errors
        // there hit the output directly, so it carries full weight like
        // the gradient slots.
        medSum += c.error.med;
        medMax = std::max(medMax, c.error.med);
        wceSum += c.error.worstCaseError;
        lut += c.fpga.lutCount;
        pow += c.fpga.powerMw;
        latSum += c.fpga.latencyNs;
        if (c.error.observedExact()) exactCount += 1.0;
    }
    return {medSum, medMax, std::log1p(wceSum), lut, pow, latSum, exactCount};
}

}  // namespace axf::autoax
