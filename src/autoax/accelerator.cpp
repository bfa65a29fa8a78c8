#include "src/autoax/accelerator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "src/circuit/batch_sim.hpp"
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

}  // namespace

const std::array<int, 9>& GaussianAccelerator::kernelWeights() {
    static const std::array<int, 9> kWeights = {1, 2, 1, 2, 4, 2, 1, 2, 1};
    return kWeights;
}

GaussianAccelerator::GaussianAccelerator(std::vector<Component> multiplierMenu,
                                         std::vector<Component> adderMenu,
                                         cache::CharacterizationCache* cache)
    : multipliers_(std::move(multiplierMenu)), adders_(std::move(adderMenu)) {
    if (multipliers_.empty() || adders_.empty())
        throw std::invalid_argument("GaussianAccelerator: empty component menu");
    for (const Component& c : multipliers_)
        if (c.signature.op != circuit::ArithOp::Multiplier || c.signature.widthA != 8)
            throw std::invalid_argument("GaussianAccelerator: multiplier menu needs 8x8 mults");
    for (const Component& c : adders_)
        if (c.signature.op != circuit::ArithOp::Adder || c.signature.widthA != 16 ||
            c.netlist.inputCount() != 32 || c.netlist.outputCount() > 32)
            throw std::invalid_argument(
                "GaussianAccelerator: adder menu needs 16-bit adders (32 inputs, at most 32 "
                "outputs)");
    space_.groups = {
        {"multiplier", kMultiplierSlots, static_cast<int>(multipliers_.size())},
        {"adder", kAdderSlots, static_cast<int>(adders_.size())},
    };

    // Characterize the menus up front: exhaustive multiplier tables and
    // compiled adder programs, each entry an independent task.
    multTables_.resize(multipliers_.size());
    util::ThreadPool::global().parallelFor(multipliers_.size(), [&](std::size_t i) {
        multTables_[i] = buildTable(multipliers_[i], cache);
    });
    adderCompiled_.resize(adders_.size());
    util::ThreadPool::global().parallelFor(adders_.size(), [&](std::size_t i) {
        adderCompiled_[i] = CompiledNetlist::compile(adders_[i].netlist);
    });
}

std::vector<std::uint16_t> GaussianAccelerator::buildTable(const Component& component,
                                                           cache::CharacterizationCache* cache) {
    // Exhaustive 8x8 behavioural table swept block by block; the result is
    // a pure function of the netlist, so it is content-addressed in the
    // characterization cache (little-endian u16 blob, 128 KiB).
    constexpr std::string_view kTableTag = "multtable16.v1";
    const cache::CacheKey key = cache != nullptr
                                    ? cache::CharacterizationCache::blobKey(
                                          component.netlist.structuralHash(), kTableTag)
                                    : cache::CacheKey{};
    if (cache != nullptr) {
        if (const auto bytes = cache->findBytes(key); bytes && bytes->size() == 2u << 16) {
            std::vector<std::uint16_t> table(1u << 16);
            for (std::size_t i = 0; i < table.size(); ++i)
                table[i] = static_cast<std::uint16_t>((*bytes)[2 * i] |
                                                      ((*bytes)[2 * i + 1] << 8));
            return table;
        }
    }
    std::vector<std::uint16_t> table(1u << 16);
    const CompiledNetlist compiled = CompiledNetlist::compile(component.netlist);
    BatchSimulator sim(compiled);
    const std::size_t bits = std::min<std::size_t>(compiled.outputCount(), 16);
    std::vector<Word> in(16 * kBlockWords), out(compiled.outputCount() * kBlockWords);
    for (std::uint64_t base = 0; base < (1u << 16); base += kBlockLanes) {
        circuit::fillExhaustiveBlock(in, 16, base);
        sim.evaluate(in, out);
        compiled.backend().decode16(out.data(), bits, table.data() + base);
    }
    if (cache != nullptr) {
        std::vector<std::uint8_t> bytes(2 * table.size());
        for (std::size_t i = 0; i < table.size(); ++i) {
            bytes[2 * i] = static_cast<std::uint8_t>(table[i] & 0xFF);
            bytes[2 * i + 1] = static_cast<std::uint8_t>(table[i] >> 8);
        }
        cache->putBytes(key, std::move(bytes));
    }
    return table;
}

/// Per-thread evaluation scratch: one rebindable simulator workspace per
/// adder-tree node, the tree's operand bit-planes and one node's output
/// planes.  Rebinding reuses the allocation and rewrites only the
/// program's constant slots, so a workspace held across a batch
/// amortizes to near-zero setup.
struct GaussianAccelerator::WorkspaceImpl : AcceleratorModel::Workspace {
    std::vector<BatchSimulator> sims;  ///< one per adder-tree node, lazily built
    /// 16 operands of 16 planes each, ordered so that node n reads its A|B
    /// pair from operands 2n, 2n + 1: products 0..7, then the node outputs
    /// l1a l1b l1c l1d l2a l2b l3 (node n < 7 writes operand 8 + n), then
    /// product 8 beside l3.
    std::vector<Word> planes;
    std::vector<Word> outWords;
};

std::unique_ptr<AcceleratorModel::Workspace> GaussianAccelerator::makeWorkspace() const {
    auto ws = std::make_unique<WorkspaceImpl>();
    ws->planes.resize(16 * 16 * kBlockWords);
    return ws;
}

img::Image GaussianAccelerator::filter(const img::Image& input, const AcceleratorConfig& config,
                                       Workspace& workspace) const {
    space_.validate(config);
    auto& ws = dynamic_cast<WorkspaceImpl&>(workspace);

    // Bind every adder-tree node's program into the reusable workspace;
    // every buffer the pixel loop touches lives in `ws` or on the stack —
    // the loop itself performs zero heap allocations once warmed up.
    std::size_t maxOutputs = 0;
    for (int node = 0; node < kAdderSlots; ++node) {
        const auto& compiled = adderCompiled_[static_cast<std::size_t>(
            config.choice[adderSlot(node)])];
        maxOutputs = std::max(maxOutputs, compiled.outputCount());
        if (ws.sims.size() <= static_cast<std::size_t>(node))
            ws.sims.emplace_back(compiled);
        else
            ws.sims[static_cast<std::size_t>(node)].rebind(compiled);
    }
    if (ws.outWords.size() < maxOutputs * kBlockWords) ws.outWords.resize(maxOutputs * kBlockWords);

    // Tap s reads its multiplier's table at the row of its kernel weight.
    const std::array<int, 9>& weights = kernelWeights();
    std::array<const std::uint16_t*, 9> taps{};
    for (int slot = 0; slot < kMultiplierSlots; ++slot) {
        const auto s = static_cast<std::size_t>(slot);
        const auto choice = static_cast<std::size_t>(config.choice[multiplierSlot(slot)]);
        taps[s] = multTables_[choice].data() + (static_cast<std::size_t>(weights[s]) << 8);
    }
    const auto operand = [&ws](std::size_t index) {
        return ws.planes.data() + index * 16 * kBlockWords;
    };
    const circuit::kernels::Backend& codec = ws.sims.front().compiled().backend();

    img::Image output(input.width(), input.height());
    const std::size_t total = input.pixelCount();
    std::array<std::array<std::uint32_t, kBlockLanes>, 9> products{};
    std::array<std::uint32_t, kBlockLanes> sum{};

    for (std::size_t base = 0; base < total; base += kBlockLanes) {
        const std::size_t lanes = std::min<std::size_t>(kBlockLanes, total - base);
        gather3x3(input, base, lanes, [&](std::size_t lane, const std::array<std::uint32_t, 9>& n) {
            for (std::size_t s = 0; s < 9; ++s) products[s][lane] = taps[s][n[s]];
        });
        // Lanes are independent: a partial block encodes zeros past `lanes`
        // and reads back only the first `lanes` results.
        for (std::size_t s = 0; s < 9; ++s) {
            std::fill(products[s].begin() + static_cast<std::ptrdiff_t>(lanes), products[s].end(),
                      0u);
            codec.encode16(products[s].data(), operand(s < 8 ? s : 15));
        }
        // The tree stays in bit-planes.  A consumer sees the 16-bit adder
        // interface: its producer's planes 0..15, zeros above a narrower
        // output (a 17th carry-out plane is dropped).
        for (std::size_t node = 0; node < kAdderSlots; ++node) {
            BatchSimulator& sim = ws.sims[node];
            const std::span<Word> out(ws.outWords.data(),
                                      sim.compiled().outputCount() * kBlockWords);
            sim.evaluate({operand(2 * node), 32 * kBlockWords}, out);
            if (node + 1 == kAdderSlots) {
                codec.decode32(out.data(), sim.compiled().outputCount(), sum.data());
            } else {
                Word* next = operand(8 + node);
                const std::size_t kept = std::min<std::size_t>(out.size(), 16 * kBlockWords);
                std::fill(std::copy_n(out.data(), kept, next), next + 16 * kBlockWords, Word{0});
            }
        }
        std::uint8_t* pixels = output.pixels().data() + base;
        for (std::size_t lane = 0; lane < lanes; ++lane)
            pixels[lane] = static_cast<std::uint8_t>(std::min<std::uint32_t>(255u, sum[lane] >> 4));
    }
    return output;
}

img::Image GaussianAccelerator::filterExact(const img::Image& input) const {
    const std::array<int, 9>& weights = kernelWeights();
    img::Image output(input.width(), input.height());
    for (int y = 0; y < input.height(); ++y) {
        for (int x = 0; x < input.width(); ++x) {
            std::uint32_t acc = 0;
            int slot = 0;
            for (int dy = -1; dy <= 1; ++dy)
                for (int dx = -1; dx <= 1; ++dx, ++slot)
                    acc += static_cast<std::uint32_t>(input.atClamped(x + dx, y + dy)) *
                           static_cast<std::uint32_t>(weights[static_cast<std::size_t>(slot)]);
            output.set(x, y, static_cast<std::uint8_t>(std::min<std::uint32_t>(255u, acc >> 4)));
        }
    }
    return output;
}

AcceleratorCost GaussianAccelerator::cost(const AcceleratorConfig& config) const {
    space_.validate(config);
    AcceleratorCost cost;
    double maxMultLatency = 0.0;
    for (int slot = 0; slot < kMultiplierSlots; ++slot) {
        const Component& c =
            multipliers_[static_cast<std::size_t>(config.choice[multiplierSlot(slot)])];
        cost.lutCount += c.fpga.lutCount;
        cost.powerMw += c.fpga.powerMw;
        maxMultLatency = std::max(maxMultLatency, c.fpga.latencyNs);
        cost.synthSeconds += 0.25 * c.fpga.synthSeconds;
    }
    // Adder-tree critical path: the slowest adder of each level in series.
    static constexpr std::array<int, 8> kLevel = {1, 1, 1, 1, 2, 2, 3, 4};
    std::array<double, 5> levelWorst{};
    for (int node = 0; node < kAdderSlots; ++node) {
        const Component& c = adders_[static_cast<std::size_t>(config.choice[adderSlot(node)])];
        cost.lutCount += c.fpga.lutCount;
        cost.powerMw += c.fpga.powerMw;
        cost.synthSeconds += 0.25 * c.fpga.synthSeconds;
        const auto level = static_cast<std::size_t>(kLevel[static_cast<std::size_t>(node)]);
        levelWorst[level] = std::max(levelWorst[level], c.fpga.latencyNs);
    }
    cost.latencyNs = maxMultLatency;
    for (int level = 1; level <= 4; ++level)
        cost.latencyNs += levelWorst[static_cast<std::size_t>(level)];

    // Line-buffer / control glue and P&R variance.
    cost.lutCount += 24.0;
    cost.powerMw += 0.12;
    cost.synthSeconds += 90.0;
    util::Rng jitter(config.hash() ^ 0xACCE1ull);
    cost.lutCount *= 1.0 + jitter.uniformReal(-0.02, 0.02);
    cost.powerMw *= 1.0 + jitter.uniformReal(-0.03, 0.03);
    cost.latencyNs *= 1.0 + jitter.uniformReal(-0.03, 0.03);
    return cost;
}

std::vector<double> GaussianAccelerator::features(const AcceleratorConfig& config) const {
    space_.validate(config);
    const std::array<int, 9>& weights = kernelWeights();

    double multMedSum = 0, multMedMax = 0, multWceSum = 0, multLut = 0, multPow = 0,
           multLatMax = 0, exactMults = 0;
    for (int slot = 0; slot < kMultiplierSlots; ++slot) {
        const Component& c =
            multipliers_[static_cast<std::size_t>(config.choice[multiplierSlot(slot)])];
        const double w = static_cast<double>(weights[static_cast<std::size_t>(slot)]) / 16.0;
        multMedSum += c.error.med * w;
        multMedMax = std::max(multMedMax, c.error.med);
        multWceSum += c.error.worstCaseError * w;
        multLut += c.fpga.lutCount;
        multPow += c.fpga.powerMw;
        multLatMax = std::max(multLatMax, c.fpga.latencyNs);
        // Feature semantics: "component showed no error" — 16-bit adder
        // menus carry sampled reports, for which strict `isExact` can
        // never hold, so the estimator feature uses the observed predicate.
        if (c.error.observedExact()) exactMults += 1.0;
    }
    double addMedSum = 0, addMedMax = 0, addWceSum = 0, addLut = 0, addPow = 0, addLatSum = 0,
           exactAdders = 0;
    static constexpr std::array<double, 8> kLevelWeight = {1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.25, 0.25};
    for (int node = 0; node < kAdderSlots; ++node) {
        const Component& c = adders_[static_cast<std::size_t>(config.choice[adderSlot(node)])];
        const double w = kLevelWeight[static_cast<std::size_t>(node)];
        addMedSum += c.error.med * w;
        addMedMax = std::max(addMedMax, c.error.med);
        addWceSum += c.error.worstCaseError * w;
        addLut += c.fpga.lutCount;
        addPow += c.fpga.powerMw;
        addLatSum += c.fpga.latencyNs;
        if (c.error.observedExact()) exactAdders += 1.0;
    }
    return {multMedSum, multMedMax, std::log1p(multWceSum), multLut, multPow, multLatMax,
            exactMults, addMedSum,  addMedMax, std::log1p(addWceSum), addLut, addPow,
            addLatSum,  exactAdders};
}

}  // namespace axf::autoax
