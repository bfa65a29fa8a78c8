#include "src/autoax/model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "src/img/ssim.hpp"
#include "src/util/select.hpp"

namespace axf::autoax {

using circuit::BatchSimulator;
using circuit::CompiledNetlist;
using Word = CompiledNetlist::Word;

std::vector<Component> componentsFromFlow(const core::FlowResult& result,
                                          core::FpgaParam param, std::size_t maxComponents) {
    const core::TargetOutcome* outcome = nullptr;
    for (const core::TargetOutcome& t : result.targets)
        if (t.param == param) outcome = &t;
    if (outcome == nullptr) throw std::invalid_argument("componentsFromFlow: param not in result");

    std::vector<Component> menu;
    for (std::size_t idx : outcome->finalParetoIndices) {
        const core::CharacterizedCircuit& cc = result.dataset.circuits()[idx];
        if (!cc.fpgaMeasured) continue;
        Component c;
        c.name = cc.circuit.name;
        c.signature = cc.circuit.signature;
        c.error = cc.circuit.error;
        c.fpga = cc.fpga;
        c.netlist = cc.circuit.netlist;
        menu.push_back(std::move(c));
    }
    std::sort(menu.begin(), menu.end(),
              [](const Component& a, const Component& b) { return a.error.med < b.error.med; });
    // Uniform thinning over the error-sorted menu keeps the spread,
    // including the cheapest (highest-MED) extreme.
    util::thinUniform(menu, maxComponents);
    return menu;
}

std::uint64_t AcceleratorConfig::hash() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v + 1;
        h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(choice.size()));
    for (int c : choice) mix(static_cast<std::uint64_t>(c));
    return h;
}

std::size_t ConfigSpace::slotCount() const {
    std::size_t n = 0;
    for (const SlotGroup& g : groups) n += static_cast<std::size_t>(g.slots);
    return n;
}

int ConfigSpace::menuSizeOf(std::size_t slot) const {
    for (const SlotGroup& g : groups) {
        if (slot < static_cast<std::size_t>(g.slots)) return g.menuSize;
        slot -= static_cast<std::size_t>(g.slots);
    }
    throw std::out_of_range("ConfigSpace::menuSizeOf: slot out of range");
}

double ConfigSpace::designSpaceSize() const {
    double size = 1.0;
    for (const SlotGroup& g : groups)
        size *= std::pow(static_cast<double>(g.menuSize), static_cast<double>(g.slots));
    return size;
}

AcceleratorConfig ConfigSpace::accurateCorner() const {
    AcceleratorConfig c;
    c.choice.assign(slotCount(), 0);
    return c;
}

AcceleratorConfig ConfigSpace::cheapCorner() const {
    AcceleratorConfig c;
    c.choice.reserve(slotCount());
    for (const SlotGroup& g : groups)
        c.choice.insert(c.choice.end(), static_cast<std::size_t>(g.slots), g.menuSize - 1);
    return c;
}

AcceleratorConfig ConfigSpace::randomConfig(util::Rng& rng) const {
    AcceleratorConfig c;
    c.choice.reserve(slotCount());
    for (const SlotGroup& g : groups)
        for (int s = 0; s < g.slots; ++s)
            c.choice.push_back(static_cast<int>(rng.index(static_cast<std::size_t>(g.menuSize))));
    return c;
}

void ConfigSpace::validate(const AcceleratorConfig& config) const {
    if (config.choice.size() != slotCount())
        throw std::out_of_range("AcceleratorConfig: slot count mismatch");
    std::size_t slot = 0;
    for (const SlotGroup& g : groups)
        for (int s = 0; s < g.slots; ++s, ++slot)
            if (config.choice[slot] < 0 || config.choice[slot] >= g.menuSize)
                throw std::out_of_range("AcceleratorConfig: " + g.name + " choice out of range");
}

img::Image AcceleratorModel::filter(const img::Image& input,
                                    const AcceleratorConfig& config) const {
    const std::unique_ptr<Workspace> workspace = makeWorkspace();
    return filter(input, config, *workspace);
}

double AcceleratorModel::quality(const AcceleratorConfig& config,
                                 const std::vector<img::Image>& scenes) const {
    if (scenes.empty()) throw std::invalid_argument("quality: no scenes");
    const std::unique_ptr<Workspace> workspace = makeWorkspace();
    double acc = 0.0;
    for (const img::Image& scene : scenes)
        acc += img::ssim(filterExact(scene), filter(scene, config, *workspace));
    return acc / static_cast<double>(scenes.size());
}

void batchAdd16Wide(BatchSimulator& sim, const std::uint32_t* a, const std::uint32_t* b,
                    std::uint32_t* out, std::size_t lanes, std::span<Word> inWords,
                    std::span<Word> outWords) {
    const CompiledNetlist& compiled = sim.compiled();
    if (compiled.inputCount() != 32 || compiled.outputCount() > 32)
        throw std::invalid_argument(
            "batchAdd16Wide: the program needs 32 inputs and at most 32 outputs");
    // Callers may tile their lane arrays at any granularity (typically
    // one block).  Pure integer bit-sliced evaluation — results are
    // independent of the tiling.
    const std::size_t words = sim.blockWords();
    const std::size_t blockLanes = sim.blockLanes();
    const std::size_t outputs = compiled.outputCount();
    const circuit::kernels::Backend& codec = compiled.backend();
    // A partial last block runs through zero-padded staging copies, since
    // the codecs always cover a whole block of lanes.
    std::array<std::uint32_t, BatchSimulator::kBlockLanes> tailA, tailB, tailOut;
    for (std::size_t blockBase = 0; blockBase < lanes; blockBase += blockLanes) {
        const std::size_t blockCount = std::min(blockLanes, lanes - blockBase);
        const std::uint32_t* blockA = a + blockBase;
        const std::uint32_t* blockB = b + blockBase;
        std::uint32_t* blockOut = out + blockBase;
        if (blockCount < blockLanes) {
            std::fill(std::copy_n(blockA, blockCount, tailA.begin()), tailA.end(), 0u);
            std::fill(std::copy_n(blockB, blockCount, tailB.begin()), tailB.end(), 0u);
            blockA = tailA.data();
            blockB = tailB.data();
            blockOut = tailOut.data();
        }
        codec.encode16(blockA, inWords.data());
        codec.encode16(blockB, inWords.data() + 16 * words);
        sim.evaluate(inWords.subspan(0, 32 * words), outWords.subspan(0, outputs * words));
        codec.decode32(outWords.data(), outputs, blockOut);
        if (blockCount < blockLanes) std::copy_n(tailOut.begin(), blockCount, out + blockBase);
    }
}

}  // namespace axf::autoax
