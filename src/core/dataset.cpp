#include "src/core/dataset.hpp"

#include <stdexcept>

#include "src/util/thread_pool.hpp"

namespace axf::core {

const char* fpgaParamName(FpgaParam p) {
    switch (p) {
        case FpgaParam::Latency: return "latency";
        case FpgaParam::Power: return "power";
        case FpgaParam::Area: return "area";
    }
    return "?";
}

double fpgaParamOf(const synth::FpgaReport& report, FpgaParam p) {
    switch (p) {
        case FpgaParam::Latency: return report.latencyNs;
        case FpgaParam::Power: return report.powerMw;
        case FpgaParam::Area: return report.lutCount;
    }
    return 0.0;
}

CircuitDataset CircuitDataset::characterize(gen::AcLibrary library,
                                            const synth::AsicFlow& asicFlow,
                                            cache::CharacterizationCache* cache) {
    // One independent iteration per circuit, each writing only its own slot.
    CircuitDataset ds;
    ds.circuits_.resize(library.size());
    util::ThreadPool::global().parallelFor(library.size(), [&](std::size_t i) {
        CharacterizedCircuit& cc = ds.circuits_[i];
        cc.asic = cache::synthesizeCached(cache, asicFlow, library[i].netlist);
        cc.features = circuit::extractFeatures(library[i].netlist).toVector();
        cc.features.push_back(cc.asic.areaUm2);
        cc.features.push_back(cc.asic.delayNs);
        cc.features.push_back(cc.asic.powerMw);
        cc.circuit = std::move(library[i]);
    });
    return ds;
}

ml::AsicColumns CircuitDataset::asicColumns() {
    const std::size_t base = circuit::StructuralFeatures::dimension();
    return ml::AsicColumns{base, base + 1, base + 2};
}

std::size_t CircuitDataset::featureDimension() {
    return circuit::StructuralFeatures::dimension() + 3;
}

ml::Matrix CircuitDataset::featureMatrix(const std::vector<std::size_t>& indices) const {
    ml::Matrix x(indices.size(), featureDimension());
    for (std::size_t r = 0; r < indices.size(); ++r) {
        const std::vector<double>& f = circuits_[indices[r]].features;
        for (std::size_t c = 0; c < f.size(); ++c) x.at(r, c) = f[c];
    }
    return x;
}

ml::Vector CircuitDataset::measuredTargets(const std::vector<std::size_t>& indices,
                                           FpgaParam param) const {
    ml::Vector y(indices.size());
    for (std::size_t r = 0; r < indices.size(); ++r) {
        const CharacterizedCircuit& cc = circuits_[indices[r]];
        if (!cc.fpgaMeasured)
            throw std::logic_error("measuredTargets: circuit has no FPGA measurement");
        y[r] = fpgaParamOf(cc.fpga, param);
    }
    return y;
}

}  // namespace axf::core
