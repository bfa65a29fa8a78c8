// Fig. 1 — Motivational analysis: the Pareto front of approximate 8x8
// multipliers on the FPGA target differs from the ASIC target, and
// hand-crafted FPGA-specific multipliers are not Pareto-optimal against
// the evolutionary library.
//
// Prints (a) the FPGA Pareto front (MED vs #LUTs) with each point's ASIC
// Pareto membership, (b) the ASIC Pareto front (MED vs area), and (c) where
// the structural FPGA-oriented designs (stand-in for SoA [16]) land.

#include <iostream>

#include "bench/bench_common.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/core/dataset.hpp"
#include "src/core/pareto.hpp"
#include "src/gen/multipliers.hpp"
#include "src/util/table.hpp"

using namespace axf;

static int benchMain() {
    const bench::Scale scale = bench::scaleFromEnv();
    util::printBanner(std::cout, "Fig. 1 | ASIC-ACs vs FPGA-ACs: 8x8 approximate multipliers");

    // Simulation-engine shape for the figure's workhorse circuit, so
    // fusion/dispatch wins (or regressions) are visible in every fig run.
    {
        const circuit::Netlist probe = gen::wallaceMultiplier(8);
        const circuit::CompiledNetlist::Stats s =
            circuit::CompiledNetlist::compile(probe).stats();
        std::cout << "engine: backend=" << s.backend << ", " << probe.gateCount()
                  << " gates -> " << s.instructions << " instrs (" << s.fusedOps
                  << " fused ops), " << s.runs << " runs\n";
    }

    gen::AcLibrary library = gen::buildLibrary(bench::libraryConfig(circuit::ArithOp::Multiplier, 8, scale));
    std::cout << "library size: " << library.size() << " circuits\n";

    core::CircuitDataset dataset = core::CircuitDataset::characterize(
        std::move(library), synth::AsicFlow(), bench::sharedCache());
    synth::FpgaFlow fpga;
    for (core::CharacterizedCircuit& cc : dataset.circuits()) {
        cc.fpga = fpga.implement(cc.circuit.netlist);
        cc.fpgaMeasured = true;
    }
    const auto& circuits = dataset.circuits();

    // Pareto fronts in (MED, cost) for both targets.
    std::vector<core::ParetoPoint> fpgaPts(circuits.size()), asicPts(circuits.size());
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        fpgaPts[i] = {circuits[i].circuit.error.med, circuits[i].fpga.lutCount, i};
        asicPts[i] = {circuits[i].circuit.error.med, circuits[i].asic.areaUm2, i};
    }
    const std::vector<std::size_t> fpgaFront = core::paretoFront(fpgaPts);
    const std::vector<std::size_t> asicFront = core::paretoFront(asicPts);

    std::vector<bool> onAsic(circuits.size(), false);
    for (std::size_t pos : asicFront) onAsic[asicPts[pos].index] = true;

    util::Table table({"circuit", "origin", "MED", "FPGA #LUTs", "ASIC area", "ASIC-pareto?"});
    std::size_t overlap = 0;
    for (std::size_t pos : fpgaFront) {
        const std::size_t i = fpgaPts[pos].index;
        if (onAsic[i]) ++overlap;
        table.addRow({circuits[i].circuit.name, circuits[i].circuit.origin,
                      util::Table::num(circuits[i].circuit.error.med, 6),
                      util::Table::num(circuits[i].fpga.lutCount, 0),
                      util::Table::num(circuits[i].asic.areaUm2, 1), onAsic[i] ? "yes" : "NO"});
    }
    std::cout << "\nFPGA-AC Pareto front (MED vs #LUTs):\n";
    table.print(std::cout);

    std::vector<bool> onFpga(circuits.size(), false);
    for (std::size_t pos : fpgaFront) onFpga[fpgaPts[pos].index] = true;
    std::size_t asicOnly = 0;
    for (std::size_t pos : asicFront)
        if (!onFpga[asicPts[pos].index]) ++asicOnly;
    std::cout << "\nkey observation (1): |FPGA front| = " << fpgaFront.size()
              << ", |ASIC front| = " << asicFront.size() << ", overlap = " << overlap << "\n  -> "
              << asicOnly << "/" << asicFront.size() << " ("
              << util::Table::percent(static_cast<double>(asicOnly) /
                                      static_cast<double>(asicFront.size()))
              << ") of the ASIC-Pareto-optimal ACs are NOT Pareto-optimal on the FPGA\n";

    // SoA FPGA-specific designs [16] stand-in: the structural OR-compressor
    // and truncation multipliers, checked for domination by the library.
    util::Table soa({"SoA FPGA-AC (stand-in)", "MED", "#LUTs", "dominated by library?"});
    std::size_t dominated = 0, considered = 0;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        const std::string& origin = circuits[i].circuit.origin;
        if (origin != "cmp" && origin != "kulkarni") continue;
        ++considered;
        bool isDominated = false;
        for (std::size_t j = 0; j < circuits.size(); ++j) {
            if (j == i) continue;
            const bool leqBoth = circuits[j].circuit.error.med <= circuits[i].circuit.error.med &&
                                 circuits[j].fpga.lutCount <= circuits[i].fpga.lutCount;
            const bool ltOne = circuits[j].circuit.error.med < circuits[i].circuit.error.med ||
                               circuits[j].fpga.lutCount < circuits[i].fpga.lutCount;
            if (leqBoth && ltOne) {
                isDominated = true;
                break;
            }
        }
        if (isDominated) ++dominated;
        soa.addRow({circuits[i].circuit.name, util::Table::num(circuits[i].circuit.error.med, 6),
                    util::Table::num(circuits[i].fpga.lutCount, 0), isDominated ? "yes" : "no"});
    }
    std::cout << "\n";
    soa.print(std::cout);
    std::cout << "\nkey observation (3): " << dominated << "/" << considered
              << " hand-crafted FPGA-oriented designs are dominated by the evolutionary library\n";
    return 0;
}

int main() { return axf::bench::guardedMain(benchMain); }
