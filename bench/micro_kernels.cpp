// Micro-benchmarks (google-benchmark) of the hot kernels underneath the
// experiment harnesses: bit-parallel netlist simulation (interpreter and
// compiled multi-word engine), exhaustive error analysis (seed baseline vs
// engine, serial vs thread-parallel), LUT technology mapping, full FPGA
// implementation, and SSIM.
//
// Emits BENCH_micro_kernels.json (google-benchmark JSON, items_per_second
// = vectors/sec for the per-vector kernels) unless --benchmark_out= is
// given explicitly, and prints the engine-vs-seed exhaustive-analysis
// speedup at the end so the perf trajectory is visible per PR.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/autoax/accelerator.hpp"
#include "src/autoax/eval_engine.hpp"
#include "src/autoax/sobel.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/simulator.hpp"
#include "src/circuit/transform.hpp"
#include "src/error/error_metrics.hpp"
#include "src/fault/fault.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/cgp.hpp"
#include "src/gen/multipliers.hpp"
#include "src/img/ssim.hpp"
#include "src/search/island_search.hpp"
#include "src/search/toy_problem.hpp"
#include "src/synth/asic.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/rng.hpp"
#include "src/verify/verify.hpp"

using namespace axf;

static void BM_SimulatorSweep(benchmark::State& state) {
    const circuit::Netlist net = gen::wallaceMultiplier(static_cast<int>(state.range(0)));
    circuit::Simulator sim(net);
    std::vector<std::uint64_t> in(net.inputCount(), 0x0123456789ABCDEFull);
    std::vector<std::uint64_t> out(net.outputCount());
    for (auto _ : state) {
        sim.evaluate(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SimulatorSweep)->Arg(8)->Arg(16);

static void BM_BatchSimulatorSweep(benchmark::State& state) {
    const circuit::Netlist net = gen::wallaceMultiplier(static_cast<int>(state.range(0)));
    const circuit::CompiledNetlist compiled = circuit::CompiledNetlist::compile(net);
    circuit::BatchSimulator sim(compiled);
    const std::size_t W = sim.blockWords();
    std::vector<std::uint64_t> in(net.inputCount() * W, 0x0123456789ABCDEFull);
    std::vector<std::uint64_t> out(net.outputCount() * W);
    for (auto _ : state) {
        sim.evaluate(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(sim.blockLanes()));
}
BENCHMARK(BM_BatchSimulatorSweep)->Arg(8)->Arg(16);

/// Exhaustive-sweep throughput: Arg = multiplier bits (8 -> the full
/// 16-bit space cycles, 16 -> sequential blocks of the 32-bit space).
/// items_per_second = vectors/sec.
static void BM_SweepWidth(benchmark::State& state) {
    const circuit::Netlist net = gen::wallaceMultiplier(static_cast<int>(state.range(0)));
    const circuit::CompiledNetlist compiled = circuit::CompiledNetlist::compile(net);
    circuit::BatchSimulator sim(compiled);
    const int totalBits = static_cast<int>(net.inputCount());
    const std::uint64_t space = std::uint64_t{1} << totalBits;
    std::vector<std::uint64_t> in(net.inputCount() * sim.blockWords());
    std::vector<std::uint64_t> out(net.outputCount() * sim.blockWords());
    std::uint64_t base = 0;
    for (auto _ : state) {
        circuit::fillExhaustiveBlock(in, totalBits, base);
        sim.evaluate(in, out);
        benchmark::DoNotOptimize(out.data());
        base += sim.blockLanes();
        if (base >= space) base = 0;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(sim.blockLanes()));
}
BENCHMARK(BM_SweepWidth)->Arg(8)->Arg(16);

static void BM_ExhaustiveError8x8_SeedBaseline(benchmark::State& state) {
    const circuit::Netlist net = gen::truncatedMultiplier(8, 4);
    const circuit::ArithSignature sig = gen::multiplierSignature(8);
    for (auto _ : state) {
        const error::ErrorReport r = error::analyzeErrorBaseline(net, sig);
        benchmark::DoNotOptimize(r.med);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_ExhaustiveError8x8_SeedBaseline);

static void BM_ExhaustiveError8x8_EngineSerial(benchmark::State& state) {
    const circuit::Netlist net = gen::truncatedMultiplier(8, 4);
    const circuit::ArithSignature sig = gen::multiplierSignature(8);
    error::ErrorAnalysisConfig config;
    config.threads = 1;
    for (auto _ : state) {
        const error::ErrorReport r = error::analyzeError(net, sig, config);
        benchmark::DoNotOptimize(r.med);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_ExhaustiveError8x8_EngineSerial);

static void BM_ExhaustiveError8x8_EngineParallel(benchmark::State& state) {
    const circuit::Netlist net = gen::truncatedMultiplier(8, 4);
    const circuit::ArithSignature sig = gen::multiplierSignature(8);
    for (auto _ : state) {
        const error::ErrorReport r = error::analyzeError(net, sig);
        benchmark::DoNotOptimize(r.med);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_ExhaustiveError8x8_EngineParallel);

static void BM_SampledError16Bit(benchmark::State& state) {
    const circuit::Netlist net = gen::loaAdder(16, 6);
    const circuit::ArithSignature sig = gen::adderSignature(16);
    error::ErrorAnalysisConfig config;
    config.exhaustiveLimit = 1;  // force the sampled path
    config.sampleCount = 1u << 14;
    for (auto _ : state) {
        const error::ErrorReport r = error::analyzeError(net, sig, config);
        benchmark::DoNotOptimize(r.med);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(config.sampleCount));
}
BENCHMARK(BM_SampledError16Bit);

/// 240 children of the 16x16 Wallace seed genome (4 mutated genes each,
/// as `CgpEvolver` breeds them), decoded: the netlists a 16-bit multiplier
/// library's CGP runs compile and analyze thousands of times per build.
static const std::vector<circuit::Netlist>& cgpChildren16() {
    static const std::vector<circuit::Netlist> children = [] {
        const circuit::Netlist seed = gen::wallaceMultiplier(16);
        util::Rng rng(0xC6C);
        const gen::CgpGenome parent = gen::CgpGenome::seedFromNetlist(
            seed, std::max(8, static_cast<int>(seed.gateCount()) / 5), rng);
        std::vector<circuit::Netlist> out;
        for (int k = 0; k < 240; ++k) {
            gen::CgpGenome child = parent;
            child.mutate(4, rng);
            out.push_back(child.decode());
        }
        return out;
    }();
    return children;
}

/// `CompiledNetlist::compile` of CGP children.  items_per_second =
/// compiles/sec.
static void BM_CompileCgpChild(benchmark::State& state) {
    const std::vector<circuit::Netlist>& children = cgpChildren16();
    std::size_t k = 0;
    for (auto _ : state) {
        const circuit::CompiledNetlist compiled =
            circuit::CompiledNetlist::compile(children[k++ % children.size()]);
        benchmark::DoNotOptimize(compiled.instructionCount());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompileCgpChild);

/// `circuit::simplify` plus the structural hash of the same children: what
/// a CGP run does to every parent it harvests before the library dedups
/// it.  items_per_second = simplifications/sec.
static void BM_SimplifyCgpChild(benchmark::State& state) {
    const std::vector<circuit::Netlist>& children = cgpChildren16();
    std::size_t k = 0;
    for (auto _ : state) {
        const circuit::Netlist simplified = circuit::simplify(children[k++ % children.size()]);
        benchmark::DoNotOptimize(simplified.structuralHash());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimplifyCgpChild);

/// One CGP fitness evaluation: `ErrorAnalyzer::analyze` under the
/// evolver's default fitness profile (8,192 sampled vectors, stimulus
/// drawn once) over the same children.  items_per_second = analyses/sec.
static void BM_CgpFitness(benchmark::State& state) {
    const std::vector<circuit::Netlist>& children = cgpChildren16();
    const error::ErrorAnalyzer fitness(gen::multiplierSignature(16),
                                       gen::CgpEvolver::Options{}.fitnessConfig);
    std::size_t k = 0;
    for (auto _ : state) {
        const error::ErrorReport r = fitness.analyze(children[k++ % children.size()]);
        benchmark::DoNotOptimize(r.med);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CgpFitness);

/// Exhaustive stuck-at campaign over the complete fault list of an 8x8
/// multiplier (Arg(0) = exact Wallace, Arg(t) = truncated-t): the batched
/// engine simulates each 1024-lane block once and retires every fault by
/// replaying only its downstream cone against that reference.
/// items_per_second = faults retired/sec.
static void BM_FaultSweep(benchmark::State& state) {
    const circuit::Netlist net = state.range(0) == 0
                                     ? gen::wallaceMultiplier(8)
                                     : gen::truncatedMultiplier(8, static_cast<int>(state.range(0)));
    const circuit::ArithSignature sig = gen::multiplierSignature(8);
    fault::CampaignConfig config;
    config.analysis.threads = 1;
    const std::size_t faults =
        fault::enumerateFaultSites(circuit::CompiledNetlist::compile(net),
                                   config.includeInputFaults, config.collapseEquivalent)
            .sites.size();
    for (auto _ : state) {
        const fault::ResilienceReport r = fault::analyzeResilience(net, sig, config);
        benchmark::DoNotOptimize(r.meanMedUnderFault);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(faults));
}
BENCHMARK(BM_FaultSweep)->Arg(0)->Arg(4)->Arg(6);

/// Sampled stuck-at campaign in the shape the Sobel DSE runs per menu
/// entry: a 16-bit adder (Arg(0) = ripple-carry, Arg(k) = LOA-k) at 1024
/// samples, i.e. one 1024-lane block of 16 sample batches per fault.
/// items_per_second = faults retired/sec.
static void BM_FaultSweepSampled(benchmark::State& state) {
    const circuit::Netlist net = state.range(0) == 0
                                     ? gen::rippleCarryAdder(16)
                                     : gen::loaAdder(16, static_cast<int>(state.range(0)));
    const circuit::ArithSignature sig = gen::adderSignature(16);
    fault::CampaignConfig config;
    config.analysis.threads = 1;
    config.analysis.sampleCount = 1u << 10;
    const std::size_t faults =
        fault::enumerateFaultSites(circuit::CompiledNetlist::compile(net),
                                   config.includeInputFaults, config.collapseEquivalent)
            .sites.size();
    for (auto _ : state) {
        const fault::ResilienceReport r = fault::analyzeResilience(net, sig, config);
        benchmark::DoNotOptimize(r.meanMedUnderFault);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(faults));
}
BENCHMARK(BM_FaultSweepSampled)->Arg(0)->Arg(6);

/// Switching-activity estimation as the FPGA/ASIC power models run it:
/// 24 stimulus blocks through the unpruned program on the global pool.
/// Arg(0) = 8x8 Wallace multiplier, Arg(1) = 16-bit ripple-carry adder.
/// items_per_second = stimulus vectors/sec.
static void BM_ToggleRates(benchmark::State& state) {
    const circuit::Netlist net =
        state.range(0) == 0 ? gen::wallaceMultiplier(8) : gen::rippleCarryAdder(16);
    constexpr int kBlocks = 24;
    for (auto _ : state) {
        const std::vector<double> rates =
            circuit::estimateToggleRates(net, synth::FpgaFlow::Options{}.activitySeed, kBlocks);
        benchmark::DoNotOptimize(rates.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBlocks * 64);
}
BENCHMARK(BM_ToggleRates)->Arg(0)->Arg(1);

/// The naive campaign shape the batched sweep replaces: one fault per full
/// sweep — mutate the netlist (stuck-at constant) and run one complete
/// exhaustive analysis over the input space per fault, on the scalar
/// reference analyzer (`analyzeErrorBaseline`, the obvious first
/// formulation).  Same Arg convention as BM_FaultSweep so the two are
/// circuit-matched; capped at 8 faults so the benchmark stays short.
/// items_per_second = faults retired/sec, directly comparable to the
/// same-Arg BM_FaultSweep row.
static void BM_FaultSweepNaive(benchmark::State& state) {
    const circuit::Netlist net = state.range(0) == 0
                                     ? gen::wallaceMultiplier(8)
                                     : gen::truncatedMultiplier(8, static_cast<int>(state.range(0)));
    const circuit::ArithSignature sig = gen::multiplierSignature(8);
    fault::CampaignConfig config;
    const fault::SiteEnumeration sites = fault::enumerateFaultSites(
        circuit::CompiledNetlist::compile(net), config.includeInputFaults,
        config.collapseEquivalent);
    const std::size_t cap = std::min<std::size_t>(sites.sites.size(), 8);
    for (auto _ : state) {
        for (std::size_t i = 0; i < cap; ++i) {
            const fault::FaultSite& s = sites.sites[i];
            benchmark::DoNotOptimize(
                error::analyzeErrorBaseline(fault::stuckAtNetlist(net, s.node, s.stuckTo), sig)
                    .med);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(cap));
}
BENCHMARK(BM_FaultSweepNaive)->Arg(0)->Arg(4);

/// Static program verification (src/verify): full dataflow/schedule checks
/// plus the fusion-semantics truth-table re-derivation against the source
/// netlist.  Arg(8) = 8x8 Wallace, Arg(16) = 16x16 Wallace (the largest
/// library-shaped program); this is the AXF_VERIFY=1 per-compile overhead
/// and the axf-lint inner loop.  items_per_second = instructions
/// verified/sec.
static void BM_VerifyProgram(benchmark::State& state) {
    const circuit::Netlist net = gen::wallaceMultiplier(static_cast<int>(state.range(0)));
    const circuit::CompiledNetlist compiled = circuit::CompiledNetlist::compile(net);
    for (auto _ : state) {
        const verify::Diagnostics d = verify::verifyProgram(compiled, &net);
        benchmark::DoNotOptimize(d.errorCount());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(compiled.instructionCount()));
}
BENCHMARK(BM_VerifyProgram)->Arg(8)->Arg(16);

static void BM_LutMapping(benchmark::State& state) {
    const circuit::Netlist net = gen::wallaceMultiplier(static_cast<int>(state.range(0)));
    synth::FpgaFlow flow;
    for (auto _ : state) {
        const synth::LutMapper::Mapping m = flow.technologyMap(net);
        benchmark::DoNotOptimize(m.depth);
    }
}
BENCHMARK(BM_LutMapping)->Arg(8)->Arg(16);

static void BM_FpgaImplement(benchmark::State& state) {
    const circuit::Netlist net = gen::wallaceMultiplier(8);
    synth::FpgaFlow flow;
    for (auto _ : state) {
        const synth::FpgaReport r = flow.implement(net);
        benchmark::DoNotOptimize(r.lutCount);
    }
}
BENCHMARK(BM_FpgaImplement);

static void BM_AsicSynthesis(benchmark::State& state) {
    const circuit::Netlist net = gen::wallaceMultiplier(8);
    synth::AsicFlow flow;
    for (auto _ : state) {
        const synth::AsicReport r = flow.synthesize(net);
        benchmark::DoNotOptimize(r.areaUm2);
    }
}
BENCHMARK(BM_AsicSynthesis);

namespace {

/// A fully characterized menu entry for the autoax kernels' accelerators.
autoax::Component benchComponent(circuit::Netlist net, circuit::ArithSignature sig) {
    autoax::Component c;
    c.name = net.name();
    c.signature = sig;
    c.error = error::analyzeError(net, sig);
    c.fpga = synth::FpgaFlow().implement(net);
    c.netlist = std::move(net);
    return c;
}

/// Small fixed accelerator shared by the autoax kernels (built once; menu
/// characterization is setup cost, not what the kernel times).
const autoax::GaussianAccelerator& benchAccelerator() {
    static const autoax::GaussianAccelerator kAccel = [] {
        std::vector<autoax::Component> mults;
        mults.push_back(benchComponent(gen::wallaceMultiplier(8), gen::multiplierSignature(8)));
        for (int t : {4, 6})
            mults.push_back(
                benchComponent(gen::truncatedMultiplier(8, t), gen::multiplierSignature(8)));
        std::vector<autoax::Component> adds;
        adds.push_back(benchComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
        adds.push_back(benchComponent(gen::loaAdder(16, 6), gen::adderSignature(16)));
        return autoax::GaussianAccelerator(std::move(mults), std::move(adds));
    }();
    return kAccel;
}

std::vector<autoax::AcceleratorConfig> benchConfigs(std::size_t n) {
    util::Rng rng(0xBC);
    std::vector<autoax::AcceleratorConfig> configs;
    for (std::size_t i = 0; i < n; ++i)
        configs.push_back(benchAccelerator().configSpace().randomConfig(rng));
    return configs;
}

/// Sobel model over four 16-bit adders (64 configurations).
const autoax::SobelAccelerator& benchSobel() {
    static const autoax::SobelAccelerator kSobel = [] {
        std::vector<autoax::Component> adds;
        adds.push_back(benchComponent(gen::rippleCarryAdder(16), gen::adderSignature(16)));
        for (int k : {4, 6, 8})
            adds.push_back(benchComponent(gen::loaAdder(16, k), gen::adderSignature(16)));
        return autoax::SobelAccelerator(std::move(adds));
    }();
    return kSobel;
}

}  // namespace

/// Batched accelerator-quality evaluation (the DSE hot loop): 16 configs x
/// 2 scenes through `EvalEngine::evaluateBatch` — exact references and
/// SSIM window stats hoisted, per-thread workspaces reused, memoization
/// off so every iteration pays the full simulation.  items_per_second =
/// config evaluations/sec.
static void BM_AutoAxQualityBatch(benchmark::State& state) {
    const std::vector<img::Image> scenes = {img::syntheticScene(64, 64, 0xA1),
                                            img::syntheticScene(64, 64, 0xA2)};
    autoax::EvalEngine engine(benchAccelerator(), scenes, {.memoize = false});
    const std::vector<autoax::AcceleratorConfig> configs = benchConfigs(16);
    for (auto _ : state) {
        const std::vector<autoax::EvaluatedConfig> results = engine.evaluateBatch(configs);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_AutoAxQualityBatch);

/// The same batch over the Sobel model: 16 distinct configs x 2 scenes,
/// memoization off.  items_per_second = config evaluations/sec.
static void BM_SobelQualityBatch(benchmark::State& state) {
    const std::vector<img::Image> scenes = {img::syntheticScene(64, 64, 0xA1),
                                            img::syntheticScene(64, 64, 0xA2)};
    autoax::EvalEngine engine(benchSobel(), scenes, {.memoize = false});
    // Distinct configs: the engine folds in-batch duplicates even unmemoized.
    std::vector<autoax::AcceleratorConfig> configs;
    for (int i = 0; i < 16; ++i) configs.push_back({{i % 4, i / 4, (i + i / 4) % 4}});
    for (auto _ : state) {
        const std::vector<autoax::EvaluatedConfig> results = engine.evaluateBatch(configs);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_SobelQualityBatch);

/// The scalar reference path for the same work (one config x scene at a
/// time, exact reference recomputed per call) — the engine speedup is
/// BM_AutoAxQualityBatch / BM_AutoAxQualityScalar per item.
static void BM_AutoAxQualityScalar(benchmark::State& state) {
    const std::vector<img::Image> scenes = {img::syntheticScene(64, 64, 0xA1),
                                            img::syntheticScene(64, 64, 0xA2)};
    const std::vector<autoax::AcceleratorConfig> configs = benchConfigs(16);
    for (auto _ : state) {
        for (const autoax::AcceleratorConfig& c : configs) {
            benchmark::DoNotOptimize(benchAccelerator().quality(c, scenes));
            benchmark::DoNotOptimize(benchAccelerator().cost(c));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_AutoAxQualityScalar);

/// The shared near-free reference Problem (12 slots over a 16-entry
/// menu) times the search engine itself — mutation drafts, archive
/// dominance scans, thinning, migration — rather than any estimator.
/// items_per_second = candidate evaluations/sec of pure engine
/// throughput (the DSE regression gate for search overhead).
using BenchSearchProblem = search::ToyProblem<12, 16>;

/// Single-threaded island-search throughput (4 islands, speculative
/// batches, ring migration, capped archives) — threads are pinned to 1 so
/// the figure isolates engine overhead and stays comparable across hosts.
static void BM_IslandSearch(benchmark::State& state) {
    const BenchSearchProblem problem;
    search::IslandSearch<BenchSearchProblem>::Options options;
    options.islands = 4;
    options.generations = 50;
    options.batch = 4;
    options.seedsPerIsland = 8;
    options.migrationInterval = 8;
    options.migrants = 4;
    options.archiveCap = 64;
    options.seed = 0xBE;
    options.islandStrategies = {search::Strategy::HillClimb, search::Strategy::Anneal,
                                search::Strategy::Genetic};
    options.threads = 1;
    const std::size_t evaluationsPerRun =
        static_cast<std::size_t>(options.islands) *
        static_cast<std::size_t>(options.seedsPerIsland + options.generations * options.batch);
    for (auto _ : state) {
        const auto result = search::IslandSearch(problem, options).run();
        benchmark::DoNotOptimize(result.archive.entries().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(evaluationsPerRun));
}
BENCHMARK(BM_IslandSearch);

static void BM_Ssim(benchmark::State& state) {
    const img::Image a = img::syntheticScene(128, 128, 1);
    const img::Image b = img::syntheticScene(128, 128, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(img::ssim(a, b));
    }
}
BENCHMARK(BM_Ssim);

/// One `SsimReference::compare` at 64x64 against a held reference — the
/// per-scene SSIM step of the evaluation engine.  items_per_second =
/// compares/sec.
static void BM_SsimCompare(benchmark::State& state) {
    const img::SsimReference reference(img::syntheticScene(64, 64, 1));
    const img::Image distorted = img::syntheticScene(64, 64, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(reference.compare(distorted));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SsimCompare);

namespace {

/// Best-of-N wall time of one exhaustive 8x8 analysis, in seconds.
template <typename Fn>
double bestOf(Fn fn, int reps) {
    fn();  // warm up
    double best = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

void printCompiledStats(const circuit::Netlist& net) {
    const circuit::CompiledNetlist::Stats s = circuit::CompiledNetlist::compile(net).stats();
    std::printf(
        "compiled %-14s backend=%-8s %3zu gates -> %3zu instrs (%zu fused ops, %zu gates "
        "folded), %zu runs (longest %zu)\n",
        net.name().c_str(), s.backend, net.gateCount(), s.instructions, s.fusedOps,
        s.gatesFused, s.runs, s.longestRun);
}

void printSpeedupSummary() {
    const circuit::Netlist net = gen::truncatedMultiplier(8, 4);
    const circuit::ArithSignature sig = gen::multiplierSignature(8);
    std::printf("\n");
    printCompiledStats(net);
    printCompiledStats(gen::wallaceMultiplier(8));
    printCompiledStats(gen::wallaceMultiplier(16));
    printCompiledStats(gen::rippleCarryAdder(16));
    // Serial engine config: the headline number must isolate the engine
    // gain, comparable across hosts with different core counts (the
    // BM_*_EngineParallel benchmark tracks the threaded figure).
    error::ErrorAnalysisConfig serial;
    serial.threads = 1;
    const double tSeed =
        bestOf([&] { benchmark::DoNotOptimize(error::analyzeErrorBaseline(net, sig).med); }, 9);
    const double tEngine =
        bestOf([&] { benchmark::DoNotOptimize(error::analyzeError(net, sig, serial).med); }, 9);
    const double tParallel =
        bestOf([&] { benchmark::DoNotOptimize(error::analyzeError(net, sig).med); }, 9);
    std::printf(
        "\nexhaustive 8x8 multiplier error analysis: seed %.3f ms (%.3e vec/s), "
        "engine %.3f ms (%.3e vec/s), single-thread speedup %.2fx "
        "(parallel %.3f ms, %.2fx)\n",
        tSeed * 1e3, 65536.0 / tSeed, tEngine * 1e3, 65536.0 / tEngine, tSeed / tEngine,
        tParallel * 1e3, tSeed / tParallel);

    // Fault campaign: the batched sweep vs one-fault-per-full-sweep on the
    // exact 8x8 Wallace multiplier, both normalized to microseconds per
    // fault retired.  Two reference points: the naive scalar formulation
    // (mutate + full analyzeErrorBaseline sweep, what BM_FaultSweepNaive
    // measures) and the stronger per-fault re-analysis through the
    // compiled engine.
    const circuit::Netlist mul8 = gen::wallaceMultiplier(8);
    fault::CampaignConfig campaign;
    campaign.analysis.threads = 1;
    const fault::SiteEnumeration sites = fault::enumerateFaultSites(
        circuit::CompiledNetlist::compile(mul8), campaign.includeInputFaults,
        campaign.collapseEquivalent);
    const double tSweep = bestOf(
        [&] {
            benchmark::DoNotOptimize(
                fault::analyzeResilience(mul8, sig, campaign).meanMedUnderFault);
        },
        3);
    const std::size_t naiveCap = std::min<std::size_t>(sites.sites.size(), 8);
    const double tNaive = bestOf(
        [&] {
            for (std::size_t i = 0; i < naiveCap; ++i)
                benchmark::DoNotOptimize(
                    error::analyzeErrorBaseline(
                        fault::stuckAtNetlist(mul8, sites.sites[i].node, sites.sites[i].stuckTo),
                        sig)
                        .med);
        },
        3);
    const std::size_t engineCap = std::min<std::size_t>(sites.sites.size(), 16);
    const double tEngineNaive = bestOf(
        [&] {
            for (std::size_t i = 0; i < engineCap; ++i)
                benchmark::DoNotOptimize(
                    error::analyzeError(
                        fault::stuckAtNetlist(mul8, sites.sites[i].node, sites.sites[i].stuckTo),
                        sig, serial)
                        .med);
        },
        3);
    const double perFaultSweep = tSweep / static_cast<double>(sites.sites.size());
    const double perFaultNaive = tNaive / static_cast<double>(naiveCap);
    const double perFaultEngine = tEngineNaive / static_cast<double>(engineCap);
    std::printf(
        "exhaustive 8x8 stuck-at campaign: %zu faults in %.3f ms (%.2f us/fault); naive "
        "one-fault-per-sweep %.2f us/fault (batched %.1fx), engine re-analysis %.2f us/fault "
        "(batched %.1fx)\n",
        sites.sites.size(), tSweep * 1e3, perFaultSweep * 1e6, perFaultNaive * 1e6,
        perFaultNaive / perFaultSweep, perFaultEngine * 1e6, perFaultEngine / perFaultSweep);
}

}  // namespace

int main(int argc, char** argv) {
    // Default to machine-readable output so the per-PR perf trajectory is
    // tracked without remembering the flag.
    std::vector<char*> args(argv, argv + argc);
    std::string outFlag = "--benchmark_out=BENCH_micro_kernels.json";
    std::string formatFlag = "--benchmark_out_format=json";
    bool hasOut = false, hasFormat = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) hasOut = true;
        if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0) hasFormat = true;
    }
    if (!hasOut) args.push_back(outFlag.data());
    if (!hasFormat) args.push_back(formatFlag.data());
    int argcAdj = static_cast<int>(args.size());
    benchmark::Initialize(&argcAdj, args.data());
    if (benchmark::ReportUnrecognizedArguments(argcAdj, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printSpeedupSummary();
    return 0;
}
