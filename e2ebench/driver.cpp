// axf-e2e — end-to-end and per-layer benchmark driver for the axf stack.
//
// Runs one named workload of the paper's pipeline
//
//   library_build     gen::buildLibrary over the fixed library set
//   autoax_dse        autoax::AutoAxFpgaFlow::run (Gaussian + Sobel) over
//                     component menus and accelerators built in set-up
//
// core::ApproxFpgasFlow::run is not a workload of its own: it is mostly
// serial, and on shared cloud hosts its pass time swung by more than the
// benchmark's bound between runs of the same input.  It runs in
// autoax_dse's set-up, and its layers are probed in autoax_dse's traced run.
//
// and prints one JSON object per line on stdout (the record kinds are
// documented in e2ebench/README.md).  run.py drives it; this binary only
// measures and fingerprints, it never judges.
//
// Usage:
//   axf-e2e --workload NAME --seed N --seconds S [--work-dir DIR]
//           [--trace-file PATH --metrics-file PATH] [--pipeline]
//
// --pipeline skips timing: it runs the whole pipeline once for the seed and
// prints every stage's fingerprint plus the modelled-quality metrics (the
// reference run).  --trace-file records the traced pass and the layer
// probes as Chrome-trace JSON; --metrics-file receives the registry
// counters accumulated during the traced pass only.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/autoax/accelerator.hpp"
#include "src/autoax/dse.hpp"
#include "src/autoax/eval_engine.hpp"
#include "src/autoax/sobel.hpp"
#include "src/cache/characterization_cache.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/kernels.hpp"
#include "src/circuit/simulator.hpp"
#include "src/core/flow.hpp"
#include "src/core/pareto.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/library.hpp"
#include "src/gen/multipliers.hpp"
#include "src/img/image.hpp"
#include "src/ml/registry.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/synth/asic.hpp"
#include "src/synth/fpga.hpp"
#include "src/util/io.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

using namespace axf;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64 finalizer: derives independent per-stage seeds from the
/// workload seed, so neighbouring seeds give unrelated inputs.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

// --- output -----------------------------------------------------------------

std::string jsonString(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string jsonNumber(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// One flat JSON record per stdout line.
class Record {
public:
    explicit Record(const char* kind) { body_ = "{\"kind\":" + jsonString(kind); }
    Record& num(const char* key, double v) {
        body_ += std::string(",") + jsonString(key) + ":" + jsonNumber(v);
        return *this;
    }
    Record& str(const char* key, const std::string& v) {
        body_ += std::string(",") + jsonString(key) + ":" + jsonString(v);
        return *this;
    }
    void emit() const {
        std::printf("%s}\n", body_.c_str());
        std::fflush(stdout);
    }

private:
    std::string body_;
};

/// FNV-1a over result-defining fields, as `axf-campaign --digest-file`.
class Fingerprint {
public:
    void mix(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 1099511628211ull;
        }
    }
    void mixDouble(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }
    void mixString(const std::string& s) {
        mix(s.size());
        for (const char c : s) mix(static_cast<unsigned char>(c));
    }
    std::string hex() const {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
        return buf;
    }

private:
    std::uint64_t h_ = 1469598103934665603ull;
};

// --- the pipeline -------------------------------------------------------------

struct LibrarySpec {
    circuit::ArithOp op;
    int width;
};

/// The fig8 library set: both operators at 8 and 16 bits, so the sampled
/// error path (16-bit operands) runs beside the exhaustive one.
const std::vector<LibrarySpec> kFig8Libraries = {{circuit::ArithOp::Adder, 8},
                                                 {circuit::ArithOp::Adder, 16},
                                                 {circuit::ArithOp::Multiplier, 8},
                                                 {circuit::ArithOp::Multiplier, 16}};
/// fig9's menu sources: 8x8 multipliers and 16-bit adders.
constexpr LibrarySpec kMenuMultipliers = {circuit::ArithOp::Multiplier, 8};
constexpr LibrarySpec kMenuAdders = {circuit::ArithOp::Adder, 16};
const std::vector<LibrarySpec> kMenuLibraries = {kMenuMultipliers, kMenuAdders};
/// The rest of the fig8 set.
const std::vector<LibrarySpec> kOtherLibraries = {{circuit::ArithOp::Adder, 8},
                                                  {circuit::ArithOp::Multiplier, 16}};

/// CI-scale library policy (the fig harnesses' AXF_SCALE=ci), seeded from
/// the workload seed.
gen::LibraryConfig libraryConfig(const LibrarySpec& spec, std::uint64_t seed,
                                 cache::CharacterizationCache* cache) {
    gen::LibraryConfig cfg;
    cfg.op = spec.op;
    cfg.width = spec.width;
    cfg.seed = deriveSeed(seed, static_cast<std::uint64_t>(spec.width) * 2 +
                                    (spec.op == circuit::ArithOp::Multiplier ? 1 : 0));
    cfg.medBudgets = {0.001, 0.01};
    cfg.cgpGenerations = 60;
    if (spec.width >= 12) {
        cfg.errorConfig.exhaustiveLimit = 1u << 16;
        cfg.errorConfig.sampleCount = 1u << 15;
    }
    cfg.cache = cache;
    return cfg;
}

error::ErrorAnalysisConfig errorConfigFor(int width) {
    return libraryConfig({circuit::ArithOp::Adder, width}, 0, nullptr).errorConfig;
}

using Libraries = std::vector<gen::AcLibrary>;
using Flows = std::vector<core::FlowResult>;

Libraries buildLibraries(const std::vector<LibrarySpec>& specs, std::uint64_t seed,
                         cache::CharacterizationCache* cache) {
    Libraries libraries;
    for (const LibrarySpec& spec : specs) {
        obs::Span span("e2e/gen.build_library");
        libraries.push_back(gen::buildLibrary(libraryConfig(spec, seed, cache)));
    }
    return libraries;
}

/// fig8's flow configuration: coverage on, the full Table-I zoo, no cache.
Flows runFlows(const Libraries& libraries, std::uint64_t seed) {
    core::ApproxFpgasFlow::Config cfg;
    cfg.seed = deriveSeed(seed, 0xF10);
    Flows flows;
    for (const gen::AcLibrary& library : libraries)
        flows.push_back(core::ApproxFpgasFlow(cfg).run(library));
    return flows;
}

struct Menus {
    std::vector<autoax::Component> multipliers;
    std::vector<autoax::Component> adders;
};

const core::FlowResult& flowFor(const Flows& flows, const LibrarySpec& spec) {
    for (const core::FlowResult& r : flows) {
        const circuit::ArithSignature& sig = r.dataset.circuits().front().circuit.signature;
        if (sig.op == spec.op && sig.widthA == spec.width) return r;
    }
    throw std::logic_error("no flow result for a menu library");
}

/// fig9's component menus: 9 multipliers and 8 adders off the area fronts.
Menus menusFromFlows(const Flows& flows) {
    return {autoax::componentsFromFlow(flowFor(flows, kMenuMultipliers), core::FpgaParam::Area, 9),
            autoax::componentsFromFlow(flowFor(flows, kMenuAdders), core::FpgaParam::Area, 8)};
}

struct Accelerators {
    std::unique_ptr<autoax::GaussianAccelerator> gaussian;
    std::unique_ptr<autoax::SobelAccelerator> sobel;
};

Accelerators buildAccelerators(const Menus& menus) {
    return {std::make_unique<autoax::GaussianAccelerator>(menus.multipliers, menus.adders),
            std::make_unique<autoax::SobelAccelerator>(menus.adders)};
}

/// fig9 at CI scale: the 4-island Gaussian search.
autoax::AutoAxFpgaFlow::Config gaussianConfig(std::uint64_t seed) {
    autoax::AutoAxFpgaFlow::Config cfg;
    cfg.islands = 4;
    cfg.searchBatch = 8;
    cfg.migrationInterval = 8;
    cfg.trainConfigs = 60;
    cfg.hillIterations = 800;
    cfg.imageSize = 64;
    cfg.seed = deriveSeed(seed, 0x6A5);
    return cfg;
}

/// Sobel with a mixed-strategy fleet, the resilience objective and
/// checkpoints, as `axf-campaign` runs it.
autoax::AutoAxFpgaFlow::Config sobelConfig(std::uint64_t seed, const std::string& checkpointDir,
                                           cache::CharacterizationCache* cache) {
    autoax::AutoAxFpgaFlow::Config cfg;
    cfg.trainConfigs = 40;
    cfg.hillIterations = 400;
    cfg.imageSize = 64;
    cfg.islands = 3;
    cfg.searchBatch = 4;
    cfg.islandStrategies = {search::Strategy::HillClimb, search::Strategy::Anneal,
                            search::Strategy::Genetic};
    cfg.resilienceObjective = true;
    cfg.faultCampaign.analysis.sampleCount = 1u << 10;
    cfg.cache = cache;
    cfg.checkpointDirectory = checkpointDir;
    cfg.seed = deriveSeed(seed, 0x50B);
    return cfg;
}

/// One DSE campaign and the slot count of the accelerator it explored.
struct DseRun {
    std::size_t slots = 0;
    autoax::AutoAxFpgaFlow::Result result;
};
using DseResults = std::vector<DseRun>;

/// Search seeds per pass.  How many configurations a campaign really
/// evaluates depends on its archive sizes, which vary by seed; repeating
/// both campaigns over a few derived seeds evens that out.
constexpr std::uint64_t kDseRepeats = 3;

/// Scratch directory for one pass's checkpoints, removed on scope exit.
class ScratchDir {
public:
    explicit ScratchDir(const std::string& parent) {
        static int counter = 0;
        path_ = parent + "/scratch-" + std::to_string(::getpid()) + "-" + std::to_string(counter++);
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

DseResults runDse(const Accelerators& accelerators, std::uint64_t seed, const std::string& workDir,
                  cache::CharacterizationCache* cache) {
    DseResults out;
    for (std::uint64_t repeat = 0; repeat < kDseRepeats; ++repeat) {
        const std::uint64_t searchSeed = deriveSeed(seed, 0xD5E + repeat);
        {
            obs::Span span("e2e/autoax.gaussian_dse");
            out.push_back({accelerators.gaussian->configSpace().slotCount(),
                           autoax::AutoAxFpgaFlow(gaussianConfig(searchSeed))
                               .run(*accelerators.gaussian)});
        }
        const ScratchDir checkpoints(workDir);
        obs::Span span("e2e/autoax.sobel_dse");
        out.push_back({accelerators.sobel->configSpace().slotCount(),
                       autoax::AutoAxFpgaFlow(sobelConfig(searchSeed, checkpoints.path(), cache))
                           .run(*accelerators.sobel)});
    }
    return out;
}

// --- fingerprints and modelled quality ------------------------------------------

std::string fingerprintLibraries(const Libraries& libraries) {
    Fingerprint fp;
    for (const gen::AcLibrary& library : libraries) {
        fp.mix(library.size());
        for (const gen::LibraryCircuit& c : library) {
            fp.mix(c.netlist.structuralHash());
            const error::ErrorReport& e = c.error;
            for (double v : {e.med, e.meanAbsoluteError, e.worstCaseError, e.meanRelativeError,
                             e.errorProbability, e.meanSquaredError})
                fp.mixDouble(v);
            fp.mix(e.vectorsEvaluated);
            fp.mix(e.exhaustive ? 1 : 0);
        }
    }
    return fp.hex();
}

/// The archives of both DSE results (axf-campaign's `resultDigest` fields).
std::string fingerprintDse(const DseResults& dse) {
    Fingerprint fp;
    const auto mixConfig = [&fp](const autoax::EvaluatedConfig& e) {
        for (int c : e.config.choice) fp.mix(static_cast<std::uint64_t>(c));
        for (double v : {e.ssim, e.cost.lutCount, e.cost.powerMw, e.cost.latencyNs}) fp.mixDouble(v);
    };
    for (const DseRun& run : dse) {
        const autoax::AutoAxFpgaFlow::Result* result = &run.result;
        fp.mix(result->trainingSet.size());
        for (const autoax::EvaluatedConfig& e : result->trainingSet) mixConfig(e);
        for (const autoax::AutoAxFpgaFlow::ScenarioResult& s : result->scenarios) {
            fp.mix(static_cast<std::uint64_t>(s.param));
            fp.mix(s.estimatorQueries);
            fp.mix(s.autoax.size());
            for (const autoax::EvaluatedConfig& e : s.autoax) mixConfig(e);
            fp.mix(s.random.size());
            for (const autoax::EvaluatedConfig& e : s.random) mixConfig(e);
        }
        fp.mix(result->totalRealEvaluations);
    }
    return fp.hex();
}

double frontCoverage(const Flows& flows) {
    double sum = 0.0;
    std::size_t count = 0;
    for (const core::FlowResult& r : flows)
        for (const core::TargetOutcome& t : r.targets) {
            sum += t.coverageOfTrueFront;
            ++count;
        }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double explorationSpeedup(const Flows& flows) {
    double exhaustive = 0.0, flow = 0.0;
    for (const core::FlowResult& r : flows) {
        exhaustive += r.exhaustiveSynthSeconds;
        flow += r.flowSynthSeconds;
    }
    return flow > 0.0 ? exhaustive / flow : 0.0;
}

constexpr double kSsimThresholds[] = {0.90, 0.95, 0.98, 0.995};

double bestCostAt(const std::vector<autoax::EvaluatedConfig>& points, core::FpgaParam param,
                  double threshold) {
    double best = std::numeric_limits<double>::infinity();
    for (const autoax::EvaluatedConfig& p : points)
        if (p.ssim >= threshold) best = std::min(best, autoax::costParamOf(p.cost, param));
    return best;
}

/// Share of (scenario x SSIM threshold) cells where AutoAx's best cost is
/// no worse than the random baseline's; cells neither side reaches are
/// not comparable and are left out.
double autoaxWinRate(const DseResults& dse) {
    std::size_t cells = 0, wins = 0;
    for (const DseRun& run : dse)
        for (const autoax::AutoAxFpgaFlow::ScenarioResult& s : run.result.scenarios)
            for (double threshold : kSsimThresholds) {
                const double a = bestCostAt(s.autoax, s.param, threshold);
                const double r = bestCostAt(s.random, s.param, threshold);
                if (!std::isfinite(a) && !std::isfinite(r)) continue;
                ++cells;
                if (a <= r) ++wins;
            }
    return cells == 0 ? 0.0 : static_cast<double>(wins) / static_cast<double>(cells);
}

std::size_t libraryCircuits(const Libraries& libraries) {
    std::size_t n = 0;
    for (const gen::AcLibrary& library : libraries) n += library.size();
    return n;
}

// --- workloads ------------------------------------------------------------------

enum class Workload { LibraryBuild, AutoAxDse };

std::optional<Workload> parseWorkload(const std::string& name) {
    if (name == "library_build") return Workload::LibraryBuild;
    if (name == "autoax_dse") return Workload::AutoAxDse;
    return std::nullopt;
}

/// Everything a workload's pass reads (built in set-up) or produces.  The
/// stages after the workload's own run once, untimed, for the quality
/// metrics.
struct State {
    Libraries libraries;
    Flows flows;
    Menus menus;
    Accelerators accelerators;
    DseResults dse;
    std::unique_ptr<cache::CharacterizationCache> passCache;  ///< fresh per pass
};

/// Validates that every CGP seed architecture is exact under the library's
/// error policy (a library evolved from a wrong seed is meaningless).
void checkSeedArchitectures() {
    for (const LibrarySpec& spec : kFig8Libraries) {
        const gen::LibraryConfig cfg = libraryConfig(spec, 0, nullptr);
        const circuit::ArithSignature sig = gen::librarySignature(cfg);
        const circuit::Netlist seeds[] = {
            spec.op == circuit::ArithOp::Adder ? gen::rippleCarryAdder(spec.width)
                                               : gen::wallaceMultiplier(spec.width),
            spec.op == circuit::ArithOp::Adder ? gen::carryLookaheadAdder(spec.width)
                                               : gen::arrayMultiplier(spec.width)};
        for (const circuit::Netlist& n : seeds)
            if (!error::isFunctionallyExact(n, sig, cfg.errorConfig))
                throw std::runtime_error("seed architecture " + n.name() + " is not exact");
    }
}

/// Builds the inputs of `workload`'s pass.
void setUp(Workload workload, std::uint64_t seed, State& state) {
    state = State{};
    switch (workload) {
        case Workload::LibraryBuild:
            // A cold build takes no prebuilt input.  Set-up validates the
            // CGP seeds and characterizes the seed-independent structural
            // families once, which brings up the pool threads, allocator
            // arenas and kernel tables before the first measured pass.
            checkSeedArchitectures();
            for (const LibrarySpec& spec : kFig8Libraries) {
                cache::CharacterizationCache fresh;
                (void)gen::buildStructuralFamilies(libraryConfig(spec, seed, &fresh));
            }
            return;
        case Workload::AutoAxDse: {
            cache::CharacterizationCache buildCache;
            state.libraries = buildLibraries(kMenuLibraries, seed, &buildCache);
            state.flows = runFlows(state.libraries, seed);
            state.menus = menusFromFlows(state.flows);
            state.accelerators = buildAccelerators(state.menus);
            return;
        }
    }
}

struct PassOutcome {
    std::string fingerprint;
    double circuits = 0;  ///< circuits the pass processed
    double configs = 0;   ///< design configurations the pass evaluated
};

/// One measured pass.  On library_build a library circuit is the
/// configuration evaluated, so configs equals circuits; autoax_dse counts
/// the component instances it simulated as circuits.
PassOutcome runPass(Workload workload, std::uint64_t seed, const std::string& workDir,
                    State& state) {
    state.passCache = std::make_unique<cache::CharacterizationCache>();
    PassOutcome out;
    switch (workload) {
        case Workload::LibraryBuild:
            state.libraries = buildLibraries(kFig8Libraries, seed, state.passCache.get());
            out.fingerprint = fingerprintLibraries(state.libraries);
            out.circuits = static_cast<double>(libraryCircuits(state.libraries));
            out.configs = out.circuits;
            return out;
        case Workload::AutoAxDse: {
            state.dse = runDse(state.accelerators, seed, workDir, state.passCache.get());
            out.fingerprint = fingerprintDse(state.dse);
            for (const DseRun& run : state.dse) {
                const auto evaluations = static_cast<double>(run.result.totalRealEvaluations);
                out.configs += evaluations;
                out.circuits += evaluations * static_cast<double>(run.slots);
            }
            return out;
        }
    }
    return out;
}

/// Runs the pipeline stages `workload` does not time once (untimed) and
/// emits the modelled-quality record, so every workload reports the
/// quality of the same fig8 library set and DSE at the seed.
void emitQuality(Workload workload, std::uint64_t seed, const std::string& workDir, State& state) {
    if (workload == Workload::AutoAxDse) {
        // Set-up ran the flows of the menu libraries only.
        cache::CharacterizationCache buildCache;
        for (core::FlowResult& r :
             runFlows(buildLibraries(kOtherLibraries, seed, &buildCache), seed))
            state.flows.push_back(std::move(r));
    } else {
        state.flows = runFlows(state.libraries, seed);
        state.menus = menusFromFlows(state.flows);
        state.accelerators = buildAccelerators(state.menus);
        cache::CharacterizationCache dseCache;
        state.dse = runDse(state.accelerators, seed, workDir, &dseCache);
    }
    Record("quality")
        .num("front_coverage", frontCoverage(state.flows))
        .num("exploration_speedup", explorationSpeedup(state.flows))
        .num("autoax_win_rate", autoaxWinRate(state.dse))
        .emit();
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void emitHost() {
    const auto env = [](const char* name) {
        const char* v = std::getenv(name);
        return std::string(v == nullptr ? "" : v);
    };
    Record("host")
        .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
        .num("pool_workers", static_cast<double>(util::ThreadPool::global().threadCount()))
        .str("backend", circuit::kernels::selectedBackend().name)
        .str("AXF_THREADS", env("AXF_THREADS"))
        .str("AXF_FORCE_BACKEND", env("AXF_FORCE_BACKEND"))
        .str("AXF_FORCE_WIDTH", env("AXF_FORCE_WIDTH"))
        .str("compiler", __VERSION__)
        .emit();
}

// --- traced run: layer probes -----------------------------------------------------

/// Counts the probes produce beside their spans (rates need a numerator).
struct ProbeCounts {
    double libraryCircuits = 0;
    double errorVectors = 0;
    double probeConfigs = 0;
    double cacheHits = 0;
    double cacheMisses = 0;
};

/// Copies the pass's in-memory cache into an on-disk store, flushes it and
/// opens a fresh cache over it: the cache layer's write and load paths on
/// exactly the entries the pass produced.
void probeCache(cache::CharacterizationCache& passCache, const std::string& workDir,
                ProbeCounts& counts) {
    const cache::CacheStats stats = passCache.stats();
    counts.cacheHits = static_cast<double>(stats.hits);
    counts.cacheMisses = static_cast<double>(stats.misses);
    if (passCache.size() == 0) return;
    const ScratchDir store(workDir);
    {
        cache::CharacterizationCache::Options options;
        options.directory = store.path();
        cache::CharacterizationCache disk(options);
        passCache.forEachEntry([&disk](const cache::CacheKey& key,
                                       const std::vector<std::uint8_t>& bytes) {
            disk.putBytes(key, bytes);
        });
        obs::Span span("e2e/cache.flush");
        disk.flush();
    }
    cache::CharacterizationCache::Options options;
    options.directory = store.path();
    obs::Span span("e2e/cache.load");
    const cache::CharacterizationCache reopened(options);
}

template <typename Fn>
void forEachCircuit(const Libraries& libraries, Fn&& fn) {
    for (const gen::AcLibrary& library : libraries)
        for (const gen::LibraryCircuit& c : library) fn(c);
}

void probeErrorAndCompile(const std::vector<std::pair<const circuit::Netlist*,
                                                      circuit::ArithSignature>>& circuits,
                          ProbeCounts& counts) {
    {
        obs::Span span("e2e/error.analyze");
        for (const auto& [netlist, sig] : circuits)
            counts.errorVectors += static_cast<double>(
                error::analyzeError(*netlist, sig, errorConfigFor(sig.widthA)).vectorsEvaluated);
    }
    obs::Span span("e2e/circuit.compile");
    for (const auto& [netlist, sig] : circuits) (void)circuit::CompiledNetlist::compile(*netlist);
}

void probeLibraryBuild(std::uint64_t seed, const State& state, ProbeCounts& counts) {
    counts.libraryCircuits = static_cast<double>(libraryCircuits(state.libraries));
    {
        obs::Span span("e2e/gen.structural");
        for (const LibrarySpec& spec : kFig8Libraries) {
            cache::CharacterizationCache fresh;
            (void)gen::buildStructuralFamilies(libraryConfig(spec, seed, &fresh));
        }
    }
    std::vector<std::pair<const circuit::Netlist*, circuit::ArithSignature>> circuits;
    forEachCircuit(state.libraries,
                   [&](const gen::LibraryCircuit& c) { circuits.push_back({&c.netlist, c.signature}); });
    probeErrorAndCompile(circuits, counts);
}

void probeFlow(const State& state) {
    const synth::FpgaFlow fpga;
    const synth::AsicFlow asic;
    {
        obs::Span span("e2e/core.characterize");
        for (const gen::AcLibrary& library : state.libraries)
            (void)core::CircuitDataset::characterize(library, asic);
    }
    {
        obs::Span span("e2e/synth.asic");
        forEachCircuit(state.libraries,
                       [&](const gen::LibraryCircuit& c) { (void)asic.synthesize(c.netlist); });
    }
    {
        obs::Span span("e2e/synth.fpga_implement");
        forEachCircuit(state.libraries,
                       [&](const gen::LibraryCircuit& c) { (void)fpga.implement(c.netlist); });
    }
    {
        obs::Span span("e2e/synth.lutmap");
        forEachCircuit(state.libraries,
                       [&](const gen::LibraryCircuit& c) { (void)fpga.technologyMap(c.netlist); });
    }
    {
        const synth::FpgaFlow::Options defaults;
        obs::Span span("e2e/circuit.toggle_rates");
        forEachCircuit(state.libraries, [&](const gen::LibraryCircuit& c) {
            (void)circuit::estimateToggleRates(c.netlist, defaults.activitySeed,
                                               defaults.activityBlocks);
        });
    }
    {
        obs::Span span("e2e/circuit.compile");
        forEachCircuit(state.libraries, [&](const gen::LibraryCircuit& c) {
            (void)circuit::CompiledNetlist::compile(c.netlist);
        });
    }
    {
        // Every Table-I spec x FPGA parameter, fit on the circuits the flow
        // measured and predicting the whole library (steps 3-4 of Fig. 2).
        obs::Span span("e2e/ml.zoo_fit_predict");
        for (const core::FlowResult& r : state.flows) {
            std::vector<std::size_t> measured, all;
            for (std::size_t i = 0; i < r.dataset.size(); ++i) {
                all.push_back(i);
                if (r.dataset.circuits()[i].fpgaMeasured) measured.push_back(i);
            }
            const ml::Matrix xTrain = r.dataset.featureMatrix(measured);
            const ml::Matrix xAll = r.dataset.featureMatrix(all);
            for (const ml::ModelSpec& spec :
                 ml::tableOneModels(core::CircuitDataset::asicColumns()))
                for (core::FpgaParam param : core::kAllFpgaParams) {
                    ml::RegressorPtr model = spec.make();
                    model->fit(xTrain, r.dataset.measuredTargets(measured, param));
                    (void)model->predictAll(xAll);
                }
        }
    }
    obs::Span span("e2e/core.pareto");
    for (const core::FlowResult& r : state.flows) {
        std::vector<core::ParetoPoint> points;
        for (std::size_t i = 0; i < r.dataset.size(); ++i) {
            const core::CharacterizedCircuit& cc = r.dataset.circuits()[i];
            points.push_back({core::ApproxFpgasFlow::qualityOf(cc), cc.asic.areaUm2, i});
        }
        (void)core::successiveParetoFronts(points, 3);
        (void)core::paretoFront(points);
    }
}

void probeDse(std::uint64_t seed, const State& state, ProbeCounts& counts) {
    {
        obs::Span span("e2e/autoax.accelerator_setup");
        (void)buildAccelerators(state.menus);
    }
    std::vector<std::pair<const circuit::Netlist*, circuit::ArithSignature>> circuits;
    for (const auto* menu : {&state.menus.multipliers, &state.menus.adders})
        for (const autoax::Component& c : *menu) circuits.push_back({&c.netlist, c.signature});
    probeErrorAndCompile(circuits, counts);

    // Throughput of the evaluation engine with the memo off: random configs
    // of both accelerators against the passes' scene sets.
    std::vector<std::vector<autoax::EvaluatedConfig>> evaluated;
    const autoax::AcceleratorModel* models[] = {state.accelerators.gaussian.get(),
                                                state.accelerators.sobel.get()};
    {
        obs::Span span("e2e/autoax.eval_batch");
        util::Rng rng(deriveSeed(seed, 0xE7A));
        for (const autoax::AcceleratorModel* model : models) {
            std::vector<img::Image> scenes;
            for (std::uint64_t s = 0; s < 2; ++s)
                scenes.push_back(img::syntheticScene(64, 64, deriveSeed(seed, 0x5CE + s)));
            autoax::EvalEngine engine(*model, std::move(scenes), {.memoize = false});
            std::vector<autoax::AcceleratorConfig> configs;
            for (int i = 0; i < 64; ++i) configs.push_back(model->configSpace().randomConfig(rng));
            evaluated.push_back(engine.evaluateBatch(configs));
            counts.probeConfigs += static_cast<double>(configs.size());
        }
    }
    obs::Span span("e2e/autoax.train_estimators");
    for (std::size_t m = 0; m < evaluated.size(); ++m)
        (void)autoax::AcceleratorEstimators::train(*models[m], evaluated[m]);
}

/// Registry counters and histograms accumulated between two snapshots.
obs::MetricsSnapshot snapshotDelta(const obs::MetricsSnapshot& before,
                                   const obs::MetricsSnapshot& after) {
    obs::MetricsSnapshot delta;
    for (const obs::Metric& m : after.metrics()) {
        const obs::Metric* b = before.find(m.name);
        switch (m.kind) {
            case obs::MetricKind::Counter:
                // Collector-backed counters (per-instance caches) are not
                // monotonic: an instance that died before `after` drops out.
                delta.addCounter(m.name, b != nullptr && b->counter <= m.counter
                                             ? m.counter - b->counter
                                             : m.counter);
                break;
            case obs::MetricKind::Gauge:
                delta.addGauge(m.name, m.gauge);
                break;
            case obs::MetricKind::Histogram: {
                obs::HistogramData h = m.histogram;
                if (b != nullptr) {
                    h.count -= b->histogram.count;
                    h.sum -= b->histogram.sum;
                    for (std::size_t i = 0; i < h.buckets.size() && i < b->histogram.buckets.size();
                         ++i)
                        h.buckets[i] -= b->histogram.buckets[i];
                }
                delta.addHistogram(m.name, std::move(h));
                break;
            }
        }
    }
    return delta;
}

// --- main -------------------------------------------------------------------------

/// Set-ups per run (setup_s is their median) and the fewest measured
/// passes, however long they take.
constexpr int kSetups = 7;
constexpr int kMinPasses = 7;

struct Options {
    Workload workload = Workload::LibraryBuild;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string workDir = ".";
    std::string traceFile;
    std::string metricsFile;
    bool pipeline = false;
};

int usage() {
    std::fprintf(stderr,
                 "usage: axf-e2e --workload library_build|autoax_dse --seed N\n"
                 "               --seconds S [--work-dir DIR]\n"
                 "               [--trace-file PATH --metrics-file PATH] [--pipeline]\n");
    return 2;
}

bool parseOptions(int argc, char** argv, Options& o) {
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--pipeline") {
            o.pipeline = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            const std::optional<Workload> w = parseWorkload(value);
            if (!w) return false;
            o.workload = *w;
            haveWorkload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0') return false;
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(o.seconds > 0.0)) return false;
        } else if (arg == "--work-dir") {
            o.workDir = value;
        } else if (arg == "--trace-file") {
            o.traceFile = value;
        } else if (arg == "--metrics-file") {
            o.metricsFile = value;
        } else {
            return false;
        }
    }
    return haveWorkload && o.traceFile.empty() == o.metricsFile.empty();
}

/// Reference run: the whole pipeline once, every stage fingerprinted.
void runPipeline(const Options& o) {
    State state;
    cache::CharacterizationCache buildCache;
    state.libraries = buildLibraries(kFig8Libraries, o.seed, &buildCache);
    state.flows = runFlows(state.libraries, o.seed);
    state.menus = menusFromFlows(state.flows);
    state.accelerators = buildAccelerators(state.menus);
    cache::CharacterizationCache dseCache;
    state.dse = runDse(state.accelerators, o.seed, o.workDir, &dseCache);
    Record("pipeline")
        .str("library_build", fingerprintLibraries(state.libraries))
        .str("autoax_dse", fingerprintDse(state.dse))
        .num("front_coverage", frontCoverage(state.flows))
        .num("exploration_speedup", explorationSpeedup(state.flows))
        .num("autoax_win_rate", autoaxWinRate(state.dse))
        .emit();
}

/// Aggregate CPU time counters of the host (/proc/stat, in ticks).
struct CpuTicks {
    unsigned long long steal = 0;
    unsigned long long busy = 0;  ///< user, nice, system, irq and softirq
};

CpuTicks readCpuTicks() {
    std::ifstream in("/proc/stat");
    std::string label;
    unsigned long long fields[8] = {};  // user nice system idle iowait irq softirq steal
    if (!(in >> label) || label != "cpu") return {};
    for (unsigned long long& f : fields)
        if (!(in >> f)) return {};
    return {fields[7], fields[0] + fields[1] + fields[2] + fields[5] + fields[6]};
}

/// Share of the CPU time the host's threads wanted that a hypervisor took
/// away between two readings (0 where /proc/stat is unavailable).
double stealShare(const CpuTicks& before, const CpuTicks& after) {
    if (after.steal < before.steal || after.busy < before.busy) return 0.0;
    const auto stolen = static_cast<double>(after.steal - before.steal);
    const double wanted = stolen + static_cast<double>(after.busy - before.busy);
    return wanted > 0.0 ? stolen / wanted : 0.0;
}

/// Times one pass and emits its record; a throw is recorded, not fatal.
void timedPass(const Options& o, State& state, const char* kind) {
    const CpuTicks ticks = readCpuTicks();
    const Clock::time_point start = Clock::now();
    try {
        PassOutcome outcome;
        {
            obs::Span span("e2e/pass");
            outcome = runPass(o.workload, o.seed, o.workDir, state);
        }
        const double seconds = secondsSince(start);
        Record(kind)
            .num("seconds", seconds)
            .num("steal", stealShare(ticks, readCpuTicks()))
            .str("fingerprint", outcome.fingerprint)
            .num("circuits", outcome.circuits)
            .num("configs", outcome.configs)
            .emit();
    } catch (const std::exception& e) {
        Record(kind).num("seconds", secondsSince(start)).str("error", e.what()).emit();
    }
}

int runMeasured(const Options& o) {
    emitHost();
    State state;
    for (int k = 0; k < kSetups; ++k) {
        const CpuTicks ticks = readCpuTicks();
        const Clock::time_point start = Clock::now();
        setUp(o.workload, o.seed, state);
        const double seconds = secondsSince(start);
        Record("setup").num("seconds", seconds).num("steal", stealShare(ticks, readCpuTicks())).emit();
    }

    // The traced run spends half its budget on untraced passes, the
    // baseline its tracing overhead is measured against.
    const double window = o.traceFile.empty() ? o.seconds : o.seconds / 2.0;
    const Clock::time_point windowStart = Clock::now();
    for (int passes = 0; passes < kMinPasses || secondsSince(windowStart) < window; ++passes)
        timedPass(o, state, "pass");
    Record("memory").num("peak_rss_mb", peakRssMb()).emit();

    if (o.traceFile.empty()) {
        emitQuality(o.workload, o.seed, o.workDir, state);
        return 0;
    }

    obs::startTracing(o.traceFile);
    state.passCache.reset();  // its counters must not leak into the delta
    const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
    timedPass(o, state, "traced_pass");
    const std::string metricsJson =
        snapshotDelta(before, obs::Registry::global().snapshot()).toJson() + "\n";
    ProbeCounts counts;
    switch (o.workload) {
        case Workload::LibraryBuild: probeLibraryBuild(o.seed, state, counts); break;
        case Workload::AutoAxDse:
            probeFlow(state);
            probeDse(o.seed, state, counts);
            break;
    }
    probeCache(*state.passCache, o.workDir, counts);
    if (obs::stopTracing().empty()) throw std::runtime_error("cannot write " + o.traceFile);
    if (!util::atomicWriteFile(o.metricsFile, metricsJson.data(), metricsJson.size()))
        throw std::runtime_error("cannot write " + o.metricsFile);
    Record("probe_counts")
        .num("library_circuits", counts.libraryCircuits)
        .num("error_vectors", counts.errorVectors)
        .num("probe_configs", counts.probeConfigs)
        .num("cache_hits", counts.cacheHits)
        .num("cache_misses", counts.cacheMisses)
        .emit();
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    if (!parseOptions(argc, argv, options)) return usage();
    try {
        std::filesystem::create_directories(options.workDir);
        if (options.pipeline) {
            runPipeline(options);
            return 0;
        }
        return runMeasured(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "axf-e2e: %s\n", e.what());
        return 1;
    }
}
