#include "src/gen/library.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_set>

#include "src/circuit/transform.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/cgp.hpp"
#include "src/gen/multipliers.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/select.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::gen {

using circuit::ArithOp;
using circuit::ArithSignature;
using circuit::Netlist;

circuit::ArithSignature librarySignature(const LibraryConfig& config) {
    return ArithSignature{config.op, config.width, config.width};
}

namespace {

/// Artifact-family tag of cached simplified netlists (bump on any change
/// to `circuit::simplify` semantics).
constexpr std::string_view kSimplifyTag = "simplified-netlist.v1";

/// A deduplicated library entry waiting for its error report.
struct PendingCircuit {
    LibraryCircuit circuit;  ///< complete but for `error`
    std::uint64_t hash = 0;  ///< structural hash of `circuit.netlist`
};

/// The library's report stage: analyzes every pending entry in one
/// parallel fan-out through the characterization cache, then appends the
/// entries in order.  Structural families and CGP harvests both end here,
/// on the library's one analyzer.
void appendReported(AcLibrary& library, std::vector<PendingCircuit>& pending,
                    const error::ErrorAnalyzer& analyzer, cache::CharacterizationCache* cache,
                    const util::CancellationToken* cancel) {
    static obs::Counter& characterized =
        obs::Registry::global().counter("gen.netlists_characterized");
    util::ThreadPool::global().parallelFor(
        pending.size(),
        [&](std::size_t i) {
            LibraryCircuit& c = pending[i].circuit;
            c.error = cache::analyzeErrorCached(cache, pending[i].hash, c.netlist, analyzer);
        },
        0, cancel);
    characterized.add(pending.size());
    for (PendingCircuit& p : pending) library.push_back(std::move(p.circuit));
}

/// Collects generator calls, then characterizes their output in a
/// three-stage pipeline: parallel generate+simplify+hash, ordered dedup,
/// then the report stage (`appendReported`).  Each candidate's raw netlist
/// is built inside its own task and dropped once simplified, so the raw
/// family is never all alive at once.  The dedup and append stages walk
/// candidates in submission order, so the resulting library is identical
/// to a fully-serial accumulation no matter how many workers run.
///
/// With a characterization cache both parallel stages become
/// content-addressed: simplified netlists are keyed by the raw netlist's
/// structural hash, error reports by the simplified hash + signature +
/// analysis-config digest.  Hits skip the computation but produce the
/// same bits, so warm builds are identical to cold ones.
class CandidateSet {
public:
    void add(std::function<Netlist()> generate, const char* origin) {
        candidates_.push_back({std::move(generate), origin});
    }

    void characterizeInto(AcLibrary& library, std::unordered_set<std::uint64_t>& seen,
                          const error::ErrorAnalyzer& analyzer,
                          cache::CharacterizationCache* cache,
                          const util::CancellationToken* cancel = nullptr) {
        obs::Span span("characterize");
        struct Prepared {
            Netlist simplified;
            std::uint64_t hash = 0;
        };
        std::vector<Prepared> prepared(candidates_.size());
        util::ThreadPool::global().parallelFor(
            candidates_.size(),
            [&](std::size_t i) {
                const Netlist raw = candidates_[i].generate();
                if (cache != nullptr &&
                    loadSimplified(*cache, raw, prepared[i].simplified, prepared[i].hash))
                    return;
                prepared[i].simplified = circuit::simplify(raw);
                prepared[i].hash = prepared[i].simplified.structuralHash();
                if (cache != nullptr)
                    storeSimplified(*cache, raw, prepared[i].simplified, prepared[i].hash);
            },
            0, cancel);

        std::vector<PendingCircuit> pending;
        for (std::size_t i = 0; i < prepared.size(); ++i) {
            if (!seen.insert(prepared[i].hash).second) continue;
            PendingCircuit& p = pending.emplace_back();
            p.circuit.name = prepared[i].simplified.name();
            p.circuit.origin = candidates_[i].origin;
            p.circuit.netlist = std::move(prepared[i].simplified);
            p.circuit.signature = analyzer.signature();
            p.hash = prepared[i].hash;
        }
        appendReported(library, pending, analyzer, cache, cancel);
        candidates_.clear();
    }

private:
    struct Candidate {
        std::function<Netlist()> generate;
        const char* origin;
    };

    /// Cached simplification via the cache's netlist interface (hash
    /// tamper check and, when the cache enables it, a static lint on
    /// load), keyed by the raw netlist's hash.
    static bool loadSimplified(cache::CharacterizationCache& cache, const Netlist& raw,
                               Netlist& simplified, std::uint64_t& hash) {
        const cache::CacheKey key =
            cache::CharacterizationCache::blobKey(raw.structuralHash(), kSimplifyTag);
        std::optional<Netlist> net = cache.findNetlist(key, &hash);
        if (!net) return false;
        simplified = std::move(*net);
        // The key hashes structure only, so same-structure candidates with
        // different names share this entry; `simplify` preserves its input
        // name, so restoring the caller's keeps warm == cold per candidate.
        simplified.setName(raw.name());
        return true;
    }

    static void storeSimplified(cache::CharacterizationCache& cache, const Netlist& raw,
                                const Netlist& simplified, std::uint64_t hash) {
        cache.putNetlist(
            cache::CharacterizationCache::blobKey(raw.structuralHash(), kSimplifyTag),
            simplified, hash);
    }

    std::vector<Candidate> candidates_;
};

void addAdderFamilies(CandidateSet& acc, int n) {
    acc.add([n] { return rippleCarryAdder(n); }, "exact_rca");
    acc.add([n] { return carryLookaheadAdder(n); }, "exact_cla");
    acc.add([n] { return carrySelectAdder(n, 2); }, "exact_csel");
    acc.add([n] { return carrySelectAdder(n, 4); }, "exact_csel");
    acc.add([n] { return koggeStoneAdder(n); }, "exact_ks");
    for (int k = 1; k < n; ++k) {
        acc.add([n, k] { return loaAdder(n, k); }, "loa");
        acc.add([n, k] { return truncatedAdder(n, k); }, "trunc");
        acc.add([n, k] { return etaAdder(n, k); }, "eta");
    }
    for (int w = 1; w < n; ++w) acc.add([n, w] { return acaAdder(n, w); }, "aca");
    for (int r = 1; r <= n / 2; ++r)
        for (int p = 0; p <= n / 2 && r + p <= n; p += 2)
            acc.add([n, r, p] { return gearAdder(n, r, p); }, "gear");
    for (int blk = 1; blk < n; ++blk) acc.add([n, blk] { return etaIIAdder(n, blk); }, "eta2");
    for (const ApproxFaKind kind : {ApproxFaKind::PassA, ApproxFaKind::OrSum,
                                    ApproxFaKind::XorNoCarry, ApproxFaKind::CarrySkip})
        for (int k = 1; k < n; ++k)
            acc.add([n, k, kind] { return approxCellAdder(n, k, kind); }, "afa");
}

void addMultiplierFamilies(CandidateSet& acc, int n) {
    acc.add([n] { return arrayMultiplier(n); }, "exact_array");
    acc.add([n] { return wallaceMultiplier(n); }, "exact_wallace");
    for (int t = 1; t <= n; ++t) acc.add([n, t] { return truncatedMultiplier(n, t); }, "trunc");
    for (int h = 0; h <= n; h += 1)
        for (int v = 0; v <= n / 2; ++v)
            if (h + v > 0) acc.add([n, h, v] { return brokenArrayMultiplier(n, h, v); }, "bam");
    if ((n & (n - 1)) == 0) acc.add([n] { return kulkarniMultiplier(n); }, "kulkarni");
    for (int c = 1; c <= n; ++c)
        acc.add([n, c] { return approxCompressorMultiplier(n, c); }, "cmp");
    for (int k = 2; k < n; ++k) acc.add([n, k] { return drumMultiplier(n, k); }, "drum");
    if (n >= 3) acc.add([n] { return mitchellMultiplier(n); }, "mitchell");
}

Netlist cgpSeed(const LibraryConfig& config, int which) {
    if (config.op == ArithOp::Adder)
        return which == 0 ? rippleCarryAdder(config.width) : carryLookaheadAdder(config.width);
    return which == 0 ? wallaceMultiplier(config.width) : arrayMultiplier(config.width);
}

void addStructural(CandidateSet& acc, const LibraryConfig& config) {
    if (config.op == ArithOp::Adder)
        addAdderFamilies(acc, config.width);
    else
        addMultiplierFamilies(acc, config.width);
}

/// The library's report analyzer.  The build-level token also rides
/// inside every per-netlist analysis, so a stop request lands within a
/// chunk's worth of work even when a single exhaustive sweep dominates the
/// wall clock.
error::ErrorAnalyzer reportAnalyzer(const LibraryConfig& config) {
    error::ErrorAnalysisConfig errorConfig = config.errorConfig;
    if (errorConfig.cancel == nullptr) errorConfig.cancel = config.cancel;
    return error::ErrorAnalyzer(librarySignature(config), errorConfig);
}

}  // namespace

AcLibrary buildStructuralFamilies(const LibraryConfig& config) {
    AcLibrary library;
    std::unordered_set<std::uint64_t> seen;
    CandidateSet candidates;
    addStructural(candidates, config);
    candidates.characterizeInto(library, seen, reportAnalyzer(config), config.cache,
                                config.cancel);
    return library;
}

AcLibrary buildLibrary(const LibraryConfig& config) {
    obs::Span span("build_library");
    static obs::Histogram& buildSeconds =
        obs::Registry::global().histogram("gen.library_build_seconds");
    obs::ScopedTimer timer(buildSeconds);
    const ArithSignature sig = librarySignature(config);
    const error::ErrorAnalyzer analyzer = reportAnalyzer(config);
    AcLibrary library;
    std::unordered_set<std::uint64_t> seen;

    CandidateSet candidates;
    addStructural(candidates, config);
    candidates.characterizeInto(library, seen, analyzer, config.cache, config.cancel);

    if (!config.structuralOnly) {
        // Every (MED budget, seed architecture) pair is an independent
        // evolutionary run with its own seed: fan the runs out over the
        // pool, then fold the harvests back in the serial loop order so
        // the library content and naming never depend on scheduling.  The
        // runs only evolve; the unique harvests are reported afterwards in
        // the library's report stage.
        struct RunSpec {
            std::size_t budgetIdx;
            int seedArch;
            std::uint64_t seed;
        };
        std::vector<RunSpec> runs;
        std::uint64_t runSeed = config.seed;
        for (std::size_t budgetIdx = 0; budgetIdx < config.medBudgets.size(); ++budgetIdx)
            for (int seedArch = 0; seedArch < 2; ++seedArch)
                runs.push_back({budgetIdx, seedArch, runSeed++});

        std::vector<std::vector<CgpHarvest>> harvests(runs.size());
        util::ThreadPool::global().parallelFor(
            runs.size(),
            [&](std::size_t r) {
                CgpEvolver::Options options;
                options.medBudget = config.medBudgets[runs[r].budgetIdx];
                options.lambda = config.cgpLambda;
                options.generations = config.cgpGenerations;
                options.seed = runs[r].seed;
                options.fitnessConfig.cancel = config.cancel;
                CgpEvolver evolver(sig, options);
                harvests[r] = evolver.run(cgpSeed(config, runs[r].seedArch));
            },
            0, config.cancel);

        std::vector<PendingCircuit> pending;
        for (std::size_t r = 0; r < runs.size(); ++r) {
            int idx = 0;
            for (CgpHarvest& h : harvests[r]) {
                const std::string name =
                    (config.op == ArithOp::Adder ? "add" : "mul") + std::to_string(config.width) +
                    "_cgp_b" + std::to_string(runs[r].budgetIdx) + "_s" +
                    std::to_string(runs[r].seedArch) + "_" + std::to_string(idx++);
                const std::uint64_t hash = h.netlist.structuralHash();
                if (!seen.insert(hash).second) continue;
                PendingCircuit& p = pending.emplace_back();
                p.circuit.name = name;
                p.circuit.origin = "cgp";
                p.circuit.netlist = std::move(h.netlist);
                p.circuit.netlist.setName(name);
                p.circuit.signature = sig;
                p.hash = hash;
            }
        }
        appendReported(library, pending, analyzer, config.cache, config.cancel);
    }

    if (config.maxCircuits != 0 && library.size() > config.maxCircuits) {
        // Deterministic uniform thinning over the error-sorted order keeps
        // the full MED spread (both extremes) while bounding the size.
        std::sort(library.begin(), library.end(),
                  [](const LibraryCircuit& a, const LibraryCircuit& b) {
                      return a.error.med < b.error.med;
                  });
        util::thinUniform(library, config.maxCircuits);
    }
    return library;
}

}  // namespace axf::gen
