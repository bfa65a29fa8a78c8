#include "src/error/error_metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/circuit/batch_sim.hpp"
#include "src/circuit/simulator.hpp"
#include "src/error/accumulator.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::error {

namespace {

using circuit::BatchSimulator;
using circuit::CompiledNetlist;
using circuit::Simulator;
// The accumulator, decoders and exact-value fill are shared with the
// fault-injection campaign engine (src/error/accumulator.hpp): both
// evaluation loops must produce the exact same IEEE operation order.
using namespace error::detail;

/// Vectors per work chunk.  Fixed (never derived from the thread count) so
/// the chunk decomposition — and therefore every floating-point merge
/// order — is identical no matter how many workers execute it.  8192
/// vectors (8 blocks): coarse enough to amortize scheduling, fine enough
/// that an exhaustive 8x8 analysis (65,536 vectors) still splits into 8
/// chunks.
constexpr std::uint64_t kChunkVectors = 1ull << 13;
static_assert(kChunkVectors % kBlockLanes == 0, "chunks must decompose into whole blocks");

void checkOperands(const circuit::ArithSignature& sig) {
    if (sig.widthA > 32 || sig.widthB > 32)
        throw std::invalid_argument("analyzeError: operands wider than 32 bits");
}

void checkInterface(const circuit::Netlist& netlist, const circuit::ArithSignature& sig) {
    if (static_cast<int>(netlist.inputCount()) != sig.inputWidth())
        throw std::invalid_argument("analyzeError: netlist input width != signature");
    if (static_cast<int>(netlist.outputCount()) != sig.outputWidth())
        throw std::invalid_argument("analyzeError: netlist output width != signature");
}

/// Draws sampled chunk `c` (`count` vectors) from its own stream, so the
/// stimulus does not depend on which worker draws it: the input planes,
/// block after block, and every vector's exact result.  Every lane bit is
/// an independent fair coin, which is exactly a uniform draw over the
/// (power-of-two) operand spaces.
void drawChunk(const circuit::ArithSignature& sig, std::uint64_t seed, std::uint64_t c,
               std::uint64_t count, std::vector<Word>& planes, std::vector<std::uint64_t>& exact,
               Workspace& ws) {
    const auto bits = static_cast<std::size_t>(sig.inputWidth());
    planes.resize((count + kBlockLanes - 1) / kBlockLanes * bits * kBlockWords);
    exact.resize(count);
    util::Rng rng(mixSeed(seed + c));
    for (std::uint64_t base = 0; base < count; base += kBlockLanes) {
        const auto lanes = static_cast<std::size_t>(std::min(kBlockLanes, count - base));
        // Draws happen in kSubPartialWords (256-lane) sub-blocks, bit-major
        // within each, so lane L sees the exact word a 256-lane block L/256
        // would have drawn.  (A final partial block draws surplus words; it
        // is always the chunk's last block, so nothing else consumes the
        // stream.)
        for (std::size_t sub = 0; sub < kBlockWords; sub += kSubPartialWords)
            for (std::size_t bit = 0; bit < bits; ++bit)
                for (std::size_t w = 0; w < kSubPartialWords; ++w)
                    ws.in[bit * kBlockWords + sub + w] = rng.uniformInt(0, ~std::uint64_t{0});
        fillExactSampled(ws, sig, lanes);
        std::copy(ws.in.begin(), ws.in.end(),
                  planes.data() + base / kBlockLanes * bits * kBlockWords);
        std::copy_n(ws.exact.begin(), lanes, exact.data() + base);
    }
}

/// One thread's evaluation scratch, held across every `analyze` task the
/// thread runs: the simulator workspace, rebound to each task's program,
/// and the block and decode buffers.  Both grow to the largest program and
/// interface the thread has seen, so repeated calls allocate and zero-fill
/// no workspace.  Tasks never nest on a thread (a task body runs no other
/// pool work), so one scratch per thread suffices.
struct TaskScratch {
    std::optional<BatchSimulator> sim;
    Workspace ws;
};

TaskScratch& taskScratch() {
    thread_local const std::unique_ptr<TaskScratch> scratch = std::make_unique<TaskScratch>();
    return *scratch;
}

}  // namespace

std::string ErrorReport::summary() const {
    std::ostringstream os;
    os << "MED=" << med * 100.0 << "% MAE=" << meanAbsoluteError << " WCE=" << worstCaseError
       << " EP=" << errorProbability * 100.0 << "%"
       << (exhaustive ? " (exhaustive)" : " (sampled)");
    return os.str();
}

ErrorAnalyzer::ErrorAnalyzer(const circuit::ArithSignature& sig,
                             const ErrorAnalysisConfig& config)
    : sig_(sig), config_(config), exhaustive_(config.isExhaustiveFor(sig)) {
    checkOperands(sig);
    if (exhaustive_) {
        vectors_ = std::uint64_t{1} << sig.inputWidth();
        return;
    }
    if (config.sampleCount == 0)
        throw std::invalid_argument("analyzeError: sampled analysis without samples");
    vectors_ = config.sampleCount;
    chunks_ = std::vector<SampledChunk>((vectors_ + kChunkVectors - 1) / kChunkVectors);
}

ErrorReport ErrorAnalyzer::analyze(const circuit::Netlist& netlist) const {
    checkInterface(netlist, sig_);
    const CompiledNetlist compiled = CompiledNetlist::compile(netlist);
    const auto bits = static_cast<std::size_t>(sig_.inputWidth());
    const std::size_t outputs = compiled.outputCount();
    const std::uint64_t chunkCount = (vectors_ + kChunkVectors - 1) / kChunkVectors;

    // Work is dispatched as tasks of `chunksPerTask` consecutive chunks so
    // the partial-accumulator array stays bounded for huge input spaces
    // (the grouping depends only on the vector count, never on the thread
    // count, preserving the bit-identical-at-any-parallelism guarantee).
    // Up to kMaxTasks (>= any realistic core count) the task is a single
    // chunk, i.e. full scheduling granularity.
    constexpr std::uint64_t kMaxTasks = 1024;
    const std::uint64_t chunksPerTask = (chunkCount + kMaxTasks - 1) / kMaxTasks;
    const auto taskCount =
        static_cast<std::size_t>((chunkCount + chunksPerTask - 1) / chunksPerTask);

    std::vector<Accumulator> parts(taskCount);
    const auto runTask = [&](std::size_t t) {
        TaskScratch& scratch = taskScratch();
        if (scratch.sim)
            scratch.sim->rebind(compiled);
        else
            scratch.sim.emplace(compiled);
        BatchSimulator& sim = *scratch.sim;
        Workspace& ws = scratch.ws;
        ws.in.resize(bits * kBlockWords);
        ws.out.resize(outputs * kBlockWords);
        const std::uint64_t firstChunk = static_cast<std::uint64_t>(t) * chunksPerTask;
        const std::uint64_t lastChunk = std::min(chunkCount, firstChunk + chunksPerTask);
        for (std::uint64_t c = firstChunk; c < lastChunk; ++c) {
            const std::uint64_t begin = c * kChunkVectors;
            const std::uint64_t count = std::min(kChunkVectors, vectors_ - begin);
            if (exhaustive_) {
                // An exhaustive task accumulates straight through its chunks.
                for (std::uint64_t base = begin; base < begin + count; base += kBlockLanes) {
                    const auto lanes =
                        static_cast<std::size_t>(std::min(kBlockLanes, begin + count - base));
                    circuit::fillExhaustiveBlock(ws.in, sig_.inputWidth(), base);
                    fillExactExhaustive(ws, sig_, base, lanes);
                    sim.evaluate(ws.in, ws.out);
                    consumeBlock(ws.out, outputs, lanes, ws.exact.data(), parts[t], ws);
                }
                continue;
            }
            // Each sampled chunk folds into its own accumulator, merged in
            // chunk order.
            SampledChunk& stimulus = chunks_[c];
            std::call_once(stimulus.drawn, [&] {
                drawChunk(sig_, config_.seed, c, count, stimulus.planes, stimulus.exact, ws);
            });
            Accumulator chunk;
            for (std::uint64_t off = 0; off < count; off += kBlockLanes) {
                const auto lanes = static_cast<std::size_t>(std::min(kBlockLanes, count - off));
                sim.evaluate({stimulus.planes.data() + off / kBlockLanes * bits * kBlockWords,
                              bits * kBlockWords},
                             ws.out);
                consumeBlock(ws.out, outputs, lanes, stimulus.exact.data() + off, chunk, ws);
            }
            parts[t].merge(chunk);
        }
    };
    if (config_.threads == 1 || taskCount <= 1) {
        for (std::size_t t = 0; t < taskCount; ++t) {
            if (config_.cancel != nullptr && config_.cancel->stopRequested())
                throw util::OperationCancelled("analyzeError cancelled");
            runTask(t);
        }
    } else {
        // threads > 1 caps the fan-out; 0 uses the whole pool.  The token
        // abandons unclaimed tasks (a partial sweep is useless — no report
        // is produced) and surfaces as OperationCancelled.
        util::ThreadPool::global().parallelFor(
            taskCount, runTask,
            config_.threads > 0 ? static_cast<std::size_t>(config_.threads) : 0, config_.cancel);
    }

    Accumulator acc;
    for (const Accumulator& part : parts) acc.merge(part);
    return acc.report(sig_.maxOutput(), exhaustive_);
}

ErrorReport analyzeError(const circuit::Netlist& netlist, const circuit::ArithSignature& sig,
                         const ErrorAnalysisConfig& config) {
    return ErrorAnalyzer(sig, config).analyze(netlist);
}

ErrorReport analyzeErrorBaseline(const circuit::Netlist& netlist,
                                 const circuit::ArithSignature& sig,
                                 const ErrorAnalysisConfig& config) {
    checkOperands(sig);
    checkInterface(netlist, sig);

    // The seed implementation: 64-lane sweeps of the per-node reference
    // interpreter (no compiled program, no kernel backend), one scalar
    // accumulation chain, count-trailing-zeros output decode.
    Simulator sim(netlist);

    struct ScalarAccumulator {
        double absSum = 0.0, relSum = 0.0, sqSum = 0.0;
        std::uint64_t worst = 0, errorCount = 0, total = 0;
        void add(std::uint64_t approx, std::uint64_t exact) {
            const std::uint64_t diff = approx > exact ? approx - exact : exact - approx;
            absSum += static_cast<double>(diff);
            relSum += static_cast<double>(diff) /
                      static_cast<double>(std::max<std::uint64_t>(1, exact));
            sqSum += static_cast<double>(diff) * static_cast<double>(diff);
            worst = std::max(worst, diff);
            if (diff != 0) ++errorCount;
            ++total;
        }
    } acc;

    const int totalBits = sig.inputWidth();
    const bool exhaustive = config.isExhaustiveFor(sig);

    std::vector<Word> in(static_cast<std::size_t>(totalBits));
    std::vector<Word> out(netlist.outputCount());
    std::array<std::uint64_t, 64> approx{};
    const std::uint64_t maskA = (std::uint64_t{1} << sig.widthA) - 1;

    const auto consume64 = [&](std::size_t lanes, auto exact) {
        approx.fill(0);
        for (std::size_t bit = 0; bit < out.size(); ++bit) {
            Word w = out[bit];
            const std::uint64_t weight = std::uint64_t{1} << bit;
            while (w != 0) {
                const int lane = __builtin_ctzll(w);
                approx[static_cast<std::size_t>(lane)] += weight;
                w &= w - 1;
            }
        }
        for (std::size_t lane = 0; lane < lanes; ++lane) acc.add(approx[lane], exact(lane));
    };

    if (exhaustive) {
        const std::uint64_t space = std::uint64_t{1} << totalBits;
        for (std::uint64_t base = 0; base < space; base += 64) {
            const std::size_t lanes =
                static_cast<std::size_t>(std::min<std::uint64_t>(64, space - base));
            for (int bit = 0; bit < totalBits; ++bit) {
                if (bit < 6)
                    in[static_cast<std::size_t>(bit)] =
                        circuit::kExhaustiveLanePattern[static_cast<std::size_t>(bit)];
                else
                    in[static_cast<std::size_t>(bit)] = (base >> bit) & 1u ? ~Word{0} : Word{0};
            }
            sim.evaluate(in, out);
            consume64(lanes, [&](std::size_t lane) {
                const std::uint64_t x = base + lane;
                return sig.exact(x & maskA, x >> sig.widthA);
            });
        }
    } else {
        util::Rng rng(config.seed);
        std::array<std::uint64_t, 64> as{}, bs{};
        std::uint64_t remaining = config.sampleCount;
        while (remaining > 0) {
            const std::size_t lanes =
                static_cast<std::size_t>(std::min<std::uint64_t>(64, remaining));
            for (int bit = 0; bit < totalBits; ++bit)
                in[static_cast<std::size_t>(bit)] = rng.uniformInt(0, ~std::uint64_t{0});
            sim.evaluate(in, out);
            for (std::size_t lane = 0; lane < lanes; ++lane) {
                std::uint64_t a = 0, b = 0;
                for (int bit = 0; bit < sig.widthA; ++bit)
                    a |= ((in[static_cast<std::size_t>(bit)] >> lane) & 1u) << bit;
                for (int bit = 0; bit < sig.widthB; ++bit)
                    b |= ((in[static_cast<std::size_t>(sig.widthA + bit)] >> lane) & 1u) << bit;
                as[lane] = a;
                bs[lane] = b;
            }
            consume64(lanes, [&](std::size_t lane) { return sig.exact(as[lane], bs[lane]); });
            remaining -= lanes;
        }
    }

    ErrorReport r;
    const double n = static_cast<double>(std::max<std::uint64_t>(1, acc.total));
    r.meanAbsoluteError = acc.absSum / n;
    r.med = sig.maxOutput() == 0 ? 0.0
                                 : r.meanAbsoluteError / static_cast<double>(sig.maxOutput());
    r.worstCaseError = static_cast<double>(acc.worst);
    r.meanRelativeError = acc.relSum / n;
    r.errorProbability = static_cast<double>(acc.errorCount) / n;
    r.meanSquaredError = acc.sqSum / n;
    r.vectorsEvaluated = acc.total;
    r.exhaustive = exhaustive;
    return r;
}

bool isFunctionallyExact(const circuit::Netlist& netlist, const circuit::ArithSignature& sig,
                         const ErrorAnalysisConfig& config) {
    // Documented contract: exact on every *evaluated* vector.  For spaces
    // within the exhaustive limit this is a proof; for sampled spaces it is
    // the best the evaluation can assert (use `ErrorReport::isExact` when
    // a proof is required).
    return analyzeError(netlist, sig, config).observedExact();
}

void ErrorReport::serialize(util::ByteWriter& out) const {
    out.f64(med);
    out.f64(meanAbsoluteError);
    out.f64(worstCaseError);
    out.f64(meanRelativeError);
    out.f64(errorProbability);
    out.f64(meanSquaredError);
    out.u64(vectorsEvaluated);
    out.boolean(exhaustive);
}

bool ErrorReport::deserialize(util::ByteReader& in, ErrorReport& out) {
    in.f64(out.med);
    in.f64(out.meanAbsoluteError);
    in.f64(out.worstCaseError);
    in.f64(out.meanRelativeError);
    in.f64(out.errorProbability);
    in.f64(out.meanSquaredError);
    in.u64(out.vectorsEvaluated);
    in.boolean(out.exhaustive);
    return in.ok();
}

}  // namespace axf::error
