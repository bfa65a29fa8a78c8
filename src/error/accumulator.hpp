#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/circuit/arith.hpp"
#include "src/circuit/batch_sim.hpp"
#include "src/circuit/kernels.hpp"
#include "src/error/error_metrics.hpp"

/// Shared internals of the error-metric evaluation loops: the deterministic
/// kSlots-wide metric accumulator, the plane decoders and the golden
/// exact-value fills.  Used by `analyzeError` (src/error/error_metrics.cpp)
/// and the fault-injection campaign engine (src/fault), which must
/// accumulate with the exact same per-slot IEEE operation order so its
/// reports are reproducible bit-for-bit.  Not a public API.
namespace axf::error::detail {

using Word = circuit::CompiledNetlist::Word;

/// Block shape of every evaluation loop (1024 lanes per sweep).
inline constexpr std::size_t kBlockWords = circuit::BatchSimulator::kBlockWords;
inline constexpr std::size_t kBlockLanes = circuit::BatchSimulator::kBlockLanes;

/// Accumulation granularity, not a width: blocks feed the accumulator in
/// 256-lane sub-partials (ascending), and sampled analysis draws its
/// stimulus in 4-word sub-blocks.  This order fixes every IEEE rounding
/// step and every random draw; the report goldens and the e2ebench
/// reference fingerprints depend on it.
inline constexpr std::size_t kSubPartialWords = 4;
inline constexpr std::size_t kSubPartialLanes = kSubPartialWords * 64;
static_assert(kBlockWords % kSubPartialWords == 0,
              "blocks must split into whole accumulation sub-partials");

/// Number of independent accumulation slots; lane i feeds slot i % 8.
/// Eight parallel chains instead of one serial FP dependency lets the
/// metric loop auto-vectorize; the slots reduce in a fixed order, so the
/// result is still fully deterministic.
inline constexpr std::size_t kSlots = 8;

/// Accumulates metric sums over evaluated (approx, exact) result pairs.
struct Accumulator {
    std::array<double, kSlots> absSum{};
    std::array<double, kSlots> relSum{};
    std::array<double, kSlots> sqSum{};
    std::array<std::uint64_t, kSlots> worst{};
    std::array<std::uint64_t, kSlots> errorCount{};
    std::uint64_t total = 0;

    /// Folds one decoded block in, lanes in ascending order.  The slot
    /// chains are computed with explicit kSlots-wide vector extensions:
    /// element-wise IEEE ops in the exact same per-slot order as the
    /// scalar formulation (results are the same bits — GCC's
    /// auto-vectorizer was leaving the divide loop scalar, which dominated
    /// the whole exhaustive analysis).
    template <typename ApproxT>
    void addBlock(const ApproxT* approx, const std::uint64_t* exact, std::size_t lanes) {
        // Alignment downgrades live in second typedefs: fused with
        // vector_size they would be overridden by the vector alignment.
        typedef std::uint64_t VecU0 __attribute__((vector_size(kSlots * 8), may_alias));
        typedef VecU0 VecU __attribute__((aligned(8)));
        typedef double VecD0 __attribute__((vector_size(kSlots * 8), may_alias));
        typedef VecD0 VecD __attribute__((aligned(8)));
        typedef ApproxT VecA0
            __attribute__((vector_size(kSlots * sizeof(ApproxT)), may_alias));
        typedef VecA0 VecA __attribute__((aligned(2)));
        VecD absV = *reinterpret_cast<const VecD*>(absSum.data());
        VecD relV = *reinterpret_cast<const VecD*>(relSum.data());
        VecD sqV = *reinterpret_cast<const VecD*>(sqSum.data());
        VecU worstV = *reinterpret_cast<const VecU*>(worst.data());
        VecU errV = *reinterpret_cast<const VecU*>(errorCount.data());
        const std::size_t vec = lanes & ~(kSlots - 1);
        for (std::size_t g = 0; g < vec; g += kSlots) {
            const VecU e = *reinterpret_cast<const VecU*>(exact + g);
            const VecU ap =
                __builtin_convertvector(*reinterpret_cast<const VecA*>(approx + g), VecU);
            const VecU diff = ap > e ? ap - e : e - ap;
            const VecD d = __builtin_convertvector(diff, VecD);
            absV += d;
            sqV += d * d;
            // (e == 0) is an all-ones lane mask, so e - mask == max(e, 1).
            relV += d / __builtin_convertvector(e - static_cast<VecU>(e == 0), VecD);
            worstV = diff > worstV ? diff : worstV;
            errV += static_cast<VecU>(diff != 0) & 1;
        }
        *reinterpret_cast<VecD*>(absSum.data()) = absV;
        *reinterpret_cast<VecD*>(relSum.data()) = relV;
        *reinterpret_cast<VecD*>(sqSum.data()) = sqV;
        *reinterpret_cast<VecU*>(worst.data()) = worstV;
        *reinterpret_cast<VecU*>(errorCount.data()) = errV;
        for (std::size_t l = vec; l < lanes; ++l) {
            const std::size_t j = l % kSlots;
            const std::uint64_t e = exact[l];
            const std::uint64_t ap = approx[l];
            const std::uint64_t diff = ap > e ? ap - e : e - ap;
            const double d = static_cast<double>(diff);
            absSum[j] += d;
            sqSum[j] += d * d;
            relSum[j] += d / static_cast<double>(e ? e : 1);
            worst[j] = diff > worst[j] ? diff : worst[j];
            errorCount[j] += diff != 0;
        }
        total += lanes;
    }

    /// Folds a later chunk in.  Chunks merge strictly in index order.
    void merge(const Accumulator& o) {
        for (std::size_t j = 0; j < kSlots; ++j) {
            absSum[j] += o.absSum[j];
            relSum[j] += o.relSum[j];
            sqSum[j] += o.sqSum[j];
            worst[j] = std::max(worst[j], o.worst[j]);
            errorCount[j] += o.errorCount[j];
        }
        total += o.total;
    }

    ErrorReport report(std::uint64_t maxOutput, bool exhaustive) const {
        double abs = 0.0, rel = 0.0, sq = 0.0;
        std::uint64_t wc = 0, errs = 0;
        for (std::size_t j = 0; j < kSlots; ++j) {  // fixed reduction order
            abs += absSum[j];
            rel += relSum[j];
            sq += sqSum[j];
            wc = std::max(wc, worst[j]);
            errs += errorCount[j];
        }
        ErrorReport r;
        const double n = static_cast<double>(std::max<std::uint64_t>(1, total));
        r.meanAbsoluteError = abs / n;
        r.med = maxOutput == 0 ? 0.0 : r.meanAbsoluteError / static_cast<double>(maxOutput);
        r.worstCaseError = static_cast<double>(wc);
        r.meanRelativeError = rel / n;
        r.errorProbability = static_cast<double>(errs) / n;
        r.meanSquaredError = sq / n;
        r.vectorsEvaluated = total;
        r.exhaustive = exhaustive;
        return r;
    }
};

/// Decodes output bit-planes of a block into one 16-bit value per lane
/// (outputs <= 16, the 8x8-multiplier case) through the runtime-dispatched
/// kernel backend: AVX-512BW masked broadcast-adds when the CPU has them,
/// the portable sweep otherwise.  Every backend decodes to identical bits.
inline void decodeOutputsU16(const Word* out, std::size_t outputs, std::uint16_t* approx) {
    circuit::kernels::selectedBackend().decode16(out, outputs, approx);
}

/// Decodes bit-planes (`outputs` planes of kBlockWords words; output or
/// operand planes alike) into one 32-bit value per lane (outputs <= 32);
/// runtime-dispatched like the 16-bit variant.
inline void decodeOutputsU32(const Word* out, std::size_t outputs, std::uint32_t* approx) {
    circuit::kernels::selectedBackend().decode32(out, outputs, approx);
}

/// 64-bit decode for wide interfaces (33..64 outputs); branchless so the
/// compiler can vectorize with variable shifts.
inline void decodeOutputsU64(const Word* out, std::size_t outputs, std::uint64_t* approx) {
    std::memset(approx, 0, kBlockLanes * sizeof(std::uint64_t));
    for (std::size_t bit = 0; bit < outputs; ++bit) {
        for (std::size_t w = 0; w < kBlockWords; ++w) {
            const Word word = out[bit * kBlockWords + w];
            std::uint64_t* a = approx + w * 64;
            for (std::size_t l = 0; l < 64; ++l)
                a[l] += ((word >> l) & 1u) << bit;
        }
    }
}

/// Per-chunk workspace: input/output blocks plus decoded lane values.
struct Workspace {
    std::vector<Word> in;
    std::vector<Word> out;
    alignas(64) std::array<std::uint16_t, kBlockLanes> approx16{};
    alignas(64) std::array<std::uint32_t, kBlockLanes> approx32{};
    alignas(64) std::array<std::uint64_t, kBlockLanes> approx64{};
    alignas(64) std::array<std::uint64_t, kBlockLanes> exact{};
    alignas(64) std::array<std::uint32_t, kBlockLanes> operandA{};
    alignas(64) std::array<std::uint32_t, kBlockLanes> operandB{};
};

/// Decodes an output block (into `ws`'s lane arrays) and accumulates error
/// against `exact[0..lanes)`.  Each kSubPartialLanes sub-block feeds
/// `addBlock` separately in ascending order (see kSubPartialWords).
inline void consumeBlock(const std::vector<Word>& out, std::size_t outputs, std::size_t lanes,
                         const std::uint64_t* exact, Accumulator& acc, Workspace& ws) {
    const auto addSubBlocks = [&](const auto* approx) {
        for (std::size_t off = 0; off < lanes; off += kSubPartialLanes)
            acc.addBlock(approx + off, exact + off, std::min(kSubPartialLanes, lanes - off));
    };
    if (outputs <= 16) {
        decodeOutputsU16(out.data(), outputs, ws.approx16.data());
        addSubBlocks(ws.approx16.data());
    } else if (outputs <= 32) {
        decodeOutputsU32(out.data(), outputs, ws.approx32.data());
        addSubBlocks(ws.approx32.data());
    } else {
        decodeOutputsU64(out.data(), outputs, ws.approx64.data());
        addSubBlocks(ws.approx64.data());
    }
}

/// Fills `ws.exact[0..lanes)` with the golden operator results (pure
/// integer math — the explicit 8-wide vectors only change how the same
/// values are computed).  The operator branch is hoisted out of the lane
/// loop.
inline void fillExactExhaustive(Workspace& ws, const circuit::ArithSignature& sig,
                                std::uint64_t base, std::size_t lanes) {
    typedef std::uint64_t VecU0 __attribute__((vector_size(64), may_alias));
    typedef VecU0 VecU __attribute__((aligned(8)));
    constexpr std::size_t kVec = 8;
    constexpr VecU kIota = {0, 1, 2, 3, 4, 5, 6, 7};
    const std::uint64_t maskA = (std::uint64_t{1} << sig.widthA) - 1;
    const int shift = sig.widthA;
    const std::size_t vec = lanes & ~(kVec - 1);
    if (sig.op == circuit::ArithOp::Adder) {
        for (std::size_t lane = 0; lane < vec; lane += kVec) {
            const VecU x = (base + lane) + kIota;
            *reinterpret_cast<VecU*>(ws.exact.data() + lane) = (x & maskA) + (x >> shift);
        }
        for (std::size_t lane = vec; lane < lanes; ++lane) {
            const std::uint64_t x = base + lane;
            ws.exact[lane] = (x & maskA) + (x >> shift);
        }
    } else {
        for (std::size_t lane = 0; lane < vec; lane += kVec) {
            const VecU x = (base + lane) + kIota;
            *reinterpret_cast<VecU*>(ws.exact.data() + lane) = (x & maskA) * (x >> shift);
        }
        for (std::size_t lane = vec; lane < lanes; ++lane) {
            const std::uint64_t x = base + lane;
            ws.exact[lane] = (x & maskA) * (x >> shift);
        }
    }
}

/// Fills `ws.exact[0..lanes)` with the golden results of the operand pairs
/// a sampled input block `ws.in` carries: operand A in planes [0, widthA),
/// operand B in the widthB planes after it (both at most 32 bits wide, as
/// the analyzers' interface checks enforce), unpacked through the
/// runtime-dispatched plane decoder.
inline void fillExactSampled(Workspace& ws, const circuit::ArithSignature& sig,
                             std::size_t lanes) {
    const auto widthA = static_cast<std::size_t>(sig.widthA);
    std::uint32_t* a = ws.operandA.data();
    std::uint32_t* b = ws.operandB.data();
    decodeOutputsU32(ws.in.data(), widthA, a);
    decodeOutputsU32(ws.in.data() + widthA * kBlockWords, static_cast<std::size_t>(sig.widthB), b);
    if (sig.op == circuit::ArithOp::Adder) {
        for (std::size_t lane = 0; lane < lanes; ++lane)
            ws.exact[lane] = static_cast<std::uint64_t>(a[lane]) + b[lane];
    } else {
        for (std::size_t lane = 0; lane < lanes; ++lane)
            ws.exact[lane] = static_cast<std::uint64_t>(a[lane]) * b[lane];
    }
}

/// Splitmix64 step — decorrelates per-chunk sample streams from the seed.
inline std::uint64_t mixSeed(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

}  // namespace axf::error::detail
