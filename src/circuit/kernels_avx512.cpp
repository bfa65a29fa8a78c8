// AVX-512 backend.  Each block width maps to its natural register shape —
// W = 4 (256 lanes) runs on ymm via AVX-512VL, W = 8 (512 lanes) on one
// zmm, W = 16 (1024 lanes) on a zmm pair — so the W = 8 family is the
// first to retire a full 512-bit register per logic op.  The win over AVX2
// at every width is vpternlogq: every 3-input or inverted gate (Mux, Maj,
// Xor3, Nand, Nor, Xnor, OrNot, MuxNot*) is exactly ONE logic instruction
// whose truth-table immediate is computed at compile time from the shared
// OpCode semantics (width-invariant: the same immediate serves every
// register shape).  The lane codecs run on mask registers: the encoder
// narrows lanes to bytes and tests one bit of 64 lanes per vptestmb, and
// the decoders use AVX-512BW masked broadcast-adds (the plane word itself
// is the write mask), tiled in 256-lane groups so the accumulator set
// stays within the register file at every width.
//
// CMake compiles this TU with -march=x86-64-v4; nothing in it executes
// unless runtime detection confirmed avx512{f,bw,vl,dq}.

#include "src/circuit/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

namespace axf::circuit::kernels {
namespace avx512_impl {

#include "src/circuit/kernels_generic.inc"

/// vpternlogq immediate: result bit = imm[(A << 2) | (B << 1) | C] for
/// operand order ternarylogic(a, b, c, imm) — exactly the layout of the
/// shared `opTruthTable`, so the immediate IS the truth table.  No
/// hand-written immediates exist to drift from the opcode semantics.
template <OpCode Op>
constexpr int ternImm() {
    return opTruthTable(Op);
}

/// One workspace slot in the natural register shape of width W.
template <std::size_t W>
struct SlotVec;

template <>
struct SlotVec<4> {
    using T = __m256i;
    static T load(const Word* p) { return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)); }
    static void store(Word* p, T v) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v); }
    static T and_(T a, T b) { return _mm256_and_si256(a, b); }
    static T or_(T a, T b) { return _mm256_or_si256(a, b); }
    static T xor_(T a, T b) { return _mm256_xor_si256(a, b); }
    static T andnot(T a, T b) { return _mm256_andnot_si256(b, a); }  // a & ~b
    template <int Imm>
    static T tern(T a, T b, T c) {
        return _mm256_ternarylogic_epi64(a, b, c, Imm);
    }
};

template <>
struct SlotVec<8> {
    using T = __m512i;
    static T load(const Word* p) { return _mm512_loadu_si512(p); }
    static void store(Word* p, T v) { _mm512_storeu_si512(p, v); }
    static T and_(T a, T b) { return _mm512_and_si512(a, b); }
    static T or_(T a, T b) { return _mm512_or_si512(a, b); }
    static T xor_(T a, T b) { return _mm512_xor_si512(a, b); }
    static T andnot(T a, T b) { return _mm512_andnot_si512(b, a); }  // a & ~b
    template <int Imm>
    static T tern(T a, T b, T c) {
        return _mm512_ternarylogic_epi64(a, b, c, Imm);
    }
};

template <>
struct SlotVec<16> {
    struct T {
        __m512i lo, hi;
    };
    static T load(const Word* p) { return {_mm512_loadu_si512(p), _mm512_loadu_si512(p + 8)}; }
    static void store(Word* p, T v) {
        _mm512_storeu_si512(p, v.lo);
        _mm512_storeu_si512(p + 8, v.hi);
    }
    static T and_(T a, T b) {
        return {_mm512_and_si512(a.lo, b.lo), _mm512_and_si512(a.hi, b.hi)};
    }
    static T or_(T a, T b) { return {_mm512_or_si512(a.lo, b.lo), _mm512_or_si512(a.hi, b.hi)}; }
    static T xor_(T a, T b) {
        return {_mm512_xor_si512(a.lo, b.lo), _mm512_xor_si512(a.hi, b.hi)};
    }
    static T andnot(T a, T b) {
        return {_mm512_andnot_si512(b.lo, a.lo), _mm512_andnot_si512(b.hi, a.hi)};
    }
    template <int Imm>
    static T tern(T a, T b, T c) {
        return {_mm512_ternarylogic_epi64(a.lo, b.lo, c.lo, Imm),
                _mm512_ternarylogic_epi64(a.hi, b.hi, c.hi, Imm)};
    }
};

/// Single-result opcode on one W-word slot: plain ops where one
/// instruction per register suffices, vpternlogq everywhere else.
template <std::size_t W, OpCode Op>
inline typename SlotVec<W>::T applyWide(typename SlotVec<W>::T a, typename SlotVec<W>::T b,
                                        typename SlotVec<W>::T c) {
    using V = SlotVec<W>;
    if constexpr (Op == OpCode::Buf) return a;
    if constexpr (Op == OpCode::And) return V::and_(a, b);
    if constexpr (Op == OpCode::Or) return V::or_(a, b);
    if constexpr (Op == OpCode::Xor) return V::xor_(a, b);
    if constexpr (Op == OpCode::AndNot) return V::andnot(a, b);
    if constexpr (Op == OpCode::Not) return V::template tern<ternImm<Op>()>(a, a, a);
    if constexpr (Op == OpCode::Nand || Op == OpCode::Nor || Op == OpCode::Xnor ||
                  Op == OpCode::OrNot)
        return V::template tern<ternImm<Op>()>(a, b, b);  // imm ignores C
    if constexpr (opFanIn(Op) == 3) return V::template tern<ternImm<Op>()>(a, b, c);
}

template <std::size_t W, OpCode Op, int N>
void runWide(const Instr* instrs, std::uint32_t count, Word* ws) {
    using V = SlotVec<W>;
    const auto ptr = [ws](std::uint32_t s) { return ws + static_cast<std::size_t>(s) * W; };
    const std::uint32_t n = N >= 0 ? static_cast<std::uint32_t>(N) : count;
    for (std::uint32_t i = 0; i < n; ++i) {
        const Instr& ins = instrs[i];
        const typename V::T a = V::load(ptr(ins.a));
        if constexpr (Op == OpCode::HalfAdd) {
            const typename V::T b = V::load(ptr(ins.b));
            V::store(ptr(ins.c), V::and_(a, b));
            V::store(ptr(ins.dst), V::xor_(a, b));
        } else {
            typename V::T b = a, c = a;
            if constexpr (opFanIn(Op) >= 2) b = V::load(ptr(ins.b));
            if constexpr (opFanIn(Op) >= 3) c = V::load(ptr(ins.c));
            V::store(ptr(ins.dst), applyWide<W, Op>(a, b, c));
        }
    }
}

/// Chained run: instruction i > 0 consumes instruction i-1's destination
/// as operand `a` from a register (see KernelFn in kernels.hpp).
template <std::size_t W, OpCode Op>
void chainWide(const Instr* instrs, std::uint32_t count, Word* ws) {
    using V = SlotVec<W>;
    const auto ptr = [ws](std::uint32_t s) { return ws + static_cast<std::size_t>(s) * W; };
    typename V::T prev = V::load(ptr(instrs[0].a));
    for (std::uint32_t i = 0; i < count; ++i) {
        const Instr& ins = instrs[i];
        const typename V::T a = prev;
        if constexpr (Op == OpCode::HalfAdd) {
            const typename V::T b = V::load(ptr(ins.b));
            V::store(ptr(ins.c), V::and_(a, b));
            prev = V::xor_(a, b);
        } else {
            typename V::T b = a, c = a;
            if constexpr (opFanIn(Op) >= 2) b = V::load(ptr(ins.b));
            if constexpr (opFanIn(Op) >= 3) c = V::load(ptr(ins.c));
            prev = applyWide<W, Op>(a, b, c);
        }
        V::store(ptr(ins.dst), prev);
    }
}

#define AXF_KERNEL_ROW(W, N)                                                                   \
    kernelRow(&runWide<W, OpCode::Buf, N>,     &runWide<W, OpCode::Not, N>,                    \
              &runWide<W, OpCode::And, N>,     &runWide<W, OpCode::Or, N>,                     \
              &runWide<W, OpCode::Xor, N>,     &runWide<W, OpCode::Nand, N>,                   \
              &runWide<W, OpCode::Nor, N>,     &runWide<W, OpCode::Xnor, N>,                   \
              &runWide<W, OpCode::AndNot, N>,  &runWide<W, OpCode::OrNot, N>,                  \
              &runWide<W, OpCode::Mux, N>,     &runWide<W, OpCode::Maj, N>,                    \
              &runWide<W, OpCode::Xor3, N>,    &runWide<W, OpCode::MuxNotA, N>,                \
              &runWide<W, OpCode::MuxNotB, N>, &runWide<W, OpCode::HalfAdd, N>,                \
              &runWide<W, OpCode::And3, N>,    &runWide<W, OpCode::Or3, N>)

#define AXF_CHAIN_ROW(W)                                                                       \
    kernelRow(&chainWide<W, OpCode::Buf>,     &chainWide<W, OpCode::Not>,                      \
              &chainWide<W, OpCode::And>,     &chainWide<W, OpCode::Or>,                       \
              &chainWide<W, OpCode::Xor>,     &chainWide<W, OpCode::Nand>,                     \
              &chainWide<W, OpCode::Nor>,     &chainWide<W, OpCode::Xnor>,                     \
              &chainWide<W, OpCode::AndNot>,  &chainWide<W, OpCode::OrNot>,                    \
              &chainWide<W, OpCode::Mux>,     &chainWide<W, OpCode::Maj>,                      \
              &chainWide<W, OpCode::Xor3>,    &chainWide<W, OpCode::MuxNotA>,                  \
              &chainWide<W, OpCode::MuxNotB>, &chainWide<W, OpCode::HalfAdd>,                  \
              &chainWide<W, OpCode::And3>,    &chainWide<W, OpCode::Or3>)

template <std::size_t W>
constexpr std::array<std::array<KernelFn, kMaxUnroll>, kOpCount> makeUnrolled() {
    constexpr std::array<std::array<KernelFn, kOpCount>, kMaxUnroll> byCount = {
        {AXF_KERNEL_ROW(W, 1), AXF_KERNEL_ROW(W, 2), AXF_KERNEL_ROW(W, 3),
         AXF_KERNEL_ROW(W, 4)}};
    static_assert(kMaxUnroll == 4, "extend the unrolled-kernel rows");
    std::array<std::array<KernelFn, kMaxUnroll>, kOpCount> t{};
    for (std::size_t op = 0; op < kOpCount; ++op)
        for (std::size_t n = 0; n < kMaxUnroll; ++n) t[op][n] = byCount[n][op];
    return t;
}

/// Narrows 16-lane group `Group` of a 64-lane word into its slots of the
/// word's low-byte and high-byte registers (vpmovdb; immediate lane index).
template <int Group>
inline void narrowGroup(const std::uint32_t* values, __m512i& lo, __m512i& hi) {
    const __m512i v = _mm512_loadu_si512(values + Group * 16);
    lo = _mm512_inserti32x4(lo, _mm512_cvtepi32_epi8(v), Group);
    hi = _mm512_inserti32x4(hi, _mm512_cvtepi32_epi8(_mm512_srli_epi32(v, 8)), Group);
}

/// Encoder: each 64-lane word narrows its lanes' low and high value bytes
/// into one register each, then one vptestmb per bit yields the whole
/// plane word as a mask.  That is 16 tests per 64 lanes instead of 64
/// vptestmd on the 32-bit lanes: 0.24 vs 0.63 us per 1024 lanes on an
/// AVX-512 Xeon.
template <std::size_t W>
void encode16Avx512(const std::uint32_t* values, Word* planes) {
    for (std::size_t w = 0; w < W; ++w) {
        __m512i lo = _mm512_setzero_si512(), hi = _mm512_setzero_si512();
        narrowGroup<0>(values + w * 64, lo, hi);
        narrowGroup<1>(values + w * 64, lo, hi);
        narrowGroup<2>(values + w * 64, lo, hi);
        narrowGroup<3>(values + w * 64, lo, hi);
        for (std::size_t bit = 0; bit < 8; ++bit) {
            const __m512i probe = _mm512_set1_epi8(static_cast<char>(1u << bit));
            planes[bit * W + w] = _mm512_test_epi8_mask(lo, probe);
            planes[(bit + 8) * W + w] = _mm512_test_epi8_mask(hi, probe);
        }
    }
}

/// One masked broadcast-add per (bit, 32-lane group): twice the lanes per
/// add of the 32-bit decode, valid for bits <= 16.  Tiled in 256-lane
/// (4-word) groups so wider widths reuse the same 8-accumulator inner
/// kernel instead of demanding W/4 times the registers.
template <std::size_t W>
void decode16Avx512(const Word* planes, std::size_t bits, std::uint16_t* out) {
    constexpr std::size_t kTileWords = 4;
    for (std::size_t base = 0; base < W; base += kTileWords) {
        constexpr std::size_t kGroups = kTileWords * 64 / 32;
        __m512i acc[kGroups];
        for (auto& g : acc) g = _mm512_setzero_si512();
        for (std::size_t bit = 0; bit < bits; ++bit) {
            const __m512i weight = _mm512_set1_epi16(static_cast<short>(1u << bit));
            const Word* words = planes + bit * W + base;
            for (std::size_t g = 0; g < kGroups; ++g) {
                const __mmask32 m =
                    static_cast<__mmask32>(words[(g * 32) / 64] >> ((g * 32) % 64));
                acc[g] = _mm512_mask_add_epi16(acc[g], m, acc[g], weight);
            }
        }
        std::uint16_t* o = out + base * 64;
        for (std::size_t g = 0; g < kGroups; ++g)
            _mm512_storeu_si512(reinterpret_cast<__m512i*>(o + g * 32), acc[g]);
    }
}

template <std::size_t W>
void decode32Avx512(const Word* planes, std::size_t bits, std::uint32_t* out) {
    constexpr std::size_t kTileWords = 4;
    for (std::size_t base = 0; base < W; base += kTileWords) {
        constexpr std::size_t kGroups = kTileWords * 64 / 16;
        __m512i acc[kGroups];
        for (auto& g : acc) g = _mm512_setzero_si512();
        for (std::size_t bit = 0; bit < bits; ++bit) {
            const __m512i weight = _mm512_set1_epi32(1u << bit);
            const Word* words = planes + bit * W + base;
            for (std::size_t g = 0; g < kGroups; ++g) {
                const __mmask16 m =
                    static_cast<__mmask16>(words[(g * 16) / 64] >> ((g * 16) % 64));
                acc[g] = _mm512_mask_add_epi32(acc[g], m, acc[g], weight);
            }
        }
        std::uint32_t* o = out + base * 64;
        for (std::size_t g = 0; g < kGroups; ++g)
            _mm512_storeu_si512(reinterpret_cast<__m512i*>(o + g * 16), acc[g]);
    }
}

template <std::size_t W>
constexpr WidthTables makeWidthTables() {
    return WidthTables{AXF_KERNEL_ROW(W, -1), makeUnrolled<W>(), AXF_CHAIN_ROW(W),
                       &encode16Avx512<W>, &decode16Avx512<W>, &decode32Avx512<W>};
}

#undef AXF_KERNEL_ROW
#undef AXF_CHAIN_ROW

constexpr std::array<WidthTables, kWidthCount> kWideTables = {
    makeWidthTables<4>(), makeWidthTables<8>(), makeWidthTables<16>()};

constexpr Backend kBackend = {"avx512", kWideTables, kGenericNarrow, kGenericNarrowChained};

}  // namespace avx512_impl

const Backend* avx512Backend() { return &avx512_impl::kBackend; }

}  // namespace axf::circuit::kernels

#else

namespace axf::circuit::kernels {
const Backend* avx512Backend() { return nullptr; }
}  // namespace axf::circuit::kernels

#endif
