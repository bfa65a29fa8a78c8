// AVX-512 backend.  A W = 16 slot (1024 lanes) is a zmm pair.  The win
// over AVX2 is vpternlogq: every 3-input or inverted gate (Mux, Maj, Xor3,
// Nand, Nor, Xnor, OrNot, MuxNot*) is exactly ONE logic instruction per
// register whose truth-table immediate is computed at compile time from the
// shared OpCode semantics.  The lane codecs run on mask registers: the
// encoder narrows lanes to bytes and tests one bit of 64 lanes per
// vptestmb, and the decoders use AVX-512BW masked broadcast-adds (the plane
// word itself is the write mask), tiled in 256-lane groups so the
// accumulator set stays within the register file.
//
// CMake compiles this TU with -march=x86-64-v4; nothing in it executes
// unless runtime detection confirmed avx512{f,bw,vl,dq}.

#include "src/circuit/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

namespace axf::circuit::kernels {
namespace avx512_impl {

/// vpternlogq immediate: result bit = imm[(A << 2) | (B << 1) | C] for
/// operand order ternarylogic(a, b, c, imm) — exactly the layout of the
/// shared `opTruthTable`, so the immediate IS the truth table.  No
/// hand-written immediates exist to drift from the opcode semantics.
template <OpCode Op>
constexpr int ternImm() {
    return opTruthTable(Op);
}

/// One W = 16 workspace slot as a zmm pair.  Unaligned loads and stores:
/// workspaces need only natural Word alignment.
struct SlotVec {
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

/// Single-result opcode on one slot: plain ops where one instruction per
/// register suffices, vpternlogq everywhere else.
template <OpCode Op>
inline SlotVec::T applyWide(SlotVec::T a, SlotVec::T b, SlotVec::T c) {
    using V = SlotVec;
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

template <OpCode Op>
void runWide(const Instr* instrs, std::uint32_t count, Word* ws) {
    using V = SlotVec;
    const auto ptr = [ws](std::uint32_t s) {
        return ws + static_cast<std::size_t>(s) * kBlockWords;
    };
    for (std::uint32_t i = 0; i < count; ++i) {
        const Instr& ins = instrs[i];
        const V::T a = V::load(ptr(ins.a));
        if constexpr (Op == OpCode::HalfAdd) {
            const V::T b = V::load(ptr(ins.b));
            V::store(ptr(ins.c), V::and_(a, b));
            V::store(ptr(ins.dst), V::xor_(a, b));
        } else {
            V::T b = a, c = a;
            if constexpr (opFanIn(Op) >= 2) b = V::load(ptr(ins.b));
            if constexpr (opFanIn(Op) >= 3) c = V::load(ptr(ins.c));
            V::store(ptr(ins.dst), applyWide<Op>(a, b, c));
        }
    }
}

constexpr std::array<KernelFn, kOpCount> kRun =
    kernelRow(&runWide<OpCode::Buf>,     &runWide<OpCode::Not>,     &runWide<OpCode::And>,
              &runWide<OpCode::Or>,      &runWide<OpCode::Xor>,     &runWide<OpCode::Nand>,
              &runWide<OpCode::Nor>,     &runWide<OpCode::Xnor>,    &runWide<OpCode::AndNot>,
              &runWide<OpCode::OrNot>,   &runWide<OpCode::Mux>,     &runWide<OpCode::Maj>,
              &runWide<OpCode::Xor3>,    &runWide<OpCode::MuxNotA>, &runWide<OpCode::MuxNotB>,
              &runWide<OpCode::HalfAdd>, &runWide<OpCode::And3>,    &runWide<OpCode::Or3>);

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
void encode16Avx512(const std::uint32_t* values, Word* planes) {
    for (std::size_t w = 0; w < kBlockWords; ++w) {
        __m512i lo = _mm512_setzero_si512(), hi = _mm512_setzero_si512();
        narrowGroup<0>(values + w * 64, lo, hi);
        narrowGroup<1>(values + w * 64, lo, hi);
        narrowGroup<2>(values + w * 64, lo, hi);
        narrowGroup<3>(values + w * 64, lo, hi);
        for (std::size_t bit = 0; bit < 8; ++bit) {
            const __m512i probe = _mm512_set1_epi8(static_cast<char>(1u << bit));
            planes[bit * kBlockWords + w] = _mm512_test_epi8_mask(lo, probe);
            planes[(bit + 8) * kBlockWords + w] = _mm512_test_epi8_mask(hi, probe);
        }
    }
}

/// One masked broadcast-add per (bit, 32-lane group): twice the lanes per
/// add of the 32-bit decode, valid for bits <= 16.  Tiled in 256-lane
/// (4-word) groups so every tile reuses the same 8-accumulator inner
/// kernel instead of demanding four times the registers.
void decode16Avx512(const Word* planes, std::size_t bits, std::uint16_t* out) {
    constexpr std::size_t kTileWords = 4;
    for (std::size_t base = 0; base < kBlockWords; base += kTileWords) {
        constexpr std::size_t kGroups = kTileWords * 64 / 32;
        __m512i acc[kGroups];
        for (auto& g : acc) g = _mm512_setzero_si512();
        for (std::size_t bit = 0; bit < bits; ++bit) {
            const __m512i weight = _mm512_set1_epi16(static_cast<short>(1u << bit));
            const Word* words = planes + bit * kBlockWords + base;
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

void decode32Avx512(const Word* planes, std::size_t bits, std::uint32_t* out) {
    constexpr std::size_t kTileWords = 4;
    for (std::size_t base = 0; base < kBlockWords; base += kTileWords) {
        constexpr std::size_t kGroups = kTileWords * 64 / 16;
        __m512i acc[kGroups];
        for (auto& g : acc) g = _mm512_setzero_si512();
        for (std::size_t bit = 0; bit < bits; ++bit) {
            const __m512i weight = _mm512_set1_epi32(1u << bit);
            const Word* words = planes + bit * kBlockWords + base;
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

constexpr Backend kBackend = {"avx512", kRun, &encode16Avx512, &decode16Avx512,
                              &decode32Avx512};

}  // namespace avx512_impl

const Backend* avx512Backend() { return &avx512_impl::kBackend; }

}  // namespace axf::circuit::kernels

#else

namespace axf::circuit::kernels {
const Backend* avx512Backend() { return nullptr; }
}  // namespace axf::circuit::kernels

#endif
