#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace axf::circuit::kernels {

using Word = std::uint64_t;

/// Block width in words per workspace slot: W = 16, 1024 lanes per
/// dispatch.  The one width every compiled program runs at: each backend
/// provides one run kernel per opcode at this width, plus the lane codecs.
inline constexpr std::size_t kBlockWords = 16;
inline constexpr std::size_t kBlockLanes = kBlockWords * 64;

/// Instruction alphabet of the compiled engine: every logic `GateKind`
/// plus the fused instructions produced by the peephole pass in
/// `CompiledNetlist::compile`.  Fused ops exist so a 2-gate single-use
/// chain costs one dispatch, one destination store and (on AVX-512) a
/// single `vpternlogq` instead of two full workspace round-trips.
enum class OpCode : std::uint8_t {
    Buf,      ///< a
    Not,      ///< ~a
    And,      ///< a & b
    Or,       ///< a | b
    Xor,      ///< a ^ b
    Nand,     ///< ~(a & b)
    Nor,      ///< ~(a | b)
    Xnor,     ///< ~(a ^ b)
    AndNot,   ///< a & ~b
    OrNot,    ///< a | ~b
    Mux,      ///< c ? b : a
    Maj,      ///< majority(a, b, c)
    Xor3,     ///< a ^ b ^ c        (fused full-adder sum)
    MuxNotA,  ///< c ? b : ~a       (fused Not -> Mux data-low)
    MuxNotB,  ///< c ? ~b : a       (fused Not -> Mux data-high)
    HalfAdd,  ///< dst = a ^ b  AND  slot c = a & b  (dual-destination pair)
    And3,     ///< a & b & c        (fused AND-tree level)
    Or3,      ///< a | b | c        (fused OR-compressor level)
};
inline constexpr std::size_t kOpCount = 18;

const char* opCodeName(OpCode op);

/// Operand count of an opcode.  HalfAdd reads a and b; its c field is the
/// second *destination*.  Single source of truth for both the compiler's
/// fusion/scheduling passes and the kernel bodies — a drift between the
/// two would make the compiler emit operands a kernel never reads (or
/// vice versa) with silently wrong results.
constexpr int opFanIn(OpCode op) {
    switch (op) {
        case OpCode::Buf:
        case OpCode::Not: return 1;
        case OpCode::Mux:
        case OpCode::Maj:
        case OpCode::Xor3:
        case OpCode::MuxNotA:
        case OpCode::MuxNotB:
        case OpCode::And3:
        case OpCode::Or3: return 3;
        default: return 2;
    }
}

/// Reference boolean semantics of an opcode's primary result (for HalfAdd
/// that is the *sum*; the carry written to slot `c` is `opCarryEval`).
/// THE single source of truth every executable form must derive from or be
/// checked against: the generic kernel bodies (static_asserted in
/// kernels_generic.inc), the AVX-512 ternlog immediates (computed from
/// `opTruthTable` directly), the `GateKind` lowering (static_asserted in
/// batch_sim.cpp) and the static verifier's fusion-legality check
/// (src/verify re-derives every fused instruction's function from it).
constexpr bool opEval(OpCode op, bool a, bool b, bool c) {
    switch (op) {
        case OpCode::Buf: return a;
        case OpCode::Not: return !a;
        case OpCode::And: return a && b;
        case OpCode::Or: return a || b;
        case OpCode::Xor: return a != b;
        case OpCode::Nand: return !(a && b);
        case OpCode::Nor: return !(a || b);
        case OpCode::Xnor: return a == b;
        case OpCode::AndNot: return a && !b;
        case OpCode::OrNot: return a || !b;
        case OpCode::Mux: return c ? b : a;
        case OpCode::Maj: return (a && b) || (a && c) || (b && c);
        case OpCode::Xor3: return (a != b) != c;
        case OpCode::MuxNotA: return c ? b : !a;
        case OpCode::MuxNotB: return c ? !b : a;
        case OpCode::HalfAdd: return a != b;
        case OpCode::And3: return a && b && c;
        case OpCode::Or3: return a || b || c;
    }
    return false;
}

/// HalfAdd's secondary result, written to the `c` slot.
constexpr bool opCarryEval(bool a, bool b) { return a && b; }

/// 8-entry truth table of the primary result, bit index (a << 2) | (b <<
/// 1) | c — exactly the vpternlogq immediate layout, so the AVX-512
/// backend uses this value as its immediate with no hand-written copy.
constexpr std::uint8_t opTruthTable(OpCode op) {
    std::uint8_t table = 0;
    for (int k = 0; k < 8; ++k)
        if (opEval(op, (k & 4) != 0, (k & 2) != 0, (k & 1) != 0))
            table |= static_cast<std::uint8_t>(1u << k);
    return table;
}

/// One compiled instruction.  Operands are workspace slot indices; for
/// `HalfAdd` the `c` field is the *second destination* (the carry slot),
/// not an operand.
struct Instr {
    OpCode op;
    std::uint32_t dst, a, b, c;
};

/// Evaluates one maximal same-opcode run of `count` instructions against a
/// workspace of (slotCount * kBlockWords) words.  The instruction pointer addresses
/// the first instruction of the run; any contiguous sub-range of a run is a
/// valid call.  Workspaces need only natural `Word` (8-byte) alignment.
using KernelFn = void (*)(const Instr* instrs, std::uint32_t count, Word* ws);

/// Lane codecs: the one owner of the lane <-> bit-plane layout.  A block
/// carries each bit as a plane of kBlockWords words (plane-major), lane L in
/// bit L % 64 of word L / 64.
///
/// `Encode16Fn` packs one value per lane (kBlockLanes lanes) into the 16
/// planes of bits 0..15; higher value bits are ignored.  `Decode16Fn` /
/// `Decode32Fn` unpack `bits` planes (at most 16 / 32) into one integer
/// per lane.
using Encode16Fn = void (*)(const std::uint32_t* values, Word* planes);
using Decode16Fn = void (*)(const Word* planes, std::size_t bits, std::uint16_t* out);
using Decode32Fn = void (*)(const Word* planes, std::size_t bits, std::uint32_t* out);

/// Builds one kernel row: one function per opcode, in `OpCode` order.  A
/// brace-init list shorter than `kOpCount` compiles fine (the tail
/// value-initializes to nullptr), so every backend TU builds its rows
/// through this helper — adding an opcode without extending every row is a
/// build error, not a null-call crash at dispatch time.  The check counts
/// entries instead of comparing them with nullptr: GCC cannot evaluate a
/// function-address comparison at compile time once null-pointer-check
/// deletion is off, which -fsanitize=undefined does.
template <typename... Fns>
constexpr std::array<KernelFn, kOpCount> kernelRow(Fns... fns) {
    static_assert(sizeof...(Fns) == kOpCount, "kernel row does not cover every opcode");
    return {fns...};
}

/// One ISA backend's kernel family, selected once per process (or forced
/// per compile).  All backends compute bit-identical results — they differ
/// only in instruction selection and register shape.
struct Backend {
    /// Every field is a required argument, so a family that misses one
    /// fails to build (an aggregate brace-init would value-initialize the
    /// missing tail to nullptr).
    constexpr Backend(const char* name_, std::array<KernelFn, kOpCount> run_,
                      Encode16Fn encode16_, Decode16Fn decode16_, Decode32Fn decode32_)
        : name(name_), run(run_), encode16(encode16_), decode16(decode16_), decode32(decode32_) {}

    const char* name;
    /// Per-run kernels at W = kBlockWords (1024 lanes per dispatch).
    std::array<KernelFn, kOpCount> run;
    /// Lane codecs at W = kBlockWords.
    Encode16Fn encode16;
    Decode16Fn decode16;
    Decode32Fn decode32;
};

/// Backend chosen for this process: the widest ISA the CPU supports
/// (avx512 > avx2 > neon > portable), overridable with AXF_FORCE_BACKEND
/// (values: portable, avx2, avx512, neon).  An unknown value, or one the
/// CPU cannot execute, warns once on stderr and falls back to
/// auto-detection — it never silently picks a default name-match and never
/// aborts the process.  Detection runs once; the reference stays valid for
/// the process lifetime.
const Backend& selectedBackend();

/// Backend by name, or nullptr when unknown or unsupported on this CPU.
const Backend* backendByName(std::string_view name);

/// Every backend executable on this CPU, portable first.
std::vector<const Backend*> availableBackends();

/// RAII test hook: routes `selectedBackend()` to a specific backend so
/// code that compiles netlists internally (analyzeError, the autoax flow)
/// can be exercised per backend in-process.  Not for concurrent use with
/// compilation on other threads.
class ScopedBackendOverride {
public:
    explicit ScopedBackendOverride(const Backend* backend);
    ~ScopedBackendOverride();
    ScopedBackendOverride(const ScopedBackendOverride&) = delete;
    ScopedBackendOverride& operator=(const ScopedBackendOverride&) = delete;

private:
    const Backend* previous_;
};

/// Resolves an AXF_FORCE_BACKEND value: the named backend, or nullptr
/// after a stderr warning when the name is unknown or the CPU cannot
/// execute it (selection then falls back to auto-detection).  Exposed so
/// the warning path is testable without mutating the process environment.
const Backend* resolveForcedBackend(std::string_view value);

/// Per-TU backend accessors; nullptr when the ISA is not compiled in.
/// (Runtime support is checked by the selection logic, not here.)
const Backend* portableBackend();
const Backend* avx2Backend();
const Backend* avx512Backend();
const Backend* neonBackend();

}  // namespace axf::circuit::kernels
