#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/circuit/kernels.hpp"
#include "src/circuit/netlist.hpp"

namespace axf::circuit {

/// A `Netlist` lowered once into a flat instruction stream for repeated
/// evaluation: dead nodes pruned (unless preservation is requested), slots
/// compacted, constants hoisted out of the sweep entirely, and — in the
/// pruned configuration — single-use 2-gate chains peephole-fused into the
/// extended `kernels::OpCode` alphabet (Not absorption into And/Or/Xor/…,
/// associative Xor/And/Or tree levels into `Xor3`/`And3`/`Or3`, Xor+And
/// carry pairs into dual-destination `HalfAdd`, Mux operand-inversion
/// variants).  The compiled form is
/// immutable and sharable — one `CompiledNetlist` can back any number of
/// `BatchSimulator` workspaces (e.g. one per worker thread).
///
/// Evaluation dispatches one kernel call per maximal same-opcode run,
/// through the `kernels::Backend` (runtime CPU dispatch: AVX-512 / AVX2 /
/// NEON / portable) bound at compile() time.  Every backend computes
/// bit-identical results; only instruction selection differs.
///
/// Instruction operands are *slot* indices into a workspace of
/// `slotCount() * kBlockWords` words: every slot carries one 1024-lane
/// block, and `run` is the one way a program executes.  The per-gate
/// dispatch is amortized over the 16 words and over whole same-opcode runs.
class CompiledNetlist {
public:
    using Word = std::uint64_t;

    /// Block shape of every wide sweep: 16 words = 1024 lanes per slot.
    static constexpr std::size_t kBlockWords = kernels::kBlockWords;
    static constexpr std::size_t kBlockLanes = kernels::kBlockLanes;

    struct Options {
        /// Drop gates outside the output cone.  Disable when per-node
        /// values of *every* node are needed (slot == node id then; this
        /// also disables opcode fusion, which would merge nodes away).
        bool pruneDead = true;
        /// Peephole-fuse single-use gate chains (pruned compiles only).
        bool fuseOps = true;
        /// Kernel backend to run on; nullptr selects the process-wide
        /// `kernels::selectedBackend()`.
        const kernels::Backend* backend = nullptr;
    };

    /// Compile-time shape of the program, for observability (printed by
    /// the benches so fusion/dispatch wins stay visible per PR).
    struct Stats {
        std::size_t instructions = 0;  ///< emitted instructions (post-fusion)
        std::size_t runs = 0;          ///< same-opcode dispatch groups
        std::size_t longestRun = 0;    ///< instructions in the largest run
        std::size_t fusedOps = 0;      ///< peephole rewrites applied
        std::size_t gatesFused = 0;    ///< live gates folded away by fusion
        const char* backend = "";      ///< kernel backend the program runs on
    };

    /// Maximal run of same-opcode instructions: the evaluator dispatches
    /// once per run, not once per gate.  Compile list-schedules the gates:
    /// it repeatedly emits every ready gate of the opcode with the most
    /// ready gates, including the gates that become ready during the run,
    /// so structured circuits collapse into a handful of long runs.
    struct Run {
        kernels::OpCode op;
        std::uint32_t begin, end;  ///< [begin, end) into instructions()
    };

    CompiledNetlist() = default;

    static CompiledNetlist compile(const Netlist& netlist, Options options);
    static CompiledNetlist compile(const Netlist& netlist) {
        return compile(netlist, Options{});
    }

    std::size_t slotCount() const { return slotCount_; }
    std::size_t inputCount() const { return inputSlots_.size(); }
    std::size_t outputCount() const { return outputSlots_.size(); }
    std::size_t instructionCount() const { return instrs_.size(); }
    /// True when compiled with pruneDead=false: slot i holds node i.
    bool preservesAllNodes() const { return allNodes_; }

    /// Read-only views of the lowered program, used by the fault-injection
    /// engine (src/fault) to enumerate fault sites and compute fan-out
    /// cones over workspace slots.
    std::span<const kernels::Instr> instructions() const { return instrs_; }
    std::span<const std::uint32_t> inputSlots() const { return inputSlots_; }
    std::span<const std::uint32_t> outputSlots() const { return outputSlots_; }
    /// Source-netlist node held by each workspace slot (indexed by slot).
    std::span<const NodeId> slotNodes() const { return slotNode_; }
    /// The schedule: maximal same-opcode runs partitioning instructions().
    /// The static verifier (src/verify) re-checks the partition against
    /// the instruction stream.
    std::span<const Run> runs() const { return runs_; }
    /// Hoisted constant slots and their values (written once by
    /// initWorkspace, never touched by run()).
    std::span<const std::pair<std::uint32_t, bool>> constantSlots() const { return constants_; }
    const kernels::Backend& backend() const { return *backend_; }

    /// Words per slot and lanes per sweep of every workspace.
    static constexpr std::size_t blockWords() { return kBlockWords; }
    static constexpr std::size_t blockLanes() { return kBlockLanes; }

    Stats stats() const;

    /// Words of one workspace: slot s occupies [s * kBlockWords,
    /// (s + 1) * kBlockWords).
    std::size_t workspaceWords() const { return slotCount_ * kBlockWords; }

    /// Writes the constant-node words (done once per workspace; constants
    /// are never re-evaluated inside `run`).
    void initWorkspace(std::span<Word> workspace) const;

    /// Evaluates one 1024-lane block.  `inputs` is input-major
    /// (`inputCount() * kBlockWords` words: input i occupies
    /// [i * kBlockWords, (i + 1) * kBlockWords)), `outputs` likewise.
    /// `workspace` must hold `workspaceWords()` words, be aligned to
    /// `sizeof(Word)` (8 bytes — the generic kernels access slots through
    /// an aligned(8) vector type and AVX-512 uses unaligned loads/stores;
    /// `BatchSimulator` 128-byte-aligns its workspace anyway so slots never
    /// straddle cache lines) and have been initialized with `initWorkspace`
    /// once.  The input/output buffers carry no alignment requirement.
    void run(const Word* inputs, Word* outputs, Word* workspace) const;

private:
    std::vector<kernels::Instr> instrs_;
    std::vector<Run> runs_;
    std::vector<std::uint32_t> inputSlots_;
    std::vector<std::uint32_t> outputSlots_;
    std::vector<NodeId> slotNode_;
    std::vector<std::pair<std::uint32_t, bool>> constants_;
    std::size_t slotCount_ = 0;
    std::size_t fusedOps_ = 0;
    std::size_t gatesFused_ = 0;
    const kernels::Backend* backend_ = nullptr;
    bool allNodes_ = false;
};

/// Multi-word evaluator: carries `kBlockLanes` (1024) independent test
/// vectors per sweep over a shared `CompiledNetlist`.  Owns the workspace, so a
/// single instance is not thread-safe; create one per thread (the compiled
/// netlist itself is immutable and freely shared).
class BatchSimulator {
public:
    using Word = CompiledNetlist::Word;
    static constexpr std::size_t kBlockWords = CompiledNetlist::kBlockWords;
    static constexpr std::size_t kBlockLanes = CompiledNetlist::kBlockLanes;

    explicit BatchSimulator(const CompiledNetlist& compiled) { rebind(compiled); }

    // The aligned view points into storage_: moves keep it valid (the heap
    // buffer does not move), copies would not.
    BatchSimulator(const BatchSimulator&) = delete;
    BatchSimulator& operator=(const BatchSimulator&) = delete;
    BatchSimulator(BatchSimulator&&) = default;
    BatchSimulator& operator=(BatchSimulator&&) = default;

    /// Block shape this workspace is sized for.
    static constexpr std::size_t blockWords() { return kBlockWords; }
    static constexpr std::size_t blockLanes() { return kBlockLanes; }

    /// Evaluates one `blockLanes()`-lane block.  `inputWords` holds
    /// `inputCount() * blockWords()` words input-major; `outputWords`
    /// receives `outputCount() * blockWords()` words output-major.
    void evaluate(std::span<const Word> inputWords, std::span<Word> outputWords);

    /// Binds this workspace to `compiled`, reusing the existing allocation
    /// whenever it is large enough.  This is the workspace-reuse hook for
    /// evaluation loops that sweep many programs (e.g. one accelerator
    /// config after another) with one per-thread scratch.  The workspace is
    /// never zero-filled: `run` defines every operand plane before reading
    /// it (verifier rule CP002), and every rebind rewrites the constants (a
    /// program has few), since a program built where a destroyed one lived
    /// has the same address but its own constants.
    void rebind(const CompiledNetlist& compiled);

    const CompiledNetlist& compiled() const { return *compiled_; }

    /// The bound program's slot planes as the last `evaluate` left them
    /// (`compiled().workspaceWords()` words; slot s at [s * blockWords(),
    /// (s + 1) * blockWords())).  Readers take per-node values from it
    /// (slot == node id in a `pruneDead = false` program); the fault
    /// campaign replays fan-out cones in it.
    std::span<Word> workspace() { return {workspace_, compiled_->workspaceWords()}; }

private:
    static constexpr std::size_t kAlignWords = 16;  ///< 128 bytes

    const CompiledNetlist* compiled_ = nullptr;
    std::unique_ptr<Word[]> storage_;  ///< uninitialized, `capacity_` words
    std::size_t capacity_ = 0;
    Word* workspace_ = nullptr;  ///< 128-byte-aligned view into storage_
};

/// Lane patterns of the low six bits of an exhaustively enumerated input
/// index: bit k of lane L equals bit k of L.
inline constexpr std::array<CompiledNetlist::Word, 6> kExhaustiveLanePattern = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// Fills an input-major block (`totalBits * kBlockWords` words) so that
/// lane L of the block carries input index `base + L`.  `base` must be a
/// multiple of `kBlockLanes`.
inline void fillExhaustiveBlock(std::span<CompiledNetlist::Word> inputWords, int totalBits,
                                std::uint64_t base) {
    using Word = CompiledNetlist::Word;
    constexpr std::size_t W = CompiledNetlist::kBlockWords;
    for (int bit = 0; bit < totalBits; ++bit) {
        Word* words = inputWords.data() + static_cast<std::size_t>(bit) * W;
        if (bit < 6) {
            for (std::size_t w = 0; w < W; ++w)
                words[w] = kExhaustiveLanePattern[static_cast<std::size_t>(bit)];
        } else if (static_cast<std::uint64_t>(1) << (bit - 6) < W) {
            // Bits addressing the word index inside the block.
            for (std::size_t w = 0; w < W; ++w)
                words[w] = (w >> (bit - 6)) & 1u ? ~Word{0} : Word{0};
        } else {
            const Word v = (base >> bit) & 1u ? ~Word{0} : Word{0};
            for (std::size_t w = 0; w < W; ++w) words[w] = v;
        }
    }
}

}  // namespace axf::circuit
