#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/circuit/netlist.hpp"

namespace axf::util {
class ThreadPool;
}

namespace axf::circuit {

/// Per-node reference interpreter, 64 lanes per sweep.
///
/// One `Word` carries 64 independent test vectors through a single pass
/// over the node array, one `switch` per node in node-id order.  It shares
/// no code with the compiled engine (`CompiledNetlist`, the kernel
/// backends): it is the oracle the compiler and fault tests check against,
/// the evaluator `error::analyzeErrorBaseline` runs on, and the reference
/// `ActivityCounter` counts toggles with.  Hot paths sweep through
/// `BatchSimulator` (1024 lanes per run, pruned and fused) instead.
///
/// The interpreter keeps a reference to its netlist and a one-word-per-node
/// scratch buffer, so a single instance is not thread-safe; create one per
/// thread if parallelizing.
class Simulator {
public:
    using Word = std::uint64_t;

    explicit Simulator(const Netlist& netlist);
    /// A temporary netlist would dangle: the interpreter reads it on every
    /// evaluate.
    Simulator(const Netlist&&) = delete;

    /// Evaluates one 64-lane block.  `inputWords[i]` supplies the lanes of
    /// the i-th primary input; `outputWords[i]` receives the lanes of the
    /// i-th primary output.
    void evaluate(std::span<const Word> inputWords, std::span<Word> outputWords);

    /// Scalar convenience: evaluates a single assignment (lane 0).
    /// Bit i of the result is output i.
    std::uint64_t evaluateScalar(std::uint64_t inputBits);

    /// Per-node lane values of the most recent `evaluate` call (one word per
    /// node, in node order).  Valid until the next evaluate.
    std::span<const Word> nodeValues() const { return values_; }

    const Netlist& netlist() const { return netlist_; }

private:
    const Netlist& netlist_;
    std::vector<Word> values_;      ///< one word per node
    std::vector<Word> scalarIn_;    ///< reused by evaluateScalar
    std::vector<Word> scalarOut_;
};

/// Per-node toggle counter for the activity-based power models, on the
/// reference interpreter.
///
/// `accumulate` runs a block and counts, per node, in how many of the lane
/// pairs (lane i of the previous block vs lane i of this block) the node
/// value toggled.  Feeding consecutive random blocks approximates the
/// switching activity a synthesis tool derives from default toggle rates.
class ActivityCounter {
public:
    explicit ActivityCounter(const Netlist& netlist);
    /// Keeps a reference to the netlist, like `Simulator`.
    ActivityCounter(const Netlist&&) = delete;

    void accumulate(std::span<const Simulator::Word> inputWords);

    /// Toggle probability per node in [0, 1]; meaningful after >= 2 blocks.
    std::vector<double> toggleRates() const;
    std::size_t blocksSeen() const { return blocks_; }

private:
    const Netlist& netlist_;
    Simulator simulator_;
    std::vector<Simulator::Word> previous_;
    std::vector<Simulator::Word> outputScratch_;
    std::vector<std::uint64_t> toggles_;
    std::size_t blocks_ = 0;
};

/// Fills the 64-lane stimulus block `b` of the activity-estimation stream
/// derived from `seed`: every lane bit an independent fair coin, the block
/// a pure function of (seed, b).  Addressable blocks are what make the
/// estimation parallel — any worker can regenerate any block, including
/// the one its run shares with the previous run, without replaying the
/// whole stream.
void fillActivityBlock(std::uint64_t seed, std::uint64_t b,
                       std::span<Simulator::Word> inputWords);

/// Per-node toggle rates over `blocks` stimulus blocks (see
/// `fillActivityBlock`), identical to feeding the same blocks through one
/// `ActivityCounter`.  The netlist is compiled once without pruning (slot
/// == node id) and each run of the program carries 16 consecutive blocks,
/// one per word of the 1024-lane block: run c evaluates blocks [15c,
/// 15c + 16) and counts the toggles between adjacent words, so every
/// transition is counted exactly once, by the run that holds both of its
/// blocks.  The runs are independent tasks on `pool` (nullptr = the
/// process-global pool) and the counts are integers, so the rates are
/// bit-identical at any thread count.
std::vector<double> estimateToggleRates(const Netlist& netlist, std::uint64_t seed, int blocks,
                                        util::ThreadPool* pool = nullptr);

}  // namespace axf::circuit
