#include "src/circuit/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/circuit/batch_sim.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::circuit {

Simulator::Simulator(const Netlist& netlist)
    : netlist_(netlist), values_(netlist.nodeCount(), 0) {}

void Simulator::evaluate(std::span<const Word> inputWords, std::span<Word> outputWords) {
    if (inputWords.size() != netlist_.inputCount())
        throw std::invalid_argument("Simulator: input word count mismatch");
    if (outputWords.size() != netlist_.outputCount())
        throw std::invalid_argument("Simulator: output word count mismatch");
    const std::span<const NodeId> inputs = netlist_.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) values_[inputs[i]] = inputWords[i];
    const std::span<const Node> nodes = netlist_.nodes();
    Word* const values = values_.data();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node& n = nodes[i];
        Word v = 0;
        switch (n.kind) {
            case GateKind::Input: continue;
            case GateKind::Const0: v = 0; break;
            case GateKind::Const1: v = ~Word{0}; break;
            case GateKind::Buf: v = values[n.a]; break;
            case GateKind::Not: v = ~values[n.a]; break;
            case GateKind::And: v = values[n.a] & values[n.b]; break;
            case GateKind::Or: v = values[n.a] | values[n.b]; break;
            case GateKind::Xor: v = values[n.a] ^ values[n.b]; break;
            case GateKind::Nand: v = ~(values[n.a] & values[n.b]); break;
            case GateKind::Nor: v = ~(values[n.a] | values[n.b]); break;
            case GateKind::Xnor: v = ~(values[n.a] ^ values[n.b]); break;
            case GateKind::AndNot: v = values[n.a] & ~values[n.b]; break;
            case GateKind::OrNot: v = values[n.a] | ~values[n.b]; break;
            case GateKind::Mux:
                v = (values[n.c] & values[n.b]) | (~values[n.c] & values[n.a]);
                break;
            case GateKind::Maj: {
                const Word a = values[n.a], b = values[n.b], c = values[n.c];
                v = (a & b) | (a & c) | (b & c);
                break;
            }
        }
        values[i] = v;
    }
    const std::span<const NodeId> outputs = netlist_.outputs();
    for (std::size_t o = 0; o < outputs.size(); ++o) outputWords[o] = values[outputs[o]];
}

std::uint64_t Simulator::evaluateScalar(std::uint64_t inputBits) {
    const std::size_t ni = netlist_.inputCount();
    const std::size_t no = netlist_.outputCount();
    if (ni > 64 || no > 64)
        throw std::invalid_argument("Simulator::evaluateScalar: interface wider than 64 bits");
    scalarIn_.resize(ni);
    scalarOut_.resize(no);
    for (std::size_t i = 0; i < ni; ++i)
        scalarIn_[i] = (inputBits >> i) & 1u ? ~Word{0} : Word{0};
    evaluate(scalarIn_, scalarOut_);
    std::uint64_t result = 0;
    for (std::size_t i = 0; i < no; ++i)
        if (scalarOut_[i] & 1u) result |= std::uint64_t{1} << i;
    return result;
}

ActivityCounter::ActivityCounter(const Netlist& netlist)
    : netlist_(netlist),
      simulator_(netlist),
      previous_(netlist.nodeCount(), 0),
      outputScratch_(netlist.outputCount(), 0),
      toggles_(netlist.nodeCount(), 0) {}

void ActivityCounter::accumulate(std::span<const Simulator::Word> inputWords) {
    simulator_.evaluate(inputWords, outputScratch_);
    const std::span<const Simulator::Word> values = simulator_.nodeValues();
    if (blocks_ > 0) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            const Simulator::Word diff = values[i] ^ previous_[i];
            toggles_[i] += static_cast<std::uint64_t>(__builtin_popcountll(diff));
        }
    }
    previous_.assign(values.begin(), values.end());
    ++blocks_;
}

std::vector<double> ActivityCounter::toggleRates() const {
    std::vector<double> rates(toggles_.size(), 0.0);
    if (blocks_ < 2) return rates;
    const double denom = static_cast<double>((blocks_ - 1) * 64);
    for (std::size_t i = 0; i < toggles_.size(); ++i)
        rates[i] = static_cast<double>(toggles_[i]) / denom;
    return rates;
}

namespace {

/// Splitmix64 step — decorrelates the per-block stimulus streams.
std::uint64_t mixSeed(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

}  // namespace

void fillActivityBlock(std::uint64_t seed, std::uint64_t b,
                       std::span<Simulator::Word> inputWords) {
    // Splitmix64 stream seeded per block: every word an independent draw,
    // and constructing the generator costs nothing (a mt19937-class engine
    // here would dominate small-netlist synthesis with its seeding loop).
    std::uint64_t state = mixSeed(seed + b);
    for (auto& w : inputWords) {
        state += 0x9E3779B97F4A7C15ull;
        std::uint64_t x = state;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
        w = x ^ (x >> 31);
    }
}

std::vector<double> estimateToggleRates(const Netlist& netlist, std::uint64_t seed, int blocks,
                                        util::ThreadPool* pool) {
    using Word = CompiledNetlist::Word;
    constexpr std::size_t kWords = CompiledNetlist::kBlockWords;
    // Transition t in [1, blocks) toggles block t-1 -> t.  Run r carries
    // blocks [r*K, r*K + kWords) and owns transitions (r*K, r*K + K]: its
    // first word repeats the previous run's last block.
    constexpr std::uint64_t kTransitionsPerRun = kWords - 1;
    std::vector<double> rates(netlist.nodeCount(), 0.0);
    if (blocks < 2) return rates;
    const std::uint64_t transitions = static_cast<std::uint64_t>(blocks) - 1;
    const auto runs =
        static_cast<std::size_t>((transitions + kTransitionsPerRun - 1) / kTransitionsPerRun);

    // Compiled once without pruning, so slot i holds node i.
    const CompiledNetlist compiled = CompiledNetlist::compile(netlist, {.pruneDead = false});
    const std::size_t nodes = netlist.nodeCount();
    const std::size_t inputs = netlist.inputCount();
    std::vector<std::uint64_t> counts(runs * nodes, 0);
    const auto sweep = [&](std::size_t r) {
        const std::uint64_t first = r * kTransitionsPerRun;
        const auto words =
            static_cast<std::size_t>(std::min(kWords, transitions + 1 - first));
        std::vector<Word> in(inputs * kWords, 0), out(netlist.outputCount() * kWords);
        std::vector<Word> block(inputs);
        for (std::size_t w = 0; w < words; ++w) {
            fillActivityBlock(seed, first + w, block);
            for (std::size_t i = 0; i < inputs; ++i) in[i * kWords + w] = block[i];
        }
        BatchSimulator sim(compiled);
        sim.evaluate(in, out);
        const Word* values = sim.workspace().data();
        std::uint64_t* count = counts.data() + r * nodes;
        for (std::size_t i = 0; i < nodes; ++i) {
            const Word* v = values + i * kWords;
            std::uint64_t toggles = 0;
            for (std::size_t w = 1; w < words; ++w)
                toggles += static_cast<std::uint64_t>(__builtin_popcountll(v[w] ^ v[w - 1]));
            count[i] = toggles;
        }
    };
    (pool != nullptr ? *pool : util::ThreadPool::global()).parallelFor(runs, sweep);

    const double denom = static_cast<double>(transitions * 64);
    for (std::size_t i = 0; i < nodes; ++i) {
        std::uint64_t total = 0;
        for (std::size_t r = 0; r < runs; ++r) total += counts[r * nodes + i];
        rates[i] = static_cast<double>(total) / denom;
    }
    return rates;
}

}  // namespace axf::circuit
