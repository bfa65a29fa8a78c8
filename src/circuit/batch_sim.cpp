#include "src/circuit/batch_sim.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "src/verify/verify.hpp"

namespace axf::circuit {

namespace {

using kernels::Instr;
using kernels::OpCode;

constexpr OpCode toOpCode(GateKind kind) {
    switch (kind) {
        case GateKind::Buf: return OpCode::Buf;
        case GateKind::Not: return OpCode::Not;
        case GateKind::And: return OpCode::And;
        case GateKind::Or: return OpCode::Or;
        case GateKind::Xor: return OpCode::Xor;
        case GateKind::Nand: return OpCode::Nand;
        case GateKind::Nor: return OpCode::Nor;
        case GateKind::Xnor: return OpCode::Xnor;
        case GateKind::AndNot: return OpCode::AndNot;
        case GateKind::OrNot: return OpCode::OrNot;
        case GateKind::Mux: return OpCode::Mux;
        case GateKind::Maj: return OpCode::Maj;
        default: throw std::logic_error("toOpCode: not a logic gate");
    }
}

/// The lowering above is only correct if every logic GateKind and the
/// OpCode it maps to agree on all 8 operand combinations of the shared
/// reference semantics.  Evaluated at compile time so a drift between
/// `gateEval` and `kernels::opEval` is a build error.
constexpr bool gateSemanticsMatchOpcodes() {
    for (int g = static_cast<int>(GateKind::Buf); g <= static_cast<int>(GateKind::Maj); ++g) {
        const GateKind kind = static_cast<GateKind>(g);
        const OpCode op = toOpCode(kind);
        for (int k = 0; k < 8; ++k)
            if (gateEval(kind, (k & 4) != 0, (k & 2) != 0, (k & 1) != 0) !=
                kernels::opEval(op, (k & 4) != 0, (k & 2) != 0, (k & 1) != 0))
                return false;
    }
    return true;
}
static_assert(gateSemanticsMatchOpcodes(),
              "GateKind lowering drifted from the shared opcode semantics");

// Operand counts come from the shared kernels::opFanIn (HalfAdd never
// appears in the pre-emission node table: it is introduced at emission).
using kernels::opFanIn;

/// Complement opcode: dual(op)(a, b) == ~op(a, b), with `swapped` asking
/// for the operands in (b, a) order.  False when no dual exists.
bool dualOf(OpCode op, OpCode& dual, bool& swapped) {
    swapped = false;
    switch (op) {
        case OpCode::Buf: dual = OpCode::Not; return true;
        case OpCode::Not: dual = OpCode::Buf; return true;
        case OpCode::And: dual = OpCode::Nand; return true;
        case OpCode::Nand: dual = OpCode::And; return true;
        case OpCode::Or: dual = OpCode::Nor; return true;
        case OpCode::Nor: dual = OpCode::Or; return true;
        case OpCode::Xor: dual = OpCode::Xnor; return true;
        case OpCode::Xnor: dual = OpCode::Xor; return true;
        // ~(a & ~b) = ~a | b = OrNot(b, a); ~(a | ~b) = ~a & b = AndNot(b, a)
        case OpCode::AndNot: dual = OpCode::OrNot; swapped = true; return true;
        case OpCode::OrNot: dual = OpCode::AndNot; swapped = true; return true;
        default: return false;
    }
}

/// Mutable per-node view of the program during fusion: opcode plus operand
/// *node ids* (slot assignment happens after the pass).
struct NodeOp {
    OpCode op = OpCode::Buf;
    NodeId a = 0, b = 0, c = 0;
    bool gate = false;
};

/// Peephole opcode fusion over the live cone.  Rules (all exact boolean
/// identities, so results stay bit-identical):
///  - Buf read-through: operands reference through copy chains;
///  - output-side inversion: a Not absorbs its single-use producer
///    (And->Nand, Xor->Xnor, AndNot->OrNot, Not->Buf double negation, ...);
///  - Mux select inversion: Mux(a, b, ~x) -> Mux(b, a, x) (always legal);
///  - operand-side inversion: a single-use Not operand folds into the
///    consumer (And->AndNot, Nand->OrNot, both-inverted And->Nor, ...,
///    Mux data operands -> MuxNotA/MuxNotB);
///  - associative-tree widening: Xor/And/Or over a single-use same-kind
///    producer fuses to Xor3/And3/Or3 (full-adder sums, AND trees and
///    OR-compressor levels each cost one instruction per level pair).
/// Every rewrite replaces operands by operands of operands — strictly
/// lower node ids — so the program stays a DAG in node-id order and the
/// dependency-driven schedule stays valid.  `uses` counts the references
/// to each node (output ports included) from the live gates; `isOutput`
/// flags the output ports.
void fusePeephole(std::vector<NodeOp>& ops, std::vector<std::uint32_t>& uses,
                  const std::vector<std::uint8_t>& isOutput, std::size_t& fusedOps) {
    // True when `edges` references from the current gate are the ONLY
    // remaining references to Not node `t` — absorbing them leaves t dead.
    const auto absorbableNot = [&](NodeId t, std::uint32_t edges) {
        return ops[t].gate && ops[t].op == OpCode::Not && !isOutput[t] && uses[t] == edges;
    };

    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!ops[i].gate) continue;  // set for live gates only
        NodeOp& g = ops[i];

        // Buf read-through (any fanout: reading through a copy is free).
        const auto chase = [&](NodeId x) {
            NodeId r = x;
            while (ops[r].gate && ops[r].op == OpCode::Buf) r = ops[r].a;
            if (r != x) {
                --uses[x];
                ++uses[r];
            }
            return r;
        };
        {
            const int fan = opFanIn(g.op);
            g.a = chase(g.a);
            if (fan >= 2) g.b = chase(g.b);
            if (fan >= 3) g.c = chase(g.c);
        }

        // Output-side inversion: this Not is the only consumer of its
        // producer, so the producer flips kind and the Not becomes it.
        if (g.op == OpCode::Not) {
            const NodeId t = g.a;
            OpCode dual;
            bool swapped;
            if (ops[t].gate && !isOutput[t] && uses[t] == 1 &&
                dualOf(ops[t].op, dual, swapped)) {
                const NodeOp p = ops[t];
                const int pf = opFanIn(p.op);
                --uses[t];
                ++uses[p.a];
                if (pf >= 2) ++uses[p.b];
                g.op = dual;
                g.a = (swapped && pf >= 2) ? p.b : p.a;
                if (pf >= 2) g.b = swapped ? p.a : p.b;
                ++fusedOps;
            }
        }

        // Mux select inversion: an inverted select is a data swap.
        if (g.op == OpCode::Mux && ops[g.c].gate && ops[g.c].op == OpCode::Not) {
            const NodeId t = g.c;
            std::swap(g.a, g.b);
            g.c = ops[t].a;
            --uses[t];
            ++uses[g.c];
            ++fusedOps;
        }

        // Operand-side inversion for the two-input alphabet.
        const bool twoInput = g.op == OpCode::And || g.op == OpCode::Or ||
                              g.op == OpCode::Xor || g.op == OpCode::Nand ||
                              g.op == OpCode::Nor || g.op == OpCode::Xnor ||
                              g.op == OpCode::AndNot || g.op == OpCode::OrNot;
        if (twoInput) {
            const NodeId ta = g.a, tb = g.b;
            const bool same = ta == tb;
            const bool invA = absorbableNot(ta, same ? 2u : 1u);
            const bool invB = same ? invA : absorbableNot(tb, 1u);
            if (invA || invB) {
                const NodeId x = invA ? ops[ta].a : ta;  // de-inverted operands
                const NodeId y = invB ? ops[tb].a : tb;
                bool applied = true;
                if (invA && invB) {
                    switch (g.op) {
                        case OpCode::And: g = {OpCode::Nor, x, y, 0, true}; break;
                        case OpCode::Or: g = {OpCode::Nand, x, y, 0, true}; break;
                        case OpCode::Xor: g = {OpCode::Xor, x, y, 0, true}; break;
                        case OpCode::Nand: g = {OpCode::Or, x, y, 0, true}; break;
                        case OpCode::Nor: g = {OpCode::And, x, y, 0, true}; break;
                        case OpCode::Xnor: g = {OpCode::Xnor, x, y, 0, true}; break;
                        case OpCode::AndNot: g = {OpCode::AndNot, y, x, 0, true}; break;
                        case OpCode::OrNot: g = {OpCode::OrNot, y, x, 0, true}; break;
                        default: applied = false; break;
                    }
                } else if (invA) {
                    switch (g.op) {
                        case OpCode::And: g = {OpCode::AndNot, tb, x, 0, true}; break;
                        case OpCode::Or: g = {OpCode::OrNot, tb, x, 0, true}; break;
                        case OpCode::Xor: g = {OpCode::Xnor, x, tb, 0, true}; break;
                        case OpCode::Nand: g = {OpCode::OrNot, x, tb, 0, true}; break;
                        case OpCode::Nor: g = {OpCode::AndNot, x, tb, 0, true}; break;
                        case OpCode::Xnor: g = {OpCode::Xor, x, tb, 0, true}; break;
                        case OpCode::AndNot: g = {OpCode::Nor, x, tb, 0, true}; break;
                        case OpCode::OrNot: g = {OpCode::Nand, x, tb, 0, true}; break;
                        default: applied = false; break;
                    }
                } else {  // invB only
                    switch (g.op) {
                        case OpCode::And: g = {OpCode::AndNot, ta, y, 0, true}; break;
                        case OpCode::Or: g = {OpCode::OrNot, ta, y, 0, true}; break;
                        case OpCode::Xor: g = {OpCode::Xnor, ta, y, 0, true}; break;
                        case OpCode::Nand: g = {OpCode::OrNot, y, ta, 0, true}; break;
                        case OpCode::Nor: g = {OpCode::AndNot, y, ta, 0, true}; break;
                        case OpCode::Xnor: g = {OpCode::Xor, ta, y, 0, true}; break;
                        case OpCode::AndNot: g = {OpCode::And, ta, y, 0, true}; break;
                        case OpCode::OrNot: g = {OpCode::Or, ta, y, 0, true}; break;
                        default: applied = false; break;
                    }
                }
                if (applied) {
                    if (invA) {
                        --uses[ta];
                        ++uses[x];
                        if (same) {  // both edges referenced the same Not
                            --uses[ta];
                            ++uses[x];
                        }
                    }
                    if (invB && !same) {
                        --uses[tb];
                        ++uses[y];
                    }
                    ++fusedOps;
                }
            }
        }

        // Mux data-operand inversion (select handled above).
        if (g.op == OpCode::Mux) {
            if (g.a != g.b && g.a != g.c && absorbableNot(g.a, 1)) {
                const NodeId t = g.a;
                g.op = OpCode::MuxNotA;
                g.a = ops[t].a;
                --uses[t];
                ++uses[g.a];
                ++fusedOps;
            } else if (g.a != g.b && g.b != g.c && absorbableNot(g.b, 1)) {
                const NodeId t = g.b;
                g.op = OpCode::MuxNotB;
                g.b = ops[t].a;
                --uses[t];
                ++uses[g.b];
                ++fusedOps;
            }
        }

        // Associative-tree widening: a 2-input gate over a single-use
        // same-kind producer absorbs it into the 3-input fused form —
        // full-adder sums (Xor -> Xor3), AND-tree levels (And -> And3)
        // and OR-compressor levels (Or -> Or3).
        if (g.op == OpCode::Xor || g.op == OpCode::And || g.op == OpCode::Or) {
            const OpCode wide = g.op == OpCode::Xor   ? OpCode::Xor3
                                : g.op == OpCode::And ? OpCode::And3
                                                      : OpCode::Or3;
            const auto tryWiden = [&](NodeId t, NodeId other) {
                if (!(ops[t].gate && ops[t].op == g.op && !isOutput[t] && uses[t] == 1))
                    return false;
                g.op = wide;
                g.a = ops[t].a;
                g.b = ops[t].b;
                g.c = other;
                --uses[t];
                ++uses[g.a];
                ++uses[g.b];
                ++fusedOps;
                return true;
            };
            if (!tryWiden(g.a, g.b)) tryWiden(g.b, g.a);
        }
    }
}

/// Half-adder pairing state: per operand pair {min(a, b), max(a, b)}, a
/// first-in-first-out queue of the Xor or And gates over that pair still
/// waiting for a partner.  A queue only ever holds one kind — a member of
/// the other kind pops the oldest instead of joining — so visiting gates
/// in node-id order pairs the pair's k-th Xor with its k-th And.
class HalfAdderPairs {
public:
    /// `gates`: how many Xor/And gates will be offered.
    HalfAdderPairs(std::size_t nodes, std::size_t gates) : next_(nodes, kInvalidNode) {
        std::size_t capacity = 16;
        while (capacity < 2 * gates) capacity *= 2;
        table_.assign(capacity, Queue{});
    }

    /// Offers Xor/And gate `id`; returns the earlier gate it pairs with,
    /// or kInvalidNode after queueing it.
    NodeId offer(NodeId id, const std::vector<NodeOp>& ops) {
        const NodeOp& g = ops[id];
        const std::uint64_t key =
            (std::uint64_t{std::min(g.a, g.b)} << 32) | std::max(g.a, g.b);
        const std::size_t mask = table_.size() - 1;
        auto h = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
        while (table_[h].key != key && table_[h].key != kEmpty) h = (h + 1) & mask;
        Queue& q = table_[h];
        q.key = key;
        if (q.first != kInvalidNode && ops[q.first].op != g.op) {
            const NodeId partner = q.first;
            q.first = next_[partner];
            return partner;
        }
        if (q.first == kInvalidNode)
            q.first = id;
        else
            next_[q.last] = id;
        q.last = id;
        return kInvalidNode;
    }

private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    struct Queue {
        std::uint64_t key = kEmpty;
        NodeId first = kInvalidNode, last = kInvalidNode;
    };
    std::vector<Queue> table_;  ///< open addressing, linear probing
    std::vector<NodeId> next_;  ///< queue successor of each queued gate
};

}  // namespace

CompiledNetlist CompiledNetlist::compile(const Netlist& netlist, Options options) {
    const std::span<const Node> nodes = netlist.nodes();
    const bool fuse = options.pruneDead && options.fuseOps;

    CompiledNetlist compiled;
    compiled.allNodes_ = !options.pruneDead;
    compiled.backend_ = options.backend != nullptr ? options.backend
                                                   : &kernels::selectedBackend();

    // Reverse pass: liveness from the outputs, the per-node op table the
    // peephole pass rewrites, and the use counts fusion needs.
    std::vector<std::uint8_t> live(nodes.size(), options.pruneDead ? 0 : 1);
    std::vector<NodeOp> ops(nodes.size());
    std::vector<std::uint32_t> uses(fuse ? nodes.size() : 0, 0);
    std::vector<std::uint8_t> isOutput(fuse ? nodes.size() : 0, 0);
    for (NodeId out : netlist.outputs()) {
        live[out] = 1;
        if (fuse) {
            ++uses[out];
            isOutput[out] = 1;
        }
    }
    std::size_t preFusionGates = 0;
    for (std::size_t i = nodes.size(); i-- > 0;) {
        const Node& n = nodes[i];
        const int fan = fanInCount(n.kind);
        if (!live[i] || fan == 0) continue;
        ops[i] = {toOpCode(n.kind), n.a, fan >= 2 ? n.b : n.a, fan >= 3 ? n.c : n.a, true};
        ++preFusionGates;
        const NodeId operands[] = {n.a, n.b, n.c};
        for (int k = 0; k < fan; ++k) {
            live[operands[k]] = 1;
            if (fuse) ++uses[operands[k]];
        }
    }
    // The arithmetic interface survives approximation: inputs keep their
    // slots even when the logic ignores them.
    for (NodeId in : netlist.inputs()) live[in] = 1;

    std::optional<HalfAdderPairs> pairs;
    if (fuse) {
        fusePeephole(ops, uses, isOutput, compiled.fusedOps_);
        // Liveness again over the rewritten program: fused-away nodes
        // drop out of the cone.
        std::fill(live.begin(), live.end(), 0);
        for (NodeId out : netlist.outputs()) live[out] = 1;
        std::size_t pairCandidates = 0;
        for (std::size_t i = nodes.size(); i-- > 0;) {
            if (!live[i] || !ops[i].gate) continue;
            const int fan = opFanIn(ops[i].op);
            live[ops[i].a] = 1;
            if (fan >= 2) live[ops[i].b] = 1;
            if (fan >= 3) live[ops[i].c] = 1;
            pairCandidates += ops[i].op == OpCode::Xor || ops[i].op == OpCode::And;
        }
        for (NodeId in : netlist.inputs()) live[in] = 1;
        pairs.emplace(nodes.size(), pairCandidates);
    }

    // Forward pass: slots in node-id order, hoisted constants, and one
    // scheduling *item* per instruction with its finished `Instr` and the
    // items producing its operands (inputs and constants are always
    // ready).  An Xor and an And over the same operands pair into one
    // dual-destination HalfAdd item, carried by the earlier member: when
    // the later one arrives, the carrier's item becomes the pair's.
    std::vector<std::uint32_t> slotOf(nodes.size(), 0);
    std::vector<std::uint32_t> itemOf(nodes.size(), 0);
    std::vector<Instr> items;
    std::vector<std::uint32_t> producers;  // 3 entries per item
    std::vector<std::uint32_t> deps;       // operand edges per item
    items.reserve(preFusionGates);
    producers.reserve(3 * preFusionGates);
    deps.reserve(preFusionGates);
    compiled.slotNode_.reserve(nodes.size());
    std::uint32_t nextSlot = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!live[i]) continue;
        const std::uint32_t slot = nextSlot++;
        slotOf[i] = slot;
        compiled.slotNode_.push_back(static_cast<NodeId>(i));
        if (nodes[i].kind == GateKind::Input) continue;  // loaded from the input block
        if (nodes[i].kind == GateKind::Const0 || nodes[i].kind == GateKind::Const1) {
            compiled.constants_.emplace_back(slot, nodes[i].kind == GateKind::Const1);
            continue;
        }
        const NodeOp& g = ops[i];
        if (fuse && (g.op == OpCode::Xor || g.op == OpCode::And)) {
            const NodeId carrier = pairs->offer(static_cast<NodeId>(i), ops);
            if (carrier != kInvalidNode) {
                itemOf[i] = itemOf[carrier];
                Instr& ins = items[itemOf[carrier]];
                ins.op = OpCode::HalfAdd;  // dst = sum slot, c = carry slot
                if (g.op == OpCode::Xor) {
                    ins.c = ins.dst;
                    ins.dst = slot;
                } else {
                    ins.c = slot;
                }
                ++compiled.fusedOps_;
                continue;
            }
        }
        const int fan = opFanIn(g.op);
        const auto item = static_cast<std::uint32_t>(items.size());
        itemOf[i] = item;
        items.push_back({g.op, slot, slotOf[g.a], fan >= 2 ? slotOf[g.b] : 0,
                         fan >= 3 ? slotOf[g.c] : 0});
        std::uint32_t edges = 0;
        producers.resize(producers.size() + 3);
        const NodeId operands[] = {g.a, g.b, g.c};
        for (int k = 0; k < fan; ++k)
            if (ops[operands[k]].gate) producers[3 * item + edges++] = itemOf[operands[k]];
        deps.push_back(edges);
    }
    compiled.slotCount_ = nextSlot;

    // Consumer edges in CSR form, each producer's consumers in item order
    // (one entry per operand edge).
    const std::size_t itemCount = items.size();
    std::vector<std::uint32_t> consumerOffset(itemCount + 2, 0);
    for (std::size_t item = 0; item < itemCount; ++item)
        for (std::uint32_t e = 0; e < deps[item]; ++e)
            ++consumerOffset[producers[3 * item + e] + 2];
    for (std::size_t item = 2; item <= itemCount + 1; ++item)
        consumerOffset[item] += consumerOffset[item - 1];
    std::vector<std::uint32_t> consumerEdges(consumerOffset[itemCount + 1]);
    for (std::size_t item = 0; item < itemCount; ++item)
        for (std::uint32_t e = 0; e < deps[item]; ++e)
            consumerEdges[consumerOffset[producers[3 * item + e] + 1]++] =
                static_cast<std::uint32_t>(item);
    // Now [consumerOffset[p], consumerOffset[p + 1]) holds p's consumers.

    // Greedy run-maximizing list schedule: repeatedly pick the opcode with
    // the most ready instructions (ties to the lowest opcode) and emit its
    // entire ready *closure* — instructions unlocked by the run join the
    // same run, so dependent same-opcode chains (ripple carries, XOR trees)
    // become one long run.  Every item is queued exactly once, so the
    // per-opcode ready queues are fixed segments of one array, filled in
    // item order.
    std::array<std::uint32_t, kernels::kOpCount> head{}, tail{};
    for (const Instr& ins : items) ++head[static_cast<std::size_t>(ins.op)];
    for (std::uint32_t op = 0, start = 0; op < kernels::kOpCount; ++op) {
        const std::uint32_t count = head[op];
        head[op] = tail[op] = start;
        start += count;
    }
    std::vector<std::uint32_t> ready(itemCount);
    const auto enqueue = [&](std::uint32_t item) {
        ready[tail[static_cast<std::size_t>(items[item].op)]++] = item;
    };
    for (std::uint32_t item = 0; item < itemCount; ++item)
        if (deps[item] == 0) enqueue(item);

    compiled.instrs_.reserve(itemCount);
    while (compiled.instrs_.size() < itemCount) {
        std::size_t best = 0;
        for (std::size_t op = 1; op < kernels::kOpCount; ++op)
            if (tail[op] - head[op] > tail[best] - head[best]) best = op;
        if (tail[best] == head[best])
            throw std::logic_error("CompiledNetlist: scheduler stalled (cycle?)");
        const auto begin = static_cast<std::uint32_t>(compiled.instrs_.size());
        while (head[best] < tail[best]) {
            const std::uint32_t item = ready[head[best]++];
            compiled.instrs_.push_back(items[item]);
            for (std::uint32_t e = consumerOffset[item]; e < consumerOffset[item + 1]; ++e)
                if (--deps[consumerEdges[e]] == 0) enqueue(consumerEdges[e]);
        }
        compiled.runs_.push_back({static_cast<OpCode>(best), begin,
                                  static_cast<std::uint32_t>(compiled.instrs_.size())});
    }
    compiled.gatesFused_ = preFusionGates - compiled.instrs_.size();

    compiled.inputSlots_.reserve(netlist.inputCount());
    for (NodeId in : netlist.inputs()) compiled.inputSlots_.push_back(slotOf[in]);
    compiled.outputSlots_.reserve(netlist.outputCount());
    for (NodeId out : netlist.outputs()) compiled.outputSlots_.push_back(slotOf[out]);

    // AXF_VERIFY debug gate: self-verify every compiled program against
    // the source netlist (dataflow discipline, schedule claims, fusion
    // semantics) before handing it out.
    if (verify::verifyEnabled())
        verify::throwIfErrors(verify::verifyProgram(compiled, &netlist),
                              "CompiledNetlist::compile self-verification");
    return compiled;
}

CompiledNetlist::Stats CompiledNetlist::stats() const {
    Stats s;
    s.instructions = instrs_.size();
    s.runs = runs_.size();
    for (const Run& run : runs_)
        s.longestRun = std::max<std::size_t>(s.longestRun, run.end - run.begin);
    s.fusedOps = fusedOps_;
    s.gatesFused = gatesFused_;
    s.backend = backend_ != nullptr ? backend_->name : "";
    return s;
}

void CompiledNetlist::initWorkspace(std::span<Word> workspace) const {
    if (workspace.size() < workspaceWords())
        throw std::invalid_argument("CompiledNetlist::initWorkspace: workspace too small");
    for (const auto& [slot, value] : constants_) {
        Word* words = workspace.data() + static_cast<std::size_t>(slot) * kBlockWords;
        for (std::size_t w = 0; w < kBlockWords; ++w) words[w] = value ? ~Word{0} : Word{0};
    }
}

void CompiledNetlist::run(const Word* inputs, Word* outputs, Word* ws) const {
    constexpr std::size_t W = kBlockWords;
    // The input/output block copies go through memcpy: caller buffers are
    // plain vectors with no alignment contract, and the compiler inlines
    // these to unaligned vector moves anyway.
    const std::uint32_t* inSlots = inputSlots_.data();
    for (std::size_t i = 0; i < inputSlots_.size(); ++i)
        std::memcpy(ws + static_cast<std::size_t>(inSlots[i]) * W, inputs + i * W,
                    W * sizeof(Word));
    // One kernel call per same-opcode run.
    const kernels::Instr* instrs = instrs_.data();
    const auto& row = backend_->run;
    for (const Run& r : runs_)
        row[static_cast<std::size_t>(r.op)](instrs + r.begin, r.end - r.begin, ws);
    const std::uint32_t* outSlots = outputSlots_.data();
    for (std::size_t o = 0; o < outputSlots_.size(); ++o)
        std::memcpy(outputs + o * W, ws + static_cast<std::size_t>(outSlots[o]) * W,
                    W * sizeof(Word));
}

void BatchSimulator::rebind(const CompiledNetlist& compiled) {
    compiled_ = &compiled;
    const std::size_t needed = compiled.workspaceWords() + kAlignWords;
    if (storage_ == nullptr || capacity_ < needed) {  // null: moved from
        storage_ = std::make_unique_for_overwrite<Word[]>(needed);
        capacity_ = needed;
        // 128-byte-align the workspace: slots are 128-byte regions, and a
        // lesser-aligned base would make them straddle cache lines (split
        // vector loads/stores on every gate).
        const std::size_t misalign =
            reinterpret_cast<std::uintptr_t>(storage_.get()) % (kAlignWords * sizeof(Word));
        workspace_ = storage_.get() + (misalign ? kAlignWords - misalign / sizeof(Word) : 0);
    }
    compiled.initWorkspace(workspace());
}

void BatchSimulator::evaluate(std::span<const Word> inputWords, std::span<Word> outputWords) {
    if (inputWords.size() != compiled_->inputCount() * kBlockWords)
        throw std::invalid_argument("BatchSimulator: input word count mismatch");
    if (outputWords.size() != compiled_->outputCount() * kBlockWords)
        throw std::invalid_argument("BatchSimulator: output word count mismatch");
    compiled_->run(inputWords.data(), outputWords.data(), workspace_);
}

}  // namespace axf::circuit
