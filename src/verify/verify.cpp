#include "src/verify/verify.hpp"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/verify/absint.hpp"

namespace axf::verify {

namespace {

using circuit::CompiledNetlist;
using circuit::GateKind;
using circuit::Netlist;
using circuit::Node;
using circuit::NodeId;
using circuit::kInvalidNode;
using circuit::kernels::Instr;
using circuit::kernels::OpCode;
using circuit::kernels::kOpCount;
using circuit::kernels::opFanIn;

std::string describe(const char* what, std::uint32_t id) {
    std::ostringstream os;
    os << what << " " << id;
    return os.str();
}

bool knownKind(GateKind kind) {
    return static_cast<std::uint8_t>(kind) <= static_cast<std::uint8_t>(GateKind::Maj);
}

// ---------------------------------------------------------------------------
// Netlist linter
// ---------------------------------------------------------------------------

/// Structural errors: everything evaluation correctness depends on.  Any
/// error here makes the deeper (reachability / hashing / abstract) passes
/// meaningless, so the caller skips them when this reports errors.
void lintStructure(std::span<const Node> nodes, std::span<const NodeId> inputs,
                   std::span<const NodeId> outputs, Diagnostics& d) {
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        const Node& n = nodes[i];
        if (!knownKind(n.kind)) {
            d.add(Rule::NetArity, i,
                  describe("unknown gate kind", static_cast<std::uint32_t>(n.kind)));
            continue;
        }
        const int fan = circuit::fanInCount(n.kind);
        const NodeId operands[3] = {n.a, n.b, n.c};
        for (int k = 0; k < fan; ++k) {
            if (operands[k] == kInvalidNode) {
                d.add(Rule::NetArity, i,
                      std::string(circuit::gateKindName(n.kind)) + " gate missing operand " +
                          std::to_string(k));
            } else if (operands[k] >= nodes.size()) {
                d.add(Rule::NetOperandRange, i,
                      describe("operand references nonexistent node", operands[k]));
            } else if (operands[k] >= i) {
                // In the indexed-array IR a forward (or self) reference is
                // the only possible encoding of a cycle.
                d.add(Rule::NetOperandRange, i,
                      describe("operand breaks topological order (cycle): node", operands[k]));
            }
        }
    }

    // The inputs list must be exactly the Input nodes in creation order —
    // interface order is what binds netlist inputs to arithmetic operand
    // bits everywhere downstream.
    std::vector<NodeId> expected;
    for (std::uint32_t i = 0; i < nodes.size(); ++i)
        if (knownKind(nodes[i].kind) && nodes[i].kind == GateKind::Input)
            expected.push_back(i);
    if (inputs.size() != expected.size()) {
        d.add(Rule::NetInputList, kNoLocation,
              "input list has " + std::to_string(inputs.size()) + " entries, netlist has " +
                  std::to_string(expected.size()) + " Input nodes");
    } else {
        for (std::size_t k = 0; k < expected.size(); ++k) {
            if (inputs[k] != expected[k]) {
                d.add(Rule::NetInputList, expected[k],
                      describe("input list entry disagrees at position",
                               static_cast<std::uint32_t>(k)));
                break;
            }
        }
    }

    for (std::uint32_t k = 0; k < outputs.size(); ++k)
        if (outputs[k] == kInvalidNode || outputs[k] >= nodes.size())
            d.add(Rule::NetOutputRange, k, describe("output references nonexistent node", outputs[k]));
    if (outputs.empty()) d.add(Rule::NetNoOutputs, kNoLocation, "netlist drives no outputs");
}

/// Warning-level passes; only run on structurally clean IR.
void lintDeep(std::span<const Node> nodes, std::span<const NodeId> inputs,
              std::span<const NodeId> outputs, const LintOptions& options, Diagnostics& d) {
    // Backward reachability from the outputs.
    std::vector<bool> reachable(nodes.size(), false);
    std::vector<NodeId> stack(outputs.begin(), outputs.end());
    for (const NodeId o : outputs) reachable[o] = true;
    while (!stack.empty()) {
        const Node& n = nodes[stack.back()];
        stack.pop_back();
        const int fan = circuit::fanInCount(n.kind);
        const NodeId operands[3] = {n.a, n.b, n.c};
        for (int k = 0; k < fan; ++k)
            if (!reachable[operands[k]]) {
                reachable[operands[k]] = true;
                stack.push_back(operands[k]);
            }
    }
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        if (reachable[i]) continue;
        switch (nodes[i].kind) {
            case GateKind::Input:
                d.add(Rule::NetDanglingInput, i, "no output depends on this input");
                break;
            case GateKind::Const0:
            case GateKind::Const1: break;  // stray constants are noise, not findings
            default:
                if (options.warnUnreachable)
                    d.add(Rule::NetUnreachable, i, "gate outside every output cone");
                break;
        }
    }

    // Duplicate structure via per-node cone hashing: two gates with equal
    // hashes compute (modulo hash collision) the same function of the same
    // inputs — one of them is redundant area.
    if (options.warnDuplicates) {
        const auto mix = [](std::uint64_t h, std::uint64_t v) {
            h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
            return h;
        };
        std::vector<std::uint64_t> hash(nodes.size());
        std::unordered_map<std::uint64_t, std::uint32_t> first;
        std::uint64_t inputOrdinal = 0;
        for (std::uint32_t i = 0; i < nodes.size(); ++i) {
            const Node& n = nodes[i];
            std::uint64_t h = mix(0x243F6A8885A308D3ull, static_cast<std::uint64_t>(n.kind));
            if (n.kind == GateKind::Input) {
                h = mix(h, inputOrdinal++);
            } else {
                const int fan = circuit::fanInCount(n.kind);
                const NodeId operands[3] = {n.a, n.b, n.c};
                for (int k = 0; k < fan; ++k) h = mix(h, hash[operands[k]]);
            }
            hash[i] = h;
            if (circuit::fanInCount(n.kind) == 0) continue;  // inputs/constants dedup is meaningless
            const auto [it, inserted] = first.try_emplace(h, i);
            if (!inserted)
                d.add(Rule::NetDuplicateStructure, i,
                      describe("cone structurally identical to node", it->second));
        }
    }

    // Provably constant gates: ternary abstract interpretation with all
    // inputs unknown.  A non-X gate value is a sound proof the gate folds.
    if (options.warnConstFoldable) {
        const std::vector<Ternary> abs = absEvalNodes(nodes, inputs);
        for (std::uint32_t i = 0; i < nodes.size(); ++i) {
            if (circuit::fanInCount(nodes[i].kind) == 0) continue;
            if (abs[i] != Ternary::X && reachable[i])
                d.add(Rule::NetConstFoldable, i,
                      abs[i] == Ternary::One ? "gate is provably constant 1"
                                             : "gate is provably constant 0");
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled-program verifier
// ---------------------------------------------------------------------------

/// Memoized evaluation of one source-netlist cone down to a pinned
/// frontier, used to re-derive what a (possibly fused) instruction must
/// compute.  Reaching an unpinned Input or exceeding the node cap fails
/// the proof (recorded, reported by the caller).
class ConeEvaluator {
public:
    ConeEvaluator(const Netlist& source, std::span<const NodeId> pinNodes,
                  const bool* pinValues, std::size_t pinCount, std::size_t cap)
        : source_(source), pinNodes_(pinNodes), pinValues_(pinValues), pinCount_(pinCount),
          cap_(cap) {}

    bool failed() const { return failed_; }
    const char* failure() const { return failure_; }

    bool eval(NodeId id) {
        for (std::size_t p = 0; p < pinCount_; ++p)
            if (pinNodes_[p] == id) return pinValues_[p];
        const auto it = memo_.find(id);
        if (it != memo_.end()) return it->second;
        if (++visited_ > cap_) {
            fail("cone exceeds the node cap");
            return false;
        }
        const Node& n = source_.node(id);
        bool value = false;
        switch (n.kind) {
            case GateKind::Input: fail("cone reaches an unpinned primary input"); break;
            case GateKind::Const0: value = false; break;
            case GateKind::Const1: value = true; break;
            default: {
                const int fan = circuit::fanInCount(n.kind);
                const bool a = eval(n.a);
                const bool b = fan >= 2 && !failed_ ? eval(n.b) : false;
                const bool c = fan >= 3 && !failed_ ? eval(n.c) : false;
                value = circuit::gateEval(n.kind, a, b, c);
                break;
            }
        }
        memo_.emplace(id, value);
        return value;
    }

private:
    void fail(const char* why) {
        failed_ = true;
        if (failure_ == nullptr) failure_ = why;
    }

    const Netlist& source_;
    std::span<const NodeId> pinNodes_;
    const bool* pinValues_;
    std::size_t pinCount_;
    std::size_t cap_;
    std::size_t visited_ = 0;
    bool failed_ = false;
    const char* failure_ = nullptr;
    std::unordered_map<NodeId, bool> memo_;
};

/// Proves instruction `i` computes exactly the composition of source gates
/// it stands for: for every assignment of the operand planes' source
/// nodes, `opEval` of the instruction must equal the `gateEval` cone walk
/// from the destination's source node down to those (pinned) operands.
/// Operand order is transparent here — both sides are functions of *nodes*.
void checkFusionSemantics(const ProgramView& program, const Netlist& source,
                          const VerifyOptions& options, Diagnostics& d) {
    const std::span<const NodeId> slotNodes = program.slotNodes;
    for (std::uint32_t i = 0; i < program.instructions.size(); ++i) {
        const Instr& ins = program.instructions[i];
        const int fan = ins.op == OpCode::HalfAdd ? 2 : opFanIn(ins.op);
        const std::uint32_t operandSlots[3] = {ins.a, ins.b, ins.c};

        const NodeId target = slotNodes[ins.dst];
        const NodeId carryTarget = ins.op == OpCode::HalfAdd ? slotNodes[ins.c] : kInvalidNode;
        bool mappingOk = target < source.nodeCount() &&
                         (ins.op != OpCode::HalfAdd || carryTarget < source.nodeCount());
        NodeId operandNodes[3] = {kInvalidNode, kInvalidNode, kInvalidNode};
        for (int k = 0; k < fan; ++k) {
            operandNodes[k] = slotNodes[operandSlots[k]];
            mappingOk = mappingOk && operandNodes[k] < source.nodeCount();
        }
        if (!mappingOk) {
            d.add(Rule::ProgFusionSemantics, i, "instruction has no source-node mapping");
            continue;
        }

        // Distinct operand nodes form the pinned frontier (an operand node
        // appearing twice pins once and feeds both operand positions).
        NodeId frontier[3];
        std::size_t frontierSize = 0;
        for (int k = 0; k < fan; ++k) {
            bool seen = false;
            for (std::size_t p = 0; p < frontierSize; ++p) seen = seen || frontier[p] == operandNodes[k];
            if (!seen) frontier[frontierSize++] = operandNodes[k];
        }

        for (std::uint32_t mask = 0; mask < (1u << frontierSize); ++mask) {
            bool pinValues[3] = {false, false, false};
            for (std::size_t p = 0; p < frontierSize; ++p) pinValues[p] = (mask >> p) & 1u;
            const auto operandValue = [&](int k) {
                for (std::size_t p = 0; p < frontierSize; ++p)
                    if (frontier[p] == operandNodes[k]) return pinValues[p];
                return false;
            };
            const bool va = operandValue(0);
            const bool vb = fan >= 2 ? operandValue(1) : false;
            const bool vc = fan >= 3 ? operandValue(2) : false;

            ConeEvaluator cone(source, {frontier, frontierSize}, pinValues, frontierSize,
                               options.maxConeNodes);
            const bool expected = cone.eval(target);
            if (cone.failed()) {
                d.add(Rule::ProgFusionSemantics, i, cone.failure());
                break;
            }
            if (circuit::kernels::opEval(ins.op, va, vb, vc) != expected) {
                d.add(Rule::ProgFusionSemantics, i,
                      std::string(circuit::kernels::opCodeName(ins.op)) +
                          " result disagrees with the source gate composition");
                break;
            }
            if (ins.op == OpCode::HalfAdd) {
                const bool expectedCarry = cone.eval(carryTarget);
                if (cone.failed()) {
                    d.add(Rule::ProgFusionSemantics, i, cone.failure());
                    break;
                }
                if (circuit::kernels::opCarryEval(va, vb) != expectedCarry) {
                    d.add(Rule::ProgFusionSemantics, i,
                          "HalfAdd carry disagrees with the source gate composition");
                    break;
                }
            }
        }
    }
}

std::atomic<int> gVerifyOverride{-1};  // -1 follow env, 0 forced off, 1 forced on

}  // namespace

Diagnostics lintNetlist(std::span<const Node> nodes, std::span<const NodeId> inputs,
                        std::span<const NodeId> outputs, const LintOptions& options) {
    Diagnostics d;
    d.setLimit(options.maxDiagnostics);
    lintStructure(nodes, inputs, outputs, d);
    if (!d.hasErrors()) lintDeep(nodes, inputs, outputs, options, d);
    return d;
}

Diagnostics lintNetlist(const Netlist& netlist, const LintOptions& options) {
    return lintNetlist(netlist.nodes(), netlist.inputs(), netlist.outputs(), options);
}

Diagnostics verifyProgram(const ProgramView& program, const Netlist* source,
                          const VerifyOptions& options) {
    Diagnostics d;
    d.setLimit(options.maxDiagnostics);
    const std::size_t slots = program.slotCount;

    // Interface shape (CP008).
    std::vector<std::uint8_t> defined(slots, 0);
    for (std::uint32_t k = 0; k < program.inputSlots.size(); ++k) {
        const std::uint32_t s = program.inputSlots[k];
        if (s >= slots) {
            d.add(Rule::ProgInterface, k, describe("input slot out of range:", s));
        } else if (defined[s] != 0) {
            d.add(Rule::ProgInterface, k, describe("duplicate input slot", s));
        } else {
            defined[s] = 1;
        }
    }
    for (std::uint32_t k = 0; k < program.constants.size(); ++k) {
        const std::uint32_t s = program.constants[k].first;
        if (s >= slots) {
            d.add(Rule::ProgInterface, k, describe("constant slot out of range:", s));
        } else if (defined[s] != 0) {
            d.add(Rule::ProgInterface, k, describe("constant overlaps a defined slot:", s));
        } else {
            defined[s] = 1;
        }
    }
    for (std::uint32_t k = 0; k < program.outputSlots.size(); ++k)
        if (program.outputSlots[k] >= slots)
            d.add(Rule::ProgInterface, k,
                  describe("output slot out of range:", program.outputSlots[k]));
    const bool haveSlotNodes = !program.slotNodes.empty();
    if (haveSlotNodes && program.slotNodes.size() != slots)
        d.add(Rule::ProgInterface, kNoLocation, "slot-to-node map does not cover every slot");
    if (source != nullptr) {
        if (program.inputSlots.size() != source->inputCount())
            d.add(Rule::ProgInterface, kNoLocation, "input count differs from the source netlist");
        if (program.outputSlots.size() != source->outputCount())
            d.add(Rule::ProgInterface, kNoLocation,
                  "output count differs from the source netlist");
        if (haveSlotNodes && program.slotNodes.size() == slots &&
            program.outputSlots.size() == source->outputCount()) {
            for (std::uint32_t k = 0; k < program.outputSlots.size(); ++k) {
                const std::uint32_t s = program.outputSlots[k];
                if (s < slots && program.slotNodes[s] != source->outputs()[k])
                    d.add(Rule::ProgInterface, k,
                          describe("output plane carries the wrong source node:",
                                   program.slotNodes[s]));
            }
        }
    }

    // Dataflow discipline (CP001/CP002/CP003): single assignment plus
    // def-before-use — together they make clobbering a live plane
    // impossible, which is exactly the lifetime claim compile() relies on.
    for (std::uint32_t i = 0; i < program.instructions.size(); ++i) {
        const Instr& ins = program.instructions[i];
        if (static_cast<std::size_t>(ins.op) >= kOpCount) {
            d.add(Rule::ProgSlotRange, i,
                  describe("unknown opcode", static_cast<std::uint32_t>(ins.op)));
            continue;
        }
        const int fan = ins.op == OpCode::HalfAdd ? 2 : opFanIn(ins.op);
        const std::uint32_t operands[3] = {ins.a, ins.b, ins.c};
        for (int k = 0; k < fan; ++k) {
            if (operands[k] >= slots)
                d.add(Rule::ProgSlotRange, i, describe("operand slot out of range:", operands[k]));
            else if (defined[operands[k]] == 0)
                d.add(Rule::ProgUseBeforeDef, i,
                      describe("operand plane read before definition: slot", operands[k]));
        }
        const std::uint32_t dests[2] = {ins.dst, ins.c};
        const int destCount = ins.op == OpCode::HalfAdd ? 2 : 1;
        for (int k = 0; k < destCount; ++k) {
            if (dests[k] >= slots)
                d.add(Rule::ProgSlotRange, i, describe("destination slot out of range:", dests[k]));
            else if (defined[dests[k]] != 0)
                d.add(Rule::ProgRedefinition, i,
                      describe("write clobbers an already-defined plane: slot", dests[k]));
            else
                defined[dests[k]] = 1;
        }
        if (ins.op == OpCode::HalfAdd && ins.dst == ins.c)
            d.add(Rule::ProgRedefinition, i, "HalfAdd carry plane aliases its sum plane");
    }

    for (std::uint32_t k = 0; k < program.outputSlots.size(); ++k) {
        const std::uint32_t s = program.outputSlots[k];
        if (s < slots && defined[s] == 0)
            d.add(Rule::ProgOutputUndefined, k, describe("output plane never written: slot", s));
    }

    // Schedule (CP004): the runs must partition the stream into same-opcode
    // groups.
    std::uint32_t expect = 0;
    bool runsCover = true;
    for (std::uint32_t r = 0; r < program.runs.size(); ++r) {
        const CompiledNetlist::Run& run = program.runs[r];
        if (run.begin != expect || run.end <= run.begin ||
            run.end > program.instructions.size()) {
            d.add(Rule::ProgRunShape, r, "run bounds do not partition the instruction stream");
            runsCover = false;
            break;
        }
        for (std::uint32_t i = run.begin; i < run.end; ++i)
            if (program.instructions[i].op != run.op) {
                d.add(Rule::ProgRunShape, r, describe("run opcode disagrees at instruction", i));
                runsCover = false;
            }
        expect = run.end;
    }
    if (runsCover && expect != program.instructions.size())
        d.add(Rule::ProgRunShape, kNoLocation, "runs do not cover the instruction stream");

    // Fusion semantics (CP006) only on structurally clean programs with a
    // source mapping: the cone walk needs trustworthy slot/node indices.
    if (!d.hasErrors() && source != nullptr && haveSlotNodes)
        checkFusionSemantics(program, *source, options, d);
    return d;
}

Diagnostics verifyProgram(const CompiledNetlist& compiled, const Netlist* source,
                          const VerifyOptions& options) {
    ProgramView view;
    view.instructions = compiled.instructions();
    view.runs = compiled.runs();
    view.inputSlots = compiled.inputSlots();
    view.outputSlots = compiled.outputSlots();
    view.constants = compiled.constantSlots();
    view.slotNodes = compiled.slotNodes();
    view.slotCount = compiled.slotCount();
    return verifyProgram(view, source, options);
}

bool verifyEnabled() {
    const int forced = gVerifyOverride.load(std::memory_order_relaxed);
    if (forced >= 0) return forced != 0;
    static const bool fromEnv = [] {
        const char* v = std::getenv("AXF_VERIFY");
        return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
    }();
    return fromEnv;
}

ScopedVerifyOverride::ScopedVerifyOverride(bool enabled)
    : previous_(gVerifyOverride.exchange(enabled ? 1 : 0, std::memory_order_relaxed)) {}

ScopedVerifyOverride::~ScopedVerifyOverride() {
    gVerifyOverride.store(previous_, std::memory_order_relaxed);
}

void throwIfErrors(const Diagnostics& diagnostics, const char* what) {
    if (diagnostics.hasErrors())
        throw std::logic_error(std::string(what) + ": " + diagnostics.summary());
}

}  // namespace axf::verify
