#include "src/verify/absint.hpp"

#include <algorithm>

namespace axf::verify {

namespace {

using circuit::CompiledNetlist;
using circuit::GateKind;
using circuit::Node;
using circuit::NodeId;
using circuit::kernels::Instr;
using circuit::kernels::OpCode;
using circuit::kernels::opFanIn;

/// Joins the concrete results of every operand combination consistent with
/// the abstract operands.  `eval` maps a 3-bit concrete assignment (bit 2 =
/// a, bit 1 = b, bit 0 = c — the shared truth-table layout) to a bool.
template <typename Eval>
Ternary joinConsistent(Ternary a, Ternary b, Ternary c, Eval&& eval) {
    bool sawZero = false, sawOne = false;
    const auto consistent = [](Ternary t, bool v) {
        return t == Ternary::X || (t == Ternary::One) == v;
    };
    for (int k = 0; k < 8; ++k) {
        const bool ba = (k & 4) != 0, bb = (k & 2) != 0, bc = (k & 1) != 0;
        if (!consistent(a, ba) || !consistent(b, bb) || !consistent(c, bc)) continue;
        (eval(ba, bb, bc) ? sawOne : sawZero) = true;
        if (sawZero && sawOne) return Ternary::X;
    }
    if (sawOne && !sawZero) return Ternary::One;
    if (sawZero && !sawOne) return Ternary::Zero;
    return Ternary::X;  // unreachable for total eval functions
}

}  // namespace

Ternary ternaryGateEval(GateKind kind, Ternary a, Ternary b, Ternary c) {
    switch (kind) {
        case GateKind::Input: return a;
        case GateKind::Const0: return Ternary::Zero;
        case GateKind::Const1: return Ternary::One;
        default: break;
    }
    const int fan = circuit::fanInCount(kind);
    if (fan < 2) b = Ternary::Zero;  // pin unused operands: fewer combos, same result
    if (fan < 3) c = Ternary::Zero;
    return joinConsistent(a, b, c, [kind](bool ba, bool bb, bool bc) {
        return circuit::gateEval(kind, ba, bb, bc);
    });
}

Ternary ternaryOpEval(OpCode op, Ternary a, Ternary b, Ternary c) {
    const int fan = opFanIn(op);
    if (fan < 2) b = Ternary::Zero;
    if (fan < 3) c = Ternary::Zero;
    return joinConsistent(a, b, c, [op](bool ba, bool bb, bool bc) {
        return circuit::kernels::opEval(op, ba, bb, bc);
    });
}

std::vector<Ternary> absEvalNodes(std::span<const Node> nodes, std::span<const NodeId> inputIds,
                                  std::span<const Ternary> inputs) {
    std::vector<Ternary> values(nodes.size(), Ternary::X);
    for (std::size_t i = 0; i < inputIds.size(); ++i)
        if (inputIds[i] < nodes.size())
            values[inputIds[i]] = i < inputs.size() ? inputs[i] : Ternary::X;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Node& n = nodes[i];
        switch (n.kind) {
            case GateKind::Input: break;  // seeded above
            case GateKind::Const0: values[i] = Ternary::Zero; break;
            case GateKind::Const1: values[i] = Ternary::One; break;
            default: {
                const int fan = circuit::fanInCount(n.kind);
                const Ternary a = values[n.a];
                const Ternary b = fan >= 2 ? values[n.b] : Ternary::X;
                const Ternary c = fan >= 3 ? values[n.c] : Ternary::X;
                values[i] = ternaryGateEval(n.kind, a, b, c);
                break;
            }
        }
    }
    return values;
}

std::vector<Ternary> absEvalNetlist(const circuit::Netlist& netlist,
                                    std::span<const Ternary> inputs) {
    return absEvalNodes(netlist.nodes(), netlist.inputs(), inputs);
}

namespace {

/// Core of absEvalProgram with an optional stuck-at override applied
/// mid-stream, shared with cannotDeviate's faulted run.
std::vector<Ternary> absRunProgram(const CompiledNetlist& compiled,
                                   std::span<const Ternary> inputs, const StuckSite* fault) {
    std::vector<Ternary> v(compiled.slotCount(), Ternary::X);
    for (const auto& [slot, value] : compiled.constantSlots()) v[slot] = ternaryOf(value);
    const std::span<const std::uint32_t> inSlots = compiled.inputSlots();
    for (std::size_t i = 0; i < inSlots.size(); ++i)
        v[inSlots[i]] = i < inputs.size() ? inputs[i] : Ternary::X;
    if (fault != nullptr && fault->afterInstr == kFaultAtInputs)
        v[fault->slot] = ternaryOf(fault->stuckTo);

    const std::span<const Instr> instrs = compiled.instructions();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instr& ins = instrs[i];
        if (ins.op == OpCode::HalfAdd) {
            // Dual destination: dst = sum, c = carry.
            v[ins.dst] = ternaryOpEval(OpCode::Xor, v[ins.a], v[ins.b], Ternary::Zero);
            v[ins.c] = ternaryOpEval(OpCode::And, v[ins.a], v[ins.b], Ternary::Zero);
        } else {
            const int fan = opFanIn(ins.op);
            v[ins.dst] = ternaryOpEval(ins.op, v[ins.a], fan >= 2 ? v[ins.b] : Ternary::Zero,
                                       fan >= 3 ? v[ins.c] : Ternary::Zero);
        }
        if (fault != nullptr && fault->afterInstr == i) v[fault->slot] = ternaryOf(fault->stuckTo);
    }
    return v;
}

}  // namespace

std::vector<Ternary> absEvalProgram(const CompiledNetlist& compiled,
                                    std::span<const Ternary> inputs) {
    return absRunProgram(compiled, inputs, nullptr);
}

std::vector<bool> cannotDeviate(const CompiledNetlist& compiled,
                                std::span<const StuckSite> sites) {
    const std::vector<Ternary> base = absRunProgram(compiled, {}, nullptr);
    const std::span<const Instr> instrs = compiled.instructions();
    const std::span<const std::uint32_t> outSlots = compiled.outputSlots();

    std::vector<bool> result(sites.size(), false);
    std::vector<bool> cone(compiled.slotCount(), false);
    for (std::size_t s = 0; s < sites.size(); ++s) {
        const StuckSite& site = sites[s];
        if (site.slot >= compiled.slotCount()) continue;

        // A plane already provably stuck at the stuck value: the override
        // never flips anything, on any input.
        if (base[site.slot] == ternaryOf(site.stuckTo)) {
            result[s] = true;
            continue;
        }

        // Structural fan-out cone of the fault point (same sweep as the
        // fault engine's replay-cone construction).
        std::fill(cone.begin(), cone.end(), false);
        cone[site.slot] = true;
        const std::uint32_t start =
            site.afterInstr == kFaultAtInputs ? 0 : site.afterInstr + 1;
        bool anyOutputInCone = false;
        for (std::uint32_t i = start; i < instrs.size(); ++i) {
            const Instr& ins = instrs[i];
            const int fan = opFanIn(ins.op);
            bool hit = cone[ins.a];
            if (!hit && fan >= 2) hit = cone[ins.b];
            if (!hit && fan >= 3) hit = cone[ins.c];
            if (!hit) continue;
            cone[ins.dst] = true;
            if (ins.op == OpCode::HalfAdd) cone[ins.c] = true;
        }
        for (const std::uint32_t o : outSlots) anyOutputInCone = anyOutputInCone || cone[o];
        if (!anyOutputInCone) {
            result[s] = true;  // fault feeds no output (dead or truncated logic)
            continue;
        }

        // Abstract re-run with the stuck override in place: every output
        // either outside the cone or pinned to the same constant in both
        // runs cannot deviate.
        const std::vector<Ternary> faulted = absRunProgram(compiled, {}, &site);
        bool safe = true;
        for (const std::uint32_t o : outSlots) {
            if (!cone[o]) continue;
            if (base[o] == Ternary::X || faulted[o] != base[o]) {
                safe = false;
                break;
            }
        }
        result[s] = safe;
    }
    return result;
}

}  // namespace axf::verify
