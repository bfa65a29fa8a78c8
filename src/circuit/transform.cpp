#include "src/circuit/transform.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/verify/verify.hpp"

namespace axf::circuit {

namespace {

class Simplifier {
public:
    explicit Simplifier(const Netlist& src) : src_(src) {
        // A source node emits at most two gates (Nand: And + Not; a Mux
        // with a constant data input: Not + Or), so four slots per source
        // node keep the CSE table at most half full.
        const std::size_t slots = std::bit_ceil(std::max<std::size_t>(16, 4 * src.nodeCount()));
        cse_.assign(slots, kInvalidNode);
        cseMask_ = slots - 1;
    }

    Netlist run() {
        map_.assign(src_.nodeCount(), kInvalidNode);
        for (std::size_t i = 0; i < src_.nodeCount(); ++i) {
            const Node& n = src_.node(static_cast<NodeId>(i));
            map_[i] = rewrite(n);
        }
        for (NodeId out : src_.outputs()) dst_.markOutput(map_[out]);
        dst_.setName(src_.name());
        return dst_.pruned();
    }

private:
    const Netlist& src_;
    Netlist dst_;
    std::vector<NodeId> map_;
    /// Structural-hashing CSE: open addressing with linear probing over
    /// the ids of emitted gates (kInvalidNode = empty).  A slot's key is
    /// the gate it names, read back from `dst_`.
    std::vector<NodeId> cse_;
    std::size_t cseMask_ = 0;
    NodeId const0_ = kInvalidNode;
    NodeId const1_ = kInvalidNode;

    NodeId constant(bool v) {
        NodeId& slot = v ? const1_ : const0_;
        if (slot == kInvalidNode) slot = dst_.addConst(v);
        return slot;
    }

    bool isConst(NodeId id, bool v) const {
        const GateKind k = dst_.node(id).kind;
        return v ? k == GateKind::Const1 : k == GateKind::Const0;
    }
    bool isAnyConst(NodeId id) const { return isConst(id, false) || isConst(id, true); }
    bool constValue(NodeId id) const { return isConst(id, true); }

    /// ~x with double-inversion folding.
    NodeId invert(NodeId x) {
        if (isAnyConst(x)) return constant(!constValue(x));
        const Node& n = dst_.node(x);
        if (n.kind == GateKind::Not) return n.a;
        return emit(GateKind::Not, x);
    }

    NodeId emit(GateKind kind, NodeId a, NodeId b = kInvalidNode, NodeId c = kInvalidNode) {
        // Canonicalize commutative operand order for CSE.
        switch (kind) {
            case GateKind::And:
            case GateKind::Or:
            case GateKind::Xor:
            case GateKind::Nand:
            case GateKind::Nor:
            case GateKind::Xnor:
                if (a > b) std::swap(a, b);
                break;
            case GateKind::Maj: {
                NodeId v[3] = {a, b, c};
                std::sort(std::begin(v), std::end(v));
                a = v[0];
                b = v[1];
                c = v[2];
                break;
            }
            default: break;
        }
        std::uint64_t h = (std::uint64_t{a} << 32 | b) * 0x9E3779B97F4A7C15ull;
        h ^= (std::uint64_t{c} << 8 | static_cast<std::uint64_t>(kind)) * 0xC2B2AE3D27D4EB4Full;
        for (std::size_t i = (h ^ h >> 32) & cseMask_;; i = (i + 1) & cseMask_) {
            const NodeId id = cse_[i];
            if (id == kInvalidNode) return cse_[i] = dst_.addGate(kind, a, b, c);
            const Node& n = dst_.node(id);
            if (n.kind == kind && n.a == a && n.b == b && n.c == c) return id;
        }
    }

    NodeId rewrite(const Node& n) {
        switch (n.kind) {
            case GateKind::Input: return dst_.addInput();
            case GateKind::Const0: return constant(false);
            case GateKind::Const1: return constant(true);
            case GateKind::Buf: return map_[n.a];
            case GateKind::Not: return invert(map_[n.a]);
            case GateKind::And: return rewriteAnd(map_[n.a], map_[n.b]);
            case GateKind::Or: return rewriteOr(map_[n.a], map_[n.b]);
            case GateKind::Xor: return rewriteXor(map_[n.a], map_[n.b]);
            case GateKind::Nand: return invert(rewriteAnd(map_[n.a], map_[n.b]));
            case GateKind::Nor: return invert(rewriteOr(map_[n.a], map_[n.b]));
            case GateKind::Xnor: return invert(rewriteXor(map_[n.a], map_[n.b]));
            case GateKind::AndNot: return rewriteAnd(map_[n.a], invert(map_[n.b]));
            case GateKind::OrNot: return rewriteOr(map_[n.a], invert(map_[n.b]));
            case GateKind::Mux: return rewriteMux(map_[n.a], map_[n.b], map_[n.c]);
            case GateKind::Maj: return rewriteMaj(map_[n.a], map_[n.b], map_[n.c]);
        }
        return constant(false);
    }

    NodeId rewriteAnd(NodeId a, NodeId b) {
        if (isConst(a, false) || isConst(b, false)) return constant(false);
        if (isConst(a, true)) return b;
        if (isConst(b, true)) return a;
        if (a == b) return a;
        return emit(GateKind::And, a, b);
    }

    NodeId rewriteOr(NodeId a, NodeId b) {
        if (isConst(a, true) || isConst(b, true)) return constant(true);
        if (isConst(a, false)) return b;
        if (isConst(b, false)) return a;
        if (a == b) return a;
        return emit(GateKind::Or, a, b);
    }

    NodeId rewriteXor(NodeId a, NodeId b) {
        if (isConst(a, false)) return b;
        if (isConst(b, false)) return a;
        if (isConst(a, true)) return invert(b);
        if (isConst(b, true)) return invert(a);
        if (a == b) return constant(false);
        return emit(GateKind::Xor, a, b);
    }

    NodeId rewriteMux(NodeId a, NodeId b, NodeId sel) {
        if (isConst(sel, false)) return a;
        if (isConst(sel, true)) return b;
        if (a == b) return a;
        if (isConst(a, false) && isConst(b, true)) return sel;
        if (isConst(a, true) && isConst(b, false)) return invert(sel);
        if (isConst(a, false)) return rewriteAnd(sel, b);
        if (isConst(b, true)) return rewriteOr(a, sel);
        if (isConst(a, true)) return rewriteOr(invert(sel), b);
        if (isConst(b, false)) return rewriteAnd(a, invert(sel));
        return emit(GateKind::Mux, a, b, sel);
    }

    NodeId rewriteMaj(NodeId a, NodeId b, NodeId c) {
        if (a == b) return a;
        if (a == c) return a;
        if (b == c) return b;
        if (isConst(a, false)) return rewriteAnd(b, c);
        if (isConst(a, true)) return rewriteOr(b, c);
        if (isConst(b, false)) return rewriteAnd(a, c);
        if (isConst(b, true)) return rewriteOr(a, c);
        if (isConst(c, false)) return rewriteAnd(a, b);
        if (isConst(c, true)) return rewriteOr(a, b);
        return emit(GateKind::Maj, a, b, c);
    }
};

}  // namespace

namespace {

/// AXF_VERIFY debug gate: transforms self-lint their result (structural
/// errors only; warnings like const-foldable gates are expected mid-flow).
Netlist lintChecked(Netlist netlist, const char* what) {
    if (verify::verifyEnabled())
        verify::throwIfErrors(verify::lintNetlist(netlist), what);
    return netlist;
}

}  // namespace

Netlist simplify(const Netlist& netlist) {
    return lintChecked(Simplifier(netlist).run(), "simplify self-lint");
}

Netlist lowerToTwoInput(const Netlist& netlist) {
    Netlist dst(netlist.name());
    std::vector<NodeId> map(netlist.nodeCount(), kInvalidNode);
    for (std::size_t i = 0; i < netlist.nodeCount(); ++i) {
        const Node& n = netlist.node(static_cast<NodeId>(i));
        switch (n.kind) {
            case GateKind::Input: map[i] = dst.addInput(); break;
            case GateKind::Const0: map[i] = dst.addConst(false); break;
            case GateKind::Const1: map[i] = dst.addConst(true); break;
            case GateKind::Maj: {
                const NodeId ab = dst.addGate(GateKind::And, map[n.a], map[n.b]);
                const NodeId axb = dst.addGate(GateKind::Xor, map[n.a], map[n.b]);
                const NodeId t = dst.addGate(GateKind::And, map[n.c], axb);
                map[i] = dst.addGate(GateKind::Or, ab, t);
                break;
            }
            case GateKind::Mux: {
                const NodeId t1 = dst.addGate(GateKind::And, map[n.c], map[n.b]);
                const NodeId t2 = dst.addGate(GateKind::AndNot, map[n.a], map[n.c]);
                map[i] = dst.addGate(GateKind::Or, t1, t2);
                break;
            }
            default:
                if (fanInCount(n.kind) == 1)
                    map[i] = dst.addGate(n.kind, map[n.a]);
                else
                    map[i] = dst.addGate(n.kind, map[n.a], map[n.b]);
                break;
        }
    }
    for (NodeId out : netlist.outputs()) dst.markOutput(map[out]);
    return lintChecked(std::move(dst), "lowerToTwoInput self-lint");
}

}  // namespace axf::circuit
