#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/circuit/batch_sim.hpp"
#include "src/circuit/netlist.hpp"

namespace axf::verify {

/// Three-valued abstract domain over one wire: provably always 0, provably
/// always 1, or unknown.  `Zero`/`One` are sound facts — they hold on
/// *every* concrete input assignment — so anything derived from them
/// (constant-foldable cones, cannot-deviate fault sites) is a proof, not a
/// heuristic.
enum class Ternary : std::uint8_t { Zero, One, X };

inline Ternary ternaryOf(bool v) { return v ? Ternary::One : Ternary::Zero; }

/// Maximally precise single-gate transfer function: enumerates every
/// concrete operand combination consistent with the abstract operands and
/// joins the results (derived from the shared `gateEval` semantics, so the
/// abstract domain cannot drift from the simulator).
Ternary ternaryGateEval(circuit::GateKind kind, Ternary a, Ternary b, Ternary c);

/// Same over the compiled opcode alphabet (primary result; HalfAdd's carry
/// is `ternaryAnd`).  Derived from `kernels::opEval`.
Ternary ternaryOpEval(circuit::kernels::OpCode op, Ternary a, Ternary b, Ternary c);

/// Abstract constant/X propagation over a raw node stream (must be
/// structurally valid: lint first).  `inputs` assigns abstract values to
/// the primary inputs in interface order; empty means all-X.  Returns one
/// abstract value per node.
std::vector<Ternary> absEvalNodes(std::span<const circuit::Node> nodes,
                                  std::span<const circuit::NodeId> inputIds,
                                  std::span<const Ternary> inputs = {});

std::vector<Ternary> absEvalNetlist(const circuit::Netlist& netlist,
                                    std::span<const Ternary> inputs = {});

/// Abstract propagation over the compiled instruction stream: one abstract
/// value per workspace slot (constants seeded, inputs from `inputs` or X,
/// never-written slots X).
std::vector<Ternary> absEvalProgram(const circuit::CompiledNetlist& compiled,
                                    std::span<const Ternary> inputs = {});

/// `afterInstr` of a fault on a primary-input slot: the plane is forced
/// after the input stage, before the first instruction.  Shared with
/// `fault::FaultSite`, whose sites the fault engine hands over as
/// `StuckSite`s.
inline constexpr std::uint32_t kFaultAtInputs = 0xFFFFFFFFu;

/// One stuck-at fault location in compiled-program coordinates (the
/// abstract mirror of `fault::FaultSite`): plane `slot` is forced to
/// `stuckTo` after instruction `afterInstr`, or after the input stage when
/// `afterInstr == kFaultAtInputs`.
struct StuckSite {
    std::uint32_t slot = 0;
    std::uint32_t afterInstr = 0;
    bool stuckTo = false;
};

/// For each site, true when NO primary output can deviate from the
/// fault-free circuit under that stuck-at, proven statically:
///  - the faulted plane is already provably constant at the stuck value, or
///  - every output is either outside the fault's structural fan-out cone
///    or provably the same constant in the fault-free and faulted abstract
///    runs.
/// Sound by construction (abstract facts hold on every input), so the
/// fault engine can skip these sites and report zero deviation without
/// evaluating a single vector.
std::vector<bool> cannotDeviate(const circuit::CompiledNetlist& compiled,
                                std::span<const StuckSite> sites);

}  // namespace axf::verify
