#pragma once

#include <cstddef>
#include <span>
#include <utility>

#include "src/circuit/batch_sim.hpp"
#include "src/circuit/netlist.hpp"
#include "src/verify/diagnostics.hpp"

namespace axf::verify {

/// Linter knobs.  Structural errors are always checked; the warnings for
/// legal-but-suspect shapes can be muted individually (e.g. compile with
/// pruneDead=false intentionally keeps unreachable nodes).
struct LintOptions {
    bool warnUnreachable = true;
    bool warnDuplicates = true;
    bool warnConstFoldable = true;
    std::size_t maxDiagnostics = 64;
};

/// Lints a raw node stream against every structural invariant the rest of
/// the stack assumes: fan-in arity per GateKind, def-before-use (which in
/// the indexed array representation *is* acyclicity), the input list
/// contract, output ranges, plus the warning-level passes (unreachable
/// nodes, duplicated cones via per-node structural hashing, provably
/// constant gates via ternary abstract interpretation).
///
/// This span overload is the ingestion front door: it accepts IR no
/// `Netlist` builder would ever produce, which is exactly what untrusted
/// BLIF/ISCAS imports, cache blobs and the mutation tests need.
Diagnostics lintNetlist(std::span<const circuit::Node> nodes,
                        std::span<const circuit::NodeId> inputs,
                        std::span<const circuit::NodeId> outputs,
                        const LintOptions& options = {});

Diagnostics lintNetlist(const circuit::Netlist& netlist, const LintOptions& options = {});

struct VerifyOptions {
    std::size_t maxDiagnostics = 64;
    /// Per-instruction cap on source-cone size for the fusion-semantics
    /// re-derivation; cones beyond it (never produced by the compiler,
    /// only by corrupt input) are reported instead of walked.
    std::size_t maxConeNodes = 256;
};

/// Borrowed view of a compiled program, decoupled from `CompiledNetlist`
/// so corrupted streams can be constructed in tests (the real compiler
/// never produces one).  Spans must outlive the verification call.
struct ProgramView {
    std::span<const circuit::kernels::Instr> instructions;
    std::span<const circuit::CompiledNetlist::Run> runs;
    std::span<const std::uint32_t> inputSlots;
    std::span<const std::uint32_t> outputSlots;
    std::span<const std::pair<std::uint32_t, bool>> constants;
    /// Source node carried by each slot; required for the fusion-semantics
    /// check (empty disables it).
    std::span<const circuit::NodeId> slotNodes;
    std::size_t slotCount = 0;
};

/// Statically re-derives legality of a compiled instruction stream:
/// every operand plane defined before use (CP002) and written exactly once
/// (CP003 — with single assignment, plane lifetimes can never clobber live
/// values), slot ranges (CP001), the schedule's run partition and opcode
/// grouping (CP004), interface shape (CP008) and output definedness
/// (CP007); CP005 is retired.  Given the source netlist, the
/// fusion-semantics pass (CP006) additionally proves each instruction —
/// fused or not — computes exactly the composition of the source gates it
/// replaced: it enumerates all assignments of the operand planes' source
/// nodes and compares `kernels::opEval` against a memoized `gateEval` cone
/// walk, covering Xor3/HalfAdd/MuxNot*/And3/Or3 and, transitively, the
/// ternlog immediates derived from the same tables.
Diagnostics verifyProgram(const ProgramView& program,
                          const circuit::Netlist* source = nullptr,
                          const VerifyOptions& options = {});

Diagnostics verifyProgram(const circuit::CompiledNetlist& compiled,
                          const circuit::Netlist* source = nullptr,
                          const VerifyOptions& options = {});

/// True when the AXF_VERIFY environment hook is on (AXF_VERIFY set to
/// anything but "0"): CompiledNetlist::compile self-verifies its output
/// and the netlist transforms self-lint, throwing std::logic_error on
/// error-severity findings.  Read once per process; tests use
/// ScopedVerifyOverride instead of mutating the environment.
bool verifyEnabled();

/// RAII test hook forcing the AXF_VERIFY gate on or off in-process.
class ScopedVerifyOverride {
public:
    explicit ScopedVerifyOverride(bool enabled);
    ~ScopedVerifyOverride();
    ScopedVerifyOverride(const ScopedVerifyOverride&) = delete;
    ScopedVerifyOverride& operator=(const ScopedVerifyOverride&) = delete;

private:
    int previous_;
};

/// Throws std::logic_error carrying `what` + the diagnostics summary when
/// error-severity findings are present.
void throwIfErrors(const Diagnostics& diagnostics, const char* what);

}  // namespace axf::verify
