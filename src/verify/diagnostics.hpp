#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace axf::verify {

/// Severity of a finding.  `Error` findings mean the IR is illegal to
/// evaluate (undefined behavior or wrong results if run); `Warning` marks
/// legal-but-suspect structure (dead logic, duplicated cones); `Info` is
/// purely observational.
enum class Severity : std::uint8_t { Info, Warning, Error };

const char* severityName(Severity severity);

/// Every check the static verifier performs, one stable id per rule.
/// NL rules apply to the gate-level `Netlist` IR, CP rules to the compiled
/// `CompiledNetlist` instruction stream.  Tests assert on rule ids, so the
/// mapping rule -> condition is part of the API contract.
enum class Rule : std::uint8_t {
    // --- netlist linter ---------------------------------------------------
    NetOperandRange,       ///< NL001 fan-in references node >= own id (cycle) or out of range
    NetArity,              ///< NL002 operand count does not match the GateKind
    NetInputList,          ///< NL003 inputs() disagrees with the Input nodes
    NetOutputRange,        ///< NL004 output references a nonexistent node
    NetNoOutputs,          ///< NL005 netlist drives no outputs
    NetUnreachable,        ///< NL006 gate outside every output cone
    NetDuplicateStructure, ///< NL007 structurally identical cone computed twice
    NetConstFoldable,      ///< NL008 gate provably constant for all inputs
    NetDanglingInput,      ///< NL009 primary input no output depends on
    // --- compiled-program verifier ---------------------------------------
    ProgSlotRange,         ///< CP001 operand/destination slot out of range
    ProgUseBeforeDef,      ///< CP002 operand plane read before any write
    ProgRedefinition,      ///< CP003 write clobbers an already-defined plane
    ProgRunShape,          ///< CP004 runs do not partition the stream / opcode mismatch
    // CP005 (chained-run claim) is retired with the chained kernels; the
    // other ids keep their numbers.
    ProgFusionSemantics,   ///< CP006 instruction function != source-gate composition
    ProgOutputUndefined,   ///< CP007 output plane never written
    ProgInterface,         ///< CP008 input/output/constant interface malformed
};

/// Stable short id, e.g. "NL001" / "CP006".
const char* ruleId(Rule rule);
/// Kebab-case rule name, e.g. "net-operand-range".
const char* ruleName(Rule rule);
/// Severity the rule carries unless the reporter overrides it.
Severity defaultSeverity(Rule rule);

/// Location sentinel for findings not tied to one node/instruction.
inline constexpr std::uint32_t kNoLocation = 0xFFFFFFFFu;

/// One finding: which rule fired, where (node id for NL rules, instruction
/// index — or slot/output index where the message says so — for CP rules)
/// and a human-readable explanation.
struct Diagnostic {
    Severity severity = Severity::Error;
    Rule rule = Rule::NetOperandRange;
    std::uint32_t where = kNoLocation;
    std::string message;
};

/// Ordered findings of one verifier invocation.  Reporting is capped (see
/// `setLimit`) so a corrupt megabyte blob cannot generate a megabyte of
/// diagnostics; the error/warning *counts* keep counting past the cap.
class Diagnostics {
public:
    void setLimit(std::size_t maxDiagnostics) { limit_ = maxDiagnostics; }

    void add(Rule rule, std::uint32_t where, std::string message) {
        add(defaultSeverity(rule), rule, where, std::move(message));
    }
    void add(Severity severity, Rule rule, std::uint32_t where, std::string message);

    std::span<const Diagnostic> all() const { return diags_; }
    std::size_t errorCount() const { return errors_; }
    std::size_t warningCount() const { return warnings_; }
    bool hasErrors() const { return errors_ != 0; }
    /// True when findings were dropped by the reporting cap.
    bool truncated() const { return truncated_; }

    /// Count of reported findings for one rule (capped reporting applies).
    std::size_t count(Rule rule) const;
    bool has(Rule rule) const { return count(rule) != 0; }

    /// One-line tally plus the first few findings; the message attached to
    /// the std::logic_error the AXF_VERIFY hook throws.
    std::string summary() const;

private:
    std::vector<Diagnostic> diags_;
    std::size_t limit_ = 64;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
    bool truncated_ = false;
};

}  // namespace axf::verify
