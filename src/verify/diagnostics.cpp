#include "src/verify/diagnostics.hpp"

#include <sstream>

namespace axf::verify {

const char* severityName(Severity severity) {
    switch (severity) {
        case Severity::Info: return "info";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "?";
}

const char* ruleId(Rule rule) {
    switch (rule) {
        case Rule::NetOperandRange: return "NL001";
        case Rule::NetArity: return "NL002";
        case Rule::NetInputList: return "NL003";
        case Rule::NetOutputRange: return "NL004";
        case Rule::NetNoOutputs: return "NL005";
        case Rule::NetUnreachable: return "NL006";
        case Rule::NetDuplicateStructure: return "NL007";
        case Rule::NetConstFoldable: return "NL008";
        case Rule::NetDanglingInput: return "NL009";
        case Rule::ProgSlotRange: return "CP001";
        case Rule::ProgUseBeforeDef: return "CP002";
        case Rule::ProgRedefinition: return "CP003";
        case Rule::ProgRunShape: return "CP004";
        case Rule::ProgFusionSemantics: return "CP006";
        case Rule::ProgOutputUndefined: return "CP007";
        case Rule::ProgInterface: return "CP008";
    }
    return "??";
}

const char* ruleName(Rule rule) {
    switch (rule) {
        case Rule::NetOperandRange: return "net-operand-range";
        case Rule::NetArity: return "net-arity";
        case Rule::NetInputList: return "net-input-list";
        case Rule::NetOutputRange: return "net-output-range";
        case Rule::NetNoOutputs: return "net-no-outputs";
        case Rule::NetUnreachable: return "net-unreachable";
        case Rule::NetDuplicateStructure: return "net-duplicate-structure";
        case Rule::NetConstFoldable: return "net-const-foldable";
        case Rule::NetDanglingInput: return "net-dangling-input";
        case Rule::ProgSlotRange: return "prog-slot-range";
        case Rule::ProgUseBeforeDef: return "prog-use-before-def";
        case Rule::ProgRedefinition: return "prog-redefinition";
        case Rule::ProgRunShape: return "prog-run-shape";
        case Rule::ProgFusionSemantics: return "prog-fusion-semantics";
        case Rule::ProgOutputUndefined: return "prog-output-undefined";
        case Rule::ProgInterface: return "prog-interface";
    }
    return "?";
}

Severity defaultSeverity(Rule rule) {
    switch (rule) {
        case Rule::NetNoOutputs:
        case Rule::NetUnreachable:
        case Rule::NetDuplicateStructure:
        case Rule::NetConstFoldable: return Severity::Warning;
        case Rule::NetDanglingInput: return Severity::Info;
        default: return Severity::Error;
    }
}

void Diagnostics::add(Severity severity, Rule rule, std::uint32_t where, std::string message) {
    if (severity == Severity::Error) ++errors_;
    if (severity == Severity::Warning) ++warnings_;
    if (diags_.size() >= limit_) {
        truncated_ = true;
        return;
    }
    diags_.push_back({severity, rule, where, std::move(message)});
}

std::size_t Diagnostics::count(Rule rule) const {
    std::size_t n = 0;
    for (const Diagnostic& d : diags_)
        if (d.rule == rule) ++n;
    return n;
}

std::string Diagnostics::summary() const {
    std::ostringstream os;
    os << errors_ << " error(s), " << warnings_ << " warning(s)";
    if (truncated_) os << " [truncated]";
    std::size_t shown = 0;
    for (const Diagnostic& d : diags_) {
        if (shown == 4) {
            os << "; ...";
            break;
        }
        os << "; " << ruleId(d.rule) << " " << severityName(d.severity);
        if (d.where != kNoLocation) os << " @" << d.where;
        os << ": " << d.message;
        ++shown;
    }
    return os.str();
}

}  // namespace axf::verify
