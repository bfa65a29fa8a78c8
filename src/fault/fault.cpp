#include "src/fault/fault.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "src/circuit/kernels.hpp"
#include "src/error/accumulator.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "src/verify/absint.hpp"

namespace axf::fault {

namespace {

using circuit::CompiledNetlist;
using circuit::GateKind;
using circuit::Netlist;
using circuit::NodeId;
using circuit::kernels::OpCode;
using circuit::kernels::opFanIn;
using error::detail::Accumulator;
using error::detail::Workspace;
using error::detail::fillExactExhaustive;
using error::detail::fillExactSampled;
using error::detail::mixSeed;
using Word = CompiledNetlist::Word;

using error::detail::kBlockLanes;
using error::detail::kBlockWords;

/// Partial-accumulator granularity of each mode, the canonical
/// accumulation structure of its reports: an exhaustive campaign merges
/// one fresh partial per 256-lane sub-block (see error::detail), a sampled
/// one merges one fresh partial per 64-lane sample batch; both in
/// ascending lane order.
using error::detail::kSubPartialLanes;
constexpr std::size_t kBatchLanes = 64;
constexpr std::size_t kMaxPartials = kBlockLanes / kBatchLanes;

/// Faults per work task.  Fixed (never derived from the thread count), and
/// each fault's block-ordered partials are independent of the partition
/// anyway, which keeps every report bit-identical at any parallelism.  32
/// faults amortize each task's stimulus and reference simulation per block
/// while still splitting the ~120 sites of a 16-bit adder over four
/// workers.  Measured on a 4-core AVX-512 VM: a 1024-sample 16-bit adder
/// campaign on the pool takes ≈0.26–0.28 ms at 32 against ≈0.33–0.34 ms
/// at 64, and the exhaustive 8x8 multiplier campaigns stay within the
/// run-to-run spread.
constexpr std::size_t kFaultsPerTask = 32;

/// Decodes a full output block and hands the typed lane array to `fn`.
template <typename Fn>
void withDecoded(const std::vector<Word>& out, std::size_t outputs, Workspace& w, Fn&& fn) {
    if (outputs <= 16) {
        error::detail::decodeOutputsU16(out.data(), outputs, w.approx16.data());
        fn(w.approx16.data());
    } else if (outputs <= 32) {
        error::detail::decodeOutputsU32(out.data(), outputs, w.approx32.data());
        fn(w.approx32.data());
    } else {
        error::detail::decodeOutputsU64(out.data(), outputs, w.approx64.data());
        fn(w.approx64.data());
    }
}

/// Campaign replay plan for one fault site: the fan-out cone as
/// a dense copy of the instructions to re-execute (grouped into same-op
/// runs so replay dispatches one kernel call per run instead of one per
/// instruction), the slots the replay overwrites, and the output planes
/// the fault can reach.
struct SitePlan {
    std::vector<circuit::kernels::Instr> replay;  ///< cone, original order
    struct Run {
        OpCode op;
        std::uint32_t begin;
        std::uint32_t count;
    };
    std::vector<Run> runs;
    std::vector<std::uint32_t> dirtySlots;  ///< fault slot first
    std::vector<std::uint32_t> outPlanes;   ///< output indices, ascending
};

SitePlan buildCone(const CompiledNetlist& compiled, const FaultSite& site,
                   std::vector<bool>& affected) {
    SitePlan plan;
    const std::span<const circuit::kernels::Instr> instrs = compiled.instructions();
    std::fill(affected.begin(), affected.end(), false);
    affected[site.slot] = true;
    plan.dirtySlots.push_back(site.slot);
    const std::uint32_t start = site.isInput ? 0 : site.afterInstr + 1;
    for (std::uint32_t i = start; i < instrs.size(); ++i) {
        const auto& ins = instrs[i];
        const int fan = opFanIn(ins.op);
        bool hit = affected[ins.a];
        if (!hit && fan >= 2) hit = affected[ins.b];
        if (!hit && fan >= 3) hit = affected[ins.c];
        if (!hit) continue;
        // The compiled stream is already grouped into same-opcode runs, so
        // a cone's dense copy inherits long runs almost for free.
        if (plan.runs.empty() || plan.runs.back().op != ins.op)
            plan.runs.push_back({ins.op, static_cast<std::uint32_t>(plan.replay.size()), 0});
        ++plan.runs.back().count;
        plan.replay.push_back(ins);
        if (!affected[ins.dst]) {
            affected[ins.dst] = true;
            plan.dirtySlots.push_back(ins.dst);
        }
        // HalfAdd writes its carry into the c field (second destination).
        if (ins.op == OpCode::HalfAdd && !affected[ins.c]) {
            affected[ins.c] = true;
            plan.dirtySlots.push_back(ins.c);
        }
    }
    const std::span<const std::uint32_t> outs = compiled.outputSlots();
    for (std::uint32_t o = 0; o < outs.size(); ++o)
        if (affected[outs[o]]) plan.outPlanes.push_back(o);
    return plan;
}

/// Draws the sampled-campaign block that starts at vector `base`: word w
/// carries sample batch b = base / 64 + w, one word per input bit drawn
/// from batch b's own stream `mixSeed(seed + b)`.  Words past the last
/// batch are zeroed; every consumer masks them out.
void drawSampledBlock(std::vector<Word>& in, int totalBits, std::uint64_t seed,
                      std::uint64_t base, std::size_t lanes) {
    const std::size_t batches = (lanes + kBatchLanes - 1) / kBatchLanes;
    for (std::size_t wd = 0; wd < kBlockWords; ++wd) {
        if (wd >= batches) {
            for (int bit = 0; bit < totalBits; ++bit)
                in[static_cast<std::size_t>(bit) * kBlockWords + wd] = 0;
            continue;
        }
        util::Rng rng(mixSeed(seed + base / kBatchLanes + wd));
        for (int bit = 0; bit < totalBits; ++bit)
            in[static_cast<std::size_t>(bit) * kBlockWords + wd] =
                rng.uniformInt(0, ~std::uint64_t{0});
    }
}

/// Campaign task: builds the fan-out cone of each of its sites, then
/// sweeps the evaluated vectors once — the whole input space, or the
/// `sampleCount` drawn samples — simulating the fault-free circuit per
/// block and replaying each fault's cone against it.  Every
/// block feeds the accumulators as fresh partials (256 lanes exhaustive,
/// one 64-lane batch sampled) merged in ascending order.  Blocks where a
/// fault never reaches an output reuse the nominal partials outright
/// (bit-identical: equal outputs decode to equal values); the same
/// argument makes fresh faulted partials safe for sub-ranges the fault did
/// not deviate in.  Lanes past the last vector are masked out of every
/// trigger and deviation test.
///
/// Per-fault work is trimmed three ways, none of which changes a single
/// result bit: the reference workspace is snapshotted once per block so
/// each fault restores only the planes the previous fault dirtied (no
/// save pass); a fault whose stuck value never differs from the node's
/// reference plane in this block is skipped outright (it cannot deviate);
/// and the cone replays through one kernel dispatch per same-opcode run
/// instead of one per instruction.
void runCampaignTask(const CompiledNetlist& compiled, const circuit::ArithSignature& sig,
                     const error::ErrorAnalysisConfig& cfg, bool exhaustive,
                     std::span<const FaultSite> sites, std::span<Accumulator> accs,
                     std::span<std::uint64_t> deviated, Accumulator* nominalOut) {
    std::vector<SitePlan> plans;
    plans.reserve(sites.size());
    std::vector<bool> affected(compiled.slotCount());
    for (const FaultSite& site : sites) plans.push_back(buildCone(compiled, site, affected));

    circuit::BatchSimulator sim(compiled);
    Word* const ws = sim.workspace().data();
    Workspace w;
    const int totalBits = sig.inputWidth();
    const std::size_t outputs = compiled.outputCount();
    constexpr std::size_t words = kBlockWords;
    w.in.resize(static_cast<std::size_t>(totalBits) * words);
    w.out.resize(outputs * words);
    std::vector<Word> refOut(outputs * words);
    std::vector<Word> refWs(compiled.workspaceWords());
    const std::span<const std::uint32_t> outSlots = compiled.outputSlots();
    const auto& kernels = compiled.backend().run;

    const std::uint64_t vectors = exhaustive ? std::uint64_t{1} << totalBits : cfg.sampleCount;
    const std::size_t partialLanes = exhaustive ? kSubPartialLanes : kBatchLanes;
    for (std::uint64_t base = 0; base < vectors; base += kBlockLanes) {
        const std::size_t lanes =
            static_cast<std::size_t>(std::min<std::uint64_t>(kBlockLanes, vectors - base));
        const std::size_t partials = (lanes + partialLanes - 1) / partialLanes;
        const auto partialSize = [&](std::size_t p) {
            return std::min(partialLanes, lanes - p * partialLanes);
        };
        if (exhaustive) {
            circuit::fillExhaustiveBlock(w.in, totalBits, base);
            fillExactExhaustive(w, sig, base, lanes);
        } else {
            drawSampledBlock(w.in, totalBits, cfg.seed, base, lanes);
            fillExactSampled(w, sig, lanes);
        }
        sim.evaluate(w.in, refOut);
        std::memcpy(refWs.data(), ws, refWs.size() * sizeof(Word));
        std::array<Accumulator, kMaxPartials> nominalPart;
        withDecoded(refOut, outputs, w, [&](const auto* approx) {
            for (std::size_t p = 0; p < partials; ++p)
                nominalPart[p].addBlock(approx + p * partialLanes,
                                        w.exact.data() + p * partialLanes, partialSize(p));
        });
        if (nominalOut != nullptr)
            for (std::size_t p = 0; p < partials; ++p) nominalOut->merge(nominalPart[p]);

        // Valid-lane mask for tail blocks (spaces below a full block,
        // sample counts that do not fill the last block).
        std::array<Word, kBlockWords> valid{};
        for (std::size_t wd = 0; wd < words; ++wd) {
            const std::size_t lo = wd * 64;
            valid[wd] = lanes >= lo + 64 ? ~Word{0}
                        : lanes > lo     ? (Word{1} << (lanes - lo)) - 1
                                         : 0;
        }

        const SitePlan* prev = nullptr;  // last plan that dirtied ws
        for (std::size_t f = 0; f < sites.size(); ++f) {
            const SitePlan& plan = plans[f];
            // Trigger pre-check against the clean snapshot: a stuck-at
            // that matches the node's value on every valid lane is a
            // no-op in this block.
            const Word* np = refWs.data() + static_cast<std::size_t>(sites[f].slot) * words;
            Word trigger = 0;
            for (std::size_t wd = 0; wd < words; ++wd)
                trigger |= (sites[f].stuckTo ? ~np[wd] : np[wd]) & valid[wd];
            if (trigger == 0) {
                for (std::size_t p = 0; p < partials; ++p) accs[f].merge(nominalPart[p]);
                continue;
            }

            if (prev != nullptr)
                for (const std::uint32_t s : prev->dirtySlots)
                    std::memcpy(ws + static_cast<std::size_t>(s) * words,
                                refWs.data() + static_cast<std::size_t>(s) * words,
                                words * sizeof(Word));
            prev = &plan;
            Word* fp = ws + static_cast<std::size_t>(sites[f].slot) * words;
            for (std::size_t wd = 0; wd < words; ++wd)
                fp[wd] = sites[f].stuckTo ? ~Word{0} : Word{0};
            for (const SitePlan::Run& run : plan.runs)
                kernels[static_cast<std::size_t>(run.op)](plan.replay.data() + run.begin,
                                                          run.count, ws);

            std::uint64_t devCount = 0;
            {
                std::array<Word, kBlockWords> dev{};
                for (const std::uint32_t o : plan.outPlanes) {
                    const Word* a = ws + static_cast<std::size_t>(outSlots[o]) * words;
                    const Word* b = refOut.data() + static_cast<std::size_t>(o) * words;
                    for (std::size_t wd = 0; wd < words; ++wd) dev[wd] |= a[wd] ^ b[wd];
                }
                for (std::size_t wd = 0; wd < words; ++wd)
                    devCount += static_cast<std::uint64_t>(
                        __builtin_popcountll(dev[wd] & valid[wd]));
            }
            if (devCount == 0) {
                for (std::size_t p = 0; p < partials; ++p) accs[f].merge(nominalPart[p]);
            } else {
                std::memcpy(w.out.data(), refOut.data(), refOut.size() * sizeof(Word));
                for (const std::uint32_t o : plan.outPlanes)
                    std::memcpy(w.out.data() + static_cast<std::size_t>(o) * words,
                                ws + static_cast<std::size_t>(outSlots[o]) * words,
                                words * sizeof(Word));
                withDecoded(w.out, outputs, w, [&](const auto* approx) {
                    for (std::size_t p = 0; p < partials; ++p) {
                        Accumulator partial;
                        partial.addBlock(approx + p * partialLanes,
                                         w.exact.data() + p * partialLanes, partialSize(p));
                        accs[f].merge(partial);
                    }
                });
                deviated[f] += devCount;
            }
        }
    }
}

void checkInterface(const Netlist& netlist, const circuit::ArithSignature& sig) {
    if (sig.widthA > 32 || sig.widthB > 32)
        throw std::invalid_argument("analyzeResilience: operands wider than 32 bits");
    if (static_cast<int>(netlist.inputCount()) != sig.inputWidth())
        throw std::invalid_argument("analyzeResilience: netlist input width != signature");
    if (static_cast<int>(netlist.outputCount()) != sig.outputWidth())
        throw std::invalid_argument("analyzeResilience: netlist output width != signature");
}

}  // namespace

SiteEnumeration enumerateFaultSites(const CompiledNetlist& compiled, bool includeInputFaults,
                                    bool collapseEquivalent) {
    const std::span<const circuit::kernels::Instr> instrs = compiled.instructions();
    const std::span<const NodeId> slotNodes = compiled.slotNodes();
    const std::size_t slots = compiled.slotCount();

    // Instruction-produced planes; input and output roles.
    std::vector<bool> hasProducer(slots, false);
    for (const auto& ins : instrs) {
        hasProducer[ins.dst] = true;
        if (ins.op == OpCode::HalfAdd) hasProducer[ins.c] = true;
    }
    std::vector<bool> isInput(slots, false);
    for (const std::uint32_t s : compiled.inputSlots()) isInput[s] = true;
    std::vector<bool> isOutput(slots, false);
    for (const std::uint32_t s : compiled.outputSlots()) isOutput[s] = true;

    // Equivalence collapsing: a stuck-at on a gate-produced value whose
    // only consumer is a Buf copy is indistinguishable from the same
    // stuck-at on the copy — fold the source onto the copy's plane.
    std::vector<std::uint32_t> foldInto(slots);
    for (std::uint32_t s = 0; s < slots; ++s) foldInto[s] = s;
    if (collapseEquivalent) {
        std::vector<std::uint32_t> consumers(slots, 0);
        for (const auto& ins : instrs) {
            const int fan = opFanIn(ins.op);
            ++consumers[ins.a];
            if (fan >= 2) ++consumers[ins.b];
            if (fan >= 3) ++consumers[ins.c];
        }
        for (const auto& ins : instrs) {
            if (ins.op != OpCode::Buf) continue;
            const std::uint32_t src = ins.a;
            if (hasProducer[src] && !isOutput[src] && consumers[src] == 1)
                foldInto[src] = ins.dst;
        }
    }
    const auto repOf = [&](std::uint32_t s) {
        while (foldInto[s] != s) s = foldInto[s];
        return s;
    };
    std::vector<std::uint32_t> collapsedCount(slots, 1);
    for (std::uint32_t s = 0; s < slots; ++s)
        if (foldInto[s] != s) ++collapsedCount[repOf(s)];

    SiteEnumeration en;
    const auto push = [&](std::uint32_t slot, std::uint32_t afterInstr, bool input) {
        for (const bool v : {false, true}) {
            FaultSite site;
            site.node = slotNodes[slot];
            site.slot = slot;
            site.afterInstr = afterInstr;
            site.stuckTo = v;
            site.isInput = input;
            site.collapsed = collapsedCount[slot];
            en.sites.push_back(site);
            en.totalSites += site.collapsed;
        }
    };
    if (includeInputFaults)
        for (const std::uint32_t s : compiled.inputSlots())
            push(s, kFaultAtInputs, true);
    for (std::uint32_t i = 0; i < instrs.size(); ++i) {
        const auto& ins = instrs[i];
        if (foldInto[ins.dst] == ins.dst) push(ins.dst, i, false);
        if (ins.op == OpCode::HalfAdd && foldInto[ins.c] == ins.c) push(ins.c, i, false);
    }
    return en;
}

Netlist stuckAtNetlist(const Netlist& netlist, NodeId target, bool value) {
    if (target >= netlist.nodeCount())
        throw std::invalid_argument("stuckAtNetlist: node id out of range");
    Netlist out(netlist.name());
    const std::span<const circuit::Node> nodes = netlist.nodes();
    std::vector<NodeId> map(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const circuit::Node& n = nodes[i];
        if (i == target && n.kind != GateKind::Input) {
            map[i] = out.addConst(value);
            continue;
        }
        NodeId id;
        switch (n.kind) {
            case GateKind::Input: id = out.addInput(); break;
            case GateKind::Const0: id = out.addConst(false); break;
            case GateKind::Const1: id = out.addConst(true); break;
            default: {
                const int fan = fanInCount(n.kind);
                id = out.addGate(n.kind, map[n.a], fan >= 2 ? map[n.b] : circuit::kInvalidNode,
                                 fan >= 3 ? map[n.c] : circuit::kInvalidNode);
                break;
            }
        }
        // A stuck Input keeps its interface position but every consumer
        // (and any output tap) reads the inserted constant instead.
        map[i] = i == target ? out.addConst(value) : id;
    }
    for (const NodeId o : netlist.outputs()) out.markOutput(map[o]);
    return out;
}

ResilienceReport analyzeResilience(const Netlist& netlist, const circuit::ArithSignature& sig,
                                   const CampaignConfig& config) {
    obs::Span span("fault_campaign", netlist.name());
    static obs::Histogram& campaignSeconds =
        obs::Registry::global().histogram("fault.campaign_seconds");
    obs::ScopedTimer timer(campaignSeconds);
    checkInterface(netlist, sig);
    const bool exhaustive = config.analysis.isExhaustiveFor(sig);
    if (!exhaustive && config.analysis.sampleCount == 0)
        throw std::invalid_argument("analyzeResilience: sampled campaign without samples");
    const CompiledNetlist compiled = CompiledNetlist::compile(netlist);
    const SiteEnumeration en =
        enumerateFaultSites(compiled, config.includeInputFaults, config.collapseEquivalent);
    const std::size_t faultCount = en.sites.size();

    // Statically proven cannot-deviate sites (ternary abstract
    // interpretation, src/verify) never enter the campaign: their error
    // profile IS the nominal profile.  The per-fault accumulators of the
    // remaining sites are independent of the task partition, so compacting
    // the active list keeps every report bit-identical.
    std::vector<std::uint8_t> skip(faultCount, 0);
    if (config.staticSkip && faultCount != 0) {
        std::vector<verify::StuckSite> stuck(faultCount);
        for (std::size_t f = 0; f < faultCount; ++f)
            stuck[f] = {en.sites[f].slot, en.sites[f].afterInstr, en.sites[f].stuckTo};
        const std::vector<bool> proven = verify::cannotDeviate(compiled, stuck);
        for (std::size_t f = 0; f < faultCount; ++f) skip[f] = proven[f] ? 1 : 0;
    }
    std::vector<FaultSite> activeSites;
    std::vector<std::size_t> activeOf(faultCount, 0);
    activeSites.reserve(faultCount);
    for (std::size_t f = 0; f < faultCount; ++f) {
        if (skip[f] != 0) continue;
        activeOf[f] = activeSites.size();
        activeSites.push_back(en.sites[f]);
    }
    const std::size_t activeCount = activeSites.size();
    // Total sites seen vs. statically proven cannot-deviate: the ratio is
    // the static-skip win the verify layer buys per campaign.
    static obs::Counter& sitesTotal = obs::Registry::global().counter("fault.sites_total");
    static obs::Counter& sitesSkipped =
        obs::Registry::global().counter("fault.sites_static_skipped");
    sitesTotal.add(faultCount);
    sitesSkipped.add(faultCount - activeCount);

    std::vector<Accumulator> accs(activeCount);
    std::vector<std::uint64_t> deviated(activeCount, 0);
    Accumulator nominalAcc;

    const std::size_t taskCount = (activeCount + kFaultsPerTask - 1) / kFaultsPerTask;
    const auto runTask = [&](std::size_t t) {
        const std::size_t begin = t * kFaultsPerTask;
        const std::size_t n = std::min(activeCount, begin + kFaultsPerTask) - begin;
        runCampaignTask(compiled, sig, config.analysis, exhaustive,
                        {activeSites.data() + begin, n}, {accs.data() + begin, n},
                        {deviated.data() + begin, n}, t == 0 ? &nominalAcc : nullptr);
    };
    if (config.analysis.threads == 1 || taskCount <= 1) {
        for (std::size_t t = 0; t < taskCount; ++t) {
            if (config.analysis.cancel != nullptr && config.analysis.cancel->stopRequested())
                throw util::OperationCancelled("analyzeResilience cancelled");
            runTask(t);
        }
    } else {
        util::ThreadPool::global().parallelFor(
            taskCount, runTask,
            config.analysis.threads > 0 ? static_cast<std::size_t>(config.analysis.threads) : 0,
            config.analysis.cancel);
    }
    if (taskCount == 0)  // no active fault sites: still produce the nominal profile
        runCampaignTask(compiled, sig, config.analysis, exhaustive, {}, {}, {}, &nominalAcc);

    ResilienceReport report;
    report.nominal = nominalAcc.report(sig.maxOutput(), exhaustive);
    report.totalSites = en.totalSites;
    report.exhaustive = exhaustive;
    report.vectorsPerFault = exhaustive ? std::uint64_t{1} << sig.inputWidth()
                                        : config.analysis.sampleCount;
    report.faults.reserve(faultCount);
    double weightSum = 0.0, medSum = 0.0, detectedWeight = 0.0;
    for (std::size_t f = 0; f < faultCount; ++f) {
        FaultImpact impact;
        impact.site = en.sites[f];
        if (skip[f] != 0) {
            // Proven cannot-deviate: the faulted circuit IS the nominal
            // circuit on every vector.
            impact.error = report.nominal;
            impact.deviatedVectors = 0;
            impact.deviationProbability = 0.0;
        } else {
            const std::size_t a = activeOf[f];
            impact.error = accs[a].report(sig.maxOutput(), exhaustive);
            impact.deviatedVectors = deviated[a];
            impact.deviationProbability =
                impact.error.vectorsEvaluated == 0
                    ? 0.0
                    : static_cast<double>(deviated[a]) /
                          static_cast<double>(impact.error.vectorsEvaluated);
        }
        const double weight = static_cast<double>(impact.site.collapsed);
        weightSum += weight;
        medSum += weight * impact.error.med;
        if (impact.detected()) detectedWeight += weight;
        if (impact.error.med > report.worstMedUnderFault) {
            report.worstMedUnderFault = impact.error.med;
            report.worstFault = static_cast<std::uint32_t>(f);
        }
        report.faults.push_back(std::move(impact));
    }
    report.meanMedUnderFault = weightSum > 0.0 ? medSum / weightSum : 0.0;
    report.faultCoverage = weightSum > 0.0 ? detectedWeight / weightSum : 0.0;

    const double threshold =
        config.criticalFactor * std::max(report.nominal.med, config.criticalFloor);
    std::vector<std::uint32_t> critical;
    for (std::uint32_t f = 0; f < report.faults.size(); ++f)
        if (report.faults[f].error.med >= threshold) critical.push_back(f);
    std::sort(critical.begin(), critical.end(), [&](std::uint32_t a, std::uint32_t b) {
        const double ma = report.faults[a].error.med, mb = report.faults[b].error.med;
        return ma != mb ? ma > mb : a < b;
    });
    if (critical.size() > config.maxCritical) critical.resize(config.maxCritical);
    report.criticalFaults = std::move(critical);
    return report;
}

void FaultSite::serialize(util::ByteWriter& out) const {
    out.u32(node);
    out.u32(slot);
    out.u32(afterInstr);
    out.boolean(stuckTo);
    out.boolean(isInput);
    out.u32(collapsed);
}

bool FaultSite::deserialize(util::ByteReader& in, FaultSite& out) {
    in.u32(out.node);
    in.u32(out.slot);
    in.u32(out.afterInstr);
    in.boolean(out.stuckTo);
    in.boolean(out.isInput);
    in.u32(out.collapsed);
    return in.ok();
}

void FaultImpact::serialize(util::ByteWriter& out) const {
    site.serialize(out);
    error.serialize(out);
    out.u64(deviatedVectors);
    out.f64(deviationProbability);
}

bool FaultImpact::deserialize(util::ByteReader& in, FaultImpact& out) {
    FaultSite::deserialize(in, out.site);
    error::ErrorReport::deserialize(in, out.error);
    in.u64(out.deviatedVectors);
    in.f64(out.deviationProbability);
    return in.ok();
}

void ResilienceReport::serialize(util::ByteWriter& out) const {
    nominal.serialize(out);
    out.u32(static_cast<std::uint32_t>(faults.size()));
    for (const FaultImpact& f : faults) f.serialize(out);
    out.u32(totalSites);
    out.u64(vectorsPerFault);
    out.boolean(exhaustive);
    out.f64(meanMedUnderFault);
    out.f64(worstMedUnderFault);
    out.u32(worstFault);
    out.f64(faultCoverage);
    out.u32(static_cast<std::uint32_t>(criticalFaults.size()));
    for (const std::uint32_t f : criticalFaults) out.u32(f);
}

bool ResilienceReport::deserialize(util::ByteReader& in, ResilienceReport& out) {
    if (!error::ErrorReport::deserialize(in, out.nominal)) return false;
    std::uint32_t count = 0;
    if (!in.u32(count) || count > in.remaining()) return false;  // >= 1 byte per impact
    out.faults.clear();
    out.faults.reserve(count);
    for (std::uint32_t f = 0; f < count; ++f) {
        FaultImpact impact;
        if (!FaultImpact::deserialize(in, impact)) return false;
        out.faults.push_back(std::move(impact));
    }
    in.u32(out.totalSites);
    in.u64(out.vectorsPerFault);
    in.boolean(out.exhaustive);
    in.f64(out.meanMedUnderFault);
    in.f64(out.worstMedUnderFault);
    in.u32(out.worstFault);
    in.f64(out.faultCoverage);
    std::uint32_t criticalCount = 0;
    if (!in.u32(criticalCount) || criticalCount > in.remaining() / 4) return false;
    out.criticalFaults.assign(criticalCount, 0);
    for (std::uint32_t f = 0; f < criticalCount; ++f) in.u32(out.criticalFaults[f]);
    return in.ok();
}

std::string ResilienceReport::summary() const {
    std::ostringstream os;
    os << "faults=" << faults.size() << "/" << totalSites
       << " coverage=" << faultCoverage * 100.0 << "%"
       << " meanMED=" << meanMedUnderFault * 100.0 << "%"
       << " worstMED=" << worstMedUnderFault * 100.0 << "%"
       << " critical=" << criticalFaults.size()
       << (exhaustive ? " (exhaustive)" : " (sampled)");
    return os.str();
}

}  // namespace axf::fault
