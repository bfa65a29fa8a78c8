#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/circuit/transform.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/multipliers.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::error {
namespace {

using circuit::ArithSignature;
using circuit::GateKind;
using circuit::Netlist;
using gen::adderSignature;
using gen::multiplierSignature;

/// 2-bit "adder" that always outputs zero — every metric is hand-checkable.
Netlist zeroAdder2() {
    Netlist net("zero2");
    for (int i = 0; i < 4; ++i) net.addInput();
    const circuit::NodeId z = net.addConst(false);
    for (int i = 0; i < 3; ++i) net.markOutput(z);
    return net;
}

TEST(ErrorMetrics, ExactCircuitReportsZero) {
    const ErrorReport r = analyzeError(gen::rippleCarryAdder(4), adderSignature(4));
    EXPECT_TRUE(r.isExact());
    EXPECT_DOUBLE_EQ(r.med, 0.0);
    EXPECT_DOUBLE_EQ(r.worstCaseError, 0.0);
    EXPECT_DOUBLE_EQ(r.errorProbability, 0.0);
    EXPECT_TRUE(r.exhaustive);
    EXPECT_EQ(r.vectorsEvaluated, 256u);
}

TEST(ErrorMetrics, ZeroAdderHandComputed) {
    // Over all 16 operand pairs of a 2-bit adder, sum of (a+b) = 48;
    // mean |err| = 3; max output 6; WCE = 6; only (0,0) is error-free.
    const ErrorReport r = analyzeError(zeroAdder2(), adderSignature(2));
    EXPECT_DOUBLE_EQ(r.meanAbsoluteError, 3.0);
    EXPECT_DOUBLE_EQ(r.med, 0.5);
    EXPECT_DOUBLE_EQ(r.worstCaseError, 6.0);
    EXPECT_DOUBLE_EQ(r.errorProbability, 15.0 / 16.0);
    // Sum of (a+b)^2 over all pairs: value v occurs (4-|v-3|)... times:
    // 0:1, 1:2, 2:3, 3:4, 4:3, 5:2, 6:1 -> sum v^2*count = 184.
    EXPECT_DOUBLE_EQ(r.meanSquaredError, 184.0 / 16.0);
}

TEST(ErrorMetrics, MedNormalizationUsesMaxOutput) {
    const ArithSignature addSig = adderSignature(8);
    EXPECT_EQ(addSig.maxOutput(), 510u);
    const ArithSignature mulSig = multiplierSignature(8);
    EXPECT_EQ(mulSig.maxOutput(), 255u * 255u);
    const ErrorReport r = analyzeError(gen::truncatedMultiplier(8, 3), mulSig);
    EXPECT_NEAR(r.med, r.meanAbsoluteError / 65025.0, 1e-12);
}

TEST(ErrorMetrics, InterfaceMismatchThrows) {
    const Netlist net = gen::rippleCarryAdder(4);
    EXPECT_THROW(analyzeError(net, adderSignature(5)), std::invalid_argument);
    EXPECT_THROW(analyzeError(net, multiplierSignature(4)), std::invalid_argument);

    // Operands decode into 32-bit lanes: a 33-bit interface is rejected
    // even when the netlist's arity matches it.
    Netlist wide("wide33");
    for (int i = 0; i < 66; ++i) wide.addInput();
    const circuit::NodeId z = wide.addConst(false);
    for (int i = 0; i < 34; ++i) wide.markOutput(z);
    EXPECT_THROW(analyzeError(wide, adderSignature(33)), std::invalid_argument);
}

TEST(ErrorMetrics, SampledPathAgreesWithExhaustive) {
    // Force the sampled path on an 8-bit operator and compare to the
    // exhaustive ground truth: MED must agree within sampling noise.
    const Netlist net = gen::loaAdder(8, 4);
    const ErrorReport exact = analyzeError(net, adderSignature(8));
    ASSERT_TRUE(exact.exhaustive);
    ErrorAnalysisConfig sampled;
    sampled.exhaustiveLimit = 1;  // never exhaustive
    sampled.sampleCount = 1u << 15;
    const ErrorReport approx = analyzeError(net, adderSignature(8), sampled);
    EXPECT_FALSE(approx.exhaustive);
    EXPECT_EQ(approx.vectorsEvaluated, sampled.sampleCount);
    EXPECT_NEAR(approx.med, exact.med, 0.15 * exact.med + 1e-6);
    EXPECT_NEAR(approx.errorProbability, exact.errorProbability, 0.05);
}

TEST(ErrorMetrics, SampledDeterministicPerSeed) {
    const Netlist net = gen::etaAdder(8, 4);
    ErrorAnalysisConfig cfg;
    cfg.exhaustiveLimit = 1;
    const ErrorReport a = analyzeError(net, adderSignature(8), cfg);
    const ErrorReport b = analyzeError(net, adderSignature(8), cfg);
    EXPECT_DOUBLE_EQ(a.med, b.med);
    cfg.seed ^= 0xFFFF;
    const ErrorReport c = analyzeError(net, adderSignature(8), cfg);
    EXPECT_NE(a.med, c.med);  // different sample, different estimate
}

TEST(ErrorMetrics, SampledReportsAreNeverProvablyExact) {
    // A sampled report with zero observed mismatches must not claim
    // exactness: a mismatch may hide in the unsampled vectors.  This used
    // to mislabel approximate circuits as exact during library dedup.
    const Netlist net = gen::rippleCarryAdder(8);
    ErrorAnalysisConfig sampled;
    sampled.exhaustiveLimit = 1;  // force the sampled path
    sampled.sampleCount = 1u << 10;
    const ErrorReport r = analyzeError(net, adderSignature(8), sampled);
    ASSERT_FALSE(r.exhaustive);
    ASSERT_DOUBLE_EQ(r.errorProbability, 0.0);  // truly exact circuit
    EXPECT_FALSE(r.isExact());
    EXPECT_TRUE(r.observedExact());

    const ErrorReport exhaustive = analyzeError(net, adderSignature(8));
    ASSERT_TRUE(exhaustive.exhaustive);
    EXPECT_TRUE(exhaustive.isExact());
    EXPECT_TRUE(exhaustive.observedExact());
}

TEST(ErrorMetrics, ReportSerializationRoundTripsBitExact) {
    const ErrorReport r = analyzeError(gen::truncatedMultiplier(8, 3), multiplierSignature(8));
    util::ByteWriter out;
    r.serialize(out);
    util::ByteReader in(out.bytes());
    ErrorReport back;
    ASSERT_TRUE(ErrorReport::deserialize(in, back));
    EXPECT_EQ(r.med, back.med);
    EXPECT_EQ(r.meanAbsoluteError, back.meanAbsoluteError);
    EXPECT_EQ(r.worstCaseError, back.worstCaseError);
    EXPECT_EQ(r.meanRelativeError, back.meanRelativeError);
    EXPECT_EQ(r.errorProbability, back.errorProbability);
    EXPECT_EQ(r.meanSquaredError, back.meanSquaredError);
    EXPECT_EQ(r.vectorsEvaluated, back.vectorsEvaluated);
    EXPECT_EQ(r.exhaustive, back.exhaustive);

    // Truncated input is rejected, not misread.
    util::ByteReader truncated(
        std::span<const std::uint8_t>(out.bytes().data(), out.bytes().size() - 1));
    ErrorReport bad;
    EXPECT_FALSE(ErrorReport::deserialize(truncated, bad));
}

/// Every field of `r` as its exact bit pattern, for golden comparisons.
std::vector<std::uint64_t> reportBits(const ErrorReport& r) {
    return {std::bit_cast<std::uint64_t>(r.med),
            std::bit_cast<std::uint64_t>(r.meanAbsoluteError),
            std::bit_cast<std::uint64_t>(r.worstCaseError),
            std::bit_cast<std::uint64_t>(r.meanRelativeError),
            std::bit_cast<std::uint64_t>(r.errorProbability),
            std::bit_cast<std::uint64_t>(r.meanSquaredError),
            r.vectorsEvaluated,
            r.exhaustive ? 1u : 0u};
}

TEST(ErrorMetrics, SampledReportsMatchGoldenBits) {
    // Pins what the sampled path outputs, not just that configurations
    // agree with each other: an operand-extraction slip that is wrong the
    // same way at every width, backend and thread count changes these
    // bits.  Sample counts leave a partial last block.
    ErrorAnalysisConfig adderCfg;
    adderCfg.sampleCount = 10000;
    EXPECT_EQ(reportBits(analyzeError(gen::loaAdder(16, 6), adderSignature(16), adderCfg)),
              (std::vector<std::uint64_t>{0x3f1800f6d37fa1f0, 0x402800ded288ce70,
                                          0x4040000000000000, 0x3f3078500cfeb909,
                                          0x3fea90ff97247454, 0x407030e90ff97247, 10000, 0}));

    ErrorAnalysisConfig multCfg;
    multCfg.exhaustiveLimit = 1;  // force the sampled path on an 8x8 operator
    multCfg.sampleCount = 3000;
    multCfg.seed = 0x8A8;
    EXPECT_EQ(reportBits(analyzeError(gen::truncatedMultiplier(8, 5), multiplierSignature(8),
                                      multCfg)),
              (std::vector<std::uint64_t>{0x3f405ce841c59cbd, 0x40403c3ece2a5349,
                                          0x405c400000000000, 0x3f8b8ebcb845b8ee,
                                          0x3feca11bfd44f308, 0x4098a678263ab597, 3000, 0}));
}

TEST(ErrorMetrics, ExhaustiveReportMatchesGoldenBits) {
    // Pins the exhaustive engine's output itself: block enumeration, the
    // 256-lane sub-partial accumulation order and the output decode.
    EXPECT_EQ(reportBits(analyzeError(gen::truncatedMultiplier(8, 4), multiplierSignature(8))),
              (std::vector<std::uint64_t>{0x3f28b149e27b13ac, 0x4028800000000000,
                                          0x4048800000000000, 0x3f76ecccb6109f9c,
                                          0x3fea000000000000, 0x406f080000000000, 65536, 1}));
}

TEST(ErrorMetrics, WorstCaseDominatesMean) {
    for (int k : {2, 4, 6}) {
        const ErrorReport r = analyzeError(gen::truncatedAdder(8, k), adderSignature(8));
        EXPECT_GE(r.worstCaseError, r.meanAbsoluteError);
        EXPECT_GE(r.meanSquaredError, r.meanAbsoluteError * r.meanAbsoluteError);
    }
}

TEST(ErrorMetrics, SummaryMentionsKeyNumbers) {
    const ErrorReport r = analyzeError(zeroAdder2(), adderSignature(2));
    const std::string s = r.summary();
    EXPECT_NE(s.find("MED"), std::string::npos);
    EXPECT_NE(s.find("WCE"), std::string::npos);
    EXPECT_NE(s.find("exhaustive"), std::string::npos);
}

/// Field-by-field bit-exact comparison (EXPECT_EQ on doubles is exact).
void expectBitIdentical(const ErrorReport& a, const ErrorReport& b) {
    EXPECT_EQ(a.med, b.med);
    EXPECT_EQ(a.meanAbsoluteError, b.meanAbsoluteError);
    EXPECT_EQ(a.worstCaseError, b.worstCaseError);
    EXPECT_EQ(a.meanRelativeError, b.meanRelativeError);
    EXPECT_EQ(a.errorProbability, b.errorProbability);
    EXPECT_EQ(a.meanSquaredError, b.meanSquaredError);
    EXPECT_EQ(a.vectorsEvaluated, b.vectorsEvaluated);
    EXPECT_EQ(a.exhaustive, b.exhaustive);
}

TEST(ErrorMetrics, ParallelMatchesSerialBitIdentical) {
    // Chunked accumulation merges partial results in chunk order, so the
    // report must not depend on the thread count — exhaustive and sampled,
    // adders and multipliers.
    const std::vector<std::pair<Netlist, ArithSignature>> cases = [] {
        std::vector<std::pair<Netlist, ArithSignature>> cs;
        cs.emplace_back(gen::truncatedMultiplier(8, 4), multiplierSignature(8));
        cs.emplace_back(gen::loaAdder(8, 3), adderSignature(8));
        cs.emplace_back(gen::wallaceMultiplier(8), multiplierSignature(8));
        cs.emplace_back(gen::etaAdder(8, 4), adderSignature(8));
        return cs;
    }();
    for (const auto& [net, sig] : cases) {
        for (const bool sampled : {false, true}) {
            ErrorAnalysisConfig serial;
            if (sampled) {
                serial.exhaustiveLimit = 1;  // force the sampled path
                serial.sampleCount = 1u << 15;
            }
            serial.threads = 1;
            ErrorAnalysisConfig parallel = serial;
            parallel.threads = 0;  // process-wide pool
            ErrorAnalysisConfig capped = serial;
            capped.threads = 2;  // bounded fan-out
            const ErrorReport ref = analyzeError(net, sig, serial);
            expectBitIdentical(analyzeError(net, sig, parallel), ref);
            expectBitIdentical(analyzeError(net, sig, capped), ref);
        }
    }
}

TEST(ErrorMetrics, EmptySampledAnalysisRejected) {
    // A sampled analysis without samples evaluates no vector; it used to
    // report errorProbability 0, i.e. call any circuit exact.
    const Netlist net = gen::truncatedAdder(16, 15);
    const ErrorAnalysisConfig empty{/*exhaustiveLimit=*/1u << 12, /*sampleCount=*/0};
    EXPECT_THROW(ErrorAnalyzer(adderSignature(16), empty), std::invalid_argument);
    EXPECT_THROW(analyzeError(net, adderSignature(16), empty), std::invalid_argument);
    EXPECT_THROW(isFunctionallyExact(net, adderSignature(16), empty), std::invalid_argument);
    ErrorAnalysisConfig sampled = empty;
    sampled.sampleCount = 1000;
    EXPECT_FALSE(isFunctionallyExact(net, adderSignature(16), sampled));
    // Exhaustive configs never read sampleCount.
    const ErrorReport r = analyzeError(gen::truncatedAdder(4, 3), adderSignature(4), empty);
    EXPECT_TRUE(r.exhaustive);
    EXPECT_EQ(r.vectorsEvaluated, 256u);
}

/// FNV-1a over every field of each report (doubles by bit pattern).
std::uint64_t digestReports(const std::vector<ErrorReport>& reports) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xFFu;
            h *= 0x100000001B3ull;
        }
    };
    for (const ErrorReport& r : reports) {
        for (const double d : {r.med, r.meanAbsoluteError, r.worstCaseError, r.meanRelativeError,
                               r.errorProbability, r.meanSquaredError})
            mix(std::bit_cast<std::uint64_t>(d));
        mix(r.vectorsEvaluated);
        mix(r.exhaustive ? 1 : 0);
    }
    return h;
}

/// 47 16-bit adders (exact and the LOA / truncated / ETA sweeps).
std::vector<Netlist> adders16() {
    std::vector<Netlist> nets = {gen::rippleCarryAdder(16), gen::carryLookaheadAdder(16)};
    for (int k = 1; k < 16; ++k) {
        nets.push_back(gen::loaAdder(16, k));
        nets.push_back(gen::truncatedAdder(16, k));
        nets.push_back(gen::etaAdder(16, k));
    }
    return nets;
}

/// 42 8x8 multipliers (exact, truncated, broken-array and DRUM sweeps).
std::vector<Netlist> multipliers8() {
    std::vector<Netlist> nets = {gen::wallaceMultiplier(8), gen::arrayMultiplier(8)};
    for (int t = 1; t <= 8; ++t) nets.push_back(gen::truncatedMultiplier(8, t));
    for (int h = 0; h <= 8; ++h)
        for (int v = 0; v <= 4; v += 2)
            if (h + v > 0) nets.push_back(gen::brokenArrayMultiplier(8, h, v));
    for (int k = 2; k < 8; ++k) nets.push_back(gen::drumMultiplier(8, k));
    return nets;
}

TEST(ErrorAnalyzer, ReuseMatchesPerCallAnalysisBitForBit) {
    // One analyzer serves a whole family, sequentially and from concurrent
    // pool tasks, with the bits of a fresh analysis per netlist.  The
    // digests were recorded with per-call analyses before the analyzer
    // existed.  The sampled config spans three chunks plus a 100-vector
    // partial last block; the exhaustive one covers 8 chunks.
    ErrorAnalysisConfig sampled;
    sampled.exhaustiveLimit = 1;  // force the sampled path
    sampled.sampleCount = 3 * 8192 + 100;
    struct Case {
        ArithSignature sig;
        ErrorAnalysisConfig config;
        std::vector<Netlist> nets;
        std::uint64_t golden;
    };
    const Case cases[] = {
        {adderSignature(16), sampled, adders16(), 0xFB91E16D1AC6BD5Aull},
        {multiplierSignature(8), ErrorAnalysisConfig{}, multipliers8(), 0x640C451666A8C2C5ull}};
    for (const Case& c : cases) {
        const ErrorAnalyzer analyzer(c.sig, c.config);
        std::vector<ErrorReport> reused;
        for (const Netlist& net : c.nets) {
            reused.push_back(analyzer.analyze(net));
            expectBitIdentical(reused.back(), analyzeError(net, c.sig, c.config));
        }
        EXPECT_EQ(reused.front().exhaustive, c.config.isExhaustiveFor(c.sig));
        EXPECT_EQ(digestReports(reused), c.golden) << c.sig.toString();

        // A fresh analyzer, so the first concurrent sweeps race to draw
        // its stimulus and the later ones reuse it.
        const ErrorAnalyzer fresh(c.sig, c.config);
        std::vector<ErrorReport> concurrent(c.nets.size());
        util::ThreadPool::global().parallelFor(
            c.nets.size(), [&](std::size_t i) { concurrent[i] = fresh.analyze(c.nets[i]); });
        for (std::size_t i = 0; i < c.nets.size(); ++i)
            expectBitIdentical(concurrent[i], reused[i]);
    }
}

TEST(ErrorAnalyzer, SerialCallsBindTheirOwnProgram) {
    // A serial analysis sweeps on the calling thread's reused scratch, and
    // its compiled program, a local of `analyze`, lands at the same
    // address on every call: each call must still install its own
    // program's constants and workspace size.  Raw and simplified
    // multipliers keep constant outputs in different slots and differ in
    // size; the interpreter is the oracle.  Exhaustive 8x8 sums are
    // integers, so every field but the relative error is exact on both.
    ErrorAnalysisConfig serial;
    serial.threads = 1;
    const ArithSignature sig = multiplierSignature(8);
    const ErrorAnalyzer analyzer(sig, serial);
    for (const Netlist& raw : multipliers8()) {
        for (const Netlist& net : {raw, circuit::simplify(raw)}) {
            const ErrorReport engine = analyzer.analyze(net);
            const ErrorReport oracle = analyzeErrorBaseline(net, sig, serial);
            EXPECT_EQ(engine.med, oracle.med) << net.name();
            EXPECT_EQ(engine.meanAbsoluteError, oracle.meanAbsoluteError) << net.name();
            EXPECT_EQ(engine.meanSquaredError, oracle.meanSquaredError) << net.name();
            EXPECT_EQ(engine.worstCaseError, oracle.worstCaseError) << net.name();
            EXPECT_EQ(engine.errorProbability, oracle.errorProbability) << net.name();
            EXPECT_EQ(engine.vectorsEvaluated, oracle.vectorsEvaluated) << net.name();
        }
    }
}

TEST(ErrorMetrics, EngineAgreesWithBaselineInterpreter) {
    // The compiled multi-word engine and the retained one-word reference
    // must agree exactly on the integer-derived metrics and to rounding on
    // the accumulated means (the engine merges per-chunk partial sums).
    for (const auto& [net, sig] :
         {std::pair{gen::truncatedMultiplier(8, 4), multiplierSignature(8)},
          std::pair{gen::gearAdder(8, 2, 2), adderSignature(8)}}) {
        const ErrorReport engine = analyzeError(net, sig);
        const ErrorReport baseline = analyzeErrorBaseline(net, sig);
        EXPECT_EQ(engine.worstCaseError, baseline.worstCaseError);
        EXPECT_EQ(engine.errorProbability, baseline.errorProbability);
        EXPECT_EQ(engine.vectorsEvaluated, baseline.vectorsEvaluated);
        EXPECT_NEAR(engine.med, baseline.med, 1e-15);
        EXPECT_NEAR(engine.meanAbsoluteError, baseline.meanAbsoluteError,
                    1e-9 * (1.0 + baseline.meanAbsoluteError));
        EXPECT_NEAR(engine.meanSquaredError, baseline.meanSquaredError,
                    1e-9 * (1.0 + baseline.meanSquaredError));
    }
}

TEST(ErrorMetrics, PartialLastBlockHandled) {
    // 3+3-bit space = 64 vectors exactly; also try 3+2 = 32 (sub-block).
    Netlist net("odd");
    for (int i = 0; i < 5; ++i) net.addInput();
    const circuit::NodeId z = net.addConst(false);
    for (int i = 0; i < 4; ++i) net.markOutput(z);
    const ArithSignature sig{circuit::ArithOp::Adder, 3, 2};
    // Interface: 3+2 inputs, adder output = widthA+1 = 4.
    const ErrorReport r = analyzeError(net, sig);
    EXPECT_EQ(r.vectorsEvaluated, 32u);
    EXPECT_TRUE(r.exhaustive);
}

}  // namespace
}  // namespace axf::error
