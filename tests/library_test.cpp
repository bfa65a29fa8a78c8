#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "src/cache/characterization_cache.hpp"
#include "src/error/error_metrics.hpp"
#include "src/gen/library.hpp"
#include "src/util/bytes.hpp"
#include "src/util/thread_pool.hpp"

namespace axf::gen {
namespace {

LibraryConfig smallConfig(circuit::ArithOp op, int width) {
    LibraryConfig cfg;
    cfg.op = op;
    cfg.width = width;
    cfg.medBudgets = {0.005};
    cfg.cgpGenerations = 30;
    return cfg;
}

TEST(Library, StructuralFamiliesArePopulated) {
    const AcLibrary adders = buildStructuralFamilies(smallConfig(circuit::ArithOp::Adder, 8));
    EXPECT_GT(adders.size(), 30u);
    const AcLibrary mults =
        buildStructuralFamilies(smallConfig(circuit::ArithOp::Multiplier, 8));
    EXPECT_GT(mults.size(), 30u);
}

TEST(Library, EntriesAreConsistent) {
    const LibraryConfig cfg = smallConfig(circuit::ArithOp::Multiplier, 4);
    for (const LibraryCircuit& entry : buildLibrary(cfg)) {
        EXPECT_FALSE(entry.name.empty());
        EXPECT_FALSE(entry.origin.empty());
        EXPECT_EQ(entry.signature.op, circuit::ArithOp::Multiplier);
        EXPECT_EQ(static_cast<int>(entry.netlist.inputCount()), entry.signature.inputWidth());
        EXPECT_EQ(static_cast<int>(entry.netlist.outputCount()), entry.signature.outputWidth());
        entry.netlist.validate();
        // Stored error must match a fresh analysis with the same config.
        const error::ErrorReport fresh =
            error::analyzeError(entry.netlist, entry.signature, cfg.errorConfig);
        EXPECT_DOUBLE_EQ(entry.error.med, fresh.med) << entry.name;
    }
}

/// A report's exact bits (its fixed-order cache encoding).
std::vector<std::uint8_t> reportBits(const error::ErrorReport& report) {
    util::ByteWriter out;
    report.serialize(out);
    return out.take();
}

TEST(Library, CgpReportsComeFromTheLibraryStage) {
    // CGP runs only evolve; the library reports their unique harvests in
    // its own stage, under its errorConfig and through its cache.
    LibraryConfig cfg = smallConfig(circuit::ArithOp::Multiplier, 4);
    cfg.medBudgets = {0.002, 0.02};
    cache::CharacterizationCache cache;
    cfg.cache = &cache;
    const AcLibrary cold = buildLibrary(cfg);
    std::size_t cgp = 0;
    for (const LibraryCircuit& entry : cold) {
        if (entry.origin != "cgp") continue;
        ++cgp;
        EXPECT_TRUE(entry.error.exhaustive) << entry.name;  // reporting-grade for 4x4
        EXPECT_EQ(reportBits(entry.error),
                  reportBits(error::analyzeError(entry.netlist, entry.signature, cfg.errorConfig)))
            << entry.name;
        const std::optional<error::ErrorReport> cached = cache.findError(
            cache::CharacterizationCache::errorKey(entry.netlist.structuralHash(),
                                                   entry.signature, cfg.errorConfig));
        ASSERT_TRUE(cached.has_value()) << entry.name;
        EXPECT_EQ(reportBits(*cached), reportBits(entry.error)) << entry.name;
    }
    ASSERT_GT(cgp, 0u);

    // A warm rebuild over the same cache serves every report, CGP
    // harvests included, as a hit: nothing misses, nothing is stored.
    const cache::CacheStats before = cache.stats();
    const AcLibrary warm = buildLibrary(cfg);
    const cache::CacheStats after = cache.stats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.stores, before.stores);
    EXPECT_GE(after.hits - before.hits, cold.size());
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(warm[i].name, cold[i].name);
        EXPECT_EQ(reportBits(warm[i].error), reportBits(cold[i].error)) << cold[i].name;
    }
}

TEST(Library, DeduplicatesByStructure) {
    const AcLibrary lib = buildLibrary(smallConfig(circuit::ArithOp::Adder, 4));
    std::set<std::uint64_t> hashes;
    for (const LibraryCircuit& entry : lib) hashes.insert(entry.netlist.structuralHash());
    EXPECT_EQ(hashes.size(), lib.size());
}

TEST(Library, ContainsExactAndApproximateDesigns) {
    const AcLibrary lib = buildLibrary(smallConfig(circuit::ArithOp::Adder, 8));
    bool anyExact = false, anyApprox = false;
    for (const LibraryCircuit& entry : lib) {
        if (entry.error.isExact()) anyExact = true;
        if (entry.error.med > 0.0) anyApprox = true;
    }
    EXPECT_TRUE(anyExact);
    EXPECT_TRUE(anyApprox);
}

TEST(Library, CgpContributesNovelDesigns) {
    LibraryConfig cfg = smallConfig(circuit::ArithOp::Multiplier, 4);
    cfg.cgpGenerations = 60;
    cfg.medBudgets = {0.002, 0.02};
    const AcLibrary lib = buildLibrary(cfg);
    std::size_t cgp = 0;
    for (const LibraryCircuit& entry : lib)
        if (entry.origin == "cgp") ++cgp;
    EXPECT_GT(cgp, 10u);
}

TEST(Library, StructuralOnlySkipsEvolution) {
    LibraryConfig cfg = smallConfig(circuit::ArithOp::Multiplier, 4);
    cfg.structuralOnly = true;
    for (const LibraryCircuit& entry : buildLibrary(cfg)) EXPECT_NE(entry.origin, "cgp");
}

TEST(Library, MaxCircuitsThinningKeepsSpread) {
    LibraryConfig cfg = smallConfig(circuit::ArithOp::Adder, 8);
    cfg.maxCircuits = 20;
    const AcLibrary lib = buildLibrary(cfg);
    EXPECT_EQ(lib.size(), 20u);
    double minMed = 1e9, maxMed = -1.0;
    for (const LibraryCircuit& entry : lib) {
        minMed = std::min(minMed, entry.error.med);
        maxMed = std::max(maxMed, entry.error.med);
    }
    EXPECT_DOUBLE_EQ(minMed, 0.0);  // an exact design survives thinning
    EXPECT_GT(maxMed, 0.0);
}

TEST(Library, DeterministicBuilds) {
    const LibraryConfig cfg = smallConfig(circuit::ArithOp::Multiplier, 4);
    const AcLibrary a = buildLibrary(cfg);
    const AcLibrary b = buildLibrary(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].netlist.structuralHash(), b[i].netlist.structuralHash());
}

/// FNV-1a over every entry of `library` in order: name, origin,
/// structural hash and the report's serialized fields.
void digestLibrary(std::uint64_t& h, const AcLibrary& library) {
    const auto mixByte = [&h](std::uint8_t byte) { h = (h ^ byte) * 0x100000001B3ull; };
    const auto mixString = [&](const std::string& s) {
        for (const char ch : s) mixByte(static_cast<std::uint8_t>(ch));
        mixByte(0);
    };
    for (const LibraryCircuit& entry : library) {
        mixString(entry.name);
        mixString(entry.origin);
        const std::uint64_t hash = entry.netlist.structuralHash();
        for (int byte = 0; byte < 8; ++byte) mixByte(static_cast<std::uint8_t>(hash >> (8 * byte)));
        for (const std::uint8_t byte : reportBits(entry.error)) mixByte(byte);
    }
}

TEST(Library, MatchesGoldenDigest) {
    // Pins what a build outputs, not only that builds agree with each
    // other: the full 8-bit adder and multiplier libraries (two MED
    // budgets, 10 CGP generations) and the 16-bit structural families
    // (sampled reports).  Built once in the serial schedule (inline on a
    // one-worker pool, where every nested parallelFor runs inline) and
    // once on the global pool with the analyses capped at 4 threads.
    const auto digestBuilds = [](int threads) {
        std::uint64_t h = 0xCBF29CE484222325ull;
        for (const circuit::ArithOp op : {circuit::ArithOp::Adder, circuit::ArithOp::Multiplier}) {
            LibraryConfig cfg;
            cfg.op = op;
            cfg.width = 8;
            cfg.medBudgets = {0.001, 0.01};
            cfg.cgpGenerations = 10;
            cfg.errorConfig.threads = threads;
            digestLibrary(h, buildLibrary(cfg));
            cfg.width = 16;
            digestLibrary(h, buildStructuralFamilies(cfg));
        }
        return h;
    };
    constexpr std::uint64_t kGolden = 0xDF3355FEED02A5A5ull;
    std::uint64_t serial = 0;
    util::ThreadPool one(1);
    one.submit([&] { serial = digestBuilds(1); });
    one.wait();
    EXPECT_EQ(serial, kGolden) << std::hex << "serial digest 0x" << serial;
    const std::uint64_t pooled = digestBuilds(4);
    EXPECT_EQ(pooled, kGolden) << std::hex << "pooled digest 0x" << pooled;
}

TEST(Library, SignatureHelper) {
    const LibraryConfig cfg = smallConfig(circuit::ArithOp::Multiplier, 8);
    EXPECT_EQ(librarySignature(cfg).toString(), "8x8 multiplier");
}

}  // namespace
}  // namespace axf::gen
