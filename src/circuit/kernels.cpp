// Backend selection: runtime CPU detection, the AXF_FORCE_BACKEND escape
// hatch, and the test override hook.  Detection runs once per process;
// every CompiledNetlist binds to the backend selected at compile() time.

#include "src/circuit/kernels.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace axf::circuit::kernels {

namespace {

bool cpuSupports(const Backend* backend) {
    if (backend == nullptr) return false;
    const std::string_view name = backend->name;
#if defined(__x86_64__) || defined(__i386__)
    if (name == "avx512")
        return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512dq");
    if (name == "avx2") return __builtin_cpu_supports("avx2");
#endif
    // portable always runs; neon is only compiled in when the target
    // baseline (aarch64) guarantees it.
    return name == "portable" || name == "neon";
}

const Backend* detect() {
    if (const char* force = std::getenv("AXF_FORCE_BACKEND"); force != nullptr && *force != '\0')
        if (const Backend* backend = resolveForcedBackend(force)) return backend;
    for (const Backend* backend : {avx512Backend(), avx2Backend(), neonBackend()})
        if (cpuSupports(backend)) return backend;
    return portableBackend();
}

std::atomic<const Backend*> gOverride{nullptr};

}  // namespace

const Backend* resolveForcedBackend(std::string_view value) {
    if (const Backend* backend = backendByName(value)) return backend;
    std::fprintf(stderr,
                 "axf: AXF_FORCE_BACKEND=%.*s: unknown or unsupported on this CPU "
                 "(known: portable, avx2, avx512, neon); falling back to auto-detection\n",
                 static_cast<int>(value.size()), value.data());
    return nullptr;
}

const char* opCodeName(OpCode op) {
    switch (op) {
        case OpCode::Buf: return "Buf";
        case OpCode::Not: return "Not";
        case OpCode::And: return "And";
        case OpCode::Or: return "Or";
        case OpCode::Xor: return "Xor";
        case OpCode::Nand: return "Nand";
        case OpCode::Nor: return "Nor";
        case OpCode::Xnor: return "Xnor";
        case OpCode::AndNot: return "AndNot";
        case OpCode::OrNot: return "OrNot";
        case OpCode::Mux: return "Mux";
        case OpCode::Maj: return "Maj";
        case OpCode::Xor3: return "Xor3";
        case OpCode::MuxNotA: return "MuxNotA";
        case OpCode::MuxNotB: return "MuxNotB";
        case OpCode::HalfAdd: return "HalfAdd";
        case OpCode::And3: return "And3";
        case OpCode::Or3: return "Or3";
    }
    return "?";
}

const Backend& selectedBackend() {
    if (const Backend* forced = gOverride.load(std::memory_order_acquire)) return *forced;
    static const Backend* chosen = detect();
    return *chosen;
}

const Backend* backendByName(std::string_view name) {
    for (const Backend* backend :
         {portableBackend(), avx2Backend(), avx512Backend(), neonBackend()})
        if (backend != nullptr && name == backend->name)
            return cpuSupports(backend) ? backend : nullptr;
    return nullptr;
}

std::vector<const Backend*> availableBackends() {
    std::vector<const Backend*> backends;
    for (const Backend* backend :
         {portableBackend(), avx2Backend(), avx512Backend(), neonBackend()})
        if (cpuSupports(backend)) backends.push_back(backend);
    return backends;
}

ScopedBackendOverride::ScopedBackendOverride(const Backend* backend)
    : previous_(gOverride.exchange(backend, std::memory_order_acq_rel)) {}

ScopedBackendOverride::~ScopedBackendOverride() {
    gOverride.store(previous_, std::memory_order_release);
}

}  // namespace axf::circuit::kernels
