// NEON backend (aarch64).  The generic vector-extension kernels lower to
// 128-bit NEON ops, eight per 1024-bit slot; Mux/MuxNot* additionally map
// naturally onto NEON's bit-select (vbslq), which GCC pattern-matches from
// the (c & b) | (~c & a) form.  Present as a named backend so
// AXF_FORCE_BACKEND semantics and the Stats backend field behave the same
// on ARM hosts as on x86; the TU compiles empty elsewhere.

#include "src/circuit/kernels.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

namespace axf::circuit::kernels {
namespace neon_impl {

#include "src/circuit/kernels_generic.inc"

constexpr Backend kBackend = {"neon", kGenericRun, &encode16Generic, &decode16Generic,
                              &decode32Generic};

}  // namespace neon_impl

const Backend* neonBackend() { return &neon_impl::kBackend; }

}  // namespace axf::circuit::kernels

#else

namespace axf::circuit::kernels {
const Backend* neonBackend() { return nullptr; }
}  // namespace axf::circuit::kernels

#endif
