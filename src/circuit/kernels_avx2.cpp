// AVX2 backend: the generic kernels compiled for x86-64-v3 (256-bit ymm
// bitwise ops), so a binary built WITHOUT -march=native — or built on an
// AVX-512 host and run on an AVX2-only one — still gets full-width vector
// kernels via runtime dispatch.  CMake compiles this TU with
// -march=x86-64-v3 when the compiler supports it; the guard below keeps
// the TU empty otherwise.  Nothing here executes unless
// __builtin_cpu_supports("avx2") said yes.

#include "src/circuit/kernels.hpp"

#if defined(__AVX2__) && !defined(__AVX512F__)

namespace axf::circuit::kernels {
namespace avx2_impl {

#include "src/circuit/kernels_generic.inc"

constexpr Backend kBackend = {"avx2", kGenericRun, &encode16Generic, &decode16Generic,
                              &decode32Generic};

}  // namespace avx2_impl

const Backend* avx2Backend() { return &avx2_impl::kBackend; }

}  // namespace axf::circuit::kernels

#else

namespace axf::circuit::kernels {
const Backend* avx2Backend() { return nullptr; }
}  // namespace axf::circuit::kernels

#endif
