// Portable backend: the GCC vector-extension kernels compiled under the
// project-wide flags.  With -march=native this is exactly the historical
// CompiledNetlist::run lowering; without it, plain SSE2/baseline codegen.
// Always present and always runnable — the fallback every other backend is
// differentially tested against.

#include "src/circuit/kernels.hpp"

namespace axf::circuit::kernels {
namespace portable_impl {

#include "src/circuit/kernels_generic.inc"

constexpr Backend kBackend = {"portable", kGenericRun, &encode16Generic, &decode16Generic,
                              &decode32Generic};

}  // namespace portable_impl

const Backend* portableBackend() { return &portable_impl::kBackend; }

}  // namespace axf::circuit::kernels
