// Run-time choice between the two builds of the vector kernels.
//
// The linalg kernels are written once with GCC/Clang vector extensions
// (4-wide double vectors). Plain x86-64 lowers each 4-wide op to two
// SSE2 ops; a per-function target("avx2") clone lowers it to one AVX2
// op. FMA is never enabled, so no multiply-add can be contracted and
// both builds perform the same IEEE operations in the same order: they
// are bit-identical, and the AVX2 clone is only faster. A kernel entry
// point dispatches on BestKernelIsa(); the ones that take a KernelIsa
// let tests run each build explicitly.
#ifndef VELOX_LINALG_KERNEL_ISA_H_
#define VELOX_LINALG_KERNEL_ISA_H_

namespace velox {

#if defined(__GNUC__) && defined(__x86_64__)
#define VELOX_KERNELS_AVX2 1
#endif

enum class KernelIsa { kPortable, kAvx2 };

// kAvx2 when this build has AVX2 clones and the CPU runs them.
inline KernelIsa BestKernelIsa() {
#ifdef VELOX_KERNELS_AVX2
  static const bool has_avx2 = __builtin_cpu_supports("avx2");
  return has_avx2 ? KernelIsa::kAvx2 : KernelIsa::kPortable;
#else
  return KernelIsa::kPortable;
#endif
}

}  // namespace velox

#endif  // VELOX_LINALG_KERNEL_ISA_H_
