#ifndef OPMAP_COMMON_SIMD_H_
#define OPMAP_COMMON_SIMD_H_

/// The SIMD seam: compile-time feature gates and runtime CPU dispatch for
/// the vectorized counting kernels (opmap/cube/count_kernels_simd.cc).
///
/// Compile-time: OPMAP_SIMD_X86 / OPMAP_SIMD_NEON mark which vector tiers
/// are compiled into this binary. Defining OPMAP_NO_SIMD (the CMake
/// OPMAP_NO_SIMD option) disables both, leaving only the scalar kernels —
/// the CI leg that keeps the scalar fallback from rotting builds this
/// way. On x86-64 the AVX2 tier is compiled behind
/// __attribute__((target("avx2"))) so the binary still runs on pre-AVX2
/// machines; on aarch64 NEON is part of the baseline ISA.
///
/// Runtime: CurrentSimdLevel() probes the executing CPU once (cached) and
/// is what the kernel dispatch actually branches on, so one binary serves
/// any machine: an AVX2 build running on a non-AVX2 x86 falls back to the
/// scalar blocked kernel automatically.

#if !defined(OPMAP_NO_SIMD)
#if defined(__x86_64__) || defined(_M_X64)
#define OPMAP_SIMD_X86 1
#elif defined(__aarch64__) || defined(_M_ARM64)
#define OPMAP_SIMD_NEON 1
#endif
#endif  // !OPMAP_NO_SIMD

namespace opmap {

/// The vector tier the running CPU supports among those compiled in.
enum class SimdLevel {
  kNone,  ///< scalar only (no support compiled in, or CPU lacks it)
  kAvx2,  ///< x86-64 AVX2: 256-bit vectors, 32-byte lanes
  kNeon,  ///< aarch64 NEON: 128-bit vectors, 16-byte lanes
};

/// Runtime-detected level, probed once per process and cached. Honors the
/// compile-time gates: an OPMAP_NO_SIMD build always reports kNone.
SimdLevel CurrentSimdLevel();

/// "none", "avx2", or "neon" — the host stamp of perfbench results.
const char* SimdLevelName(SimdLevel level);

/// Vector register width in bytes for `level`: 0, 32, or 16.
int SimdLaneBytes(SimdLevel level);

/// True when any vector tier is usable on this machine.
inline bool SimdAvailable() { return CurrentSimdLevel() != SimdLevel::kNone; }

}  // namespace opmap

#endif  // OPMAP_COMMON_SIMD_H_
