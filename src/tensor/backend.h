#ifndef START_TENSOR_BACKEND_H_
#define START_TENSOR_BACKEND_H_

/// \file
/// One CPU-feature dispatch for every hand-vectorised tensor kernel: the f32
/// GemmNT/GemmTN (kernels.cc) and the int8 qgemm. Each kernel keeps a
/// portable scalar loop as its reference, and each backend produces output
/// bitwise identical to it, so the choice changes speed only.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
/// The AVX2 kernels are compiled (function-level target attributes, no
/// global -mavx2) and chosen at run time by ActiveBackend().
#define START_TENSOR_HAVE_AVX2 1
/// The AVX-VNNI kernel needs the avxvnni target and _mm256_dpbusd_avx_epi32,
/// which arrived in gcc 11 and clang 12 (Apple clang 13). Older compilers
/// build without it and run the AVX2 kernel on VNNI hosts.
#if defined(__clang__)
#if __clang_major__ >= (defined(__apple_build_version__) ? 13 : 12)
#define START_TENSOR_HAVE_AVXVNNI 1
#endif
#elif __GNUC__ >= 11
#define START_TENSOR_HAVE_AVXVNNI 1
#endif
#endif

namespace start::tensor {

/// Kernel backends, each a superset of the one before. kScalar is the
/// portable reference; kAvx2 the SIMD kernels; kAvxVnni adds the VEX-encoded
/// vpdpbusd to the int8 qgemm (every f32 kernel runs its AVX2 path on it).
enum class Backend { kScalar, kAvx2, kAvxVnni };

/// The backend the host dispatches to: the most capable one the CPU supports
/// and the build compiled (kAvxVnni needs AVX2, AVX-VNNI and
/// START_TENSOR_HAVE_AVXVNNI), or kScalar when the environment
/// variable START_QGEMM_BACKEND is "scalar". Read once per process.
Backend ActiveBackend();
const char* BackendName(Backend backend);

/// Whether `backend` runs the hand-vectorised kernels.
inline bool IsSimd(Backend backend) { return backend != Backend::kScalar; }

}  // namespace start::tensor

#endif  // START_TENSOR_BACKEND_H_
