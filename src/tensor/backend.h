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
#endif

namespace start::tensor {

/// Kernel backends. kScalar is the portable reference; kAvx2 the SIMD
/// kernels.
enum class Backend { kScalar, kAvx2 };

/// The backend the host dispatches to: kAvx2 when the CPU supports AVX2 and
/// the environment variable START_QGEMM_BACKEND is not "scalar". Read once
/// per process.
Backend ActiveBackend();
const char* BackendName(Backend backend);

}  // namespace start::tensor

#endif  // START_TENSOR_BACKEND_H_
