#include "tensor/backend.h"

#include <cstdlib>
#include <cstring>

#if START_TENSOR_HAVE_AVXVNNI
#include <cpuid.h>
#endif

namespace start::tensor {

namespace {

#if START_TENSOR_HAVE_AVXVNNI
/// AVX-VNNI (VEX form) is CPUID leaf 7 sub-leaf 1, EAX bit 4. Read directly
/// because older compilers' __builtin_cpu_supports does not know "avxvnni".
/// The YMM state it uses is the one the avx2 check already requires the OS
/// to save.
bool HostHasAvxVnni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) != 0 &&
         (eax & (1u << 4)) != 0;
}
#endif

}  // namespace

Backend ActiveBackend() {
  static const Backend backend = [] {
#if START_TENSOR_HAVE_AVX2
    const char* env = std::getenv("START_QGEMM_BACKEND");
    if (env == nullptr || std::strcmp(env, "scalar") != 0) {
      if (__builtin_cpu_supports("avx2")) {
#if START_TENSOR_HAVE_AVXVNNI
        if (HostHasAvxVnni()) return Backend::kAvxVnni;
#endif
        return Backend::kAvx2;
      }
    }
#endif
    return Backend::kScalar;
  }();
  return backend;
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kAvxVnni:
      return "avx_vnni";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace start::tensor
