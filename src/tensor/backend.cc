#include "tensor/backend.h"

#include <cstdlib>
#include <cstring>

namespace start::tensor {

Backend ActiveBackend() {
  static const Backend backend = [] {
#if START_TENSOR_HAVE_AVX2
    const char* env = std::getenv("START_QGEMM_BACKEND");
    if (env == nullptr || std::strcmp(env, "scalar") != 0) {
      if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
    }
#endif
    return Backend::kScalar;
  }();
  return backend;
}

const char* BackendName(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

}  // namespace start::tensor
