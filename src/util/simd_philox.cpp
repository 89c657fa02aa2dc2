#include "util/simd_philox.hpp"

#include "util/philox.hpp"

namespace dpr::util {

void philox2x64x4_scalar(std::uint64_t key, const std::uint64_t* c0,
                         const std::uint64_t* c1, std::uint64_t* out) {
  out[0] = philox2x64(key, c0[0], c1[0]);
  out[1] = philox2x64(key, c0[1], c1[1]);
  out[2] = philox2x64(key, c0[2], c1[2]);
  out[3] = philox2x64(key, c0[3], c1[3]);
}

Philox4Fn philox4() { return &philox2x64x4_scalar; }

}  // namespace dpr::util
