#pragma once
// 4-wide Philox2x64-10: one call produces word 0 of four independent
// counter blocks {c0[i], c1[i]} under a shared key — exactly four
// CounterRng::word_at() results.
//
// No draw site in src/ uses it: the fault injector draws each frame's
// event through CounterRng as the frame wins arbitration, since the bus's
// queue mostly holds a single frame. The file stays because fleetbench
// stamps every result with the kernel philox4() returns, and util_test
// fuzzes that kernel against CounterRng::word_at.
//
// The body is four calls into the shared util::philox2x64 reference:
// their independent native 64-bit multiply chains pipeline, which on
// x86-64 measures about 2x faster than an AVX2 body (AVX2 has no 64-bit
// vector multiply, so a vector round is a latency-bound chain of
// synthesized vpmuludq partial products).

#include <cstdint>

namespace dpr::util {

/// out[i] = philox2x64(key, c0[i], c1[i]) for i in 0..3.
using Philox4Fn = void (*)(std::uint64_t key, const std::uint64_t* c0,
                           const std::uint64_t* c1, std::uint64_t* out);

/// Portable 4-wide body: four scalar philox2x64 blocks.
void philox2x64x4_scalar(std::uint64_t key, const std::uint64_t* c0,
                         const std::uint64_t* c1, std::uint64_t* out);

/// The 4-wide kernel: always &philox2x64x4_scalar.
Philox4Fn philox4();

}  // namespace dpr::util
