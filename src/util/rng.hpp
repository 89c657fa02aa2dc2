#pragma once
// Deterministic pseudo-random number generation for reproducible simulation.
//
// Every stochastic component of the simulated apparatus (sensor dynamics,
// OCR noise, GP evolution) draws from an explicitly seeded Rng so that the
// whole reproduction pipeline is bit-deterministic given a seed.

#include <cstddef>
#include <cstdint>
#include <limits>

namespace dpr::util {

/// xoshiro256** 1.0 — small, fast, high-quality PRNG.
/// Satisfies std::uniform_random_bit_generator so it can drive <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Reinitialize the state from a 64-bit seed (SplitMix64 expansion).
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal variate (Box-Muller, cached second value).
  double normal();

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Up to `n` chance(p) trials in one loop: the index of the first that
  /// succeeds, or `n` if none does. Consumes exactly the words those
  /// chance(p) calls would (none for p <= 0 or p >= 1).
  std::size_t first_success(double p, std::size_t n);

  /// Derive an independent child generator; used to give each simulated
  /// component its own stream without correlated draws.
  Rng fork();

  /// Complete generator state, including the Box-Muller cache, so a
  /// restored generator replays the exact upcoming draw sequence
  /// (campaign checkpoints save the OCR stream mid-flight).
  struct State {
    std::uint64_t s[4]{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };

  State state() const;
  void restore(const State& state);

 private:
  std::uint64_t s_[4]{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace dpr::util
