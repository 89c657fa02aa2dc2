#include "util/rng.hpp"

#include <cmath>

namespace dpr::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// One xoshiro256** step.
inline std::uint64_t next(std::uint64_t (&s)[4]) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  has_cached_normal_ = false;
}

Rng::result_type Rng::operator()() { return next(s_); }

double Rng::uniform() {
  // 53 high-quality bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  // Unsigned subtraction: hi - lo would overflow std::int64_t for the
  // full-range request (and UBSan rightly objects).
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire multiply-shift with rejection: `x % span` over-weights the low
  // residues whenever span does not divide 2^64, which skews exactly the
  // small-range draws the GP engine leans on (tournament selection,
  // mutation-site picks). Rejecting the partial final interval makes every
  // residue equally likely; the expected number of extra draws is < 1 even
  // in the worst case.
  std::uint64_t x = (*this)();
  auto product = static_cast<unsigned __int128>(x) * span;
  auto low = static_cast<std::uint64_t>(product);
  if (low < span) {
    const std::uint64_t threshold = (0 - span) % span;
    while (low < threshold) {
      x = (*this)();
      product = static_cast<unsigned __int128>(x) * span;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   static_cast<std::uint64_t>(product >> 64));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::size_t Rng::first_success(double p, std::size_t n) {
  if (p <= 0.0) return n;
  if (p >= 1.0) return 0;
  // uniform() < p is (x >> 11) * 2^-53 < p, which is exactly
  // (x >> 11) < ceil(p * 2^53). A NaN p draws and never succeeds, as in
  // chance().
  const std::uint64_t bound =
      std::isnan(p) ? 0 : static_cast<std::uint64_t>(std::ceil(p * 0x1p53));
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  std::size_t i = 0;
  while (i < n && (next(s) >> 11) >= bound) ++i;
  for (int k = 0; k < 4; ++k) s_[k] = s[k];
  return i;
}

Rng Rng::fork() { return Rng((*this)() ^ 0xD1B54A32D192ED03ULL); }

Rng::State Rng::state() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.cached_normal = cached_normal_;
  state.has_cached_normal = has_cached_normal_;
  return state;
}

void Rng::restore(const State& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

}  // namespace dpr::util
