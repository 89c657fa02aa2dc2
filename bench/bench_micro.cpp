// Micro-benchmarks (google-benchmark): protocol-stack and inference
// kernel throughput. Not a paper table — engineering numbers for the
// library itself.

#include <benchmark/benchmark.h>

#include "can/bus.hpp"
#include "gp/engine.hpp"
#include "gp/genome.hpp"
#include "gp/kernels.hpp"
#include "gp/program.hpp"
#include "isotp/isotp.hpp"
#include "obd/pid.hpp"
#include "uds/server.hpp"
#include "util/philox.hpp"
#include "util/rng.hpp"
#include "util/simd_philox.hpp"
#include "vwtp/vwtp.hpp"

namespace {

using namespace dpr;

void BM_IsoTpSegmentReassemble(benchmark::State& state) {
  const util::Bytes payload(static_cast<std::size_t>(state.range(0)), 0xAB);
  const can::CanId id{0x7E0, false};
  for (auto _ : state) {
    isotp::Reassembler reassembler;
    std::optional<util::Bytes> out;
    for (const auto& frame : isotp::segment_message(id, payload)) {
      out = reassembler.feed(frame);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IsoTpSegmentReassemble)->Arg(7)->Arg(62)->Arg(512)->Arg(4095);

void BM_VwtpSegmentReassemble(benchmark::State& state) {
  const util::Bytes payload(static_cast<std::size_t>(state.range(0)), 0x61);
  const can::CanId id{0x300, false};
  for (auto _ : state) {
    vwtp::Reassembler reassembler;
    std::optional<util::Bytes> out;
    for (const auto& frame : vwtp::segment_message(id, payload)) {
      out = reassembler.feed(frame);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VwtpSegmentReassemble)->Arg(7)->Arg(62)->Arg(512);

void BM_UdsServerReadRequest(benchmark::State& state) {
  uds::Server server;
  for (uds::Did did = 0xF400; did < 0xF420; ++did) {
    server.add_did(did, 2, [] { return util::Bytes{0x12, 0x34}; });
  }
  std::vector<uds::Did> dids;
  for (int i = 0; i < state.range(0); ++i) {
    dids.push_back(static_cast<uds::Did>(0xF400 + i));
  }
  const auto request = uds::encode_read_data_by_identifier(dids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle(request));
  }
}
BENCHMARK(BM_UdsServerReadRequest)->Arg(1)->Arg(4)->Arg(16);

void BM_ObdDecode(benchmark::State& state) {
  const auto payload = util::from_hex("41 0C 1A F8");
  for (auto _ : state) {
    benchmark::DoNotOptimize(obd::decode_value(payload));
  }
}
BENCHMARK(BM_ObdDecode);

void BM_GpProgramEvalBatch(benchmark::State& state) {
  // The paper's KWP RPM shape, (X0 * X1) / 5, scored over a 60-point
  // dataset through the postfix tape in one batched pass — the engine's
  // hot path.
  const gp::Genome genome{{gp::Op::kDiv},
                          {gp::Op::kMul},
                          {gp::Op::kVar, 0},
                          {gp::Op::kVar, 1},
                          {gp::Op::kConst, 0, 5.0}};
  util::Rng rng(1);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.uniform(0, 255), rng.uniform(0, 255)});
  }
  const auto matrix = gp::SampleMatrix::from_rows(points, 2);
  gp::Program program;
  program.load(genome, 2);
  gp::EvalScratch scratch;
  for (auto _ : state) {
    program.eval_batch(matrix, scratch);
    double total = 0;
    for (const double p : scratch.predictions) total += p;
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_GpProgramEvalBatch);

// Per-op kernel throughput, scalar table vs AVX2 table, over a
// tape-column-sized buffer. Arg 0 selects the op; the /0 vs /1 suffix
// in the name is scalar vs SIMD.
void BM_GpKernelOp(benchmark::State& state) {
  const gp::Op op = static_cast<gp::Op>(state.range(0));
  const bool simd = state.range(1) != 0;
  if (simd && !gp::simd_supported()) {
    state.SkipWithError("AVX2 kernels not compiled/supported here");
    return;
  }
  const gp::KernelTable& table =
      simd ? *gp::avx2_kernels() : gp::scalar_kernels();
  constexpr std::size_t kN = 256;
  util::Rng rng(4);
  std::vector<double> a(kN), b(kN), dst(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = rng.uniform(-300.0, 300.0);
    b[i] = rng.uniform(-300.0, 300.0);
  }
  for (auto _ : state) {
    if (gp::arity(op) == 1) {
      table.unary(op, dst.data(), a.data(), kN);
    } else {
      table.binary(op, dst.data(), a.data(), b.data(), kN);
    }
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_GpKernelOp)
    ->ArgNames({"op", "simd"})
    ->Args({static_cast<int>(gp::Op::kAdd), 0})
    ->Args({static_cast<int>(gp::Op::kAdd), 1})
    ->Args({static_cast<int>(gp::Op::kMul), 0})
    ->Args({static_cast<int>(gp::Op::kMul), 1})
    ->Args({static_cast<int>(gp::Op::kDiv), 0})
    ->Args({static_cast<int>(gp::Op::kDiv), 1})
    ->Args({static_cast<int>(gp::Op::kLog), 0})
    ->Args({static_cast<int>(gp::Op::kLog), 1})
    ->Args({static_cast<int>(gp::Op::kSqrt), 0})
    ->Args({static_cast<int>(gp::Op::kSqrt), 1});

void BM_GpProgramCompile(benchmark::State& state) {
  // Per-offspring lowering cost: load genomes into warm buffers, the way
  // each worker's scratch program is reused across a scoring chunk.
  util::Rng rng(3);
  std::vector<gp::Genome> genomes(64);
  for (auto& genome : genomes) gp::random_genome(rng, 2, 4, false, genome);
  gp::Program program;
  for (auto _ : state) {
    for (const auto& genome : genomes) {
      program.load(genome, 2);
      benchmark::DoNotOptimize(program.size());
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_GpProgramCompile);

void BM_GpInferAffine(benchmark::State& state) {
  correlate::Dataset dataset;
  dataset.n_vars = 1;
  util::Rng rng(2);
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform(0, 255);
    dataset.points.push_back(correlate::DataPoint{{x}, 0.75 * x - 48.0});
  }
  gp::GpConfig config;
  config.population = 128;
  config.max_generations = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp::infer_formula(dataset, config));
  }
}
BENCHMARK(BM_GpInferAffine)->Unit(benchmark::kMillisecond);

void BM_BusDelivery(benchmark::State& state) {
  for (auto _ : state) {
    util::SimClock clock;
    can::CanBus bus(clock);
    std::size_t seen = 0;
    bus.attach([&seen](const can::CanFrame&, util::SimTime) { ++seen; });
    for (int i = 0; i < 100; ++i) {
      bus.send(can::CanFrame(0x100 + (i % 32), {0x01, 0x02}));
    }
    bus.deliver_pending();
    benchmark::DoNotOptimize(seen);
  }
}
BENCHMARK(BM_BusDelivery);

// 4-wide Philox blocks/sec: arg 1 = the pipelined 4-lane body
// (util::philox4), arg 2 = the one-lane scalar reference it must match.
// One iteration = one 4-lane block (arg 2 runs the reference four times
// for comparability). The arg numbers keep the result names stable.
void BM_SimdPhiloxBlock(benchmark::State& state) {
  const util::Philox4Fn fn = util::philox4();
  const std::uint64_t key = 0x9E3779B97F4A7C15ULL;
  std::uint64_t c0[4] = {0, 1, 2, 3};
  const std::uint64_t c1[4] = {7, 7, 7, 7};
  std::uint64_t out[4];
  if (state.range(0) == 2) {
    for (auto _ : state) {
      for (int lane = 0; lane < 4; ++lane) {
        out[lane] = util::philox2x64(key, c0[lane], c1[lane]);
      }
      benchmark::DoNotOptimize(out);
      c0[0] += 4;
    }
  } else {
    for (auto _ : state) {
      fn(key, c0, c1, out);
      benchmark::DoNotOptimize(out);
      c0[0] += 4;
    }
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_SimdPhiloxBlock)->Arg(1)->Arg(2);

// Per-DLC wire-time table lookup vs the pre-overhaul per-frame double
// math it replaced (arg 0 = table via CanBus::frame_time, arg 1 = the
// original expression).
void BM_FrameTime(benchmark::State& state) {
  util::SimClock clock;
  can::CanBus bus(clock);
  can::CanFrame frames[9] = {
      can::CanFrame(0x100, {}),
      can::CanFrame(0x100, {1}),
      can::CanFrame(0x100, {1, 2}),
      can::CanFrame(0x100, {1, 2, 3}),
      can::CanFrame(0x100, {1, 2, 3, 4}),
      can::CanFrame(0x100, {1, 2, 3, 4, 5}),
      can::CanFrame(0x100, {1, 2, 3, 4, 5, 6}),
      can::CanFrame(0x100, {1, 2, 3, 4, 5, 6, 7}),
      can::CanFrame(0x100, {1, 2, 3, 4, 5, 6, 7, 8}),
  };
  std::size_t i = 0;
  if (state.range(0) == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(bus.frame_time(frames[i]));
      i = (i + 1) % 9;
    }
  } else {
    for (auto _ : state) {
      const double bits =
          (47.0 + 8.0 * static_cast<double>(frames[i].dlc())) * 1.19;
      benchmark::DoNotOptimize(
          static_cast<util::SimTime>(bits / 500000.0 * 1e6));
      i = (i + 1) % 9;
    }
  }
}
BENCHMARK(BM_FrameTime)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
