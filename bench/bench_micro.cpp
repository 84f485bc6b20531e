// Micro-benchmarks of the substrates (google-benchmark): cryptographic
// primitives and the discrete-event core. These bound how much simulated
// traffic a host-second can push — useful when sizing new experiments.

#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "crypto/shamir.hpp"
#include "crypto/sha256.hpp"
#include "crypto/vss.hpp"
#include "sim/event_queue.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace lyra;
using namespace lyra::crypto;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(25600);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes msg(64, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, msg));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_SignVerify(benchmark::State& state) {
  Rng rng(1);
  KeyRegistry registry(4, 3, rng);
  const Signer signer = registry.signer_for(0);
  const Bytes msg(32, 0x33);
  const Signature sig = signer.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.verify(msg, sig, 0));
  }
}
BENCHMARK(BM_SignVerify);

void BM_ShamirSplit(benchmark::State& state) {
  Rng rng(2);
  const Bytes secret(32, 0x44);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t k = 2 * ((n - 1) / 3) + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Shamir::split(secret, n, k, rng));
  }
}
BENCHMARK(BM_ShamirSplit)->Arg(4)->Arg(31)->Arg(100);

void BM_ShamirCombine(benchmark::State& state) {
  Rng rng(3);
  const Bytes secret(32, 0x55);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t k = 2 * ((n - 1) / 3) + 1;
  const auto shares = Shamir::split(secret, n, k, rng);
  const std::vector<ShamirShare> subset(shares.begin(), shares.begin() + k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Shamir::combine(subset, k));
  }
}
BENCHMARK(BM_ShamirCombine)->Arg(4)->Arg(31)->Arg(100);

void BM_VssEncrypt(benchmark::State& state) {
  Rng rng(4);
  KeyRegistry registry(16, 11, rng);
  Vss vss(&registry, 16, 11);
  Bytes payload(static_cast<std::size_t>(state.range(0)), 0x66);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vss.encrypt(payload, rng));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VssEncrypt)->Arg(1024)->Arg(25600);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(i * 7 % 997, [] {});
    }
    TimeNs clock = 0;
    while (q.run_next_until(std::numeric_limits<TimeNs>::max(), clock)) {
    }
    benchmark::DoNotOptimize(clock);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueFanOut(benchmark::State& state) {
  // One broadcast to state.range(0) receivers at distinct WAN-like times,
  // scheduled and drained through a directory with no live processes, so
  // the figure is the queue's own cost per delivery.
  struct Vacant final : sim::ProcessDirectory {
    sim::Process* process_at(NodeId) const override { return nullptr; }
  };
  struct Ping final : sim::Payload {
    const char* name() const override { return "PING"; }
  };
  const auto n = static_cast<NodeId>(state.range(0));
  Vacant dir;
  const sim::PayloadPtr payload = std::make_shared<Ping>();
  std::vector<sim::Receiver> receivers(n);
  sim::EventQueue q;
  TimeNs clock = 0;
  for (auto _ : state) {
    for (NodeId to = 0; to < n; ++to) {
      receivers[to] = sim::Receiver{to, clock + ms(30) + us(to * 37 % 500)};
    }
    q.schedule_deliveries(&dir, 0, clock, payload, receivers);
    while (q.run_next_until(std::numeric_limits<TimeNs>::max(), clock)) {
    }
  }
  benchmark::DoNotOptimize(q.deliveries_dropped());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueFanOut)->Arg(48);

void BM_EventQueueTimerChurn(benchmark::State& state) {
  // Pompe's view-timeout shape: a timeout armed past the ~537 ms calendar
  // horizon, then deliveries, then the timeout cancelled and re-armed, so
  // most timers die unfired. One step is one such round of 8 deliveries.
  struct Vacant final : sim::ProcessDirectory {
    sim::Process* process_at(NodeId) const override { return nullptr; }
  };
  Vacant dir;
  std::vector<sim::Receiver> receivers(8);
  sim::EventQueue q;
  TimeNs clock = 0;
  std::uint64_t timeout = q.schedule_at(ms(1000), [] {});
  for (auto _ : state) {
    for (NodeId to = 0; to < receivers.size(); ++to) {
      receivers[to] = sim::Receiver{to, clock + ms(30) + us(to * 37)};
    }
    q.schedule_deliveries(&dir, 0, clock, nullptr, receivers);
    for (std::size_t i = 0; i < receivers.size(); ++i) {
      q.run_next_until(std::numeric_limits<TimeNs>::max(), clock);
    }
    q.cancel(timeout);
    timeout = q.schedule_at(clock + ms(1000), [] {});
  }
  benchmark::DoNotOptimize(q.deliveries_dropped());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueTimerChurn);

void BM_SimulationMessageRoundtrip(benchmark::State& state) {
  // End-to-end cost of one simulated message (schedule + deliver).
  struct Sink final : sim::Process {
    using sim::Process::Process;
    void on_message(const sim::Envelope&) override {}
  };
  struct Loopback final : sim::Transport, sim::ProcessDirectory {
    void send(NodeId, NodeId, sim::PayloadPtr) override {}
    std::size_t node_count() const override { return 1; }
    sim::Process* process_at(NodeId) const override { return sink; }
    sim::Process* sink = nullptr;
  };
  struct Ping final : sim::Payload {
    const char* name() const override { return "PING"; }
  };
  sim::Simulation simulation(1);
  Loopback transport;
  Sink sink(&simulation, &transport, 0);
  transport.sink = &sink;
  const auto payload = std::make_shared<Ping>();
  for (auto _ : state) {
    const sim::Receiver self{0, simulation.now() + 1};
    simulation.schedule_deliveries(&transport, 0, payload, {&self, 1});
    simulation.run_all();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulationMessageRoundtrip);

}  // namespace

BENCHMARK_MAIN();
