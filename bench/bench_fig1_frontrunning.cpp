// Reproduces Figure 1 (§I): triangle-inequality violations in WAN
// latencies let an attacker front-run despite fair ordering — unless the
// payload is hidden until commit.
//
// Three measurements on the Fig. 1 geometry (Alice in Tokyo, Mallory in
// Singapore, Carole + the quorum mass in Mumbai):
//   (1) the raw network phenomenon: how often Carole *receives* Mallory's
//       reaction t2 before Alice's original t1 (pure latency race);
//   (2) Pompē: clear-text phase-1 payloads leak to Mallory; how often her
//       dependent transaction is *committed* before the victim's;
//   (3) Lyra: the same attacker sees only VSS ciphertexts; payload
//       readability before commit and front-run success must both be zero.

#include <cstdio>

#include "attacks/frontrun.hpp"
#include "bench_common.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"

using namespace lyra;

namespace {

/// (1) The pure latency race of Fig. 1, sampled from the latency model.
double receive_order_success_rate(int trials) {
  const net::Topology topo = net::fig1_topology(1);
  const auto model = topo.make_latency_model();
  Rng rng(7);
  // Process ids in the topology: Alice=7, Mallory=1, Carole=2 (Mumbai).
  int wins = 0;
  for (int i = 0; i < trials; ++i) {
    const TimeNs t1_at_carole = model->sample(7, 2, rng);
    const TimeNs reaction = us(200);  // Mallory's processing time
    const TimeNs t2_at_carole =
        model->sample(7, 1, rng) + reaction + model->sample(1, 2, rng);
    if (t2_at_carole < t1_at_carole) ++wins;
  }
  return static_cast<double>(wins) / trials;
}

struct SystemOutcome {
  double leak_rate = 0.0;       // payload readable pre-commit at Mallory
  double front_run_rate = 0.0;  // attack committed before its victim
  std::size_t victims = 0;
};

SystemOutcome run_pompe(std::size_t victims) {
  harness::PompeClusterOptions opts;
  opts.config.n = 7;
  opts.config.f = 2;
  opts.config.delta = ms(140);
  opts.config.batch_timeout = ms(5);
  opts.config.batch_size = 4;
  opts.topology = net::fig1_topology(1);
  opts.seed = 77;
  attacks::FrontRunningPompeNode* mallory = nullptr;
  opts.node_factory = [&mallory](sim::Simulation* sim, net::Network* net,
                                 NodeId id, const pompe::PompeConfig& cfg,
                                 const crypto::KeyRegistry* reg)
      -> std::unique_ptr<pompe::PompeNode> {
    if (id == 1) {
      auto node = std::make_unique<attacks::FrontRunningPompeNode>(
          sim, net, id, cfg, reg);
      mallory = node.get();
      return node;
    }
    return std::make_unique<pompe::PompeNode>(sim, net, id, cfg, reg);
  };
  harness::PompeCluster cluster(opts);
  cluster.adopt_process(std::make_unique<attacks::AliceClient>(
      &cluster.simulation(), &cluster.network(), cluster.next_process_id(),
      /*target=*/0, ms(100), ms(350), victims));
  cluster.start();
  cluster.run_for(ms(400.0 * victims + 4000));

  const auto outcome = attacks::evaluate_pompe_frontrun(cluster.node(2));
  SystemOutcome out;
  out.victims = outcome.victims_committed;
  out.leak_rate = static_cast<double>(mallory->observed_victims()) / victims;
  if (outcome.victims_committed > 0) {
    out.front_run_rate = static_cast<double>(outcome.front_run_successes) /
                         outcome.victims_committed;
  }
  return out;
}

SystemOutcome run_lyra(std::size_t victims) {
  harness::LyraClusterOptions opts;
  opts.config.n = 7;
  opts.config.f = 2;
  opts.config.delta = ms(160);
  opts.config.lambda = ms(12);
  opts.config.batch_timeout = ms(5);
  opts.config.batch_size = 4;
  opts.config.probe_period = ms(40);
  opts.topology = net::fig1_topology(1);
  opts.seed = 79;
  attacks::FrontRunningLyraNode* mallory = nullptr;
  opts.node_factory = [&mallory](sim::Simulation* sim, net::Network* net,
                                 NodeId id, const core::Config& cfg,
                                 const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id == 1) {
      auto node = std::make_unique<attacks::FrontRunningLyraNode>(sim, net,
                                                                  id, cfg,
                                                                  reg);
      mallory = node.get();
      return node;
    }
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
  harness::LyraCluster cluster(opts);
  cluster.adopt_process(std::make_unique<attacks::AliceClient>(
      &cluster.simulation(), &cluster.network(), cluster.next_process_id(),
      /*target=*/0, ms(600), ms(450), victims));
  cluster.start();
  cluster.run_for(ms(450.0 * victims + 5000));

  const auto outcome = attacks::evaluate_lyra_frontrun(cluster.node(2));
  SystemOutcome out;
  out.victims = outcome.victims_committed;
  out.leak_rate =
      static_cast<double>(mallory->payloads_readable_before_commit()) /
      victims;
  if (outcome.victims_committed > 0) {
    out.front_run_rate = static_cast<double>(outcome.front_run_successes) /
                         outcome.victims_committed;
  }
  return out;
}

}  // namespace

int main() {
  const TimeNs direct =
      net::region_latency(net::Region::kTokyo, net::Region::kMumbai);
  const TimeNs via =
      net::region_latency(net::Region::kTokyo, net::Region::kSingapore) +
      net::region_latency(net::Region::kSingapore, net::Region::kMumbai);
  bench::print_header("Figure 1: front-running via triangle-inequality "
                      "violation",
                      "scenario                                 value");
  std::printf("d(Tokyo,Mumbai) direct                  %6.1f ms\n",
              to_ms(direct));
  std::printf("d(Tokyo,SG) + d(SG,Mumbai) via Mallory  %6.1f ms  "
              "(violation: %.1f ms)\n",
              to_ms(via), to_ms(direct - via));

  const double fcfs = receive_order_success_rate(10'000);
  std::printf("receive-order race won by t2 at Carole  %5.1f %%\n",
              fcfs * 100.0);

  constexpr std::size_t kVictims = 25;
  const SystemOutcome pompe = run_pompe(kVictims);
  const SystemOutcome lyra = run_lyra(kVictims);

  std::printf("\n%-10s %22s %22s\n", "system", "payload leaked pre-commit",
              "front-run success");
  std::printf("%-10s %21.1f %% %21.1f %%\n", "pompe", pompe.leak_rate * 100,
              pompe.front_run_rate * 100);
  std::printf("%-10s %21.1f %% %21.1f %%\n", "lyra", lyra.leak_rate * 100,
              lyra.front_run_rate * 100);

  std::string csv = "system,leak_rate,front_run_rate,victims\n";
  csv += "fcfs_race," + std::to_string(fcfs) + ",,\n";
  csv += "pompe," + std::to_string(pompe.leak_rate) + "," +
         std::to_string(pompe.front_run_rate) + "," +
         std::to_string(pompe.victims) + "\n";
  csv += "lyra," + std::to_string(lyra.leak_rate) + "," +
         std::to_string(lyra.front_run_rate) + "," +
         std::to_string(lyra.victims) + "\n";
  bench::write_csv("fig1_frontrunning.csv", csv);
  return 0;
}
