// Front-running demo (the paper's Figure 1): Alice in Tokyo submits a
// transaction; Mallory, a Byzantine consensus node in Singapore, watches
// the mempool traffic and reacts. Because WAN latencies violate the
// triangle inequality, Mallory's dependent transaction reaches the
// timestamping quorum (Mumbai) before Alice's original.
//
// On Pompē the payload travels in the clear during the ordering phase, so
// Mallory front-runs at will. On Lyra she sees only a VSS ciphertext and
// learns the payload when it is already committed — too late.

#include <cstdio>

#include "attacks/frontrun.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"

using namespace lyra;

int main() {
  std::printf("The triangle inequality violation (one-way means):\n");
  std::printf("  Tokyo -> Mumbai directly:          %5.1f ms\n",
              to_ms(net::region_latency(net::Region::kTokyo,
                                        net::Region::kMumbai)));
  std::printf("  Tokyo -> Singapore -> Mumbai:      %5.1f ms  <- faster!\n\n",
              to_ms(net::region_latency(net::Region::kTokyo,
                                        net::Region::kSingapore) +
                    net::region_latency(net::Region::kSingapore,
                                        net::Region::kMumbai)));

  constexpr std::size_t kVictims = 10;

  // --- Pompē: ordering is fair (median of 2f+1 signed timestamps), but
  // --- the payload is public from the first broadcast.
  {
    harness::PompeClusterOptions opts;
    opts.config.n = 7;
    opts.config.f = 2;
    opts.config.delta = ms(140);
    opts.config.batch_timeout = ms(5);
    opts.config.batch_size = 4;
    opts.topology = net::fig1_topology(1);
    opts.seed = 99;
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
        &cluster.simulation(), &cluster.network(),
        cluster.next_process_id(), /*target=*/0, ms(100), ms(350),
        kVictims));
    cluster.start();
    cluster.run_for(ms(8000));

    const auto outcome = attacks::evaluate_pompe_frontrun(cluster.node(2));
    std::printf("Pompe: Mallory read %zu/%zu payloads before commit\n",
                mallory->observed_victims(), kVictims);
    std::printf("Pompe: %zu/%zu victim transactions were front-run\n\n",
                outcome.front_run_successes, outcome.victims_committed);
  }

  // --- Lyra: same geometry, same attacker — but commit-reveal.
  {
    harness::LyraClusterOptions opts;
    opts.config.n = 7;
    opts.config.f = 2;
    opts.config.delta = ms(160);
    opts.config.lambda = ms(12);
    opts.config.batch_timeout = ms(5);
    opts.config.batch_size = 4;
    opts.config.probe_period = ms(40);
    opts.topology = net::fig1_topology(1);
    opts.seed = 101;
    attacks::FrontRunningLyraNode* mallory = nullptr;
    opts.node_factory = [&mallory](sim::Simulation* sim, net::Network* net,
                                   NodeId id, const core::Config& cfg,
                                   const crypto::KeyRegistry* reg)
        -> std::unique_ptr<core::LyraNode> {
      if (id == 1) {
        auto node = std::make_unique<attacks::FrontRunningLyraNode>(
            sim, net, id, cfg, reg);
        mallory = node.get();
        return node;
      }
      return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
    };
    harness::LyraCluster cluster(opts);
    cluster.adopt_process(std::make_unique<attacks::AliceClient>(
        &cluster.simulation(), &cluster.network(),
        cluster.next_process_id(), /*target=*/0, ms(600), ms(450),
        kVictims));
    cluster.start();
    cluster.run_for(ms(10000));

    const auto outcome = attacks::evaluate_lyra_frontrun(cluster.node(2));
    std::printf("Lyra:  Mallory scanned %zu ciphertexts, read %zu payloads "
                "before commit\n",
                mallory->ciphers_scanned(),
                mallory->payloads_readable_before_commit());
    std::printf("Lyra:  %zu/%zu victim transactions were front-run\n",
                outcome.front_run_successes, outcome.victims_committed);
    std::printf("Lyra:  (her reactions commit %zu times, but always "
                "*after* their victims)\n",
                outcome.attacks_committed);
  }
  return 0;
}
