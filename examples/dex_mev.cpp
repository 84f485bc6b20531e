// DEX / MEV demo: what reordering resistance is worth in dollars. Victim
// traders swap against a constant-product AMM; a Byzantine consensus node
// sandwiches every trade it can see. We execute the *committed* transaction
// streams of Pompē and Lyra through identical AMMs and compare the
// attacker's extracted value (Daian et al. [10] estimate such extraction
// at hundreds of millions of dollars on Ethereum).

#include <cstdio>
#include <map>
#include <set>

#include "app/amm.hpp"
#include "attacks/frontrun.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"

using namespace lyra;

namespace {

constexpr double kVictimQuote = 5'000.0;  // victim buys 5k quote per trade
constexpr double kAttackQuote = 2'500.0;  // attacker's sandwich size

/// Executes an ordered stream of (is_attack, index) trades through an AMM.
/// The attacker buys when its front leg executes and sells immediately
/// after the matching victim's trade (back-running is always possible).
double attacker_profit(const std::vector<std::pair<bool, int>>& stream) {
  app::Amm amm(100'000.0, 100'000.0, 30.0);
  std::map<int, double> open_legs;   // front legs awaiting their victim
  std::set<int> victims_executed;
  double profit = 0.0;
  for (const auto& [is_attack, k] : stream) {
    if (is_attack) {
      const double base = amm.buy_base(kAttackQuote);
      profit -= kAttackQuote;
      if (victims_executed.contains(k)) {
        // The front-run failed: the victim already traded. The attacker
        // exits immediately, eating the fee and its own slippage.
        profit += amm.sell_base(base);
      } else {
        open_legs[k] = base;
      }
    } else {
      amm.buy_base(kVictimQuote);  // victim's trade
      victims_executed.insert(k);
      if (const auto it = open_legs.find(k); it != open_legs.end()) {
        profit += amm.sell_base(it->second);  // back-run: close the leg
        open_legs.erase(it);
      }
    }
  }
  // Legs whose victim never committed: exit at the end.
  for (const auto& [k, base] : open_legs) profit += amm.sell_base(base);
  return profit;
}

/// Parses committed payloads into the ordered trade stream.
std::vector<std::pair<bool, int>> stream_from_payloads(
    const std::vector<BytesView>& payloads) {
  std::vector<std::pair<bool, int>> stream;
  for (BytesView p : payloads) {
    const std::string_view text = as_string_view(p);
    for (std::size_t pos = 0; pos < text.size(); ++pos) {
      for (const auto& [marker, is_attack] :
           {std::pair{attacks::kVictimMarker, false},
            std::pair{attacks::kAttackMarker, true}}) {
        if (text.substr(pos, marker.size()) == marker) {
          int k = 0;
          std::size_t q = pos + marker.size();
          bool any = false;
          while (q < text.size() && text[q] >= '0' && text[q] <= '9') {
            k = k * 10 + (text[q] - '0');
            ++q;
            any = true;
          }
          if (any) stream.emplace_back(is_attack, k);
        }
      }
    }
  }
  return stream;
}

}  // namespace

int main() {
  constexpr std::size_t kTrades = 15;

  // --- Pompē ---
  double pompe_profit = 0.0;
  {
    harness::PompeClusterOptions opts;
    opts.config.n = 7;
    opts.config.f = 2;
    opts.config.delta = ms(140);
    opts.config.batch_timeout = ms(5);
    opts.config.batch_size = 4;
    opts.topology = net::fig1_topology(1);
    opts.seed = 31;
    opts.node_factory = [](sim::Simulation* sim, net::Network* net,
                           NodeId id, const pompe::PompeConfig& cfg,
                           const crypto::KeyRegistry* reg)
        -> std::unique_ptr<pompe::PompeNode> {
      if (id == 1) {
        return std::make_unique<attacks::FrontRunningPompeNode>(sim, net,
                                                                id, cfg,
                                                                reg);
      }
      return std::make_unique<pompe::PompeNode>(sim, net, id, cfg, reg);
    };
    harness::PompeCluster cluster(opts);
    cluster.adopt_process(std::make_unique<attacks::AliceClient>(
        &cluster.simulation(), &cluster.network(),
        cluster.next_process_id(), 0, ms(100), ms(350), kTrades));
    cluster.start();
    cluster.run_for(ms(350.0 * kTrades + 4000));

    std::vector<BytesView> payloads;
    for (const auto& c : cluster.node(2).ledger()) {
      if (const Bytes* p = cluster.node(2).batch_payload(c.batch_digest)) {
        payloads.push_back(*p);
      }
    }
    pompe_profit = attacker_profit(stream_from_payloads(payloads));
  }

  // --- Lyra ---
  double lyra_profit = 0.0;
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
    opts.seed = 33;
    opts.node_factory = [](sim::Simulation* sim, net::Network* net,
                           NodeId id, const core::Config& cfg,
                           const crypto::KeyRegistry* reg)
        -> std::unique_ptr<core::LyraNode> {
      if (id == 1) {
        return std::make_unique<attacks::FrontRunningLyraNode>(sim, net, id,
                                                               cfg, reg);
      }
      return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
    };
    harness::LyraCluster cluster(opts);
    cluster.adopt_process(std::make_unique<attacks::AliceClient>(
        &cluster.simulation(), &cluster.network(),
        cluster.next_process_id(), 0, ms(600), ms(450), kTrades));
    cluster.start();
    cluster.run_for(ms(450.0 * kTrades + 5000));

    std::vector<BytesView> payloads;
    for (const auto& c : cluster.node(2).ledger()) {
      payloads.push_back(c.payload_bytes());
    }
    lyra_profit = attacker_profit(stream_from_payloads(payloads));
  }

  std::printf("Sandwich attacker against %zu victim trades of %.0f quote "
              "each:\n\n",
              kTrades, kVictimQuote);
  std::printf("  %-22s %12s\n", "ordering layer", "MEV extracted");
  std::printf("  %-22s %12.2f\n", "Pompe (clear text)", pompe_profit);
  std::printf("  %-22s %12.2f\n", "Lyra (commit-reveal)", lyra_profit);
  std::printf("\nUnder Lyra the attacker's front leg lands *after* the "
              "victim's trade,\nso every sandwich attempt pays the fee and "
              "the slippage for nothing.\n");
  return 0;
}
