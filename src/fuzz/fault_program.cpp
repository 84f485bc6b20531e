#include "fuzz/fault_program.hpp"

#include <algorithm>
#include <sstream>

#include "support/random.hpp"

namespace lyra::fuzz {

namespace {

constexpr TimeNs kWarmup = kFaultWarmup;

}  // namespace

ScenarioPlan generate_plan(std::uint64_t seed) {
  // The generator stream is derived, not the raw seed: the runner derives
  // its own streams from the same seed and the two must never collide.
  Rng rng(derive_stream(seed, 0x66757a7aULL /*"fuzz"*/, 1));
  ScenarioPlan plan;
  plan.seed = seed;
  plan.protocol =
      rng.next_bernoulli(0.15) ? Protocol::kPompe : Protocol::kLyra;
  plan.n = rng.next_bernoulli(0.3) ? 7 : 4;
  plan.clients_per_node =
      16 + 8 * static_cast<std::uint32_t>(rng.next_below(5));
  const std::uint32_t batches[] = {8, 16, 32};
  plan.batch_size = batches[rng.next_below(3)];
  // Retired axis: plans used to draw an execution thread count here. The
  // draw is kept and discarded so every seed still expands to the same
  // faults, which keeps recorded seed ranges and corpus provenance valid.
  rng.next_below(4);
  const std::uint32_t f = plan.f();

  // Open-loop mode swaps the closed-loop pools for Poisson traffic sources
  // feeding a bounded fee-priority mempool. Drawn before the resubmit and
  // duration draws because required_tail() depends on both knobs.
  if (rng.next_bernoulli(0.35)) {
    plan.mempool_capacity = 32u << rng.next_below(3);  // 32 / 64 / 128
    plan.arrival_rate =
        100 + 50 * static_cast<std::uint32_t>(rng.next_below(9));
  }

  // Resubmission applies to both protocols: a fault can push an entry out
  // of its synchrony window, and only retrying clients make the post-fault
  // progress invariant checkable. Open-loop pools carry their own retry
  // ladder, so closed-loop resubmission stays off for those plans.
  if (!plan.open_loop() && rng.next_bernoulli(0.5)) {
    plan.resubmit_timeout = ms(800) + ms(400) * rng.next_below(3);
  }
  // Warmup + a fault window + the post-fault tail must all fit; the tail
  // depends on the resubmit timeout, so the duration is drawn after it.
  plan.duration =
      plan.required_tail() + ms(2000) + ms(250) * rng.next_below(7);
  const TimeNs tail = plan.required_tail();

  if (plan.protocol == Protocol::kLyra) {
    plan.state_sync = rng.next_bernoulli(0.5);

    // Byzantine slots first: they are excluded from the crash budget.
    std::uint32_t byz_budget = f >= 2 ? rng.next_below(3)  // 0..2 at n=7
                                      : rng.next_bernoulli(0.3);
    for (NodeId node = 0; byz_budget > 0 && node < plan.n; ++node) {
      if (!rng.next_bernoulli(0.5)) continue;
      const ByzKind kinds[] = {
          ByzKind::kSilent,           ByzKind::kReplayInit,
          ByzKind::kSkewedPrediction, ByzKind::kLowballStatus,
          ByzKind::kSyncGarbage,      ByzKind::kSyncWrongManifest,
      };
      ByzKind kind = kinds[rng.next_below(6)];
      // Sync misbehaviour needs a sync protocol to misbehave in.
      if (!plan.state_sync && (kind == ByzKind::kSyncGarbage ||
                               kind == ByzKind::kSyncWrongManifest)) {
        kind = ByzKind::kSilent;
      }
      plan.byz.push_back({node, kind});
      --byz_budget;
    }
    const std::uint32_t crash_budget =
        f - static_cast<std::uint32_t>(plan.byz.size());

    // Crash/restart windows on distinct correct nodes. Windows may overlap
    // only while the number of concurrently-down nodes stays within the
    // remaining budget; a draw that would exceed it is discarded. Open-loop
    // plans exclude crashes entirely: mempool contents are not journaled,
    // so a restart would lose admitted transactions by design and every
    // liveness invariant about them would be vacuous or wrong.
    const std::size_t want_crashes =
        (crash_budget == 0 || plan.open_loop())
            ? 0
            : rng.next_below(plan.n == 4 ? 3 : 4);
    std::vector<bool> used(plan.n, false);
    for (const ByzFault& b : plan.byz) used[b.node] = true;
    for (std::size_t i = 0; i < want_crashes; ++i) {
      const NodeId node = static_cast<NodeId>(rng.next_below(plan.n));
      if (used[node]) continue;
      CrashFault c;
      c.node = node;
      const TimeNs lo = kWarmup;
      const TimeNs hi = plan.duration - tail - ms(300);
      if (hi <= lo) break;
      c.crash_at = lo + rng.next_below(static_cast<std::uint64_t>(hi - lo));
      c.restart_at = std::min<TimeNs>(c.crash_at + ms(250) + ms(50) * rng.next_below(14),
                              plan.duration - tail);
      if (rng.next_bernoulli(0.3)) c.wipe_disk = true;
      else if (rng.next_bernoulli(0.2)) c.corrupt_wal = true;
      if (c.wipe_disk || c.corrupt_wal) plan.state_sync = true;
      plan.crashes.push_back(c);
      if (harness::max_concurrent_down(plan.crashes) > crash_budget) {
        plan.crashes.pop_back();
        continue;
      }
      used[node] = true;
    }
    std::sort(plan.crashes.begin(), plan.crashes.end(),
              [](const CrashFault& a, const CrashFault& b) {
                return a.crash_at < b.crash_at;
              });
  }

  // Partition windows. When crashes exist, half the windows are *coupled*:
  // the crashed nodes form one side and the window straddles a restart, so
  // recovering nodes resync through a degraded view — the schedule family
  // the resync gate and state sync exist for.
  const std::uint32_t full_mask = (1u << plan.n) - 1;
  const std::size_t want_partitions = rng.next_below(3);
  for (std::size_t i = 0; i < want_partitions; ++i) {
    PartitionFault p;
    if (!plan.crashes.empty() && rng.next_bernoulli(0.5)) {
      for (const CrashFault& c : plan.crashes) p.side_mask |= 1u << c.node;
      const CrashFault& anchor =
          plan.crashes[rng.next_below(plan.crashes.size())];
      p.from = std::max<TimeNs>(
          kWarmup, anchor.restart_at - ms(50) * static_cast<TimeNs>(rng.next_below(5)));
      p.to = std::min<TimeNs>(p.from + ms(300) + ms(100) * rng.next_below(7),
                      plan.duration - tail);
    } else {
      p.side_mask = static_cast<std::uint32_t>(
                        rng.next_below(full_mask - 1)) + 1;  // 1..full-1
      const TimeNs lo = kWarmup;
      const TimeNs hi = plan.duration - tail - ms(200);
      if (hi <= lo) break;
      p.from = lo + rng.next_below(static_cast<std::uint64_t>(hi - lo));
      p.to = std::min<TimeNs>(p.from + ms(200) + ms(100) * rng.next_below(7),
                      plan.duration - tail);
    }
    if (p.side_mask == 0 || p.side_mask == full_mask || p.to <= p.from) {
      continue;
    }
    plan.partitions.push_back(p);
  }

  // Targeted delay bursts, biased toward recovering nodes.
  const std::size_t want_delays = rng.next_below(3);
  for (std::size_t i = 0; i < want_delays; ++i) {
    DelayFault d;
    if (!plan.crashes.empty() && rng.next_bernoulli(0.4)) {
      d.victim = plan.crashes[rng.next_below(plan.crashes.size())].node;
    } else if (rng.next_bernoulli(0.6)) {
      d.victim = static_cast<NodeId>(rng.next_below(plan.n));
    }  // else kNoNode: everyone
    const TimeNs lo = kWarmup;
    const TimeNs hi = plan.duration - tail - ms(200);
    if (hi <= lo) break;
    d.from = lo + rng.next_below(static_cast<std::uint64_t>(hi - lo));
    d.to = std::min<TimeNs>(d.from + ms(200) + ms(150) * rng.next_below(6),
                    plan.duration - tail);
    d.max_extra = ms(50) + ms(50) * rng.next_below(8);
    if (d.to <= d.from) continue;
    plan.delays.push_back(d);
  }

  // Open-loop workload faults: fee spikes reorder the mempool under its
  // incumbents, overflow ticks slam admission with a burst, flaps shrink
  // capacity mid-run and force the eviction/backpressure path.
  if (plan.open_loop()) {
    const TimeNs lo = kWarmup;
    const TimeNs hi = plan.duration - tail - ms(200);
    if (hi > lo) {
      const auto window_start = [&]() {
        return lo + rng.next_below(static_cast<std::uint64_t>(hi - lo));
      };
      const std::size_t want_spikes = rng.next_below(2);
      for (std::size_t i = 0; i < want_spikes; ++i) {
        FeeSpikeFault s;
        s.from = window_start();
        s.to = std::min<TimeNs>(s.from + ms(200) + ms(100) * rng.next_below(5),
                                plan.duration - tail);
        s.mult = 2 + static_cast<std::uint32_t>(rng.next_below(7));
        if (s.to <= s.from) continue;
        plan.fee_spikes.push_back(s);
      }
      const std::size_t want_overflows = rng.next_below(3);
      for (std::size_t i = 0; i < want_overflows; ++i) {
        OverflowFault o;
        o.at = window_start();
        o.txs = plan.mempool_capacity *
                (1 + static_cast<std::uint32_t>(rng.next_below(3)));
        plan.overflows.push_back(o);
      }
      const std::size_t want_flaps = rng.next_below(2);
      for (std::size_t i = 0; i < want_flaps; ++i) {
        FlapFault fl;
        fl.from = window_start();
        fl.to = std::min<TimeNs>(
            fl.from + ms(150) + ms(100) * rng.next_below(4),
            plan.duration - tail);
        fl.capacity = std::max<std::uint32_t>(
            1, plan.mempool_capacity >>
                   (1 + static_cast<std::uint32_t>(rng.next_below(3))));
        if (fl.to <= fl.from) continue;
        plan.flaps.push_back(fl);
      }
    }
  }

  return plan;
}

std::string serialize_plan(const ScenarioPlan& plan) {
  std::ostringstream out;
  out << "lyra-fuzz-plan v1\n";
  out << "seed " << plan.seed << "\n";
  out << "protocol " << harness::protocol_name(plan.protocol) << "\n";
  out << "n " << plan.n << "\n";
  out << "clients " << plan.clients_per_node << "\n";
  out << "batch " << plan.batch_size << "\n";
  out << "duration_ms " << plan.duration / kNsPerMs << "\n";
  out << "state_sync " << (plan.state_sync ? 1 : 0) << "\n";
  out << "resubmit_ms " << plan.resubmit_timeout / kNsPerMs << "\n";
  if (plan.open_loop()) {
    out << "mempool " << plan.mempool_capacity << "\n";
    out << "arrival_rate " << plan.arrival_rate << "\n";
  }
  for (const CrashFault& c : plan.crashes) {
    out << "crash node=" << c.node << " crash_ms=" << c.crash_at / kNsPerMs
        << " restart_ms=" << c.restart_at / kNsPerMs
        << " wipe=" << (c.wipe_disk ? 1 : 0)
        << " corrupt=" << (c.corrupt_wal ? 1 : 0) << "\n";
  }
  for (const PartitionFault& p : plan.partitions) {
    out << "partition from_ms=" << p.from / kNsPerMs
        << " to_ms=" << p.to / kNsPerMs << " mask=" << p.side_mask << "\n";
  }
  for (const DelayFault& d : plan.delays) {
    out << "delay from_ms=" << d.from / kNsPerMs
        << " to_ms=" << d.to / kNsPerMs
        << " extra_ms=" << d.max_extra / kNsPerMs << " victim=";
    if (d.victim == kNoNode) out << "all";
    else out << d.victim;
    out << "\n";
  }
  for (const ByzFault& b : plan.byz) {
    out << "byz node=" << b.node << " kind=" << to_string(b.kind) << "\n";
  }
  for (const FeeSpikeFault& s : plan.fee_spikes) {
    out << "fee_spike from_ms=" << s.from / kNsPerMs
        << " to_ms=" << s.to / kNsPerMs << " mult=" << s.mult << "\n";
  }
  for (const OverflowFault& o : plan.overflows) {
    out << "overflow at_ms=" << o.at / kNsPerMs << " txs=" << o.txs << "\n";
  }
  for (const FlapFault& fl : plan.flaps) {
    out << "flap from_ms=" << fl.from / kNsPerMs
        << " to_ms=" << fl.to / kNsPerMs << " capacity=" << fl.capacity
        << "\n";
  }
  return out.str();
}

namespace {

/// "key=value" tokens after the directive word; returns false on any
/// malformed token so corpus typos surface as parse errors, not zeros.
bool split_kv(std::istringstream& line,
              std::vector<std::pair<std::string, std::string>>& out) {
  std::string token;
  while (line >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      return false;
    }
    out.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return !out.empty();
}

bool to_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  out = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
    if (out > (UINT64_MAX - (ch - '0')) / 10) return false;
    out = out * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return true;
}

}  // namespace

bool parse_plan(const std::string& text, ScenarioPlan& plan,
                std::string& error) {
  plan = ScenarioPlan{};
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  // Comment/blank lines may precede the header (annotated corpus files).
  bool have_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    have_header = line == "lyra-fuzz-plan v1";
    break;
  }
  if (!have_header) {
    error = "missing header 'lyra-fuzz-plan v1'";
    return false;
  }
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    const auto fail = [&](const std::string& why) {
      error = "line " + std::to_string(lineno) + ": " + why;
      return false;
    };
    const auto scalar_u64 = [&](std::uint64_t& out) {
      std::string value;
      if (!(ls >> value)) return false;
      return to_u64(value, out);
    };
    std::uint64_t v = 0;
    if (word == "seed") {
      if (!scalar_u64(v)) return fail("bad seed");
      plan.seed = v;
    } else if (word == "protocol") {
      std::string value;
      ls >> value;
      if (!harness::protocol_from_string(value, plan.protocol)) {
        return fail("unknown protocol '" + value + "'");
      }
    } else if (word == "n") {
      if (!scalar_u64(v)) return fail("bad n");
      plan.n = static_cast<std::uint32_t>(v);
    } else if (word == "clients") {
      if (!scalar_u64(v)) return fail("bad clients");
      plan.clients_per_node = static_cast<std::uint32_t>(v);
    } else if (word == "batch") {
      if (!scalar_u64(v)) return fail("bad batch");
      plan.batch_size = static_cast<std::uint32_t>(v);
    } else if (word == "duration_ms") {
      if (!scalar_u64(v)) return fail("bad duration_ms");
      plan.duration = static_cast<TimeNs>(v) * kNsPerMs;
    } else if (word == "threads") {
      // Retired execution-thread axis: older artifacts still carry it.
      if (!scalar_u64(v)) return fail("bad threads");
    } else if (word == "state_sync") {
      if (!scalar_u64(v) || v > 1) return fail("bad state_sync");
      plan.state_sync = v == 1;
    } else if (word == "resubmit_ms") {
      if (!scalar_u64(v)) return fail("bad resubmit_ms");
      plan.resubmit_timeout = static_cast<TimeNs>(v) * kNsPerMs;
    } else if (word == "mempool") {
      if (!scalar_u64(v)) return fail("bad mempool");
      plan.mempool_capacity = static_cast<std::uint32_t>(v);
    } else if (word == "arrival_rate") {
      if (!scalar_u64(v)) return fail("bad arrival_rate");
      plan.arrival_rate = static_cast<std::uint32_t>(v);
    } else if (word == "fee_spike" || word == "overflow" || word == "flap") {
      std::vector<std::pair<std::string, std::string>> kv;
      if (!split_kv(ls, kv)) return fail("malformed key=value list");
      FeeSpikeFault s;
      OverflowFault o;
      FlapFault fl;
      for (const auto& [key, value] : kv) {
        std::uint64_t num = 0;
        if (!to_u64(value, num)) return fail("bad " + word + " field '" + key + "'");
        if (word == "fee_spike") {
          if (key == "from_ms") s.from = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "to_ms") s.to = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "mult") s.mult = static_cast<std::uint32_t>(num);
          else return fail("bad fee_spike field '" + key + "'");
        } else if (word == "overflow") {
          if (key == "at_ms") o.at = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "txs") o.txs = static_cast<std::uint32_t>(num);
          else return fail("bad overflow field '" + key + "'");
        } else {  // flap
          if (key == "from_ms") fl.from = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "to_ms") fl.to = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "capacity")
            fl.capacity = static_cast<std::uint32_t>(num);
          else return fail("bad flap field '" + key + "'");
        }
      }
      if (word == "fee_spike") plan.fee_spikes.push_back(s);
      else if (word == "overflow") plan.overflows.push_back(o);
      else plan.flaps.push_back(fl);
    } else if (word == "crash" || word == "partition" || word == "delay" ||
               word == "byz") {
      std::vector<std::pair<std::string, std::string>> kv;
      if (!split_kv(ls, kv)) return fail("malformed key=value list");
      CrashFault c;
      PartitionFault p;
      DelayFault d;
      ByzFault b;
      for (const auto& [key, value] : kv) {
        std::uint64_t num = 0;
        const bool is_num = to_u64(value, num);
        if (word == "crash") {
          if (key == "node" && is_num) c.node = static_cast<NodeId>(num);
          else if (key == "crash_ms" && is_num)
            c.crash_at = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "restart_ms" && is_num)
            c.restart_at = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "wipe" && is_num && num <= 1) c.wipe_disk = num == 1;
          else if (key == "corrupt" && is_num && num <= 1)
            c.corrupt_wal = num == 1;
          else return fail("bad crash field '" + key + "'");
        } else if (word == "partition") {
          if (key == "from_ms" && is_num)
            p.from = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "to_ms" && is_num)
            p.to = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "mask" && is_num)
            p.side_mask = static_cast<std::uint32_t>(num);
          else return fail("bad partition field '" + key + "'");
        } else if (word == "delay") {
          if (key == "from_ms" && is_num)
            d.from = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "to_ms" && is_num)
            d.to = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "extra_ms" && is_num)
            d.max_extra = static_cast<TimeNs>(num) * kNsPerMs;
          else if (key == "victim" && value == "all") d.victim = kNoNode;
          else if (key == "victim" && is_num)
            d.victim = static_cast<NodeId>(num);
          else return fail("bad delay field '" + key + "'");
        } else {  // byz
          if (key == "node" && is_num) b.node = static_cast<NodeId>(num);
          else if (key == "kind") {
            if (!byz_kind_from_string(value, b.kind)) {
              return fail("unknown byz kind '" + value + "'");
            }
          } else return fail("bad byz field '" + key + "'");
        }
      }
      if (word == "crash") plan.crashes.push_back(c);
      else if (word == "partition") plan.partitions.push_back(p);
      else if (word == "delay") plan.delays.push_back(d);
      else plan.byz.push_back(b);
    } else {
      return fail("unknown directive '" + word + "'");
    }
  }
  return validate_plan(plan, error);
}

bool validate_plan(const ScenarioPlan& plan, std::string& error) {
  const auto fail = [&](const std::string& why) {
    error = why;
    return false;
  };
  if (plan.n < 4 || plan.n > 16) return fail("n must be in [4, 16]");
  if (plan.duration <= 0 || plan.duration > ms(60'000)) {
    return fail("duration must be in (0, 60s]");
  }
  if (plan.clients_per_node == 0 || plan.clients_per_node > 512) {
    return fail("clients must be in [1, 512]");
  }
  if (plan.batch_size == 0 || plan.batch_size > 1024) {
    return fail("batch must be in [1, 1024]");
  }
  if (!harness::validate_faults(plan.n, plan.protocol, plan.crashes,
                                plan.byz, plan.duration - plan.required_tail(),
                                plan.state_sync, plan.open_loop(), error)) {
    return false;
  }
  const std::uint32_t full_mask = (1u << plan.n) - 1;
  for (const PartitionFault& p : plan.partitions) {
    if (p.from < 0 || p.to <= p.from || p.to > plan.duration - plan.required_tail()) {
      return fail(
          "partition window outside the run (or inside the quiet tail)");
    }
    if ((p.side_mask & ~full_mask) != 0) {
      return fail("partition mask names nodes >= n");
    }
  }
  for (const DelayFault& d : plan.delays) {
    if (d.from < 0 || d.to <= d.from || d.to > plan.duration - plan.required_tail()) {
      return fail("delay window outside the run (or inside the quiet tail)");
    }
    if (d.victim != kNoNode && d.victim >= plan.n) {
      return fail("delay victim out of range");
    }
    if (d.max_extra < 0 || d.max_extra > ms(5000)) {
      return fail("delay extra must be in [0, 5s]");
    }
  }
  if (plan.open_loop()) {
    if (plan.mempool_capacity > 4096) {
      return fail("mempool capacity must be in [1, 4096]");
    }
    if (plan.arrival_rate == 0 || plan.arrival_rate > 2000) {
      return fail("arrival_rate must be in [1, 2000] for open-loop plans");
    }
    if (plan.resubmit_timeout != 0) {
      return fail("open-loop plans use the pools' own backoff, not resubmit");
    }
  } else {
    if (plan.arrival_rate != 0) {
      return fail("arrival_rate without a mempool capacity");
    }
    if (!plan.fee_spikes.empty() || !plan.overflows.empty() ||
        !plan.flaps.empty()) {
      return fail("workload faults require an open-loop plan");
    }
  }
  for (const FeeSpikeFault& s : plan.fee_spikes) {
    if (s.from < 0 || s.to <= s.from ||
        s.to > plan.duration - plan.required_tail()) {
      return fail("fee_spike window outside the run (or inside the quiet tail)");
    }
    if (s.mult < 2 || s.mult > 64) {
      return fail("fee_spike mult must be in [2, 64]");
    }
  }
  for (const OverflowFault& o : plan.overflows) {
    if (o.at <= 0 || o.at > plan.duration - plan.required_tail()) {
      return fail("overflow tick outside the run (or inside the quiet tail)");
    }
    if (o.txs == 0 || o.txs > 65536) {
      return fail("overflow txs must be in [1, 65536]");
    }
  }
  for (const FlapFault& fl : plan.flaps) {
    if (fl.from < 0 || fl.to <= fl.from ||
        fl.to > plan.duration - plan.required_tail()) {
      return fail("flap window outside the run (or inside the quiet tail)");
    }
    if (fl.capacity == 0 || fl.capacity > plan.mempool_capacity) {
      return fail("flap capacity must be in [1, mempool capacity]");
    }
  }
  error.clear();
  return true;
}

}  // namespace lyra::fuzz
