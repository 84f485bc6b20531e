#include "fuzz/fault_program.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <limits>
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

namespace {

constexpr const char* kHeader = "lyra-fuzz-plan v1";

/// The plan's setting lines, `word value`, in print order. The open-loop
/// pair is printed for open-loop plans only.
constexpr auto kSettings = std::tuple{
    field<value::Count>("seed", &ScenarioPlan::seed),
    field<value::Proto>("protocol", &ScenarioPlan::protocol),
    field<value::Count>("n", &ScenarioPlan::n),
    field<value::Count>("clients", &ScenarioPlan::clients_per_node),
    field<value::Count>("batch", &ScenarioPlan::batch_size),
    field<value::Ms>("duration_ms", &ScenarioPlan::duration),
    field<value::Flag>("state_sync", &ScenarioPlan::state_sync),
    field<value::Ms>("resubmit_ms", &ScenarioPlan::resubmit_timeout)};
constexpr auto kOpenLoopSettings = std::tuple{
    field<value::Count>("mempool", &ScenarioPlan::mempool_capacity),
    field<value::Count>("arrival_rate", &ScenarioPlan::arrival_rate)};

template <class Fields, class Visit>
void for_each_field(const Fields& fields, Visit&& visit) {
  std::apply([&](const auto&... f) { (visit(f), ...); }, fields);
}

/// A whole decimal token of at most `max`, stored times `unit`.
template <class T>
bool read_number(const std::string& s, std::uint64_t max, T& out,
                 std::uint64_t unit = 1) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || stop != end || v > max) return false;
  out = static_cast<T>(v * unit);
  return true;
}

/// Counts, node ids and flags: a decimal that fits the field's type.
template <class V, std::unsigned_integral T>
bool read(V, const std::string& s, T& out) {
  return read_number(s, std::numeric_limits<T>::max(), out);
}
bool read(value::NodeOrAll, const std::string& s, NodeId& out) {
  if (s != "all") return read(value::Node{}, s, out);
  out = kNoNode;
  return true;
}
bool read(value::Ms, const std::string& s, TimeNs& out) {
  return read_number(s, std::numeric_limits<TimeNs>::max() / kNsPerMs, out,
                     kNsPerMs);
}
bool read(value::Byz, const std::string& s, ByzKind& out) {
  return byz_kind_from_string(s, out);
}
bool read(value::Proto, const std::string& s, Protocol& out) {
  return harness::protocol_from_string(s, out);
}

template <class V, class T>
void write(std::ostream& out, V, T v) { out << v; }
void write(std::ostream& out, value::NodeOrAll, NodeId v) {
  out << (v == kNoNode ? "all" : std::to_string(v));
}
void write(std::ostream& out, value::Ms, TimeNs v) { out << v / kNsPerMs; }
void write(std::ostream& out, value::Byz, ByzKind v) { out << to_string(v); }
void write(std::ostream& out, value::Proto, Protocol v) {
  out << harness::protocol_name(v);
}

/// Sets the field of `target` named `key` from `token`; returns the error,
/// empty on success. A value kind with a `name` (an enumeration) reports
/// the value it does not know; otherwise an unknown key reads as
/// `unknown` and a token that does not fit as `bad`.
template <class Fields, class T>
std::string read_field(const Fields& fields, const std::string& key,
                       const std::string& token, T& target,
                       const std::string& unknown, const std::string& bad) {
  std::string why = unknown;
  for_each_field(fields, [&](const auto& f) {
    if (key != f.key) return;
    if (read(f.kind, token, target.*f.member)) {
      why.clear();
    } else if constexpr (requires { f.kind.name; }) {
      why = std::string("unknown ") + f.kind.name + " '" + token + "'";
    } else {
      why = bad;
    }
  });
  return why;
}

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

/// Parses the rest of a fault line into a new fault of `kind`; returns the
/// error, empty on success.
template <class Fault, class Fields>
std::string read_fault(std::istringstream& line,
                       const FaultKind<Fault, Fields>& kind,
                       ScenarioPlan& plan) {
  std::vector<std::pair<std::string, std::string>> kv;
  if (!split_kv(line, kv)) return "malformed key=value list";
  Fault fault;
  for (const auto& [key, token] : kv) {
    const std::string bad =
        std::string("bad ") + kind.word + " field '" + key + "'";
    const std::string why =
        read_field(kind.fields, key, token, fault, bad, bad);
    if (!why.empty()) return why;
  }
  (plan.*kind.list).push_back(fault);
  return {};
}

}  // namespace

std::string serialize_plan(const ScenarioPlan& plan) {
  std::ostringstream out;
  out << kHeader << "\n";
  const auto setting = [&](const auto& f) {
    out << f.key << ' ';
    write(out, f.kind, plan.*f.member);
    out << "\n";
  };
  for_each_field(kSettings, setting);
  if (plan.open_loop()) for_each_field(kOpenLoopSettings, setting);
  for_each_fault_kind([&](const auto& kind) {
    for (const auto& fault : plan.*kind.list) {
      out << kind.word;
      for_each_field(kind.fields, [&](const auto& f) {
        out << ' ' << f.key << '=';
        write(out, f.kind, fault.*f.member);
      });
      out << "\n";
    }
  });
  return out.str();
}

bool parse_plan(const std::string& text, ScenarioPlan& plan,
                std::string& error) {
  plan = ScenarioPlan{};
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  const auto settings = std::tuple_cat(kSettings, kOpenLoopSettings);
  // Annotated corpus files may put comment/blank lines before the header.
  bool have_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (!have_header) {
      if (line != kHeader) break;
      have_header = true;
      continue;
    }
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    std::string why;
    bool fault = false;
    for_each_fault_kind([&](const auto& kind) {
      if (word != kind.word) return;
      fault = true;
      why = read_fault(ls, kind, plan);
    });
    if (!fault) {
      std::string token;
      ls >> token;
      // Retired execution-thread axis: older artifacts still carry it.
      std::uint64_t threads = 0;
      if (word != "threads") {
        why = read_field(settings, word, token, plan,
                         "unknown directive '" + word + "'", "bad " + word);
      } else if (!read(value::Count{}, token, threads)) {
        why = "bad " + word;
      }
    }
    if (!why.empty()) {
      error = "line " + std::to_string(lineno) + ": " + why;
      return false;
    }
  }
  if (!have_header) {
    error = std::string("missing header '") + kHeader + "'";
    return false;
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
  const TimeNs fault_end = plan.duration - plan.required_tail();
  std::string why;
  for_each_fault_kind([&](const auto& kind) {
    for (const auto& f : plan.*kind.list) {
      if constexpr (WindowedFault<std::decay_t<decltype(f)>>) {
        if (why.empty() && (f.from < 0 || f.to <= f.from || f.to > fault_end)) {
          why = std::string(kind.word) +
                " window outside the run (or inside the quiet tail)";
        }
      }
    }
  });
  if (!why.empty()) return fail(why);
  const std::uint32_t full_mask = (1u << plan.n) - 1;
  for (const PartitionFault& p : plan.partitions) {
    if ((p.side_mask & ~full_mask) != 0) {
      return fail("partition mask names nodes >= n");
    }
  }
  for (const DelayFault& d : plan.delays) {
    if (d.victim != kNoNode && d.victim >= plan.n) {
      return fail("delay victim out of range");
    }
    if (d.max_extra < 0 || d.max_extra > ms(5000)) {
      return fail("delay extra must be in [0, 5s]");
    }
  }
  for (const FeeSpikeFault& s : plan.fee_spikes) {
    if (s.mult < 2 || s.mult > 64) {
      return fail("fee_spike mult must be in [2, 64]");
    }
  }
  for (const OverflowFault& o : plan.overflows) {
    if (o.at <= 0 || o.at > fault_end) {
      return fail("overflow tick outside the run (or inside the quiet tail)");
    }
    if (o.txs == 0 || o.txs > 65536) {
      return fail("overflow txs must be in [1, 65536]");
    }
  }
  for (const FlapFault& fl : plan.flaps) {
    if (fl.capacity == 0 || fl.capacity > plan.mempool_capacity) {
      return fail("flap capacity must be in [1, mempool capacity]");
    }
  }
  error.clear();
  return true;
}

}  // namespace lyra::fuzz
