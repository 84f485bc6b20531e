#include "client/client_pool.hpp"

#include <algorithm>
#include <memory>

#include "support/mutation.hpp"

namespace lyra::client {

using core::CommitNotifyMsg;
using core::SubmitMsg;

ClientPool::ClientPool(sim::Simulation* sim, sim::Transport* transport,
                       NodeId id, NodeId target_node, std::uint32_t width,
                       TimeNs start_at, TimeNs measure_from,
                       TimeNs measure_to)
    : ClientPool(sim, transport, id, std::vector<NodeId>{target_node}, width,
                 start_at, measure_from, measure_to) {}

ClientPool::ClientPool(sim::Simulation* sim, sim::Transport* transport,
                       NodeId id, std::vector<NodeId> targets,
                       std::uint32_t width, TimeNs start_at,
                       TimeNs measure_from, TimeNs measure_to)
    : Process(sim, transport, id),
      targets_(std::move(targets)),
      width_(width),
      start_at_(start_at),
      measure_from_(measure_from),
      measure_to_(measure_to) {}

void ClientPool::on_start() {
  set_timer(start_at_, [this] {
    for (NodeId target : targets_) submit(width_, target);
  });
}

void ClientPool::submit(std::uint32_t count, NodeId target) {
  if (count == 0) return;
  submitted_total_ += count;
  auto msg = std::make_shared<SubmitMsg>();
  msg->count = count;
  msg->submitted_at = now();
  if (resubmit_timeout_ > 0) {
    auto& wave = outstanding_[{now(), target}];
    wave.count += count;
    wave.last_attempt = now();
    arm_resubmit_timer();
  }
  send(target, std::move(msg));
}

void ClientPool::arm_resubmit_timer() {
  if (resubmit_timeout_ <= 0 || outstanding_.empty()) return;
  if (support::mutation_enabled("client-resubmit-fixed-period")) {
    // Mutation hook (docs/FUZZING.md): the pre-fix behaviour armed a fixed
    // period from "now" instead of aiming at the earliest outstanding
    // deadline, so a wave submitted just after arming waited almost a full
    // extra period. The fuzzer's client-resubmit-lag invariant must flag
    // this.
    if (resubmit_timer_armed_) return;
    resubmit_timer_armed_ = true;
    resubmit_deadline_ = now() + resubmit_timeout_;
    resubmit_timer_ =
        set_timer(resubmit_timeout_, [this] { check_resubmit(); });
    return;
  }
  TimeNs earliest = 0;
  bool first = true;
  for (const auto& [key, wave] : outstanding_) {
    const TimeNs deadline = wave.last_attempt + resubmit_timeout_;
    if (first || deadline < earliest) {
      earliest = deadline;
      first = false;
    }
  }
  if (resubmit_timer_armed_) {
    if (resubmit_deadline_ <= earliest) return;  // fires early enough
    cancel_timer(resubmit_timer_);  // a new wave is due sooner: re-aim
  }
  resubmit_timer_armed_ = true;
  resubmit_deadline_ = earliest;
  const TimeNs delay = earliest > now() ? earliest - now() : 0;
  resubmit_timer_ = set_timer(delay, [this] { check_resubmit(); });
}

void ClientPool::check_resubmit() {
  resubmit_timer_armed_ = false;
  if (outstanding_.empty()) return;
  for (auto& [key, wave] : outstanding_) {
    if (now() - wave.last_attempt < resubmit_timeout_) continue;
    max_resubmit_lag_ = std::max(
        max_resubmit_lag_, now() - (wave.last_attempt + resubmit_timeout_));
    auto msg = std::make_shared<SubmitMsg>();
    msg->count = wave.count;
    // Latency stays measured from the first attempt: the retry carries the
    // original submission time.
    msg->submitted_at = key.first;
    send(key.second, std::move(msg));
    wave.last_attempt = now();
    ++resubmissions_;
    submitted_total_ += wave.count;
  }
  arm_resubmit_timer();
}

void ClientPool::on_message(const sim::Envelope& env) {
  const auto* notify = sim::payload_as<CommitNotifyMsg>(env);
  if (notify == nullptr) return;

  if (resubmit_timeout_ > 0) {
    auto it = outstanding_.find({notify->submitted_at, env.from});
    if (it == outstanding_.end()) {
      // Both the original and the retry of a resubmitted wave committed
      // (the original's notify was late, not lost). The first notify
      // settled the stats and re-triggered the closed loop; counting this
      // one too would double-count commits and grow the pool's in-flight
      // width past its configured width for the rest of the run.
      ++duplicate_notifies_;
      return;
    }
    if (it->second.count <= notify->count) {
      outstanding_.erase(it);
    } else {
      it->second.count -= notify->count;
    }
  }

  committed_total_ += notify->count;
  const double latency = to_ms(now() - notify->submitted_at);
  if (now() >= measure_from_ && now() <= measure_to_) {
    committed_in_window_ += notify->count;
    latency_ms_.add(latency);
    weighted_latency_sum_ms_ += latency * notify->count;
    weighted_count_ += notify->count;
  }
  // Closed loop: every committed transaction triggers its client's next
  // submission, back at the node that just served it (the notify sender is
  // the wave's target, which keeps per-target loops independent).
  submit(notify->count, env.from);
}

double ClientPool::weighted_mean_latency_ms() const {
  if (weighted_count_ == 0) return 0.0;
  return weighted_latency_sum_ms_ / static_cast<double>(weighted_count_);
}

}  // namespace lyra::client
