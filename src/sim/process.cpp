#include "sim/process.hpp"

#include "support/assert.hpp"

namespace lyra::sim {

Process::Process(Simulation* sim, Transport* transport, NodeId id)
    : sim_(sim), transport_(transport), id_(id) {
  LYRA_ASSERT(sim != nullptr && transport != nullptr,
              "process needs a simulation and a transport");
}

Process::~Process() {
  for (const auto& [token, event_id] : live_timers_) sim_->cancel(event_id);
  if (pump_scheduled_) sim_->cancel(pump_event_);
}

void Process::deliver(Envelope env) {
  if (!pump_scheduled_ && inbox_.empty() &&
      sim_->now() >= cpu_busy_until_) {
    // Idle CPU, nothing queued: handle inline without a pump event. This
    // is the common case and halves the event count of a saturated run.
    ++messages_processed_;
    on_message(env);
    return;
  }
  inbox_.push_back(std::move(env));
  schedule_pump();
}

void Process::schedule_pump() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  pump_event_ = sim_->schedule_at(std::max(sim_->now(), cpu_busy_until_),
                                  [this] { pump(); });
}

void Process::pump() {
  pump_scheduled_ = false;
  if (inbox_.empty()) return;
  if (sim_->now() < cpu_busy_until_) {
    // The CPU picked up extra work (e.g. a timer fired) since this pump was
    // scheduled; try again when it frees up.
    schedule_pump();
    return;
  }
  Envelope env = std::move(inbox_.front());
  inbox_.pop_front();
  ++messages_processed_;
  on_message(env);
  if (!inbox_.empty()) schedule_pump();
}

void Process::send(NodeId to, PayloadPtr payload) {
  ++messages_sent_;
  bytes_sent_ += payload->wire_size();
  transport_->send(id_, to, std::move(payload));
}

void Process::broadcast(PayloadPtr payload) {
  const std::size_t n = transport_->node_count();
  messages_sent_ += n;
  bytes_sent_ += n * payload->wire_size();
  transport_->send_all(id_, std::move(payload));
}

void Process::charge(TimeNs cost) {
  if (cost <= 0) return;
  cpu_time_used_ += cost;
  cpu_busy_until_ = std::max(cpu_busy_until_, sim_->now()) + cost;
}

Process::TimerId Process::set_timer(TimeNs delay, std::function<void()> fn) {
  const TimerId token = next_timer_token_++;
  const std::uint64_t event_id =
      sim_->schedule_in(delay, [this, token, fn = std::move(fn)] {
        // Drop the bookkeeping entry before running: fn may re-arm a timer.
        live_timers_.erase(token);
        fn();
      });
  live_timers_.emplace(token, event_id);
  return token;
}

void Process::cancel_timer(TimerId id) {
  const auto it = live_timers_.find(id);
  if (it == live_timers_.end()) return;  // already fired or cancelled
  sim_->cancel(it->second);
  live_timers_.erase(it);
}

void Process::trace(std::string category, std::string text) {
  sim_->trace().record(sim_->now(), id_, std::move(category),
                       std::move(text));
}

}  // namespace lyra::sim
