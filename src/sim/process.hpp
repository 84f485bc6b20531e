#pragma once

#include <deque>
#include <functional>
#include <unordered_map>

#include "sim/message.hpp"
#include "sim/simulation.hpp"
#include "support/types.hpp"

/// Tracing guard for hot paths: the argument expressions (usually string
/// concatenations) are evaluated only when the trace sink is enabled.
/// Usable inside any Process member function.
#define LYRA_TRACE(category, text)                \
  do {                                            \
    if (this->tracing()) this->trace((category), (text)); \
  } while (0)

namespace lyra::sim {

/// Transport used by processes to emit messages. Implemented by
/// net::Network; declared here so the process model does not depend on the
/// network substrate.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual void send(NodeId from, NodeId to, PayloadPtr payload) = 0;

  /// Broadcast to every consensus process. The default loops over send();
  /// net::Network overrides it to book the sender's NIC once for the whole
  /// fan-out, so every receiver sees the same serialization delay (packets
  /// interleave fairly across flows on a real NIC).
  virtual void send_all(NodeId from, PayloadPtr payload) {
    for (NodeId to = 0; to < node_count(); ++to) {
      send(from, to, payload);
    }
  }

  /// Number of consensus processes (message destinations 0..n-1).
  virtual std::size_t node_count() const = 0;
};

/// Base class for every simulated process (consensus node, client,
/// attacker). Provides messaging, timers, and a serial-CPU cost model.
///
/// CPU model: each process is a single-threaded server. A handler may call
/// charge(cost) to account for work (signature verification, hashing, ...);
/// the process does not start handling the next queued message until the
/// accumulated work has elapsed in simulated time. Queueing behind a busy
/// CPU is what creates the throughput saturation the paper measures (the
/// HotStuff leader bottleneck in Fig. 3). Sends performed inside a handler
/// are stamped at the handler's start time — an approximation that errs by
/// at most one handler's CPU cost (microseconds against millisecond WAN
/// latencies).
class Process {
 public:
  using TimerId = std::uint64_t;

  Process(Simulation* sim, Transport* transport, NodeId id);

  /// Cancels every outstanding timer and the pending pump event: those
  /// callbacks capture `this`, so they must not outlive the process. This
  /// is what makes mid-run teardown (simulated crash) safe.
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  NodeId id() const { return id_; }
  TimeNs now() const { return sim_->now(); }

  /// Invoked once by the harness after the whole cluster is wired up.
  virtual void on_start() {}

  /// Called by the network at delivery time. Enqueues onto the inbox.
  void deliver(Envelope env);

  // --- accounting, read by the harness ---
  std::uint64_t messages_processed() const { return messages_processed_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  TimeNs cpu_time_used() const { return cpu_time_used_; }
  std::size_t inbox_depth() const { return inbox_.size(); }

 protected:
  /// Handles one delivered message. Runs when the CPU is free.
  virtual void on_message(const Envelope& env) = 0;

  void send(NodeId to, PayloadPtr payload);

  /// Sends to every consensus node. The paper's broadcast includes the
  /// sender itself (a process delivers its own messages).
  void broadcast(PayloadPtr payload);

  /// Accounts `cost` of CPU work for the current handler or timer.
  void charge(TimeNs cost);

  /// One-shot timer. The callback does not run if cancelled first, and all
  /// pending timers die with the process.
  TimerId set_timer(TimeNs delay, std::function<void()> fn);
  void cancel_timer(TimerId id);

  Simulation& sim() { return *sim_; }
  Transport& transport() { return *transport_; }

  void trace(std::string category, std::string text);

 public:
  /// Cheap check used by LYRA_TRACE to skip building trace strings on hot
  /// paths when no sink is listening.
  bool tracing() const { return sim_->trace().enabled(); }

 private:
  void schedule_pump();
  void pump();

  Simulation* sim_;
  Transport* transport_;
  NodeId id_;

  std::deque<Envelope> inbox_;
  bool pump_scheduled_ = false;
  std::uint64_t pump_event_ = 0;
  TimeNs cpu_busy_until_ = 0;

  // Timer token -> underlying event id, for cancellation (explicit or at
  // destruction). Tokens are never reused within a process lifetime.
  std::unordered_map<TimerId, std::uint64_t> live_timers_;
  TimerId next_timer_token_ = 1;

  std::uint64_t messages_processed_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  TimeNs cpu_time_used_ = 0;
};

}  // namespace lyra::sim
