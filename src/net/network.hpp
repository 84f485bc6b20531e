#pragma once

#include <memory>
#include <vector>

#include "net/adversary.hpp"
#include "net/latency_model.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace lyra::net {

/// Reliable authenticated point-to-point network (§II-A) over the
/// discrete-event simulator. Messages are delivered exactly once, untampered
/// (payloads are immutable shared objects), after a delay sampled from the
/// latency model and optionally inflated by the adversary. Each ordered
/// pair of processes forms a FIFO channel (as TCP provides to the paper's
/// prototype): jitter never reorders two messages on the same channel,
/// though it freely reorders across channels.
///
/// Bandwidth is not a modeled bottleneck (the paper's 32-byte transactions
/// batched at 800 stay well under WAN link capacity); CPU is, via the
/// Process cost model.
class Network final : public sim::Transport, public sim::ProcessDirectory {
 public:
  /// `consensus_count` processes participate in broadcast (ids 0..n-1);
  /// clients and attackers attach with higher ids.
  Network(sim::Simulation* sim, std::unique_ptr<LatencyModel> latency,
          std::size_t consensus_count);

  /// Registers a process under its id. Ids must be dense before run start.
  /// Re-attaching into a slot vacated by detach() models a node restart.
  void attach(sim::Process* process);

  /// Vacates a process slot (simulated crash). Messages already in flight
  /// to the node, and any sent while the slot stays vacant, are dropped.
  /// The FIFO channel floors survive, so a restarted node's channels keep
  /// their ordering guarantees.
  void detach(NodeId id);

  /// sim::ProcessDirectory: deliveries resolve their destination here at
  /// delivery time, so a detached node's in-flight messages fall away.
  sim::Process* process_at(NodeId id) const override {
    return id < processes_.size() ? processes_[id] : nullptr;
  }

  void send(NodeId from, NodeId to, sim::PayloadPtr payload) override;
  void send_all(NodeId from, sim::PayloadPtr payload) override;
  std::size_t node_count() const override { return consensus_count_; }

  const LatencyModel& latency() const { return *latency_; }

  /// Installs a message-delay adversary (nullptr to remove).
  void set_adversary(Adversary* adversary) { adversary_ = adversary; }

  /// Models each process's NIC egress capacity: a message occupies the
  /// sender's link for wire_size / bandwidth before it departs, so a
  /// broadcast of n copies pays n serializations. This is what saturates a
  /// HotStuff leader fanning out large blocks to every replica (Fig. 3's
  /// Pompē decline). 0 (the default) disables the model.
  void set_bandwidth(double bytes_per_sec) { bandwidth_ = bytes_per_sec; }
  double bandwidth() const { return bandwidth_; }

  /// Egress backlog of one sender (diagnostics): how far its NIC is booked
  /// into the future.
  TimeNs nic_backlog(NodeId from) const;

  std::uint64_t messages_delivered() const { return messages_delivered_; }

  /// Messages addressed to a vacant (crashed) slot at send time.
  std::uint64_t messages_dropped() const { return messages_dropped_; }

 private:
  /// Books `bytes` on the sender's NIC; returns the egress delay.
  TimeNs nic_book(NodeId from, std::uint64_t bytes);
  /// Sends one message to receivers [first, last): draws each live
  /// receiver's delay in id order and schedules them all as one fan-out.
  void fan_out(NodeId from, NodeId first, NodeId last,
               sim::PayloadPtr payload, TimeNs egress_delay);

  sim::Simulation* sim_;
  std::unique_ptr<LatencyModel> latency_;
  std::size_t consensus_count_;
  std::vector<sim::Process*> processes_;
  Adversary* adversary_ = nullptr;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  /// Root of the per-sender jitter stream family (derived from the
  /// simulation seed). Each message's latency and adversary draws come
  /// from a throwaway Rng seeded by derive_stream(jitter_seed_, sender,
  /// ordinal), where `ordinal` is that sender's message count — so one
  /// sender's jitter sequence never depends on other senders' traffic.
  std::uint64_t jitter_seed_;
  std::vector<std::uint64_t> jitter_counter_;
  // FIFO floor per directed channel: channel_floor_[from][to]. Rows grow
  // on demand and are never cleared, so they survive detach/attach.
  std::vector<std::vector<TimeNs>> channel_floor_;
  std::vector<sim::Receiver> receivers_;  // fan_out scratch
  double bandwidth_ = 0.0;  // bytes/sec; 0 = unlimited
  std::vector<TimeNs> nic_floor_;
};

}  // namespace lyra::net
