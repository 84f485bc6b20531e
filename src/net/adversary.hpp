#pragma once

#include "sim/message.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace lyra::net {

/// Message-delay adversary of the partial-synchrony model (§II-A): before
/// GST it may add arbitrary (finite) delays; after GST every message between
/// correct processes is delivered within Delta. Channels stay reliable —
/// the adversary can delay, never drop or tamper.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Returns the (possibly inflated) delay for a message. `base_delay` is
  /// the honest network sample. Implementations must return at least
  /// `base_delay`: the adversary only adds delay, never accelerates (the
  /// model's "delay, never drop or tamper" power; see above).
  virtual TimeNs delay(const sim::Envelope& env, TimeNs base_delay,
                       Rng& rng) = 0;
};

/// Adds random delays up to `max_extra` to every message sent before GST.
class PreGstDelayAdversary final : public Adversary {
 public:
  PreGstDelayAdversary(TimeNs gst, TimeNs max_extra)
      : gst_(gst), max_extra_(max_extra) {}

  TimeNs delay(const sim::Envelope& env, TimeNs base_delay,
               Rng& rng) override;

  TimeNs gst() const { return gst_; }

 private:
  TimeNs gst_;
  TimeNs max_extra_;
};

/// Targets one victim: delays every message from/to it before GST (models
/// an adversary isolating a correct process during asynchrony).
class TargetedDelayAdversary final : public Adversary {
 public:
  TargetedDelayAdversary(TimeNs gst, TimeNs extra, NodeId victim)
      : gst_(gst), extra_(extra), victim_(victim) {}

  TimeNs delay(const sim::Envelope& env, TimeNs base_delay,
               Rng& rng) override;

 private:
  TimeNs gst_;
  TimeNs extra_;
  NodeId victim_;
};

}  // namespace lyra::net
