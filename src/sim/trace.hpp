#pragma once

#include <string>
#include <vector>

#include "support/types.hpp"

namespace lyra::sim {

/// One recorded protocol event. Tracing is off by default; tests and the
/// attack demos enable it to inspect protocol behaviour.
struct TraceEvent {
  TimeNs at = 0;
  NodeId node = kNoNode;
  std::string category;
  std::string text;
};

class Trace {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void record(TimeNs at, NodeId node, std::string category, std::string text);

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Events of one category, in order.
  std::vector<TraceEvent> by_category(std::string_view category) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace lyra::sim
