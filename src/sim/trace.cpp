#include "sim/trace.hpp"

namespace lyra::sim {

void Trace::record(TimeNs at, NodeId node, std::string category,
                   std::string text) {
  if (!enabled_) return;
  events_.push_back({at, node, std::move(category), std::move(text)});
}

std::vector<TraceEvent> Trace::by_category(std::string_view category) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.category == category) out.push_back(e);
  }
  return out;
}

}  // namespace lyra::sim
