#pragma once

#include <memory>
#include <type_traits>
#include <utility>

#include "sim/message.hpp"
#include "support/pool.hpp"

namespace lyra::sim {

/// Drop-in replacement for std::make_shared at payload construction
/// sites: the payload and its shared_ptr control block come from the
/// arena in a single block and the slot is recycled when the last
/// receiver releases it. An n-recipient broadcast therefore costs one
/// pooled allocation total — the event queue holds the pointer once per
/// send, and each receiver's Envelope shares it.
template <typename T, typename... Args>
std::shared_ptr<T> make_payload(Args&&... args) {
  static_assert(std::is_base_of_v<Payload, T>,
                "make_payload is for sim::Payload subclasses");
  return support::make_pooled<T>(std::forward<Args>(args)...);
}

}  // namespace lyra::sim
