#pragma once

#include <map>
#include <string>
#include <vector>

#include "support/bytes.hpp"

namespace lyra::storage {

/// The durable medium under the WAL and snapshot store: a flat namespace
/// of named append-only byte files, held in memory as the simulation's
/// stand-in for a node-local SSD. Two operations matter for crash safety —
/// `append` (sequential WAL writes) and `write_atomic` (rename-into-place
/// snapshot publication). Owned by the harness (not the node process), so
/// its content survives a simulated crash. The fault-injection helpers let
/// tests model torn tails and bit rot without reaching into WAL internals.
class MemDisk {
 public:
  bool exists(const std::string& name) const;

  /// Whole-file read; empty when missing (callers check exists()).
  Bytes read(const std::string& name) const;

  /// Appends to the end of `name`, creating it if needed.
  void append(const std::string& name, BytesView data);

  /// Replaces `name` atomically: after a crash either the old or the new
  /// content is visible, never a mix.
  void write_atomic(const std::string& name, BytesView data);

  void remove(const std::string& name);

  /// Drops every byte past `size`; no-op when the file is already shorter
  /// or missing. The WAL writer uses this to repair a torn tail left by a
  /// crashed predecessor before it starts its own segment.
  void truncate(const std::string& name, std::size_t size);

  /// All file names in lexicographic order.
  std::vector<std::string> list() const;

  // --- fault injection (tests) ---

  /// XORs one byte (bit rot). No-op when out of range.
  void corrupt(const std::string& name, std::size_t offset,
               std::uint8_t xor_mask = 0xFF);

  /// Deletes every file (total media loss). The node that owned this disk
  /// can then only rejoin via peer state transfer.
  void wipe();

  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::map<std::string, Bytes> files_;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace lyra::storage
