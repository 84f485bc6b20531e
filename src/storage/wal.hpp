#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "storage/disk.hpp"
#include "support/bytes.hpp"

namespace lyra::storage {

/// Segmented, checksummed, append-only write-ahead log.
///
/// On-disk layout: numbered segment files `wal-XXXXXXXXXX.log`, each a
/// concatenation of framed records:
///
///     [u32 length] [u8 type] [payload: length bytes] [u32 crc32]
///
/// with the CRC computed over (length, type, payload), all integers
/// little-endian. A writer never re-opens a pre-existing segment: after a
/// restart it truncates any torn tail off the newest segment it finds
/// (`wal_repair_tail` — those bytes were never fully written, so nothing
/// durable is lost) and starts the next segment. That repair is what keeps
/// the invariant "a torn tail only ever sits at the end of the newest
/// segment" true across *repeated* crashes: without it, a second
/// incarnation's segments would leave the first one's torn tail mid-log,
/// where replay must treat it as corruption.
///
/// Replay semantics (tail-truncation tolerance):
///   * a frame that runs past the end of the *last* segment is a torn
///     write — replay stops cleanly and reports the discarded bytes;
///   * a complete frame whose CRC mismatches is corruption — replay stops
///     and flags it, so recovery can escalate instead of silently
///     shortening history;
///   * anything short in a *non-last* segment is also corruption (sealed
///     segments are immutable).
std::string wal_segment_name(std::uint64_t index);

/// Parses a segment index back out of a name; returns false for other files.
bool parse_wal_segment_name(const std::string& name, std::uint64_t& index);

class WalWriter {
 public:
  struct Options {
    /// Roll to a new segment once the current one reaches this size.
    std::size_t segment_bytes = 256 * 1024;
    /// Never start below this segment index. A snapshot's replay point may
    /// reference a segment with no file yet (everything older was GC'd and
    /// nothing was appended since); a writer that re-used an index below
    /// it would hide its records from snapshot+suffix recovery.
    std::uint64_t min_segment = 0;
  };

  /// Repairs the torn tail of the newest existing segment (if any), then
  /// starts writing at (highest existing segment + 1); existing segments
  /// are left sealed for replay.
  explicit WalWriter(MemDisk* disk);
  WalWriter(MemDisk* disk, Options options);

  /// Appends one framed record.
  void append(std::uint8_t type, BytesView payload);

  /// Seals the current segment (if any bytes were written) and returns the
  /// index the *next* record will land in. Snapshots call this so the
  /// snapshot can reference "replay from segment S onward".
  std::uint64_t seal();

  /// Removes sealed segments with index < `before` (post-snapshot GC).
  void drop_segments_before(std::uint64_t before);

  std::uint64_t current_segment() const { return segment_; }
  std::uint64_t bytes_appended() const { return bytes_; }
  /// Torn bytes truncated off the predecessor's tail at construction.
  std::uint64_t repaired_bytes() const { return repaired_bytes_; }

 private:
  MemDisk* disk_;
  Options options_;
  std::uint64_t segment_ = 0;
  std::size_t segment_fill_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t repaired_bytes_ = 0;
};

struct WalReplayStats {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t segments = 0;
  std::uint64_t torn_tail_bytes = 0;  ///< discarded incomplete tail frame
  bool corrupt = false;               ///< CRC mismatch mid-log
};

/// Replays every record in segments >= `from_segment`, in order, into `fn`.
/// Stops at the first torn tail or corruption (see class comment).
WalReplayStats wal_replay(
    const MemDisk& disk, std::uint64_t from_segment,
    const std::function<void(std::uint8_t type, BytesView payload)>& fn);

/// Truncates the torn (incomplete) trailing frame off the newest segment,
/// returning the bytes removed; 0 when the tail is whole or the defect is a
/// CRC mismatch (left in place so replay escalates it as corruption).
/// WalWriter runs this at construction; exposed for tests and tooling.
std::uint64_t wal_repair_tail(MemDisk& disk);

}  // namespace lyra::storage
