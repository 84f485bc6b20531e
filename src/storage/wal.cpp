#include "storage/wal.hpp"

#include <algorithm>
#include <cstdio>

#include "storage/crc32.hpp"
#include "support/assert.hpp"

namespace lyra::storage {

namespace {

constexpr std::size_t kHeaderBytes = 5;   // u32 length + u8 type
constexpr std::size_t kTrailerBytes = 4;  // u32 crc
/// Upper bound on one record's payload; a declared length above this in a
/// tail frame is treated as a torn length field, not an attempt to read
/// gigabytes.
constexpr std::size_t kMaxPayload = 64 * 1024 * 1024;

std::uint32_t read_u32(const Bytes& file, std::size_t at) {
  return static_cast<std::uint32_t>(file[at]) |
         (static_cast<std::uint32_t>(file[at + 1]) << 8) |
         (static_cast<std::uint32_t>(file[at + 2]) << 16) |
         (static_cast<std::uint32_t>(file[at + 3]) << 24);
}

/// Ordered list of (index, name) for every WAL segment on the disk.
std::vector<std::pair<std::uint64_t, std::string>> segments_on(
    const MemDisk& disk) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const std::string& name : disk.list()) {
    std::uint64_t index = 0;
    if (parse_wal_segment_name(name, index)) out.emplace_back(index, name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// How the bytes of one segment file end after its intact frames.
enum class TailState {
  kWhole,    ///< every byte belongs to a CRC-valid frame
  kTorn,     ///< an incomplete frame (crash mid-append)
  kCorrupt,  ///< a complete frame whose CRC mismatches (bit rot)
};

/// Walks the intact frames of one segment into `fn` (when non-null) and
/// reports where they end plus how the remainder classifies. This is the
/// single frame-parsing loop shared by replay and tail repair, so the two
/// can never disagree on what counts as torn versus corrupt.
TailState scan_segment(const Bytes& file,
                       const std::function<void(std::uint8_t, BytesView)>* fn,
                       std::size_t& intact_end) {
  std::size_t at = 0;
  while (at < file.size()) {
    const std::size_t remaining = file.size() - at;
    bool torn = remaining < kHeaderBytes + kTrailerBytes;
    std::size_t length = 0;
    if (!torn) {
      length = read_u32(file, at);
      torn = length > kMaxPayload ||
             remaining < kHeaderBytes + length + kTrailerBytes;
    }
    if (torn) {
      intact_end = at;
      return TailState::kTorn;
    }
    const std::uint32_t stored_crc = read_u32(file, at + kHeaderBytes + length);
    const std::uint32_t actual_crc =
        crc32({file.data() + at, kHeaderBytes + length});
    if (stored_crc != actual_crc) {
      intact_end = at;
      return TailState::kCorrupt;
    }
    if (fn != nullptr) (*fn)(file[at + 4], {file.data() + at + kHeaderBytes, length});
    at += kHeaderBytes + length + kTrailerBytes;
  }
  intact_end = at;
  return TailState::kWhole;
}

}  // namespace

std::string wal_segment_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%010llu.log",
                static_cast<unsigned long long>(index));
  return buf;
}

bool parse_wal_segment_name(const std::string& name, std::uint64_t& index) {
  if (name.size() != 18 || name.rfind("wal-", 0) != 0 ||
      name.compare(14, 4, ".log") != 0) {
    return false;
  }
  index = 0;
  for (std::size_t i = 4; i < 14; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    index = index * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

WalWriter::WalWriter(MemDisk* disk) : WalWriter(disk, Options{}) {}

WalWriter::WalWriter(MemDisk* disk, Options options)
    : disk_(disk), options_(options) {
  LYRA_ASSERT(disk_ != nullptr, "WAL writer needs a disk");
  LYRA_ASSERT(options_.segment_bytes > 0, "zero segment size");
  // Never append to a pre-existing segment: sealed segments are immutable
  // by contract. Repair the predecessor's torn tail first — once this
  // writer creates a newer segment, those torn bytes would sit mid-log and
  // read as corruption on the next replay.
  repaired_bytes_ = wal_repair_tail(*disk_);
  const auto existing = segments_on(*disk_);
  segment_ = existing.empty() ? 0 : existing.back().first + 1;
  segment_ = std::max(segment_, options_.min_segment);
}

void WalWriter::append(std::uint8_t type, BytesView payload) {
  LYRA_ASSERT(payload.size() <= kMaxPayload, "oversized WAL record");
  Bytes frame;
  frame.reserve(kHeaderBytes + payload.size() + kTrailerBytes);
  append_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.push_back(type);
  lyra::append(frame, payload);
  const std::uint32_t crc =
      crc32({frame.data(), kHeaderBytes + payload.size()});
  append_u32(frame, crc);

  disk_->append(wal_segment_name(segment_), frame);
  segment_fill_ += frame.size();
  bytes_ += frame.size();
  if (segment_fill_ >= options_.segment_bytes) seal();
}

std::uint64_t WalWriter::seal() {
  if (segment_fill_ > 0) {
    ++segment_;
    segment_fill_ = 0;
  }
  return segment_;
}

void WalWriter::drop_segments_before(std::uint64_t before) {
  for (const auto& [index, name] : segments_on(*disk_)) {
    if (index < before && index < segment_) disk_->remove(name);
  }
}

std::uint64_t wal_repair_tail(MemDisk& disk) {
  const auto segments = segments_on(disk);
  if (segments.empty()) return 0;
  const std::string& name = segments.back().second;
  const Bytes file = disk.read(name);
  std::size_t intact_end = 0;
  // Only a torn (incomplete) frame is repairable: it was never fully
  // written, so nothing durable is lost. A CRC mismatch is left in place
  // for replay to escalate — truncating it would silently erase an
  // acknowledged record.
  if (scan_segment(file, nullptr, intact_end) != TailState::kTorn) return 0;
  disk.truncate(name, intact_end);
  return file.size() - intact_end;
}

WalReplayStats wal_replay(
    const MemDisk& disk, std::uint64_t from_segment,
    const std::function<void(std::uint8_t type, BytesView payload)>& fn) {
  WalReplayStats stats;
  const auto segments = segments_on(disk);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const auto& [index, name] = segments[s];
    if (index < from_segment) continue;
    const bool last_segment = s + 1 == segments.size();
    const Bytes file = disk.read(name);
    ++stats.segments;

    std::size_t intact_end = 0;
    const std::function<void(std::uint8_t, BytesView)> counted =
        [&](std::uint8_t type, BytesView payload) {
          fn(type, payload);
          ++stats.records;
        };
    const TailState tail = scan_segment(file, &counted, intact_end);
    stats.bytes += intact_end;
    if (tail == TailState::kTorn) {
      if (last_segment) {
        // Tolerated: crash mid-append. Writers repair this on their next
        // incarnation; until then it can only sit in the newest segment.
        stats.torn_tail_bytes = file.size() - intact_end;
      } else {
        stats.corrupt = true;  // sealed segments must be whole
      }
      return stats;
    }
    if (tail == TailState::kCorrupt) {
      stats.corrupt = true;
      return stats;
    }
  }
  return stats;
}

}  // namespace lyra::storage
