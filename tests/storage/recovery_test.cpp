#include "storage/recovery.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "storage/disk.hpp"
#include "storage/journal.hpp"
#include "storage/wal.hpp"

namespace lyra::storage {
namespace {

crypto::Digest id_of(int i) {
  Bytes b;
  append_u64(b, static_cast<std::uint64_t>(i));
  return crypto::Sha256::hash(b);
}

core::AcceptedEntry entry(int i, SeqNum seq, NodeId proposer = 0) {
  core::AcceptedEntry e;
  e.cipher_id = id_of(i);
  e.seq = seq;
  e.inst = {proposer, static_cast<std::uint64_t>(i)};
  return e;
}

/// The snapshot a node would hand over after entries [0, upto] landed.
Snapshot snapshot_upto(int upto) {
  Snapshot snap;
  snap.node = 0;
  snap.status_counter = 1;
  snap.next_proposal_index = static_cast<std::uint64_t>(upto) + 1;
  for (int j = 0; j <= upto; ++j) {
    snap.accepted.push_back(entry(j, 100 * (j + 1)));
    LedgerEntryRecord rec;
    rec.entry = entry(j, 100 * (j + 1));
    rec.tx_count = static_cast<std::uint32_t>(10 + j);
    rec.revealed = rec.share_released = (j % 2 == 0);
    snap.ledger.push_back(rec);
  }
  return snap;
}

/// Drives a journal through a fixed little history: proposals, accepts,
/// commits, and reveals for entries [0, count). With `cut_snapshots`, hands
/// over a snapshot whenever the journal asks — the node's side of the
/// snapshot_due/write_snapshot handshake.
void write_history(DurableJournal& journal, int count,
                   bool cut_snapshots = false) {
  for (int i = 0; i < count; ++i) {
    journal.proposal(static_cast<std::uint64_t>(i));
    journal.accepted(entry(i, 100 * (i + 1)));
    journal.committed(entry(i, 100 * (i + 1)),
                      static_cast<std::uint32_t>(10 + i));
    if (i % 2 == 0) journal.revealed(id_of(i));
    if (cut_snapshots && journal.snapshot_due()) {
      journal.write_snapshot(snapshot_upto(i));
    }
  }
}

void expect_history(const RecoveredState& state, int count) {
  ASSERT_EQ(state.accepted.size(), static_cast<std::size_t>(count));
  ASSERT_EQ(state.ledger.size(), static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(state.accepted[i], entry(i, 100 * (i + 1)));
    EXPECT_EQ(state.ledger[i].entry, entry(i, 100 * (i + 1)));
    EXPECT_EQ(state.ledger[i].tx_count, static_cast<std::uint32_t>(10 + i));
    EXPECT_EQ(state.ledger[i].revealed, i % 2 == 0);
    EXPECT_EQ(state.ledger[i].share_released, i % 2 == 0);
  }
  EXPECT_EQ(state.next_proposal_index, static_cast<std::uint64_t>(count));
}

TEST(RecoveryTest, EmptyDiskRecoversNothing) {
  MemDisk disk;
  const RecoveredState state = recover(disk);
  EXPECT_FALSE(state.found);
  EXPECT_FALSE(state.stats.snapshot_loaded);
  EXPECT_FALSE(state.stats.wal_corrupt);
  EXPECT_TRUE(state.accepted.empty());
  EXPECT_TRUE(state.ledger.empty());
}

TEST(RecoveryTest, PureWalReplayRebuildsHistory) {
  MemDisk disk;
  DurableJournal journal(&disk);
  write_history(journal, 6);

  const RecoveredState state = recover(disk);
  ASSERT_TRUE(state.found);
  EXPECT_FALSE(state.stats.snapshot_loaded);
  EXPECT_GT(state.stats.replayed_records, 0u);
  expect_history(state, 6);
}

TEST(RecoveryTest, SnapshotPlusSuffixEqualsPureReplay) {
  // Same history on two disks; one snapshots mid-way, one never does.
  // Recovery must reconstruct identical state from either layout.
  MemDisk wal_only;
  MemDisk snapshotted;
  DurableJournal plain(&wal_only);
  DurableJournal::Options opts;
  opts.snapshot_every_committed = 4;  // snapshot after entry 3
  DurableJournal snappy(&snapshotted, opts);

  write_history(plain, 6);
  write_history(snappy, 6, /*cut_snapshots=*/true);
  EXPECT_EQ(snappy.stats().snapshots_written, 1u);

  const RecoveredState a = recover(wal_only);
  const RecoveredState b = recover(snapshotted);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_FALSE(a.stats.snapshot_loaded);
  EXPECT_TRUE(b.stats.snapshot_loaded);
  expect_history(a, 6);
  expect_history(b, 6);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.ledger, b.ledger);
  // The snapshotted disk replays only the post-snapshot suffix.
  EXPECT_LT(b.stats.replayed_records, a.stats.replayed_records);
}

TEST(RecoveryTest, SnapshotRestoresStatusCounter) {
  MemDisk disk;
  DurableJournal journal(&disk);
  Snapshot snap;
  snap.status_counter = 321;
  snap.next_proposal_index = 7;
  journal.write_snapshot(snap);

  const RecoveredState state = recover(disk);
  ASSERT_TRUE(state.found);
  EXPECT_EQ(state.status_counter, 321u);
  EXPECT_EQ(state.next_proposal_index, 7u);
}

TEST(RecoveryTest, FallsBackThroughCorruptNewestSnapshot) {
  MemDisk disk;
  {
    DurableJournal::Options opts;
    opts.snapshot_every_committed = 2;
    DurableJournal journal(&disk, opts);
    write_history(journal, 4, /*cut_snapshots=*/true);
  }
  // Manufacture a newer-but-corrupt snapshot next to the valid one.
  std::uint64_t newest = 0;
  for (const std::string& name : disk.list()) {
    std::uint64_t index = 0;
    if (parse_snapshot_name(name, index)) newest = std::max(newest, index);
  }
  Bytes good = disk.read(snapshot_name(newest));
  ASSERT_FALSE(good.empty());
  disk.write_atomic(snapshot_name(newest + 1), good);
  disk.corrupt(snapshot_name(newest + 1), good.size() / 2);

  const RecoveredState state = recover(disk);
  ASSERT_TRUE(state.found);
  EXPECT_TRUE(state.stats.snapshot_loaded);
  EXPECT_EQ(state.stats.snapshots_discarded, 1u);
  EXPECT_FALSE(state.stats.wal_corrupt);
  expect_history(state, 4);
}

TEST(RecoveryTest, SnapshotGcKeepsNewestTwoSnapshots) {
  MemDisk disk;
  DurableJournal::Options opts;
  opts.snapshot_every_committed = 2;
  DurableJournal journal(&disk, opts);
  write_history(journal, 8, /*cut_snapshots=*/true);  // several cycles
  EXPECT_GE(journal.stats().snapshots_written, 3u);

  // The newest snapshot plus its fallback survive — both decodable — and
  // no WAL segment precedes what the older of the two still needs.
  std::size_t snapshot_files = 0;
  std::uint64_t oldest_wal_needed = UINT64_MAX;
  for (const std::string& name : disk.list()) {
    std::uint64_t index = 0;
    if (parse_snapshot_name(name, index)) {
      ++snapshot_files;
      Snapshot snap;
      const Bytes data = disk.read(name);
      ASSERT_TRUE(decode_snapshot({data.data(), data.size()}, snap));
      oldest_wal_needed = std::min(oldest_wal_needed, snap.wal_start_segment);
    }
  }
  EXPECT_EQ(snapshot_files, 2u);
  for (const std::string& name : disk.list()) {
    std::uint64_t index = 0;
    if (parse_wal_segment_name(name, index)) {
      EXPECT_GE(index, oldest_wal_needed);
    }
  }

  // And the pruned disk still recovers the full history.
  const RecoveredState state = recover(disk);
  ASSERT_TRUE(state.found);
  expect_history(state, 8);
}

TEST(RecoveryTest, FallbackSnapshotSurvivesGc) {
  // The reason GC retains the previous snapshot: corrupt the newest one
  // *after* several GC cycles and recovery must still reconstruct the full
  // history from the fallback plus the longer (retained) WAL suffix.
  MemDisk disk;
  {
    DurableJournal::Options opts;
    opts.snapshot_every_committed = 2;
    DurableJournal journal(&disk, opts);
    write_history(journal, 8, /*cut_snapshots=*/true);
  }
  std::uint64_t newest = 0;
  for (const std::string& name : disk.list()) {
    std::uint64_t index = 0;
    if (parse_snapshot_name(name, index)) newest = std::max(newest, index);
  }
  disk.corrupt(snapshot_name(newest), disk.read(snapshot_name(newest)).size() / 2);

  const RecoveredState state = recover(disk);
  ASSERT_TRUE(state.found);
  EXPECT_TRUE(state.stats.snapshot_loaded);
  EXPECT_EQ(state.stats.snapshots_discarded, 1u);
  EXPECT_FALSE(state.stats.snapshots_all_corrupt);
  expect_history(state, 8);
}

TEST(RecoveryTest, AllSnapshotsCorruptIsEscalated) {
  // When every snapshot on disk fails its CRC, the WAL prefix they covered
  // is gone — recovery must flag it rather than silently hand back a
  // truncated committed prefix.
  MemDisk disk;
  {
    DurableJournal::Options opts;
    opts.snapshot_every_committed = 2;
    DurableJournal journal(&disk, opts);
    write_history(journal, 8, /*cut_snapshots=*/true);
  }
  for (const std::string& name : disk.list()) {
    std::uint64_t index = 0;
    if (parse_snapshot_name(name, index)) {
      disk.corrupt(name, disk.read(name).size() / 2);
    }
  }

  const RecoveredState state = recover(disk);
  EXPECT_FALSE(state.stats.snapshot_loaded);
  EXPECT_EQ(state.stats.snapshots_discarded, 2u);
  EXPECT_TRUE(state.stats.snapshots_all_corrupt);
}

TEST(RecoveryTest, TornTailDropsOnlyLastRecord) {
  MemDisk disk;
  std::uint64_t segment = 0;
  {
    DurableJournal journal(&disk);
    write_history(journal, 3);
    journal.accepted(entry(50, 5000));  // the record we tear
  }
  for (const std::string& name : disk.list()) {
    std::uint64_t index = 0;
    if (parse_wal_segment_name(name, index)) segment = std::max(segment, index);
  }
  const std::string last = wal_segment_name(segment);
  disk.truncate(last, disk.read(last).size() - 2);

  const RecoveredState state = recover(disk);
  ASSERT_TRUE(state.found);
  EXPECT_FALSE(state.stats.wal_corrupt);
  EXPECT_GT(state.stats.torn_tail_bytes, 0u);
  expect_history(state, 3);  // torn accept discarded, history intact
}

TEST(RecoveryTest, MidLogCorruptionIsEscalated) {
  MemDisk disk;
  {
    DurableJournal journal(&disk);
    write_history(journal, 3);
  }
  disk.corrupt(wal_segment_name(0), 8);

  const RecoveredState state = recover(disk);
  EXPECT_TRUE(state.stats.wal_corrupt);
}

TEST(RecoveryTest, CommittedRecordImpliesAccepted) {
  // A committed WAL record whose accept record was snapshot-GCed away must
  // still land the entry in the accepted set.
  MemDisk disk;
  {
    DurableJournal journal(&disk);
    journal.committed(entry(1, 100), 5);
  }
  const RecoveredState state = recover(disk);
  ASSERT_EQ(state.ledger.size(), 1u);
  ASSERT_EQ(state.accepted.size(), 1u);
  EXPECT_EQ(state.accepted[0], entry(1, 100));
}

TEST(RecoveryTest, DuplicateRecordsFoldIdempotently) {
  MemDisk disk;
  {
    DurableJournal journal(&disk);
    journal.accepted(entry(1, 100));
    journal.accepted(entry(1, 100));
    journal.committed(entry(1, 100), 5);
    journal.committed(entry(1, 100), 5);
    journal.revealed(id_of(1));
    journal.revealed(id_of(1));
  }
  const RecoveredState state = recover(disk);
  EXPECT_EQ(state.accepted.size(), 1u);
  ASSERT_EQ(state.ledger.size(), 1u);
  EXPECT_TRUE(state.ledger[0].revealed);
}

TEST(RecoveryTest, ProposalIndexNeverRegresses) {
  MemDisk disk;
  {
    DurableJournal journal(&disk);
    journal.proposal(9);
    journal.proposal(2);  // out-of-order replay must keep the max
  }
  const RecoveredState state = recover(disk);
  EXPECT_EQ(state.next_proposal_index, 10u);
}

TEST(RecoveryTest, PostRestartRecordsStayAboveSnapshotReplayPoint) {
  // After GC the snapshot's wal_start_segment can reference a segment with
  // no file on disk (nothing was appended since the snapshot sealed). A
  // fresh journal must not number its segments below that replay point —
  // it would journal new records where snapshot+suffix recovery never
  // looks, silently losing the second incarnation's progress.
  MemDisk disk;
  {
    DurableJournal::Options opts;
    opts.snapshot_every_committed = 2;
    DurableJournal journal(&disk, opts);
    write_history(journal, 2, /*cut_snapshots=*/true);  // WAL fully GC'd
  }
  {
    DurableJournal second(&disk);
    second.restarted();
    second.accepted(entry(7, 700));
  }
  const RecoveredState state = recover(disk);
  ASSERT_TRUE(state.found);
  EXPECT_EQ(state.restarts, 1u);
  EXPECT_EQ(state.accepted.size(), 3u);  // two from the snapshot + one new
  EXPECT_GT(state.stats.replayed_records, 0u);
}

TEST(RecoveryTest, CountsRestartMarkersSinceSnapshot) {
  // Each recovered incarnation journals a kRestart marker; recovery counts
  // the ones in the replayed suffix so LyraNode::restore can stride the
  // status-counter epoch past every incarnation, not just the last.
  MemDisk disk;
  {
    DurableJournal first(&disk);  // initial life: no marker
    write_history(first, 2);
  }
  EXPECT_EQ(recover(disk).restarts, 0u);
  {
    DurableJournal second(&disk);  // restart #1, crashes without progress
    second.restarted();
  }
  EXPECT_EQ(recover(disk).restarts, 1u);
  {
    DurableJournal third(&disk);  // restart #2
    third.restarted();
  }
  const RecoveredState state = recover(disk);
  EXPECT_EQ(state.restarts, 2u);
  expect_history(state, 2);  // markers fold into no logical state

  // A snapshot bakes prior restarts into its status counter; markers
  // before it drop out of the replayed suffix.
  {
    DurableJournal fourth(&disk);
    fourth.restarted();
    Snapshot snap = snapshot_upto(1);
    snap.status_counter = 99;
    fourth.write_snapshot(snap);
  }
  EXPECT_EQ(recover(disk).restarts, 0u);
}

TEST(RecoveryTest, JournalAcrossRestartContinuesHistory) {
  // Crash, recover, journal more with a fresh DurableJournal on the same
  // disk, recover again: both lives are visible.
  MemDisk disk;
  {
    DurableJournal first(&disk);
    write_history(first, 2);
  }
  {
    DurableJournal second(&disk);
    second.proposal(2);
    second.accepted(entry(2, 300));
    second.committed(entry(2, 300), 12);
    second.revealed(id_of(2));
  }
  const RecoveredState state = recover(disk);
  ASSERT_TRUE(state.found);
  expect_history(state, 3);
}

}  // namespace
}  // namespace lyra::storage
