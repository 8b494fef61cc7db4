// Tests for the crash-safe budget ledger (dp/budget_store.h): CRC framing,
// CRC pins on the journal and snapshot bytes, journal replay, torn-tail
// recovery cut at EVERY byte offset of the final record, mid-journal
// corruption detection, snapshot compaction round-trips, directories from
// older builds (a separate budget.snapshot) and leftover files, the
// BudgetManager's two-phase typed errors, live-vs-recovered equality of
// tenant stats, and -- the core durability claim -- 32-seed SIGKILL sweeps
// proving the recovered ledger equals the surviving record stream's replay
// bit for bit, for crashes injected before the write, after the write but
// before fsync, mid-record (torn write) and inside a compaction.
//
// The fork+SIGKILL tests are skipped under TSan (fork after threads exist
// trips die_after_fork); the byte-level recovery tests still run there.

#include "dp/budget_store.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/budget_manager.h"
#include "dp/privacy.h"
#include "util/status.h"

#if defined(__SANITIZE_THREAD__)
#define HTDP_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HTDP_TSAN_BUILD 1
#endif
#endif

namespace htdp {
namespace dp {
namespace {

std::string MakeTempDir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + "htdp_" + tag + "_XXXXXX";
  std::vector<char> buffer(tmpl.begin(), tmpl.end());
  buffer.push_back('\0');
  const char* dir = ::mkdtemp(buffer.data());
  EXPECT_NE(dir, nullptr) << tmpl;
  return dir == nullptr ? std::string() : std::string(dir);
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0) << path;
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

std::vector<std::uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return bytes;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got <= 0) break;
    bytes.insert(bytes.end(), buffer, buffer + got);
  }
  ::close(fd);
  return bytes;
}

/// A fresh directory whose journal holds `records[0, count)` as bare
/// frames, the way appends write them: the reference whose replay a
/// recovered ledger must equal.
std::string JournalDir(const std::vector<LedgerRecord>& records,
                       std::size_t count) {
  const std::string dir = MakeTempDir("journaldir");
  std::vector<std::uint8_t> journal;
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<std::uint8_t> frame = EncodeLedgerFrame(records[i]);
    journal.insert(journal.end(), frame.begin(), frame.end());
  }
  WriteFileBytes(dir + "/budget.journal", journal);
  return dir;
}

/// The file names in `dir`, sorted.
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

const std::vector<std::string> kOnlyJournal = {"budget.journal"};

StatusOr<std::unique_ptr<BudgetStore>> OpenDir(
    const std::string& dir, FsyncPolicy fsync = FsyncPolicy::kOff) {
  BudgetStore::Options options;
  options.dir = dir;
  options.fsync = fsync;
  return BudgetStore::Open(std::move(options));
}

/// Exact (bit-for-bit) equality of two recovered ledgers. Doubles compare
/// with ==: replay applies the identical arithmetic in the identical order,
/// so even accumulated floating-point error must reproduce exactly.
void ExpectRecoveredEqual(BudgetStore& got, BudgetStore& want) {
  EXPECT_EQ(got.recovered().next_reservation_id,
            want.recovered().next_reservation_id);
  EXPECT_EQ(got.recovery().dangling_reserves,
            want.recovery().dangling_reserves);
  const auto& got_tenants = got.recovered().tenants;
  ASSERT_EQ(got_tenants.size(), want.recovered().tenants.size());
  for (const auto& [name, expect] : want.recovered().tenants) {
    const auto it = got_tenants.find(name);
    ASSERT_NE(it, got_tenants.end()) << "missing tenant " << name;
    const LedgerState::Tenant& tenant = it->second;
    EXPECT_EQ(tenant.total_epsilon, expect.total_epsilon) << name;
    EXPECT_EQ(tenant.total_delta, expect.total_delta) << name;
    EXPECT_EQ(tenant.spent_epsilon, expect.spent_epsilon) << name;
    EXPECT_EQ(tenant.spent_delta, expect.spent_delta) << name;
    EXPECT_EQ(tenant.admitted, expect.admitted) << name;
    EXPECT_EQ(tenant.refunded, expect.refunded) << name;
    EXPECT_EQ(tenant.recovered_reserves, expect.recovered_reserves) << name;
    EXPECT_EQ(tenant.recovered_epsilon, expect.recovered_epsilon) << name;
    EXPECT_EQ(tenant.recovered_delta, expect.recovered_delta) << name;
  }
}

// ---------------------------------------------------------------------------
// Primitives

TEST(Crc32Test, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(check, 0), 0u);
  // Sensitivity: any byte change moves the digest.
  EXPECT_NE(Crc32("123456780", 9), 0xCBF43926u);
}

TEST(FsyncPolicyTest, ParsesAndNamesRoundTrip) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kAlways, FsyncPolicy::kBatch, FsyncPolicy::kOff}) {
    const StatusOr<FsyncPolicy> parsed =
        ParseFsyncPolicy(FsyncPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), policy);
  }
  EXPECT_EQ(ParseFsyncPolicy("sometimes").status().code(),
            StatusCode::kInvalidProblem);
}

TEST(CrashPlanTest, ParsesSpecsAndRejectsGarbage) {
  const StatusOr<CrashPlan> torn = CrashPlan::Parse("torn-write:7:13");
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn.value().point, CrashPlan::Point::kTornWrite);
  EXPECT_EQ(torn.value().nth, 7u);
  EXPECT_EQ(torn.value().torn_bytes, 13u);

  const StatusOr<CrashPlan> none = CrashPlan::Parse("");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().point, CrashPlan::Point::kNone);

  const StatusOr<CrashPlan> compact = CrashPlan::Parse("compact:2");
  ASSERT_TRUE(compact.ok());
  EXPECT_EQ(compact.value().point, CrashPlan::Point::kCompact);
  EXPECT_EQ(compact.value().nth, 2u);

  EXPECT_EQ(CrashPlan::Parse("pre-write").status().code(), StatusCode::kInvalidProblem);
  EXPECT_EQ(CrashPlan::Parse("mid-write:3").status().code(),
            StatusCode::kInvalidProblem);
  EXPECT_EQ(CrashPlan::Parse("pre-write:zero").status().code(),
            StatusCode::kInvalidProblem);
  EXPECT_EQ(CrashPlan::Parse("pre-write:0").status().code(),
            StatusCode::kInvalidProblem);
}

// ---------------------------------------------------------------------------
// On-disk byte pins: CRC-32 of the exact bytes older builds wrote, so a
// refactor of the ledger cannot silently change what lands on disk.

TEST(LedgerBytesTest, RecordFramesArePinned) {
  struct Pin {
    LedgerRecord record;
    std::size_t size;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {{LedgerRecordType::kRegister, 0, "acme", 10.0, 1e-4}, 41, 0x812ABF51u},
      {{LedgerRecordType::kReserve, 7, "acme", 1.5, 1e-6}, 41, 0x38A7BE8Fu},
      {{LedgerRecordType::kCommit, 7, "", 0.0, 0.0}, 37, 0x0B26489Fu},
      {{LedgerRecordType::kAbort, 8, "", 0.0, 0.0}, 37, 0x3E0A2D03u},
      {{LedgerRecordType::kRefund, 0, "acme", 0.5, 0.0}, 41, 0x962ACBDBu},
  };
  for (const Pin& pin : pins) {
    const std::vector<std::uint8_t> frame = EncodeLedgerFrame(pin.record);
    SCOPED_TRACE("type=" + std::to_string(static_cast<int>(pin.record.type)));
    EXPECT_EQ(frame.size(), pin.size);
    EXPECT_EQ(Crc32(frame.data(), frame.size()), pin.crc);
  }
}

TEST(LedgerBytesTest, SnapshotBytesArePinned) {
  // Every field holds a distinct value, so swapping two of them on disk
  // moves the CRC.
  LedgerState state;
  LedgerState::Tenant& acme = state.tenants["acme"];
  acme.total_epsilon = 5.0;
  acme.total_delta = 1e-4;
  acme.spent_epsilon = 2.5;
  acme.spent_delta = 3e-6;
  acme.admitted = 3;
  acme.rejected = 4;
  acme.refunded = 2;
  acme.recovered_reserves = 1;
  acme.recovered_epsilon = 0.75;
  acme.recovered_delta = 1e-6;
  LedgerState::Tenant& beta = state.tenants["beta"];
  beta.total_epsilon = 1.0;
  beta.total_delta = 2e-5;
  beta.spent_epsilon = 0.25;
  beta.spent_delta = 5e-6;
  beta.admitted = 1;
  state.open[7] = {LedgerRecordType::kReserve, 7, "acme", 0.5, 2e-6};
  state.next_reservation_id = 9;

  const std::string dir = MakeTempDir("snappin");
  {
    const StatusOr<std::unique_ptr<BudgetStore>> store = OpenDir(dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    ASSERT_TRUE(store.value()->Compact(state).ok());
  }
  const std::vector<std::uint8_t> bytes =
      ReadFileBytes(dir + "/budget.journal");
  EXPECT_EQ(bytes.size(), 289u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0xE3D34F59u);

  // It reads back as written, the open reservation folded into spend.
  const StatusOr<std::unique_ptr<BudgetStore>> reopened = OpenDir(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value()->recovery().snapshot_tenants, 2u);
  EXPECT_EQ(reopened.value()->recovery().dangling_reserves, 1u);
  const LedgerState& got = reopened.value()->recovered();
  EXPECT_EQ(got.next_reservation_id, 9u);
  EXPECT_TRUE(got.open.empty());
  const LedgerState::Tenant& back = got.tenants.at("acme");
  EXPECT_EQ(back.spent_epsilon, 2.5);
  EXPECT_EQ(back.rejected, 4u);
  EXPECT_EQ(back.refunded, 2u);
  EXPECT_EQ(back.recovered_reserves, 2u);
  EXPECT_EQ(back.recovered_epsilon, 0.75 + 0.5);
  EXPECT_TRUE(back.recovered_only);
}

// ---------------------------------------------------------------------------
// Journal replay

TEST(BudgetStoreTest, JournalRoundTripsThroughReopen) {
  const std::string dir = MakeTempDir("journal");
  {
    const StatusOr<std::unique_ptr<BudgetStore>> store = OpenDir(dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    BudgetStore& journal = *store.value();
    ASSERT_TRUE(
        journal
            .Append({LedgerRecordType::kRegister, 0, "acme", 10.0, 1e-4})
            .ok());
    ASSERT_TRUE(
        journal.Append({LedgerRecordType::kReserve, 1, "acme", 1.5, 1e-6})
            .ok());
    ASSERT_TRUE(journal.Append({LedgerRecordType::kCommit, 1, "", 0, 0}).ok());
    ASSERT_TRUE(
        journal.Append({LedgerRecordType::kReserve, 2, "acme", 0.25, 1e-6})
            .ok());
    ASSERT_TRUE(journal.Append({LedgerRecordType::kAbort, 2, "", 0, 0}).ok());
    ASSERT_TRUE(
        journal.Append({LedgerRecordType::kRefund, 0, "acme", 0.5, 0.0}).ok());
    EXPECT_EQ(journal.journal_records(), 6u);
  }
  // The REFUND record is no longer written, but journals from older builds
  // that hold one must still replay.
  const StatusOr<std::unique_ptr<BudgetStore>> reopened = OpenDir(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  const RecoveryStats& stats = reopened.value()->recovery();
  EXPECT_EQ(stats.journal_records, 6u);
  EXPECT_EQ(stats.dangling_reserves, 0u);
  EXPECT_EQ(stats.torn_bytes_discarded, 0u);
  EXPECT_FALSE(stats.corruption_detected);
  const LedgerState& recovered = reopened.value()->recovered();
  EXPECT_EQ(recovered.next_reservation_id, 3u);
  const auto it = recovered.tenants.find("acme");
  ASSERT_NE(it, recovered.tenants.end());
  // 1.5 committed, 0.25 aborted back out, 0.5 refunded: 1.5 - 0.5 = 1.0.
  EXPECT_EQ(it->second.spent_epsilon, 1.5 - 0.5);
  EXPECT_EQ(it->second.total_epsilon, 10.0);
  EXPECT_EQ(it->second.admitted, 2u);
  EXPECT_EQ(it->second.refunded, 2u);  // the abort and the refund
}

TEST(BudgetStoreTest, DanglingReserveFoldsIntoCommittedSpend) {
  const std::string dir = MakeTempDir("dangling");
  {
    const StatusOr<std::unique_ptr<BudgetStore>> store = OpenDir(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()
                    ->Append({LedgerRecordType::kRegister, 0, "acme", 4.0,
                              1e-4})
                    .ok());
    ASSERT_TRUE(store.value()
                    ->Append({LedgerRecordType::kReserve, 1, "acme", 1.25,
                              1e-6})
                    .ok());
    // No COMMIT/ABORT: the process "dies" here (destructor closes cleanly,
    // but the reservation's fate was never journaled).
  }
  const StatusOr<std::unique_ptr<BudgetStore>> reopened = OpenDir(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->recovery().dangling_reserves, 1u);
  const LedgerState& recovered = reopened.value()->recovered();
  const auto it = recovered.tenants.find("acme");
  ASSERT_NE(it, recovered.tenants.end());
  // Conservative fold: the spend added at RESERVE stays spent.
  EXPECT_EQ(it->second.spent_epsilon, 1.25);
  EXPECT_EQ(it->second.recovered_reserves, 1u);
  EXPECT_EQ(it->second.recovered_epsilon, 1.25);

  // A manager adopting this ledger must not resurrect the budget.
  BudgetManager budgets;
  ASSERT_TRUE(budgets.AttachStore(reopened.value().get()).ok());
  ASSERT_TRUE(
      budgets.RegisterTenant("acme", PrivacyBudget::Approx(4.0, 1e-4)).ok());
  const StatusOr<PrivacyBudget> remaining = budgets.Remaining("acme");
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(remaining->epsilon, 4.0 - 1.25);
  const StatusOr<BudgetManager::TenantStats> stats = budgets.Stats("acme");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->recovered_reserves, 1u);
  EXPECT_EQ(stats->recovered.epsilon, 1.25);
}

// ---------------------------------------------------------------------------
// Torn tails and corruption (satellite: truncation at every byte offset)

TEST(BudgetStoreTest, TornTailRecoveryAtEveryByteOffsetOfTheFinalRecord) {
  const std::vector<LedgerRecord> records = {
      {LedgerRecordType::kRegister, 0, "acme", 8.0, 1e-4},
      {LedgerRecordType::kReserve, 1, "acme", 1.0, 1e-6},
      {LedgerRecordType::kReserve, 2, "acme", 0.5, 1e-6},
  };
  std::vector<std::uint8_t> full;
  std::size_t prefix_bytes = 0;  // bytes of every record but the last
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::vector<std::uint8_t> frame = EncodeLedgerFrame(records[i]);
    if (i + 1 < records.size()) prefix_bytes += frame.size();
    full.insert(full.end(), frame.begin(), frame.end());
  }
  const std::size_t final_bytes = full.size() - prefix_bytes;
  ASSERT_GT(final_bytes, 8u);

  // Cut the journal after every byte count 0..final_bytes-1 of the last
  // record: recovery must replay exactly the first two records, report the
  // cut bytes as torn, and never flag corruption.
  for (std::size_t cut = 0; cut < final_bytes; ++cut) {
    const std::string dir = MakeTempDir("torn");
    const std::vector<std::uint8_t> truncated(
        full.begin(), full.begin() + prefix_bytes + cut);
    WriteFileBytes(dir + "/budget.journal", truncated);

    const StatusOr<std::unique_ptr<BudgetStore>> store = OpenDir(dir);
    ASSERT_TRUE(store.ok()) << "cut=" << cut << ": "
                            << store.status().message();
    const RecoveryStats& stats = store.value()->recovery();
    EXPECT_EQ(stats.journal_records, 2u) << "cut=" << cut;
    EXPECT_EQ(stats.torn_bytes_discarded, cut) << "cut=" << cut;
    EXPECT_FALSE(stats.corruption_detected) << "cut=" << cut;
    // Both reserves replayed; the second is gone with the tail, the first
    // is dangling and folds into spend.
    const LedgerState& recovered = store.value()->recovered();
    const auto it = recovered.tenants.find("acme");
    ASSERT_NE(it, recovered.tenants.end());
    EXPECT_EQ(it->second.spent_epsilon, 1.0) << "cut=" << cut;
    EXPECT_EQ(stats.dangling_reserves, 1u) << "cut=" << cut;
    // The journal is truncated back to the verified prefix, so appends
    // never interleave with garbage.
    EXPECT_EQ(store.value()->journal_bytes(), prefix_bytes) << "cut=" << cut;
  }
}

TEST(BudgetStoreTest, MidJournalCorruptionHaltsReplayConservatively) {
  const std::vector<LedgerRecord> records = {
      {LedgerRecordType::kRegister, 0, "acme", 8.0, 1e-4},
      {LedgerRecordType::kReserve, 1, "acme", 1.0, 1e-6},
      {LedgerRecordType::kCommit, 1, "", 0, 0},
  };
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> starts;
  for (const LedgerRecord& record : records) {
    starts.push_back(bytes.size());
    const std::vector<std::uint8_t> frame = EncodeLedgerFrame(record);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  // Flip one payload byte of the MIDDLE record: its CRC fails with a valid
  // record beyond it -- that is medium corruption, not a torn write.
  bytes[starts[1] + 12] ^= 0xff;
  const std::string dir = MakeTempDir("corrupt");
  WriteFileBytes(dir + "/budget.journal", bytes);

  const StatusOr<std::unique_ptr<BudgetStore>> store = OpenDir(dir);
  ASSERT_TRUE(store.ok()) << store.status().message();
  EXPECT_TRUE(store.value()->recovery().corruption_detected);
  // Replay stopped at the unverifiable record; only the register survived.
  EXPECT_EQ(store.value()->recovery().journal_records, 1u);
  const LedgerState& recovered = store.value()->recovered();
  const auto it = recovered.tenants.find("acme");
  ASSERT_NE(it, recovered.tenants.end());
  EXPECT_EQ(it->second.spent_epsilon, 0.0);
}

TEST(BudgetStoreTest, CorruptSnapshotRefusesToServe) {
  std::vector<std::uint8_t> snapshot;
  {
    const std::string dir = MakeTempDir("badsnap");
    const StatusOr<std::unique_ptr<BudgetStore>> store = OpenDir(dir);
    ASSERT_TRUE(store.ok());
    LedgerState state;
    state.tenants["acme"].total_epsilon = 5.0;
    state.tenants["acme"].spent_epsilon = 2.0;
    state.next_reservation_id = 9;
    ASSERT_TRUE(store.value()->Compact(state).ok());
    snapshot = ReadFileBytes(dir + "/budget.journal");
  }
  ASSERT_GT(snapshot.size(), 16u);
  // The middle byte, then the header frame's type byte (8: the frame fails
  // its CRC with the rest of the snapshot after it) and the top byte of its
  // length (7: the frame claims more than the file holds, which alone
  // reads as a torn tail). Each refuses and leaves the file as it was, in a
  // compacted journal and in an older build's budget.snapshot.
  for (const char* name : {"budget.journal", "budget.snapshot"}) {
    for (const std::size_t offset :
         {snapshot.size() / 2, std::size_t{8}, std::size_t{7}}) {
      std::vector<std::uint8_t> bytes = snapshot;
      bytes[offset] ^= 0xff;
      const std::string dir = MakeTempDir("badsnap");
      WriteFileBytes(dir + "/" + name, bytes);

      const StatusOr<std::unique_ptr<BudgetStore>> reopened = OpenDir(dir);
      ASSERT_FALSE(reopened.ok()) << name << " offset=" << offset;
      EXPECT_EQ(reopened.status().code(), StatusCode::kUnavailable);
      EXPECT_NE(reopened.status().message().find("corrupt"),
                std::string::npos);
      EXPECT_EQ(ReadFileBytes(dir + "/" + name), bytes)
          << name << " offset=" << offset;
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot + compaction

TEST(BudgetStoreTest, CompactionTruncatesJournalAndSurvivesReopen) {
  const std::string dir = MakeTempDir("compact");
  BudgetManager::TenantStats before;
  {
    BudgetStore::Options options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kOff;
    options.compact_every = 4;  // compact aggressively for the test
    StatusOr<std::unique_ptr<BudgetStore>> store =
        BudgetStore::Open(std::move(options));
    ASSERT_TRUE(store.ok());

    BudgetManager budgets;
    ASSERT_TRUE(budgets.AttachStore(store.value().get()).ok());
    ASSERT_TRUE(
        budgets.RegisterTenant("acme", PrivacyBudget::Approx(100.0, 1e-2))
            .ok());
    std::vector<BudgetManager::ReservationId> open;
    for (int i = 0; i < 9; ++i) {
      const StatusOr<BudgetManager::ReservationId> id =
          budgets.Reserve("acme", PrivacyBudget::Approx(0.125, 1e-7));
      ASSERT_TRUE(id.ok());
      if (i % 3 == 0) {
        open.push_back(id.value());  // stays open across the snapshot
      } else if (i % 3 == 1) {
        ASSERT_TRUE(budgets.Commit(id.value()).ok());
      } else {
        ASSERT_TRUE(budgets.Abort(id.value()).ok());
      }
    }
    EXPECT_GE(store.value()->snapshots_written(), 1u);
    // Compaction replaced the journal: what's on disk is the last snapshot
    // and the records appended after it, not the full history.
    EXPECT_EQ(store.value()->journal_bytes(),
              ReadFileBytes(dir + "/budget.journal").size());
    EXPECT_EQ(DirEntries(dir), kOnlyJournal);
    const StatusOr<BudgetManager::TenantStats> stats = budgets.Stats("acme");
    ASSERT_TRUE(stats.ok());
    before = stats.value();
    EXPECT_EQ(before.open, 3u);
    // Resolve one open reservation AFTER the last snapshot: its COMMIT must
    // still replay against the snapshot-carried reservation on reopen.
    ASSERT_TRUE(budgets.Commit(open.front()).ok());
  }

  const StatusOr<std::unique_ptr<BudgetStore>> reopened = OpenDir(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  BudgetManager budgets;
  ASSERT_TRUE(budgets.AttachStore(reopened.value().get()).ok());
  ASSERT_TRUE(
      budgets.RegisterTenant("acme", PrivacyBudget::Approx(100.0, 1e-2))
          .ok());
  const StatusOr<BudgetManager::TenantStats> after = budgets.Stats("acme");
  ASSERT_TRUE(after.ok());
  // Spend carries over exactly; the two reservations never resolved fold
  // into recovered spend.
  EXPECT_EQ(after->spent.epsilon, before.spent.epsilon);
  EXPECT_EQ(after->spent.delta, before.spent.delta);
  EXPECT_EQ(after->admitted, before.admitted);
  EXPECT_EQ(after->recovered_reserves, 2u);
  EXPECT_EQ(after->open, 0u);
}

// ---------------------------------------------------------------------------
// Directories from older builds, and files a crash leaves behind

/// The state SnapshotBytesArePinned compacts: Compact writes it as the
/// pinned 289 bytes.
LedgerState PinnedState() {
  LedgerState state;
  LedgerState::Tenant& acme = state.tenants["acme"];
  acme.total_epsilon = 5.0;
  acme.total_delta = 1e-4;
  acme.spent_epsilon = 2.5;
  acme.spent_delta = 3e-6;
  acme.admitted = 3;
  acme.rejected = 4;
  acme.refunded = 2;
  acme.recovered_reserves = 1;
  acme.recovered_epsilon = 0.75;
  acme.recovered_delta = 1e-6;
  LedgerState::Tenant& beta = state.tenants["beta"];
  beta.total_epsilon = 1.0;
  beta.total_delta = 2e-5;
  beta.spent_epsilon = 0.25;
  beta.spent_delta = 5e-6;
  beta.admitted = 1;
  state.open[7] = {LedgerRecordType::kReserve, 7, "acme", 0.5, 2e-6};
  state.next_reservation_id = 9;
  return state;
}

/// The bytes Compact writes for `state`.
std::vector<std::uint8_t> SnapshotBytes(const LedgerState& state) {
  const std::string dir = MakeTempDir("snapbytes");
  const StatusOr<std::unique_ptr<BudgetStore>> store = OpenDir(dir);
  EXPECT_TRUE(store.ok()) << store.status().message();
  if (!store.ok()) return {};
  EXPECT_TRUE(store.value()->Compact(state).ok());
  return ReadFileBytes(dir + "/budget.journal");
}

TEST(BudgetStoreTest, OlderBuildDirectoryRecoversTheSameAcrossCompaction) {
  // An older build kept its snapshot in budget.snapshot, beside a journal
  // of bare records that replays on top of it.
  const std::vector<LedgerRecord> records = {
      {LedgerRecordType::kCommit, 7, "", 0, 0},  // the snapshot's open one
      {LedgerRecordType::kReserve, 9, "acme", 0.25, 1e-6},
      {LedgerRecordType::kAbort, 9, "", 0, 0},
      {LedgerRecordType::kReserve, 10, "beta", 0.125, 1e-6},
      {LedgerRecordType::kCommit, 10, "", 0, 0},
  };
  const std::string dir = JournalDir(records, records.size());
  const std::vector<std::uint8_t> snapshot = SnapshotBytes(PinnedState());
  ASSERT_EQ(Crc32(snapshot.data(), snapshot.size()), 0xE3D34F59u);
  WriteFileBytes(dir + "/budget.snapshot", snapshot);

  const StatusOr<std::unique_ptr<BudgetStore>> before = OpenDir(dir);
  ASSERT_TRUE(before.ok()) << before.status().message();
  EXPECT_EQ(before.value()->recovery().snapshot_tenants, 2u);
  EXPECT_EQ(before.value()->recovery().journal_records, records.size());
  const LedgerState& v1 = before.value()->recovered();
  EXPECT_EQ(v1.next_reservation_id, 11u);
  EXPECT_EQ(v1.tenants.at("acme").spent_epsilon, 2.5);
  EXPECT_EQ(v1.tenants.at("acme").refunded, 3u);
  EXPECT_EQ(v1.tenants.at("beta").spent_epsilon, 0.25 + 0.125);

  // The first compaction moves the whole ledger into the journal and
  // deletes the old snapshot file.
  ASSERT_TRUE(before.value()->Compact(v1).ok());
  EXPECT_EQ(DirEntries(dir), kOnlyJournal);
  const StatusOr<std::unique_ptr<BudgetStore>> after = OpenDir(dir);
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_EQ(after.value()->recovery().journal_records, 0u);
  ExpectRecoveredEqual(*after.value(), *before.value());
}

TEST(BudgetStoreTest, StaleSnapshotBesideACompactedJournalIsIgnored) {
  // An older build's directory, killed in its first compaction here after
  // the rename and before the old snapshot was unlinked.
  LedgerState compacted;
  compacted.tenants["acme"].total_epsilon = 4.0;
  compacted.tenants["acme"].spent_epsilon = 1.0;
  compacted.next_reservation_id = 3;
  const std::vector<LedgerRecord> tail = {
      {LedgerRecordType::kReserve, 3, "acme", 0.5, 1e-6},
      {LedgerRecordType::kCommit, 3, "", 0, 0},
  };
  const auto fill = [&](const std::string& dir) {
    const StatusOr<std::unique_ptr<BudgetStore>> store = OpenDir(dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    ASSERT_TRUE(store.value()->Compact(compacted).ok());
    for (const LedgerRecord& record : tail) {
      ASSERT_TRUE(store.value()->Append(record).ok());
    }
  };
  const std::string dir = MakeTempDir("stale");
  const std::string reference_dir = MakeTempDir("nostale");
  fill(dir);
  fill(reference_dir);
  WriteFileBytes(dir + "/budget.snapshot", SnapshotBytes(PinnedState()));

  const StatusOr<std::unique_ptr<BudgetStore>> got = OpenDir(dir);
  ASSERT_TRUE(got.ok()) << got.status().message();
  const StatusOr<std::unique_ptr<BudgetStore>> want = OpenDir(reference_dir);
  ASSERT_TRUE(want.ok()) << want.status().message();
  ExpectRecoveredEqual(*got.value(), *want.value());
  EXPECT_EQ(got.value()->recovered().tenants.at("acme").spent_epsilon, 1.5);

  ASSERT_TRUE(got.value()->Compact(got.value()->recovered()).ok());
  EXPECT_EQ(DirEntries(dir), kOnlyJournal);
}

TEST(BudgetStoreTest, LeftoverJournalTmpIsIgnoredAndReplacedByCompaction) {
  // A compaction killed before its rename leaves budget.journal.tmp behind.
  const std::vector<LedgerRecord> records = {
      {LedgerRecordType::kRegister, 0, "acme", 8.0, 1e-4},
      {LedgerRecordType::kReserve, 1, "acme", 1.0, 1e-6},
      {LedgerRecordType::kCommit, 1, "", 0, 0},
  };
  const std::string dir = JournalDir(records, records.size());
  const std::string reference_dir = JournalDir(records, records.size());
  std::vector<std::uint8_t> garbage(300);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  WriteFileBytes(dir + "/budget.journal.tmp", garbage);

  const StatusOr<std::unique_ptr<BudgetStore>> got = OpenDir(dir);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_FALSE(got.value()->recovery().corruption_detected);
  const StatusOr<std::unique_ptr<BudgetStore>> want = OpenDir(reference_dir);
  ASSERT_TRUE(want.ok()) << want.status().message();
  ExpectRecoveredEqual(*got.value(), *want.value());

  ASSERT_TRUE(got.value()->Compact(got.value()->recovered()).ok());
  EXPECT_EQ(DirEntries(dir), kOnlyJournal);
  const StatusOr<std::unique_ptr<BudgetStore>> reopened = OpenDir(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ExpectRecoveredEqual(*reopened.value(), *want.value());
}

// ---------------------------------------------------------------------------
// Manager typed errors

TEST(BudgetManagerDurabilityTest, CommitAndAbortRequireAnOpenReservation) {
  BudgetManager budgets;
  ASSERT_TRUE(
      budgets.RegisterTenant("acme", PrivacyBudget::Approx(2.0, 1e-4)).ok());
  EXPECT_EQ(budgets.Commit(42).code(), StatusCode::kInvalidProblem);
  EXPECT_EQ(budgets.Abort(42).code(), StatusCode::kInvalidProblem);

  const StatusOr<BudgetManager::ReservationId> id =
      budgets.Reserve("acme", PrivacyBudget::Approx(1.0, 1e-6));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(budgets.Commit(id.value()).ok());
  // Double-resolve is the bug the typed error exists to catch.
  EXPECT_EQ(budgets.Commit(id.value()).code(), StatusCode::kInvalidProblem);
  EXPECT_EQ(budgets.Abort(id.value()).code(), StatusCode::kInvalidProblem);

  const BudgetManager::LedgerTotals totals = budgets.Totals();
  EXPECT_EQ(totals.reserves, 1u);
  EXPECT_EQ(totals.commits, 1u);
  EXPECT_EQ(totals.aborts, 0u);
  EXPECT_EQ(totals.open, 0u);
}

// ---------------------------------------------------------------------------
// The 32-seed crash sweep (tentpole acceptance)

/// One deterministic ledger operation; both the child (executing against a
/// real BudgetManager + BudgetStore) and the parent (deriving the expected
/// journal record stream) consume the same generated list.
struct LedgerOp {
  /// kReserveCommit / kReserveAbort: a Reserve closed at once.
  enum class Kind { kRegister, kReserve, kCommit, kAbort, kReserveCommit,
                    kReserveAbort };
  Kind kind = Kind::kRegister;
  std::string tenant;
  double epsilon = 0.0;
  double delta = 0.0;
  std::uint64_t id = 0;  // reserves: id it must get; commit/abort: target
};

std::vector<LedgerOp> GenerateOps(std::uint64_t seed) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<LedgerOp> ops;
  ops.push_back({LedgerOp::Kind::kRegister, "t0", 1e6, 0.4, 0});
  ops.push_back({LedgerOp::Kind::kRegister, "t1", 1e6, 0.4, 0});
  std::vector<std::uint64_t> open;
  std::uint64_t next_id = 1;
  for (int i = 0; i < 40; ++i) {
    const std::string tenant = next() % 2 == 0 ? "t0" : "t1";
    // Irregular mantissas so replay equality is a real bit-for-bit claim.
    const double eps = static_cast<double>(1 + next() % 997) / 813.0;
    const double delta = eps * 1e-6;
    std::uint64_t choice = next() % 6;
    if (open.empty() && (choice == 2 || choice == 3)) choice = 0;
    switch (choice) {
      case 0:
      case 1:
        ops.push_back({LedgerOp::Kind::kReserve, tenant, eps, delta,
                       next_id});
        open.push_back(next_id++);
        break;
      case 2:
      case 3: {
        const std::size_t pick = next() % open.size();
        ops.push_back({choice == 2 ? LedgerOp::Kind::kCommit
                                   : LedgerOp::Kind::kAbort,
                       "", 0.0, 0.0, open[pick]});
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        break;
      }
      case 4:
        ops.push_back({LedgerOp::Kind::kReserveCommit, tenant, eps, delta,
                       next_id++});
        break;
      case 5:
        ops.push_back({LedgerOp::Kind::kReserveAbort, tenant, eps / 16.0,
                       delta / 16.0, next_id++});
        break;
    }
  }
  return ops;
}

/// The exact journal records the BudgetManager appends for `ops`, in order.
std::vector<LedgerRecord> ExpectedRecords(const std::vector<LedgerOp>& ops) {
  std::vector<LedgerRecord> records;
  for (const LedgerOp& op : ops) {
    switch (op.kind) {
      case LedgerOp::Kind::kRegister:
        records.push_back({LedgerRecordType::kRegister, 0, op.tenant,
                           op.epsilon, op.delta});
        break;
      case LedgerOp::Kind::kReserve:
        records.push_back({LedgerRecordType::kReserve, op.id, op.tenant,
                           op.epsilon, op.delta});
        break;
      case LedgerOp::Kind::kCommit:
        records.push_back({LedgerRecordType::kCommit, op.id, "", 0.0, 0.0});
        break;
      case LedgerOp::Kind::kAbort:
        records.push_back({LedgerRecordType::kAbort, op.id, "", 0.0, 0.0});
        break;
      case LedgerOp::Kind::kReserveCommit:
      case LedgerOp::Kind::kReserveAbort:
        records.push_back({LedgerRecordType::kReserve, op.id, op.tenant,
                           op.epsilon, op.delta});
        records.push_back({op.kind == LedgerOp::Kind::kReserveCommit
                               ? LedgerRecordType::kCommit
                               : LedgerRecordType::kAbort,
                           op.id, "", 0.0, 0.0});
        break;
    }
  }
  return records;
}

/// Runs `ops` against `budgets`. Returns 0 when every operation succeeded,
/// 43 when a reservation id diverged from the generated one, 44 when an
/// operation failed (the forked child's exit codes).
int RunOps(BudgetManager& budgets, const std::vector<LedgerOp>& ops) {
  for (const LedgerOp& op : ops) {
    const PrivacyBudget cost{op.epsilon, op.delta};
    switch (op.kind) {
      case LedgerOp::Kind::kRegister:
        if (!budgets.RegisterTenant(op.tenant, cost).ok()) return 44;
        break;
      case LedgerOp::Kind::kReserve:
      case LedgerOp::Kind::kReserveCommit:
      case LedgerOp::Kind::kReserveAbort: {
        const StatusOr<BudgetManager::ReservationId> id =
            budgets.Reserve(op.tenant, cost);
        if (!id.ok()) return 44;
        if (id.value() != op.id) return 43;
        if (op.kind == LedgerOp::Kind::kReserveCommit &&
            !budgets.Commit(op.id).ok()) {
          return 44;
        }
        if (op.kind == LedgerOp::Kind::kReserveAbort &&
            !budgets.Abort(op.id).ok()) {
          return 44;
        }
        break;
      }
      case LedgerOp::Kind::kCommit:
        if (!budgets.Commit(op.id).ok()) return 44;
        break;
      case LedgerOp::Kind::kAbort:
        if (!budgets.Abort(op.id).ok()) return 44;
        break;
    }
  }
  return 0;
}

/// Runs `ops` against a durable manager in a forked child that the store
/// SIGKILLs per `plan`. Exit codes (only reached when the crash never
/// fires): 42 = sequence completed, else RunOps' failure code.
void RunChildLedger(const std::string& dir, const CrashPlan& plan,
                    const std::vector<LedgerOp>& ops, FsyncPolicy fsync,
                    std::size_t compact_every) {
  BudgetStore::Options options;
  options.dir = dir;
  options.fsync = fsync;
  options.compact_every = compact_every;
  options.crash = plan;
  StatusOr<std::unique_ptr<BudgetStore>> store =
      BudgetStore::Open(std::move(options));
  if (!store.ok()) ::_exit(44);
  BudgetManager budgets;
  if (!budgets.AttachStore(store.value().get()).ok()) ::_exit(44);
  const int failed = RunOps(budgets, ops);
  ::_exit(failed == 0 ? 42 : failed);
}

/// Forks a child that runs `ops` per RunChildLedger and reaps it; succeeds
/// only when the planned SIGKILL ended it.
::testing::AssertionResult RunChildUntilKilled(
    const std::string& dir, const CrashPlan& plan,
    const std::vector<LedgerOp>& ops, FsyncPolicy fsync,
    std::size_t compact_every) {
  const pid_t child = ::fork();
  if (child < 0) return ::testing::AssertionFailure() << "fork failed";
  if (child == 0) {
    RunChildLedger(dir, plan, ops, fsync, compact_every);  // never returns
  }
  int wstatus = 0;
  if (::waitpid(child, &wstatus, 0) != child) {
    return ::testing::AssertionFailure() << "waitpid failed";
  }
  if (!WIFSIGNALED(wstatus) || WTERMSIG(wstatus) != SIGKILL) {
    return ::testing::AssertionFailure()
           << "child exited "
           << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1)
           << " instead of being SIGKILLed";
  }
  return ::testing::AssertionSuccess();
}

TEST(BudgetCrashSweepTest, RecoveredSpendEqualsCommittedSpendAcross32Seeds) {
#ifdef HTDP_TSAN_BUILD
  GTEST_SKIP() << "fork-based crash injection is incompatible with TSan";
#else
  ::unsetenv("HTDP_BUDGET_CRASH");
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<LedgerOp> ops = GenerateOps(seed);
    const std::vector<LedgerRecord> records = ExpectedRecords(ops);
    ASSERT_GT(records.size(), 8u);

    CrashPlan plan;
    plan.point = static_cast<CrashPlan::Point>(1 + seed % 3);
    plan.nth =
        1 + static_cast<std::size_t>((seed * 2654435761ull) % records.size());
    const std::vector<std::uint8_t> nth_frame =
        EncodeLedgerFrame(records[plan.nth - 1]);
    if (plan.point == CrashPlan::Point::kTornWrite) {
      // Always a strict prefix, so the tail really is torn.
      plan.torn_bytes =
          1 + static_cast<std::size_t>((seed * 40503ull) %
                                       (nth_frame.size() - 1));
    }
    const FsyncPolicy fsync =
        seed % 2 == 0 ? FsyncPolicy::kAlways : FsyncPolicy::kOff;

    const std::string crash_dir = MakeTempDir("crash");
    ASSERT_TRUE(RunChildUntilKilled(crash_dir, plan, ops, fsync, 4096));

    // What must be on disk: every append before the crash point, in full --
    // SIGKILL loses no page-cache bytes -- plus, for post-write, the nth
    // record itself, and for torn-write, its first torn_bytes bytes.
    const std::size_t survived =
        plan.point == CrashPlan::Point::kPostWritePreFsync
            ? plan.nth
            : plan.nth - 1;
    std::vector<std::uint8_t> expected_journal;
    for (std::size_t i = 0; i < survived; ++i) {
      const std::vector<std::uint8_t> frame = EncodeLedgerFrame(records[i]);
      expected_journal.insert(expected_journal.end(), frame.begin(),
                              frame.end());
    }
    std::size_t expected_torn = 0;
    if (plan.point == CrashPlan::Point::kTornWrite) {
      expected_torn = plan.torn_bytes;
      expected_journal.insert(expected_journal.end(), nth_frame.begin(),
                              nth_frame.begin() +
                                  static_cast<std::ptrdiff_t>(expected_torn));
    }
    EXPECT_EQ(ReadFileBytes(crash_dir + "/budget.journal"), expected_journal);

    // Recovery of the crashed ledger must equal, bit for bit, a replay of
    // the surviving record prefix written independently.
    const StatusOr<std::unique_ptr<BudgetStore>> crashed = OpenDir(crash_dir);
    ASSERT_TRUE(crashed.ok()) << crashed.status().message();
    const StatusOr<std::unique_ptr<BudgetStore>> reference =
        OpenDir(JournalDir(records, survived));
    ASSERT_TRUE(reference.ok()) << reference.status().message();

    const RecoveryStats& got = crashed.value()->recovery();
    EXPECT_EQ(got.journal_records, survived);
    EXPECT_EQ(got.torn_bytes_discarded, expected_torn);
    EXPECT_FALSE(got.corruption_detected);
    ExpectRecoveredEqual(*crashed.value(), *reference.value());
  }
#endif
}

TEST(BudgetCrashSweepTest, CompactionCrashKeepsEveryAppendedRecordOnce) {
#ifdef HTDP_TSAN_BUILD
  GTEST_SKIP() << "fork-based crash injection is incompatible with TSan";
#else
  ::unsetenv("HTDP_BUDGET_CRASH");
  constexpr std::size_t kCompactEvery = 7;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<LedgerOp> ops = GenerateOps(seed);
    const std::vector<LedgerRecord> records = ExpectedRecords(ops);
    // The manager compacts right after every kCompactEvery-th append, so
    // compaction N holds exactly the first N * kCompactEvery records.
    const std::size_t compactions = records.size() / kCompactEvery;
    ASSERT_GE(compactions, 1u);

    CrashPlan plan;
    plan.point = CrashPlan::Point::kCompact;
    plan.nth = 1 + static_cast<std::size_t>(seed % compactions);
    const FsyncPolicy fsync =
        seed % 2 == 0 ? FsyncPolicy::kAlways : FsyncPolicy::kOff;

    const std::string crash_dir = MakeTempDir("compactcrash");
    ASSERT_TRUE(
        RunChildUntilKilled(crash_dir, plan, ops, fsync, kCompactEvery));
    EXPECT_EQ(DirEntries(crash_dir), kOnlyJournal);

    // Every record appended before the kill counts once: no more (a replay
    // on top of a snapshot that already holds it), no fewer.
    const StatusOr<std::unique_ptr<BudgetStore>> crashed = OpenDir(crash_dir);
    ASSERT_TRUE(crashed.ok()) << crashed.status().message();
    const StatusOr<std::unique_ptr<BudgetStore>> reference =
        OpenDir(JournalDir(records, plan.nth * kCompactEvery));
    ASSERT_TRUE(reference.ok()) << reference.status().message();
    EXPECT_FALSE(crashed.value()->recovery().corruption_detected);
    ExpectRecoveredEqual(*crashed.value(), *reference.value());
  }
#endif
}

// ---------------------------------------------------------------------------
// Live state == recovered state

TEST(BudgetLiveRecoveryTest, RecoveredStatsEqualLiveStatsBitForBit) {
  ::unsetenv("HTDP_BUDGET_CRASH");
  for (const std::size_t compact_every : {std::size_t{4096}, std::size_t{7}}) {
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " compact_every=" + std::to_string(compact_every));
      const std::vector<LedgerOp> ops = GenerateOps(seed);
      // Every reservation the ops leave open, committed before the restart
      // so recovery has no dangling reserve to fold.
      std::vector<std::uint64_t> open;
      for (const LedgerOp& op : ops) {
        if (op.kind == LedgerOp::Kind::kReserve) open.push_back(op.id);
        if (op.kind == LedgerOp::Kind::kCommit ||
            op.kind == LedgerOp::Kind::kAbort) {
          open.erase(std::find(open.begin(), open.end(), op.id));
        }
      }
      const std::string dir = MakeTempDir("live");
      const auto open_store = [&dir, compact_every] {
        BudgetStore::Options options;
        options.dir = dir;
        options.fsync = FsyncPolicy::kOff;
        options.compact_every = compact_every;
        return BudgetStore::Open(std::move(options));
      };

      std::map<std::string, BudgetManager::TenantStats> live;
      {
        const StatusOr<std::unique_ptr<BudgetStore>> store = open_store();
        ASSERT_TRUE(store.ok()) << store.status().message();
        BudgetManager budgets;
        ASSERT_TRUE(budgets.AttachStore(store.value().get()).ok());
        ASSERT_EQ(RunOps(budgets, ops), 0);
        for (const std::uint64_t id : open) {
          ASSERT_TRUE(budgets.Commit(id).ok());
        }
        for (const std::string& name : budgets.TenantNames()) {
          live[name] = budgets.Stats(name).value();
        }
      }

      const StatusOr<std::unique_ptr<BudgetStore>> store = open_store();
      ASSERT_TRUE(store.ok()) << store.status().message();
      BudgetManager budgets;
      ASSERT_TRUE(budgets.AttachStore(store.value().get()).ok());
      ASSERT_EQ(budgets.TenantNames().size(), live.size());
      for (const auto& [name, want] : live) {
        const StatusOr<BudgetManager::TenantStats> got = budgets.Stats(name);
        ASSERT_TRUE(got.ok()) << name;
        EXPECT_EQ(got->spent.epsilon, want.spent.epsilon) << name;
        EXPECT_EQ(got->spent.delta, want.spent.delta) << name;
        EXPECT_EQ(got->total.epsilon, want.total.epsilon) << name;
        EXPECT_EQ(got->total.delta, want.total.delta) << name;
        EXPECT_EQ(got->admitted, want.admitted) << name;
        EXPECT_EQ(got->refunded, want.refunded) << name;
        EXPECT_EQ(got->recovered_reserves, 0u) << name;
      }
    }
  }
}

}  // namespace
}  // namespace dp
}  // namespace htdp
