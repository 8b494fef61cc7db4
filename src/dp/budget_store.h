#ifndef HTDP_DP_BUDGET_STORE_H_
#define HTDP_DP_BUDGET_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace htdp {
namespace dp {

/// ## BudgetStore: the crash-safe ledger behind BudgetManager
///
/// The paper's (eps, delta) guarantees are only as strong as the
/// accounting: a BudgetManager that forgets every tenant's spend on process
/// death silently re-grants exhausted budgets after a restart -- a privacy
/// violation, not merely lost telemetry. The BudgetStore makes spend
/// durable with the classic write-ahead recipe, in one file:
///
///   * an APPEND-ONLY JOURNAL (`budget.journal`) of CRC32-framed records.
///     Budget operations are TWO-PHASE: a RESERVE record lands when the
///     Engine admits a job, and a COMMIT (job released mechanism output)
///     or ABORT (job never ran) record closes it. A crash between the two
///     leaves a DANGLING RESERVE, which recovery counts as COMMITTED --
///     spend conservatively, never under-count.
///   * COMPACTION every `compact_every` records: a SNAPSHOT of the full
///     ledger state becomes a new journal, atomically (`budget.journal.tmp`
///     + fsync + rename over `budget.journal`), and appends follow it.
///     Recovery cost is thus bounded by snapshot size + one interval.
///   * RECOVERY replay: load the snapshot that opens the journal (or an
///     older build's `budget.snapshot`), replay the records after it in
///     order through ApplyRecord -- the transition function the live
///     manager applies every record with -- stop cleanly at a torn tail (a
///     partial final record from a crash mid-write -- its CRC cannot
///     match), and fold whatever reserves are still open into spend.
///
/// The store keeps only the durable log. The ledger itself is one
/// LedgerState: the store rebuilds it at Open, the owning BudgetManager
/// adopts and mutates it, and Compact writes it back out.
///
/// Record frame (all integers little-endian by byte shifts, doubles as
/// IEEE-754 bits in a u64 -- the net/codec.h discipline, so replayed spend
/// is BIT-IDENTICAL to the live process's arithmetic):
///
///   offset  size  field
///   0       4     crc32 of the payload bytes
///   4       4     payload length in bytes
///   8       ...   payload: u8 type | u64 id | str tenant | f64 eps | f64 delta
///
/// Durability knobs (the `htdpd --fsync=` flag): `always` fsyncs after
/// every append (a crash loses at most the record being written),
/// `batch` fsyncs every `batch_every` appends (bounded loss window,
/// measured as `htdp_budget_journal_lag_records`), `off` leaves flushing
/// to the kernel (SIGKILL still loses nothing -- the page cache survives
/// process death -- but power loss may). See docs/durability.md.
///
/// Thread-safety: all methods are safe to call concurrently; appends are
/// serialized internally (in practice the owning BudgetManager already
/// serializes them under its own mutex).

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes.
/// Exposed for tests that build corrupt frames by hand.
std::uint32_t Crc32(const void* data, std::size_t n);

/// When journal appends reach the disk platter.
enum class FsyncPolicy : std::uint8_t {
  kAlways = 0,  // fsync every append: max durability, ~1 disk sync per op
  kBatch = 1,   // fsync every batch_every appends: bounded loss window
  kOff = 2,     // never fsync: kernel decides (crash-safe, power-loss-unsafe)
};

/// Parses "always" | "batch" | "off" (the --fsync flag). kInvalidProblem
/// otherwise.
StatusOr<FsyncPolicy> ParseFsyncPolicy(const std::string& name);
const char* FsyncPolicyName(FsyncPolicy policy);

/// Journal record types. Values are on-disk-stable: never renumber.
enum class LedgerRecordType : std::uint8_t {
  kRegister = 1,  // tenant funded: tenant + total (eps, delta)
  kReserve = 2,   // two-phase open: id + tenant + cost (eps, delta)
  kCommit = 3,    // reservation id's spend is now permanent
  kAbort = 4,     // reservation id's spend is returned
  kRefund = 5,    // direct spend return; replayed, no longer written
};

/// One journal record. Unused fields encode as zero/empty and are ignored
/// on replay (e.g. kCommit carries only `id`).
struct LedgerRecord {
  LedgerRecordType type = LedgerRecordType::kRegister;
  std::uint64_t id = 0;     // reservation id; 0 for non-reservation records
  std::string tenant;       // register/reserve/refund
  double epsilon = 0.0;
  double delta = 0.0;
};

/// Encodes one record as a complete CRC-framed byte sequence.
std::vector<std::uint8_t> EncodeLedgerFrame(const LedgerRecord& record);

/// The whole ledger: what BudgetManager serves from, what recovery
/// rebuilds and what a snapshot holds. Only ApplyRecord (and recovery's
/// dangling-reserve fold) changes a tenant's spend, so the live manager and
/// a replay of its journal cannot drift apart.
struct LedgerState {
  struct Tenant {
    double total_epsilon = 0.0;
    double total_delta = 0.0;
    /// Reserved-or-committed spend, aborts and refunds subtracted (clamped
    /// at zero). After recovery it includes the dangling reserves.
    double spent_epsilon = 0.0;
    double spent_delta = 0.0;
    std::uint64_t admitted = 0;
    /// Admission rejections. Not journaled: only a snapshot carries them.
    std::uint64_t rejected = 0;
    std::uint64_t refunded = 0;
    /// Dangling reserves this tenant inherited as spend at recovery, summed
    /// across every recovery this ledger has lived through.
    std::uint64_t recovered_reserves = 0;
    double recovered_epsilon = 0.0;
    double recovered_delta = 0.0;
    /// Set by BudgetStore::Open on every tenant it rebuilds and cleared by
    /// the next REGISTER, so registering a recovered tenant again sets its
    /// total instead of colliding. Not persisted.
    bool recovered_only = false;
  };
  std::map<std::string, Tenant> tenants;
  /// Open reservations: the kReserve record that opened each, by id.
  std::map<std::uint64_t, LedgerRecord> open;
  std::uint64_t next_reservation_id = 1;
};

/// The ledger's one transition function: applies `record` to `state`. The
/// live BudgetManager and recovery replay both run every record through
/// it, so recovered spend is bit-identical to the live arithmetic. A
/// COMMIT/ABORT for an id that is not open is a no-op; the manager rejects
/// those before journaling.
void ApplyRecord(LedgerState& state, const LedgerRecord& record);

/// What recovery did at BudgetStore::Open.
struct RecoveryStats {
  std::size_t snapshot_tenants = 0;    // tenants loaded from the snapshot
  std::size_t journal_records = 0;     // records replayed after it
  std::size_t dangling_reserves = 0;   // reserves folded into spend THIS run
  std::size_t torn_bytes_discarded = 0;  // partial-record bytes at the tail
  /// True when replay stopped at a CRC mismatch that was NOT the final
  /// record (mid-journal corruption: bad disk, not a torn write). Replay
  /// halts there -- records beyond an unverifiable one cannot be trusted.
  bool corruption_detected = false;
  double recovery_seconds = 0.0;
};

/// Deterministic crash injection for the durability tests and the
/// kill-and-restart smoke: HTDP_BUDGET_CRASH="<point>:<nth>[:<bytes>]"
/// SIGKILLs the process around the `nth` journal append or compaction.
///   pre-write:N        die before any byte of append N is written
///   post-write:N       die after append N's bytes, before its fsync
///   torn-write:N:K     write only K bytes of append N's frame, then die
///   compact:N          die inside compaction N, right after its rename
struct CrashPlan {
  enum class Point : std::uint8_t {
    kNone = 0,
    kPreWrite = 1,
    kPostWritePreFsync = 2,
    kTornWrite = 3,
    kCompact = 4,
  };
  Point point = Point::kNone;
  std::size_t nth = 0;         // 1-based append/compaction; 0 = disabled
  std::size_t torn_bytes = 0;  // bytes of the frame that reach the file

  /// Parses the spec format above; empty string = no crashes.
  static StatusOr<CrashPlan> Parse(const std::string& spec);
  /// Reads HTDP_BUDGET_CRASH (unset/empty = no crashes).
  static StatusOr<CrashPlan> FromEnv();
};

class BudgetStore {
 public:
  struct Options {
    /// State directory; created if missing (one level, like mkdir).
    std::string dir;
    FsyncPolicy fsync = FsyncPolicy::kAlways;
    /// Under kBatch: fsync after this many un-synced appends.
    std::size_t batch_every = 32;
    /// Compact the journal after this many records past its snapshot.
    std::size_t compact_every = 4096;
    /// Crash injection (tests); merged with HTDP_BUDGET_CRASH by Open().
    CrashPlan crash;
  };

  /// Opens (creating if absent) the ledger in options.dir and runs
  /// recovery. Errors: unreadable/uncreatable directory or files. A torn
  /// journal tail is NOT an error -- that is the crash case recovery
  /// exists for.
  static StatusOr<std::unique_ptr<BudgetStore>> Open(Options options);

  ~BudgetStore();
  BudgetStore(const BudgetStore&) = delete;
  BudgetStore& operator=(const BudgetStore&) = delete;

  /// How recovery went at Open() time.
  const RecoveryStats& recovery() const { return recovery_; }

  /// The ledger recovery rebuilt: snapshot plus journal replay, dangling
  /// reserves folded into spend, so no reservation is open. The owning
  /// BudgetManager moves it out at AttachStore.
  LedgerState& recovered() { return recovered_; }

  /// Appends one record to the journal under the configured fsync policy.
  /// The record is on its way to disk when this returns Ok; under
  /// --fsync=always it is durable.
  Status Append(const LedgerRecord& record);

  /// Forces an fsync of the journal now regardless of policy.
  Status Sync();

  /// True once the journal holds compact_every records past its snapshot;
  /// the owner should Compact() its current state.
  bool ShouldCompact() const;

  /// Replaces the journal with one that opens with `state` as a snapshot
  /// (tmp + fsync + rename, atomic). The owner passes its state under its
  /// own lock, so the snapshot is a consistent cut; open reservations are
  /// written as their kReserve records, so a later COMMIT/ABORT still
  /// resolves. On an error before the rename the old journal remains the
  /// source of truth (the tmp file is simply abandoned).
  Status Compact(const LedgerState& state);

  // --- telemetry (also exported via obs metrics) -------------------------
  std::size_t journal_records() const;  // appended since Open (post-recovery)
  std::size_t journal_bytes() const;    // current journal file size
  std::size_t lag_records() const;      // appends not yet fsynced
  std::size_t snapshots_written() const;
  FsyncPolicy fsync_policy() const { return options_.fsync; }
  const std::string& dir() const { return options_.dir; }

 private:
  explicit BudgetStore(Options options);

  Status SyncLocked();

  Options options_;
  RecoveryStats recovery_;
  LedgerState recovered_;

  mutable std::mutex mu_;
  int journal_fd_ = -1;
  std::size_t journal_file_bytes_ = 0;   // bytes in budget.journal
  std::size_t journal_record_count_ = 0; // records past the snapshot
  std::size_t appended_records_ = 0;     // appends since Open
  std::size_t unsynced_records_ = 0;
  std::size_t snapshots_written_ = 0;
  std::size_t crash_countdown_ = 0;      // events until the planned crash
};

}  // namespace dp
}  // namespace htdp

#endif  // HTDP_DP_BUDGET_STORE_H_
