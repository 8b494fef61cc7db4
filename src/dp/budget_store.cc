#include "dp/budget_store.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/codec.h"
#include "obs/metrics.h"

namespace htdp {
namespace dp {
namespace {

constexpr const char* kJournalName = "budget.journal";
constexpr const char* kJournalTmpName = "budget.journal.tmp";
/// Where older builds kept the snapshot. Read only while the journal does
/// not open with one.
constexpr const char* kSnapshotName = "budget.snapshot";

/// Snapshot-only frame types, sharing the journal's type byte space above
/// the LedgerRecordType values. On-disk-stable.
constexpr std::uint8_t kSnapHeader = 16;
constexpr std::uint8_t kSnapTenant = 17;
constexpr std::uint8_t kSnapFooter = 18;
constexpr std::uint32_t kSnapshotVersion = 1;

/// A journal frame can only ever be a few hundred bytes (one tenant name +
/// three scalars); anything claiming more is corruption, not data.
constexpr std::uint32_t kMaxFramePayload = 1u << 20;

std::string PathJoin(const std::string& dir, const char* name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t written = 0;
  while (written < n) {
    const ssize_t got = ::write(fd, data + written, n - written);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Errno("budget journal write");
    }
    written += static_cast<std::size_t>(got);
  }
  return Status::Ok();
}

/// A missing file reads as empty.
StatusOr<std::vector<std::uint8_t>> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::vector<std::uint8_t>{};
    return Errno("open " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got < 0) {
      if (errno == EINTR) continue;
      const Status status = Errno("read " + path);
      ::close(fd);
      return status;
    }
    if (got == 0) break;
    bytes.insert(bytes.end(), buffer, buffer + got);
  }
  ::close(fd);
  return bytes;
}

Status SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open state dir " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync state dir " + dir);
  return Status::Ok();
}

/// Metric handles resolved once; the registry guarantees pointer stability.
struct StoreMetrics {
  obs::Counter* records;
  obs::Counter* bytes;
  obs::Counter* snapshots;
  obs::Counter* fsyncs;
  obs::Gauge* lag;
  obs::Gauge* recovery_seconds;
  obs::Gauge* recovered_reserves;
  obs::Gauge* replayed_records;
  obs::Histogram* fsync_latency;
};

StoreMetrics& Met() {
  static StoreMetrics* metrics = [] {
    obs::MetricRegistry& r = obs::MetricRegistry::Global();
    auto* m = new StoreMetrics;
    m->records = r.GetCounter("htdp_budget_journal_records_total",
                              "Ledger records appended to the budget journal");
    m->bytes = r.GetCounter("htdp_budget_journal_bytes_total",
                            "Bytes appended to the budget journal");
    m->snapshots = r.GetCounter(
        "htdp_budget_snapshots_total",
        "Budget ledger snapshots written (journal compactions)");
    m->fsyncs = r.GetCounter("htdp_budget_fsyncs_total",
                             "fsync calls issued for the budget journal");
    m->lag = r.GetGauge(
        "htdp_budget_journal_lag_records",
        "Journal records appended but not yet fsynced (loss window)");
    m->recovery_seconds =
        r.GetGauge("htdp_budget_recovery_seconds",
                   "Wall time of the last budget ledger recovery replay");
    m->recovered_reserves = r.GetGauge(
        "htdp_budget_recovered_reserves",
        "Dangling reserves folded into committed spend at the last recovery");
    m->replayed_records =
        r.GetGauge("htdp_budget_recovery_replayed_records",
                   "Journal records replayed by the last recovery");
    m->fsync_latency = r.GetHistogram(
        "htdp_budget_fsync_seconds", "Budget journal fsync latency",
        {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0});
    return m;
  }();
  return *metrics;
}

void EncodePayload(net::WireWriter& w, std::uint8_t type,
                   const LedgerRecord& record) {
  w.U8(type);
  w.U64(record.id);
  w.Str(record.tenant);
  w.F64(record.epsilon);
  w.F64(record.delta);
}

std::vector<std::uint8_t> FrameBytes(const std::vector<std::uint8_t>& payload) {
  net::WireWriter framed;
  framed.U32(Crc32(payload.data(), payload.size()));
  framed.U32(static_cast<std::uint32_t>(payload.size()));
  framed.Raw(payload.data(), payload.size());
  return framed.Take();
}

/// One decoded frame: its type byte plus a reader over the rest.
struct ParsedFrame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;  // type byte stripped
};

/// Why frame parsing stopped.
enum class ParseStop {
  kDone,        // clean end of buffer
  kTornTail,    // partial/garbled final record: the crash-mid-write case
  kCorruption,  // CRC failure with more data beyond: untrusted disk
};

/// Walks `bytes`, appending verified frames to `out`. Returns how the walk
/// ended and sets `*discarded` to the unparseable byte count at the stop.
ParseStop ParseFrames(const std::vector<std::uint8_t>& bytes,
                      std::vector<ParsedFrame>* out, std::size_t* discarded) {
  std::size_t pos = 0;
  *discarded = 0;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < 8) {
      *discarded = remaining;
      return ParseStop::kTornTail;
    }
    std::uint32_t crc = 0, length = 0;
    for (int i = 0; i < 4; ++i) {
      crc |= static_cast<std::uint32_t>(bytes[pos + i]) << (8 * i);
      length |= static_cast<std::uint32_t>(bytes[pos + 4 + i]) << (8 * i);
    }
    if (length > kMaxFramePayload) {
      // A hostile/garbage length. At the tail it is a torn write of the
      // length field itself; mid-file it is corruption either way.
      *discarded = remaining;
      return remaining <= 8 + static_cast<std::size_t>(length)
                 ? ParseStop::kTornTail
                 : ParseStop::kCorruption;
    }
    if (remaining < 8 + length) {
      *discarded = remaining;
      return ParseStop::kTornTail;
    }
    const std::uint8_t* payload = bytes.data() + pos + 8;
    if (Crc32(payload, length) != crc) {
      *discarded = remaining;
      // Exactly the final frame's bytes failing verification is the torn-
      // write signature (partially persisted payload under a fully
      // persisted header); a mismatch with further records beyond means
      // the medium lied.
      return remaining == 8 + length ? ParseStop::kTornTail
                                     : ParseStop::kCorruption;
    }
    if (length == 0) {
      *discarded = remaining;
      return ParseStop::kCorruption;  // no valid frame is empty
    }
    ParsedFrame frame;
    frame.type = payload[0];
    frame.payload.assign(payload + 1, payload + length);
    out->push_back(std::move(frame));
    pos += 8 + length;
  }
  return ParseStop::kDone;
}

Status DecodeLedgerPayload(const ParsedFrame& frame, LedgerRecord* out) {
  net::WireReader reader(frame.payload);
  out->type = static_cast<LedgerRecordType>(frame.type);
  HTDP_RETURN_IF_ERROR(reader.U64(&out->id, "ledger.id"));
  HTDP_RETURN_IF_ERROR(reader.Str(&out->tenant, "ledger.tenant"));
  HTDP_RETURN_IF_ERROR(reader.F64(&out->epsilon, "ledger.epsilon"));
  HTDP_RETURN_IF_ERROR(reader.F64(&out->delta, "ledger.delta"));
  return Status::Ok();
}

/// Decodes the snapshot that opens `frames` and returns how many frames it
/// spans: the header, one per tenant and open reservation, and the footer.
StatusOr<std::size_t> DecodeSnapshot(const std::vector<ParsedFrame>& frames,
                                     LedgerState* state, RecoveryStats* stats) {
  if (frames.empty() || frames.front().type != kSnapHeader) {
    return Status::InvalidProblem("budget snapshot: missing header record");
  }
  net::WireReader header(frames.front().payload);
  std::uint32_t version = 0;
  std::uint64_t next_id = 1, tenant_count = 0, open_count = 0;
  HTDP_RETURN_IF_ERROR(header.U32(&version, "snapshot.version"));
  HTDP_RETURN_IF_ERROR(header.U64(&next_id, "snapshot.next_id"));
  HTDP_RETURN_IF_ERROR(header.U64(&tenant_count, "snapshot.tenant_count"));
  HTDP_RETURN_IF_ERROR(header.U64(&open_count, "snapshot.open_count"));
  if (version != kSnapshotVersion) {
    return Status::InvalidProblem("budget snapshot: unknown version " +
                                  std::to_string(version));
  }
  // Each count is bounded first, so a hostile one cannot wrap the sum.
  if (tenant_count >= frames.size() || open_count >= frames.size() ||
      2 + tenant_count + open_count > frames.size()) {
    return Status::InvalidProblem(
        "budget snapshot: fewer records than its header counts");
  }
  const std::size_t span = 2 + tenant_count + open_count;
  if (frames[span - 1].type != kSnapFooter) {
    return Status::InvalidProblem(
        "budget snapshot: missing footer record (truncated snapshot)");
  }
  state->next_reservation_id = next_id;
  for (std::size_t i = 1; i + 1 < span; ++i) {
    const ParsedFrame& frame = frames[i];
    if (frame.type == kSnapTenant) {
      net::WireReader r(frame.payload);
      std::string name;
      LedgerState::Tenant tenant;
      HTDP_RETURN_IF_ERROR(r.Str(&name, "snapshot.tenant.name"));
      HTDP_RETURN_IF_ERROR(r.F64(&tenant.total_epsilon, "snapshot.total_e"));
      HTDP_RETURN_IF_ERROR(r.F64(&tenant.total_delta, "snapshot.total_d"));
      HTDP_RETURN_IF_ERROR(r.F64(&tenant.spent_epsilon, "snapshot.spent_e"));
      HTDP_RETURN_IF_ERROR(r.F64(&tenant.spent_delta, "snapshot.spent_d"));
      HTDP_RETURN_IF_ERROR(r.U64(&tenant.admitted, "snapshot.admitted"));
      HTDP_RETURN_IF_ERROR(r.U64(&tenant.rejected, "snapshot.rejected"));
      HTDP_RETURN_IF_ERROR(r.U64(&tenant.refunded, "snapshot.refunded"));
      HTDP_RETURN_IF_ERROR(
          r.U64(&tenant.recovered_reserves, "snapshot.recovered_reserves"));
      HTDP_RETURN_IF_ERROR(
          r.F64(&tenant.recovered_epsilon, "snapshot.recovered_e"));
      HTDP_RETURN_IF_ERROR(
          r.F64(&tenant.recovered_delta, "snapshot.recovered_d"));
      state->tenants[name] = tenant;
      ++stats->snapshot_tenants;
    } else if (frame.type ==
               static_cast<std::uint8_t>(LedgerRecordType::kReserve)) {
      LedgerRecord record;
      HTDP_RETURN_IF_ERROR(DecodeLedgerPayload(frame, &record));
      // Snapshot spend already includes open reservations; only the open
      // map entry is restored so a post-snapshot COMMIT/ABORT resolves.
      state->open[record.id] = std::move(record);
    } else {
      return Status::InvalidProblem("budget snapshot: unexpected record type " +
                                    std::to_string(frame.type));
    }
  }
  return span;
}

}  // namespace

// ---------------------------------------------------------------------------
// CRC32

std::uint32_t Crc32(const void* data, std::size_t n) {
  static const std::uint32_t* table = [] {
    auto* t = new std::uint32_t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// FsyncPolicy / CrashPlan

StatusOr<FsyncPolicy> ParseFsyncPolicy(const std::string& name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "batch") return FsyncPolicy::kBatch;
  if (name == "off") return FsyncPolicy::kOff;
  return Status::InvalidProblem("--fsync wants always|batch|off, got \"" +
                                name + "\"");
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "unknown";
}

StatusOr<CrashPlan> CrashPlan::Parse(const std::string& spec) {
  CrashPlan plan;
  if (spec.empty()) return plan;
  const std::size_t first = spec.find(':');
  if (first == std::string::npos) {
    return Status::InvalidProblem(
        "HTDP_BUDGET_CRASH wants <point>:<nth>[:<bytes>], got \"" + spec +
        "\"");
  }
  const std::string point = spec.substr(0, first);
  if (point == "pre-write") {
    plan.point = Point::kPreWrite;
  } else if (point == "post-write") {
    plan.point = Point::kPostWritePreFsync;
  } else if (point == "torn-write") {
    plan.point = Point::kTornWrite;
  } else if (point == "compact") {
    plan.point = Point::kCompact;
  } else {
    return Status::InvalidProblem(
        "HTDP_BUDGET_CRASH point wants pre-write|post-write|torn-write|"
        "compact, got \"" +
        point + "\"");
  }
  const std::string rest = spec.substr(first + 1);
  const std::size_t second = rest.find(':');
  try {
    plan.nth = static_cast<std::size_t>(
        std::stoull(second == std::string::npos ? rest
                                                : rest.substr(0, second)));
    if (second != std::string::npos) {
      plan.torn_bytes =
          static_cast<std::size_t>(std::stoull(rest.substr(second + 1)));
    }
  } catch (const std::exception&) {
    return Status::InvalidProblem("HTDP_BUDGET_CRASH: unparseable count in \"" +
                                  spec + "\"");
  }
  if (plan.nth == 0) {
    return Status::InvalidProblem(
        "HTDP_BUDGET_CRASH: the count is 1-based; 0 never fires");
  }
  return plan;
}

StatusOr<CrashPlan> CrashPlan::FromEnv() {
  const char* spec = std::getenv("HTDP_BUDGET_CRASH");
  return Parse(spec == nullptr ? std::string() : std::string(spec));
}

// ---------------------------------------------------------------------------
// Frame encoding

std::vector<std::uint8_t> EncodeLedgerFrame(const LedgerRecord& record) {
  net::WireWriter payload;
  EncodePayload(payload, static_cast<std::uint8_t>(record.type), record);
  return FrameBytes(payload.bytes());
}

// ---------------------------------------------------------------------------
// The transition function

void ApplyRecord(LedgerState& state, const LedgerRecord& record) {
  switch (record.type) {
    case LedgerRecordType::kRegister: {
      LedgerState::Tenant& tenant = state.tenants[record.tenant];
      tenant.total_epsilon = record.epsilon;
      tenant.total_delta = record.delta;
      tenant.recovered_only = false;
      break;
    }
    case LedgerRecordType::kReserve: {
      LedgerState::Tenant& tenant = state.tenants[record.tenant];
      tenant.spent_epsilon += record.epsilon;
      tenant.spent_delta += record.delta;
      ++tenant.admitted;
      state.open[record.id] = record;
      if (record.id >= state.next_reservation_id) {
        state.next_reservation_id = record.id + 1;
      }
      break;
    }
    case LedgerRecordType::kCommit:
      // Spend was added at RESERVE; COMMIT just closes the reservation.
      state.open.erase(record.id);
      break;
    case LedgerRecordType::kAbort: {
      const auto it = state.open.find(record.id);
      if (it == state.open.end()) break;
      LedgerState::Tenant& tenant = state.tenants[it->second.tenant];
      tenant.spent_epsilon =
          std::max(tenant.spent_epsilon - it->second.epsilon, 0.0);
      tenant.spent_delta =
          std::max(tenant.spent_delta - it->second.delta, 0.0);
      ++tenant.refunded;
      state.open.erase(it);
      break;
    }
    case LedgerRecordType::kRefund: {
      // No longer written; journals from older builds still replay it.
      LedgerState::Tenant& tenant = state.tenants[record.tenant];
      tenant.spent_epsilon =
          std::max(tenant.spent_epsilon - record.epsilon, 0.0);
      tenant.spent_delta = std::max(tenant.spent_delta - record.delta, 0.0);
      ++tenant.refunded;
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// BudgetStore

BudgetStore::BudgetStore(Options options) : options_(std::move(options)) {}

BudgetStore::~BudgetStore() {
  if (journal_fd_ >= 0) {
    if (unsynced_records_ > 0) ::fsync(journal_fd_);
    ::close(journal_fd_);
  }
}

StatusOr<std::unique_ptr<BudgetStore>> BudgetStore::Open(Options options) {
  if (options.dir.empty()) {
    return Status::InvalidProblem("BudgetStore: state dir must not be empty");
  }
  StatusOr<CrashPlan> env_plan = CrashPlan::FromEnv();
  HTDP_RETURN_IF_ERROR(env_plan.status());
  if (options.crash.point == CrashPlan::Point::kNone) {
    options.crash = env_plan.value();
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir " + options.dir);
  }
  if (options.batch_every == 0) options.batch_every = 1;
  if (options.compact_every == 0) options.compact_every = 1;

  std::unique_ptr<BudgetStore> store(new BudgetStore(std::move(options)));
  const auto started = std::chrono::steady_clock::now();

  // --- recovery: the snapshot, then the journal records after it -------
  LedgerState& state = store->recovered_;
  RecoveryStats& stats = store->recovery_;
  StatusOr<std::vector<std::uint8_t>> journal_bytes =
      ReadFile(PathJoin(store->options_.dir, kJournalName));
  HTDP_RETURN_IF_ERROR(journal_bytes.status());
  const std::vector<std::uint8_t>& bytes = journal_bytes.value();
  std::vector<ParsedFrame> frames;
  std::size_t discarded = 0;
  const ParseStop stop = ParseFrames(bytes, &frames, &discarded);
  // Compaction renames a whole snapshot into place as the journal's head,
  // so a first frame that fails verification may be that snapshot's header
  // and must not pass for an empty ledger. The one harmless way to read no
  // frame is a torn first append, which ends the file and whose type byte
  // is never the header's.
  bool has_snapshot = frames.empty()
                          ? stop == ParseStop::kCorruption ||
                                (bytes.size() > 8 && bytes[8] == kSnapHeader)
                          : frames.front().type == kSnapHeader;
  if (!has_snapshot) {
    // An older build kept its snapshot in its own file and replayed the
    // whole journal on top of it: read the two as one journal that opens
    // with that snapshot. Written whole, the file must parse to its end.
    StatusOr<std::vector<std::uint8_t>> snapshot_bytes =
        ReadFile(PathJoin(store->options_.dir, kSnapshotName));
    HTDP_RETURN_IF_ERROR(snapshot_bytes.status());
    std::vector<ParsedFrame> head;
    std::size_t head_discarded = 0;
    if (ParseFrames(snapshot_bytes.value(), &head, &head_discarded) !=
        ParseStop::kDone) {
      head.clear();  // fails DecodeSnapshot below
    }
    frames.insert(frames.begin(), head.begin(), head.end());
    has_snapshot = !snapshot_bytes.value().empty();
  }
  std::size_t replay_from = 0;
  if (has_snapshot) {
    // Written whole then renamed into place, so a snapshot that does not
    // decode whole means the medium corrupted it.
    StatusOr<std::size_t> span = DecodeSnapshot(frames, &state, &stats);
    if (!span.ok()) {
      return Status::Unavailable(
          "budget snapshot is corrupt (" + span.status().message() +
          "); refusing to serve from a corrupt ledger (inspect " +
          store->options_.dir + ")");
    }
    replay_from = span.value();
  }

  stats.torn_bytes_discarded = discarded;
  stats.corruption_detected = stop == ParseStop::kCorruption;
  for (std::size_t i = replay_from; i < frames.size(); ++i) {
    LedgerRecord record;
    const Status decoded = DecodeLedgerPayload(frames[i], &record);
    if (!decoded.ok()) {
      // A CRC-valid frame that does not decode is a format breach, not a
      // torn write: stop replay conservatively (everything already
      // applied stays applied; spend only ever over-counts from here).
      stats.corruption_detected = true;
      break;
    }
    ApplyRecord(state, record);
    ++stats.journal_records;
  }
  // Usable journal prefix in bytes: everything after it is discarded by
  // truncating at reopen so fresh appends never interleave with garbage.
  store->journal_file_bytes_ = bytes.size() - discarded;
  store->journal_record_count_ = stats.journal_records;

  // The conservative fold: a reserve with no COMMIT/ABORT belonged to a job
  // whose fate died with the process. Its spend (already added at RESERVE)
  // STAYS spent -- a mechanism may have released output in the lost window,
  // and privacy accounting must never under-count.
  for (const auto& [id, reservation] : state.open) {
    (void)id;
    LedgerState::Tenant& tenant = state.tenants[reservation.tenant];
    ++tenant.recovered_reserves;
    tenant.recovered_epsilon += reservation.epsilon;
    tenant.recovered_delta += reservation.delta;
    ++stats.dangling_reserves;
  }
  state.open.clear();
  for (auto& [name, tenant] : state.tenants) {
    (void)name;
    tenant.recovered_only = true;
  }

  // Reopen the journal for appends, truncated to the verified prefix. The
  // destructor closes the fd if the truncate fails.
  const std::string journal = PathJoin(store->options_.dir, kJournalName);
  store->journal_fd_ =
      ::open(journal.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (store->journal_fd_ < 0) return Errno("open " + journal);
  if (::ftruncate(store->journal_fd_,
                  static_cast<off_t>(store->journal_file_bytes_)) != 0) {
    return Errno("truncate " + journal);
  }
  store->crash_countdown_ = store->options_.crash.nth;

  stats.recovery_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  Met().recovery_seconds->Set(stats.recovery_seconds);
  Met().recovered_reserves->Set(static_cast<double>(stats.dangling_reserves));
  Met().replayed_records->Set(static_cast<double>(stats.journal_records));
  Met().lag->Set(0.0);
  return store;
}

Status BudgetStore::Append(const LedgerRecord& record) {
  const std::vector<std::uint8_t> frame = EncodeLedgerFrame(record);
  const std::lock_guard<std::mutex> lock(mu_);
  if (journal_fd_ < 0) {
    return Status::Unavailable("budget journal is not open");
  }

  // Deterministic crash injection: the countdown hits zero ON the planned
  // append, and the process dies with SIGKILL -- no destructors, no
  // buffered-IO flush, exactly like the OOM killer or a kernel panic from
  // the ledger's point of view.
  const CrashPlan::Point point = options_.crash.point;
  if (point != CrashPlan::Point::kNone && point != CrashPlan::Point::kCompact &&
      crash_countdown_ > 0 && --crash_countdown_ == 0) {
    // The bytes of the frame that land first: none, torn_bytes or all.
    std::size_t landed = frame.size();
    if (point == CrashPlan::Point::kPreWrite) landed = 0;
    if (point == CrashPlan::Point::kTornWrite) {
      landed = std::min(options_.crash.torn_bytes, frame.size());
    }
    (void)WriteAll(journal_fd_, frame.data(), landed);
    ::raise(SIGKILL);
  }

  HTDP_RETURN_IF_ERROR(WriteAll(journal_fd_, frame.data(), frame.size()));
  journal_file_bytes_ += frame.size();
  ++journal_record_count_;
  ++appended_records_;
  ++unsynced_records_;
  Met().records->Increment();
  Met().bytes->Increment(frame.size());

  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      HTDP_RETURN_IF_ERROR(SyncLocked());
      break;
    case FsyncPolicy::kBatch:
      if (unsynced_records_ >= options_.batch_every) {
        HTDP_RETURN_IF_ERROR(SyncLocked());
      }
      break;
    case FsyncPolicy::kOff:
      break;
  }
  Met().lag->Set(static_cast<double>(unsynced_records_));
  return Status::Ok();
}

Status BudgetStore::Sync() {
  const std::lock_guard<std::mutex> lock(mu_);
  HTDP_RETURN_IF_ERROR(SyncLocked());
  Met().lag->Set(0.0);
  return Status::Ok();
}

Status BudgetStore::SyncLocked() {
  if (journal_fd_ < 0 || unsynced_records_ == 0) return Status::Ok();
  const auto started = std::chrono::steady_clock::now();
  if (::fsync(journal_fd_) != 0) return Errno("fsync budget journal");
  Met().fsync_latency->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count());
  Met().fsyncs->Increment();
  unsynced_records_ = 0;
  return Status::Ok();
}

bool BudgetStore::ShouldCompact() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return journal_record_count_ >= options_.compact_every;
}

Status BudgetStore::Compact(const LedgerState& state) {
  // Serialize the whole snapshot first -- no file is touched on an
  // encoding problem.
  std::vector<std::uint8_t> bytes;
  const auto append = [&bytes](const std::vector<std::uint8_t>& frame) {
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  };
  {
    net::WireWriter payload;
    payload.U8(kSnapHeader);
    payload.U32(kSnapshotVersion);
    payload.U64(state.next_reservation_id);
    payload.U64(static_cast<std::uint64_t>(state.tenants.size()));
    payload.U64(static_cast<std::uint64_t>(state.open.size()));
    append(FrameBytes(payload.bytes()));
  }
  for (const auto& [name, tenant] : state.tenants) {
    net::WireWriter payload;
    payload.U8(kSnapTenant);
    payload.Str(name);
    payload.F64(tenant.total_epsilon);
    payload.F64(tenant.total_delta);
    payload.F64(tenant.spent_epsilon);
    payload.F64(tenant.spent_delta);
    payload.U64(tenant.admitted);
    payload.U64(tenant.rejected);
    payload.U64(tenant.refunded);
    payload.U64(tenant.recovered_reserves);
    payload.F64(tenant.recovered_epsilon);
    payload.F64(tenant.recovered_delta);
    append(FrameBytes(payload.bytes()));
  }
  for (const auto& [id, reservation] : state.open) {
    (void)id;
    append(EncodeLedgerFrame(reservation));
  }
  {
    net::WireWriter payload;
    payload.U8(kSnapFooter);
    payload.U64(static_cast<std::uint64_t>(2 + state.tenants.size() +
                                           state.open.size()));
    append(FrameBytes(payload.bytes()));
  }

  const std::lock_guard<std::mutex> lock(mu_);
  const std::string tmp = PathJoin(options_.dir, kJournalTmpName);
  const std::string journal = PathJoin(options_.dir, kJournalName);
  // The new journal's fd becomes the append fd once renamed into place.
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) return Errno("open " + tmp);
  Status written = WriteAll(fd, bytes.data(), bytes.size());
  if (written.ok() && ::fsync(fd) != 0) written = Errno("fsync " + tmp);
  // The one step that moves the ledger: before the rename the old journal
  // holds all of it, after it the new one does.
  if (written.ok() && ::rename(tmp.c_str(), journal.c_str()) != 0) {
    written = Errno("rename " + tmp);
  }
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  if (options_.crash.point == CrashPlan::Point::kCompact &&
      crash_countdown_ > 0 && --crash_countdown_ == 0) {
    ::raise(SIGKILL);
  }
  ::close(journal_fd_);
  journal_fd_ = fd;
  journal_file_bytes_ = bytes.size();
  journal_record_count_ = 0;
  unsynced_records_ = 0;
  HTDP_RETURN_IF_ERROR(SyncDirectory(options_.dir));
  // An older build's snapshot, unlinked only once the rename is durable: a
  // journal that opens with a snapshot makes Open ignore it anyway.
  ::unlink(PathJoin(options_.dir, kSnapshotName).c_str());
  ++snapshots_written_;
  Met().snapshots->Increment();
  Met().lag->Set(0.0);
  return Status::Ok();
}

std::size_t BudgetStore::journal_records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return appended_records_;
}

std::size_t BudgetStore::journal_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return journal_file_bytes_;
}

std::size_t BudgetStore::lag_records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return unsynced_records_;
}

std::size_t BudgetStore::snapshots_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return snapshots_written_;
}

}  // namespace dp
}  // namespace htdp
