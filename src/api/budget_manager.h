#ifndef HTDP_API_BUDGET_MANAGER_H_
#define HTDP_API_BUDGET_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dp/budget_store.h"
#include "dp/privacy.h"
#include "util/status.h"

namespace htdp {

/// ## BudgetManager: shared named-tenant privacy budgets for the Engine
///
/// A serving deployment does not hand every fit job its own fresh epsilon:
/// a tenant (a team, a dataset owner, a product surface) holds ONE
/// end-to-end budget, and every job run on that tenant's behalf draws from
/// it. The BudgetManager is that ledger-of-record: tenants are registered
/// with a total PrivacyBudget, each admitted job reserves its
/// SolverSpec::budget up front under sequential composition (epsilons and
/// deltas add -- the sound rule across jobs that may touch the same data),
/// and a submission whose cost no longer fits is rejected with a typed
/// kBudgetExhausted Status BEFORE any work -- or any privacy spend --
/// happens.
///
/// ### Two-phase accounting
///
/// Spend moves through a reservation lifecycle so the ledger is exact even
/// across a crash (see dp/budget_store.h and docs/durability.md):
///
///   Reserve() -> id      budget debited, RESERVE journaled   (at Submit)
///   Commit(id)           spend is final, COMMIT journaled    (output released)
///   Abort(id)            spend returned, ABORT journaled     (job never ran)
///
/// The Engine drives this at Submit()/completion (see FitJob::tenant in
/// api/engine.h): a rejected job never occupies a worker; jobs that
/// complete without releasing any mechanism output (validation failures,
/// cancelled while still queued) are aborted automatically; everything
/// else commits. The conservation invariant -- every Reserve is closed by
/// exactly one Commit or Abort, so open_reservations() drains to zero when
/// the Engine does -- is exported as the `htdp_budget_reservations_open`
/// gauge and asserted in engine_test.
///
/// ### One state machine
///
/// The manager holds a dp::LedgerState and changes it only by building a
/// dp::LedgerRecord and running it through dp::ApplyRecord -- the same
/// function recovery replays the journal with. Attach a dp::BudgetStore
/// (AttachStore, before registering tenants) and every record is journaled
/// before it is applied; on restart the manager adopts the state recovery
/// rebuilt, reserves whose fate died with the process counted as COMMITTED
/// -- spend conservatively, never under-count. Without a store the manager
/// is purely in-memory. Only admission rejections and the conservation
/// counters (Totals) bypass the journal.
///
/// Thread-safe; one manager may serve several Engines. The manager must
/// outlive every Engine configured with it.
class BudgetManager {
 public:
  /// Handle of one open reservation; never reused within a ledger's life.
  using ReservationId = std::uint64_t;

  BudgetManager() = default;
  BudgetManager(const BudgetManager&) = delete;
  BudgetManager& operator=(const BudgetManager&) = delete;

  /// Makes the ledger durable: journals every mutation to `store` and
  /// adopts, by move, the ledger `store` recovered at Open (its
  /// recovered() state is left empty). Call BEFORE registering
  /// tenants (kInvalidProblem otherwise). The store must outlive the
  /// manager; the manager does not own it.
  Status AttachStore(dp::BudgetStore* store);

  /// Creates tenant `name` with the given total budget. Errors with
  /// kInvalidProblem on a duplicate name and kBudgetExhausted (via
  /// PrivacyBudget::Check) on an unfundable total. A tenant known only
  /// from recovery is NOT a duplicate: registration re-funds it with
  /// `total` while its recovered spend stands.
  Status RegisterTenant(const std::string& name, PrivacyBudget total);

  /// Atomically reserves `cost` from the tenant's remaining budget under
  /// sequential composition and opens a reservation. Errors:
  /// kInvalidProblem for an unknown tenant, kBudgetExhausted when the cost
  /// fails Check() or does not fit in what remains (the message reports
  /// remaining vs. requested).
  StatusOr<ReservationId> Reserve(const std::string& name,
                                  const PrivacyBudget& cost);

  /// Finalizes a reservation's spend (the job released mechanism output).
  /// kInvalidProblem for an id that is not open.
  Status Commit(ReservationId id);

  /// Returns a reservation whose job never released any mechanism output;
  /// the debited budget becomes available again. kInvalidProblem for an id
  /// that is not open.
  Status Abort(ReservationId id);

  /// The tenant's remaining (total - reserved) budget, clamped at zero.
  /// kInvalidProblem for an unknown tenant.
  StatusOr<PrivacyBudget> Remaining(const std::string& name) const;

  /// Aggregate per-tenant accounting for dashboards.
  struct TenantStats {
    PrivacyBudget total;
    PrivacyBudget spent;       // reserved-or-committed (aborts subtracted)
    std::size_t admitted = 0;  // successful Reserve calls
    std::size_t rejected = 0;  // reservations that did not fit
    std::size_t refunded = 0;  // Abort calls (and replayed legacy refunds)
    std::size_t open = 0;      // reservations awaiting Commit/Abort
    /// Spend inherited from dangling reserves at recovery (included in
    /// `spent`), cumulative over the ledger's crash history.
    PrivacyBudget recovered;
    std::size_t recovered_reserves = 0;
  };
  StatusOr<TenantStats> Stats(const std::string& name) const;

  /// Registered tenant names, sorted (the map order).
  std::vector<std::string> TenantNames() const;

  /// Ledger-wide conservation counters: open == reserves - commits -
  /// aborts, and open == 0 whenever no job is in flight.
  struct LedgerTotals {
    std::size_t reserves = 0;
    std::size_t commits = 0;
    std::size_t aborts = 0;
    std::size_t open = 0;
  };
  LedgerTotals Totals() const;

  /// Open reservations right now (the `htdp_budget_reservations_open`
  /// gauge).
  std::size_t OpenReservations() const;

 private:
  /// The one mutation path, called under mu_ once the caller has validated
  /// `record`: journals it write-ahead, applies it through dp::ApplyRecord,
  /// bumps the conservation counters, publishes gauges and compacts when
  /// the store asks.
  Status MutateLocked(const dp::LedgerRecord& record);

  mutable std::mutex mu_;
  dp::BudgetStore* store_ = nullptr;
  dp::LedgerState state_;
  /// Live operations only; replayed records are not counted.
  std::size_t reserves_ = 0;
  std::size_t commits_ = 0;
  std::size_t aborts_ = 0;
};

}  // namespace htdp

#endif  // HTDP_API_BUDGET_MANAGER_H_
