#include "api/budget_manager.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace htdp {
namespace {

std::string FormatBudget(double epsilon, double delta) {
  std::ostringstream out;
  out << "(epsilon=" << epsilon << ", delta=" << delta << ")";
  return out.str();
}

/// Budget burn-down, pushed at every ledger mutation so a METRICS scrape
/// always sees the live remaining epsilon without polling the manager.
void PublishTenantGauges(const std::string& name, double total_epsilon,
                         double spent_epsilon) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  const obs::Labels labels{{"tenant", name}};
  registry
      .GetGauge("htdp_tenant_budget_epsilon_total",
                "Tenant total privacy budget (epsilon)", labels)
      ->Set(total_epsilon);
  registry
      .GetGauge("htdp_tenant_budget_epsilon_spent",
                "Tenant epsilon currently reserved (refunds subtracted)",
                labels)
      ->Set(spent_epsilon);
  registry
      .GetGauge("htdp_tenant_budget_epsilon_remaining",
                "Tenant epsilon still available for admission", labels)
      ->Set(std::max(total_epsilon - spent_epsilon, 0.0));
}

/// The conservation gauge: reserves - commits - aborts, live. Zero whenever
/// no job is between Submit and completion.
void PublishOpenGauge(std::size_t open) {
  obs::MetricRegistry::Global()
      .GetGauge("htdp_budget_reservations_open",
                "Budget reservations awaiting Commit/Abort")
      ->Set(static_cast<double>(open));
}

Status NotOpen(BudgetManager::ReservationId id) {
  return Status::InvalidProblem("reservation " + std::to_string(id) +
                                " is not open (already committed/aborted?)");
}

}  // namespace

Status BudgetManager::AttachStore(dp::BudgetStore* store) {
  if (store == nullptr) {
    return Status::InvalidProblem("AttachStore: store must not be null");
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    return Status::InvalidProblem("BudgetManager already has a store");
  }
  if (!state_.tenants.empty() || !state_.open.empty()) {
    return Status::InvalidProblem(
        "AttachStore must run before any tenant is registered");
  }
  store_ = store;
  // Adopt what recovery rebuilt. Spend (dangling reserves included) is the
  // ledger of record; totals are re-assertable by RegisterTenant -- the
  // daemon's --tenant flags stay authoritative for funding levels.
  state_ = std::exchange(store->recovered(), dp::LedgerState{});
  for (const auto& [name, tenant] : state_.tenants) {
    PublishTenantGauges(name, tenant.total_epsilon, tenant.spent_epsilon);
  }
  PublishOpenGauge(0);
  return Status::Ok();
}

Status BudgetManager::MutateLocked(const dp::LedgerRecord& record) {
  // COMMIT/ABORT name only the reservation; its tenant's gauges move.
  const bool closes = record.type == dp::LedgerRecordType::kCommit ||
                      record.type == dp::LedgerRecordType::kAbort;
  const std::string tenant =
      closes ? state_.open.at(record.id).tenant : record.tenant;
  if (store_ != nullptr) HTDP_RETURN_IF_ERROR(store_->Append(record));
  dp::ApplyRecord(state_, record);
  switch (record.type) {
    case dp::LedgerRecordType::kReserve:
      ++reserves_;
      break;
    case dp::LedgerRecordType::kCommit:
      ++commits_;
      break;
    case dp::LedgerRecordType::kAbort:
      ++aborts_;
      break;
    default:
      break;
  }
  const dp::LedgerState::Tenant& row = state_.tenants.at(tenant);
  PublishTenantGauges(tenant, row.total_epsilon, row.spent_epsilon);
  PublishOpenGauge(state_.open.size());
  // A failed compaction is not fatal: the journal stays authoritative and
  // simply keeps growing until a later attempt succeeds.
  if (store_ != nullptr && store_->ShouldCompact()) {
    (void)store_->Compact(state_);
  }
  return Status::Ok();
}

Status BudgetManager::RegisterTenant(const std::string& name,
                                     PrivacyBudget total) {
  if (Status s = total.Check(); !s.ok()) {
    return Status::WithCode(s.code(),
                            "tenant \"" + name + "\": " + s.message());
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = state_.tenants.find(name);
  // A tenant known only from recovery is re-funded; its spend stands -- a
  // restart must never resurrect budget.
  if (it != state_.tenants.end() && !it->second.recovered_only) {
    return Status::InvalidProblem("tenant \"" + name +
                                  "\" is already registered");
  }
  return MutateLocked({dp::LedgerRecordType::kRegister, 0, name,
                       total.epsilon, total.delta});
}

StatusOr<BudgetManager::ReservationId> BudgetManager::Reserve(
    const std::string& name, const PrivacyBudget& cost) {
  if (Status s = cost.Check(); !s.ok()) {
    return Status::WithCode(s.code(),
                            "tenant \"" + name + "\": " + s.message());
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = state_.tenants.find(name);
  if (it == state_.tenants.end()) {
    return Status::InvalidProblem("unknown tenant \"" + name +
                                  "\"; register it with "
                                  "BudgetManager::RegisterTenant first");
  }
  dp::LedgerState::Tenant& tenant = it->second;
  const double remaining_epsilon = tenant.total_epsilon - tenant.spent_epsilon;
  const double remaining_delta = tenant.total_delta - tenant.spent_delta;
  if (cost.epsilon > remaining_epsilon || cost.delta > remaining_delta) {
    ++tenant.rejected;
    return Status::BudgetExhausted(
        "tenant \"" + name + "\" budget exhausted: remaining " +
        FormatBudget(std::max(remaining_epsilon, 0.0),
                     std::max(remaining_delta, 0.0)) +
        ", requested " + FormatBudget(cost.epsilon, cost.delta));
  }
  const ReservationId id = state_.next_reservation_id;
  HTDP_RETURN_IF_ERROR(MutateLocked(
      {dp::LedgerRecordType::kReserve, id, name, cost.epsilon, cost.delta}));
  return id;
}

Status BudgetManager::Commit(ReservationId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (state_.open.count(id) == 0) return NotOpen(id);
  return MutateLocked({dp::LedgerRecordType::kCommit, id, "", 0.0, 0.0});
}

Status BudgetManager::Abort(ReservationId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (state_.open.count(id) == 0) return NotOpen(id);
  return MutateLocked({dp::LedgerRecordType::kAbort, id, "", 0.0, 0.0});
}

StatusOr<PrivacyBudget> BudgetManager::Remaining(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = state_.tenants.find(name);
  if (it == state_.tenants.end()) {
    return Status::InvalidProblem("unknown tenant \"" + name + "\"");
  }
  const dp::LedgerState::Tenant& tenant = it->second;
  return PrivacyBudget{
      std::max(tenant.total_epsilon - tenant.spent_epsilon, 0.0),
      std::max(tenant.total_delta - tenant.spent_delta, 0.0)};
}

StatusOr<BudgetManager::TenantStats> BudgetManager::Stats(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = state_.tenants.find(name);
  if (it == state_.tenants.end()) {
    return Status::InvalidProblem("unknown tenant \"" + name + "\"");
  }
  const dp::LedgerState::Tenant& tenant = it->second;
  TenantStats stats;
  stats.total = {tenant.total_epsilon, tenant.total_delta};
  stats.spent = {tenant.spent_epsilon, tenant.spent_delta};
  stats.admitted = tenant.admitted;
  stats.rejected = tenant.rejected;
  stats.refunded = tenant.refunded;
  stats.recovered = {tenant.recovered_epsilon, tenant.recovered_delta};
  stats.recovered_reserves = tenant.recovered_reserves;
  for (const auto& [id, reservation] : state_.open) {
    (void)id;
    if (reservation.tenant == name) ++stats.open;
  }
  return stats;
}

std::vector<std::string> BudgetManager::TenantNames() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(state_.tenants.size());
  for (const auto& [name, tenant] : state_.tenants) {
    (void)tenant;
    names.push_back(name);
  }
  return names;
}

BudgetManager::LedgerTotals BudgetManager::Totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return LedgerTotals{reserves_, commits_, aborts_, state_.open.size()};
}

std::size_t BudgetManager::OpenReservations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_.open.size();
}

}  // namespace htdp
