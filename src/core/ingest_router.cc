#include "core/ingest_router.h"

#include <algorithm>

#include "core/scope.h"
#include "core/tuple.h"

namespace gscope {

IngestRouter::IngestRouter(IngestRouterOptions options)
    : options_(options),
      table_(std::make_shared<RouteTable>()),
      block_pool_(options.block_pool) {}

IngestRouter::~IngestRouter() = default;

bool IngestRouter::AddScope(Scope* scope, const SignalFilter* filter) {
  std::unique_lock<std::mutex> lock = LockRoutes();
  if (scope == nullptr || scope_index_.count(scope) != 0) {
    return false;
  }
  scope_index_.emplace(scope, scopes_.size());
  scopes_.push_back(scope);
  filters_.push_back(filter);
  if (filter != nullptr) {
    filtered_scopes_ += 1;
  }
  scopes_epoch_ += 1;
  // The slot count changed: the table snapshot's stride is stale.  Force a
  // resync even mid-batch (Append and Flush both check), so no span is ever
  // built with a slot index the captured table cannot translate.
  epoch_valid_ = false;
  return true;
}

bool IngestRouter::RemoveScope(Scope* scope) {
  std::unique_lock<std::mutex> lock = LockRoutes();
  auto it = scope_index_.find(scope);
  if (it == scope_index_.end()) {
    return false;
  }
  size_t index = it->second;
  scope_index_.erase(it);
  // RouteEpoch sums the scopes' signal and consumer epochs (and their
  // filters' epochs); fold the removed terms into the local epoch so the
  // total stays strictly increasing (a repeated value would let a stale
  // table snapshot survive).
  scopes_epoch_ += scope->signals_epoch() + scope->consumers_epoch() + 1;
  if (filters_[index] != nullptr) {
    scopes_epoch_ += filters_[index]->epoch();
    filtered_scopes_ -= 1;
  }
  scopes_[index] = scopes_.back();
  filters_[index] = filters_.back();
  scopes_.pop_back();
  filters_.pop_back();
  if (index < scopes_.size()) {
    scope_index_[scopes_[index]] = index;
  }
  epoch_valid_ = false;
  return true;
}

Scope* IngestRouter::FirstScope() const {
  std::unique_lock<std::mutex> lock = LockRoutes();
  return scopes_.empty() ? nullptr : scopes_.front();
}

void IngestRouter::ForEachScope(const std::function<void(Scope*)>& fn) const {
  std::unique_lock<std::mutex> lock = LockRoutes();
  for (Scope* scope : scopes_) {
    fn(scope);
  }
}

uint64_t IngestRouter::RouteEpoch() const {
  uint64_t epoch = scopes_epoch_;
  for (const Scope* scope : scopes_) {
    epoch += scope->signals_epoch() + scope->consumers_epoch();
  }
  for (const SignalFilter* filter : filters_) {
    if (filter != nullptr) {
      epoch += filter->epoch();
    }
  }
  return epoch;
}

bool IngestRouter::SlotExcludes(size_t s, std::string_view name) const {
  return filters_[s] != nullptr && !filters_[s]->Matches(name);
}

void IngestRouter::EnsureBatch() {
  if (block_ == nullptr) {
    block_ = block_pool_.Acquire();
    SyncRoutes();
  }
}

void IngestRouter::SyncRoutes() {
  uint64_t epoch = RouteEpoch();
  if (epoch_valid_ && epoch == synced_epoch_) {
    return;
  }
  RebuildTable();
  synced_epoch_ = epoch;
  epoch_valid_ = true;
  memo_valid_ = false;
}

void IngestRouter::RebuildTable() {
  staged_ids_.assign(route_names_.size() * scopes_.size(), 0);
  staged_history_.assign(route_names_.size() * scopes_.size(), 0);
  excluded_slots_ = 0;
  for (size_t r = 0; r < route_names_.size(); ++r) {
    bool unresolved = scopes_.empty();
    for (size_t s = 0; s < scopes_.size(); ++s) {
      // A filter-excluded slot keeps id 0 by design: it is neither resolved
      // nor unresolved, and the name is never even looked up for it.
      if (SlotExcludes(s, route_names_[r])) {
        excluded_slots_ += 1;
        continue;
      }
      // Resolution only: a removed signal is not eagerly recreated here.  If
      // auto-create is on, the route is re-resolved (and the signal added
      // back) the next time a tuple actually uses the name.
      SignalId id = scopes_[s]->FindSignal(route_names_[r]);
      staged_ids_[r * scopes_.size() + s] = id;
      staged_history_[r * scopes_.size() + s] =
          (id != 0 && scopes_[s]->SignalNeedsHistory(id)) ? 1 : 0;
      unresolved = unresolved || id == 0;
    }
    route_unresolved_[r] = unresolved ? 1 : 0;
  }
  table_dirty_ = true;
}

bool IngestRouter::ResolveNewRoute(std::string_view name, uint32_t* route) {
  resolve_scratch_.clear();
  resolve_history_scratch_.clear();
  // "Accepted" = resolved on some scope, or deliberately excluded by some
  // scope's filter.  Either is a known decision worth memoizing in a route.
  bool any_accepted = false;
  bool unresolved = scopes_.empty();
  size_t excluded_here = 0;
  for (size_t s = 0; s < scopes_.size(); ++s) {
    SignalId id = 0;
    if (SlotExcludes(s, name)) {
      any_accepted = true;
      excluded_here += 1;
    } else {
      id = options_.auto_create_signals ? scopes_[s]->FindOrAddBufferSignal(name)
                                        : scopes_[s]->FindSignal(name);
      any_accepted = any_accepted || id != 0;
      unresolved = unresolved || id == 0;
    }
    resolve_scratch_.push_back(id);
    resolve_history_scratch_.push_back(
        (id != 0 && scopes_[s]->SignalNeedsHistory(id)) ? 1 : 0);
  }
  if (!any_accepted) {
    // Nothing resolved anywhere (auto-create off, unknown everywhere): do
    // not create a route - a stream of endless distinct unknown names must
    // not grow the table without bound.  The caller falls back to the
    // per-scope name shim (bounded by the scopes' pending-name caps).
    return false;
  }
  *route = static_cast<uint32_t>(route_names_.size());
  route_names_.emplace_back(name);
  name_to_route_.emplace(std::string(name), *route);
  route_unresolved_.push_back(unresolved ? 1 : 0);
  staged_ids_.insert(staged_ids_.end(), resolve_scratch_.begin(), resolve_scratch_.end());
  staged_history_.insert(staged_history_.end(), resolve_history_scratch_.begin(),
                         resolve_history_scratch_.end());
  excluded_slots_ += excluded_here;
  table_dirty_ = true;
  // Auto-creation bumped the scopes' signal epochs; re-sync so this staging
  // survives until the topology actually changes again.
  synced_epoch_ = RouteEpoch();
  return true;
}

void IngestRouter::ReResolveRoute(uint32_t route) {
  const std::string& name = route_names_[route];
  bool unresolved = scopes_.empty();
  for (size_t s = 0; s < scopes_.size(); ++s) {
    if (SlotExcludes(s, name)) {
      continue;  // excluded by design: id stays 0, nothing auto-created
    }
    SignalId& id = staged_ids_[static_cast<size_t>(route) * scopes_.size() + s];
    if (id == 0) {
      id = scopes_[s]->FindOrAddBufferSignal(name);
      staged_history_[static_cast<size_t>(route) * scopes_.size() + s] =
          (id != 0 && scopes_[s]->SignalNeedsHistory(id)) ? 1 : 0;
    }
    unresolved = unresolved || id == 0;
  }
  route_unresolved_[route] = unresolved ? 1 : 0;
  table_dirty_ = true;
  synced_epoch_ = RouteEpoch();
}

void IngestRouter::ShimPushUnresolved(uint32_t route, int64_t time_ms, double value) {
  const std::string& name = route_names_[route];
  for (size_t s = 0; s < scopes_.size(); ++s) {
    if (staged_ids_[static_cast<size_t>(route) * scopes_.size() + s] != 0) {
      continue;  // this slot is served through the span
    }
    if (SlotExcludes(s, name)) {
      continue;  // excluded by the slot's subscription filter
    }
    // Unknown name with auto-create off: go through the name shim so the
    // scope can still resolve at drain time if the app adds the signal
    // within the delay window.
    if (!scopes_[s]->PushBuffered(name, time_ms, value)) {
      shim_dropped_late_ += 1;
    }
  }
}

void IngestRouter::ShimPushAll(std::string_view name, int64_t time_ms, double value) {
  for (size_t s = 0; s < scopes_.size(); ++s) {
    if (SlotExcludes(s, name)) {
      continue;
    }
    if (!scopes_[s]->PushBuffered(name, time_ms, value)) {
      shim_dropped_late_ += 1;
    }
  }
}

void IngestRouter::Append(std::string_view name, int64_t time_ms, double value) {
  std::unique_lock<std::mutex> lock = LockRoutes();
  AppendLocked(name, time_ms, value);
}

void IngestRouter::AppendLocked(std::string_view name, int64_t time_ms, double value) {
  EnsureBatch();
  if (!epoch_valid_) {
    SyncRoutes();  // scope list changed mid-batch: re-snapshot before routing
  }
  if (name.empty()) {
    block_->Append(time_ms, value, kUnnamedRouteKey);
    return;
  }
  uint32_t route;
  if (memo_valid_ && name == memo_name_) {
    route = memo_route_;
  } else {
    auto it = name_to_route_.find(name);
    if (it != name_to_route_.end()) {
      route = it->second;
    } else if (!ResolveNewRoute(name, &route)) {
      ShimPushAll(name, time_ms, value);
      return;
    }
    memo_name_.assign(name);
    memo_route_ = route;
    memo_valid_ = true;
  }
  if (route_unresolved_[route] != 0) {
    if (options_.auto_create_signals && !scopes_.empty()) {
      // A signal disappeared (or a scope arrived) since this route was
      // built: recreate the missing BUFFER signals once, then return to the
      // pure span path.  (With no scopes there is nothing to create and the
      // rebuild would otherwise repeat per tuple.)
      ReResolveRoute(route);
    }
    if (route_unresolved_[route] != 0) {
      ShimPushUnresolved(route, time_ms, value);
      block_->has_unresolved = true;
    }
  }
  block_->Append(time_ms, value, route);
}

bool IngestRouter::ResolveRoute(std::string_view name, uint32_t* route) {
  std::unique_lock<std::mutex> lock = LockRoutes();
  if (name.empty()) {
    return false;  // the unnamed form has no route; use Append("")
  }
  EnsureBatch();
  if (!epoch_valid_) {
    SyncRoutes();  // ResolveNewRoute mutates the staged table: sync first
  }
  auto it = name_to_route_.find(name);
  if (it != name_to_route_.end()) {
    *route = it->second;
    return true;
  }
  return ResolveNewRoute(name, route);
}

void IngestRouter::AppendRoute(uint32_t route, int64_t time_ms, double value) {
  std::unique_lock<std::mutex> lock = LockRoutes();
  EnsureBatch();
  if (!epoch_valid_) {
    SyncRoutes();
  }
  if (route_unresolved_[route] != 0) {
    if (options_.auto_create_signals && !scopes_.empty()) {
      ReResolveRoute(route);
    }
    if (route_unresolved_[route] != 0) {
      ShimPushUnresolved(route, time_ms, value);
      block_->has_unresolved = true;
    }
  }
  block_->Append(time_ms, value, route);
}

void IngestRouter::AppendTupleLine(std::string_view line, std::string_view ns,
                                   int64_t* tuples, int64_t* parse_errors) {
  std::optional<TupleView> tuple = ParseTupleView(line);
  if (!tuple.has_value()) {
    if (!IsIgnorableLine(line)) {
      *parse_errors += 1;
    }
    return;
  }
  // The reserved separator never crosses the wire inside a name: rejecting
  // it here (the shared text entry point for both transports) is what keeps
  // "<ns>\x1f..." names mintable only by authenticated prefixing below.
  if (tuple->name.find(kNamespaceSep) != std::string_view::npos) {
    *parse_errors += 1;
    return;
  }
  std::unique_lock<std::mutex> lock = LockRoutes();
  *tuples += 1;
  if (ns.empty() || tuple->name.empty()) {
    AppendLocked(tuple->name, tuple->time_ms, tuple->value);
    return;
  }
  ns_scratch_.clear();
  ns_scratch_.reserve(ns.size() + 1 + tuple->name.size());
  ns_scratch_.append(ns);
  ns_scratch_.push_back(kNamespaceSep);
  ns_scratch_.append(tuple->name);
  AppendLocked(ns_scratch_, tuple->time_ms, tuple->value);
}

IngestRouter::FlushStats IngestRouter::Flush() {
  std::unique_lock<std::mutex> lock = LockRoutes();
  FlushStats out;
  out.dropped_late = shim_dropped_late_;
  shim_dropped_late_ = 0;
  if (block_ == nullptr || block_->empty() || scopes_.empty()) {
    block_.reset();  // an unused block returns to the pool via its refcount
    return out;
  }
  if (!epoch_valid_) {
    // A scope was added/removed after the last Append: re-stage so the
    // published table's stride matches the slots handed out below.
    SyncRoutes();
  }
  if (table_dirty_) {
    // Publish one immutable snapshot for this flush; spans in flight keep
    // whatever snapshot they were handed.
    auto table = std::make_shared<RouteTable>();
    table->num_slots = static_cast<uint32_t>(scopes_.size());
    table->ids = staged_ids_;
    // Publish the history bits only when some slot actually needs the
    // per-sample path: an empty vector keeps the common display-only case
    // on the pure O(live routes) fold with one emptiness test.
    if (std::find(staged_history_.begin(), staged_history_.end(), uint8_t{1}) !=
        staged_history_.end()) {
      table->needs_history = staged_history_;
    }
    if (filtered_scopes_ > 0) {
      table->slot_filtered.resize(scopes_.size());
      for (size_t s = 0; s < scopes_.size(); ++s) {
        table->slot_filtered[s] = filters_[s] != nullptr ? 1 : 0;
      }
    }
    table_ = std::move(table);
    table_dirty_ = false;
  }
  // Once per block, not per scope: time order lets every scope cut its late
  // prefix at push and its displayable prefix at drain.
  block_->SortByTime();
  const std::shared_ptr<const IngestBlock> block = std::move(block_);
  const uint32_t n = static_cast<uint32_t>(block->samples.size());
  flush_now_ms_.resize(scopes_.size());
  for (size_t i = 0; i < scopes_.size(); ++i) {
    flush_now_ms_[i] = scopes_[i]->NowMs();
  }
  for (uint32_t i = 0; i < scopes_.size(); ++i) {
    IngestSpan span{block, table_, 0, n, i, !table_->SlotFiltered(i)};
    size_t accepted = scopes_[i]->PushIngestSpan(span, flush_now_ms_[i]);
    out.dropped_late += static_cast<int64_t>(n - accepted);
  }
  return out;
}

}  // namespace gscope
