// IngestRouter: epoch-invalidated routing table + span fan-out.
//
// Owned by an ingest front-end (the TCP stream server, the UDP datagram
// server), this is the single place where tuple names meet scope signal
// tables.  It replaces the per-client name -> per-scope-SignalId route caches
// with ONE server-wide table shared by every client, and replaces per-scope
// sample copies with span hand-offs into the scopes' IngestSpanQueues:
//
//   Append("cwnd", t, v)   O(1): memoized/interned name -> route index,
//                          sample appended once to the shared block
//   Flush()                O(scopes): each scope gets one IngestSpan,
//                          handed off in one loop on the calling thread
//
// Invalidation: RouteEpoch() = local scope-list epoch + the sum of every
// scope's signals_epoch().  When it moves, the immutable RouteTable snapshot
// is rebuilt lazily at the next batch; queued spans keep their old snapshot
// (stale ids resolve to unmatched at drain, never to a wrong signal).
//
// Threading: Append/Flush/AddScope/RemoveScope run on the loop thread, and
// ingest never waits on another thread.  Scope::PushIngestSpan stays
// thread-safe: in concurrent mode (below) one loop's Flush pushes spans into
// scopes that drain on other loops.  Each scope's drain stays on its own
// loop thread (the paper's GTK-lock discipline).
//
// Concurrent mode (SetConcurrent): with the net layer sharding sessions
// across per-core loops, any shard may ingest, resolve, flush, or register
// scopes.  One internal mutex then serializes every public entry point.
// Off (the default, and the loops=1 server configuration) nothing locks —
// the single-loop hot path is unchanged.  Callers own two obligations:
// (1) scopes registered from other loops are put in Scope concurrent mode
// first, so table builds can touch their signal tables; (2) route-affecting
// state the router reads but does not own — subscription filters, scope
// taps/sinks — is only mutated under LockRoutes(), so a rebuild never reads
// a filter mid-change.
#ifndef GSCOPE_CORE_INGEST_ROUTER_H_
#define GSCOPE_CORE_INGEST_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ingest_bus.h"
#include "core/signal_filter.h"
#include "core/string_index.h"

namespace gscope {

class Scope;

struct IngestRouterOptions {
  // Create a BUFFER signal on every scope the first time a new tuple name
  // appears (remote signals are not known in advance).
  bool auto_create_signals = true;
  // Ignored: Flush hands every span off on the calling thread.  Both fields
  // stay so that existing callers, which set them, keep compiling.
  size_t fanout_shards = 4;
  int worker_threads = -1;
  // Parsed blocks kept for reuse; beyond this, in-flight batches allocate.
  size_t block_pool = 32;
};

class IngestRouter {
 public:
  explicit IngestRouter(IngestRouterOptions options = {});
  ~IngestRouter();

  IngestRouter(const IngestRouter&) = delete;
  IngestRouter& operator=(const IngestRouter&) = delete;

  // O(1) membership (the old O(N) std::find scans fold into scope_index_).
  // Scopes are not owned and must outlive the router.  Removal swaps with
  // the last slot; slot order is a table-internal detail.
  //
  // With a non-null `filter` (not owned; must outlive the registration) the
  // scope only receives signals whose name matches the filter: excluded
  // names get id 0 in that scope's route-table slot at BUILD time - there is
  // no per-sample pattern test anywhere on the ingest path - and unnamed
  // (two-field) samples are withheld via the span's deliver_unnamed flag.
  // The filter's epoch is folded into RouteEpoch(), so pattern changes
  // invalidate the snapshot like any signal-table change.
  bool AddScope(Scope* scope) { return AddScope(scope, nullptr); }
  bool AddScope(Scope* scope, const SignalFilter* filter);
  bool RemoveScope(Scope* scope);
  bool HasScope(Scope* scope) const {
    std::unique_lock<std::mutex> lock = LockRoutes();
    return scope_index_.count(scope) != 0;
  }
  size_t scope_count() const {
    std::unique_lock<std::mutex> lock = LockRoutes();
    return scopes_.size();
  }
  // Single-loop use only: the reference is unguarded.  Sharded callers use
  // FirstScope()/ForEachScope() instead.
  const std::vector<Scope*>& scopes() const { return scopes_; }

  // -- Concurrent mode -------------------------------------------------------

  // Enables the internal serialization described in the header comment.
  // Flip before the router is shared between loops; the flag itself is not
  // synchronized.
  void SetConcurrent(bool on) { concurrent_ = on; }
  bool concurrent() const { return concurrent_; }
  // The external bracket for mutations of caller-owned route inputs (filter
  // patterns/namespace, scope taps).  Unlocked dummy when not concurrent.
  // Do not call router entry points while holding it (non-recursive).
  std::unique_lock<std::mutex> LockRoutes() const {
    return concurrent_ ? std::unique_lock<std::mutex>(mu_)
                       : std::unique_lock<std::mutex>();
  }
  // The scope in slot 0 (the first registered, until a removal shuffles
  // slots), null when none: the sharded server's time-base reference.
  // Safe from any loop.
  Scope* FirstScope() const;
  // Visits every registered scope under the lock.  `fn` must not re-enter
  // the router.  Safe from any loop.
  void ForEachScope(const std::function<void(Scope*)>& fn) const;

  // Appends one parsed tuple to the current batch, resolving `name` through
  // the routing table (empty name = the two-field single-signal form).
  // Steady state is O(1) and allocation-free regardless of scope count.
  void Append(std::string_view name, int64_t time_ms, double value);

  // Parses one wire line (`<time_ms> <value> [<name>]`) and appends it on
  // success: the shared ingest entry point for the TCP and UDP front-ends.
  // Bumps the caller's tuple counter on success and its parse-error counter
  // on malformed (non-ignorable) lines, so the accounting cannot diverge
  // between transports.
  //
  // A producer-supplied name containing the reserved namespace separator
  // (core/signal_filter.h) is a parse error at every trust level: no wire
  // peer can mint a name inside someone else's namespace.  The namespaced
  // overload prefixes the parsed name with "<ns>\x1f" before routing — the
  // authenticated-tenant ingest path (docs/protocol.md, AUTH).
  void AppendTupleLine(std::string_view line, int64_t* tuples, int64_t* parse_errors) {
    AppendTupleLine(line, std::string_view(), tuples, parse_errors);
  }
  void AppendTupleLine(std::string_view line, std::string_view ns, int64_t* tuples,
                       int64_t* parse_errors);

  // Batch ingest for the binary wire path (net/frame_codec.h): ResolveRoute
  // interns `name` once - when a connection binds a dictionary id - and
  // returns a stable route index; AppendRoute then ingests each sample of
  // that id without touching the name at all.  Returns false when no route
  // can be created (nothing accepted the name anywhere: the unbounded-name
  // protection with auto-create off) - callers fall back to Append per
  // sample, which handles the shim paths.
  bool ResolveRoute(std::string_view name, uint32_t* route);
  // Appends one sample on a route previously returned by ResolveRoute on
  // this router (route indexes are stable for the router's lifetime).
  // Steady state is O(1): one unresolved-flag test plus the block append.
  void AppendRoute(uint32_t route, int64_t time_ms, double value);

  struct FlushStats {
    // Samples rejected as late across all scopes (span-level and shim-level).
    int64_t dropped_late = 0;
  };
  // Hands the accumulated batch to every scope as a span, one scope after
  // another on the calling thread, and starts a fresh batch.  A batch whose
  // stamps ran backwards is stable-sorted by time first, once for all
  // scopes.
  FlushStats Flush();

  // Diagnostics / tests (locked like the entry points, so STATS handlers on
  // any shard may read them).
  size_t route_count() const {
    std::unique_lock<std::mutex> lock = LockRoutes();
    return route_names_.size();
  }
  uint64_t route_epoch() const {
    std::unique_lock<std::mutex> lock = LockRoutes();
    return RouteEpoch();
  }
  size_t pending_batch_samples() const {
    std::unique_lock<std::mutex> lock = LockRoutes();
    return block_ ? block_->samples.size() : 0;
  }
  // Route x scope-slot entries the current staged table excludes because the
  // slot's subscription filter does not match the route's name.  This is the
  // observable proof that filtering happened at route-build time: samples of
  // an excluded signal never cost the filtered scope anything per sample.
  size_t excluded_route_slots() const {
    std::unique_lock<std::mutex> lock = LockRoutes();
    return excluded_slots_;
  }
  size_t filtered_scope_count() const {
    std::unique_lock<std::mutex> lock = LockRoutes();
    return filtered_scopes_;
  }

 private:
  // Append's body, callers already holding mu_ (or not concurrent).
  void AppendLocked(std::string_view name, int64_t time_ms, double value);
  uint64_t RouteEpoch() const;
  // True when slot `s` must not receive signal `name` (filtered, no match).
  bool SlotExcludes(size_t s, std::string_view name) const;
  void EnsureBatch();
  void SyncRoutes();           // rebuild the table snapshot if the epoch moved
  void RebuildTable();         // re-resolve every known route (FindSignal only)
  bool ResolveNewRoute(std::string_view name, uint32_t* route);
  void ReResolveRoute(uint32_t route);  // auto-create missing slots for one route
  void ShimPushUnresolved(uint32_t route, int64_t time_ms, double value);
  void ShimPushAll(std::string_view name, int64_t time_ms, double value);

  IngestRouterOptions options_;

  // Concurrent-mode gate (see the header comment).  mu_ is only ever locked
  // when concurrent_ is set; single-loop routers never touch it.
  bool concurrent_ = false;
  mutable std::mutex mu_;

  std::vector<Scope*> scopes_;
  // Parallel to scopes_: the slot's subscription filter, null = receive all.
  // Read during table builds; Flush only null-tests it.
  std::vector<const SignalFilter*> filters_;
  std::unordered_map<Scope*, size_t> scope_index_;
  // Bumped on scope add/remove; removal also folds in the removed scope's
  // signal epoch so the RouteEpoch sum stays strictly increasing.
  uint64_t scopes_epoch_ = 0;
  uint64_t synced_epoch_ = 0;
  bool epoch_valid_ = false;

  // name -> route index; indexes are stable for the router's lifetime.
  StringKeyedMap<uint32_t> name_to_route_;
  std::vector<std::string> route_names_;
  // Route has at least one slot with id 0 (auto-create off, or a signal was
  // removed): per-sample cold path until re-resolved.
  std::vector<uint8_t> route_unresolved_;
  // Authoritative routing ids, route-major with stride scopes_.size(),
  // mutated in place as names resolve.  Snapshotted into an immutable
  // RouteTable at most once per flush (when dirty), so discovering N names
  // costs O(N x scopes) appends plus one copy per flush instead of a full
  // table copy per name.
  std::vector<SignalId> staged_ids_;
  // Parallel to staged_ids_: the slot's signal has an every-sample consumer
  // (Scope::SignalNeedsHistory at build time).  Consumer epochs are part of
  // RouteEpoch(), so attaching a trigger/trace/export flips the bit at the
  // next snapshot without any per-sample check.
  std::vector<uint8_t> staged_history_;
  // Filter-excluded entries in staged_ids_ (diagnostics; recomputed with the
  // table, incremented as new routes resolve).
  size_t excluded_slots_ = 0;
  size_t filtered_scopes_ = 0;
  bool table_dirty_ = false;
  std::shared_ptr<const RouteTable> table_;  // last published snapshot

  // Streams repeat names in runs; memoizing the last hit skips the hash
  // lookup for consecutive same-name tuples.
  std::string memo_name_;
  uint32_t memo_route_ = 0;
  bool memo_valid_ = false;
  // Reused "<ns>\x1f<name>" assembly buffer for the namespaced text-ingest
  // path: steady state allocates nothing once grown.
  std::string ns_scratch_;

  // Batch state.
  BlockPool block_pool_;
  std::shared_ptr<IngestBlock> block_;  // active batch; null between batches
  int64_t shim_dropped_late_ = 0;

  // Per-scope "now", read for every scope before the first span is pushed:
  // the late-drop verdict takes one instant, not the time the pushes into
  // earlier scopes took.  A member, so flushes stay allocation-free.
  std::vector<int64_t> flush_now_ms_;
  std::vector<SignalId> resolve_scratch_;
  std::vector<uint8_t> resolve_history_scratch_;
};

}  // namespace gscope

#endif  // GSCOPE_CORE_INGEST_ROUTER_H_
