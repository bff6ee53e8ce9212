// UDP ingest listener for lossy high-rate telemetry.
//
// The TCP stream server (Section 4.4) gives reliable delivery but couples
// the producer to the display host through backpressure: a stalled scope
// host stalls the instrumented application.  The datagram server trades
// reliability for isolation - producers fire-and-forget tuple lines over
// UDP and the kernel sheds load by dropping datagrams when the display host
// falls behind.  Dropped and malformed input is counted, never blocking.
//
// Wire format: each datagram carries one or more newline-delimited tuple
// lines (`<time_ms> <value> [<name>]`).  Datagrams are self-contained -
// there is no cross-datagram line reassembly, so a trailing line without a
// terminating newline is still parsed (and counted as a short datagram).
//
// Routing and fan-out reuse the same IngestRouter as the stream server:
// each readable burst of datagrams is parsed once into a shared block and
// every display scope receives an O(1) span.
//
// Sharded receive (options.loops > 1): one SO_REUSEPORT socket per per-core
// loop (runtime/loop_pool.h); the kernel spreads datagrams by source
// address, so each producer's stream drains on one loop.  UDP has no
// accepted-connection to hand off, so when the platform lacks SO_REUSEPORT
// the server simply stays single-socket on the primary loop (loops is
// effectively 1; reuse_port_active() reports which).  Stats are relaxed
// per-field atomics; loops = 1 is byte-identical to the pre-sharding
// server.
#ifndef GSCOPE_NET_DATAGRAM_SERVER_H_
#define GSCOPE_NET_DATAGRAM_SERVER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/ingest_router.h"
#include "core/scope.h"
#include "net/socket.h"
#include "runtime/event_loop.h"
#include "runtime/loop_pool.h"
#include "runtime/relaxed_counter.h"

namespace gscope {

struct DatagramServerOptions {
  // Create a BUFFER signal on the scopes the first time a new name appears.
  bool auto_create_signals = true;
  // Receive buffer: datagrams longer than this are counted as truncated and
  // discarded (UDP cannot resynchronize a cut line).
  size_t max_datagram_bytes = 65536;
  // Datagrams consumed per readable wake-up before control returns to the
  // owning loop: a flooding producer must not starve scope ticks (the kernel
  // sheds the excess, which is the UDP contract).
  size_t max_datagrams_per_wakeup = 1024;
  // Ignored: ingest fan-out runs on the loop thread that read the datagram.
  // Kept so that existing callers, which set them, keep compiling.
  size_t fanout_shards = 4;
  int fanout_workers = -1;
  // Receive sharding: per-core loops each owning a SO_REUSEPORT socket
  // (header comment).  Requires kernel support; silently stays single-loop
  // without it.  Clamped to >= 1.
  size_t loops = 1;
};

class DatagramServer {
 public:
  // Server-wide counters; relaxed per-field atomics so every receive loop
  // bumps and any thread reads (runtime/relaxed_counter.h).
  struct Stats {
    RelaxedCounter datagrams;
    RelaxedCounter bytes;
    RelaxedCounter tuples;
    RelaxedCounter parse_errors;
    RelaxedCounter dropped_late;
    // Datagrams longer than max_datagram_bytes (payload discarded).
    RelaxedCounter truncated_datagrams;
    // Datagrams whose final line had no terminating newline (still parsed).
    RelaxedCounter short_datagrams;
    // Datagrams the kernel dropped on the receive queue (SO_RXQ_OVFL);
    // cumulative across rebinds, 0 where the platform lacks the counter.
    RelaxedCounter kernel_drops;
  };

  // `loop` and `scope` are not owned and must outlive the server.  `scope`
  // may be null; AddScope attaches display targets.
  DatagramServer(MainLoop* loop, Scope* scope, DatagramServerOptions options = {});
  ~DatagramServer();

  DatagramServer(const DatagramServer&) = delete;
  DatagramServer& operator=(const DatagramServer&) = delete;

  bool AddScope(Scope* scope);
  bool RemoveScope(Scope* scope);
  size_t scope_count() const { return router_.scope_count(); }

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts receiving.
  bool Listen(uint16_t port);
  uint16_t port() const { return port_; }
  void Close();

  // Sharding introspection: configured loop count and whether the sharded
  // (reuse-port) receive path actually engaged at Listen().
  size_t loop_count() const { return pool_.size(); }
  bool reuse_port_active() const { return reuse_port_active_; }
  const Stats& stats() const { return stats_; }
  const IngestRouter& router() const { return router_; }

 private:
  // One receive shard: socket, watch and scratch owned by `loop`.  Stable
  // storage (heap-allocated once, never moved) so closures hold raw
  // pointers safely.
  struct Shard {
    MainLoop* loop = nullptr;
    Socket socket;
    SourceId watch = 0;
    std::vector<char> recv_buf;
    // SO_RXQ_OVFL reports a per-socket cumulative count; the delta against
    // this keeps stats_.kernel_drops monotonic across Close()/Listen().
    uint32_t last_kernel_drop_counter = 0;
  };

  bool OnReadable(Shard& shard);
  void HandleDatagram(const char* data, size_t len);
  void HandleLine(std::string_view line);

  MainLoop* loop_;
  DatagramServerOptions options_;
  IngestRouter router_;
  LoopPool pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool reuse_port_active_ = false;
  uint16_t port_ = 0;
  Stats stats_;
};

}  // namespace gscope

#endif  // GSCOPE_NET_DATAGRAM_SERVER_H_
