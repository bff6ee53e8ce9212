#include "net/datagram_server.h"

#include <cstring>

namespace gscope {

DatagramServer::DatagramServer(MainLoop* loop, Scope* scope, DatagramServerOptions options)
    : loop_(loop),
      options_(options),
      router_({.auto_create_signals = options.auto_create_signals}),
      pool_(loop, options.loops) {
  if (options_.max_datagram_bytes == 0) {
    options_.max_datagram_bytes = 65536;
  }
  if (options_.max_datagrams_per_wakeup == 0) {
    options_.max_datagrams_per_wakeup = 1;
  }
  options_.loops = pool_.size();  // clamped to >= 1
  router_.SetConcurrent(pool_.size() > 1);
  shards_.reserve(pool_.size());
  for (size_t i = 0; i < pool_.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->loop = pool_.loop(i);
    shards_.push_back(std::move(shard));
  }
  if (scope != nullptr) {
    router_.AddScope(scope);
  }
}

DatagramServer::~DatagramServer() { Close(); }

bool DatagramServer::AddScope(Scope* scope) { return router_.AddScope(scope); }

bool DatagramServer::RemoveScope(Scope* scope) { return router_.RemoveScope(scope); }

bool DatagramServer::Listen(uint16_t port) {
  Close();
  const size_t loops = pool_.size();
  reuse_port_active_ = false;
  if (loops > 1 && Socket::ReusePortSupported()) {
    // Socket per loop, same port: the kernel spreads datagrams by source
    // address, so one producer's stream stays ordered on one loop.
    Socket first = Socket::BindDatagram(port, &port_, /*reuse_port=*/true);
    bool bound = first.valid();
    if (bound) {
      shards_[0]->socket = std::move(first);
      for (size_t i = 1; i < loops && bound; ++i) {
        shards_[i]->socket = Socket::BindDatagram(port_, nullptr, /*reuse_port=*/true);
        bound = shards_[i]->socket.valid();
      }
    }
    if (bound) {
      reuse_port_active_ = true;
    } else {
      // The probe can pass yet the concrete bind fail: fall back to the
      // single-socket single-loop receive path (UDP has no hand-off
      // equivalent - there is no accepted connection to migrate).
      for (auto& shard : shards_) {
        shard->socket.Close();
      }
      port_ = 0;
    }
  }
  if (!reuse_port_active_) {
    shards_[0]->socket = Socket::BindDatagram(port, &port_);
    if (!shards_[0]->socket.valid()) {
      return false;
    }
  }
  if (reuse_port_active_) {
    pool_.Start();
  }
  const size_t active = reuse_port_active_ ? loops : 1;
  bool ok = true;
  for (size_t i = 0; i < active; ++i) {
    Shard* shard = shards_[i].get();
    pool_.InvokeSync(i, [this, shard, &ok]() {
      shard->last_kernel_drop_counter = 0;  // fresh socket, fresh counter
      shard->recv_buf.resize(options_.max_datagram_bytes);
      shard->watch = shard->loop->AddIoWatch(
          shard->socket.fd(), IoCondition::kIn,
          [this, shard](int, IoCondition) { return OnReadable(*shard); });
      if (shard->watch == 0) {
        ok = false;
      }
    });
  }
  if (!ok) {
    Close();
    return false;
  }
  return true;
}

void DatagramServer::Close() {
  for (size_t i = 0; i < pool_.size(); ++i) {
    Shard* shard = shards_[i].get();
    pool_.InvokeSync(i, [shard]() {
      if (shard->watch != 0) {
        shard->loop->Remove(shard->watch);
        shard->watch = 0;
      }
      shard->socket.Close();
    });
  }
  pool_.Stop();
  port_ = 0;
}

bool DatagramServer::OnReadable(Shard& shard) {
  // Drain the burst (bounded, so a flood cannot starve the loop), then
  // flush once: every datagram in this readable round shares one parsed
  // block and one span hand-off per scope.  Leftovers re-trigger the watch.
  for (size_t i = 0; i < options_.max_datagrams_per_wakeup; ++i) {
    Socket::DatagramResult r =
        shard.socket.ReadDatagram(shard.recv_buf.data(), shard.recv_buf.size());
    if (r.status == IoResult::Status::kWouldBlock) {
      break;
    }
    if (r.status != IoResult::Status::kOk) {
      // Transient (e.g. ECONNREFUSED bounced back on loopback): keep the
      // watch; UDP has no connection to drop.
      break;
    }
    stats_.datagrams += 1;
    stats_.bytes += static_cast<int64_t>(r.bytes);
    if (r.has_kernel_drops) {
      // The kernel counter is cumulative per socket (restarting at zero on
      // every Listen(), which resets the baseline) and wraps at 2^32, so the
      // unsigned difference is the exact drop count since the last reading.
      // Only readings where the control message was actually present update
      // the baseline: treating an absent counter as 0 would wrap the delta
      // and march stats_.kernel_drops backwards or double-count on rebind.
      stats_.kernel_drops +=
          static_cast<int64_t>(r.kernel_drops - shard.last_kernel_drop_counter);
      shard.last_kernel_drop_counter = r.kernel_drops;
    }
    if (r.truncated) {
      stats_.truncated_datagrams += 1;
      continue;  // the cut line cannot be trusted; UDP cannot resync
    }
    HandleDatagram(shard.recv_buf.data(), r.bytes);
  }
  IngestRouter::FlushStats flushed = router_.Flush();
  stats_.dropped_late += flushed.dropped_late;
  return true;
}

void DatagramServer::HandleDatagram(const char* data, size_t len) {
  size_t pos = 0;
  while (pos < len) {
    const char* nl = static_cast<const char*>(std::memchr(data + pos, '\n', len - pos));
    if (nl == nullptr) {
      // Final line without a newline: datagrams are self-contained, so
      // parse it anyway and note the short framing.
      stats_.short_datagrams += 1;
      HandleLine(std::string_view(data + pos, len - pos));
      return;
    }
    size_t line_end = static_cast<size_t>(nl - data);
    HandleLine(std::string_view(data + pos, line_end - pos));
    pos = line_end + 1;
  }
}

void DatagramServer::HandleLine(std::string_view line) {
  int64_t tuples = 0;
  int64_t parse_errors = 0;
  router_.AppendTupleLine(line, &tuples, &parse_errors);
  stats_.tuples += tuples;
  stats_.parse_errors += parse_errors;
}

}  // namespace gscope
