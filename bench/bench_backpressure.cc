// Backpressure policy sweep: overflow policy x producer count x server
// drain rate, measuring what each policy costs and saves when the server
// cannot keep up (the gscope bargain: instrumented producers stay cheap
// even when viewers lag).
//
// Topology: producers (StreamClient, small SO_SNDBUF + small backlog so
// backpressure is visible to the policy, not hidden in kernel buffering)
// live on one loop; the StreamServer (small per-client SO_RCVBUF) on
// another.  The server loop is iterated only every 1/drain_rate producer
// rounds, emulating a viewer that drains at a fraction of the offered
// load.  All single-threaded and seedless: the tuple payload is a
// deterministic sequence.
//
// Reported per configuration: delivered fraction, drops/evictions, total
// block time, backlog high-water, and producer-side throughput per CPU
// second.  `--json PATH` additionally writes the sweep as JSON
// (BENCH_backpressure.json in the repo root is generated this way).
//
// Usage: bench_backpressure [tuples_per_producer] [--json PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "gscope.h"

namespace {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Config {
  gscope::OverflowPolicy policy;
  int producers;
  double drain_rate;  // fraction of producer rounds the server loop runs
};

struct RunResult {
  int64_t attempted = 0;
  int64_t sent = 0;
  int64_t dropped = 0;
  int64_t evicted = 0;
  int64_t delivered = 0;  // tuples the server parsed
  int64_t block_ns = 0;
  int64_t high_water = 0;
  double cpu_seconds = 0;
  double seconds = 0;

  double delivered_fraction() const {
    return attempted > 0 ? static_cast<double>(delivered) / static_cast<double>(attempted) : 0;
  }
  double attempts_per_cpu_sec() const {
    return cpu_seconds > 0 ? static_cast<double>(attempted) / cpu_seconds : 0;
  }
};

const char* PolicyName(gscope::OverflowPolicy policy) {
  switch (policy) {
    case gscope::OverflowPolicy::kDropNewest:
      return "drop-newest";
    case gscope::OverflowPolicy::kDropOldest:
      return "drop-oldest";
    case gscope::OverflowPolicy::kBlockWithDeadline:
      return "block-2ms";
  }
  return "?";
}

RunResult Run(const Config& config, int tuples_per_producer) {
  gscope::MainLoop server_loop;
  gscope::Scope display(&server_loop, {.name = "display", .width = 64});
  display.SetPollingMode(5);
  gscope::StreamServerOptions sopt;
  sopt.client_rcvbuf_bytes = 8192;
  gscope::StreamServer server(&server_loop, &display, sopt);
  if (!server.Listen(0)) {
    return {};
  }
  display.StartPolling();

  gscope::MainLoop producer_loop;
  std::vector<std::unique_ptr<gscope::StreamClient>> clients;
  for (int i = 0; i < config.producers; ++i) {
    clients.push_back(std::make_unique<gscope::StreamClient>(
        &producer_loop, gscope::StreamClient::Options{
                            .max_buffer = 32 << 10,
                            .overflow_policy = config.policy,
                            .block_deadline_ms = 2,
                            .sndbuf_bytes = 8192,
                        }));
    if (!clients.back()->Connect(server.port())) {
      return {};
    }
  }
  // Resolve the handshakes on both loops.
  for (int i = 0; i < 200; ++i) {
    producer_loop.Iterate(false);
    server_loop.Iterate(false);
    bool all = true;
    for (const auto& c : clients) {
      all = all && c->connected();
    }
    if (all) {
      break;
    }
  }

  // One padded signal name per producer (fatter frames reach overload with
  // fewer tuples, like the stress harness).
  std::vector<std::string> names;
  for (int i = 0; i < config.producers; ++i) {
    names.push_back("bp" + std::to_string(i) + "_" + std::string(40, 'x'));
  }

  gscope::SteadyClock clock;
  gscope::Nanos start = clock.NowNs();
  double cpu_start = ProcessCpuSeconds();

  RunResult result;
  constexpr int kBurst = 64;
  int rounds_per_drain = config.drain_rate >= 1.0
                             ? 1
                             : static_cast<int>(1.0 / config.drain_rate + 0.5);
  int round = 0;
  for (int seq = 0; seq < tuples_per_producer;) {
    int burst = std::min(kBurst, tuples_per_producer - seq);
    for (int b = 0; b < burst; ++b) {
      for (int c = 0; c < config.producers; ++c) {
        clients[static_cast<size_t>(c)]->Send(seq + b, static_cast<double>(seq + b),
                                              names[static_cast<size_t>(c)]);
        result.attempted += 1;
      }
    }
    seq += burst;
    producer_loop.Iterate(false);
    if (++round % rounds_per_drain == 0) {
      server_loop.Iterate(false);
    }
  }
  // Final drain: both sides until the backlogs empty (bounded).
  gscope::Nanos deadline = clock.NowNs() + gscope::MillisToNanos(10'000);
  while (clock.NowNs() < deadline) {
    producer_loop.Iterate(false);
    server_loop.Iterate(false);
    size_t pending = 0;
    for (const auto& c : clients) {
      pending += c->pending_bytes();
    }
    if (pending == 0) {
      break;
    }
  }
  for (int i = 0; i < 50; ++i) {
    server_loop.Iterate(false);  // read what the kernel still holds
  }

  result.seconds = gscope::NanosToSeconds(clock.NowNs() - start);
  result.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  for (const auto& c : clients) {
    const gscope::StreamClient::Stats& s = c->stats();
    result.sent += s.tuples_sent;
    result.dropped += s.tuples_dropped;
    result.evicted += s.tuples_evicted;
    result.block_ns += s.block_time_ns;
    result.high_water = std::max(result.high_water, s.backlog_high_water);
  }
  result.delivered = server.stats().tuples;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  int total = 30'000;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::atoi(argv[i]) > 0) {
      total = std::atoi(argv[i]);
    }
  }

  const gscope::OverflowPolicy policies[] = {
      gscope::OverflowPolicy::kDropNewest,
      gscope::OverflowPolicy::kDropOldest,
      gscope::OverflowPolicy::kBlockWithDeadline,
  };
  const int producer_counts[] = {1, 4};
  const double drain_rates[] = {1.0, 0.25, 0.05};

  std::printf("Backpressure sweep: policy x producers x drain rate, %d tuples/producer\n\n",
              total);
  std::printf("%-12s %-10s %-7s %-10s %-9s %-9s %-10s %-10s %-12s\n", "policy", "producers",
              "drain", "delivered", "dropped", "evicted", "block-ms", "highwater",
              "att/cpu-sec");

  std::string json = "{\n  \"bench\": \"backpressure policy sweep (bench_backpressure)\",\n";
  json += "  \"tuples_per_producer\": " + std::to_string(total) + ",\n";
  json += "  \"client_buffer_bytes\": 32768, \"sndbuf_bytes\": 8192, "
          "\"server_rcvbuf_bytes\": 8192, \"block_deadline_ms\": 2,\n";
  json += "  \"metric_note\": \"delivered = fraction of attempted tuples the server parsed; "
          "att/cpu-sec = producer-side attempts per process-CPU second\",\n";
  json += "  \"sweep\": [\n";
  bool first = true;
  for (gscope::OverflowPolicy policy : policies) {
    for (int producers : producer_counts) {
      for (double rate : drain_rates) {
        RunResult r = Run({policy, producers, rate}, total);
        std::printf("%-12s %-10d %-7.2f %-10.3f %-9lld %-9lld %-10.1f %-10lld %-12.0f\n",
                    PolicyName(policy), producers, rate, r.delivered_fraction(),
                    (long long)r.dropped, (long long)r.evicted,
                    static_cast<double>(r.block_ns) / 1e6, (long long)r.high_water,
                    r.attempts_per_cpu_sec());
        if (!first) {
          json += ",\n";
        }
        first = false;
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "    { \"policy\": \"%s\", \"producers\": %d, \"drain_rate\": %.2f, "
                      "\"delivered_fraction\": %.4f, \"attempted\": %lld, \"dropped\": %lld, "
                      "\"evicted\": %lld, \"block_ms\": %.1f, \"high_water\": %lld, "
                      "\"attempts_per_cpu_sec\": %.0f }",
                      PolicyName(policy), producers, rate, r.delivered_fraction(),
                      (long long)r.attempted, (long long)r.dropped, (long long)r.evicted,
                      static_cast<double>(r.block_ns) / 1e6, (long long)r.high_water,
                      r.attempts_per_cpu_sec());
        json += buf;
      }
    }
  }
  json += "\n  ]\n}\n";

  if (json_path != nullptr) {
    if (FILE* f = std::fopen(json_path, "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path);
    } else {
      std::printf("\ncould not write %s\n", json_path);
      return 1;
    }
  }
  std::printf("\ndrop-newest sheds the tail, drop-oldest sheds the head (newest data\n"
              "survives a stalled viewer), block-2ms trades bounded producer latency\n"
              "for fewer drops.  See docs/perf.md, \"Backpressure\".\n");
  return 0;
}
