// e2ebench: gscope's end-to-end benchmark (see ../NOTES.md).
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --scratch <dir> [--trace-out <file>]
//
// Prints human-readable detail on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits 0
// when the run was carried out (correct or not), 2 on bad arguments and 1
// when the run failed; a run that exceeds its wall-clock cap (kCapSeconds)
// is killed with exit code 3 and no result.
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "schedule.h"

namespace {

// Every run must end well within 180 s.
constexpr unsigned kCapSeconds = 170;

void OnWatchdog(int) {
  static const char kMsg[] = "e2ebench: run exceeded its wall-clock cap; aborting\n";
  ssize_t ignored = write(2, kMsg, sizeof(kMsg) - 1);
  (void)ignored;
  _exit(3);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir> [--trace-out <file>]\nworkloads:",
               why);
  for (const std::string& w : e2ebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  std::string scratch;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--scratch") {
      scratch = value;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || scratch.empty()) {
    return Usage("--workload and --scratch are required");
  }
  if (!e2ebench::FindWorkload(options.workload).has_value()) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!(options.seconds > 0) || options.seconds > 120) {
    return Usage("--seconds must be in (0, 120]");
  }

  signal(SIGALRM, OnWatchdog);
  alarm(kCapSeconds);

  // A fresh directory for this run's recorder logs, removed at exit.
  std::error_code ec;
  std::filesystem::create_directories(scratch, ec);
  std::string pattern = scratch + "/run-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    std::fprintf(stderr, "e2ebench: cannot create a scratch directory under %s\n",
                 scratch.c_str());
    return 1;
  }
  options.work_dir = pattern;
  e2ebench::RunResult r = e2ebench::RunBenchmark(options);
  std::filesystem::remove_all(options.work_dir, ec);

  for (const std::string& note : r.notes) {
    std::fprintf(stderr, "e2ebench: %s\n", note.c_str());
  }
  if (!r.completed) {
    std::fprintf(stderr, "e2ebench: run failed: %s\n", r.error.c_str());
    return 1;
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const e2ebench::Metric& m = r.metrics[i];
    std::printf("%s", i == 0 ? "" : ", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
