// xflux_perfbench: runs one benchmark workload and prints its metrics.
//
//   xflux_perfbench --workload <table2|live_updates|query_fleet|served>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>]
//   xflux_perfbench --smoke [--workload <name>] [--work-dir <dir>]
//
// Every metric is printed on its own line with its unit and sample count;
// the last line of standard output is one JSON object with the keys
// `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// --smoke runs every workload (or the named one) at minimal size with all
// oracles on and exits non-zero if any answer is wrong.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

using perfbench::Config;
using perfbench::Result;

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: xflux_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--smoke]\n",
               message);
  return 2;
}

struct Workload {
  const char* name;
  Result (*run)(const Config&);
};

const Workload kWorkloads[] = {
    {"table2", perfbench::RunTable2},
    {"live_updates", perfbench::RunLiveUpdates},
    {"query_fleet", perfbench::RunQueryFleet},
    {"served", perfbench::RunServed},
};

void PrintHuman(const Config& config, const Result& result) {
  std::printf("workload %s seed %llu%s%s\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? " traced" : "", config.smoke ? " smoke" : "");
  for (const auto* metrics : {&result.metrics, &result.info}) {
    for (const auto& [name, metric] : *metrics) {
      std::printf("  %-28s %14.6f %-6s (n=%llu)\n", name.c_str(),
                  metric.value, metric.unit.c_str(),
                  static_cast<unsigned long long>(metric.samples));
    }
  }
  double failed_share =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::printf("  %-28s %14.6f %-6s (n=%llu)\n", "failed_share", failed_share,
              "ratio", static_cast<unsigned long long>(result.attempted));
  for (const std::string& failure : result.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
}

void PrintJson(const Result& result) {
  std::string json = "{\"correct\": ";
  json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }

  if (config.smoke) {
    // Every workload (or the one named), minimal size, all oracles.
    bool all_correct = true;
    for (const Workload& workload : kWorkloads) {
      if (!config.workload.empty() && config.workload != workload.name) {
        continue;
      }
      Config c = config;
      c.workload = workload.name;
      Result result = workload.run(c);
      PrintHuman(c, result);
      all_correct = all_correct && result.failed == 0 && result.attempted > 0;
    }
    std::printf("smoke %s\n", all_correct ? "ok" : "FAILED");
    return all_correct ? 0 : 1;
  }

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  Result result = workload->run(config);
  PrintHuman(config, result);
  PrintJson(result);
  return 0;
}
