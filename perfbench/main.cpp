// perfbench: the repo benchmark's measuring binary.
//
//   perfbench --workload retail|bulk_transfer|recovery --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// Prints a human-readable report, then one JSON line with the run's
// correctness, op counts, metrics (end-to-end without --trace, per-layer
// with it) and exact-count fingerprint. perfbench/run.py builds this
// binary, runs it and checks the fingerprint across runs of one seed.
// Exits 1 when any correctness check fails.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload retail|bulk_transfer|recovery --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n");
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::atoi(value);
    } else if (key == "--trace") {
      o->trace = std::atoi(value) != 0;
    } else if (key == "--work-dir") {
      o->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && !o->work_dir.empty() &&
         o->seconds > 0;
}

void AppendJsonMetrics(const std::vector<Metric>& metrics, std::string* out) {
  char buf[256];
  bool first = true;
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    out->append(buf);
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) Usage();

  Result result;
  try {
    if (options.workload == "retail") {
      perfbench::RunRetail(options, &result);
    } else if (options.workload == "bulk_transfer") {
      perfbench::RunBulkTransfer(options, &result);
    } else if (options.workload == "recovery") {
      perfbench::RunRecovery(options, &result);
    } else {
      Usage();
    }
  } catch (const std::exception& e) {
    result.Check(false, std::string("exception: ") + e.what());
  }

  std::printf("workload=%s seed=%llu seconds=%d trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const auto& shown = options.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : shown) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : result.report) {
    std::printf("  %-40s %16.6f %s  (report)\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-40s %16.6f ratio  (report)\n", "failed_op_share",
              perfbench::Ratio(static_cast<double>(result.failed),
                               static_cast<double>(result.attempted)));
  for (const auto& fp : result.fingerprint) {
    std::printf("  fingerprint %-28s %llu\n", fp.first.c_str(),
                static_cast<unsigned long long>(fp.second));
  }
  for (const std::string& f : result.failures) std::printf("  FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  AppendJsonMetrics(shown, &json);
  json += "}, \"fingerprint\": {";
  for (std::size_t i = 0; i < result.fingerprint.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + result.fingerprint[i].first +
            "\": " + std::to_string(result.fingerprint[i].second);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct() ? 0 : 1;
}
