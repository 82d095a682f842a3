// Repository benchmark program. Runs one named workload with a seed and
// prints, as the last line of standard output, one JSON object:
//
//   {"correct": bool, "attempted": int, "failed": int,
//    "metrics": {"<name>": {"value": num, "unit": str}, ...}}
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// per-layer metrics of the traced run. A line before it records the thread
// budget of the run.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload {", msg);
  const auto& names = perfbench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::fprintf(stderr, "%s%s", i ? "|" : "", names[i].c_str());
  }
  std::fprintf(stderr, "} --seed N --seconds S --trace 0|1\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (seconds <= 0.0) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  const std::optional<perfbench::Workload> w = perfbench::make_workload(workload, seed);
  if (!w) usage(("unknown workload '" + workload + "'").c_str());

  dgr::util::set_log_level(dgr::util::LogLevel::kError);
  perfbench::ThreadBudget threads;
  threads.nproc = std::max(1u, std::thread::hardware_concurrency());

  dgr::obs::json::Value config = dgr::obs::json::Value::object();
  config["workload"] = workload;
  config["seed"] = static_cast<std::int64_t>(seed);
  config["trace"] = trace == 1;
  config["nproc"] = static_cast<std::int64_t>(threads.nproc);
  config["pool_workers"] = threads.pool_workers;
  config["serve_workers"] = threads.serve_workers;
  config["serve_pool_workers"] = perfbench::kServePoolWorkers;
  config["generator_threads"] = perfbench::kGeneratorThreads;
  config["oversubscribed"] = threads.oversubscribed();
  config["eco_share_assumed"] = perfbench::kEcoShare;
  dgr::obs::json::Value config_line = dgr::obs::json::Value::object();
  config_line["config"] = config;
  std::cout << config_line.dump() << std::endl;
  if (threads.oversubscribed()) {
    std::fprintf(stderr, "perfbench: warning: %d batch / %d serve threads exceed nproc %u\n",
                 threads.batch_threads(), threads.serve_threads(), threads.nproc);
  }

  const perfbench::RunResult run = trace == 1
                                       ? perfbench::run_traced(*w, seed, seconds, threads)
                                       : perfbench::run_untraced(*w, seed, seconds, threads);
  for (const std::string& reason : run.ops.reasons) {
    std::fprintf(stderr, "perfbench: failed op: %s\n", reason.c_str());
  }

  dgr::obs::json::Value metrics = dgr::obs::json::Value::object();
  for (const perfbench::MetricSet::Entry& e : run.metrics.entries()) {
    dgr::obs::json::Value v = dgr::obs::json::Value::object();
    v["value"] = e.value;
    v["unit"] = e.unit;
    metrics[e.name] = v;
  }
  dgr::obs::json::Value result = dgr::obs::json::Value::object();
  result["correct"] = run.ops.failed == 0;
  result["attempted"] = run.ops.attempted;
  result["failed"] = run.ops.failed;
  result["metrics"] = metrics;
  std::cout << result.dump() << std::endl;
  return 0;
}
