// The repository benchmark: one binary, three workloads.
//
//   perfbench --workload scale_sweep|paper_sweeps|advise_service
//             [--seed N] [--seconds S] [--trace 0|1] [--threads T]
//
// Prints a human-readable report, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics, a traced run (--trace 1) the per-layer
// metrics. Exits 1 when an output check fails and 2 on a bad flag.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Result;

/// Shortest round-trip text of `value`; non-finite values (which fail the
/// run) print as 0 so the result line stays valid JSON.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc{} ? std::string(buffer, end) : std::string{"0"};
}

std::string result_json(const Result& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& metric = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " +
            json_number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  return json;
}

int run(int argc, char** argv) {
  hbsp::util::Cli cli{argc, argv};
  cli.allow("workload", "scale_sweep, paper_sweeps or advise_service")
      .allow("seed", "input seed (default 1; 2 is the held-out seed)")
      .allow("seconds", "measured seconds per run (default 10)")
      .allow("trace", "1 = traced run reporting per-layer metrics")
      .allow("threads", "sweep / service worker threads (default 1)");
  cli.validate();

  perfbench::Options options;
  options.workload = cli.get("workload", "");
  options.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(perfbench::kDefaultSeed)));
  options.seconds = cli.get_positive_double("seconds", 10.0);
  options.trace = cli.get_int("trace", 0) != 0;
  options.threads = static_cast<int>(cli.get_positive_int("threads", 1));
  options.trace_path = ".bench_build/perfbench_trace_" + options.workload +
                       ".json";

  if (options.trace) std::filesystem::create_directories(".bench_build");
  Result result;
  if (options.workload == "scale_sweep") {
    result = perfbench::run_scale_sweep(options);
  } else if (options.workload == "paper_sweeps") {
    result = perfbench::run_paper_sweeps(options);
  } else if (options.workload == "advise_service") {
    result = perfbench::run_advise_service(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  for (const auto& note : result.notes) std::cout << note << '\n';
  for (const auto& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.check(false, metric.name + " is not a finite number");
    }
    std::cout << "  " << metric.name << " = " << json_number(metric.value)
              << ' ' << metric.unit
              << (metric.note.empty() ? "" : "  (" + metric.note + ")")
              << '\n';
  }
  for (const auto& error : result.errors) {
    std::cout << "OUTPUT CHECK FAILED: " << error << '\n';
  }
  std::cout << "fail_ratio = "
            << json_number(result.attempted > 0
                               ? static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted)
                               : 0.0)
            << " (" << result.failed << " of " << result.attempted << ")\n";
  std::cout << result_json(result) << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
