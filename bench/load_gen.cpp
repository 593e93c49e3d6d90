// Seeded load generator for the embedded scenario-advisory service
// (src/svc): offers a reproducible open- or closed-loop request mix over the
// three standard machines and reports throughput, tail latency, and the
// deterministic outcome tally.
//
// The tally block (submitted/completed/coalesced/shed/checksum) is a pure
// function of (--seed, --qps, --duration, --expired, mode) — identical at any
// --threads and --shards — which is what `--tally PATH` exists for: CI writes
// the block at two shard counts and requires the files byte-identical.
// Latency and throughput are wall-clock measurements: reported, never gated.

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "svc/load_harness.hpp"
#include "util/cli.hpp"
#include "util/text_file.hpp"

namespace {

std::string tally_block(const hbsp::svc::LoadReport& report) {
  char line[256];
  std::string block;
  std::snprintf(line, sizeof line, "submitted %" PRIu64 "\n", report.submitted);
  block += line;
  std::snprintf(line, sizeof line, "completed %" PRIu64 "\n", report.completed);
  block += line;
  std::snprintf(line, sizeof line, "coalesced %" PRIu64 "\n", report.coalesced);
  block += line;
  std::snprintf(line, sizeof line, "shed_queue_full %" PRIu64 "\n",
                report.shed_queue_full);
  block += line;
  std::snprintf(line, sizeof line, "shed_deadline %" PRIu64 "\n",
                report.shed_deadline);
  block += line;
  std::snprintf(line, sizeof line, "failed %" PRIu64 "\n", report.failed);
  block += line;
  std::snprintf(line, sizeof line, "content_checksum %016" PRIx64 "\n",
                report.content_checksum);
  block += line;
  return block;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbsp;
  util::Cli cli{argc, argv};
  cli.allow("mode", "arrival model: open or closed (default open)")
      .allow("threads", "service executor threads (default 1)")
      .allow("shards", "admission-queue shards (default 1)")
      .allow("capacity", "admission-queue bound, 0 = unbounded (default 64)")
      .allow("qps", "arrival rate of the virtual schedule (default 200)")
      .allow("duration", "virtual seconds of arrivals (default 1)")
      .allow("clients", "closed-loop outstanding requests (default 8)")
      .allow("seed", "request-mix master seed (default 0x1db15eed)")
      .allow("expired", "fraction of requests with expired deadlines, in [0, 1)")
      .allow("tally", "also write the deterministic tally block to this path");
  cli.validate();

  svc::LoadConfig config;
  const std::string mode = cli.get("mode", "open");
  if (mode == "open") {
    config.mode = svc::LoadMode::kOpenLoop;
  } else if (mode == "closed") {
    config.mode = svc::LoadMode::kClosedLoop;
  } else {
    throw std::invalid_argument{"--mode expects 'open' or 'closed', got '" +
                                mode + "'"};
  }
  config.threads = static_cast<int>(cli.get_positive_int("threads", 1));
  config.shards = static_cast<int>(cli.get_positive_int("shards", 1));
  const std::int64_t capacity = cli.get_int("capacity", 64);
  if (capacity < 0) {
    throw std::invalid_argument{"--capacity expects a non-negative integer"};
  }
  config.queue_capacity = static_cast<std::size_t>(capacity);
  config.qps = cli.get_positive_double("qps", 200.0);
  config.duration = cli.get_positive_double("duration", 1.0);
  config.clients = static_cast<int>(cli.get_positive_int("clients", 8));
  config.seed = static_cast<std::uint64_t>(cli.get_int(
      "seed", static_cast<std::int64_t>(config.seed)));
  config.expired_fraction = cli.get_double("expired", 0.0);
  if (config.expired_fraction < 0.0 || config.expired_fraction >= 1.0) {
    throw std::invalid_argument{"--expired expects a fraction in [0, 1)"};
  }

  const svc::LoadReport report = svc::run_load(config);

  std::printf("load_gen: mode=%s threads=%d shards=%d capacity=%zu\n",
              svc::to_string(config.mode), config.threads, config.shards,
              config.queue_capacity);
  std::printf("          qps=%.1f duration=%.2fs seed=%#" PRIx64
              " expired=%.3f\n",
              config.qps, config.duration, config.seed,
              config.expired_fraction);
  std::printf("-- deterministic tally --\n%s", tally_block(report).c_str());
  std::printf("-- measured --\n");
  std::printf("wall_seconds    %.6f\n", report.wall_seconds);
  std::printf("throughput_rps  %.1f\n", report.throughput_rps);
  std::printf("latency_p50     %.6fs\n", report.latency_p50);
  std::printf("latency_p95     %.6fs\n", report.latency_p95);
  std::printf("latency_p99     %.6fs\n", report.latency_p99);

  if (cli.has("tally")) {
    util::write_text_file(cli.get("tally", ""), tally_block(report));
  }
  return 0;
}
