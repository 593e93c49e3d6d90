// Ablation E17: the paper measured on a *non-dedicated* cluster (§5.1) —
// other users' jobs perturb every run. This bench reruns the Figure 3(a)
// gather experiment under the substrate's background-load model and reports
// mean ± stddev of the improvement factor over load seeds, showing the
// headline shapes survive realistic run-to-run noise (and how much of the
// paper's plot wobble the load model alone explains).
//
// The (p, sigma, seed) replicas are independent, so they shard across a
// util::ThreadPool; factors land in per-replica slots and the summaries are
// accumulated in replica order afterwards, keeping the output bit-identical
// at any --threads value.

#include <cstdio>
#include <vector>

#include "experiments/figures.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hbsp;

struct Replica {
  int p = 0;
  double sigma = 0.0;
  int seed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli{argc, argv};
  cli.allow("threads", "worker threads for the replica sweep (default 1)");
  cli.validate();
  const int threads = static_cast<int>(cli.get_positive_int("threads", 1));

  const std::vector<int> ps = {2, 4, 6, 8, 10};
  const std::vector<double> sigmas = {0.0, 0.1, 0.3};
  std::vector<Replica> replicas;
  for (const int p : ps) {
    for (const double sigma : sigmas) {
      const int seeds = sigma == 0.0 ? 1 : 12;
      for (int seed = 1; seed <= seeds; ++seed) {
        replicas.push_back({p, sigma, seed});
      }
    }
  }

  std::vector<double> factors(replicas.size(), 0.0);
  util::ThreadPool pool{threads};
  pool.parallel_for(replicas.size(), [&](std::size_t i) {
    const Replica& replica = replicas[i];
    exp::FigureConfig config;
    config.processors = {replica.p};
    config.kbytes = {500};
    config.sim.load_stddev = replica.sigma;
    config.sim.load_seed = static_cast<std::uint64_t>(replica.seed * 31);
    exp::SweepRunner runner;
    factors[i] = exp::gather_root_experiment(config, runner).factor[0][0];
  });

  util::Table table{
      "Figure 3(a) under background load: T_s/T_f mean +/- stddev over 12 "
      "load seeds (n = 500 KB)"};
  table.set_header({"p", "sigma=0 (dedicated)", "sigma=0.1", "sigma=0.3"});

  std::size_t next = 0;
  for (const int p : ps) {
    std::vector<std::string> row{std::to_string(p)};
    for (const double sigma : sigmas) {
      util::Accumulator acc;
      const int seeds = sigma == 0.0 ? 1 : 12;
      for (int seed = 1; seed <= seeds; ++seed) acc.add(factors[next++]);
      const auto summary = acc.summary();
      std::string cell = util::Table::num(summary.mean, 3);
      if (summary.count > 1) {
        cell += " +/- " + util::Table::num(summary.stddev, 3);
      }
      row.push_back(cell);
    }
    table.add_row(row);
  }
  table.print();

  std::puts(
      "\nThe p=2 anomaly (< 1) and the monotone growth survive background\n"
      "load; at sigma=0.3 the run-to-run spread is comparable to the wobble\n"
      "visible in published non-dedicated-cluster plots.");
  return 0;
}
