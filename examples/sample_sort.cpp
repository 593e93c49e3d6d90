// A complete HBSP^1/HBSP^2 application: heterogeneous parallel sample sort
// (library implementation in src/apps/sample_sort.hpp).
//
// This is the kind of program the paper's conclusion calls for ("designing
// HBSP^k applications that can take advantage of our efficient heterogeneous
// communication algorithms"): scatter in c_j-proportional shares, local sort,
// splitter allgather, routing with speed-weighted bucket widths, local sort,
// gather. Running it with equal shares gives the textbook BSP sample sort on
// the same machine — the baseline the improvement factor compares against.

#include <cstdio>

#include "apps/sample_sort.hpp"
#include "core/topology.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace hbsp;
  util::Cli cli{argc, argv};
  cli.allow("n", "number of integers to sort (default 200000)")
      .allow("p", "number of testbed workstations, 2..10 (default 8)")
      .allow("hierarchical", "use the Figure 1 campus machine instead")
      .allow("compare", "also run the equal-shares BSP version (default true)");
  cli.validate();

  const auto n = static_cast<std::size_t>(cli.get_positive_int("n", 200000));
  const int p = static_cast<int>(cli.get_int("p", 8));
  const MachineTree machine = cli.get_bool("hierarchical", false)
                                  ? make_figure1_cluster()
                                  : make_paper_testbed(p);
  const auto input = util::uniform_int_workload(n, 2001);

  std::printf("Sorting %zu uniform integers on a %d-processor machine...\n", n,
              machine.num_processors());
  const apps::SortRun balanced =
      apps::run_sample_sort(machine, input, coll::Shares::kBalanced);
  std::printf("balanced sample sort: %s, %s (%s of data)\n",
              balanced.valid ? "SORTED" : "FAILED",
              util::format_time(balanced.virtual_seconds).c_str(),
              util::format_bytes(n * 4).c_str());

  if (cli.get_bool("compare", true)) {
    const apps::SortRun equal =
        apps::run_sample_sort(machine, input, coll::Shares::kEqual);
    std::printf("equal-shares (BSP)  : %s, %s\n",
                equal.valid ? "SORTED" : "FAILED",
                util::format_time(equal.virtual_seconds).c_str());
    std::printf("improvement factor T_bsp/T_hbsp = %.3f\n",
                equal.virtual_seconds / balanced.virtual_seconds);
  }
  return balanced.valid ? 0 : 1;
}
