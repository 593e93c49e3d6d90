#pragma once
// The three workloads. Each builds its inputs from options.seed, sets up
// several times (setup_s is the median), measures for options.seconds and
// checks its outputs. An untraced run reports the end-to-end metrics; a
// traced run reports the per-layer metrics instead.

#include "common.hpp"

namespace perfbench {

/// Large machines (p = 10^2..10^4, k = 1..4) through SweepRunner: the DES,
/// the cost model and the planners do the work, the memo caches never pay.
[[nodiscard]] Result run_scale_sweep(const Options& options);

/// The paper's §5 figure and chaos sweeps on the 10-workstation testbed,
/// replicated with caches kept: sweep coordination and the memo hit path.
[[nodiscard]] Result run_paper_sweeps(const Options& options);

/// Open-loop advisory traffic against svc::Service at a nominal and an
/// overload rate: queueing, coalescing and cache reads mixed with inserts.
[[nodiscard]] Result run_advise_service(const Options& options);

}  // namespace perfbench
