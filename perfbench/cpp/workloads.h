// The benchmark's workloads: ne_ingest, ne_range, zipf_mixed and
// baseline_range (see the README for what each one stresses and why).
#pragma once

#include "harness.h"
#include "runner.h"

namespace perfbench {

/// Runs options().workload; false when no workload has that name.
bool runWorkload(Runner& run, Result& out);

}  // namespace perfbench
