// mlight_perfbench: runs one workload of the m-LIGHT benchmark in this
// process and prints its result as one JSON line on stdout.
//
//   mlight_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--variant NAME]
#include <cstdio>
#include <exception>

#include "harness.h"
#include "runner.h"
#include "workloads.h"

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parseOptions(argc, argv);
  perfbench::Runner run(options);
  perfbench::Result result;
  try {
    if (!perfbench::runWorkload(run, result)) {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
    if (options.trace && !options.traceOut.empty()) {
      run.tracer().writeSpans(options.traceOut);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  result.print();
  return 0;
}
