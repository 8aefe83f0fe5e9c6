// dvsbench: the C++ half of the cluster benchmark (run.py is the other).
//
//   dvsbench client   open-loop client: seeded op stream over dvsd control
//                     sockets, one line per op to --out
//   dvsbench analyze  joins an op log with a cluster's spec-event traces:
//                     commit instants, per-hop waits, per-view hops, the
//                     exactly-once check and the trace audit
//   dvsbench host     three replicas in one process, one thread each, with
//                     timing decorators around every layer's public calls
//
// Each subcommand prints its own usage on bad arguments and exits 2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/generator.h"

namespace dvs::bench {

/// One named workload: the op mix, the offered rate, and whether puts go
/// only to replicas run.py reports live (churn).
struct WorkloadSpec {
  std::string name;
  workload::MixConfig mix;
  double ops_per_s = 0;
  bool live_only = false;
};

/// Throws std::runtime_error for an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name);

/// Wall-clock microseconds (CLOCK_REALTIME), the dvsd trace time domain.
[[nodiscard]] std::uint64_t realtime_us();

/// Parses "--key value" pairs; a bare "--flag" maps to "1".
[[nodiscard]] std::vector<std::pair<std::string, std::string>> parse_flags(
    int argc, char** argv);

int client_main(int argc, char** argv);
int analyze_main(int argc, char** argv);
int host_main(int argc, char** argv);

}  // namespace dvs::bench
