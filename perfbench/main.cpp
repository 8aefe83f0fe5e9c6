#include <ctime>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace dvs::bench {

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  w.mix.keys = 1000;
  w.mix.value_len = 8;
  if (name == "write-trickle" || name == "churn") {
    // Puts only: one command per loop iteration, nothing queues.
    w.mix.dist = workload::KeyDist::kUniform;
    w.mix.reads = 0;
    w.mix.writes = 100;
    w.mix.scans = 0;
    w.ops_per_s = 100;
    w.live_only = name == "churn";
  } else if (name == "mix-steady") {
    // scenarios/steady.scn's mix, open loop at 1000 ops/s.
    w.mix.dist = workload::KeyDist::kZipfian;
    w.mix.theta = 0.99;
    w.mix.reads = 50;
    w.mix.writes = 45;
    w.mix.scans = 5;
    w.mix.scan_len = 10;
    w.ops_per_s = 1000;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  w.mix.validate();
  return w;
}

std::uint64_t realtime_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

std::vector<std::pair<std::string, std::string>> parse_flags(int argc,
                                                             char** argv) {
  std::vector<std::pair<std::string, std::string>> out;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument '" + a + "'");
    }
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      out.emplace_back(a.substr(2), argv[++i]);
    } else {
      out.emplace_back(a.substr(2), "1");
    }
  }
  return out;
}

}  // namespace dvs::bench

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    if (cmd == "client") return dvs::bench::client_main(argc - 2, argv + 2);
    if (cmd == "analyze") return dvs::bench::analyze_main(argc - 2, argv + 2);
    if (cmd == "host") return dvs::bench::host_main(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvsbench %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
  std::fputs("usage: dvsbench client|analyze|host [--flag value ...]\n", stderr);
  return 2;
}
