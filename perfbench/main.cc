// oblivdb_perfbench: runs one workload and prints, as its last line, the
// result object run.py hands back:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// preceded by one {"provenance": {...}} line recording what ran.
//
//   oblivdb_perfbench --workload join_large|service_hot|service_cold
//                     --seed N --seconds S --trace 0|1
//                     [--commit C] [--source-digest D]
//
// Exits 0 when every output check and the obliviousness gate passed, 1
// when one failed, 2 on a usage error.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/exec_context.h"
#include "obliv/sort_policy.h"

extern char** environ;

namespace {

using perfbench::Args;
using perfbench::Outcome;

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

// Every OBLIVDB_* variable in the environment: each one changes the
// program being measured, so the result records them (run.py refuses to
// start when any is set).
std::string OblivdbEnvironment() {
  std::string list = "[";
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OBLIVDB_", 8) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    list += (list.size() > 1 ? ",\"" : "\"") +
            std::string(*e, eq != nullptr ? eq - *e : std::strlen(*e)) + "\"";
  }
  return list + "]";
}

void AddCommonProvenance(const Args& args, Outcome& out) {
  const oblivdb::core::ExecContext defaults;
  out.ProvString("workload", args.workload);
  out.Prov("seed", std::to_string(args.seed));
  out.Prov("seconds", std::to_string(args.seconds));
  out.Prov("trace", args.trace ? "1" : "0");
  out.Prov("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  out.Prov("hardware_concurrency",
           std::to_string(std::thread::hardware_concurrency()));
  out.Prov("pool_workers",
           std::to_string(oblivdb::ThreadPool::Global().worker_count()));
  out.ProvString("default_sort_policy",
                 oblivdb::obliv::SortPolicyName(defaults.sort_policy));
  out.Prov("default_shards", std::to_string(defaults.shards));
  out.ProvString("build_type", PERFBENCH_BUILD_TYPE);
  out.ProvString("cxx_flags", PERFBENCH_CXX_FLAGS);
  out.ProvString("commit", args.commit);
  out.ProvString("source_digest", args.source_digest);
  out.Prov("oblivdb_env", OblivdbEnvironment());
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Print(const Outcome& out) {
  std::string prov = "{\"provenance\": {";
  for (size_t i = 0; i < out.provenance.size(); ++i) {
    prov += (i ? ", \"" : "\"") + out.provenance[i].first +
            "\": " + out.provenance[i].second;
  }
  std::printf("%s}}\n", prov.c_str());

  std::string metrics;
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    metrics += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
               Number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: oblivdb_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--commit C] [--source-digest D]\n");
    return 2;
  }
  Outcome out;
  if (args.workload == "join_large") {
    out = perfbench::RunJoinLarge(args);
  } else if (args.workload == "service_hot") {
    out = perfbench::RunServiceMix(args, /*hot=*/true);
  } else if (args.workload == "service_cold") {
    out = perfbench::RunServiceMix(args, /*hot=*/false);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  AddCommonProvenance(args, out);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  }
  Print(out);
  return out.correct ? 0 : 1;
}
