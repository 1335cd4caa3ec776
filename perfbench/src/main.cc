// Benchmark program: one named workload per process.
//
//   firzen_perfbench --workload <train-coldstart|batch-topk|online-mixed>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Run it through perfbench/run.py, which builds it and fixes the pool
// width. Progress and failed checks go to stderr; the last stdout line is
// the JSON result.
//
// A traced run reports every per-layer metric, also those of layers the
// named workload never calls: after the workload itself, each other
// workload runs once as a census (Args::census: reduced shapes, about
// kCensusSeconds of rounds) and supplies the per-layer metrics the named
// workload did not. A layer the named workload does call always keeps the
// workload's own figure.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    const double number = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') return false;
    if (flag == "--seed") {
      args->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      args->seconds = number;
    } else if (flag == "--trace") {
      args->trace = number != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

constexpr const char* kWorkloads[] = {"train-coldstart", "batch-topk",
                                      "online-mixed"};
constexpr double kCensusSeconds = 1.0;

bool RunWorkload(const perfbench::Args& args, perfbench::Report* report) {
  if (args.workload == "train-coldstart") {
    perfbench::RunTrainColdstart(args, report);
  } else if (args.workload == "batch-topk") {
    perfbench::RunBatchTopk(args, report);
  } else if (args.workload == "online-mixed") {
    perfbench::RunOnlineMixed(args, report);
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::MarkStart();
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  firzen::SetLogLevel(firzen::LogLevel::kError);
  std::fprintf(stderr, "perfbench: workload=%s seed=%llu seconds=%g trace=%d "
               "pool_width=%d\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, firzen::GlobalPoolThreadCount());

  perfbench::Report report;
  if (!RunWorkload(args, &report)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    perfbench::Tracer& tracer = perfbench::Tracer::Get();
    const std::string path = ".bench_out/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
    }
    for (const char* other : kWorkloads) {
      if (args.workload == other) continue;
      perfbench::Args census = args;
      census.workload = other;
      census.census = true;
      census.seconds = kCensusSeconds;
      std::fprintf(stderr, "perfbench: census of %s\n", other);
      tracer.Reset();
      perfbench::Report part;
      RunWorkload(census, &part);
      report.MergeMissing(part);
    }
    tracer.Reset();
  }
  report.Print();
  return 0;
}
