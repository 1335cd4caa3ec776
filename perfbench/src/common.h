// Shared pieces of the benchmark program: command-line arguments, the result
// report (the JSON line the benchmark ends with), order statistics, process
// memory, and the synthetic serving catalog both serving workloads use.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/tensor/matrix.h"

namespace perfbench {

using firzen::Index;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  /// Census run: the workload at reduced shapes, traced, run inside another
  /// workload's traced run so that every per-layer metric is reported there
  /// (see main.cc).
  bool census = false;
};

/// Seconds on the steady clock since the benchmark's main() began.
double SinceStart();
void MarkStart();
/// Seconds elapsed since `start`, a SinceStart() reading.
inline double Seconds(double start) { return SinceStart() - start; }

/// Median and linear-interpolated quantile (q in [0, 1]) of a sample.
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// Collects the run's outcome and prints it as the final JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check; the run then reports
  /// correct=false. Messages go to stderr.
  void Fail(const std::string& what);
  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Takes over `other`'s operation counts and verdict, and those of its
  /// metrics whose names this report does not hold yet.
  void MergeMissing(const Report& other);
  /// Prints the JSON object as the last line of stdout.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  int failures_logged_ = 0;
  std::vector<Entry> metrics_;
};

/// A synthetic serving catalog: iid N(0, 1) user and item embeddings, a
/// strict-cold share of items that no user has seen, and a fixed number of
/// distinct train-seen warm items per user. Built from the seed alone.
struct Catalog {
  firzen::Matrix users;  // num_users x dim
  firzen::Matrix items;  // num_items x dim
  std::vector<bool> is_cold;
  std::vector<Index> cold_items;                // ascending
  std::vector<std::vector<Index>> seen;         // sorted, per user
  firzen::Dataset dataset;                      // train + cold bitmap only
};

struct CatalogShape {
  Index num_users = 4096;
  Index num_items = 131072;
  Index dim = 64;
  double cold_share = 0.05;
  Index seen_per_user = 16;
};

Catalog MakeCatalog(const CatalogShape& shape, uint64_t seed);

/// Workload entry points (one file each).
void RunTrainColdstart(const Args& args, Report* report);
void RunBatchTopk(const Args& args, Report* report);
void RunOnlineMixed(const Args& args, Report* report);

/// Mixes the run seed with a per-purpose salt into an RNG seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
