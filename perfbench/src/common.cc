#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/util/rng.h"

namespace perfbench {
namespace {

std::chrono::steady_clock::time_point g_start = std::chrono::steady_clock::now();

}  // namespace

void MarkStart() { g_start = std::chrono::steady_clock::now(); }

double SinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_start)
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  correct_ = false;
  if (failures_logged_ < 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  ++failures_logged_;
}

void Report::MergeMissing(const Report& other) {
  attempted += other.attempted;
  failed += other.failed;
  correct_ = correct_ && other.correct_;
  for (const Entry& e : other.metrics_) {
    bool present = false;
    for (const Entry& mine : metrics_) present = present || mine.name == e.name;
    if (!present) metrics_.push_back(e);
  }
}

void Report::Print() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Catalog MakeCatalog(const CatalogShape& shape, uint64_t seed) {
  Catalog c;
  firzen::Rng rng(SubSeed(seed, 11));
  c.users = firzen::Matrix(shape.num_users, shape.dim);
  c.items = firzen::Matrix(shape.num_items, shape.dim);
  for (Index u = 0; u < shape.num_users; ++u) {
    for (Index j = 0; j < shape.dim; ++j) c.users(u, j) = rng.Normal();
  }
  for (Index i = 0; i < shape.num_items; ++i) {
    for (Index j = 0; j < shape.dim; ++j) c.items(i, j) = rng.Normal();
  }

  // Strict-cold shelf: an exact share of the catalog, chosen by shuffle.
  std::vector<Index> order(static_cast<size_t>(shape.num_items));
  for (Index i = 0; i < shape.num_items; ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(&order);
  const Index num_cold = static_cast<Index>(
      std::llround(shape.cold_share * static_cast<double>(shape.num_items)));
  c.is_cold.assign(static_cast<size_t>(shape.num_items), false);
  for (Index n = 0; n < num_cold; ++n) {
    c.is_cold[static_cast<size_t>(order[static_cast<size_t>(n)])] = true;
  }
  for (Index i = 0; i < shape.num_items; ++i) {
    if (c.is_cold[static_cast<size_t>(i)]) c.cold_items.push_back(i);
  }

  // Train-seen items: distinct warm items per user.
  c.seen.resize(static_cast<size_t>(shape.num_users));
  for (Index u = 0; u < shape.num_users; ++u) {
    std::vector<Index>& s = c.seen[static_cast<size_t>(u)];
    while (static_cast<Index>(s.size()) < shape.seen_per_user) {
      const Index item = rng.UniformInt(shape.num_items);
      if (c.is_cold[static_cast<size_t>(item)]) continue;
      if (std::find(s.begin(), s.end(), item) != s.end()) continue;
      s.push_back(item);
    }
    std::sort(s.begin(), s.end());
  }

  c.dataset.name = "perfbench-catalog";
  c.dataset.num_users = shape.num_users;
  c.dataset.num_items = shape.num_items;
  c.dataset.is_cold_item = c.is_cold;
  for (Index u = 0; u < shape.num_users; ++u) {
    for (Index item : c.seen[static_cast<size_t>(u)]) {
      c.dataset.train.push_back({u, item});
    }
  }
  return c;
}

}  // namespace perfbench
