// Tests of the benchmark's own correctness checks: each check must accept a
// correct answer and reject a deliberately corrupted one. Run with
//   python3 perfbench/run.py --self-test
// Exits non-zero on the first expectation that does not hold.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "src/util/rng.h"

namespace {

using perfbench::AnswerRules;
using perfbench::Index;
using perfbench::RankedItem;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void ExpectAccepts(const std::string& verdict, const std::string& what) {
  Expect(verdict.empty(), what + (verdict.empty() ? "" : " (" + verdict + ")"));
}

void ExpectRejects(const std::string& verdict, const std::string& what) {
  Expect(!verdict.empty(), what + (verdict.empty() ? "" : " -> " + verdict));
}

firzen::Matrix RandomMatrix(Index rows, Index cols, uint64_t seed) {
  firzen::Rng rng(seed);
  firzen::Matrix m(rows, cols);
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < cols; ++c) m(r, c) = rng.Normal();
  }
  return m;
}

// A ranking answer as a correct engine would return it.
std::vector<RankedItem> Answer(const std::vector<double>& scores,
                               const AnswerRules& rules) {
  return perfbench::ExactTopK(scores, rules);
}

// First item of `pool_of` that satisfies `pred` and is not in `answer`.
template <typename Pred>
Index FindItem(Index n, const std::vector<RankedItem>& answer, Pred pred) {
  for (Index i = 0; i < n; ++i) {
    bool used = false;
    for (const RankedItem& r : answer) used = used || r.item == i;
    if (!used && pred(i)) return i;
  }
  return -1;
}

void TestRankingChecks() {
  const Index num_items = 400;
  const firzen::Matrix users = RandomMatrix(4, 8, 1);
  const firzen::Matrix items = RandomMatrix(num_items, 8, 2);
  const std::vector<double> scores = perfbench::ExactScores(users, items, 1);

  std::vector<Index> seen = {3, 17, 42, 99, 123, 250};
  std::vector<bool> is_cold(static_cast<size_t>(num_items), false);
  for (Index i = 0; i < num_items; i += 7) is_cold[static_cast<size_t>(i)] = true;
  std::vector<Index> pool;
  for (Index i = 1; i < num_items; i += 3) pool.push_back(i);

  AnswerRules full;
  full.k = 20;
  full.excluded = &seen;
  const std::vector<RankedItem> exact = perfbench::ExactTopK(scores, full);
  const std::vector<RankedItem> good = Answer(scores, full);
  ExpectAccepts(perfbench::CheckAnswerShape(good, full, 20), "shape: correct answer");
  ExpectAccepts(perfbench::CheckMatchesExact(good, exact, scores, 1e-9),
                "exact: correct answer");

  // Two ranks swapped.
  std::vector<RankedItem> swapped = good;
  std::swap(swapped[4], swapped[5]);
  ExpectRejects(perfbench::CheckMatchesExact(swapped, exact, scores, 1e-9),
                "exact: two ranks swapped");
  ExpectRejects(perfbench::CheckAnswerShape(swapped, full, 20),
                "shape: two ranks swapped (scores increase)");

  // A near-tie swap within tolerance is allowed by the exact check.
  std::vector<double> tied = scores;
  tied[static_cast<size_t>(exact[6].item)] = exact[7].score + 1e-13;
  const std::vector<RankedItem> tied_exact = perfbench::ExactTopK(tied, full);
  std::vector<RankedItem> tied_swapped = tied_exact;
  std::swap(tied_swapped[6], tied_swapped[7]);
  ExpectAccepts(perfbench::CheckMatchesExact(tied_swapped, tied_exact, tied, 1e-9),
                "exact: swap within the tolerance");

  // A train-seen item injected in place of the last answer.
  std::vector<RankedItem> with_seen = good;
  with_seen.back() = {seen[0], with_seen.back().score};
  ExpectRejects(perfbench::CheckAnswerShape(with_seen, full, 20),
                "shape: train-seen item injected");
  ExpectRejects(perfbench::CheckMatchesExact(with_seen, exact, scores, 1e-9),
                "exact: train-seen item injected");

  // A custom-excluded item injected.
  std::vector<Index> custom = {good[0].item, good[2].item, 5};
  std::sort(custom.begin(), custom.end());
  AnswerRules custom_rules;
  custom_rules.k = 20;
  custom_rules.excluded = &custom;
  const std::vector<RankedItem> custom_good = Answer(scores, custom_rules);
  ExpectAccepts(perfbench::CheckAnswerShape(custom_good, custom_rules, 20),
                "shape: correct kCustom answer");
  ExpectRejects(perfbench::CheckAnswerShape(good, custom_rules, 20),
                "shape: excluded item injected");

  // A warm item on the cold shelf.
  AnswerRules cold_rules;
  cold_rules.k = 20;
  cold_rules.cold_only = true;
  cold_rules.is_cold = &is_cold;
  std::vector<RankedItem> cold_good = Answer(scores, cold_rules);
  ExpectAccepts(perfbench::CheckAnswerShape(cold_good, cold_rules, 20),
                "shape: correct cold-shelf answer");
  const Index warm = FindItem(num_items, cold_good, [&](Index i) {
    return !is_cold[static_cast<size_t>(i)];
  });
  std::vector<RankedItem> cold_bad = cold_good;
  cold_bad.back() = {warm, cold_bad.back().score};
  ExpectRejects(perfbench::CheckAnswerShape(cold_bad, cold_rules, 20),
                "shape: warm item on the cold shelf");

  // An item outside the candidate pool.
  AnswerRules pool_rules;
  pool_rules.k = 20;
  pool_rules.pool = &pool;
  pool_rules.excluded = &seen;
  std::vector<RankedItem> pool_good = Answer(scores, pool_rules);
  ExpectAccepts(perfbench::CheckAnswerShape(pool_good, pool_rules, 20),
                "shape: correct pool answer");
  const Index outside = FindItem(num_items, pool_good, [&](Index i) {
    return !std::binary_search(pool.begin(), pool.end(), i);
  });
  std::vector<RankedItem> pool_bad = pool_good;
  pool_bad.back() = {outside, pool_bad.back().score};
  ExpectRejects(perfbench::CheckAnswerShape(pool_bad, pool_rules, 20),
                "shape: item outside the pool");

  // Duplicates and short answers.
  std::vector<RankedItem> dup = good;
  dup[3] = dup[2];
  ExpectRejects(perfbench::CheckAnswerShape(dup, full, 20), "shape: duplicate item");
  std::vector<RankedItem> short_answer(good.begin(), good.end() - 1);
  ExpectRejects(perfbench::CheckAnswerShape(short_answer, full, 20),
                "shape: one item short");

  // A reported score off the exact score.
  std::vector<RankedItem> off = good;
  off[0].score += 1e-6;
  ExpectRejects(perfbench::CheckMatchesExact(off, exact, scores, 1e-9),
                "exact: reported score off");

  // Overlap.
  Expect(perfbench::TopKOverlap(good, exact) == 1.0, "overlap: identical is 1");
  Expect(perfbench::TopKOverlap(with_seen, exact) == 19.0 / 20.0,
         "overlap: one item replaced is 19/20");
}

void TestRecallChecks() {
  // Three users; relevant sets; top lists with a known number of hits.
  const std::vector<std::vector<Index>> relevant = {{1, 2}, {}, {5, 6, 7, 8}};
  const std::vector<std::vector<Index>> tops = {{1, 9, 2}, {4}, {5, 0, 3}};
  const double recall = perfbench::RecallFromTopLists(tops, relevant, 20);
  Expect(std::abs(recall - (1.0 + 0.25) / 2.0) < 1e-15,
         "recall: users without relevant items are skipped");
  ExpectAccepts(perfbench::CheckRecallAgrees(recall, recall, 1e-9),
                "recall: equal values agree");
  // Off by one hit: user 2 loses a hit.
  const std::vector<std::vector<Index>> one_less = {{1, 9, 2}, {4}, {0, 3, 4}};
  const double corrupted = perfbench::RecallFromTopLists(one_less, relevant, 20);
  ExpectRejects(perfbench::CheckRecallAgrees(recall, corrupted, 1e-9),
                "recall: off by one hit");

  // IndependentRecall against a hand-built dataset.
  firzen::Dataset ds;
  ds.num_users = 2;
  ds.num_items = 4;
  ds.is_cold_item = {false, false, false, true};
  ds.train = {{0, 0}};
  firzen::Matrix u(2, 1), it(4, 1);
  u(0, 0) = 1.0;
  u(1, 0) = -1.0;
  for (Index i = 0; i < 4; ++i) it(i, 0) = static_cast<double>(i);
  // Warm candidates for user 0: items 1, 2 (item 0 is train-seen, 3 cold).
  const std::vector<firzen::Interaction> split = {{0, 1}, {1, 2}};
  Index users = 0;
  const double warm1 = perfbench::IndependentRecall(ds, split, true, u, it, 1, &users);
  // k=1: user 0 ranks item 2 first (miss); user 1 ranks item 0 first (miss).
  Expect(users == 2 && warm1 == 0.0, "recall: warm candidate rules at k=1");
  const double warm2 = perfbench::IndependentRecall(ds, split, true, u, it, 2, &users);
  Expect(warm2 == 1.0 / 2.0, "recall: warm candidate rules at k=2");

  // Cold items in train are caught.
  ExpectAccepts(perfbench::CheckNoColdInTrain(ds.train, ds.is_cold_item),
                "dataset: no cold item in train");
  ds.train.push_back({1, 3});
  ExpectRejects(perfbench::CheckNoColdInTrain(ds.train, ds.is_cold_item),
                "dataset: cold item in train");
}

}  // namespace

int main() {
  TestRankingChecks();
  TestRecallChecks();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
