#include "perfbench/src/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {
namespace {

bool Before(const RankedItem& a, const RankedItem& b) {
  return a.score != b.score ? a.score > b.score : a.item < b.item;
}

bool Contains(const std::vector<Index>* sorted, Index item) {
  return sorted != nullptr &&
         std::binary_search(sorted->begin(), sorted->end(), item);
}

std::string At(size_t rank, Index item) {
  return "rank " + std::to_string(rank) + " item " + std::to_string(item);
}

}  // namespace

bool AnswerRules::Eligible(Index item) const {
  if (pool != nullptr && !Contains(pool, item)) return false;
  if (Contains(excluded, item)) return false;
  if (cold_only) {
    if (is_cold == nullptr || item < 0 ||
        item >= static_cast<Index>(is_cold->size()) ||
        !(*is_cold)[static_cast<size_t>(item)]) {
      return false;
    }
  }
  return true;
}

std::vector<RankedItem> ToRanked(const firzen::RecResponse& response) {
  std::vector<RankedItem> out;
  for (const firzen::Recommendation& r : response.items) {
    out.push_back({r.item, r.score});
  }
  return out;
}

std::vector<double> ExactScores(const firzen::Matrix& users,
                                const firzen::Matrix& items, Index user) {
  const Index d = users.cols();
  std::vector<double> scores(static_cast<size_t>(items.rows()));
  const double* u = users.row(user);
  for (Index i = 0; i < items.rows(); ++i) {
    const double* v = items.row(i);
    double s = 0.0;
    for (Index j = 0; j < d; ++j) s += u[j] * v[j];
    scores[static_cast<size_t>(i)] = s;
  }
  return scores;
}

std::vector<RankedItem> ExactTopK(const std::vector<double>& scores,
                                  const AnswerRules& rules) {
  std::vector<RankedItem> all;
  for (size_t i = 0; i < scores.size(); ++i) {
    const Index item = static_cast<Index>(i);
    if (rules.Eligible(item)) all.push_back({item, scores[i]});
  }
  const size_t k = std::min(all.size(), static_cast<size_t>(rules.k));
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(),
                    Before);
  all.resize(k);
  return all;
}

std::string CheckAnswerShape(const std::vector<RankedItem>& answer,
                             const AnswerRules& rules, Index expect_size) {
  if (static_cast<Index>(answer.size()) != expect_size) {
    return "answer has " + std::to_string(answer.size()) + " items, expected " +
           std::to_string(expect_size);
  }
  std::unordered_set<Index> distinct;
  for (size_t r = 0; r < answer.size(); ++r) {
    const Index item = answer[r].item;
    if (!distinct.insert(item).second) return "duplicate at " + At(r, item);
    if (!rules.Eligible(item)) {
      if (rules.pool != nullptr && !Contains(rules.pool, item)) {
        return "item outside the candidate pool at " + At(r, item);
      }
      if (Contains(rules.excluded, item)) {
        return "excluded item at " + At(r, item);
      }
      return "warm item on the cold shelf at " + At(r, item);
    }
    if (r > 0 && answer[r].score > answer[r - 1].score) {
      return "scores increase at " + At(r, item);
    }
  }
  return "";
}

std::string CheckMatchesExact(const std::vector<RankedItem>& answer,
                              const std::vector<RankedItem>& exact,
                              const std::vector<double>& scores, double tol) {
  if (answer.size() != exact.size()) {
    return "answer has " + std::to_string(answer.size()) +
           " items, exact ranking " + std::to_string(exact.size());
  }
  for (size_t r = 0; r < answer.size(); ++r) {
    const Index item = answer[r].item;
    if (item < 0 || item >= static_cast<Index>(scores.size())) {
      return "unknown item at " + At(r, item);
    }
    const double truth = scores[static_cast<size_t>(item)];
    if (!(std::fabs(answer[r].score - truth) <= tol)) {
      return "reported score off the exact score at " + At(r, item);
    }
    if (item != exact[r].item && !(std::fabs(truth - exact[r].score) <= tol)) {
      return "expected item " + std::to_string(exact[r].item) + " at " +
             At(r, item);
    }
  }
  return "";
}

double TopKOverlap(const std::vector<RankedItem>& answer,
                   const std::vector<RankedItem>& exact) {
  if (exact.empty()) return 1.0;
  std::unordered_set<Index> truth;
  for (const RankedItem& e : exact) truth.insert(e.item);
  size_t hits = 0;
  for (const RankedItem& a : answer) hits += truth.count(a.item);
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

std::string CheckNoColdInTrain(const std::vector<firzen::Interaction>& train,
                               const std::vector<bool>& is_cold) {
  for (const firzen::Interaction& x : train) {
    if (x.item < 0 || x.item >= static_cast<Index>(is_cold.size())) {
      return "train item " + std::to_string(x.item) + " out of range";
    }
    if (is_cold[static_cast<size_t>(x.item)]) {
      return "cold item " + std::to_string(x.item) + " in train";
    }
  }
  return "";
}

double RecallFromTopLists(const std::vector<std::vector<Index>>& tops,
                          const std::vector<std::vector<Index>>& relevant,
                          Index k) {
  double total = 0.0;
  size_t counted = 0;
  for (size_t u = 0; u < relevant.size(); ++u) {
    if (relevant[u].empty()) continue;
    const std::unordered_set<Index> rel(relevant[u].begin(), relevant[u].end());
    size_t hits = 0;
    const size_t limit =
        u < tops.size() ? std::min(tops[u].size(), static_cast<size_t>(k)) : 0;
    for (size_t r = 0; r < limit; ++r) hits += rel.count(tops[u][r]);
    total += static_cast<double>(hits) / static_cast<double>(rel.size());
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

double IndependentRecall(const firzen::Dataset& dataset,
                         const std::vector<firzen::Interaction>& split,
                         bool warm, const firzen::Matrix& user_emb,
                         const firzen::Matrix& item_emb, Index k,
                         Index* num_users) {
  const size_t nu = static_cast<size_t>(dataset.num_users);
  const std::vector<bool>& is_cold = dataset.is_cold_item;
  std::vector<std::vector<Index>> seen(nu);
  if (warm) {
    for (const firzen::Interaction& x : dataset.train) {
      seen[static_cast<size_t>(x.user)].push_back(x.item);
    }
    for (auto& s : seen) std::sort(s.begin(), s.end());
  }
  auto candidate = [&](Index user, Index item) {
    const bool cold = is_cold[static_cast<size_t>(item)];
    if (!warm) return cold;
    const auto& s = seen[static_cast<size_t>(user)];
    return !cold && !std::binary_search(s.begin(), s.end(), item);
  };

  std::vector<std::vector<Index>> relevant(nu);
  for (const firzen::Interaction& x : split) {
    if (!candidate(x.user, x.item)) continue;
    auto& rel = relevant[static_cast<size_t>(x.user)];
    if (std::find(rel.begin(), rel.end(), x.item) == rel.end()) {
      rel.push_back(x.item);
    }
  }

  std::vector<std::vector<Index>> tops(nu);
  Index counted = 0;
  for (size_t u = 0; u < nu; ++u) {
    if (relevant[u].empty()) continue;
    ++counted;
    const Index user = static_cast<Index>(u);
    const std::vector<double> scores = ExactScores(user_emb, item_emb, user);
    std::vector<RankedItem> ranked;
    for (Index i = 0; i < dataset.num_items; ++i) {
      if (candidate(user, i)) ranked.push_back({i, scores[static_cast<size_t>(i)]});
    }
    const size_t top = std::min(ranked.size(), static_cast<size_t>(k));
    std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(top),
                      ranked.end(), Before);
    for (size_t r = 0; r < top; ++r) tops[u].push_back(ranked[r].item);
  }
  if (num_users != nullptr) *num_users = counted;
  return RecallFromTopLists(tops, relevant, k);
}

std::string CheckRecallAgrees(double independent, double program, double tol) {
  if (std::fabs(independent - program) <= tol) return "";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "recall %.12f disagrees with recomputed %.12f",
                program, independent);
  return buf;
}

}  // namespace perfbench
