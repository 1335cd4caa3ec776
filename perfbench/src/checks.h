// The benchmark's correctness checks. Everything here is computed apart from
// the library: exact scores come from a plain double loop, rankings from a
// sort under (score desc, id asc), candidate rules from the benchmark's own
// inputs, and Recall@k from its own count. Each check returns an empty
// string when the answer passes and a description of the first fault
// otherwise. perfbench/src/selftest.cc feeds each one corrupted answers.
#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/eval/serving.h"
#include "src/tensor/matrix.h"

namespace perfbench {

using firzen::Index;

struct RankedItem {
  Index item;
  double score;
};

/// The rules one answer must respect. Pointers are non-owning; a null
/// pointer means the rule is off.
struct AnswerRules {
  Index k = 20;
  /// Sorted explicit candidate pool; null = the whole catalog.
  const std::vector<Index>* pool = nullptr;
  /// Sorted items that must never appear (train-seen or a custom list).
  const std::vector<Index>* excluded = nullptr;
  /// With cold_only, only items with is_cold[item] may appear.
  const std::vector<bool>* is_cold = nullptr;
  bool cold_only = false;

  bool Eligible(Index item) const;
};

/// The items and scores of a served response, in rank order.
std::vector<RankedItem> ToRanked(const firzen::RecResponse& response);

/// Exact scores of `user` against every item: a sequential double sum.
std::vector<double> ExactScores(const firzen::Matrix& users,
                                const firzen::Matrix& items, Index user);

/// The exact top-k of `scores` under `rules`, ordered by (score desc, id
/// asc).
std::vector<RankedItem> ExactTopK(const std::vector<double>& scores,
                                  const AnswerRules& rules);

/// Structural check: exactly `expect_size` items, no duplicates, scores
/// non-increasing, and every item eligible under `rules`.
std::string CheckAnswerShape(const std::vector<RankedItem>& answer,
                             const AnswerRules& rules, Index expect_size);

/// Exact-path check: every reported score is within `tol` of the item's
/// exact score, and each rank holds the exact ranking's item at that rank
/// or an item whose exact score is within `tol` of it (a near-tie swap).
std::string CheckMatchesExact(const std::vector<RankedItem>& answer,
                              const std::vector<RankedItem>& exact,
                              const std::vector<double>& scores, double tol);

/// |answer ∩ exact| / |exact| (1 when exact is empty).
double TopKOverlap(const std::vector<RankedItem>& answer,
                   const std::vector<RankedItem>& exact);

/// No strict cold item may appear in the train split.
std::string CheckNoColdInTrain(const std::vector<firzen::Interaction>& train,
                               const std::vector<bool>& is_cold);

/// Mean Recall@k over the users of `relevant` that have at least one
/// relevant item: hits in their top list over their relevant count. Users
/// with no relevant items are skipped, as in the all-ranking protocol.
double RecallFromTopLists(const std::vector<std::vector<Index>>& tops,
                          const std::vector<std::vector<Index>>& relevant,
                          Index k);

/// Recall@k of embeddings under the all-ranking protocol, recomputed with
/// the benchmark's own loop: warm candidates are the warm items the user
/// has not trained on, cold candidates every strict cold item. `num_users`
/// (optional out) receives the evaluated-user count.
double IndependentRecall(const firzen::Dataset& dataset,
                         const std::vector<firzen::Interaction>& split,
                         bool warm, const firzen::Matrix& user_emb,
                         const firzen::Matrix& item_emb, Index k,
                         Index* num_users = nullptr);

/// Two recall values must agree within `tol` (absolute).
std::string CheckRecallAgrees(double independent, double program, double tol);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
