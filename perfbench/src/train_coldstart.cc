// Workload train-coldstart: the paper's offline path. Full Firzen
// (BA+KA+VA+TA) on the synthetic Beauty-S profile: Fit for a fixed epoch
// budget with early stopping off, warm evaluation, the strict-cold graph
// expansion (PrepareColdInference, Eqs. 34-35), and cold evaluation.
//
// One round = 1 Fit + 1 cold evaluation before preparation + kEvalReps warm
// evaluations + kPrepReps preparations + kEvalReps cold evaluations. Rounds
// repeat until --seconds is used up; every metric is a median over rounds
// (or over the repeated calls inside them).
#include <cstdio>
#include <memory>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/core/firzen_model.h"
#include "src/core/frozen_graphs.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/graph/knn_graph.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

using firzen::Dataset;
using firzen::EvalOptions;
using firzen::EvalResult;
using firzen::EvalSetting;
using firzen::FirzenModel;
using firzen::Matrix;
using firzen::ThreadPool;

constexpr double kScale = 1.0;
constexpr double kCensusScale = 0.25;
constexpr int kEpochs = 3;
constexpr int kBatch = 512;
constexpr Index kDim = 32;
constexpr Index kTopK = 20;
constexpr int kEvalReps = 5;
constexpr int kPrepReps = 8;
constexpr int kMinRounds = 3;
constexpr double kRecallTol = 1e-9;

firzen::TrainOptions MakeTrainOptions(uint64_t seed, int epochs) {
  firzen::TrainOptions t;
  t.embedding_dim = kDim;
  t.epochs = epochs;
  t.batch_size = kBatch;
  t.eval_every = epochs + 1;  // no validation pass: early stopping off
  t.patience = 1 << 20;
  t.seed = SubSeed(seed, 3);
  t.pool = ThreadPool::Global();
  return t;
}

EvalOptions MakeEvalOptions() {
  EvalOptions e;
  e.k = kTopK;
  e.pool = ThreadPool::Global();
  return e;
}

struct RoundResult {
  double fit_s = 0;
  double samples_per_s = 0;
  std::vector<double> prepare_ms;
  double warm_recall = 0;
  double cold_recall_before = 0;
  double cold_recall = 0;
  Index warm_users = 0;
  Index cold_users = 0;
};

bool SameBits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;
    }
  }
  return true;
}

EvalResult Evaluate(const Dataset& ds, bool warm, const firzen::Scorer& scorer) {
  ScopedSpan span("eval.evaluate");
  return firzen::EvaluateRanking(ds, warm ? ds.warm_test : ds.cold_test,
                                 warm ? EvalSetting::kWarm : EvalSetting::kCold,
                                 scorer, MakeEvalOptions());
}

RoundResult RunRound(const Dataset& ds, uint64_t seed, Report* report) {
  ScopedSpan round_span("train.round");
  RoundResult out;
  FirzenModel model;
  const firzen::TrainOptions train = MakeTrainOptions(seed, kEpochs);
  {
    ScopedSpan span("core.fit");
    const double t0 = SinceStart();
    model.Fit(ds, train);
    out.fit_s = Seconds(t0);
  }
  const int steps = static_cast<int>(ds.train.size() / kBatch + 1);
  out.samples_per_s =
      static_cast<double>(kEpochs) * steps * kBatch / out.fit_s;
  report->attempted += 1;

  // Warm evaluation and the cold baseline on the post-Fit state.
  const Matrix fit_users = model.UserEmbeddings();
  const Matrix fit_items = model.ItemEmbeddings();
  std::unique_ptr<firzen::Scorer> scorer = model.MakeScorer();
  out.cold_recall_before = Evaluate(ds, false, *scorer).metrics.recall;
  report->attempted += 1;
  for (int r = 0; r < kEvalReps; ++r) {
    const EvalResult warm = Evaluate(ds, true, *scorer);
    report->attempted += 1;
    if (r == 0) {
      out.warm_recall = warm.metrics.recall;
      out.warm_users = warm.num_users;
    } else if (std::string e = CheckRecallAgrees(out.warm_recall,
                                                  warm.metrics.recall, kRecallTol);
               !e.empty()) {
      report->Fail("repeated warm evaluation: " + e);
    }
  }
  scorer.reset();

  // Strict-cold preparation, repeated: every call must leave the same state.
  Matrix prep_users, prep_items;
  for (int r = 0; r < kPrepReps; ++r) {
    const double t0 = SinceStart();
    {
      ScopedSpan span("core.prepare_cold");
      model.PrepareColdInference(ds);
    }
    out.prepare_ms.push_back(Seconds(t0) * 1e3);
    report->attempted += 1;
    if (r == 0) {
      prep_users = model.UserEmbeddings();
      prep_items = model.ItemEmbeddings();
    } else if (!SameBits(prep_users, model.UserEmbeddings()) ||
               !SameBits(prep_items, model.ItemEmbeddings())) {
      report->Fail("a repeated PrepareColdInference changed the embeddings");
    }
  }

  scorer = model.MakeScorer();
  for (int r = 0; r < kEvalReps; ++r) {
    const EvalResult cold = Evaluate(ds, false, *scorer);
    report->attempted += 1;
    if (r == 0) {
      out.cold_recall = cold.metrics.recall;
      out.cold_users = cold.num_users;
    } else if (std::string e = CheckRecallAgrees(out.cold_recall,
                                                  cold.metrics.recall, kRecallTol);
               !e.empty()) {
      report->Fail("repeated cold evaluation: " + e);
    }
  }

  // Independent recomputation of both recalls from the embeddings.
  Index users = 0;
  const double warm_ref = IndependentRecall(ds, ds.warm_test, true, fit_users,
                                            fit_items, kTopK, &users);
  if (std::string e = CheckRecallAgrees(warm_ref, out.warm_recall, kRecallTol);
      !e.empty() || users != out.warm_users) {
    report->Fail("warm Recall@20: " + e + " users " + std::to_string(users) +
                 " vs " + std::to_string(out.warm_users));
  }
  const double cold_ref = IndependentRecall(ds, ds.cold_test, false, prep_users,
                                            prep_items, kTopK, &users);
  if (std::string e = CheckRecallAgrees(cold_ref, out.cold_recall, kRecallTol);
      !e.empty() || users != out.cold_users) {
    report->Fail("cold Recall@20: " + e + " users " + std::to_string(users) +
                 " vs " + std::to_string(out.cold_users));
  }
  // The method's own property: strict-cold preparation must help, and
  // beat a random ranking of the cold shelf.
  const double random_recall =
      static_cast<double>(kTopK) / static_cast<double>(ds.ColdItems().size());
  if (!(out.cold_recall > out.cold_recall_before)) {
    report->Fail("cold recall after preparation (" +
                 std::to_string(out.cold_recall) + ") does not beat before (" +
                 std::to_string(out.cold_recall_before) + ")");
  }
  if (!(out.cold_recall > random_recall)) {
    report->Fail("cold recall does not beat a random ranking");
  }
  return out;
}

// Layer probes at the workload's shapes, run once after the rounds in the
// traced run.
void RunProbes(const Dataset& ds, uint64_t seed) {
  ThreadPool* pool = ThreadPool::Global();
  const Index width = pool->num_threads();
  Probe("util.parallel_for", 2000, [&] {
    firzen::ParallelFor(pool, width * 256, [](Index, Index) {}, 256);
  });

  firzen::FrozenGraphOptions graph_options;
  graph_options.pool = pool;
  firzen::FrozenGraphs graphs;
  Probe("graph.train_graphs", 3,
        [&] { graphs = firzen::BuildTrainGraphs(ds, graph_options); });
  Probe("core.inference_graphs", 5, [&] {
    firzen::FrozenGraphs g = firzen::BuildInferenceGraphs(ds, graph_options, graphs);
    (void)g;
  });
  firzen::KnnGraphOptions knn;
  knn.top_k = graph_options.knn_k;
  knn.candidate_items = ds.WarmItems();
  knn.query_items = knn.candidate_items;
  knn.pool = pool;
  for (const firzen::Modality& m : ds.modalities) {
    const std::string name = "graph.knn." + m.name;
    Probe(name.c_str(), 5, [&] {
      firzen::CsrMatrix g = firzen::BuildItemItemGraph(m.features, knn);
      (void)g;
    });
  }

  // Propagation over the symmetric interaction graph: (U+I) x d.
  firzen::Rng rng(SubSeed(seed, 5));
  const firzen::CsrMatrix& adj = *graphs.interaction;
  Matrix x(adj.cols(), kDim), y;
  for (Index r = 0; r < x.rows(); ++r) {
    for (Index c = 0; c < kDim; ++c) x(r, c) = rng.Normal();
  }
  Probe("tensor.spmm", 200, [&] { adj.SpMM(x, &y, pool); });

  // Weight gradient of a modality projection: features^T * grad.
  const Matrix& feats = ds.modalities.back().features;
  Matrix grad(feats.rows(), kDim), w_grad(feats.cols(), kDim);
  for (Index r = 0; r < grad.rows(); ++r) {
    for (Index c = 0; c < kDim; ++c) grad(r, c) = rng.Normal();
  }
  Probe("tensor.gemm_trans_a", 200, [&] {
    firzen::Gemm(true, false, 1.0, feats, grad, 1.0, &w_grad, pool);
  });
}

}  // namespace

void RunTrainColdstart(const Args& args, Report* report) {
  // The profile's own world (its fixed profile seed); --seed drives the
  // training run. Worlds drawn per seed spread recall by 9-10% (IQR/median)
  // across five seeds, a fixed world by 2.6-3.6%.
  const Dataset ds = firzen::GenerateSyntheticDataset(
      firzen::BeautySConfig(args.census ? kCensusScale : kScale));
  if (std::string e = CheckNoColdInTrain(ds.train, ds.is_cold_item); !e.empty()) {
    report->Fail(e);
  }
  // Warm-up: a one-epoch Fit, one preparation and one evaluation of each
  // kind, so allocator and page-cache effects land in set-up.
  {
    FirzenModel model;
    model.Fit(ds, MakeTrainOptions(args.seed, 1));
    model.PrepareColdInference(ds);
    std::unique_ptr<firzen::Scorer> scorer = model.MakeScorer();
    Evaluate(ds, true, *scorer);
    Evaluate(ds, false, *scorer);
  }
  const double setup_s = SinceStart();
  std::fprintf(stderr, "train-coldstart: %lld users, %lld items, %zu train; "
               "set-up %.2fs\n", static_cast<long long>(ds.num_users),
               static_cast<long long>(ds.num_items), ds.train.size(), setup_s);

  // In the traced run, the first half of the rounds runs untraced and the
  // second half traced; the fit-time ratio is the tracing overhead.
  const double start = SinceStart();
  std::vector<RoundResult> rounds;
  std::vector<double> untraced_fit, traced_fit;
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         Seconds(start) < args.seconds || (args.trace && traced_fit.empty())) {
    if (args.trace && !untraced_fit.empty() &&
        Seconds(start) >= args.seconds / 2) {
      Tracer::Get().Enable(true);
    }
    rounds.push_back(RunRound(ds, args.seed, report));
    (Tracer::Get().enabled() ? traced_fit : untraced_fit)
        .push_back(rounds.back().fit_s);
    std::fprintf(stderr, "  round %zu: fit %.3fs prep %.1fms warm R@20 %.4f "
                 "cold R@20 %.4f (before %.4f)\n", rounds.size(),
                 rounds.back().fit_s, Median(rounds.back().prepare_ms),
                 rounds.back().warm_recall, rounds.back().cold_recall,
                 rounds.back().cold_recall_before);
  }
  for (const RoundResult& r : rounds) {
    if (!CheckRecallAgrees(rounds[0].warm_recall, r.warm_recall, kRecallTol)
             .empty() ||
        !CheckRecallAgrees(rounds[0].cold_recall, r.cold_recall, kRecallTol)
             .empty()) {
      report->Fail("two rounds of the same seed gave different recall");
    }
  }

  if (!args.trace) {
    std::vector<double> rate, prep;
    for (const RoundResult& r : rounds) {
      rate.push_back(r.samples_per_s);
      prep.insert(prep.end(), r.prepare_ms.begin(), r.prepare_ms.end());
    }
    // throughput: BPR samples per second of Fit; latency: one strict-cold
    // preparation; quality: cold Recall@20 after it.
    report->Metric("setup_s", setup_s, "s");
    report->Metric("throughput_per_s", Median(rate), "1/s");
    report->Metric("latency_ms", Median(prep), "ms");
    report->Metric("quality", rounds[0].cold_recall, "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  RunProbes(ds, args.seed);
  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  const std::vector<double> self = SelfTimesUs(spans);
  const double fit_s = MedianSpanUs(spans, self, "core.fit") / 1e3 / 1e3;
  const double graphs_s = MedianSpanUs(spans, self, "graph.train_graphs") / 1e3 / 1e3;
  report->Metric("util.parallel_for_us",
                 MedianSpanUs(spans, self, "util.parallel_for"), "us");
  report->Metric("tensor.gemm_trans_a_ms",
                 MedianSpanUs(spans, self, "tensor.gemm_trans_a") / 1e3, "ms");
  report->Metric("tensor.spmm_ms", MedianSpanUs(spans, self, "tensor.spmm") / 1e3, "ms");
  report->Metric("graph.train_graphs_s", graphs_s, "s");
  for (const firzen::Modality& m : ds.modalities) {
    report->Metric("graph.knn_ms." + m.name,
                   MedianSpanUs(spans, self, "graph.knn." + m.name) / 1e3, "ms");
  }
  report->Metric("core.inference_graphs_ms",
                 MedianSpanUs(spans, self, "core.inference_graphs") / 1e3, "ms");
  report->Metric("core.fit_s", fit_s - graphs_s, "s");
  report->Metric("core.prepare_cold_ms",
                 MedianSpanUs(spans, self, "core.prepare_cold") / 1e3, "ms");
  report->Metric("eval.evaluate_ms", MedianSpanUs(spans, self, "eval.evaluate") / 1e3,
                 "ms");
  report->Metric("trace.overhead_pct",
                 (Median(traced_fit) / Median(untraced_fit) - 1.0) * 100.0, "%");
}

}  // namespace perfbench
