// Workload batch-topk: top-20 with train-seen exclusion for every user of a
// large synthetic catalog, served by one ServingEngine in large user
// batches, once at kFp32 and once at kInt8. No admission, wire or training.
//
// One round = one full pass over all users on each engine. Every response
// is shape-checked; a rotating sample of a fixed per-seed check set is
// compared with a brute-force ranking each round, and the rest of the set
// after the last round, so int8_overlap20 always covers the same users.
#include <cstdio>
#include <memory>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/eval/serving.h"
#include "src/eval/topk.h"
#include "src/models/scorer.h"
#include "src/tensor/quantized.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

using firzen::Matrix;
using firzen::RecRequest;
using firzen::RecResponse;
using firzen::ScoringPrecision;
using firzen::ServingEngine;
using firzen::ThreadPool;

constexpr Index kBatchUsers = 256;
constexpr Index kTopK = 20;
constexpr Index kPanel = 8192;  // ServingEngineOptions::item_block default
constexpr Index kCheckUsers = 96;
constexpr Index kChecksPerRound = 8;
constexpr int kMinRounds = 3;
constexpr double kScoreTol = 1e-9;
constexpr double kMinMeanOverlap = 0.95;

struct Pass {
  double seconds = 0;
  std::vector<double> batch_seconds;   // one per user batch
  std::vector<RecResponse> responses;  // indexed by user
};

Pass ServeAll(const ServingEngine& engine, Index num_users, const char* span_name,
              Report* report) {
  Pass pass;
  pass.responses.reserve(static_cast<size_t>(num_users));
  const double t0 = SinceStart();
  for (Index begin = 0; begin < num_users; begin += kBatchUsers) {
    std::vector<RecRequest> batch;
    for (Index u = begin; u < std::min(num_users, begin + kBatchUsers); ++u) {
      RecRequest req;
      req.user = u;
      req.k = kTopK;
      batch.push_back(req);
    }
    std::vector<RecResponse> out;
    const double b0 = SinceStart();
    {
      ScopedSpan span(span_name);
      out = engine.RecommendBatchDirect(batch);
    }
    pass.batch_seconds.push_back(Seconds(b0));
    for (RecResponse& r : out) pass.responses.push_back(std::move(r));
  }
  pass.seconds = Seconds(t0);
  report->attempted += static_cast<uint64_t>(num_users);
  return pass;
}

// Shape checks for every response of a pass: status, 20 distinct items,
// non-increasing scores, none train-seen.
void CheckShapes(const Catalog& cat, const Pass& pass, const char* tier,
                 Report* report) {
  for (size_t u = 0; u < pass.responses.size(); ++u) {
    const RecResponse& r = pass.responses[u];
    if (r.status != firzen::RecStatus::kOk || r.user != static_cast<Index>(u)) {
      report->failed += 1;
      report->Fail(std::string(tier) + ": bad status or user for user " +
                   std::to_string(u));
      continue;
    }
    AnswerRules rules;
    rules.k = kTopK;
    rules.excluded = &cat.seen[u];
    if (std::string e = CheckAnswerShape(ToRanked(r), rules, kTopK); !e.empty()) {
      report->Fail(std::string(tier) + " user " + std::to_string(u) + ": " + e);
    }
  }
}

// Brute-force comparison for one user; returns the int8 overlap.
double CheckUser(const Catalog& cat, Index user, const Pass& fp, const Pass& q,
                 Report* report) {
  const std::vector<double> scores = ExactScores(cat.users, cat.items, user);
  AnswerRules rules;
  rules.k = kTopK;
  rules.excluded = &cat.seen[static_cast<size_t>(user)];
  const std::vector<RankedItem> exact = ExactTopK(scores, rules);
  const RecResponse& fr = fp.responses[static_cast<size_t>(user)];
  if (std::string e = CheckMatchesExact(ToRanked(fr), exact, scores, kScoreTol);
      !e.empty()) {
    report->Fail("fp user " + std::to_string(user) + ": " + e);
  }
  return TopKOverlap(ToRanked(q.responses[static_cast<size_t>(user)]), exact);
}

}  // namespace

void RunBatchTopk(const Args& args, Report* report) {
  ThreadPool* pool = ThreadPool::Global();
  CatalogShape shape;
  if (args.census) {
    shape.num_users = 1024;
    shape.num_items = 16384;
  }
  const Catalog cat = MakeCatalog(shape, args.seed);
  const std::shared_ptr<const firzen::ServingSharedState> state =
      firzen::ServingSharedState::FromDataset(cat.dataset);
  const ServingEngine fp_engine(
      std::make_unique<firzen::DotProductScorer>(cat.users, cat.items, pool,
                                                 ScoringPrecision::kFp32),
      state);
  const ServingEngine q_engine(
      std::make_unique<firzen::DotProductScorer>(cat.users, cat.items, pool,
                                                 ScoringPrecision::kInt8),
      state);

  // The fixed check set: kCheckUsers distinct users from the seed.
  std::vector<Index> check_users;
  {
    firzen::Rng rng(SubSeed(args.seed, 21));
    std::vector<Index> all(static_cast<size_t>(shape.num_users));
    for (Index u = 0; u < shape.num_users; ++u) all[static_cast<size_t>(u)] = u;
    rng.Shuffle(&all);
    check_users.assign(all.begin(), all.begin() + kCheckUsers);
  }

  // Warm-up: the first pass after an engine is built runs markedly slower.
  Report warmup;
  ServeAll(fp_engine, shape.num_users, "warmup", &warmup);
  ServeAll(q_engine, shape.num_users, "warmup", &warmup);
  const double setup_s = SinceStart();
  std::fprintf(stderr, "batch-topk: %lld users x %lld items x dim %lld; "
               "set-up %.2fs\n", static_cast<long long>(shape.num_users),
               static_cast<long long>(shape.num_items),
               static_cast<long long>(shape.dim), setup_s);

  const double start = SinceStart();
  std::vector<double> fp_rate, q_batch_ms;
  std::vector<double> untraced_pass, traced_pass;
  std::vector<double> overlap(static_cast<size_t>(kCheckUsers), -1.0);
  size_t next_check = 0;
  Pass fp, q;
  int rounds = 0;
  while (rounds < kMinRounds ||
         Seconds(start) < args.seconds || (args.trace && traced_pass.empty())) {
    if (args.trace && !untraced_pass.empty() &&
        Seconds(start) >= args.seconds / 2) {
      Tracer::Get().Enable(true);
    }
    fp = ServeAll(fp_engine, shape.num_users, "eval.engine_batch", report);
    q = ServeAll(q_engine, shape.num_users, "eval.engine_batch_int8", report);
    // Rates come from the median user batch: a stall slows a few batches,
    // not the rate of the rest.
    for (double s : fp.batch_seconds) fp_rate.push_back(kBatchUsers / s);
    for (double s : q.batch_seconds) q_batch_ms.push_back(s * 1e3);
    (Tracer::Get().enabled() ? traced_pass : untraced_pass)
        .push_back(fp.seconds + q.seconds);
    CheckShapes(cat, fp, "fp", report);
    CheckShapes(cat, q, "int8", report);
    for (Index c = 0; c < kChecksPerRound; ++c) {
      const size_t slot = next_check++ % check_users.size();
      overlap[slot] = CheckUser(cat, check_users[slot], fp, q, report);
    }
    ++rounds;
    std::fprintf(stderr, "  round %d: fp %.0f recs/s, int8 %.0f recs/s\n",
                 rounds, shape.num_users / fp.seconds,
                 shape.num_users / q.seconds);
  }
  double overlap_sum = 0.0;
  for (size_t slot = 0; slot < check_users.size(); ++slot) {
    if (overlap[slot] < 0) overlap[slot] = CheckUser(cat, check_users[slot], fp, q, report);
    overlap_sum += overlap[slot];
  }
  const double mean_overlap = overlap_sum / static_cast<double>(check_users.size());
  if (!(mean_overlap >= kMinMeanOverlap)) {
    report->Fail("int8 mean top-20 overlap " + std::to_string(mean_overlap) +
                 " below 0.95");
  }

  if (!args.trace) {
    // throughput: fp recommendations per second; latency: one int8 user
    // batch; quality: the int8 answers' top-20 overlap with the exact ones.
    report->Metric("setup_s", setup_s, "s");
    report->Metric("throughput_per_s", Median(fp_rate), "1/s");
    report->Metric("latency_ms", Median(q_batch_ms), "ms");
    report->Metric("quality", mean_overlap, "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Layer probes at the workload's shapes: one full user batch against one
  // scoring panel.
  std::vector<Index> batch_users;
  for (Index u = 0; u < kBatchUsers; ++u) batch_users.push_back(u);
  Matrix user_batch(kBatchUsers, shape.dim);
  for (Index u = 0; u < kBatchUsers; ++u) {
    for (Index j = 0; j < shape.dim; ++j) user_batch(u, j) = cat.users(u, j);
  }
  Matrix panel(kBatchUsers, kPanel);
  const firzen::ItemBlock block{0, kPanel};
  Probe("util.parallel_for", 2000, [&] {
    firzen::ParallelFor(pool, pool->num_threads() * 256, [](Index, Index) {}, 256);
  });
  firzen::QuantizedMatrix q_items;
  Probe("tensor.quantize", 5,
        [&] { q_items = firzen::QuantizedMatrix::FromMatrix(cat.items, pool); });
  const firzen::QuantizedMatrix q_users =
      firzen::QuantizedMatrix::FromMatrix(user_batch, pool);
  Probe("tensor.gemm_bt_panel", 30, [&] {
    firzen::GemmBT(user_batch, cat.items.row(0), kPanel, firzen::MatrixView(&panel),
                   pool);
  });
  Probe("tensor.gemm_bt_quant", 30, [&] {
    firzen::GemmBTQuant(q_users.data(), kBatchUsers, shape.dim, q_users.stride(),
                        q_users.scales(), q_items, 0, kPanel,
                        firzen::MatrixView(&panel), pool);
  });
  const firzen::DotProductScorer fp_scorer(cat.users, cat.items, pool,
                                           ScoringPrecision::kFp32);
  const firzen::DotProductScorer q_scorer(cat.users, cat.items, pool,
                                          ScoringPrecision::kInt8);
  firzen::ScoringArena arena;
  Probe("models.score_block", 30, [&] {
    fp_scorer.ScoreBlock(batch_users, block, firzen::MatrixView(&panel), &arena);
  });
  firzen::ScoringArena q_arena;
  Probe("models.score_block_int8", 30, [&] {
    q_scorer.ScoreBlock(batch_users, block, firzen::MatrixView(&panel), &q_arena);
  });
  Probe("eval.topk", 30, [&] {
    for (Index r = 0; r < kBatchUsers; ++r) {
      firzen::TopKHeap heap(kTopK);
      const double* row = panel.row(r);
      for (Index i = 0; i < kPanel; ++i) heap.Push(i, row[i]);
      if (heap.Sorted().empty()) report->Fail("empty top-k probe");
    }
  });

  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  const std::vector<double> self = SelfTimesUs(spans);
  const double panels = static_cast<double>(shape.num_items) / kPanel;
  const double engine_ms = MedianSpanUs(spans, self, "eval.engine_batch") / 1e3;
  const double score_ms = MedianSpanUs(spans, self, "models.score_block") / 1e3;
  report->Metric("util.parallel_for_us",
                 MedianSpanUs(spans, self, "util.parallel_for"), "us");
  report->Metric("tensor.quantize_ms", MedianSpanUs(spans, self, "tensor.quantize") / 1e3, "ms");
  report->Metric("tensor.gemm_bt_panel_ms",
                 MedianSpanUs(spans, self, "tensor.gemm_bt_panel") / 1e3, "ms");
  report->Metric("tensor.gemm_bt_quant_ms",
                 MedianSpanUs(spans, self, "tensor.gemm_bt_quant") / 1e3, "ms");
  report->Metric("models.score_block_ms", score_ms, "ms");
  report->Metric("models.score_block_int8_ms",
                 MedianSpanUs(spans, self, "models.score_block_int8") / 1e3, "ms");
  report->Metric("eval.topk_ms", MedianSpanUs(spans, self, "eval.topk") / 1e3, "ms");
  report->Metric("eval.engine_batch_ms", engine_ms, "ms");
  report->Metric("eval.engine_batch_self_ms", engine_ms - panels * score_ms, "ms");
  report->Metric("eval.engine_batch_int8_ms",
                 MedianSpanUs(spans, self, "eval.engine_batch_int8") / 1e3, "ms");
  report->Metric("trace.overhead_pct",
                 (Median(traced_pass) / Median(untraced_pass) - 1.0) * 100.0, "%");
}

}  // namespace perfbench
