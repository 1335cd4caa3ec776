// Workload online-mixed: a closed loop of single-user requests from a fixed
// number of client threads through an AdmissionController to a
// DistributedServingEngine over two in-process ShardServers on loopback TCP,
// all at kInt8. The request mix covers the full catalog, explicit candidate
// pools, the cold_only strict-cold shelf and kCustom exclusion, in equal
// shares: no traffic record exists to weight them, so no class is favoured.
// The pool size and the custom exclusion sizes below are likewise chosen,
// not measured; README.md gives the reason for each.
//
// One round = the same fixed list of kRoundRequests requests, drawn from
// the seed, shared out to the clients. The coordinator sits behind the
// AdmissionController(Backend) constructor, so each fused pass is timed and
// each request's admission wait is its latency minus the pass it rode.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/eval/admission.h"
#include "src/models/scorer.h"
#include "src/serve/distributed_serving.h"
#include "src/serve/shard_server.h"
#include "src/serve/wire.h"
#include "src/tensor/quantized.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

using firzen::ExclusionPolicy;
using firzen::RecRequest;
using firzen::RecResponse;
using firzen::RecStatus;
using firzen::ScoringPrecision;
using firzen::ThreadPool;

constexpr Index kTopK = 20;
constexpr size_t kRoundRequests = 2000;
constexpr int kMaxClients = 4;
// A candidate pool far smaller than a shard's range, so the int8
// ScoreCandidates path serves it rather than a block scan.
constexpr Index kPoolSize = 500;
// Custom exclusions are precomputed from a brute-force ranking, so only a
// few users carry them; the set-up cost grows with this count.
constexpr Index kCustomUsers = 32;
// Half of k: the exclusion must change the answer for the check to bite.
constexpr Index kCustomTopExcluded = 10;
// Items that mostly fall outside the top k, as an "already seen" list would.
constexpr Index kCustomRandomExcluded = 6;
constexpr size_t kCheckRequests = 64;
constexpr size_t kChecksPerRound = 16;
constexpr int kMinRounds = 3;
constexpr int kWarmupRounds = 2;
constexpr double kMinMeanOverlap = 0.95;
constexpr size_t kWireSamples = 200;
constexpr Index kSmallPanel = 8192;  // item panel of the small-batch probe
// Request classes, served in equal shares: request i of a round is of
// class i % kNumClasses.
enum class RequestClass { kFull, kPool, kColdOnly, kCustom };
constexpr size_t kNumClasses = 4;

CatalogShape OnlineShape(bool census) {
  CatalogShape shape;
  shape.num_items = census ? 16384 : 65536;
  if (census) shape.num_users = 1024;
  return shape;
}

// A request plus what the checks need to know about it.
struct Planned {
  RecRequest request;
  AnswerRules rules;
  Index expect_size = kTopK;
  std::vector<Index> pool;     // sorted; backs rules.pool
  std::vector<Index> exclude;  // sorted; backs rules.excluded for kCustom
};

std::vector<Index> RandomItems(firzen::Rng* rng, Index n, Index count) {
  std::vector<Index> out;
  while (static_cast<Index>(out.size()) < count) {
    const Index item = rng->UniformInt(n);
    if (std::find(out.begin(), out.end(), item) == out.end()) out.push_back(item);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Planned> PlanRequests(const Catalog& cat, uint64_t seed) {
  firzen::Rng rng(SubSeed(seed, 31));
  const Index num_users = cat.users.rows();
  const Index num_items = cat.items.rows();
  // kCustom users withhold their own exact top items (plus a few random
  // ones), so the exclusion visibly changes the answer.
  std::vector<Index> custom_users = RandomItems(&rng, num_users, kCustomUsers);
  std::vector<std::vector<Index>> custom_exclude;
  for (Index user : custom_users) {
    const std::vector<double> scores = ExactScores(cat.users, cat.items, user);
    AnswerRules top;
    top.k = kCustomTopExcluded;
    std::vector<Index> ex;
    for (const RankedItem& r : ExactTopK(scores, top)) ex.push_back(r.item);
    for (Index item : RandomItems(&rng, num_items, kCustomRandomExcluded)) {
      ex.push_back(item);
    }
    std::sort(ex.begin(), ex.end());
    ex.erase(std::unique(ex.begin(), ex.end()), ex.end());
    custom_exclude.push_back(std::move(ex));
  }

  std::vector<Planned> plan(kRoundRequests);
  for (size_t i = 0; i < plan.size(); ++i) {
    Planned& p = plan[i];
    RecRequest& req = p.request;
    req.k = kTopK;
    req.user = rng.UniformInt(num_users);
    switch (static_cast<RequestClass>(i % kNumClasses)) {
      case RequestClass::kFull:  // full catalog, train-seen excluded
        break;
      case RequestClass::kPool:
        p.pool = RandomItems(&rng, num_items, kPoolSize);
        req.candidates = p.pool;
        break;
      case RequestClass::kColdOnly:
        req.cold_only = true;
        break;
      case RequestClass::kCustom: {
        const size_t c = static_cast<size_t>(rng.UniformInt(kCustomUsers));
        req.user = custom_users[c];
        req.exclusion = ExclusionPolicy::kCustom;
        p.exclude = custom_exclude[c];
        req.exclude = p.exclude;
        break;
      }
    }
  }
  // Rules point into the plan's own vectors, so fill them after the plan
  // stops moving.
  for (Planned& p : plan) {
    const RecRequest& req = p.request;
    p.rules.k = kTopK;
    p.rules.pool = req.candidates.empty() ? nullptr : &p.pool;
    p.rules.excluded = req.exclusion == ExclusionPolicy::kCustom
                           ? &p.exclude
                           : &cat.seen[static_cast<size_t>(req.user)];
    p.rules.cold_only = req.cold_only;
    p.rules.is_cold = &cat.is_cold;
    Index eligible = 0;
    if (!p.pool.empty()) {
      for (Index item : p.pool) eligible += p.rules.Eligible(item) ? 1 : 0;
    } else {
      eligible = kTopK;  // catalog and cold shelf hold far more than k
    }
    p.expect_size = std::min(kTopK, eligible);
  }
  return plan;
}

// The span of each client's in-flight request, so the fused pass can record
// itself as a child of every request it carries. Clients tag requests with
// tenant = client index (ignored by the FIFO drain), and each client has at
// most one request in flight.
struct PassSlot {
  uint64_t request_span = 0;
  uint64_t request_id = 0;
};

struct OnlineState {
  const firzen::DistributedServingEngine* coordinator = nullptr;
  std::vector<PassSlot> slots;
  std::mutex mu;
  std::vector<double> pass_ms;
  std::vector<std::vector<RecRequest>> wire_batches;
  std::vector<std::vector<RecResponse>> wire_replies;
};

std::vector<RecResponse> Backend(OnlineState* st,
                                 const std::vector<RecRequest>& batch) {
  Tracer& tracer = Tracer::Get();
  const double t0 = tracer.NowUs();
  std::vector<RecResponse> out = st->coordinator->RecommendBatchDirect(batch);
  const double t1 = tracer.NowUs();
  for (const RecRequest& req : batch) {
    const PassSlot& slot = st->slots[static_cast<size_t>(req.tenant)];
    tracer.Record("serve.rpc", t0, t1, slot.request_span, slot.request_id);
  }
  if (tracer.enabled()) {
    tracer.Count("eval.fused_passes", 1);
    tracer.Count("eval.fused_requests", static_cast<double>(batch.size()));
    std::lock_guard<std::mutex> lock(st->mu);
    st->pass_ms.push_back((t1 - t0) / 1e3);
    if (st->wire_batches.size() < kWireSamples) {
      st->wire_batches.push_back(batch);
      st->wire_replies.push_back(out);
    }
  }
  return out;
}

struct Round {
  double seconds = 0;
  std::vector<double> latency_ms;
  std::vector<RecResponse> responses;
};

Round RunRound(const std::vector<Planned>& plan, int clients, OnlineState* st,
               const firzen::AdmissionController& admission, uint64_t* next_id) {
  Round round;
  round.latency_ms.assign(plan.size(), 0.0);
  round.responses.resize(plan.size());
  std::atomic<size_t> next{0};
  const uint64_t id_base = *next_id;
  *next_id += plan.size();
  Tracer& tracer = Tracer::Get();
  const double t0 = SinceStart();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = next.fetch_add(1); i < plan.size(); i = next.fetch_add(1)) {
        RecRequest req = plan[i].request;
        req.tenant = c;
        const uint64_t request_id = id_base + i + 1;
        ScopedSpan span("online.request", request_id);
        PassSlot& slot = st->slots[static_cast<size_t>(c)];
        slot.request_span = span.id();
        slot.request_id = request_id;
        const double start_us = tracer.NowUs();
        round.responses[i] = admission.Recommend(req);
        const double end_us = tracer.NowUs();
        round.latency_ms[i] = (end_us - start_us) / 1e3;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  round.seconds = Seconds(t0);
  return round;
}

double CheckRound(const Catalog& cat, const std::vector<Planned>& plan,
                  const Round& round, size_t check_index, Report* report) {
  const Planned& p = plan[check_index];
  const std::vector<double> scores =
      ExactScores(cat.users, cat.items, p.request.user);
  const std::vector<RankedItem> exact = ExactTopK(scores, p.rules);
  if (static_cast<Index>(exact.size()) != p.expect_size) {
    report->Fail("request " + std::to_string(check_index) +
                 ": exact ranking size disagrees with the plan");
  }
  return TopKOverlap(ToRanked(round.responses[check_index]), exact);
}

void CheckShapes(const std::vector<Planned>& plan, const Round& round,
                 Report* report) {
  for (size_t i = 0; i < plan.size(); ++i) {
    const RecResponse& r = round.responses[i];
    if (r.status != RecStatus::kOk) {
      report->failed += 1;
      report->Fail("request " + std::to_string(i) + " status " +
                   firzen::RecStatusName(r.status));
      continue;
    }
    if (std::string e = CheckAnswerShape(ToRanked(r), plan[i].rules,
                                         plan[i].expect_size);
        !e.empty()) {
      report->Fail("request " + std::to_string(i) + ": " + e);
    }
  }
}

}  // namespace

void RunOnlineMixed(const Args& args, Report* report) {
  ThreadPool* pool = ThreadPool::Global();
  const int clients = std::max(
      1, std::min<int>(kMaxClients, static_cast<int>(std::thread::hardware_concurrency())));
  const CatalogShape shape = OnlineShape(args.census);
  const Catalog cat = MakeCatalog(shape, args.seed);
  const std::vector<Planned> plan = PlanRequests(cat, args.seed);
  const std::shared_ptr<const firzen::ServingSharedState> state =
      firzen::ServingSharedState::FromDataset(cat.dataset);

  std::vector<std::unique_ptr<firzen::ShardServer>> servers;
  firzen::DistributedServingOptions dist;
  const Index half = shape.num_items / 2;
  for (const firzen::ItemBlock range :
       {firzen::ItemBlock{0, half}, firzen::ItemBlock{half, shape.num_items}}) {
    firzen::ShardServerOptions options;
    options.num_users = shape.num_users;
    options.pool = pool;
    servers.push_back(std::make_unique<firzen::ShardServer>(
        std::make_unique<firzen::DotProductScorer>(cat.users, cat.items, pool,
                                                   ScoringPrecision::kInt8),
        state, range, options));
    const firzen::Status started = servers.back()->Start();
    if (!started.ok()) {
      report->Fail("shard server start: " + started.ToString());
      return;
    }
    dist.shard_addresses.push_back(servers.back()->bound_address());
  }
  auto connected = firzen::DistributedServingEngine::Connect(dist);
  if (!connected.ok()) {
    report->Fail("coordinator connect: " + connected.status().ToString());
    return;
  }
  const std::unique_ptr<firzen::DistributedServingEngine> coordinator =
      std::move(connected.value());

  OnlineState st;
  st.coordinator = coordinator.get();
  st.slots.resize(static_cast<size_t>(clients));
  const firzen::AdmissionController admission(
      [&st](const std::vector<RecRequest>& batch) { return Backend(&st, batch); });

  // Warm-up: the first rounds after start-up run markedly slower.
  uint64_t next_id = 0;
  for (int r = 0; r < kWarmupRounds; ++r) {
    CheckShapes(plan, RunRound(plan, clients, &st, admission, &next_id), report);
    report->attempted += plan.size();
  }
  const double setup_s = SinceStart();
  std::fprintf(stderr, "online-mixed: %d clients, %lld items, 2 shards; "
               "set-up %.2fs\n", clients, static_cast<long long>(shape.num_items),
               setup_s);

  // A fixed check set spread over the plan; a rotating part of it is
  // brute-forced each round and the rest after the last round.
  std::vector<double> overlap(kCheckRequests, -1.0);
  size_t next_check = 0;
  const double start = SinceStart();
  std::vector<double> rps, latency_ms, untraced_rps, traced_rps;
  uint64_t rpcs0 = 0, failed_rpcs0 = 0, bytes0 = 0;
  size_t traced_requests = 0;
  Round round;
  while (static_cast<int>(rps.size()) < kMinRounds ||
         Seconds(start) < args.seconds || (args.trace && traced_rps.empty())) {
    if (args.trace && !untraced_rps.empty() && !Tracer::Get().enabled() &&
        Seconds(start) >= args.seconds / 2) {
      Tracer::Get().Enable(true);
      rpcs0 = coordinator->shard_rpcs();
      failed_rpcs0 = coordinator->failed_shard_rpcs();
      bytes0 = coordinator->bytes_sent() + coordinator->bytes_received();
    }
    round = RunRound(plan, clients, &st, admission, &next_id);
    report->attempted += plan.size();
    const double rate = static_cast<double>(plan.size()) / round.seconds;
    rps.push_back(rate);
    if (Tracer::Get().enabled()) {
      traced_rps.push_back(rate);
      traced_requests += plan.size();
    } else {
      untraced_rps.push_back(rate);
      latency_ms.insert(latency_ms.end(), round.latency_ms.begin(),
                        round.latency_ms.end());
    }
    CheckShapes(plan, round, report);
    for (size_t c = 0; c < kChecksPerRound; ++c) {
      const size_t slot = next_check++ % kCheckRequests;
      overlap[slot] = CheckRound(cat, plan, round, slot * (plan.size() / kCheckRequests),
                                 report);
    }
    std::fprintf(stderr, "  round %zu: %.0f rps, p50 %.3f ms\n", rps.size(), rate,
                 Median(round.latency_ms));
  }
  double overlap_sum = 0.0;
  for (size_t slot = 0; slot < kCheckRequests; ++slot) {
    if (overlap[slot] < 0) {
      overlap[slot] = CheckRound(cat, plan, round, slot * (plan.size() / kCheckRequests),
                                 report);
    }
    overlap_sum += overlap[slot];
  }
  const double mean_overlap = overlap_sum / kCheckRequests;
  if (!(mean_overlap >= kMinMeanOverlap)) {
    report->Fail("int8 mean overlap with the exact ranking " +
                 std::to_string(mean_overlap) + " below 0.95");
  }
  if (coordinator->failed_shard_rpcs() != 0 ||
      coordinator->degraded_responses() != 0) {
    report->Fail("coordinator saw failed shard RPCs or degraded responses");
  }
  const uint64_t rpcs = coordinator->shard_rpcs() - rpcs0;
  const uint64_t failed_rpcs = coordinator->failed_shard_rpcs() - failed_rpcs0;
  const uint64_t bytes =
      coordinator->bytes_sent() + coordinator->bytes_received() - bytes0;
  for (auto& server : servers) server->Stop();

  if (!args.trace) {
    // throughput: requests per second; latency: the median request;
    // quality: the int8 answers' overlap with the exact ones under each
    // request's own rules.
    report->Metric("setup_s", setup_s, "s");
    report->Metric("throughput_per_s", Median(rps), "1/s");
    report->Metric("latency_ms", Quantile(latency_ms, 0.50), "ms");
    report->Metric("quality", mean_overlap, "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // The coordinator's own counters over the traced half join the trace.
  Tracer& tracer = Tracer::Get();
  tracer.Count("serve.shard_rpcs", static_cast<double>(rpcs));
  tracer.Count("serve.failed_shard_rpcs", static_cast<double>(failed_rpcs));
  tracer.Count("serve.wire_bytes", static_cast<double>(bytes));
  std::map<std::string, double> counts = tracer.Counts();
  const double per_batch = counts["eval.fused_passes"] > 0
                               ? counts["eval.fused_requests"] / counts["eval.fused_passes"]
                               : 1.0;

  // Layer probes at the workload's shapes.
  // The small-batch kernel is the int8 one the shards run: the fused user
  // batch, quantized as the scorer quantizes it, against one panel of the
  // int8 catalog.
  const Index m = std::max<Index>(1, static_cast<Index>(per_batch + 0.5));
  firzen::Matrix small(m, shape.dim), out(m, kSmallPanel);
  for (Index u = 0; u < m; ++u) {
    for (Index j = 0; j < shape.dim; ++j) small(u, j) = cat.users(u, j);
  }
  firzen::QuantizedMatrix q_items;
  Probe("tensor.quantize", 5,
        [&] { q_items = firzen::QuantizedMatrix::FromMatrix(cat.items, pool); });
  const firzen::QuantizedMatrix q_small = firzen::QuantizedMatrix::FromMatrix(small, pool);
  Probe("tensor.gemm_bt_small", 200, [&] {
    firzen::GemmBTQuant(q_small.data(), m, shape.dim, q_small.stride(), q_small.scales(),
                        q_items, 0, kSmallPanel, firzen::MatrixView(&out), pool);
  });
  const firzen::DotProductScorer q_scorer(cat.users, cat.items, pool,
                                          ScoringPrecision::kInt8);
  firzen::ScoringArena arena;
  firzen::Matrix cand_out(1, kPoolSize);
  const std::vector<Index>* some_pool = nullptr;
  for (const Planned& p : plan) {
    if (!p.pool.empty()) {
      some_pool = &p.pool;
      break;
    }
  }
  if (some_pool != nullptr) {
    Probe("models.score_candidates", 200, [&] {
      q_scorer.ScoreCandidates({plan[0].request.user}, *some_pool,
                               firzen::MatrixView(&cand_out), &arena);
    });
  }
  for (size_t b = 0; b < st.wire_batches.size(); ++b) {
    std::vector<uint8_t> bytes_out;
    Probe("serve.wire_encode", 1,
          [&] { bytes_out = firzen::wire::EncodeRequestBatch(st.wire_batches[b]); });
    std::vector<firzen::wire::ShardReply> replies;
    for (const RecResponse& r : st.wire_replies[b]) {
      firzen::wire::ShardReply reply;
      reply.user = r.user;
      for (const firzen::Recommendation& rec : r.items) {
        reply.items.push_back({rec.item, rec.score});
      }
      replies.push_back(std::move(reply));
    }
    const std::vector<uint8_t> reply_bytes = firzen::wire::EncodeReplyBatch(replies);
    std::vector<firzen::wire::ShardReply> decoded;
    Probe("serve.wire_decode", 1, [&] {
      if (!firzen::wire::DecodeReplyBatch(reply_bytes.data(), reply_bytes.size(),
                                          &decoded)) {
        report->Fail("wire probe: reply batch failed to decode");
      }
    });
  }

  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  const std::vector<double> self = SelfTimesUs(spans);
  // p99 did not repeat run to run within any usable bound (4-core host),
  // so it is a per-layer figure, taken from the untraced rounds.
  report->Metric("online_p99_ms", Quantile(latency_ms, 0.99), "ms");
  report->Metric("tensor.quantize_ms", MedianSpanUs(spans, self, "tensor.quantize") / 1e3,
                 "ms");
  report->Metric("tensor.gemm_bt_small_us", MedianSpanUs(spans, self, "tensor.gemm_bt_small"),
                 "us");
  report->Metric("models.score_candidates_us",
                 MedianSpanUs(spans, self, "models.score_candidates"), "us");
  report->Metric("eval.admission_wait_us",
                 MedianSpanUs(spans, self, "online.request", /*self_time=*/true), "us");
  report->Metric("eval.reqs_per_fused_batch", per_batch, "requests");
  report->Metric("serve.rpc_ms", Median(st.pass_ms), "ms");
  report->Metric("serve.wire_encode_us", MedianSpanUs(spans, self, "serve.wire_encode"),
                 "us");
  report->Metric("serve.wire_decode_us", MedianSpanUs(spans, self, "serve.wire_decode"),
                 "us");
  report->Metric("serve.wire_bytes_per_req",
                 traced_requests == 0 ? 0.0
                                      : static_cast<double>(bytes) / traced_requests,
                 "bytes");
  report->Metric("serve.shard_rpcs", static_cast<double>(rpcs), "count");
  report->Metric("serve.failed_shard_rpcs", static_cast<double>(failed_rpcs), "count");
  report->Metric("trace.overhead_pct",
                 (Median(untraced_rps) / Median(traced_rps) - 1.0) * 100.0, "%");
}

}  // namespace perfbench
