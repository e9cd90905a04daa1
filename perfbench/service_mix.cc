// service_hot and service_cold: four closed-loop clients against one
// QueryService with default options, drawing from the five shapes of
// mix.h.  Hot clients submit five fixed plan objects; cold clients submit
// a fresh plan object with unique public sizes every time.

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "common/bits.h"
#include "common/thread_pool.h"
#include "mix.h"
#include "obliv/artifact_cache.h"
#include "obliv/sort_policy.h"
#include "service/query_service.h"

namespace perfbench {
namespace {

using oblivdb::MixSeed;
using oblivdb::SplitMix64;
using oblivdb::ThreadPool;
namespace core = oblivdb::core;
namespace obliv = oblivdb::obliv;
namespace service = oblivdb::service;

constexpr int kClients = 4;
// Nearest-rank p95 has at least ten samples beyond it from 200 samples on.
constexpr size_t kMinSamples = 200;
// Cold plans whose solo runs the traced run times, operator by operator.
constexpr size_t kColdTraceSample = 25;

struct QueryRecord {
  int shape = 0;
  size_t index = 0;  // cold: position in the size schedule
  double latency_s = 0;
  double submit_us = 0;
  bool ok = false;
  Digest digest;
};

core::PlanPtr PlanFor(bool hot, const QueryRecord& rec,
                      const std::vector<core::PlanPtr>& hot_plans,
                      const ColdSchedule& schedule, uint64_t seed) {
  return hot ? hot_plans[rec.shape]
             : BuildPlan(rec.shape, schedule.At(rec.index), seed);
}

// Solo reference run under the session context, on a pool of the
// session's worker budget.
Digest SoloDigest(const core::PlanPtr& plan, core::ExecContext ctx,
                  ThreadPool* pool) {
  ctx.pool = pool;
  Digest d;
  d.AddPlanResult(core::Executor(ctx).Execute(plan));
  return d;
}

}  // namespace

ServiceSnapshot Snapshot(const service::QueryService& svc) {
  return {svc.counters(), svc.plan_cache().stats(),
          obliv::ArtifactCache::Global().stats()};
}

void ReportServiceCounters(const ServiceSnapshot& before,
                           const ServiceSnapshot& after, Outcome& out) {
  const auto& c0 = before.service;
  const auto& c1 = after.service;
  const auto& a0 = before.artifact_cache;
  const auto& a1 = after.artifact_cache;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double executed = static_cast<double>((c1.completed - c0.completed) +
                                              (c1.failed - c0.failed));
  out.Metric("service.batch_mean", ratio(executed, c1.batches - c0.batches),
             "count");
  out.Metric("service.coalesced_frac",
             ratio(c1.coalesced - c0.coalesced, c1.completed - c0.completed),
             "ratio");
  const double hits = c1.plan_cache_hits - c0.plan_cache_hits;
  out.Metric("plan_cache.hit_rate",
             ratio(hits, hits + (c1.plan_cache_misses - c0.plan_cache_misses)),
             "ratio");
  out.Metric("plan_cache.evictions",
             after.plan_cache.evictions - before.plan_cache.evictions, "count");
  const double ahits = a1.hits - a0.hits;
  out.Metric("artifact_cache.hit_rate",
             ratio(ahits, ahits + (a1.misses - a0.misses)), "ratio");
  out.Metric("artifact_cache.evictions", a1.evictions - a0.evictions,
             "count");
  out.Metric("service.retries", c1.retries - c0.retries, "count");
  out.Metric("service.shed", c1.shed - c0.shed, "count");
  out.Metric("service.rejected",
             (c1.rejected_queue_full - c0.rejected_queue_full) +
                 (c1.rejected_deadline - c0.rejected_deadline) +
                 (c1.breaker_rejected - c0.breaker_rejected),
             "count");
}

Outcome RunServiceMix(const Args& args, bool hot) {
  Outcome out;
  const ColdSchedule schedule(args.seed);

  // Set-up, three times (median reported): data generation, service
  // construction, and one warm-up query per shape through the service.
  std::vector<double> setup;
  std::vector<core::PlanPtr> hot_plans;
  std::unique_ptr<service::QueryService> svc;
  for (int rep = 0; rep < 3; ++rep) {
    svc.reset();
    hot_plans.clear();
    const double t0 = Now();
    for (int s = 0; s < kNumShapes; ++s) {
      hot_plans.push_back(BuildPlan(s, kHotSizes, args.seed));
    }
    svc = std::make_unique<service::QueryService>(core::ExecContext{},
                                                  service::ServiceOptions{});
    for (const core::PlanPtr& plan : hot_plans) {
      if (!svc->Run(plan).ok()) out.Fail("warm-up query failed");
    }
    setup.push_back(Now() - t0);
  }

  // The measured window: closed loop, one outstanding query per client.
  const ServiceSnapshot before = Snapshot(*svc);
  std::vector<std::vector<QueryRecord>> records(kClients);
  std::atomic<size_t> next_index{0};
  std::atomic<size_t> completed{0};
  const double start = Now();
  const double min_end = start + args.seconds;
  const double hard_end = start + 3 * args.seconds;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client walks seeded shuffles of the five shapes, so every
      // run's mix is balanced and a seed cannot tilt the mean work.
      uint64_t state = MixSeed(args.seed, 500 + c);
      int order[kNumShapes];
      int next_in_order = kNumShapes;
      while (true) {
        const double now = Now();
        if (now >= hard_end) break;
        if (now >= min_end && completed.load() >= kMinSamples) break;
        if (next_in_order == kNumShapes) {
          for (int s = 0; s < kNumShapes; ++s) order[s] = s;
          for (int s = kNumShapes; s > 1; --s) {
            std::swap(order[s - 1], order[SplitMix64(state) % s]);
          }
          next_in_order = 0;
        }
        QueryRecord rec;
        rec.shape = order[next_in_order++];
        if (!hot) {
          rec.index = next_index.fetch_add(1);
          if (rec.index >= ColdSchedule::kMaxSubmissions) break;
        }
        const core::PlanPtr plan =
            PlanFor(hot, rec, hot_plans, schedule, args.seed);
        const double q0 = Now();
        auto submitted = svc->Submit(plan);
        rec.submit_us = (Now() - q0) * 1e6;
        if (submitted.ok()) {
          const auto& response = (*submitted)->Wait();
          rec.latency_s = Now() - q0;
          rec.ok = response.ok();
          if (rec.ok) {
            rec.digest.AddPlanResult(response->result);
            completed.fetch_add(1);
          }
        }
        records[c].push_back(std::move(rec));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double window = Now() - start;
  const ServiceSnapshot after = Snapshot(*svc);
  const double peak_rss = PeakRssMb();

  std::vector<QueryRecord> all;
  for (auto& r : records) {
    for (QueryRecord& rec : r) all.push_back(std::move(rec));
  }
  // Output check, after the window: every response against a solo
  // Executor run under the service's session context.
  const core::ExecContext solo_ctx =
      svc->MakeSessionContext(service::SessionOptions{});
  std::vector<char> matches(all.size(), 0);
  if (hot) {
    ThreadPool pool(svc->session_workers());
    std::vector<Digest> expected;
    for (const core::PlanPtr& plan : hot_plans) {
      expected.push_back(SoloDigest(plan, solo_ctx, &pool));
    }
    for (size_t i = 0; i < all.size(); ++i) {
      matches[i] = all[i].ok && all[i].digest == expected[all[i].shape];
    }
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> verifiers;
    for (int v = 0; v < kClients; ++v) {
      verifiers.emplace_back([&] {
        ThreadPool pool(svc->session_workers());
        for (size_t i = next.fetch_add(1); i < all.size();
             i = next.fetch_add(1)) {
          if (!all[i].ok) continue;
          const core::PlanPtr plan =
              PlanFor(hot, all[i], hot_plans, schedule, args.seed);
          matches[i] = all[i].digest == SoloDigest(plan, solo_ctx, &pool);
        }
      });
    }
    for (std::thread& t : verifiers) t.join();
  }

  std::vector<double> latencies;
  for (size_t i = 0; i < all.size(); ++i) {
    ++out.attempted;
    if (!matches[i]) {
      ++out.failed;
    } else {
      latencies.push_back(all[i].latency_s);
    }
  }
  if (out.failed > 0) {
    out.Fail(std::to_string(out.failed) + " of " +
             std::to_string(out.attempted) +
             " queries failed or differed from the solo run");
  }
  if (SamplesBeyond(latencies.size(), 0.95) < 10) {
    out.Fail("too few samples for p95: " + std::to_string(latencies.size()));
  }

  // Obliviousness gate: every shape at 1/16 of the run's sizes, two
  // datasets of equal public sizes, equal trace digests.
  const MixSizes gate_sizes =
      hot ? MixSizes{kHotSizes.fact_rows / 16, kHotSizes.dim_rows / 16}
          : MixSizes{schedule.At(0).fact_rows / 16,
                     schedule.At(0).fact_rows / 48};
  for (int s = 0; s < kNumShapes; ++s) {
    if (TraceDigest(BuildPlan(s, gate_sizes, MixSeed(args.seed, 1))) !=
        TraceDigest(BuildPlan(s, gate_sizes, MixSeed(args.seed, 2)))) {
      out.Fail(std::string("trace digests differ for shape ") + ShapeName(s));
    }
  }

  std::set<std::string> policies;
  uint64_t max_shards = 0;
  {
    core::Executor ex(solo_ctx);
    for (const core::PlanPtr& plan : hot_plans) {
      ex.Execute(plan);
      for (const core::PlanNodeStats& n : ex.node_stats()) {
        // kAuto marks a node that ran no sort at all.
        if (n.op == core::PlanOp::kScan ||
            n.stats.op_sort_policy_chosen == obliv::SortPolicy::kAuto) {
          continue;
        }
        policies.insert(obliv::SortPolicyName(n.stats.op_sort_policy_chosen));
        max_shards = std::max(max_shards, n.stats.op_shards);
      }
    }
  }
  std::string policy_list = "[";
  for (const std::string& p : policies) {
    policy_list += (policy_list.size() > 1 ? ",\"" : "\"") + p + "\"";
  }
  out.Prov("service.sessions", std::to_string(svc->sessions()));
  out.Prov("service.session_workers", std::to_string(svc->session_workers()));
  out.Prov("clients", std::to_string(kClients));
  out.Prov("resolved_sort_policies", policy_list + "]");
  out.Prov("resolved_max_shards", std::to_string(max_shards));
  out.Prov("window_s", std::to_string(window));
  out.Prov("queries_completed", std::to_string(latencies.size()));

  if (!args.trace) {
    out.Metric("latency_p50_ms", Median(latencies) * 1e3, "ms");
    out.Metric("latency_p95_ms", Percentile(latencies, 0.95) * 1e3, "ms");
    out.Metric("qps", static_cast<double>(latencies.size()) / window, "1/s");
    out.Metric("setup_s", Median(setup), "s");
    out.Metric("peak_rss_mb", peak_rss, "MB");
    return out;
  }

  // ------------------------------------------------ traced run: layers ---
  out.Metric("trace.latency_p50_ms", Median(latencies) * 1e3, "ms");
  out.Metric("failed_frac",
             static_cast<double>(out.failed) /
                 static_cast<double>(std::max<uint64_t>(1, out.attempted)),
             "ratio");
  std::vector<double> submit_us;
  for (const QueryRecord& rec : all) submit_us.push_back(rec.submit_us);
  out.Metric("service.submit_us", Mean(submit_us), "us");
  ReportServiceCounters(before, after, out);

  // Solo timings of the sampled plans: hot, the five plan objects; cold,
  // the first kColdTraceSample submissions that completed.
  std::vector<size_t> sample;
  if (hot) {
    for (int s = 0; s < kNumShapes; ++s) {
      auto it = std::find_if(all.begin(), all.end(),
                             [&](const QueryRecord& r) { return r.shape == s; });
      if (it != all.end()) sample.push_back(it - all.begin());
    }
  } else {
    for (size_t i = 0; i < all.size(); ++i) {
      if (matches[i]) sample.push_back(i);
    }
    std::sort(sample.begin(), sample.end(), [&](size_t a, size_t b) {
      return all[a].index < all[b].index;
    });
    sample.resize(std::min(sample.size(), kColdTraceSample));
  }
  ThreadPool pool(svc->session_workers());
  core::ExecContext ctx = solo_ctx;
  ctx.pool = &pool;
  // Solo time of each measured query's plan: hot, every query of a
  // sampled shape; cold, the sampled queries themselves.
  std::vector<double> solo_ms(all.size(), -1.0);
  std::vector<double> optimize_us, rewrites, elided;
  OperatorTimes operators;
  for (size_t i : sample) {
    const core::PlanPtr plan = PlanFor(hot, all[i], hot_plans, schedule,
                                       args.seed);
    core::Executor ex(ctx);
    std::vector<double> runs;
    for (int rep = 0; rep < (hot ? 3 : 1); ++rep) {
      const double t0 = Now();
      ex.Execute(plan);
      runs.push_back((Now() - t0) * 1e3);
    }
    for (size_t j = 0; j < all.size(); ++j) {
      if (j == i || (hot && all[j].shape == all[i].shape)) {
        solo_ms[j] = Median(runs);
      }
    }
    double r = 0, e = 0;
    for (const core::PlanNodeStats& n : ex.node_stats()) {
      r += static_cast<double>(n.stats.op_rewrites);
      e += static_cast<double>(n.stats.op_sorts_elided);
    }
    rewrites.push_back(r);
    elided.push_back(e);
    optimize_us.push_back(TimeOptimize(plan, ctx));
    TimeOperators(ex.executed_plan(), ctx, operators);
  }
  std::vector<double> exec_ms, wait_ms;
  for (size_t j = 0; j < all.size(); ++j) {
    if (!matches[j] || solo_ms[j] < 0) continue;
    exec_ms.push_back(solo_ms[j]);
    wait_ms.push_back(all[j].latency_s * 1e3 - solo_ms[j]);
  }
  out.Metric("service.exec_ms", Mean(exec_ms), "ms");
  out.Metric("service.queue_wait_ms", Mean(wait_ms), "ms");
  out.Metric("core.optimize_us", Mean(optimize_us), "us");
  out.Metric("core.rewrites", Mean(rewrites), "count");
  out.Metric("core.sorts_elided", Mean(elided), "count");

  const MixSizes star_sizes = hot ? kHotSizes : schedule.At(0);
  const auto [fact, dim] = StarJoinInputs(star_sizes, args.seed);
  const core::PlanPtr star = core::Join(core::Scan(fact), core::Scan(dim));
  std::vector<JoinPhases> phases;
  for (int rep = 0; rep < 5; ++rep) {
    core::Executor ex{core::ExecContext{}};
    const double t0 = Now();
    ex.Execute(star);
    const double execute_s = Now() - t0;
    phases.push_back(TimeJoinPhases(fact, dim));
    phases.back().execute_s = execute_s;
  }
  ReportJoinPhases(phases, out);
  ReportOperators(operators, fact, dim, out);
  ProbeShards(fact, dim, out);
  ProbeSorts(args.seed, out);
  return out;
}

}  // namespace perfbench
