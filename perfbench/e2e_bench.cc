// perfbench_e2e: end-to-end ingest -> serve benchmark of the Fig. 2
// pipeline. Documents enter at a spout, run through the pool runtime into a
// serve::CorrelationIndex, and answers leave a net::Server socket to an
// open-loop query generator in the same process.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --cache-dir DIR [--oracle]
//
// --oracle computes the exact answer oracle for (workload corpus, seed) into
// DIR and exits; the measuring run loads it from there, so the oracle is
// computed once per seed and never inside a measuring process. The last
// stdout line is one JSON object: correctness, validity, run context and
// either the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1). perfbench/run.py builds this binary and
// wraps it; that is the command to run.
//
// Workloads (why each exists). The warm-up is fed unpaced, and set-up (up
// to the first served answer) must end inside it. After it, ingest is
// open-loop at a fixed rate on every workload: a saturated pull is not
// steady on this program. The pool then outruns the Tracker's serving
// publish (CorrelationIndex::ApplyPeriod
// rebuilds every shard on each Calculator report), and how much of the
// stream the Calculators cover varies from run to run, and with it publish
// lag, recall and throughput.
//  * ingest_steady — 15k docs/s on two pool workers, 1-minute reports, and a
//    2k req/s query trickle. The quality trigger is off and repartition
//    rounds are forced at fixed stream positions, so every run does the
//    same routing work. Exercises the ops/stream counting and routing path
//    and the serving publish it feeds.
//  * serve_churn — 15k docs/s on two pool workers with 30-second reports, so
//    the index republishes tens of times per second, under a 10k req/s
//    open-loop query mix. At 30k docs/s the pool took enough CPU that on a
//    busy host the query backlog sometimes spiralled (p50 x9). serve reads and the net wire do the work while
//    RCU publishes churn under them.
//  * checkpoint_ingest — ingest_steady's corpus and config under
//    RunCheckpointedPipeline, cutting to mem:// eleven times in the timed
//    window; set-up restores from a checkpoint written in untimed
//    preparation and ingests unpaced up to the first served answer. The
//    only workload that touches storage and the drain/rebuild path.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/jaccard.h"
#include "core/tagset.h"
#include "corpus.h"
#include "net/client.h"
#include "net/server.h"
#include "ops/centralized.h"
#include "ops/checkpoint_runner.h"
#include "ops/messages.h"
#include "ops/metrics_sink.h"
#include "ops/period_sink.h"
#include "ops/pipeline_checkpoint.h"
#include "ops/pipeline_config.h"
#include "ops/topology_builder.h"
#include "ops/tracker_op.h"
#include "serve/correlation_index.h"
#include "stream/runtime.h"
#include "stream/topology.h"
#include "telemetry/registry.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace corrtrack;

// Set-ups per run; the median is reported.
constexpr int kSetupReps = 9;
// Forced repartition rounds and checkpoint segments of the timed part of
// the corpus. Rounds sit mid-segment so a cut never drops one in flight.
constexpr int kForcedRounds = 5;
constexpr int kCheckpointSegments = 11;
// A run whose generators ran later than this (p99) measured the harness.
constexpr double kLatenessBoundMs = 5.0;
// Client I/O timeout; a failed request counts as this late.
constexpr int64_t kClientTimeoutMs = 2000;
constexpr int64_t kFailedLatencyNs = kClientTimeoutMs * 1'000'000;
constexpr int kWireSampleRequests = 240;
// Window of the windowed medians reported for publish lag and query latency.
constexpr int64_t kMedianWindowNs = 1'000'000'000;
constexpr char kPrepUri[] = "mem://perfbench/prep";

struct Workload {
  const char* name;
  bool checkpointed;
  int pool_threads;
  int net_threads;
  int reader_threads;
  double doc_rate;            ///< Open-loop docs/s after the warm-up.
  double query_rate;          ///< Open-loop requests/s.
  double frac_lookup;         ///< Rest of the mix is TopCorrelated(k=10)...
  double frac_snapshot;       ///< ...after Lookup and Snapshot shares.
  double miss_frac;           ///< Requests for keys the index cannot hold.
  Timestamp report_period;
  /// Warm-up documents, handed out unpaced. Set-up must end inside them:
  /// the bootstrap (5 virtual minutes at 130 docs/s, ~39k docs), the
  /// install landing while the spout runs ahead, and the next report. On a
  /// 4-core host the first answer came at 90k-160k docs on two pool
  /// workers, about 1 set-up in 150 past 200k; on one worker it never came
  /// before pacing began.
  uint64_t warm_docs;
  /// Position of the prep checkpoint a checkpointed workload restores, after
  /// the bootstrap install; 0 = none.
  uint64_t restore_docs;
  int forced_rounds;
};

// The corpus holds warm_docs + doc_rate * seconds documents, so the timed
// window lasts about --seconds.
constexpr Workload kWorkloads[] = {
    {"ingest_steady", false, 2, 1, 1, 15000.0, 2000.0, 0.2, 0.0, 0.05,
     kMillisPerMinute, 300000, 0, kForcedRounds},
    {"serve_churn", false, 2, 1, 1, 15000.0, 10000.0, 0.18, 0.02, 0.05,
     kMillisPerMinute / 2, 300000, 0, 0},
    {"checkpoint_ingest", true, 2, 1, 1, 15000.0, 2000.0, 0.2, 0.0, 0.05,
     kMillisPerMinute, 100000, 48000, kForcedRounds},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool oracle_only = false;
  std::string cache_dir;
};

struct Plan {
  const Workload* w = nullptr;
  uint64_t num_docs = 0;
  gen::GeneratorConfig generator;
  ops::PipelineConfig pipeline;
  uint64_t checkpoint_from = 0;   ///< Prep cut position.
  uint64_t checkpoint_every = 0;  ///< Cut spacing of the measured run.
  std::vector<uint64_t> cuts;     ///< Cuts in the measured run's window.
  uint64_t expected_installs = 0;
  std::string oracle_path;
};

Plan MakePlan(const Workload& w, const Options& o) {
  Plan p;
  p.w = &w;
  p.generator.seed = o.seed;
  const uint64_t timed_docs =
      static_cast<uint64_t>(w.doc_rate) * static_cast<uint64_t>(o.seconds);
  p.num_docs = w.warm_docs + timed_docs;
  ops::PipelineConfig& c = p.pipeline;
  c.algorithm = AlgorithmKind::kDS;
  c.report_period = w.report_period;
  c.repartition_threshold = 1e9;  // Quality trigger off.
  c.runtime = stream::RuntimeKind::kPool;
  c.num_threads = w.pool_threads;
  const uint64_t segment = timed_docs / kCheckpointSegments;
  // A restored run cuts every `segment` documents from its restore point.
  // Set-up ends at its first cut; the window holds the cuts after the
  // warm-up, and forced rounds sit mid-segment from the first of those.
  uint64_t origin = w.warm_docs;
  if (w.checkpointed) {
    p.checkpoint_from = w.restore_docs;
    p.checkpoint_every = segment;
    for (uint64_t cut = w.restore_docs + segment; cut < p.num_docs;
         cut += segment) {
      if (cut > w.warm_docs) p.cuts.push_back(cut);
    }
    origin = p.cuts.front();
  }
  for (int r = 0; r < w.forced_rounds; ++r) {
    c.forced_repartition_docs.push_back(origin + segment * (2 * r) +
                                        segment / 2);
  }
  // The bootstrap install lands before set-up ends; a restored run starts
  // after it.
  p.expected_installs = static_cast<uint64_t>(w.forced_rounds) +
                        (w.checkpointed ? 0 : 1);
  char name[160];
  std::snprintf(name, sizeof(name),
                "/oracle-%s-w%" PRIu64 "-n%" PRIu64 "-c%016" PRIx64
                "-s%" PRIu64 ".txt",
                w.name, w.warm_docs, p.num_docs,
                ops::PipelineConfigFingerprint(c), o.seed);
  p.oracle_path = o.cache_dir + name;
  return p;
}

// ------------------------------------------------------------ statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double QuantileNs(const std::vector<int64_t>& ns, double q, double scale) {
  std::vector<double> v;
  v.reserve(ns.size());
  for (const int64_t x : ns) v.push_back(static_cast<double>(x) / scale);
  return Quantile(std::move(v), q);
}

/// Median over fixed wall-clock windows of each window's median sample:
/// a few seconds of host disturbance (CPU steal on a shared machine) move
/// it far less than the pooled median. `at_ns[i]` places sample i.
double WindowedMedianNs(const std::vector<int64_t>& at_ns,
                        const std::vector<int64_t>& ns, int64_t window_ns,
                        double scale) {
  if (ns.empty()) return 0.0;
  const int64_t origin = *std::min_element(at_ns.begin(), at_ns.end());
  std::map<int64_t, std::vector<int64_t>> windows;
  for (size_t i = 0; i < ns.size(); ++i) {
    windows[(at_ns[i] - origin) / window_ns].push_back(ns[i]);
  }
  std::vector<double> medians;
  for (const auto& [index, samples] : windows) {
    medians.push_back(QuantileNs(samples, 0.5, scale));
  }
  return Quantile(std::move(medians), 0.5);
}

/// CPU time the hypervisor gave to other guests ("steal"), in clock ticks
/// since boot; -1 where /proc/stat has no steal column.
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t v[8] = {};
  in >> cpu;
  for (int64_t& x : v) in >> x;
  return in ? v[7] : -1;
}

int64_t TotalTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t total = 0;
  int64_t x = 0;
  for (int i = 0; i < 8 && (in >> x); ++i) total += x;
  return total;
}

int64_t ReadStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n &&
        line[n] == ':') {
      return std::strtoll(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return -1;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// CPU time of all threads of this process, user + system.
int64_t ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (static_cast<int64_t>(usage.ru_utime.tv_sec) +
          static_cast<int64_t>(usage.ru_stime.tv_sec)) *
             1'000'000'000LL +
         (static_cast<int64_t>(usage.ru_utime.tv_usec) +
          static_cast<int64_t>(usage.ru_stime.tv_usec)) *
             1000LL;
}

/// CPU time of the calling thread.
int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

// ---------------------------------------------------------------- oracle

/// The centralised baseline's correlations per reporting period, for every
/// period that ends more than one report period after the warm-up prefix
/// (earlier ones straddle the bootstrap install).
struct Oracle {
  std::vector<std::pair<Timestamp, TagSet>> sets;
};

bool ComputeOracle(const Plan& plan, const Corpus& corpus) {
  ops::PipelineConfig config = plan.pipeline;
  config.runtime = stream::RuntimeKind::kSimulation;
  IngestState ingest(&corpus, config.report_period);
  stream::Topology<ops::Message> topology;
  const ops::TopologyHandles handles = ops::BuildCorrelationTopology(
      &topology, std::make_unique<CorpusSpout>(&ingest, nullptr), config,
      nullptr, /*with_centralized_baseline=*/true);
  auto runtime = ops::MakeConfiguredRuntime(&topology, config);
  runtime->Run(config.report_period);
  const auto* baseline = static_cast<const ops::CentralizedBolt*>(
      runtime->bolt(handles.centralized, 0));
  const Timestamp from =
      corpus.tweets[plan.w->warm_docs].time + config.report_period;
  const std::string tmp = plan.oracle_path + ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [period_end, results] : baseline->periods()) {
      if (period_end <= from) continue;
      for (const auto& [tags, estimate] : results) {
        if (tags.size() < 2) continue;
        out << period_end;
        for (const TagId tag : tags) out << ' ' << tag;
        out << '\n';
      }
    }
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), plan.oracle_path.c_str()) == 0;
}

bool LoadOracle(const std::string& path, Oracle* oracle) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    Timestamp period_end = 0;
    std::vector<TagId> tags;
    TagId tag = 0;
    words >> period_end;
    while (words >> tag) tags.push_back(tag);
    if (tags.size() >= 2) oracle->sets.emplace_back(period_end, TagSet(tags));
  }
  return !oracle->sets.empty();
}

/// Share of the oracle's per-period correlations that the pipeline
/// published to the live index for the same period. The Tracker's period
/// map is exactly what its sink handed to CorrelationIndex::ApplyPeriod
/// (the correctness gate holds the index equal to it).
double AnswerRecall(const Oracle& oracle, const ops::TrackerBolt& tracker) {
  uint64_t recalled = 0;
  for (const auto& [period_end, tags] : oracle.sets) {
    const auto it = tracker.periods().find(period_end);
    if (it != tracker.periods().end() &&
        it->second.find(tags) != it->second.end()) {
      ++recalled;
    }
  }
  return static_cast<double>(recalled) /
         static_cast<double>(oracle.sets.size());
}

// ------------------------------------------------------------- observers

/// MetricsSink that counts routing and repartition events. Each field has a
/// single writer task; fields are read after the runtime joined.
class CountingMetrics : public ops::MetricsSink {
 public:
  CountingMetrics(int max_calculators, Tracer* tracer)
      : per_calculator_(static_cast<size_t>(max_calculators), 0),
        tracer_(tracer) {}

  void OnRouted(int notified, Timestamp) override {
    const bool sampled =
        tracer_ != nullptr && routed_ % Tracer::kHotSampleEvery == 0;
    ScopedSpan span(sampled ? tracer_ : nullptr, "MetricsSink::OnRouted",
                    "ops", Tracer::kHotSampleEvery);
    ++routed_;
    if (notified > 0) {
      ++covered_;
      notifications_ += static_cast<uint64_t>(notified);
    }
  }
  void OnNotification(int calculator) override {
    if (static_cast<size_t>(calculator) < per_calculator_.size()) {
      ++per_calculator_[static_cast<size_t>(calculator)];
    }
  }
  void OnPartitionsInstalled(Epoch, double, double, Timestamp) override {
    ScopedSpan span(tracer_, "MetricsSink::OnPartitionsInstalled", "ops");
    ++installs_;
  }
  void OnSingleAddition(Timestamp) override { ++single_additions_; }

  uint64_t installs() const { return installs_; }
  uint64_t single_additions() const { return single_additions_; }
  double covered_frac() const {
    return routed_ == 0 ? 0.0 : static_cast<double>(covered_) /
                                    static_cast<double>(routed_);
  }
  double avg_com() const {
    return covered_ == 0 ? 0.0 : static_cast<double>(notifications_) /
                                     static_cast<double>(covered_);
  }
  double max_load() const {
    uint64_t total = 0;
    uint64_t max = 0;
    for (const uint64_t c : per_calculator_) {
      total += c;
      max = std::max(max, c);
    }
    return total == 0 ? 0.0
                      : static_cast<double>(max) / static_cast<double>(total);
  }

 private:
  uint64_t routed_ = 0;
  uint64_t covered_ = 0;
  uint64_t notifications_ = 0;
  std::vector<uint64_t> per_calculator_;
  uint64_t installs_ = 0;
  uint64_t single_additions_ = 0;
  Tracer* tracer_;
};

struct ApplySample {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t boundary_ns = 0;  ///< First doc at/after period_end (0 = none).
  size_t estimates = 0;
};

/// PeriodSink wrapping CorrelationIndex::ApplyPeriod: times every publish
/// and pairs it with the wall time the spout crossed its period end. Driven
/// by the Tracker task only; samples are read after the runtime joined.
class TimedIndexSink : public ops::PeriodSink {
 public:
  TimedIndexSink(serve::CorrelationIndex* index, const IngestState* ingest,
                 Tracer* tracer)
      : index_(index), ingest_(ingest), tracer_(tracer) {}

  void OnPeriodResults(Timestamp period_end,
                       const std::vector<JaccardEstimate>& estimates) override {
    ScopedSpan span(tracer_, "CorrelationIndex::ApplyPeriod", "serve");
    ApplySample s;
    s.start_ns = NowNs();
    index_->ApplyPeriod(period_end, estimates);
    s.end_ns = NowNs();
    s.boundary_ns = ingest_->BoundaryNs(period_end);
    s.estimates = estimates.size();
    samples_.push_back(s);
  }

  const std::vector<ApplySample>& samples() const { return samples_; }

 private:
  serve::CorrelationIndex* index_;
  const IngestState* ingest_;
  Tracer* tracer_;
  std::vector<ApplySample> samples_;
};

// ------------------------------------------------------- query generator

/// Query keys taken from a post-warm-up wire Snapshot: tags ranked by the
/// strongest set they occur in, and the sets themselves in coefficient
/// order. Zipf(1) over ranks picks a key.
struct QueryKeys {
  std::vector<TagId> tags;
  std::vector<TagSet> sets;
  std::vector<double> tag_cdf;
  std::vector<double> set_cdf;
};

std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

QueryKeys KeysFromSnapshot(const std::vector<serve::ScoredSet>& snapshot) {
  constexpr size_t kMaxKeys = 10000;
  QueryKeys keys;
  std::unordered_set<TagId> seen;
  for (const serve::ScoredSet& s : snapshot) {
    if (keys.sets.size() < kMaxKeys) keys.sets.push_back(s.tags);
    for (const TagId tag : s.tags) {
      if (keys.tags.size() < kMaxKeys && seen.insert(tag).second) {
        keys.tags.push_back(tag);
      }
    }
  }
  keys.tag_cdf = ZipfCdf(keys.tags.size());
  keys.set_cdf = ZipfCdf(keys.sets.size());
  return keys;
}

size_t ZipfPick(const std::vector<double>& cdf, std::mt19937_64& rng) {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  return static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin());
}

// Tag ids this far up are never assigned within one run's dictionary.
constexpr TagId kMissTagBase = 3'000'000'000u;

struct QueryStats {
  std::vector<int64_t> due_ns;      ///< When each request was due.
  std::vector<int64_t> latency_ns;  ///< From due time; failures = timeout.
  std::vector<int64_t> late_ns;     ///< Harness delay before sending.
  std::vector<int64_t> rtt_ns;      ///< Wire send -> response.
  uint64_t attempted = 0;
  uint64_t errors = 0;  ///< Error frames, overload, deadline, I/O failures.
  int64_t cpu_ns = 0;   ///< CPU time of the generator thread.
};

/// Open loop: request i is due at start + i / rate whatever the server
/// does. All requests due when the connection is free go out as one
/// pipelined burst; latency counts from each request's due time.
void RunQueryGenerator(uint16_t port, const Workload& w, const QueryKeys& keys,
                       uint64_t seed, const std::atomic<bool>& done,
                       Tracer* tracer, QueryStats* stats) {
  net::ClientConfig config;
  config.io_timeout_ms = kClientTimeoutMs;
  config.connect_timeout_ms = kClientTimeoutMs;
  net::Client client(config);
  client.Connect("127.0.0.1", port);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int64_t interval = static_cast<int64_t>(1e9 / w.query_rate);
  const int64_t start = NowNs();
  int64_t free_since = start;
  uint64_t next = 0;
  std::vector<int64_t> dues;
  std::vector<net::Response> responses;
  while (!done.load(std::memory_order_acquire)) {
    int64_t now = NowNs();
    const int64_t first_due = start + static_cast<int64_t>(next) * interval;
    if (first_due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(first_due - now));
      now = NowNs();
    }
    dues.clear();
    while (dues.size() < 256 &&
           start + static_cast<int64_t>(next) * interval <= now) {
      dues.push_back(start + static_cast<int64_t>(next) * interval);
      ++next;
      const double op = unit(rng);
      const bool miss = unit(rng) < w.miss_frac;
      if (op < w.frac_snapshot) {
        client.QueueSnapshot(0.5, 100);
      } else if (op < w.frac_snapshot + w.frac_lookup) {
        if (miss || keys.sets.empty()) {
          client.QueueLookup(TagSet({kMissTagBase, kMissTagBase + 1}));
        } else {
          client.QueueLookup(keys.sets[ZipfPick(keys.set_cdf, rng)]);
        }
      } else {
        const TagId tag = miss || keys.tags.empty()
                              ? kMissTagBase
                              : keys.tags[ZipfPick(keys.tag_cdf, rng)];
        client.QueueTopCorrelated(tag, 10);
      }
    }
    const int64_t send = NowNs();
    bool ok = false;
    {
      ScopedSpan span(tracer, "net::Client::Flush", "net");
      ok = client.connected() && client.Flush(&responses);
    }
    const int64_t recv = NowNs();
    for (size_t i = 0; i < dues.size(); ++i) {
      ++stats->attempted;
      stats->due_ns.push_back(dues[i]);
      stats->late_ns.push_back(send - std::max(dues[i], free_since));
      const bool failed = !ok || responses[i].op == net::Opcode::kError;
      if (failed) {
        ++stats->errors;
        stats->latency_ns.push_back(
            std::max(kFailedLatencyNs, recv - dues[i]));
      } else {
        stats->latency_ns.push_back(recv - dues[i]);
        stats->rtt_ns.push_back(recv - send);
      }
    }
    free_since = recv;
    if (!ok) {
      client.Close();
      client.Connect("127.0.0.1", port);
    }
  }
  stats->cpu_ns = ThreadCpuNs();
}

// ------------------------------------------------------------ one system

enum class Pass { kSetupOnly, kMeasure };

struct RunResult {
  bool ok = false;
  std::string error;
  double setup_s = 0.0;
  uint64_t docs_at_setup_end = 0;  ///< Spout position when set-up ended.
  // Timed window.
  uint64_t docs_in_window = 0;
  double window_s = 0.0;
  double ingest_docs_per_s = 0.0;
  double cpu_us_per_doc = 0.0;
  std::vector<int64_t> publish_lag_at_ns;
  std::vector<int64_t> publish_lag_ns;
  std::vector<int64_t> apply_ns;
  uint64_t apply_calls = 0;
  uint64_t estimates_applied = 0;
  QueryStats queries;
  std::vector<int64_t> doc_late_ns;
  int64_t peak_rss_kb = 0;
  double host_steal_pct = 0.0;  ///< Host CPU steal over the timed window.
  double run_s = 0.0;
  // Layers.
  stream::RuntimeStats stats;
  std::map<std::string, uint64_t> tuples;
  uint64_t docs_fed = 0;
  double covered_frac = 0.0;
  double avg_com = 0.0;
  double max_load = 0.0;
  uint64_t installs = 0;
  uint64_t single_additions = 0;
  uint64_t epochs = 0;
  uint64_t total_sets = 0;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_bytes = 0;
  std::vector<int64_t> checkpoint_pause_ns;
  double restore_s = 0.0;
  // Correctness.
  std::map<std::string, bool> checks;
  double answer_recall = 0.0;
  uint64_t serve_lookups_checked = 0;
  uint64_t serve_mismatches = 0;
  uint64_t wire_checked = 0;
  uint64_t wire_mismatches = 0;
};

bool SameScored(const std::vector<serve::ScoredSet>& a,
                const std::vector<serve::ScoredSet>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].tags == b[i].tags) || a[i].period_end != b[i].period_end ||
        std::memcmp(&a[i].coefficient, &b[i].coefficient, sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

bool SameLookup(const std::optional<serve::LookupResult>& a,
                const std::optional<serve::LookupResult>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return std::memcmp(&a->coefficient, &b->coefficient, sizeof(double)) == 0 &&
         a->intersection_count == b->intersection_count &&
         a->union_count == b->union_count &&
         a->period_end == b->period_end && a->epoch == b->epoch;
}

/// The exp driver's serve_mismatches relation: every served entry equals
/// the Tracker's entry for its period, and the newest period is served
/// completely.
void CheckIndexAgainstTracker(const serve::CorrelationIndex& index,
                              const ops::TrackerBolt& tracker,
                              RunResult* r) {
  const serve::CorrelationIndex::Reader reader = index.NewReader();
  std::vector<serve::ScoredSet> served;
  reader.Snapshot(0.0, &served);
  for (const serve::ScoredSet& scored : served) {
    ++r->serve_lookups_checked;
    const std::optional<serve::LookupResult> lookup =
        reader.Lookup(scored.tags);
    const auto period_it = tracker.periods().find(scored.period_end);
    if (!lookup.has_value() || period_it == tracker.periods().end()) {
      ++r->serve_mismatches;
      continue;
    }
    const auto entry = period_it->second.find(scored.tags);
    if (entry == period_it->second.end() ||
        entry->second.coefficient != lookup->coefficient ||
        entry->second.intersection_count != lookup->intersection_count ||
        entry->second.union_count != lookup->union_count) {
      ++r->serve_mismatches;
    }
  }
  if (tracker.periods().empty()) return;
  const auto& [newest, results] = *tracker.periods().rbegin();
  for (const auto& [tags, estimate] : results) {
    if (tags.size() < 2) continue;
    ++r->serve_lookups_checked;
    const std::optional<serve::LookupResult> lookup = reader.Lookup(tags);
    if (!lookup.has_value() || lookup->period_end != newest ||
        lookup->coefficient != estimate.coefficient ||
        lookup->intersection_count != estimate.intersection_count ||
        lookup->union_count != estimate.union_count) {
      ++r->serve_mismatches;
    }
  }
}

/// A seeded sample of wire answers on the final epoch must be bit-identical
/// to direct Reader calls.
void CheckWireAgainstReader(const serve::CorrelationIndex& index,
                            uint16_t port, uint64_t seed, RunResult* r) {
  const serve::CorrelationIndex::Reader reader = index.NewReader();
  std::vector<serve::ScoredSet> all;
  reader.Snapshot(0.0, &all);
  net::ClientConfig config;
  config.io_timeout_ms = kClientTimeoutMs;
  net::Client client(config);
  if (all.empty() || !client.Connect("127.0.0.1", port)) {
    r->wire_mismatches = 1;
    return;
  }
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  std::vector<serve::ScoredSet> wire;
  std::vector<serve::ScoredSet> direct;
  for (int i = 0; i < kWireSampleRequests; ++i) {
    const serve::ScoredSet& pick = all[rng() % all.size()];
    bool same = false;
    if (i % 40 == 39) {
      same = client.Snapshot(0.3, 200, &wire);
      reader.Snapshot(0.3, &direct);
      if (direct.size() > 200) direct.resize(200);
      same = same && SameScored(wire, direct);
    } else if (i % 2 == 0) {
      const TagId tag = pick.tags[rng() % pick.tags.size()];
      same = client.TopCorrelated(tag, 10, &wire);
      reader.TopCorrelated(tag, 10, &direct);
      same = same && SameScored(wire, direct);
    } else {
      std::optional<serve::LookupResult> wire_lookup;
      same = client.Lookup(pick.tags, &wire_lookup) &&
             SameLookup(wire_lookup, reader.Lookup(pick.tags));
    }
    ++r->wire_checked;
    if (!same) ++r->wire_mismatches;
  }
}

struct RunContext {
  const Plan* plan;
  const Corpus* corpus;
  const Oracle* oracle;
  uint64_t seed;
  Tracer* tracer;                         ///< Null when untraced.
  telemetry::MetricRegistry* registry;    ///< Server registry (traced).
  int rep;
};

/// Builds the system (index, server, topology, runtime), runs ingest until
/// a wire client sees the first served answer (set-up), then either tears
/// down (kSetupOnly) or measures the rest of the corpus (kMeasure).
RunResult RunSystem(const RunContext& ctx, Pass pass) {
  const Plan& plan = *ctx.plan;
  const Workload& w = *plan.w;
  Tracer* tracer = ctx.tracer;
  RunResult r;
  ops::PipelineConfig config = plan.pipeline;

  IngestState ingest(ctx.corpus, config.report_period);
  ingest.pace_interval_ns = static_cast<int64_t>(1e9 / w.doc_rate);
  ingest.pace_from = w.warm_docs;
  for (const uint64_t cut : plan.cuts) {
    ingest.watch_positions.push_back(cut - 1);
    ingest.watch_positions.push_back(cut + 1);
  }
  ingest.watch_ns.assign(ingest.watch_positions.size(), 0);
  ingest.doc_late_ns.reserve(ctx.corpus->tweets.size() / kLateSampleEvery + 1);
  CountingMetrics metrics(config.EffectiveMaxCalculators(), tracer);

  const int64_t t0 = NowNs();
  serve::ServeConfig serve_config;
  serve_config.merge = config.tracker_merge;
  serve::CorrelationIndex index(serve_config);
  if (ctx.registry != nullptr) index.AttachTelemetry(ctx.registry);
  TimedIndexSink sink(&index, &ingest, tracer);
  net::ServerConfig server_config;
  server_config.num_net_threads = w.net_threads;
  server_config.num_reader_threads = w.reader_threads;
  server_config.registry = ctx.registry;
  net::Server server(&index, server_config);
  {
    ScopedSpan span(tracer, "Server::Start", "net");
    if (!server.Start(&r.error)) return r;
  }

  std::unique_ptr<stream::Topology<ops::Message>> topology;
  std::unique_ptr<stream::Runtime<ops::Message>> runtime;
  ops::TopologyHandles handles;
  ops::CheckpointedRun checkpointed;
  std::atomic<bool> restored{false};
  std::atomic<uint64_t> restored_epoch{0};
  std::atomic<int64_t> restore_end_ns{0};
  std::atomic<bool> ingest_done{false};
  bool ingest_ok = true;
  int64_t run_start = 0;
  int64_t run_end = 0;
  uint64_t ingest_span = 0;  // Span of the thread that drives the spout.
  std::string ingest_error;
  std::thread ingest_thread;
  if (!w.checkpointed) {
    topology = std::make_unique<stream::Topology<ops::Message>>();
    {
      ScopedSpan span(tracer, "BuildCorrelationTopology", "ops");
      handles = ops::BuildCorrelationTopology(
          topology.get(), std::make_unique<CorpusSpout>(&ingest, tracer),
          config, &metrics, /*with_centralized_baseline=*/false, &sink);
    }
    {
      ScopedSpan span(tracer, "MakeConfiguredRuntime", "stream");
      runtime = ops::MakeConfiguredRuntime(topology.get(), config);
    }
    ingest_thread = std::thread([&] {
      ScopedSpan span(tracer, "Runtime::Run", "stream");
      if (tracer != nullptr) tracer->set_cross_thread_parent(span.id());
      ingest_span = span.id();
      run_start = NowNs();
      runtime->Run(config.report_period);
      run_end = NowNs();
      ingest_done.store(true, std::memory_order_release);
    });
  } else {
    ops::CheckpointRunnerOptions options;
    options.restore_uri = kPrepUri;
    options.checkpoint_uri =
        "mem://perfbench/run" + std::to_string(ctx.rep);
    options.every_docs = plan.checkpoint_every;
    options.export_serve = [&index](std::string* out) {
      index.ExportState(out);
    };
    options.restore_serve = [&](std::string_view blob) {
      const bool ok = index.RestoreState(blob);
      restored_epoch.store(index.epoch());
      restore_end_ns.store(NowNs());
      restored.store(true, std::memory_order_release);
      return ok;
    };
    ingest_thread = std::thread([&, options] {
      // The runner drives each segment's runtime on this thread; its cuts
      // are recorded as storage spans below.
      ScopedSpan span(tracer, "RunCheckpointedPipeline", "stream");
      if (tracer != nullptr) tracer->set_cross_thread_parent(span.id());
      ingest_span = span.id();
      run_start = NowNs();
      ingest_ok = ops::RunCheckpointedPipeline(
          std::make_unique<CorpusSpout>(&ingest, tracer), config, options,
          &metrics, /*with_centralized_baseline=*/false, &sink,
          /*baseline_sink=*/nullptr, config.report_period, &checkpointed,
          &ingest_error);
      run_end = NowNs();
      ingest_done.store(true, std::memory_order_release);
    });
  }
  auto finish = [&](const std::string& error) {
    ingest.stop.store(true);
    if (ingest_thread.joinable()) ingest_thread.join();
    server.Stop();
    r.error = error;
    return r;
  };

  // Set-up ends when a wire client first sees a served answer: epoch > 0,
  // or for a restored pipeline an epoch newer than the restored one.
  net::ClientConfig probe_config;
  probe_config.io_timeout_ms = kClientTimeoutMs;
  net::Client probe(probe_config);
  const int64_t deadline = t0 + 60'000'000'000LL;
  for (;;) {
    if (NowNs() > deadline) return finish("set-up did not serve in 60 s");
    if (ingest_done.load(std::memory_order_acquire)) {
      return finish("stream ended before the first served answer: " +
                    ingest_error);
    }
    if (!probe.connected() && !probe.Connect("127.0.0.1", server.port())) {
      continue;
    }
    net::StatsResult stats;
    if (!probe.Stats(&stats)) continue;
    const bool fresh =
        w.checkpointed
            ? restored.load(std::memory_order_acquire) &&
                  stats.epoch > restored_epoch.load()
            : stats.epoch > 0;
    if (fresh) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int64_t ready = NowNs();
  r.setup_s = static_cast<double>(ready - t0) / 1e9;
  r.docs_at_setup_end = ingest.pulled.load(std::memory_order_acquire);
  if (w.checkpointed) {
    r.restore_s = static_cast<double>(restore_end_ns.load() - t0) / 1e9;
  }
  if (pass == Pass::kSetupOnly) {
    finish("");
    r.ok = true;
    return r;
  }

  std::vector<serve::ScoredSet> snapshot;
  probe.Snapshot(0.0, 0, &snapshot);
  const QueryKeys keys = KeysFromSnapshot(snapshot);

  // ---------------------------------------------------- timed window
  // It starts when the spout reaches the end of the warm-up and pacing
  // begins.
  while (ingest.pace_origin_ns.load(std::memory_order_acquire) == 0) {
    if (ingest_done.load(std::memory_order_acquire)) {
      return finish("stream ended inside the warm-up: " + ingest_error);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const int64_t window_start = ingest.pace_origin_ns.load();
  const uint64_t n0 = w.warm_docs;
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t steal0 = StealTicks();
  const int64_t total0 = TotalTicks();
  std::thread query_thread(RunQueryGenerator, server.port(), std::cref(w),
                           std::cref(keys), ctx.seed, std::cref(ingest.exhausted),
                           tracer, &r.queries);
  ingest_thread.join();
  query_thread.join();
  const int64_t cpu1 = ProcessCpuNs();
  r.peak_rss_kb = ReadStatusKb("VmHWM");
  if (steal0 >= 0 && TotalTicks() > total0) {
    r.host_steal_pct = 100.0 * static_cast<double>(StealTicks() - steal0) /
                       static_cast<double>(TotalTicks() - total0);
  }
  if (!ingest_ok) {
    server.Stop();
    r.error = "checkpointed run failed: " + ingest_error;
    return r;
  }
  if (w.checkpointed) {
    runtime = std::move(checkpointed.runtime);
    topology = std::move(checkpointed.topology);
    handles = checkpointed.handles;
  }

  const int64_t last_pull = ingest.last_pull_ns.load();
  r.docs_in_window = ctx.corpus->tweets.size() - n0;
  r.window_s = static_cast<double>(last_pull - window_start) / 1e9;
  r.ingest_docs_per_s =
      r.window_s > 0 ? static_cast<double>(r.docs_in_window) / r.window_s : 0;
  // The query generator is the harness; every other thread is the program.
  r.cpu_us_per_doc = static_cast<double>(cpu1 - cpu0 - r.queries.cpu_ns) /
                     1e3 / static_cast<double>(r.docs_in_window);
  r.run_s = static_cast<double>(run_end - run_start) / 1e9;
  for (const ApplySample& s : sink.samples()) {
    r.apply_ns.push_back(s.end_ns - s.start_ns);
    r.estimates_applied += s.estimates;
    // Periods flushed after end of stream have no boundary crossing (0);
    // boundaries crossed in the warm-up are not timed.
    if (s.boundary_ns >= window_start) {
      r.publish_lag_at_ns.push_back(s.end_ns);
      r.publish_lag_ns.push_back(s.end_ns - s.boundary_ns);
    }
  }
  r.apply_calls = sink.samples().size();
  r.doc_late_ns = std::move(ingest.doc_late_ns);
  for (size_t i = 0; i + 1 < ingest.watch_ns.size(); i += 2) {
    const int64_t before = ingest.watch_ns[i];
    const int64_t after = ingest.watch_ns[i + 1];
    if (before == 0 || after == 0) continue;
    r.checkpoint_pause_ns.push_back(after - before);
    // The spout's stall around a cut is the runner's checkpoint work on the
    // spout thread (drain, capture, encode, write, rebuild).
    if (tracer != nullptr) {
      tracer->Record("checkpoint cut (spout stall)", "storage", before, after,
                     ingest_span);
    }
  }
  if (tracer != nullptr) {
    // Sum of the spout's pacing sleeps and its hold after the warm-up: time
    // the spout thread was idle, not working for any layer.
    tracer->Record("Spout pacing sleep (sum)", "idle", run_start,
                   run_start + ingest.idle_ns, ingest_span);
  }
  if (w.checkpointed) {
    r.checkpoints_written = checkpointed.stats.checkpoints_written;
    r.checkpoint_bytes = checkpointed.stats.checkpoint_bytes;
  }

  // A checkpointed run rebuilds its runtime per segment; what is left here
  // is the final drain segment's.
  {
    ScopedSpan span(tracer, "Runtime::stats", "stream");
    r.stats = runtime->stats();
  }
  {
    ScopedSpan span(tracer, "Runtime::TuplesDelivered", "stream");
    const std::pair<const char*, int> components[] = {
        {"parser", handles.parser},
        {"partitioner", handles.partitioner},
        {"merger", handles.merger},
        {"disseminator", handles.disseminator},
        {"calculator", handles.calculator},
        {"tracker", handles.tracker}};
    for (const auto& [name, id] : components) {
      r.tuples[name] = runtime->TuplesDelivered(id);
    }
  }
  r.covered_frac = metrics.covered_frac();
  r.avg_com = metrics.avg_com();
  r.max_load = metrics.max_load();
  r.installs = metrics.installs();
  r.single_additions = metrics.single_additions();
  const serve::CorrelationIndex::Reader reader = index.NewReader();
  r.epochs = index.epoch();
  r.total_sets = reader.TotalSets();

  // ------------------------------------------------ correctness gate
  // Every document fed reached the Parser. A checkpointed run rebuilds its
  // runtime per segment, so there the runner's stream position is checked.
  r.docs_fed = ctx.corpus->tweets.size();
  r.checks["parser_tuples_equal_docs_fed"] =
      w.checkpointed ? checkpointed.docs_ingested == r.docs_fed
                     : r.tuples["parser"] == r.docs_fed;
  const auto* tracker =
      static_cast<const ops::TrackerBolt*>(runtime->bolt(handles.tracker, 0));
  CheckIndexAgainstTracker(index, *tracker, &r);
  r.checks["index_equals_tracker"] =
      r.serve_mismatches == 0 && r.serve_lookups_checked > 0;
  CheckWireAgainstReader(index, server.port(), ctx.seed, &r);
  r.checks["wire_equals_reader"] = r.wire_mismatches == 0;
  r.checks["installs_equal_schedule"] = r.installs == plan.expected_installs;
  r.answer_recall = AnswerRecall(*ctx.oracle, *tracker);

  server.Stop();
  r.ok = true;
  return r;
}

/// Writes the pipeline's prep checkpoint that checkpoint_ingest restores:
/// the corpus prefix up to checkpoint_from, cut once, untimed.
bool WritePrepCheckpoint(const Plan& plan, const Corpus& corpus,
                         std::string* error) {
  Corpus prefix;
  prefix.tweets.assign(corpus.tweets.begin(),
                       corpus.tweets.begin() +
                           static_cast<ptrdiff_t>(plan.checkpoint_from + 1));
  IngestState ingest(&prefix, plan.pipeline.report_period);
  serve::ServeConfig serve_config;
  serve_config.merge = plan.pipeline.tracker_merge;
  serve::CorrelationIndex index(serve_config);
  TimedIndexSink sink(&index, &ingest, nullptr);
  ops::CheckpointRunnerOptions options;
  options.checkpoint_uri = kPrepUri;
  options.every_docs = plan.checkpoint_from;
  options.export_serve = [&index](std::string* out) {
    index.ExportState(out);
  };
  ops::CheckpointedRun run;
  if (!ops::RunCheckpointedPipeline(
          std::make_unique<CorpusSpout>(&ingest, nullptr), plan.pipeline,
          options, nullptr, false, &sink, nullptr, 0, &run, error)) {
    return false;
  }
  if (run.stats.checkpoints_written != 1) {
    *error = "prep checkpoint was not written";
    return false;
  }
  return true;
}

/// Single-threaded stream-processing baseline: the same corpus and config
/// on SimulationRuntime, unpaced and without the serving index, docs/s from
/// the first Tracker report on.
double SimBaselineDocsPerS(const Plan& plan, const Corpus& corpus) {
  ops::PipelineConfig config = plan.pipeline;
  config.runtime = stream::RuntimeKind::kSimulation;
  IngestState ingest(&corpus, config.report_period);
  struct FirstReport : public ops::PeriodSink {
    const IngestState* ingest = nullptr;
    uint64_t docs = 0;
    int64_t ns = 0;
    void OnPeriodResults(Timestamp,
                         const std::vector<JaccardEstimate>& e) override {
      if (ns == 0 && !e.empty()) {
        docs = ingest->pulled.load();
        ns = NowNs();
      }
    }
  } sink;
  sink.ingest = &ingest;
  stream::Topology<ops::Message> topology;
  ops::BuildCorrelationTopology(&topology,
                                std::make_unique<CorpusSpout>(&ingest, nullptr),
                                config, nullptr, false, &sink);
  auto runtime = ops::MakeConfiguredRuntime(&topology, config);
  runtime->Run(config.report_period);
  const double s =
      static_cast<double>(ingest.last_pull_ns.load() - sink.ns) / 1e9;
  return s > 0 ? static_cast<double>(corpus.tweets.size() - sink.docs) / s
               : 0.0;
}

// --------------------------------------------------------------- output

class JsonObject {
 public:
  void Number(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void String(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void Metric(JsonObject* metrics, const std::string& name, double value,
            const char* unit) {
  JsonObject m;
  m.Number("value", value);
  m.String("unit", unit);
  metrics->Raw(name, m.str());
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

uint64_t CounterValue(const telemetry::MetricsSnapshot& snap,
                      std::string_view prefix) {
  uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (std::string_view(c.name).substr(0, prefix.size()) == prefix) {
      total += c.value;
    }
  }
  return total;
}

double HistogramP50(const telemetry::MetricsSnapshot& snap,
                    std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return static_cast<double>(h.hist.ValueAtQuantile(0.5));
  }
  return 0.0;
}

double ErrorFrac(const QueryStats& q) {
  return q.attempted == 0 ? 0.0 : static_cast<double>(q.errors) /
                                      static_cast<double>(q.attempted);
}

/// The gated end-to-end metrics. publish_lag_ms_p90 and query_p99_us go to
/// the run context instead: readers free superseded index snapshots on the
/// query path, and both tails moved by up to 2x between seeds at a fixed
/// load. So does ingest_docs_per_s: under open-loop pacing it is the offered
/// rate; the program's ingest cost at that rate is cpu_us_per_doc.
/// query_ok_frac is 1 - query_error_frac, so the gated value is never zero.
void AddEndToEnd(JsonObject* m, const RunResult& r, double setup_s,
                 double peak_rss_mb) {
  Metric(m, "setup_s", setup_s, "s");
  Metric(m, "cpu_us_per_doc", r.cpu_us_per_doc, "us/doc");
  Metric(m, "publish_lag_ms_p50",
         WindowedMedianNs(r.publish_lag_at_ns, r.publish_lag_ns,
                          kMedianWindowNs, 1e6),
         "ms");
  Metric(m, "query_p50_us",
         WindowedMedianNs(r.queries.due_ns, r.queries.latency_ns,
                          kMedianWindowNs, 1e3),
         "us");
  Metric(m, "query_ok_frac", 1.0 - ErrorFrac(r.queries), "ratio");
  Metric(m, "answer_recall", r.answer_recall, "ratio");
  Metric(m, "peak_rss_mb", peak_rss_mb, "MiB");
}

void AddPerLayer(JsonObject* m, const RunResult& r,
                 const telemetry::MetricsSnapshot& registry,
                 const std::map<std::string, double>& self_ms,
                 double sim_docs_per_s, double overhead_pct) {
  const stream::RuntimeStats& s = r.stats;
  const double docs = static_cast<double>(std::max<uint64_t>(1, r.docs_fed));
  Metric(m, "stream.envelopes_per_doc",
         static_cast<double>(s.envelopes_moved) / docs, "envelopes/doc");
  Metric(m, "stream.steals", static_cast<double>(s.steals), "count");
  Metric(m, "stream.queue_full_blocks",
         static_cast<double>(s.queue_full_blocks), "count");
  Metric(m, "stream.max_queue_depth", static_cast<double>(s.max_queue_depth),
         "envelopes");
  Metric(m, "stream.stall_escapes", static_cast<double>(s.stall_escapes),
         "count");
  Metric(m, "stream.payload_copies", static_cast<double>(s.payload_copies),
         "count");
  // Payload blocks allocated ~= deliveries that did not share a block.
  const uint64_t allocations =
      s.envelopes_moved > s.payload_shares ? s.envelopes_moved - s.payload_shares
                                           : 0;
  Metric(m, "stream.arena_reuse_frac",
         allocations == 0 ? 0.0
                          : static_cast<double>(s.arena_reuses) /
                                static_cast<double>(allocations),
         "ratio");
  Metric(m, "stream.run_s", r.run_s, "s");
  for (const auto& [name, tuples] : r.tuples) {
    Metric(m, "ops." + name + ".tuples", static_cast<double>(tuples), "count");
  }
  Metric(m, "ops.disseminator.covered_frac", r.covered_frac, "ratio");
  Metric(m, "ops.disseminator.avg_com", r.avg_com, "calculators/doc");
  Metric(m, "ops.calculator.max_load", r.max_load, "ratio");
  Metric(m, "ops.merger.installs", static_cast<double>(r.installs), "count");
  Metric(m, "ops.single_additions", static_cast<double>(r.single_additions),
         "count");
  Metric(m, "serve.apply_us_p50", QuantileNs(r.apply_ns, 0.5, 1e3), "us");
  Metric(m, "serve.apply_us_p99", QuantileNs(r.apply_ns, 0.99, 1e3), "us");
  Metric(m, "serve.apply_calls", static_cast<double>(r.apply_calls), "count");
  Metric(m, "serve.estimates_per_apply",
         r.apply_calls == 0 ? 0.0
                            : static_cast<double>(r.estimates_applied) /
                                  static_cast<double>(r.apply_calls),
         "count");
  Metric(m, "serve.epochs", static_cast<double>(r.epochs), "count");
  Metric(m, "serve.total_sets", static_cast<double>(r.total_sets), "count");
  Metric(m, "net.rtt_us_p50", QuantileNs(r.queries.rtt_ns, 0.5, 1e3), "us");
  Metric(m, "net.rtt_us_p99", QuantileNs(r.queries.rtt_ns, 0.99, 1e3), "us");
  for (const char* stage : {"decode", "queue", "execute", "flush"}) {
    Metric(m, std::string("net.stage_ns.") + stage + "_p50",
           HistogramP50(registry, std::string("corrtrack_net_stage_ns{stage=\"") +
                                      stage + "\"}"),
           "ns");
  }
  Metric(m, "serve.query_exec_ns_p50",
         HistogramP50(registry, "corrtrack_serve_query_ns{op=\"top\"}"), "ns");
  const uint64_t batches = CounterValue(registry, "corrtrack_net_batches_total");
  Metric(m, "net.requests_per_batch",
         batches == 0 ? 0.0
                      : static_cast<double>(CounterValue(
                            registry, "corrtrack_net_requests_total")) /
                            static_cast<double>(batches),
         "count");
  Metric(m, "net.shed_total",
         static_cast<double>(
             CounterValue(registry, "corrtrack_net_shed_requests_total")),
         "count");
  // Only checkpoint_ingest touches storage; elsewhere these stay 0.
  Metric(m, "storage.checkpoints_written",
         static_cast<double>(r.checkpoints_written), "count");
  Metric(m, "storage.checkpoint_bytes", static_cast<double>(r.checkpoint_bytes),
         "bytes");
  Metric(m, "storage.checkpoint_pause_ms_p50",
         QuantileNs(r.checkpoint_pause_ns, 0.5, 1e6), "ms");
  Metric(m, "storage.restore_s", r.restore_s, "s");
  Metric(m, "gen.doc_late_ms_p99", QuantileNs(r.doc_late_ns, 0.99, 1e6), "ms");
  Metric(m, "gen.query_late_ms_p99", QuantileNs(r.queries.late_ns, 0.99, 1e6),
         "ms");
  Metric(m, "stream.sim_baseline_docs_per_s", sim_docs_per_s, "docs/s");
  Metric(m, "trace.overhead_pct", overhead_pct, "%");
  for (const char* layer : {"gen", "stream", "ops", "serve", "net", "storage"}) {
    const auto it = self_ms.find(layer);
    Metric(m, std::string("trace.self_ms.") + layer,
           it == self_ms.end() ? 0.0 : it->second, "ms");
  }
}

struct Validity {
  bool valid = true;
  double doc_late_ms_p99 = 0.0;
  double query_late_ms_p99 = 0.0;
  size_t setups_past_warmup = 0;
};

/// A run whose generators fell behind their own bound measured the harness.
/// So did a set-up that outlasted the unpaced warm-up: it waited for paced
/// documents. Such set-ups are rare and the slowest, so the reported median
/// set-up measured the program unless they are the majority. Traced runs
/// report no setup_s.
Validity CheckValidity(const RunResult& r,
                       const std::vector<uint64_t>& setup_docs,
                       uint64_t warm_docs, bool traced) {
  Validity v;
  v.setups_past_warmup = static_cast<size_t>(
      std::count_if(setup_docs.begin(), setup_docs.end(),
                    [&](uint64_t docs) { return docs >= warm_docs; }));
  if (!traced && 2 * v.setups_past_warmup >= setup_docs.size()) {
    v.valid = false;
  }
  v.doc_late_ms_p99 = QuantileNs(r.doc_late_ns, 0.99, 1e6);
  v.query_late_ms_p99 = QuantileNs(r.queries.late_ns, 0.99, 1e6);
  if (v.doc_late_ms_p99 > kLatenessBoundMs) v.valid = false;
  if (v.query_late_ms_p99 > kLatenessBoundMs) v.valid = false;
  return v;
}

std::string Context(const Options& o, const Plan& plan, const Corpus& corpus,
                    double corpus_build_s, const RunResult& r,
                    const Validity& v, const std::vector<double>& setups,
                    const std::vector<uint64_t>& setup_docs,
                    size_t oracle_sets) {
  const Workload& w = *plan.w;
  JsonObject c;
  c.String("workload", w.name);
  c.Number("seed", static_cast<double>(o.seed));
  c.Number("seconds", o.seconds);
  c.String("build_type", PERFBENCH_BUILD_TYPE);
  c.Number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  JsonObject threads;
  threads.Number("pool_workers", w.pool_threads);
  threads.Number("spout_driver", 1);
  threads.Number("net_threads", w.net_threads);
  threads.Number("reader_threads", w.reader_threads);
  threads.Number("query_generators", 1);
  threads.Number("query_connections", 1);
  c.Raw("thread_budget", threads.str());
  c.Number("offered_doc_rate", w.doc_rate);
  c.Number("offered_query_rate", w.query_rate);
  JsonObject mix;
  mix.Number("top_correlated_k10",
             1.0 - w.frac_lookup - w.frac_snapshot);
  mix.Number("lookup", w.frac_lookup);
  mix.Number("snapshot", w.frac_snapshot);
  mix.Number("miss", w.miss_frac);
  c.Raw("query_mix", mix.str());
  JsonObject cp;
  cp.Number("docs", static_cast<double>(corpus.tweets.size()));
  cp.Number("distinct_tags", static_cast<double>(corpus.distinct_tags));
  cp.Number("mean_tags_per_doc", corpus.mean_tags_per_doc());
  cp.Number("fresh_tag_share", corpus.fresh_tag_share());
  cp.Number("build_s", corpus_build_s);
  c.Raw("corpus", cp.str());
  c.Number("report_period_ms", static_cast<double>(w.report_period));
  c.Number("installs_expected", static_cast<double>(plan.expected_installs));
  c.Number("installs", static_cast<double>(r.installs));
  std::string setup_list = "[";
  for (size_t i = 0; i < setups.size(); ++i) {
    setup_list += (i == 0 ? "" : ",") + std::to_string(setups[i]);
  }
  c.Raw("setup_s_reps", setup_list + "]");
  std::string docs_list = "[";
  for (size_t i = 0; i < setup_docs.size(); ++i) {
    docs_list += (i == 0 ? "" : ",") + std::to_string(setup_docs[i]);
  }
  c.Raw("docs_at_setup_end", docs_list + "]");
  c.Number("warm_docs", static_cast<double>(w.warm_docs));
  c.Number("setups_past_warmup", static_cast<double>(v.setups_past_warmup));
  c.Number("docs_in_window", static_cast<double>(r.docs_in_window));
  c.Number("window_s", r.window_s);
  c.Number("queries_attempted", static_cast<double>(r.queries.attempted));
  // Reported but not gated: their run-to-run spread on this program is
  // wider than any bound the benchmark may set (see AddEndToEnd).
  JsonObject tails;
  Metric(&tails, "ingest_docs_per_s", r.ingest_docs_per_s, "docs/s");
  Metric(&tails, "publish_lag_ms_p90", QuantileNs(r.publish_lag_ns, 0.9, 1e6),
         "ms");
  Metric(&tails, "query_p99_us", QuantileNs(r.queries.latency_ns, 0.99, 1e3),
         "us");
  Metric(&tails, "query_error_frac", ErrorFrac(r.queries), "ratio");
  c.Raw("ungated_metrics", tails.str());
  c.Number("publish_lag_samples", static_cast<double>(r.publish_lag_ns.size()));
  c.Number("oracle_sets", static_cast<double>(oracle_sets));
  c.Number("serve_lookups_checked", static_cast<double>(r.serve_lookups_checked));
  c.Number("wire_requests_checked", static_cast<double>(r.wire_checked));
  c.Number("doc_late_ms_p99", v.doc_late_ms_p99);
  c.Number("query_late_ms_p99", v.query_late_ms_p99);
  c.Number("lateness_bound_ms", kLatenessBoundMs);
  c.Number("host_steal_pct", r.host_steal_pct);
  c.Bool("valid", v.valid);
  return c.str();
}

bool AllChecksPass(const RunResult& r) {
  for (const auto& [name, ok] : r.checks) {
    if (!ok) return false;
  }
  return !r.checks.empty();
}

std::string ChecksJson(const RunResult& r) {
  JsonObject c;
  for (const auto& [name, ok] : r.checks) c.Bool(name, ok);
  return c.str();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_e2e: %s\n", message.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--oracle") {
      o.oracle_only = true;
      continue;
    }
    if (i + 1 >= argc) return Fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--cache-dir") {
      o.cache_dir = value;
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return Fail(std::string("refusing a non-Release build (") +
                PERFBENCH_BUILD_TYPE + ")");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Fail("unknown workload '" + o.workload + "'");
  if (o.seconds < 1 || o.seconds > 60) return Fail("--seconds out of range");
  if (o.cache_dir.empty()) return Fail("--cache-dir is required");
  const Plan plan = MakePlan(*workload, o);

  if (o.oracle_only) {
    if (std::ifstream(plan.oracle_path).good()) return 0;
    const Corpus corpus = BuildCorpus(plan.generator, plan.num_docs);
    return ComputeOracle(plan, corpus) ? 0 : Fail("cannot write the oracle");
  }

  const int64_t corpus_t0 = NowNs();
  const Corpus corpus = BuildCorpus(plan.generator, plan.num_docs);
  const double corpus_build_s =
      static_cast<double>(NowNs() - corpus_t0) / 1e9;
  Oracle oracle;
  if (!LoadOracle(plan.oracle_path, &oracle)) {
    return Fail("no oracle at " + plan.oracle_path + " (run --oracle first)");
  }
  if (workload->checkpointed) {
    std::string error;
    if (!WritePrepCheckpoint(plan, corpus, &error)) return Fail(error);
  }
  malloc_trim(0);

  RunContext ctx{&plan, &corpus, &oracle, o.seed, nullptr, nullptr, 0};
  JsonObject metrics;
  RunResult r;
  std::vector<double> setups;
  std::vector<uint64_t> setup_docs;  // Spout position at each set-up end.
  if (!o.trace) {
    for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
      ctx.rep = rep;
      const RunResult s = RunSystem(ctx, Pass::kSetupOnly);
      if (!s.ok) return Fail("set-up failed: " + s.error);
      setups.push_back(s.setup_s);
      setup_docs.push_back(s.docs_at_setup_end);
    }
    malloc_trim(0);
    const int64_t base_kb = ReadStatusKb("VmRSS");
    if (!ResetPeakRss()) return Fail("cannot reset the peak-RSS mark");
    ctx.rep = kSetupReps - 1;
    r = RunSystem(ctx, Pass::kMeasure);
    if (!r.ok) return Fail("run failed: " + r.error);
    setups.push_back(r.setup_s);
    setup_docs.push_back(r.docs_at_setup_end);
    AddEndToEnd(&metrics, r, Median(setups),
                static_cast<double>(r.peak_rss_kb - base_kb) / 1024.0);
  } else {
    // Untraced reference first, then the traced run; their difference is
    // the tracing overhead.
    const RunResult ref = RunSystem(ctx, Pass::kMeasure);
    if (!ref.ok) return Fail("reference run failed: " + ref.error);
    malloc_trim(0);
    Tracer tracer;
    telemetry::MetricRegistry registry;
    ctx.tracer = &tracer;
    ctx.registry = &registry;
    ctx.rep = 1;
    const int64_t origin = NowNs();
    r = RunSystem(ctx, Pass::kMeasure);
    if (!r.ok) return Fail("traced run failed: " + r.error);
    setups.push_back(r.setup_s);
    setup_docs.push_back(r.docs_at_setup_end);
    const std::vector<Span> spans = tracer.TakeSpans();
    // Ingest is paced, so tracing cost shows as CPU: the change in program
    // CPU time per document against the untraced reference run.
    const double overhead_pct =
        ref.cpu_us_per_doc > 0
            ? (r.cpu_us_per_doc - ref.cpu_us_per_doc) / ref.cpu_us_per_doc *
                  100.0
            : 0.0;
    const double sim = SimBaselineDocsPerS(plan, corpus);
    AddPerLayer(&metrics, r, registry.Snapshot(), Tracer::SelfMsByLayer(spans),
                sim, overhead_pct);
    const std::string path = o.cache_dir + "/trace-" + workload->name +
                             "-s" + std::to_string(o.seed) + ".json";
    if (!Tracer::Dump(spans, origin, path)) return Fail("cannot write " + path);
    std::fprintf(stderr, "perfbench_e2e: %zu spans written to %s\n",
                 spans.size(), path.c_str());
  }

  const Validity validity =
      CheckValidity(r, setup_docs, workload->warm_docs, o.trace);
  JsonObject out;
  out.Bool("correct", AllChecksPass(r));
  out.Bool("valid", validity.valid);
  out.Number("attempted",
             static_cast<double>(r.docs_in_window + r.queries.attempted));
  out.Number("failed", static_cast<double>(r.queries.errors));
  out.Raw("metrics", metrics.str());
  out.Raw("checks", ChecksJson(r));
  out.Raw("context",
          Context(o, plan, corpus, corpus_build_s, r, validity, setups,
                  setup_docs, oracle.sets.size()));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
