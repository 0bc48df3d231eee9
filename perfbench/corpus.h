// Input side of the end-to-end benchmark: a pre-materialised corpus of
// rendered tweets and the spout that hands it to the runtime.
//
// Everything that depends on the seed is generated here, before any clock
// starts, so neither topic sampling nor tweet rendering is ever timed. The
// spout only copies a pre-rendered tweet out of the corpus.
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/types.h"
#include "gen/tweet_generator.h"
#include "ops/messages.h"
#include "stream/topology.h"
#include "trace.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Corpus {
  std::vector<corrtrack::ops::RawTweet> tweets;
  uint64_t distinct_tags = 0;
  uint64_t tag_occurrences = 0;

  double mean_tags_per_doc() const {
    return tweets.empty() ? 0.0
                          : static_cast<double>(tag_occurrences) /
                                static_cast<double>(tweets.size());
  }
  /// Share of tag draws that introduced a tag never seen before.
  double fresh_tag_share() const {
    return tag_occurrences == 0 ? 0.0
                                : static_cast<double>(distinct_tags) /
                                      static_cast<double>(tag_occurrences);
  }
};

Corpus BuildCorpus(const corrtrack::gen::GeneratorConfig& config,
                   uint64_t num_docs);

inline constexpr uint64_t kLateSampleEvery = 8;

/// State shared between the spout (the runtime's spout thread) and the
/// benchmark's observers on other threads.
struct IngestState {
  IngestState(const Corpus* corpus, corrtrack::Timestamp report_period);

  const Corpus* corpus;
  const corrtrack::Timestamp report_period;

  /// Wall time at which the spout handed out the first document stamped at
  /// or after period boundary b * report_period (0 = not yet).
  std::unique_ptr<std::atomic<int64_t>[]> boundary_ns;
  size_t num_boundaries = 0;

  std::atomic<uint64_t> pulled{0};  ///< Documents handed out so far.
  std::atomic<int64_t> last_pull_ns{0};
  std::atomic<bool> exhausted{false};  ///< Corpus fully handed out.
  std::atomic<bool> stop{false};       ///< End the stream early.

  /// Open-loop pacing. Documents before pace_from are the warm-up and are
  /// handed out unpaced; document pace_from + i is due i * pace_interval_ns
  /// after the spout reached pace_from, at pace_origin_ns. Set before the
  /// runtime starts; by default the whole corpus is handed out unpaced.
  int64_t pace_interval_ns = 0;
  uint64_t pace_from = std::numeric_limits<uint64_t>::max();
  std::atomic<int64_t> pace_origin_ns{0};  ///< 0 = still in the warm-up.

  /// Wall time the spout slept for pacing (spout thread only, read after
  /// the run).
  int64_t idle_ns = 0;

  /// Stream positions around which hand-out times are kept (checkpoint
  /// cuts); filled by the spout thread, read after the run.
  std::vector<uint64_t> watch_positions;
  std::vector<int64_t> watch_ns;

  /// Harness lateness of every kLateSampleEvery-th paced document (spout
  /// thread only).
  std::vector<int64_t> doc_late_ns;

  /// Wall time of the first boundary crossing for the period ending at
  /// `period_end`, or 0 when no document at or after it was handed out.
  int64_t BoundaryNs(corrtrack::Timestamp period_end) const;
};

/// Replays the corpus from position 0. Stops at the end of the corpus or
/// when IngestState::stop is raised.
class CorpusSpout : public corrtrack::stream::Spout<corrtrack::ops::Message> {
 public:
  CorpusSpout(IngestState* state, Tracer* tracer)
      : state_(state), tracer_(tracer) {}

  bool Next(corrtrack::ops::Message* out, corrtrack::Timestamp* time) override;

 private:
  IngestState* state_;
  Tracer* tracer_;
  uint64_t pos_ = 0;
  size_t next_boundary_ = 1;
  size_t next_watch_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
