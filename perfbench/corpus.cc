#include "corpus.h"

#include <algorithm>
#include <thread>
#include <unordered_set>
#include <utility>

namespace perfbench {

using corrtrack::Timestamp;

Corpus BuildCorpus(const corrtrack::gen::GeneratorConfig& config,
                   uint64_t num_docs) {
  Corpus corpus;
  corpus.tweets.reserve(num_docs);
  corrtrack::gen::TweetGenerator generator(config);
  std::unordered_set<corrtrack::TagId> seen;
  for (uint64_t i = 0; i < num_docs; ++i) {
    const corrtrack::Document doc = generator.Next();
    for (const corrtrack::TagId tag : doc.tags) seen.insert(tag);
    corpus.tag_occurrences += doc.tags.size();
    corrtrack::ops::RawTweet tweet;
    tweet.id = doc.id;
    tweet.time = doc.time;
    tweet.text = corrtrack::gen::TweetGenerator::RenderText(doc);
    corpus.tweets.push_back(std::move(tweet));
  }
  corpus.distinct_tags = seen.size();
  return corpus;
}

IngestState::IngestState(const Corpus* corpus_in, Timestamp period)
    : corpus(corpus_in), report_period(period) {
  const Timestamp last =
      corpus->tweets.empty() ? 0 : corpus->tweets.back().time;
  num_boundaries = static_cast<size_t>(last / report_period) + 2;
  boundary_ns = std::make_unique<std::atomic<int64_t>[]>(num_boundaries);
  for (size_t b = 0; b < num_boundaries; ++b) boundary_ns[b].store(0);
}

int64_t IngestState::BoundaryNs(Timestamp period_end) const {
  if (period_end <= 0 || period_end % report_period != 0) return 0;
  const size_t b = static_cast<size_t>(period_end / report_period);
  return b < num_boundaries ? boundary_ns[b].load(std::memory_order_acquire)
                            : 0;
}

bool CorpusSpout::Next(corrtrack::ops::Message* out, Timestamp* time) {
  IngestState& s = *state_;
  if (s.stop.load(std::memory_order_relaxed)) return false;
  if (pos_ >= s.corpus->tweets.size()) {
    s.exhausted.store(true, std::memory_order_release);
    return false;
  }
  const corrtrack::ops::RawTweet& tweet = s.corpus->tweets[pos_];
  if (pos_ == s.pace_from) {
    s.pace_origin_ns.store(NowNs(), std::memory_order_release);
  }
  if (pos_ >= s.pace_from) {
    // Harness lateness: how far past its due time the spout woke from its
    // own sleep. A call that arrives after the due time was delayed by the
    // runtime (backpressure, a checkpoint cut), which is the program's doing.
    int64_t late = 0;
    const int64_t due =
        s.pace_origin_ns.load(std::memory_order_relaxed) +
        static_cast<int64_t>(pos_ - s.pace_from) * s.pace_interval_ns;
    const int64_t now = NowNs();
    if (now < due) {
      // Sleep, never spin: a spinning spout would take a core from the
      // system under test.
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      const int64_t woke = NowNs();
      late = woke - due;
      s.idle_ns += woke - now;
    }
    if (pos_ % kLateSampleEvery == 0) s.doc_late_ns.push_back(late);
  }
  // Only the hand-out is timed; the pacing sleep is the harness idling.
  const bool sampled =
      tracer_ != nullptr && pos_ % Tracer::kHotSampleEvery == 0;
  ScopedSpan span(sampled ? tracer_ : nullptr, "Spout::Next", "gen",
                  Tracer::kHotSampleEvery);
  *time = tweet.time;
  *out = corrtrack::ops::Message(tweet);

  const int64_t handed = NowNs();
  const size_t bucket = static_cast<size_t>(tweet.time / s.report_period);
  while (next_boundary_ <= bucket && next_boundary_ < s.num_boundaries) {
    s.boundary_ns[next_boundary_++].store(handed, std::memory_order_release);
  }
  if (next_watch_ < s.watch_positions.size() &&
      s.watch_positions[next_watch_] == pos_) {
    s.watch_ns[next_watch_++] = handed;
  }
  ++pos_;
  s.pulled.store(pos_, std::memory_order_release);
  s.last_pull_ns.store(handed, std::memory_order_release);
  return true;
}

}  // namespace perfbench
