// In-memory span recorder for the traced benchmark run.
//
// Spans are taken in the benchmark's own files, around its calls into the
// program's layers (gen, stream, ops, serve, net, storage); nothing inside
// src/ is instrumented. Spans stay in memory and are written out when the
// run ends. Hot per-document calls are sampled: a span recorded for one in
// `weight` calls stands for all of them when self time is summed.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint32_t thread = 0;
  uint32_t weight = 1;  ///< Calls this span stands for (sampling).
  bool parent_on_thread = false;  ///< Parent encloses it on this thread.
};

class Tracer {
 public:
  /// Sampling period of per-document calls (spout, routing callbacks).
  static constexpr uint32_t kHotSampleEvery = 64;

  /// Opens a span on the calling thread. Its parent is the innermost open
  /// span of this thread, or `cross_thread_parent` when none is open (a
  /// call made from a runtime worker during Runtime::Run).
  uint64_t Begin(const char* name, const char* layer, uint32_t weight = 1);
  void End(uint64_t id);

  /// Adds a span timed outside Begin/End (a stall seen from the spout, a
  /// sum of idle time) as a same-thread child of `parent`. Its thread is 0.
  void Record(const char* name, const char* layer, int64_t start_ns,
              int64_t end_ns, uint64_t parent);

  /// The span that calls on threads without an open span hang under.
  void set_cross_thread_parent(uint64_t id) {
    cross_thread_parent_.store(id, std::memory_order_relaxed);
  }

  std::vector<Span> TakeSpans();

  /// Self time per layer in ms: each span's duration minus what its
  /// same-thread children cover, scaled by the span's sampling weight.
  static std::map<std::string, double> SelfMsByLayer(
      const std::vector<Span>& spans);

  /// Writes the spans as a JSON array. Returns false on I/O failure.
  static bool Dump(const std::vector<Span>& spans, int64_t origin_ns,
                   const std::string& path);

 private:
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> cross_thread_parent_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             uint32_t weight = 1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, layer, weight) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
