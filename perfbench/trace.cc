#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

int64_t Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

// Open spans of this thread, innermost last.
std::vector<Span>& Stack() {
  thread_local std::vector<Span> stack;
  return stack;
}

}  // namespace

uint64_t Tracer::Begin(const char* name, const char* layer, uint32_t weight) {
  std::vector<Span>& stack = Stack();
  Span span;
  span.name = name;
  span.layer = layer;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.thread = ThreadIndex();
  span.weight = weight;
  if (!stack.empty()) {
    span.parent = stack.back().id;
    span.parent_on_thread = true;
  } else {
    span.parent = cross_thread_parent_.load(std::memory_order_relaxed);
  }
  span.start_ns = Now();
  stack.push_back(span);
  return span.id;
}

void Tracer::End(uint64_t id) {
  const int64_t end = Now();
  std::vector<Span>& stack = Stack();
  if (stack.empty() || stack.back().id != id) return;  // Misnested.
  Span span = stack.back();
  stack.pop_back();
  span.end_ns = end;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::Record(const char* name, const char* layer, int64_t start_ns,
                    int64_t end_ns, uint64_t parent) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.parent_on_thread = true;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::TakeSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

std::map<std::string, double> Tracer::SelfMsByLayer(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> covered_ns;  // Parent id -> child ns.
  for (const Span& span : spans) {
    if (!span.parent_on_thread) continue;
    covered_ns[span.parent] +=
        static_cast<double>(span.end_ns - span.start_ns) * span.weight;
  }
  std::map<std::string, double> self_ms;
  for (const Span& span : spans) {
    double self = static_cast<double>(span.end_ns - span.start_ns);
    const auto it = covered_ns.find(span.id);
    if (it != covered_ns.end()) self -= it->second;
    self_ms[span.layer] += std::max(0.0, self) * span.weight / 1e6;
  }
  return self_ms;
}

bool Tracer::Dump(const std::vector<Span>& spans, int64_t origin_ns,
                  const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"id\":%llu,"
                 "\"parent\":%llu,\"thread\":%u,\"weight\":%u,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 s.name, s.layer, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread,
                 s.weight, static_cast<double>(s.start_ns - origin_ns) / 1e3,
                 static_cast<double>(s.end_ns - origin_ns) / 1e3,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
