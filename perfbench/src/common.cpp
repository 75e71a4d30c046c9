// Statistics, output and span-log helpers of the benchmark.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = (p / 100.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int WindowOf(double ms, double seconds, int windows) {
  const int w = static_cast<int>(ms / (seconds * 1e3 / windows));
  return std::clamp(w, 0, windows - 1);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.n = values.size();
  if (tail.n <= 10) {
    tail.value = Percentile(std::move(values), 50);
    return tail;
  }
  const std::size_t k = tail.n - 11;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  tail.value = values[k];
  tail.percentile = 100.0 * static_cast<double>(tail.n - 10) /
                    static_cast<double>(tail.n);
  return tail;
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

u64 ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ull +
         static_cast<u64>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::string MetricSink::Json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(entry.first) +
           ", \"unit\": " + JsonString(entry.second) + "}";
  }
  return out + "}";
}

// ----------------------------------------------------------------- spans --

SpanLog::Buffer& SpanLog::Local() {
  // One buffer per (thread, log); a run has a single log, so a plain
  // thread_local pointer keyed on the log suffices.
  thread_local SpanLog* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<int>(buffers_.size());
    buffers_.back()->spans.reserve(1 << 12);
    buffer = buffers_.back().get();
    owner = this;
  }
  return *buffer;
}

void SpanLog::Record(const Span& span) {
  Buffer& b = Local();
  Span s = span;
  s.thread = b.thread;
  b.spans.push_back(s);
}

std::vector<Span> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::map<u64, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    const double dur = MsBetween(s.start, s.end);
    // Self time: duration minus the union of the children's intervals,
    // clipped to this span (children on several threads may overlap).
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        const auto a = std::max(c->start, s.start);
        const auto b = std::min(c->end, s.end);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point cur_a{}, cur_b{};
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (open) covered += MsBetween(cur_a, cur_b);
        cur_a = a;
        cur_b = b;
        open = true;
      }
      if (open) covered += MsBetween(cur_a, cur_b);
    }
    SpanTotals& t = out[s.name];
    ++t.count;
    t.items += s.items;
    t.total_ms += dur;
    t.self_ms += dur - covered;
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::map<std::string, SpanTotals>& summary) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  Clock::time_point first = spans.empty() ? Clock::time_point{} : spans.front().start;
  for (const Span& s : spans) first = std::min(first, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - first).count();
  };
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\": " << JsonString(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << JsonNumber(us(s.start))
        << ", \"dur\": " << JsonNumber(us(s.end) - us(s.start))
        << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"items\": " << s.items
        << ", \"cpu_ns\": " << s.cpu_ns << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "], \"summary\": {";
  bool first_entry = true;
  for (const auto& [name, t] : summary) {
    out << (first_entry ? "" : ", ") << JsonString(name)
        << ": {\"count\": " << t.count << ", \"items\": " << t.items
        << ", \"total_ms\": " << JsonNumber(t.total_ms)
        << ", \"self_ms\": " << JsonNumber(t.self_ms) << "}";
    first_entry = false;
  }
  out << "}}\n";
}

void TimingFieldSource::SampleBatch(std::span<const spnerf::Vec3f> positions,
                                    std::span<spnerf::FieldSample> out,
                                    spnerf::DecodeCounters* counters) const {
  Span span;
  const u64 cpu0 = ThreadCpuNs();
  span.start = Clock::now();
  inner_.SampleBatch(positions, out, counters);
  span.end = Clock::now();
  span.cpu_ns = ThreadCpuNs() - cpu0;
  span.id = log_.NextId();
  span.parent = parent_.load(std::memory_order_relaxed);
  span.request = request_.load(std::memory_order_relaxed);
  span.name = "FieldSource::SampleBatch";
  span.items = positions.size();
  log_.Record(span);
}

bool BitIdentical(const spnerf::Image& a, const spnerf::Image& b) {
  if (a.Width() != b.Width() || a.Height() != b.Height()) return false;
  const auto& pa = a.Pixels();
  const auto& pb = b.Pixels();
  return std::memcmp(pa.data(), pb.data(),
                     pa.size() * sizeof(spnerf::Vec3f)) == 0;
}

}  // namespace perfbench
