#include "tracer.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1u << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int32_t Tracer::begin(const char* name, std::uint64_t op, bool probe) {
  Span s;
  s.name = name;
  s.op = op;
  s.probe = probe;
  s.parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scope guards close spans in LIFO order.
  open_.pop_back();
}

namespace {

/// Self time per span: duration minus the union of its direct children's
/// intervals, clipped to the parent. Children are appended after their
/// parent in start order, so one forward pass merges them.
std::vector<std::int64_t> self_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::int64_t> covered(spans.size(), 0);
  std::vector<std::int64_t> cursor(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    cursor[i] = spans[i].start_ns;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0 || s.end_ns < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    const Span& parent = spans[p];
    const std::int64_t lo = std::max({s.start_ns, parent.start_ns, cursor[p]});
    const std::int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) {
      covered[p] += hi - lo;
      cursor[p] = hi;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0) continue;
    self[i] = spans[i].end_ns - spans[i].start_ns - covered[i];
  }
  return self;
}

}  // namespace

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_ns(spans);
  std::map<std::string, LayerTime> out;
  const auto fold = [](LayerTime& lt, const Span& s, std::int64_t self_time) {
    lt.self_s += static_cast<double>(self_time) * 1e-9;
    ++lt.calls;
    lt.count += s.count;
    lt.probe = s.probe;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) continue;
    fold(out[s.name], s, self[i]);
    if (s.tag != nullptr) {
      fold(out[std::string(s.name) + "/" + s.tag], s, self[i]);
    }
  }
  return out;
}

namespace {

double sum_self(const std::vector<Span>& spans, bool include_probes) {
  const std::vector<std::int64_t> self = self_ns(spans);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0 || (spans[i].probe && !include_probes)) continue;
    total += self[i];
  }
  return static_cast<double>(total) * 1e-9;
}

}  // namespace

double attributed_seconds(const std::vector<Span>& spans) {
  return sum_self(spans, false);
}

double spanned_seconds(const std::vector<Span>& spans) {
  return sum_self(spans, true);
}

bool write_spans_csv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "id,parent,op,name,tag,start_ns,end_ns,count,probe\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << ',' << s.parent << ',' << s.op << ',' << s.name << ','
        << (s.tag != nullptr ? s.tag : "") << ',' << s.start_ns << ','
        << s.end_ns << ',' << s.count << ',' << (s.probe ? 1 : 0) << '\n';
  }
  return static_cast<bool>(out.flush());
}

std::vector<double> root_durations_ms(const std::vector<Span>& spans,
                                      const char* root_name) {
  std::vector<double> out;
  const std::string want(root_name);
  for (const Span& s : spans) {
    if (s.parent >= 0 || s.end_ns < 0 || want != s.name) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

}  // namespace perfbench
