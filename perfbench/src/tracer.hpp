// In-memory span recorder of the traced replay.
//
// The replay wraps every call into a library layer in a span (name, start,
// end, parent, op id). Spans are appended to one vector while the replay
// runs and are only summarized when it ends. A layer's self time is its
// spans' durations minus the part of each interval that its direct child
// spans cover.
//
// A probe span re-runs work the production path does inside another call
// (the replay calls the RTA on its own, which the θ and Y analyses run
// internally). Its self time is reported, but it is left out of the sum
// that is compared with the untraced end-to-end time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name{""};   ///< layer name; a string literal
  const char* tag{nullptr};  ///< optional sub-key (scheme name); outlives the spans
  std::int64_t start_ns{0};
  std::int64_t end_ns{-1};  ///< -1 while open
  std::int32_t parent{-1};
  std::uint64_t op{0};      ///< operation (set, run, request) the span serves
  std::uint64_t count{0};   ///< work done inside, e.g. engine events
  bool probe{false};
};

class Tracer {
 public:
  Tracer();

  std::int32_t begin(const char* name, std::uint64_t op, bool probe = false);
  void end(std::int32_t id);

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t op,
          bool probe = false)
        : tracer_(tracer), id_(tracer.begin(name, op, probe)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_tag(const char* tag) { tracer_.spans_[idx()].tag = tag; }
    void add_count(std::uint64_t n) { tracer_.spans_[idx()].count += n; }

   private:
    std::size_t idx() const { return static_cast<std::size_t>(id_); }
    Tracer& tracer_;
    std::int32_t id_;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::int64_t now_ns() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

struct LayerTime {
  double self_s{0};
  std::uint64_t calls{0};
  std::uint64_t count{0};  ///< sum of Span::count
  bool probe{false};
};

/// Self time, calls and counts per span name, plus per "name/tag" for tagged
/// spans.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

/// Sum of self time over non-probe spans (what the untraced path also does).
double attributed_seconds(const std::vector<Span>& spans);

/// Sum of self time over every span.
double spanned_seconds(const std::vector<Span>& spans);

/// Writes the spans as CSV (id,parent,op,name,tag,start_ns,end_ns,count,
/// probe), one line per span in begin order. Returns false on an I/O error.
bool write_spans_csv(const std::string& path, const std::vector<Span>& spans);

/// Durations of the root spans named `root_name`, in begin order.
std::vector<double> root_durations_ms(const std::vector<Span>& spans,
                                      const char* root_name);

}  // namespace perfbench
