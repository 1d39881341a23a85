// One JSON emission path for the whole repo.
//
// The trace exporter and the serve wire protocol both write through
// JsonWriter rather than concatenating strings with escaping and number
// habits of their own. It centralizes the three policies that must not drift:
//
//   * string escaping (", \, control characters);
//   * tick-exact fixed-point numbers: ticks render as "%lld.%03lld" ms (the
//     io::serialize_taskset policy -- round-trips exactly), trace-style ms
//     render via fixed(to_ms(t), 3) which is equally exact on the 1000
//     ticks/ms grid;
//   * "%a" hex-float for doubles that must reproduce bit-for-bit (corpus
//     manifest keys, repro bundles record lambda this way).
//
// Layout is scope-based so the migrated emitters stay byte-identical to
// their hand-rolled predecessors (the golden-trace tests enforce this for
// trace_json): every object/array is either
//
//   * kInline -- `{"a": 1, "b": 2}` on one line, ", " separators; or
//   * kBlock  -- one item per line, each indented two spaces per depth,
//     separators `,\n`, closer on its own line at the parent's indent.
//
// A kBlock scope renders `[\n  ]` when empty (matching the historical
// loop-over-nothing emitters); kInline renders `[]`. The writer is
// append-only into an owned string; take() moves the result out. Scope
// misuse (closing the wrong scope, a value without a key inside an object)
// trips MKSS_CHECK.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/time.hpp"

namespace mkss::io {

/// Escapes `s` for a JSON string literal: ", \ and \n (the historical
/// trace_json policy) plus \r, \t and \u00XX for the remaining control
/// characters, so any error message is wire-safe.
std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  enum class Scope : std::uint8_t { kInline, kBlock };

  /// Begins the root value or the next element/member value.
  void begin_object(Scope style = Scope::kInline);
  void end_object();
  void begin_array(Scope style = Scope::kInline);
  void end_array();

  /// Emits `"name": ` inside an object (separator included); the next
  /// value/begin call is its value.
  void key(std::string_view name);

  void string(std::string_view v);
  void boolean(bool v);
  void null();
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  /// Fixed-point decimal with `decimals` digits ("%.*f").
  void fixed(double v, int decimals);
  /// Bit-exact hex-float ("%a").
  void hex(double v);
  /// Tick-exact milliseconds, the serialize_taskset "%lld.%03lld" policy
  /// (always three fractional digits, round-trips through from_ms exactly).
  void ticks_ms(core::Ticks t);
  /// Trace-dialect milliseconds: fixed(to_ms(t), 3), or null for kNever.
  void ms_or_null(core::Ticks t);
  /// Escape hatch: verbatim bytes as one value (still separator-managed).
  void raw(std::string_view v);

  /// The buffer so far (all scopes need not be closed yet).
  const std::string& str() const noexcept { return out_; }
  /// Moves the finished document out; MKSS_CHECKs every scope was closed.
  std::string take();

 private:
  void begin_value();
  void open(char c, Scope style);
  void close(char c);

  struct Frame {
    Scope style{Scope::kInline};
    bool is_object{false};
    bool has_items{false};
  };

  std::string out_;
  std::vector<Frame> stack_;
  bool key_pending_{false};
};

}  // namespace mkss::io
