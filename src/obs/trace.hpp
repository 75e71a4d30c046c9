// Lock-free tracing: the span/event half of the observability layer
// (src/obs/). Record sites push fixed-size POD TraceEvents into per-thread
// bounded SPSC rings (common/spsc_queue.hpp — the recording thread is the
// only producer, the drain side the only consumer), so recording takes
// zero locks and zero allocations: a branch on the process trace level,
// two monotonic clock reads and one ring store. A full ring drops the
// event and counts the drop per thread — lossy but honest: drops are
// surfaced in every snapshot and exporter output, and recording never
// blocks.
//
// The trace level is process-global, resolved once from SPNF_TRACE
// ("off" | "counters" | "full" — the same one-shot resolution rule as
// SPNF_SIMD):
//   * kOff      — every record site is a single relaxed load + branch.
//   * kCounters — the metrics registry records (obs/metrics.hpp); spans and
//                 instants are still skipped. The always-on default.
//   * kFull     — spans/instants are recorded into the rings as well.
// Tests and benches flip the level programmatically via SetActiveTraceLevel
// (scoped save/restore), exactly like simd::SetActivePath.
//
// Strings: event/category/arg-key names must be static string literals
// (the event stores the pointer). Dynamic strings (pipeline keys, scene
// names) go through InternString — a fixed-capacity lock-free open-
// addressing table; interning a string already in the table is lock-free
// and allocation-free, the first occurrence of a new string allocates its
// copy once (do it off the per-event path; the serving layer interns per
// batch, not per event).
#pragma once

#include <cstddef>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace spnerf::obs {

/// Observability levels, ascending cost. See the file banner.
enum class TraceLevel : u8 {
  kOff = 0,
  kCounters = 1,
  kFull = 2,
};

/// Lower-case level name ("off", "counters", "full") — used in bench
/// metadata and the SPNF_TRACE override.
[[nodiscard]] const char* TraceLevelName(TraceLevel level);

/// Parses a level name; returns false (and leaves `out` untouched) for
/// unknown strings. Case-sensitive: the override contract is lower-case.
bool ParseTraceLevelName(std::string_view name, TraceLevel& out);

/// Pure resolution rule for an override string, exposed for tests:
/// nullptr/empty -> kCounters (the always-on default); a parseable name ->
/// that level; garbage -> kCounters with a warning.
[[nodiscard]] TraceLevel ResolveTraceOverride(const char* value);

/// The current process trace level. First call resolves the SPNF_TRACE
/// override; later calls are one relaxed atomic load.
[[nodiscard]] TraceLevel ActiveTraceLevel();

/// Forces the level from now on (tests, bench phase sweeps). Returns the
/// previously active level for scoped save/restore. Flipping mid-run is
/// benign: concurrent record sites either see the old level or the new one.
TraceLevel SetActiveTraceLevel(TraceLevel level);

/// True when the metrics registry should record (level >= counters).
[[nodiscard]] bool CountersEnabled();

/// True when spans/instants should record (level == full).
[[nodiscard]] bool FullTracingEnabled();

/// Monotonic nanoseconds since the process trace epoch (first use). All
/// trace timestamps share this clock — it is intentionally NOT the
/// virtualizable common/clock.hpp source, so spans measure real wall time
/// even under a ManualClock-driven service.
[[nodiscard]] u64 TraceNowNs();

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

/// Id 0 is reserved: it names the overflow/unknown string "?".
inline constexpr u32 kInternOverflowId = 0;

/// Interns `s`, returning a stable non-zero id — or kInternOverflowId when
/// the fixed table is full. Re-interning an existing string is lock-free
/// and allocation-free; the first occurrence copies the string once.
u32 InternString(std::string_view s);

/// The interned string for `id` ("?" for kInternOverflowId / unknown ids).
[[nodiscard]] const char* InternedString(u32 id);

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

inline constexpr std::size_t kTraceArgCount = 4;

enum class TraceArgKind : u8 {
  kNone = 0,
  kInt,  // value is the integer itself
  kStr,  // value is an InternString id
};

/// One key/value tag on an event. `key` must be a static string literal.
struct TraceArg {
  const char* key = nullptr;
  i64 value = 0;
  TraceArgKind kind = TraceArgKind::kNone;
};

/// One recorded span or instant. POD by design: events are copied into and
/// out of the per-thread rings byte-wise, never constructed or destroyed
/// on the hot path.
struct TraceEvent {
  u64 start_ns = 0;
  u64 end_ns = 0;  // == start_ns for instants
  const char* category = nullptr;  // static literal
  const char* name = nullptr;      // static literal
  /// Correlation id linking events of one logical operation (the serving
  /// layer uses the per-request id); 0 means none.
  u64 flow = 0;
  TraceArg args[kTraceArgCount];

  [[nodiscard]] bool IsInstant() const { return end_ns == start_ns; }
  /// Appends the next free arg slot (silently ignored once full).
  void AddArg(const char* key, i64 value);
  void AddStrArg(const char* key, u32 interned_id);
  /// Value of the arg named `key` (nullptr semantics: first match), or
  /// `fallback` when absent. For kStr args the value is the intern id.
  [[nodiscard]] i64 ArgValue(std::string_view key, i64 fallback = -1) const;
  [[nodiscard]] bool HasArg(std::string_view key) const;
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay POD: it is memcpy'd through SPSC rings");

/// Pushes one event into the calling thread's ring (creating + registering
/// the ring on the thread's first event). Full ring: the event is dropped
/// and the thread's drop counter bumped — never blocks, never allocates.
/// No-op unless FullTracingEnabled().
void Emit(const TraceEvent& event);

/// Convenience instant with up to two integer/string args.
void EmitInstant(const char* category, const char* name, u64 flow = 0);

/// RAII span: stamps start at construction, end at destruction, then
/// Emits. Inactive (zero-cost beyond the level branch) when full tracing
/// is off.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name, u64 flow = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  [[nodiscard]] bool Active() const { return active_; }
  void AddArg(const char* key, i64 value);
  void AddStrArg(const char* key, u32 interned_id);
  void SetFlow(u64 flow);

 private:
  TraceEvent event_;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Drain side
// ---------------------------------------------------------------------------

/// Everything one thread's ring held at drain time.
struct ThreadTrace {
  u32 tid = 0;  // stable small id, assigned at ring registration
  std::vector<TraceEvent> events;
  /// Events dropped on ring overflow over the thread's lifetime (cumulative
  /// — not reset by draining; honesty over resettability).
  u64 dropped = 0;
};

struct TraceSnapshot {
  std::vector<ThreadTrace> threads;
  /// Sum of per-thread drop counters (cumulative, see ThreadTrace).
  u64 dropped_total = 0;

  /// Every event of every thread, sorted by (start_ns, end_ns desc) so an
  /// enclosing span precedes its children.
  [[nodiscard]] std::vector<TraceEvent> Flatten() const;
  /// Flattened events carrying `flow`, in the same order — the per-request
  /// timeline the serving spans reconstruct.
  [[nodiscard]] std::vector<TraceEvent> EventsForFlow(u64 flow) const;
};

/// Pops every event currently in every thread ring. Serialized internally
/// (one drainer at a time — the SPSC consumer contract); producers keep
/// recording concurrently. Draining does not reset drop counters.
TraceSnapshot DrainTrace();

/// Cumulative events dropped across all threads (cheap: one relaxed load
/// per registered ring).
[[nodiscard]] u64 TotalTraceDropped();

/// Capacity of rings created AFTER this call (existing thread rings keep
/// theirs). Tests shrink it to force overflow on a fresh thread; benches
/// may grow it for long traces. Returns the previous default.
std::size_t SetDefaultTraceRingCapacity(std::size_t capacity);

inline constexpr std::size_t kDefaultTraceRingCapacity = 8192;

}  // namespace spnerf::obs
