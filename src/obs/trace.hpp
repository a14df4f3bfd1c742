// Causal tracing across the runtime seam.
//
// A TraceId is minted once per causal chain — an access-check session at a
// host, an ACL update (grant/revocation) at a manager, an invocation at a
// user agent — and rides inside the proto messages that continue the chain
// (QueryRequest/QueryResponse, UpdateMsg, RevokeNotify), so every span a node
// records lands on the same logical track regardless of which node, thread,
// or runtime recorded it.
//
// Recording is observational only: events carry runtime-clock timestamps and
// never feed back into protocol behaviour, so a traced simulation run stays
// bit-identical to an untraced one (the chaos trace hash certifies this).
// When no tracer is installed the per-event cost is one relaxed atomic load
// and a predictable branch — no locks, no allocation, nothing on the wire.
//
// Exports: a deterministic line-per-event text form (what the determinism
// tests compare) and Chrome trace_event JSON (open in chrome://tracing or
// https://ui.perfetto.dev; see docs/OBSERVABILITY.md for the schema).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/ids.hpp"

namespace wan::obs {

/// Identifies one causal chain; 0 means "untraced".
using TraceId = std::uint64_t;

/// Chain kinds, disambiguating the id space so two modules minting on the
/// same node can never collide.
enum class TraceKind : std::uint64_t {
  kCheck = 0,   ///< access-check session at an application host
  kUpdate = 1,  ///< ACL update (grant/revoke) issued at a manager
  kInvoke = 2,  ///< end-to-end invocation at a user agent
};

/// Deterministic minting: (kind | node | per-module sequence). Sequences
/// start at 1 so a minted id is never 0; the same sim seed mints the same
/// ids in the same order, which keeps trace output bit-identical across runs.
[[nodiscard]] constexpr TraceId mint(TraceKind kind, HostId node,
                                     std::uint32_t seq) noexcept {
  return (static_cast<std::uint64_t>(kind) << 62) |
         (static_cast<std::uint64_t>(node.value()) << 32) | seq;
}

enum class SpanKind : std::uint8_t {
  kBegin,     ///< chain root (session started, update submitted, ...)
  kSend,      ///< message handed to the transport
  kRecv,      ///< message delivered to a module
  kTimer,     ///< timeout / retransmit fired
  kDecision,  ///< terminal outcome (access decision, update quorum, ...)
  kInstant,   ///< anything else worth a mark
};

[[nodiscard]] const char* to_cstring(SpanKind k) noexcept;

/// One recorded span event. POD on purpose: `name` must point at a string
/// literal (static storage), args are two free-form integers whose meaning
/// is per-name (see docs/OBSERVABILITY.md for the vocabulary).
struct TraceEvent {
  TraceId trace = 0;
  std::int64_t at_nanos = 0;  ///< runtime clock (env.now())
  const char* name = nullptr;
  std::uint32_t node = 0;
  SpanKind kind = SpanKind::kInstant;
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
};

/// Collects trace events (and, when routed, log lines). Thread-safe: the
/// worker threads of several fabrics and the driver may record concurrently.
/// Capacity-bounded — past `max_events` new events are counted as dropped
/// rather than grown without bound.
class Tracer {
 public:
  explicit Tracer(std::size_t max_events = 1u << 22);

  void record(const TraceEvent& e);
  /// Formatted log line (routed from wan::log while this tracer is installed).
  void log_line(std::string line);

  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::vector<std::string> log_lines() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;
  void clear();

  /// Deterministic text form: one line per event, in recording order.
  /// Identical runs produce byte-identical text.
  [[nodiscard]] std::string text() const;

  /// Chrome trace_event JSON (object form). Each trace id becomes one async
  /// track: a synthesized "b"/"e" pair spanning its first..last event, plus
  /// one async-instant ("n") per recorded event. Routed log lines ride in a
  /// top-level "logLines" array the viewer ignores.
  [[nodiscard]] std::string chrome_json() const;
  /// Writes chrome_json() to `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::vector<std::string> logs_;
  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
};

/// Currently installed tracer (nullptr = tracing disabled). The hot-path
/// guard: modules call obs::record(...) unconditionally and it no-ops on
/// nullptr after a single relaxed load.
[[nodiscard]] Tracer* tracer() noexcept;

/// Secondary event sink, fed the same TraceEvents as the tracer. The one
/// implementation today is the crash-surviving FlightRecorder ring
/// (obs/flight_recorder.hpp): unlike the Tracer it must keep working up to
/// the instant of a SIGKILL, so it gets the raw event instead of riding the
/// Tracer's mutex-guarded vector. Both hooks are independent: either may be
/// installed without the other.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& e) noexcept = 0;
};

/// Currently installed secondary sink (nullptr = none).
[[nodiscard]] TraceSink* trace_sink() noexcept;

/// Installs `s` as the process-global secondary sink (nullptr to disable).
/// Same scoping contract as install_tracer: one traced world at a time.
void install_trace_sink(TraceSink* s);

/// Installs `t` as the process-global tracer and routes wan::log lines into
/// it. Pass nullptr to disable. Not reference-counted: callers scope
/// installation (see TracerScope) and must not run two traced worlds
/// concurrently — the chaos sweep only installs a tracer in single-seed
/// replay mode for exactly this reason.
void install_tracer(Tracer* t);

/// RAII installation for the duration of one run.
class TracerScope {
 public:
  explicit TracerScope(Tracer* t) { install_tracer(t); }
  ~TracerScope() { install_tracer(nullptr); }
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;
};

/// Hot-path recording helper: one relaxed load, then branch away when
/// tracing is off. Never allocates when disabled.
inline void record(TraceId trace, SpanKind kind, HostId node,
                   sim::TimePoint at, const char* name, std::int64_t a0 = 0,
                   std::int64_t a1 = 0) {
  Tracer* t = tracer();
  TraceSink* s = trace_sink();
  if (t == nullptr && s == nullptr) return;
  TraceEvent e;
  e.trace = trace;
  e.at_nanos = at.nanos_since_origin();
  e.name = name;
  e.node = node.value();
  e.kind = kind;
  e.a0 = a0;
  e.a1 = a1;
  if (t != nullptr) t->record(e);
  if (s != nullptr) s->record(e);
}

/// True when a tracer or sink is installed (for callers that want to skip
/// building args entirely).
[[nodiscard]] inline bool enabled() noexcept {
  return tracer() != nullptr || trace_sink() != nullptr;
}

}  // namespace wan::obs
