// Minimal leveled logger for the simulator and the threaded runtime.
//
// Logging is off by default (benchmarks and property tests run millions of
// events); tests and examples flip the level when tracing a scenario. The
// logger prepends the simulation time when a time source has been installed,
// which makes protocol traces directly comparable to the paper's figures.
//
// Thread safety: each fabric's worker thread and the driver thread may all
// log while the driver installs/removes sinks. The level is an atomic;
// sink, time source, and mirror are shared_ptr snapshots copied under a lock
// and invoked outside it — so a sink swap never races an in-flight emit and a
// removed sink is only destroyed once no emit still holds a reference.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace wan::log {

enum class Level { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global minimum level; messages below it are discarded before formatting.
Level level() noexcept;
void set_level(Level lvl) noexcept;

/// Sink invoked with fully formatted lines; defaults to stderr.
using Sink = std::function<void(Level, const std::string&)>;
void set_sink(Sink sink);
void reset_sink();

/// Optional time source; when set, log lines carry "t=<value>" prefixes.
/// The simulator installs its scheduler clock here (value in seconds).
void set_time_source(std::function<double()> source);
void clear_time_source();

/// Mirror invoked with every formatted line *in addition to* the sink,
/// regardless of which sink is installed. obs::install_tracer routes log
/// lines into the trace via this hook (the indirection keeps wan_util from
/// depending on wan_obs). The mirror receives the line without a level tag
/// decision of its own — filtering already happened at the level gate.
using Mirror = std::function<void(const std::string&)>;
void set_mirror(Mirror mirror);
void clear_mirror();

namespace detail {
void emit(Level lvl, std::string msg);

class LineBuilder {
 public:
  explicit LineBuilder(Level lvl) : lvl_(lvl) {}
  ~LineBuilder() { emit(lvl_, os_.str()); }
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;

  template <typename T>
  LineBuilder& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  Level lvl_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace wan::log

#define WAN_LOG(lvl)                                 \
  if (::wan::log::level() > ::wan::log::Level::lvl) { \
  } else                                             \
    ::wan::log::detail::LineBuilder(::wan::log::Level::lvl)

#define WAN_TRACE WAN_LOG(kTrace)
#define WAN_DEBUG WAN_LOG(kDebug)
#define WAN_INFO WAN_LOG(kInfo)
#define WAN_WARN WAN_LOG(kWarn)
#define WAN_ERROR WAN_LOG(kError)
