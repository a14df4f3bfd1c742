// The runtime seam: everything the protocol needs from its execution
// environment, and nothing else.
//
// The paper's protocol (§3) is defined over abstract primitives — a local
// clock bounded by `b`, per-attempt timers, unreliable datagram send. The
// protocol layer (src/proto, src/baseline, src/workload) depends only on the
// interfaces in this header; concrete environments plug in underneath:
//
//   * SimEnv      (runtime/sim_env.hpp)      — deterministic discrete-event
//     simulation over sim::Scheduler + net::Network. Bit-reproducible; the
//     chaos harness and every test run here.
//   * ThreadedEnv (runtime/threaded_env.hpp) — real time on a steady clock,
//     over an in-process loopback fabric (configurable delay/loss) or the
//     UDP socket fabric. Each fabric runs all of its nodes on ONE worker
//     thread (runtime/worker.hpp); a ThreadedEnv is a node's handle onto it.
//
// Rules of the seam (see docs/ARCHITECTURE.md):
//   * Protocol code includes runtime/env.hpp, never sim/scheduler.hpp or
//     net/network.hpp. The only sim types it may touch are the pure value
//     types sim::Duration / sim::TimePoint (sim/time.hpp) and the message
//     base net::Message (net/message.hpp).
//   * Everything a node does — timer callbacks, message handlers, post()ed
//     work — runs serialized on that node's environment (one serial context
//     per node; in ThreadedEnv, several nodes may share the one thread).
//     Protocol modules are single-threaded by construction and contain no
//     locks, and must never block waiting on another node.
//   * External threads may only talk to a node via Env::post().
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"
#include "clock/local_clock.hpp"
#include "util/ids.hpp"

namespace wan::runtime {

/// Implementation side of a one-shot timer. Environments subclass this;
/// protocol code only ever sees the Timer value wrapper below.
class TimerImpl {
 public:
  virtual ~TimerImpl() = default;
  /// Arms the timer to fire `delay` from now, cancelling any pending shot.
  virtual void arm(sim::Duration delay, std::function<void()> fn) = 0;
  virtual void cancel() noexcept = 0;
  [[nodiscard]] virtual bool pending() const noexcept = 0;
};

/// One-shot timer. Re-arming cancels the previous shot; destruction cancels.
/// Movable value type so protocol state machines can hold timers as members
/// (crash/recovery tears the module down, which cancels all its callbacks).
class Timer {
 public:
  Timer() = default;
  explicit Timer(std::unique_ptr<TimerImpl> impl) : impl_(std::move(impl)) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&&) noexcept = default;
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      cancel();
      impl_ = std::move(other.impl_);
    }
    return *this;
  }

  void arm(sim::Duration delay, std::function<void()> fn) {
    impl_->arm(delay, std::move(fn));
  }
  void cancel() noexcept {
    if (impl_) impl_->cancel();
  }
  [[nodiscard]] bool pending() const noexcept {
    return impl_ != nullptr && impl_->pending();
  }

 private:
  std::unique_ptr<TimerImpl> impl_;
};

/// Implementation side of a periodic timer.
class PeriodicTimerImpl {
 public:
  virtual ~PeriodicTimerImpl() = default;
  virtual void start(sim::Duration initial_delay, sim::Duration period,
                     std::function<void()> fn) = 0;
  virtual void stop() noexcept = 0;
  [[nodiscard]] virtual bool running() const noexcept = 0;
};

/// Periodic timer: fires every `period` until stopped or destroyed.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  explicit PeriodicTimer(std::unique_ptr<PeriodicTimerImpl> impl)
      : impl_(std::move(impl)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  PeriodicTimer(PeriodicTimer&&) noexcept = default;
  PeriodicTimer& operator=(PeriodicTimer&& other) noexcept {
    if (this != &other) {
      stop();
      impl_ = std::move(other.impl_);
    }
    return *this;
  }

  /// Starts firing `fn` every `period`, first shot after `period`.
  void start(sim::Duration period, std::function<void()> fn) {
    impl_->start(period, period, std::move(fn));
  }
  /// Same, with an explicit first-shot delay.
  void start(sim::Duration initial_delay, sim::Duration period,
             std::function<void()> fn) {
    impl_->start(initial_delay, period, std::move(fn));
  }
  void stop() noexcept {
    if (impl_) impl_->stop();
  }
  [[nodiscard]] bool running() const noexcept {
    return impl_ != nullptr && impl_->running();
  }

 private:
  std::unique_ptr<PeriodicTimerImpl> impl_;
};

/// Unreliable datagram transport between named endpoints — the paper's
/// Figure 1 "Network" component as seen by a node. Sends may be lost,
/// delayed, duplicated, or partitioned away; the protocol is built to
/// tolerate all of it, so implementations are free to drop anything.
class Transport {
 public:
  using Handler = std::function<void(HostId from, const net::MessagePtr& msg)>;

  virtual ~Transport() = default;

  /// Registers (or replaces) the receive handler for an endpoint. An endpoint
  /// must be registered before it can send or receive. Endpoints start up.
  /// The handler is invoked on the endpoint's environment (its event loop).
  virtual void register_endpoint(HostId id, Handler handler) = 0;

  /// Marks an endpoint crashed (true) or recovered (false). A down endpoint's
  /// inbound and outbound packets are silently discarded.
  virtual void set_endpoint_down(HostId id, bool down) = 0;

  /// Unreliable unicast. Self-sends are delivered (with zero delay).
  virtual void send(HostId from, HostId to, net::MessagePtr msg) = 0;

  /// Unreliable multicast: an independent datagram per destination; the
  /// sender itself is skipped.
  virtual void multicast(HostId from, const std::vector<HostId>& to,
                         const net::MessagePtr& msg) = 0;
};

/// The execution environment of one (or, in simulation, every) node.
class Env {
 public:
  virtual ~Env() = default;

  /// Current real time. In simulation this is the global simulated clock; in
  /// a threaded runtime it is steady-clock time since the fabric's epoch,
  /// taken once per dispatch on the worker (a ThreadedEnv's now() is the
  /// dispatch time). Either way a handler runs at one instant: time does not
  /// advance within it. Protocol code must not treat it as a local clock —
  /// that is what Clock (and its skew bound `b`) is for.
  [[nodiscard]] virtual sim::TimePoint now() const = 0;

  /// Timer factories. The returned timers fire on this environment.
  [[nodiscard]] virtual Timer make_timer() = 0;
  [[nodiscard]] virtual PeriodicTimer make_periodic_timer() = 0;

  /// The datagram fabric this node is attached to.
  [[nodiscard]] virtual Transport& transport() = 0;

  /// Enqueues `fn` to run on this environment as soon as possible. The only
  /// legal way for an external thread to touch a node's state.
  virtual void post(std::function<void()> fn) = 0;
};

/// A node's local clock: the environment's real time composed with the
/// node-specific skew (rate in [1/b, ~1]) of clk::LocalClock. This is the
/// paper's Time() — protocol code reads local_now() and never constructs a
/// clk::LocalClock against raw scheduler time itself.
class Clock {
 public:
  Clock(Env& env, clk::LocalClock skew) : env_(&env), skew_(skew) {}

  /// The paper's Time(): this node's local-clock reading, now.
  [[nodiscard]] clk::LocalTime local_now() const {
    return skew_.now(env_->now());
  }

  /// Environment real time (decision timestamps, latency accounting).
  [[nodiscard]] sim::TimePoint real_now() const { return env_->now(); }

  /// The underlying skew model (rate queries, expiry conversions).
  [[nodiscard]] const clk::LocalClock& skew() const noexcept { return skew_; }

 private:
  Env* env_;
  clk::LocalClock skew_;
};

}  // namespace wan::runtime
