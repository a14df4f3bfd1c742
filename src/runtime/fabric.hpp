// Fabric: the backend a ThreadedEnv's transport port plugs into.
//
// A ThreadedEnv owns a node's event loop; a Fabric owns how datagrams move
// between loops. Two implementations exist:
//
//   * LoopbackFabric (runtime/threaded_env.hpp) — in-process, configurable
//     delay/jitter/loss; every node lives in one address space.
//   * ReactorTransport (runtime/reactor_transport.hpp) — one UDP socket per
//     process driven by an epoll loop, frames encoded by the
//     net::CodecRegistry wire codec; nodes span processes and machines.
//
// The split keeps ThreadedEnv backend-agnostic: it implements Env (timers,
// post, now) against its LoopCore and forwards every Transport call here.
// Protocol code above the seam cannot tell which fabric is underneath — the
// realtime Te smoke runs unchanged over either.
//
// The base class also owns the two things every fabric needs:
//   * the epoch — the steady-clock instant that is sim::TimePoint zero for
//     all envs of this fabric, so timestamps from different nodes compare;
//   * env bookkeeping for stop_all(), the teardown convenience that stops
//     every attached env's loop before protocol modules are destroyed.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/env.hpp"
#include "runtime/loop_core.hpp"

namespace wan::runtime {

class ThreadedEnv;

class Fabric {
 public:
  virtual ~Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Registers `id`'s receive handler, delivered onto `core`'s loop.
  virtual void attach(HostId id, std::shared_ptr<LoopCore> core,
                      Transport::Handler handler) = 0;

  /// Marks a *local* endpoint crashed/recovered (inbound and outbound
  /// datagrams silently discarded while down).
  virtual void set_endpoint_down(HostId id, bool down) = 0;

  /// Unreliable unicast between endpoints.
  virtual void send(HostId from, HostId to, net::MessagePtr msg) = 0;

  /// Stops every env ever attached to this fabric (teardown convenience).
  void stop_all();

  /// Steady-clock instant that is sim::TimePoint zero for attached envs.
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }

 protected:
  Fabric() : epoch_(std::chrono::steady_clock::now()) {}

 private:
  friend class ThreadedEnv;
  void register_env(ThreadedEnv* env);
  void forget_env(ThreadedEnv* env);

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex env_mu_;
  std::vector<ThreadedEnv*> envs_;  ///< live envs, for stop_all
};

}  // namespace wan::runtime
