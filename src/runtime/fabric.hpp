// Fabric: how datagrams move between nodes, and the one thread they run on.
//
// A ThreadedEnv is a per-node handle; a Fabric owns the execution and the
// delivery underneath it. Two implementations exist:
//
//   * LoopbackFabric (runtime/threaded_env.hpp) — in-process, configurable
//     delay/jitter/loss; every node lives in one address space.
//   * ReactorTransport (runtime/reactor_transport.hpp) — one UDP socket per
//     process, frames encoded by the net::CodecRegistry wire codec; nodes
//     span processes and machines.
//
// Every fabric owns exactly one Worker (runtime/worker.hpp): one epoll loop
// thread that runs every attached node's timers, posted work and message
// handlers, each node serialised by construction because there is only one
// thread. The reactor adds its socket to that worker's epoll set, so
// receive, protocol work and send happen on one thread with no handoff.
// Protocol code above the seam cannot tell which fabric is underneath — the
// realtime Te smoke runs unchanged over either.
//
// The base class also owns the epoch — the steady-clock instant that is
// sim::TimePoint zero for all envs of this fabric, so timestamps from
// different nodes compare.
#pragma once

#include <chrono>
#include <memory>

#include "runtime/env.hpp"
#include "runtime/worker.hpp"

namespace wan::runtime {

class Fabric {
 public:
  /// Stops the worker (subclasses whose members the worker touches stop it
  /// earlier, in their own destructor).
  virtual ~Fabric() { worker_->stop(); }
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Registers `id`'s receive handler, run on the worker for `node`.
  virtual void attach(HostId id, Worker::Node* node,
                      Transport::Handler handler) = 0;

  /// Marks a *local* endpoint crashed/recovered (inbound and outbound
  /// datagrams silently discarded while down).
  virtual void set_endpoint_down(HostId id, bool down) = 0;

  /// Unreliable unicast between endpoints.
  virtual void send(HostId from, HostId to, net::MessagePtr msg) = 0;

  /// Stops every env ever attached to this fabric (teardown convenience).
  void stop_all() { worker_->stop_nodes(nullptr); }

  /// Steady-clock instant that is sim::TimePoint zero for attached envs.
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const noexcept {
    return epoch_;
  }

  /// The fabric's one loop thread, shared with the timers of attached envs
  /// (which may outlive the fabric).
  [[nodiscard]] Worker& worker() const noexcept { return *worker_; }
  [[nodiscard]] const std::shared_ptr<Worker>& shared_worker() const noexcept {
    return worker_;
  }

 protected:
  Fabric()
      : epoch_(std::chrono::steady_clock::now()),
        worker_(std::make_shared<Worker>()) {}

 private:
  const std::chrono::steady_clock::time_point epoch_;
  const std::shared_ptr<Worker> worker_;
};

}  // namespace wan::runtime
