// ThreadedEnv: the real-time runtime behind the seam.
//
// One ThreadedEnv per node, but not one thread: a ThreadedEnv is a handle
// onto its fabric's one Worker (runtime/worker.hpp). Timers, post()ed work
// and inbound deliveries of every node on the fabric run on that thread, so
// each node gets one serial context and protocol modules stay
// single-threaded with no locks of their own — the discipline the simulator
// enforces by construction. The env's Worker::Node stop flag, checked
// before every item runs, makes stop() per node.
//
// The fabric underneath is the real-socket ReactorTransport
// (runtime/reactor_transport.hpp): nodes of one process share its socket,
// and frames between them make a real kernel round trip. Tests and tools
// that want a whole deployment in one process bind it to 127.0.0.1:0 and
// route every node id to that port (SocketTransport::add_peer).
//
// Time: sim::TimePoint, measured from the fabric's construction instant on
// the steady clock, so timestamps from different nodes compare (per-node
// *local* clock skew stays in runtime::Clock / clk::LocalClock on top). On
// the worker, now() is the dispatch time (Worker::dispatch_time): every
// read in one handler, timer shot or posted closure returns the same
// instant, as under SimEnv, and the clock is read once per dispatch. Off
// the worker, now() reads the clock. Timers still arm from a fresh clock
// reading, so a deadline is never earlier than the real arm time plus the
// delay.
//
// Teardown discipline: call stop() (or Fabric::stop_all()) on every env
// BEFORE destroying the protocol modules attached to it — a stopped node
// runs nothing, so queued deliveries can no longer touch a module being
// destroyed.
#pragma once

#include <memory>
#include <utility>

#include "runtime/env.hpp"
#include "runtime/fabric.hpp"

namespace wan::runtime {

class ThreadedEnv final : public Env, private Transport {
 public:
  explicit ThreadedEnv(Fabric& fabric);
  ~ThreadedEnv() override;
  ThreadedEnv(const ThreadedEnv&) = delete;
  ThreadedEnv& operator=(const ThreadedEnv&) = delete;

  [[nodiscard]] sim::TimePoint now() const override;
  [[nodiscard]] Timer make_timer() override;
  [[nodiscard]] PeriodicTimer make_periodic_timer() override;
  [[nodiscard]] Transport& transport() override { return *this; }
  void post(std::function<void()> fn) override;

  /// Posts `fn` onto the worker and blocks until it has run. The only safe
  /// way for an external (driver/test) thread to call into a node's modules.
  /// Aborts when called on the worker thread (it would wait for itself) or
  /// after stop() (the work would never run).
  void run_sync(std::function<void()> fn);

  /// Stops this node: pending and future work, timers and deliveries are
  /// discarded. Called off the worker it also waits for a handler of this
  /// node that is running right now; called from protocol code on the worker
  /// (a crash) it takes effect from the next item on. Idempotent.
  void stop() { worker_->stop_nodes(node_); }

 private:
  // Transport: the node's port onto the fabric.
  void register_endpoint(HostId id, Handler handler) override {
    fabric_.attach(id, node_, std::move(handler));
  }
  void set_endpoint_down(HostId id, bool down) override {
    fabric_.set_endpoint_down(id, down);
  }
  void send(HostId from, HostId to, net::MessagePtr msg) override {
    fabric_.send(from, to, std::move(msg));
  }
  void multicast(HostId from, const std::vector<HostId>& to,
                 const net::MessagePtr& msg) override;

  Fabric& fabric_;
  const std::shared_ptr<Worker> worker_;
  Worker::Node* const node_;
};

}  // namespace wan::runtime
