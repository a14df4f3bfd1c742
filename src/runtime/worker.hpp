// Worker: the one event-loop thread of a Fabric; every node attached to the
// fabric runs on it.
//
// epoll watches an eventfd (rung by other threads posting into the inbox, an
// MPSC queue under one mutex; a post made on the worker goes to a local
// queue with no lock and no eventfd), a timerfd armed at the earliest timer
// deadline (absolute CLOCK_MONOTONIC: sub-millisecond lateness, where
// epoll's own timeout is whole milliseconds) and at most one I/O source (the
// reactor's socket). A turn is one I/O readiness callback, due timers,
// posted work, then Io::end_turn(); work posted during a turn runs in the
// next, so nothing starves the socket or the other nodes.
//
// Timers live in slots. A heap entry names a slot and the slot's generation
// when armed; cancel and re-arm bump the generation and release the callback
// at once, stale entries are skipped when they surface, and the heap is
// compacted when they outnumber live ones. A Node's stop flag, checked
// before every post, timer and inline delivery runs, makes stops per node.
//
// Dispatch time: a dispatch is one posted closure, one timer shot, or one
// node's run over its messages in a receive batch (the I/O source marks
// those with new_dispatch()). dispatch_time() reads the steady clock once
// per dispatch, at its first call, and returns that stamp until the next
// dispatch begins; the first timer shot of a turn is stamped with the
// reading that found it due. So a handler runs at one instant, and a later
// dispatch sees a later one. Due timers are only looked for when the
// timerfd has fired, so a turn with no timer due reads no clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace wan::runtime {

class Worker {
 public:
  using SteadyClock = std::chrono::steady_clock;
  using SteadyTP = SteadyClock::time_point;
  using Fn = std::function<void()>;

  /// One node's serial context on this worker.
  struct Node {
    std::atomic<bool> stopped{false};
    [[nodiscard]] bool live() const noexcept {
      return !stopped.load(std::memory_order_acquire);
    }
  };

  /// The one I/O source a worker can drive (the reactor's socket).
  class Io {
   public:
    virtual ~Io() = default;
    /// The watched fd is ready (epoll event bits).
    virtual void on_ready(std::uint32_t events) = 0;
    /// End of a turn, after due timers and posted work.
    virtual void end_turn() = 0;
  };

  Worker();
  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// True on this worker's loop thread.
  [[nodiscard]] bool on_thread() const noexcept;

  /// The current dispatch's time (see the header comment): the clock is
  /// read at the first call in a dispatch only. Worker thread only.
  [[nodiscard]] SteadyTP dispatch_time() noexcept {
    if (!stamped_) {
      stamp_ = SteadyClock::now();
      stamped_ = true;
    }
    return stamp_;
  }
  /// Starts a new dispatch: the next dispatch_time() reads the clock afresh.
  /// Worker thread only.
  void new_dispatch() noexcept { stamped_ = false; }

  /// A new node context, valid for the worker's lifetime.
  Node* add_node();
  /// Stops `only`, or every node when null: sets the stop flag, releases
  /// the armed timers and, off the worker, waits out the turn in progress,
  /// so that no code of a stopped node runs after the call. On the worker (a
  /// crash issued from protocol code) the current handler runs to its end.
  /// Idempotent.
  void stop_nodes(Node* only);

  /// Queues `fn` to run on the worker for `node` (nullptr: the fabric's own
  /// work, which always runs). Returns false, dropping `fn`, when the node
  /// or the worker has stopped.
  bool post(Node* node, Fn fn);
  /// Posts `fn` and blocks until it has run, or was dropped because its
  /// node stopped. Returns false when the post was refused. Aborts on the
  /// worker thread, where it would wait for itself forever.
  bool run_sync(Node* node, Fn fn);

  /// Timer slots. Any thread may call these; callbacks run on the worker
  /// unless the slot's node has stopped. A nonzero `period` re-arms the
  /// slot every period from each shot until it is cancelled (each shot runs
  /// a copy of `fn`, so the callback may re-arm or free its own slot).
  std::uint32_t new_timer(Node* node);
  void free_timer(std::uint32_t slot) noexcept;
  void arm(std::uint32_t slot, SteadyTP at, Fn fn,
           std::chrono::nanoseconds period = {});
  void cancel(std::uint32_t slot) noexcept;
  [[nodiscard]] bool pending(std::uint32_t slot) const noexcept;

  /// Adds `fd` (level-triggered EPOLLIN) with `io` as its callback. Returns
  /// false with errno set when epoll_ctl fails. Call once, before traffic.
  bool watch(int fd, Io* io);
  /// Toggles EPOLLOUT on the watched fd. Worker thread only.
  void want_write(bool want);

  /// Stops and joins the loop thread; later posts are refused and whatever
  /// is still queued is released. Idempotent; not callable on the worker.
  void stop();

 private:
  struct Slot {
    std::uint64_t gen = 0;
    Fn fn;
    Node* node = nullptr;
    bool armed = false;
    std::chrono::nanoseconds period{};
  };
  struct Due {
    SteadyTP at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint64_t gen;
    bool operator>(const Due& o) const noexcept {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  struct Posted {
    Node* node;
    Fn fn;
  };

  void loop();
  void run_timers();
  void run_posted();
  void rearm_timerfd();
  void ring() noexcept;
  /// Queues the slot's current generation at `at`. mu_ held.
  void push_due(SteadyTP at, std::uint32_t slot);
  /// Pops stale entries off the heap top. mu_ held.
  void prune_top();
  /// Disarms `slot` and bumps its generation; returns the callback for the
  /// caller to destroy once mu_ is released (captures may re-enter). mu_
  /// held.
  Fn disarm(std::uint32_t slot);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int timer_fd_ = -1;
  int io_fd_ = -1;
  std::atomic<Io*> io_{nullptr};

  mutable std::mutex mu_;
  bool stopped_ = false;
  std::vector<Posted> inbox_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Due> heap_;  ///< min-heap by (at, seq)
  std::uint64_t next_seq_ = 0;
  std::size_t live_timers_ = 0;

  // Worker thread only.
  SteadyTP stamp_{};  ///< the current dispatch's time, once stamped_
  bool stamped_ = false;
  bool want_write_ = false;
  SteadyTP timerfd_at_ = SteadyTP::max();  ///< deadline the timerfd holds
  std::vector<Posted> ready_;    ///< posts made on the worker
  std::vector<Posted> running_;  ///< this turn's posted work

  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace wan::runtime
