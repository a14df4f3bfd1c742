#include "runtime/worker.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <future>
#include <iterator>
#include <utility>

#include "util/assert.hpp"

namespace wan::runtime {

namespace {

// epoll_event::data tags.
constexpr std::uint32_t kWakeTag = 0;
constexpr std::uint32_t kTimerTag = 1;
constexpr std::uint32_t kIoTag = 2;

thread_local const Worker* tls_current = nullptr;

void add_fd(int epoll_fd, int fd, std::uint32_t tag) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = tag;
  WAN_REQUIRE(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0);
}

}  // namespace

Worker::Worker() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  WAN_REQUIRE(epoll_fd_ >= 0 && wake_fd_ >= 0 && timer_fd_ >= 0);
  add_fd(epoll_fd_, wake_fd_, kWakeTag);
  add_fd(epoll_fd_, timer_fd_, kTimerTag);
  thread_ = std::thread([this] { loop(); });
}

Worker::~Worker() {
  stop();
  for (const int fd : {epoll_fd_, wake_fd_, timer_fd_}) ::close(fd);
}

bool Worker::on_thread() const noexcept { return tls_current == this; }

Worker::Node* Worker::add_node() {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.emplace_back(std::make_unique<Node>()).get();
}

void Worker::stop_nodes(Node* only) {
  std::vector<Fn> dropped;  // destroyed after mu_ is released
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& node : nodes_) {
      if (only == nullptr || node.get() == only) {
        node->stopped.store(true, std::memory_order_release);
      }
    }
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (s.armed && s.node != nullptr && (only == nullptr || s.node == only)) {
        dropped.push_back(disarm(i));
      }
    }
  }
  // Off the worker, wait out the turn in progress: it may be running a
  // handler of a node stopped just now.
  if (!on_thread()) run_sync(nullptr, [] {});
}

bool Worker::post(Node* node, Fn fn) {
  if (node != nullptr && !node->live()) return false;
  if (on_thread()) {
    ready_.push_back(Posted{node, std::move(fn)});
    return true;
  }
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return false;
    was_empty = inbox_.empty();
    inbox_.push_back(Posted{node, std::move(fn)});
  }
  // Ring on the empty -> nonempty edge only: the worker swaps the whole
  // inbox out in one go, so later posts ride on the same wakeup.
  if (was_empty) ring();
  return true;
}

bool Worker::run_sync(Node* node, Fn fn) {
  WAN_REQUIRE_MSG(!on_thread(),
                  "run_sync called on the fabric's worker thread: it would "
                  "wait for itself forever; call the function directly or "
                  "post() it");
  // The closure holds the only reference to the promise, so a closure
  // dropped unrun (its node stopped meanwhile) breaks it, which also ends
  // the wait.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> ran = done->get_future();
  const bool posted = post(node, [done = std::move(done), fn = std::move(fn)] {
    fn();
    done->set_value();
  });
  ran.wait();
  return posted;
}

void Worker::post_at(Node* node, SteadyTP at, Fn fn) {
  if (node != nullptr && !node->live()) return;
  // A slot of its own, which the shot frees; the shot checks the node
  // itself, so a stop turns it into a no-op instead of leaking the slot.
  const std::uint32_t slot = new_timer(nullptr);
  arm(slot, at, [this, slot, node, fn = std::move(fn)] {
    free_timer(slot);
    if (node == nullptr || node->live()) fn();
  });
}

std::uint32_t Worker::new_timer(Node* node) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].node = node;
  return slot;
}

void Worker::free_timer(std::uint32_t slot) noexcept {
  Fn old;  // declared before the lock: destroyed after the unlock
  std::lock_guard<std::mutex> lock(mu_);
  old = disarm(slot);
  slots_[slot].node = nullptr;
  free_slots_.push_back(slot);
}

void Worker::arm(std::uint32_t slot, SteadyTP at, Fn fn,
                 std::chrono::nanoseconds period) {
  Fn old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old = disarm(slot);
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.armed = true;
    s.period = period;
    ++live_timers_;
    push_due(at, slot);
    // Cancelled and re-armed timers leave stale entries behind; drop them
    // once they outnumber the live ones, so the heap stays O(live).
    if (heap_.size() > 2 * live_timers_ + 64) {
      std::erase_if(heap_, [this](const Due& d) {
        return !slots_[d.slot].armed || slots_[d.slot].gen != d.gen;
      });
      std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }
  // On the worker the end of the turn re-arms the timerfd; another thread
  // has to wake it for that.
  if (!on_thread()) ring();
}

void Worker::cancel(std::uint32_t slot) noexcept {
  Fn old;
  std::lock_guard<std::mutex> lock(mu_);
  old = disarm(slot);
}

bool Worker::pending(std::uint32_t slot) const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_[slot].armed;
}

Worker::Fn Worker::disarm(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  if (!s.armed) return nullptr;
  s.armed = false;
  --live_timers_;
  return std::exchange(s.fn, nullptr);
}

bool Worker::watch(int fd, Io* io) {
  io_fd_ = fd;
  io_.store(io, std::memory_order_release);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kIoTag;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void Worker::want_write(bool want) {
  if (want == want_write_) return;
  want_write_ = want;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u32 = kIoTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, io_fd_, &ev);
}

void Worker::stop() {
  WAN_REQUIRE_MSG(!on_thread(), "a worker cannot stop itself from its own loop");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  ring();
  if (thread_.joinable()) thread_.join();
  // Release what never ran: queued closures may own state that owns this
  // worker's users (a periodic timer's shot owns its timer state).
  std::vector<Posted> inbox;
  std::vector<Fn> timers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inbox.swap(inbox_);
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].armed) timers.push_back(disarm(i));
    }
    heap_.clear();
  }
  ready_.clear();
}

void Worker::ring() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Worker::loop() {
  tls_current = this;
  epoll_event events[4];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_fd_, events, 4, ready_.empty() ? -1 : 0);
    if (n < 0 && errno != EINTR) return;
    std::uint32_t io_events = 0;
    bool timer_fired = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u32 == kIoTag) {
        io_events = events[i].events;
        continue;
      }
      std::uint64_t drained = 0;
      const int fd = events[i].data.u32 == kWakeTag ? wake_fd_ : timer_fd_;
      [[maybe_unused]] const ssize_t r = ::read(fd, &drained, sizeof drained);
      if (fd == timer_fd_) {
        timerfd_at_ = SteadyTP::max();
        timer_fired = true;
      }
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    Io* io = io_.load(std::memory_order_acquire);
    new_dispatch();
    if (io != nullptr && io_events != 0) io->on_ready(io_events);
    // The timerfd always holds the earliest deadline (rearm_timerfd below;
    // a deadline already past fires at once), so until it fires no timer
    // can be due.
    if (timer_fired) run_timers();
    run_posted();
    if (io != nullptr) io->end_turn();
    rearm_timerfd();
  }
}

void Worker::push_due(SteadyTP at, std::uint32_t slot) {
  heap_.push_back(Due{at, next_seq_++, slot, slots_[slot].gen});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void Worker::prune_top() {
  while (!heap_.empty()) {
    const Due& top = heap_.front();
    const Slot& s = slots_[top.slot];
    if (s.armed && s.gen == top.gen) return;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
}

void Worker::run_timers() {
  const SteadyTP now = SteadyClock::now();
  // The first shot runs at the reading that found it due; later ones stamp
  // themselves on first use, as any dispatch does.
  stamp_ = now;
  stamped_ = true;
  for (;;) {
    Fn fn;
    Node* node = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      prune_top();
      if (heap_.empty() || heap_.front().at > now) return;
      const std::uint32_t slot = heap_.front().slot;
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();
      Slot& s = slots_[slot];
      node = s.node;
      if (s.period.count() > 0 && (node == nullptr || node->live())) {
        fn = s.fn;  // the slot keeps its callback for the next shot
        push_due(dispatch_time() + s.period, slot);
      } else {
        fn = disarm(slot);
      }
    }
    if (node == nullptr || node->live()) fn();
    new_dispatch();
  }
}

void Worker::run_posted() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_.swap(inbox_);
  }
  running_.insert(running_.end(), std::make_move_iterator(ready_.begin()),
                  std::make_move_iterator(ready_.end()));
  ready_.clear();
  for (Posted& p : running_) {
    if (p.node == nullptr || p.node->live()) {
      new_dispatch();
      p.fn();
    }
  }
  running_.clear();
}

void Worker::rearm_timerfd() {
  SteadyTP next = SteadyTP::max();
  {
    std::lock_guard<std::mutex> lock(mu_);
    prune_top();
    if (!heap_.empty()) next = heap_.front().at;
  }
  // A later deadline needs nothing: the timerfd fires early, finds nothing
  // due, and is re-armed here. Only an earlier one costs a syscall.
  if (next >= timerfd_at_) return;
  timerfd_at_ = next;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      next.time_since_epoch())
                      .count();
  itimerspec spec{};
  spec.it_value.tv_sec = ns / 1'000'000'000;
  spec.it_value.tv_nsec = ns % 1'000'000'000;
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

}  // namespace wan::runtime
