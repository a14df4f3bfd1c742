#include "runtime/threaded_env.hpp"

#include <atomic>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace wan::runtime {

using SteadyClock = std::chrono::steady_clock;
using SteadyTP = SteadyClock::time_point;

namespace {

std::chrono::nanoseconds to_chrono(sim::Duration d) noexcept {
  return std::chrono::nanoseconds(d.count_nanos());
}

obs::Counter& threaded_timer_arms() {
  static obs::Counter& c = obs::Registry::global().counter(
      "wan_env_timer_arms_total{env=\"threaded\"}");
  return c;
}

// One-shot timer over a loop core. The armed callback fires at most once:
// firing and cancelling race on the same atomic flag, and exactly one side
// wins the exchange.
class ThreadedTimerImpl final : public TimerImpl {
 public:
  explicit ThreadedTimerImpl(std::shared_ptr<LoopCore> core)
      : core_(std::move(core)) {}
  ~ThreadedTimerImpl() override { cancel(); }

  void arm(sim::Duration delay, std::function<void()> fn) override {
    cancel();
    threaded_timer_arms().inc();
    flag_ = std::make_shared<std::atomic<bool>>(false);
    auto flag = flag_;
    LoopCore::post_at(
        core_, SteadyClock::now() + to_chrono(delay),
        [flag, fn = std::move(fn)] {
          bool expected = false;
          if (flag->compare_exchange_strong(expected, true)) fn();
        },
        flag);
  }

  void cancel() noexcept override {
    if (flag_) flag_->store(true, std::memory_order_release);
  }

  [[nodiscard]] bool pending() const noexcept override {
    return flag_ != nullptr && !flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<LoopCore> core_;
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Periodic timer: the chain of shots owns its state via shared_ptr, so a
// queued shot outliving the PeriodicTimer wrapper is harmless (it sees the
// stopped flag and does nothing).
class ThreadedPeriodicTimerImpl final : public PeriodicTimerImpl {
 public:
  explicit ThreadedPeriodicTimerImpl(std::shared_ptr<LoopCore> core)
      : core_(std::move(core)) {}
  ~ThreadedPeriodicTimerImpl() override { stop(); }

  void start(sim::Duration initial_delay, sim::Duration period,
             std::function<void()> fn) override {
    stop();
    auto st = std::make_shared<State>();
    st->core = core_;
    st->period = to_chrono(period);
    st->fn = std::move(fn);
    state_ = st;
    schedule(st, SteadyClock::now() + to_chrono(initial_delay));
  }

  void stop() noexcept override {
    if (state_) state_->stopped.store(true, std::memory_order_release);
    state_.reset();
  }

  [[nodiscard]] bool running() const noexcept override {
    return state_ != nullptr;
  }

 private:
  struct State {
    std::shared_ptr<LoopCore> core;
    std::chrono::nanoseconds period{};
    std::function<void()> fn;
    std::atomic<bool> stopped{false};
  };

  static void schedule(const std::shared_ptr<State>& st, SteadyTP at) {
    LoopCore::post_at(st->core, at, [st] {
      if (st->stopped.load(std::memory_order_acquire)) return;
      st->fn();
      if (st->stopped.load(std::memory_order_acquire)) return;
      schedule(st, SteadyClock::now() + st->period);
    });
  }

  std::shared_ptr<LoopCore> core_;
  std::shared_ptr<State> state_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Per-env transport port onto the shared fabric.

class ThreadedEnv::Port final : public Transport {
 public:
  Port(Fabric& fabric, std::shared_ptr<LoopCore> core)
      : fabric_(fabric), core_(std::move(core)) {}

  void register_endpoint(HostId id, Handler handler) override {
    fabric_.attach(id, core_, std::move(handler));
  }
  void set_endpoint_down(HostId id, bool down) override {
    fabric_.set_endpoint_down(id, down);
  }
  void send(HostId from, HostId to, net::MessagePtr msg) override {
    fabric_.send(from, to, std::move(msg));
  }
  void multicast(HostId from, const std::vector<HostId>& to,
                 const net::MessagePtr& msg) override {
    for (const HostId dst : to) {
      if (dst != from) fabric_.send(from, dst, msg);
    }
  }

 private:
  Fabric& fabric_;
  std::shared_ptr<LoopCore> core_;
};

// ---------------------------------------------------------------------------
// ThreadedEnv

ThreadedEnv::ThreadedEnv(Fabric& fabric)
    : fabric_(fabric),
      core_(std::make_shared<LoopCore>(fabric.epoch())),
      port_(std::make_unique<Port>(fabric, core_)) {
  fabric_.register_env(this);
  thread_ = std::thread([core = core_] { core->run_loop(); });
}

ThreadedEnv::~ThreadedEnv() {
  stop();
  fabric_.forget_env(this);
}

sim::TimePoint ThreadedEnv::now() const {
  const auto since_epoch = SteadyClock::now() - core_->epoch;
  return sim::TimePoint::from_nanos(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
          .count());
}

Timer ThreadedEnv::make_timer() {
  return Timer(std::make_unique<ThreadedTimerImpl>(core_));
}

PeriodicTimer ThreadedEnv::make_periodic_timer() {
  return PeriodicTimer(std::make_unique<ThreadedPeriodicTimerImpl>(core_));
}

Transport& ThreadedEnv::transport() { return *port_; }

void ThreadedEnv::post(std::function<void()> fn) {
  static obs::Counter& posts =
      obs::Registry::global().counter("wan_env_posts_total{env=\"threaded\"}");
  posts.inc();
  LoopCore::post_at(core_, SteadyClock::now(), std::move(fn));
}

void ThreadedEnv::run_sync(std::function<void()> fn) {
  // The sync state is shared_ptr-held, not stack-held: the loop thread's
  // notify_one() may still be executing after the waiter has observed
  // done == true, so the waiter must not be the sole owner of the
  // condition variable it would then destroy.
  struct SyncState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto state = std::make_shared<SyncState>();
  const bool posted =
      LoopCore::post_at(core_, SteadyClock::now(),
                        [state, fn = std::move(fn)] {
                          fn();
                          {
                            std::lock_guard<std::mutex> lock(state->mu);
                            state->done = true;
                          }
                          state->cv.notify_one();
                        });
  WAN_REQUIRE(posted);  // run_sync after stop() would hang forever
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done; });
}

void ThreadedEnv::stop() {
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    core_->stopped = true;
  }
  core_->cv.notify_all();
  if (thread_.joinable()) thread_.join();
  // Release what is still queued: a periodic timer's shot owns its state,
  // which owns this core, so a queued shot is a cycle that would outlive the
  // env. The entries die outside the lock; their captures' destructors may
  // post (and be refused).
  decltype(core_->queue) abandoned;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    abandoned.swap(core_->queue);
  }
}

// ---------------------------------------------------------------------------
// LoopbackFabric

LoopbackFabric::LoopbackFabric(const EnvOptions& opts)
    : opts_(opts), rng_(opts.seed) {
  WAN_REQUIRE(opts_.loss >= 0.0 && opts_.loss < 1.0);
  WAN_REQUIRE(!opts_.delay.is_negative());
  WAN_REQUIRE(!opts_.jitter.is_negative());
}

std::uint64_t LoopbackFabric::delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

std::uint64_t LoopbackFabric::sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sent_;
}

void LoopbackFabric::attach(HostId id, std::shared_ptr<LoopCore> core,
                            Transport::Handler handler) {
  WAN_REQUIRE(id.valid());
  WAN_REQUIRE(handler != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[id] = Endpoint{std::move(core), std::move(handler), false};
}

void LoopbackFabric::set_endpoint_down(HostId id, bool down) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = endpoints_.find(id);
  WAN_REQUIRE(it != endpoints_.end());
  it->second.down = down;
}

void LoopbackFabric::send(HostId from, HostId to, net::MessagePtr msg) {
  WAN_REQUIRE(msg != nullptr);
  static obs::Counter& sends =
      obs::Registry::global().counter("wan_env_sends_total{env=\"threaded\"}");
  sends.inc();
  std::shared_ptr<LoopCore> dest;
  Transport::Handler handler;
  std::chrono::nanoseconds delay{};
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++sent_;
    const auto src = endpoints_.find(from);
    if (src == endpoints_.end() || src->second.down) return;
    const auto dst = endpoints_.find(to);
    if (dst == endpoints_.end() || dst->second.down) return;
    if (from != to) {
      if (opts_.loss > 0.0 && rng_.next_double() < opts_.loss) return;
      delay = to_chrono(opts_.delay);
      if (!opts_.jitter.is_zero()) {
        delay += std::chrono::nanoseconds(static_cast<std::int64_t>(
            rng_.next_below(static_cast<std::uint64_t>(
                opts_.jitter.count_nanos() + 1))));
      }
    }
    dest = dst->second.core;
    handler = dst->second.handler;
    ++delivered_;
  }
  LoopCore::post_at(
      dest, SteadyClock::now() + delay,
      [handler = std::move(handler), from, msg = std::move(msg)] {
        handler(from, msg);
      });
}

}  // namespace wan::runtime
