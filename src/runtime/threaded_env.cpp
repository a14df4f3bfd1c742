#include "runtime/threaded_env.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace wan::runtime {

using SteadyClock = std::chrono::steady_clock;

namespace {

std::chrono::nanoseconds to_chrono(sim::Duration d) noexcept {
  return std::chrono::nanoseconds(d.count_nanos());
}

obs::Counter& threaded_timer_arms() {
  static obs::Counter& c = obs::Registry::global().counter(
      "wan_env_timer_arms_total{env=\"threaded\"}");
  return c;
}

// One worker slot for the timer's lifetime. Re-arming and cancelling bump
// the slot's generation, so a superseded shot never fires.
class WorkerTimer final : public TimerImpl, public PeriodicTimerImpl {
 public:
  WorkerTimer(std::shared_ptr<Worker> worker, Worker::Node* node)
      : worker_(std::move(worker)), slot_(worker_->new_timer(node)) {}
  ~WorkerTimer() override { worker_->free_timer(slot_); }

  // Arming reads the clock itself rather than using the dispatch time, so
  // a deadline is never earlier than the real arm time plus the delay.
  void arm(sim::Duration delay, std::function<void()> fn) override {
    threaded_timer_arms().inc();
    worker_->arm(slot_, SteadyClock::now() + to_chrono(delay), std::move(fn));
  }
  void cancel() noexcept override { worker_->cancel(slot_); }
  [[nodiscard]] bool pending() const noexcept override {
    return worker_->pending(slot_);
  }

  void start(sim::Duration initial_delay, sim::Duration period,
             std::function<void()> fn) override {
    worker_->arm(slot_, SteadyClock::now() + to_chrono(initial_delay),
                 std::move(fn), to_chrono(period));
  }
  void stop() noexcept override { cancel(); }
  [[nodiscard]] bool running() const noexcept override { return pending(); }

 private:
  const std::shared_ptr<Worker> worker_;
  const std::uint32_t slot_;
};

}  // namespace

// ---------------------------------------------------------------------------
// ThreadedEnv

ThreadedEnv::ThreadedEnv(Fabric& fabric)
    : fabric_(fabric),
      worker_(fabric.shared_worker()),
      node_(worker_->add_node()) {}

ThreadedEnv::~ThreadedEnv() { stop(); }

void ThreadedEnv::multicast(HostId from, const std::vector<HostId>& to,
                            const net::MessagePtr& msg) {
  for (const HostId dst : to) {
    if (dst != from) fabric_.send(from, dst, msg);
  }
}

sim::TimePoint ThreadedEnv::now() const {
  const SteadyClock::time_point t =
      worker_->on_thread() ? worker_->dispatch_time() : SteadyClock::now();
  return sim::TimePoint::from_nanos(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - fabric_.epoch())
          .count());
}

Timer ThreadedEnv::make_timer() {
  return Timer(std::make_unique<WorkerTimer>(worker_, node_));
}

PeriodicTimer ThreadedEnv::make_periodic_timer() {
  return PeriodicTimer(std::make_unique<WorkerTimer>(worker_, node_));
}

void ThreadedEnv::post(std::function<void()> fn) {
  static obs::Counter& posts =
      obs::Registry::global().counter("wan_env_posts_total{env=\"threaded\"}");
  posts.inc();
  worker_->post(node_, std::move(fn));
}

void ThreadedEnv::run_sync(std::function<void()> fn) {
  const bool posted = worker_->run_sync(node_, std::move(fn));
  WAN_REQUIRE_MSG(posted, "run_sync after stop(): the work would never run");
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

void LoopbackFabric::attach(HostId id, Worker::Node* node,
                            Transport::Handler handler) {
  WAN_REQUIRE(id.valid());
  WAN_REQUIRE(handler != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[id] = Endpoint{node, std::move(handler), false};
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
  Worker::Node* dest = nullptr;
  Transport::Handler handler;
  std::chrono::nanoseconds delay{};
  {
    std::lock_guard<std::mutex> lock(mu_);
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
    dest = dst->second.node;
    handler = dst->second.handler;
    ++delivered_;
  }
  auto deliver = [handler = std::move(handler), from, msg = std::move(msg)] {
    handler(from, msg);
  };
  if (delay.count() == 0) {
    worker().post(dest, std::move(deliver));
  } else {
    worker().post_at(dest, SteadyClock::now() + delay, std::move(deliver));
  }
}

}  // namespace wan::runtime
