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

}  // namespace wan::runtime
