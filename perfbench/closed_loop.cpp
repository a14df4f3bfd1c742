// Closed-loop access-check / revocation benchmark over real loopback sockets.
//
// One process hosts the deployment bench_throughput's Rig builds: 3 managers
// (M = 3, C = 2, update quorum 2), 4 application hosts and a driver endpoint,
// each node on its own runtime::ThreadedEnv, all sharing one reactor socket
// bound to 127.0.0.1, so every frame crosses the kernel. Te is 2 minutes, so
// no cached entry expires during a run.
//
// The nodes are composed here the way proto::AppHost / proto::ManagerHost
// compose them, so a traced run can time each module's on_message by message
// type without any change to the program under test.
//
// The load generator is a closed loop living in the driver endpoint's reply
// handler: a reply (or an update-quorum completion) issues the next request,
// so the generator adds one loop thread and never spins.
//
// Workloads (the seed picks the user population and its order):
//   check_hit    32 in-flight checks of granted users, answered from the host
//                ACL cache: transport, loop handoff, auth verify, cache
//                decision, reply. Managers and quorums are bypassed.
//   check_miss   32 in-flight checks of authenticated users holding no right
//                (only grants are cached): every check is a full C-quorum
//                round ending in a deny. Loads the manager query path and the
//                quorum wait; bypasses the host cache.
//   revoke_churn 2 chains, each repeating grant -> check at all 4 hosts ->
//                revoke, then moving to the next user of its own pool; the
//                issuing manager rotates per round. One op is one round.
//
// Usage:
//   closed_loop --workload NAME --seed N --seconds S --trace 0|1
// The last stdout line is the result object; the line before it carries the
// diagnostics (throughput, tails, host noise).
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "acl/cache.hpp"
#include "acl/store.hpp"
#include "auth/authenticator.hpp"
#include "auth/credentials.hpp"
#include "nameservice/name_service.hpp"
#include "net/codec.hpp"
#include "obs/metrics.hpp"
#include "proto/access_controller.hpp"
#include "proto/manager.hpp"
#include "proto/wire.hpp"
#include "runtime/backend.hpp"
#include "runtime/env_options.hpp"
#include "runtime/socket_base.hpp"
#include "runtime/threaded_env.hpp"
#include "util/rng.hpp"

namespace wan::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr AppId kApp{1};
constexpr int kManagers = 3;
constexpr int kHosts = 4;
constexpr std::uint32_t kDriverId = 999;
constexpr std::uint32_t kUserBase = 10'000;
constexpr const char* kPayload = "x";

constexpr int kCheckDepth = 32;   ///< in-flight checks (check_hit/check_miss)
constexpr int kUsersPerSlot = 32;  ///< each check slot cycles its own users
constexpr int kResident = kCheckDepth * kUsersPerSlot;  ///< granted at set-up
constexpr int kSeedWindow = 32;    ///< seeding grants in flight per manager
// Two chains already reach the round rate of sixteen (about 2000 rounds/s on
// an idle 4-vCPU host); more chains only queue, which turns every latency
// into a proxy for throughput, and throughput moves with host steal.
constexpr int kChains = 2;         ///< revoke_churn chains
constexpr int kUsersPerChain = 64;
constexpr int kSetups = 15;        ///< set-ups per run; setup_s is their median

constexpr auto kCheckTimeout = std::chrono::milliseconds(1000);
constexpr auto kUpdateTimeout = std::chrono::milliseconds(5000);
constexpr auto kScanPeriod = std::chrono::milliseconds(20);
constexpr auto kProbePeriod = std::chrono::milliseconds(5);
/// After a drain, long enough for every frame still owed by the last ops
/// (third query responses, revocation fan-out and acks) to be delivered.
constexpr auto kSettle = std::chrono::milliseconds(100);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "closed_loop: %s\n", why.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Fine latency histogram: exact below 1024 ns, then 1024 linear sub-buckets
// per power of two (0.1% relative width), up to ~68 s. Its memory is fixed
// and touched at construction, so a run's RSS does not depend on how many
// samples it records.

class FineHisto {
 public:
  FineHisto() : counts_(kBuckets, 0) {}

  void record(std::int64_t ns) {
    const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
    ++counts_[index(v)];
    ++n_;
    sum_ += static_cast<double>(v);
  }
  void reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    n_ = 0;
    sum_ = 0.0;
  }
  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean_ns() const {
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  }

  /// Quantile in ns, interpolated by rank inside the bucket.
  [[nodiscard]] double quantile_ns(double q) const {
    if (n_ == 0) return 0.0;
    const double target =
        std::clamp(q * static_cast<double>(n_), 0.5, static_cast<double>(n_));
    double cum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c == 0.0) continue;
      if (cum + c >= target) {
        const double frac = (target - cum - 0.5) / c + 0.5 / c;
        return lower(i) + width(i) * std::clamp(frac, 0.0, 1.0);
      }
      cum += c;
    }
    return lower(counts_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr int kOctaves = 26;
  static constexpr std::size_t kBuckets = (kOctaves + 1) * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int octave = msb - (kSubBits - 1);
    if (octave > kOctaves) return kBuckets - 1;
    const std::uint64_t sub = (v >> (msb - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(octave) * kSub + sub;
  }
  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t octave = i / kSub;
    const std::uint64_t sub = i % kSub;
    return static_cast<double>((kSub + sub) << (octave - 1));
  }
  static double width(std::size_t i) {
    if (i < kSub) return 1.0;
    return static_cast<double>(std::uint64_t{1} << (i / kSub - 1));
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

// ---------------------------------------------------------------------------
// Process and host readings.

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  die("no VmHWM in /proc/self/status");
}

/// Aggregate CPU line of /proc/stat, in clock ticks.
struct CpuTicks {
  double busy = 0.0;   ///< user + nice + system + irq + softirq
  double steal = 0.0;
  double total = 0.0;  ///< the above + idle + iowait
};

CpuTicks read_proc_stat() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (double& x : v) in >> x;
  // user nice system idle iowait irq softirq steal
  t.busy = v[0] + v[1] + v[2] + v[5] + v[6];
  t.steal = v[7];
  t.total = t.busy + v[3] + v[4] + v[7];
  return t;
}

/// Sum of every wan_udp_drops_total{reason=...} series.
std::uint64_t socket_drops() {
  std::istringstream text(obs::Registry::global().prometheus_text());
  std::string line;
  std::uint64_t sum = 0;
  while (std::getline(text, line)) {
    if (line.rfind("wan_udp_drops_total", 0) != 0) continue;
    const auto sp = line.rfind(' ');
    if (sp != std::string::npos) {
      sum += std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    }
  }
  return sum;
}

obs::Counter& counter(const char* name) {
  return obs::Registry::global().counter(name);
}

struct Counters {
  std::uint64_t frames = 0, posts = 0, timer_arms = 0, drops = 0, queries = 0,
                fanout = 0;
  static Counters read() {
    Counters c;
    c.frames = counter("wan_udp_frames_sent_total").value();
    c.posts = counter("wan_env_posts_total{env=\"threaded\"}").value();
    c.timer_arms = counter("wan_env_timer_arms_total{env=\"threaded\"}").value();
    c.drops = socket_drops();
    c.queries = counter("wan_queries_sent_total").value();
    c.fanout = counter("wan_revoke_fanout_frames_total").value();
    return c;
  }
};

// ---------------------------------------------------------------------------
// Per-layer stage timers (traced runs only). Each node's handler adds its own
// time with relaxed atomics, so the main thread can read deltas while the
// loops run.

enum Stage : int {
  kSend,          ///< driver Fabric::send
  kHostInvoke,    ///< AccessController::on_message(InvokeRequest)
  kHostResponse,  ///< AccessController::on_message(QueryResponse)
  kHostRevoke,    ///< AccessController::on_message(RevokeNotify/RevokeBatch)
  kMgrQuery,      ///< ManagerModule::on_message(QueryRequest)
  kMgrUpdate,     ///< submit_update + every other ManagerModule::on_message
  kStageCount,
};

struct StageClock {
  std::array<std::atomic<std::uint64_t>, kStageCount> ns{};
  std::array<std::uint64_t, kStageCount> snapshot() const {
    std::array<std::uint64_t, kStageCount> out{};
    for (int i = 0; i < kStageCount; ++i) out[i] = ns[i].load(std::memory_order_relaxed);
    return out;
  }
};

/// Frames captured in a traced run, replayed through the codec afterwards.
struct FrameSample {
  HostId from;
  HostId to;
  net::MessagePtr msg;
};

/// Signed-request inputs captured in a traced run, replayed through sign()
/// and Authenticator::authenticate afterwards.
struct SignSample {
  UserId user;
  std::uint64_t nonce = 0;
  std::uint64_t secret = 0;
  auth::Signature sig;
};

constexpr std::size_t kMaxFrameSamples = 4096;
constexpr std::size_t kMaxSignSamples = 4096;

/// Post-to-run delay of probes posted onto one node class.
struct LagProbe {
  std::mutex mu;
  FineHisto histo;  ///< guarded by mu
};

enum class Workload { kCheckHit, kCheckMiss, kRevokeChurn };

// ---------------------------------------------------------------------------
// The deployment plus its load generator.

class Bench {
 public:
  Bench(Workload workload, std::uint64_t seed, bool traced)
      : workload_(workload), traced_(traced) {
    build_rig();
    build_population(seed);
    seed_grants();
    driver_env().run_sync([this] {
      const pthread_t self = pthread_self();
      pthread_getcpuclockid(self, &driver_cpu_clock_);
    });
  }

  ~Bench() {
    // Stop every loop and the reactor before any module is destroyed.
    socket_->shutdown();
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Runs the closed loop until `ops` ops have completed (warm-up).
  void warm_up(std::uint64_t ops) {
    driver_env().run_sync([this] { start_load(); });
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (completed_.load(std::memory_order_relaxed) < ops) {
      if (Clock::now() > deadline) die("warm-up did not complete");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Opens the measurement window: counters and samples restart from zero.
  void begin_window() {
    driver_env().run_sync([this] {
      latency_.reset();
      check_latency_.reset();
      update_latency_.reset();
      recording_ = true;
      recording_flag_.store(true, std::memory_order_relaxed);
    });
  }
  /// Closes the window; ops completing afterwards are checked, not timed.
  void end_window() {
    driver_env().run_sync([this] {
      recording_ = false;
      recording_flag_.store(false, std::memory_order_relaxed);
      latency_snap_ = latency_;
      check_latency_snap_ = check_latency_;
      update_latency_snap_ = update_latency_;
    });
  }
  /// Stops issuing and waits for the in-flight ops to finish or time out.
  void drain() {
    driver_env().run_sync([this] { stopping_ = true; });
    const auto deadline = Clock::now() + kUpdateTimeout + std::chrono::seconds(1);
    for (;;) {
      int outstanding = 0;
      driver_env().run_sync([this, &outstanding] { outstanding = outstanding_ops(); });
      if (outstanding == 0) return;
      if (Clock::now() > deadline) {
        driver_env().run_sync([this] { abandon_outstanding(); });
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Restarts issuing after drain().
  void resume() {
    driver_env().run_sync([this] {
      stopping_ = false;
      for (std::size_t s = 0; s < slots_.size(); ++s) next_op(s);
    });
  }

  void start_probes() {
    driver_env().run_sync([this] {
      probe_timer_ = driver_env().make_periodic_timer();
      probe_timer_.start(sim::Duration::millis(kProbePeriod.count()),
                         [this] { fire_probes(); });
    });
  }
  void stop_probes() {
    driver_env().run_sync([this] { probe_timer_.stop(); });
  }

  /// Runs `fn` on the driver loop, where the probes fire, so a reading taken
  /// there never splits one probe's post from its count.
  void on_driver(const std::function<void()>& fn) { driver_env().run_sync(fn); }

  // --- readings (thread-safe) ----------------------------------------------
  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t mismatches() const {
    return mismatches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t replies() const {
    return replies_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t revokes() const {
    return revokes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t probe_posts() const {
    return probe_posts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double driver_cpu_s() const { return thread_cpu_s(driver_cpu_clock_); }
  [[nodiscard]] const StageClock& stages() const { return stages_; }

  // Valid after end_window().
  [[nodiscard]] const FineHisto& latency() const { return latency_snap_; }
  [[nodiscard]] const FineHisto& check_latency() const { return check_latency_snap_; }
  [[nodiscard]] const FineHisto& update_latency() const { return update_latency_snap_; }
  [[nodiscard]] LagProbe& lag(int cls) { return lag_[static_cast<std::size_t>(cls)]; }

  /// revoke_churn, once drained: a user whose last round completed its
  /// revoke must no longer hold the right at any manager nor sit in any host
  /// cache. Returns the number of (node, user) pairs that still do; users left
  /// in doubt by a failed or abandoned round are skipped.
  std::uint64_t stale_grants() {
    std::uint64_t stale = 0;
    for (int m = 0; m < kManagers; ++m) {
      manager_env(m).run_sync([this, m, &stale] {
        const acl::AclStore* store = managers_[static_cast<std::size_t>(m)]->store(kApp);
        for (const UserId user : churn_users()) {
          stale += store != nullptr && store->check(user, acl::Right::kUse);
        }
      });
    }
    for (int h = 0; h < kHosts; ++h) {
      host_env(h).run_sync([this, h, &stale] {
        const acl::AclCache* cache = controllers_[static_cast<std::size_t>(h)]->cache(kApp);
        for (const UserId user : churn_users()) {
          stale += cache != nullptr && cache->peek(user).has_value();
        }
      });
    }
    return stale;
  }

  /// Codec replay over the captured frame mix: mean ns per frame.
  std::pair<double, double> replay_codec() {
    std::vector<FrameSample> frames;
    {
      std::lock_guard<std::mutex> lk(frame_mu_);
      frames = frame_samples_;
    }
    if (frames.empty()) return {0.0, 0.0};
    const auto& codec = net::CodecRegistry::global();
    std::vector<std::vector<std::uint8_t>> wire(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (!codec.encode_into(frames[i].from, frames[i].to, *frames[i].msg, &wire[i])) {
        die("captured frame does not encode");
      }
    }
    const int reps = std::max<int>(1, static_cast<int>(200'000 / frames.size()));
    std::vector<std::uint8_t> buf;
    buf.reserve(2048);
    std::size_t sink = 0;
    const auto e0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (const FrameSample& f : frames) {
        codec.encode_into(f.from, f.to, *f.msg, &buf);
        sink += buf.size();
      }
    }
    const auto e1 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (const auto& w : wire) {
        const auto d = codec.decode(w.data(), w.size());
        if (!d.ok()) die("captured frame does not decode");
        sink += d.frame->msg != nullptr;
      }
    }
    const auto e2 = Clock::now();
    if (sink == 0) die("codec replay produced nothing");
    const double n = static_cast<double>(frames.size()) * reps;
    return {std::chrono::duration<double, std::nano>(e1 - e0).count() / n,
            std::chrono::duration<double, std::nano>(e2 - e1).count() / n};
  }

  /// Sign/verify replay over the captured request inputs: mean ns per call.
  std::pair<double, double> replay_auth() {
    // Written by the driver loop only while recording; the window is closed.
    const std::vector<SignSample> samples = sign_samples_;
    if (samples.empty()) return {0.0, 0.0};
    const int reps = std::max<int>(1, static_cast<int>(200'000 / samples.size()));
    std::uint64_t sink = 0;
    const auto s0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (const SignSample& s : samples) {
        sink += auth::sign(s.user, auth::Authenticator::signed_bytes(kPayload, s.nonce),
                           s.secret)
                    .value;
      }
    }
    const auto s1 = Clock::now();
    double verify_ns = 0.0;
    for (int r = 0; r < reps; ++r) {
      auth::Authenticator verifier(keys_);
      const auto v0 = Clock::now();
      for (const SignSample& s : samples) {
        if (verifier.authenticate(s.user, kPayload, s.nonce, s.sig) !=
            auth::AuthResult::kOk) {
          die("captured request does not verify");
        }
      }
      verify_ns += std::chrono::duration<double, std::nano>(Clock::now() - v0).count();
    }
    if (sink == 0) die("sign replay produced nothing");
    const double n = static_cast<double>(samples.size()) * reps;
    return {std::chrono::duration<double, std::nano>(s1 - s0).count() / n,
            verify_ns / n};
  }

 private:
  // --- deployment ----------------------------------------------------------

  runtime::ThreadedEnv& driver_env() { return *envs_.back(); }
  runtime::ThreadedEnv& manager_env(int m) { return *envs_[static_cast<std::size_t>(m)]; }
  runtime::ThreadedEnv& host_env(int h) {
    return *envs_[static_cast<std::size_t>(kManagers + h)];
  }

  void build_rig() {
    proto::register_wire_messages();
    runtime::EnvOptions opts;
    opts.backend = runtime::BackendKind::kReactor;
    opts.listen = "127.0.0.1:0";
    std::string error;
    fabric_ = runtime::make_fabric(opts, &error);
    if (fabric_ == nullptr) die("fabric construction failed: " + error);
    socket_ = runtime::fabric_as_socket(fabric_.get());
    if (socket_ == nullptr) die("reactor fabric has no socket");
    const runtime::NodeAddress self{"127.0.0.1", socket_->local_port()};
    for (int m = 0; m < kManagers; ++m) {
      manager_ids_.push_back(HostId(static_cast<std::uint32_t>(m)));
      socket_->add_peer(manager_ids_.back(), self);
    }
    for (int h = 0; h < kHosts; ++h) {
      host_ids_.push_back(HostId(static_cast<std::uint32_t>(100 + h)));
      socket_->add_peer(host_ids_.back(), self);
    }
    socket_->add_peer(HostId(kDriverId), self);

    config_.check_quorum = 2;
    config_.Te = sim::Duration::minutes(2);
    for (int i = 0; i < kManagers + kHosts + 1; ++i) {
      envs_.push_back(std::make_unique<runtime::ThreadedEnv>(*fabric_));
    }
    names_.set_managers(kApp, manager_ids_);

    for (int m = 0; m < kManagers; ++m) {
      auto& env = manager_env(m);
      managers_.push_back(std::make_unique<proto::ManagerModule>(
          manager_ids_[static_cast<std::size_t>(m)], env,
          clk::LocalClock::perfect(), config_));
      proto::ManagerModule* mod = managers_.back().get();
      const HostId id = manager_ids_[static_cast<std::size_t>(m)];
      env.transport().register_endpoint(
          id, [this, mod, id](HostId from, const net::MessagePtr& msg) {
            if (!traced_) {
              mod->on_message(from, msg);
              return;
            }
            capture(from, id, msg);
            const Stage st = net::message_cast<proto::QueryRequest>(msg) != nullptr
                                 ? kMgrQuery
                                 : kMgrUpdate;
            const std::int64_t t0 = now_ns();
            mod->on_message(from, msg);
            add_stage(st, now_ns() - t0);
          });
      env.run_sync([this, mod] { mod->manage_app(kApp, manager_ids_); });
    }

    for (int h = 0; h < kHosts; ++h) {
      auto& env = host_env(h);
      controllers_.push_back(std::make_unique<proto::AccessController>(
          host_ids_[static_cast<std::size_t>(h)], env, clk::LocalClock::perfect(),
          names_, keys_, config_));
      proto::AccessController* ac = controllers_.back().get();
      const HostId id = host_ids_[static_cast<std::size_t>(h)];
      env.transport().register_endpoint(
          id, [this, ac, id](HostId from, const net::MessagePtr& msg) {
            if (!traced_) {
              ac->on_message(from, msg);
              return;
            }
            capture(from, id, msg);
            Stage st = kHostRevoke;
            if (net::message_cast<proto::InvokeRequest>(msg) != nullptr) {
              st = kHostInvoke;
            } else if (net::message_cast<proto::QueryResponse>(msg) != nullptr) {
              st = kHostResponse;
            }
            const std::int64_t t0 = now_ns();
            ac->on_message(from, msg);
            add_stage(st, now_ns() - t0);
          });
      env.run_sync([ac] {
        ac->register_app(kApp, [](UserId, const std::string& p) { return p; });
      });
    }

    driver_env().transport().register_endpoint(
        HostId(kDriverId), [this](HostId from, const net::MessagePtr& msg) {
          if (traced_) capture(from, HostId(kDriverId), msg);
          if (const auto* reply = net::message_cast<proto::InvokeReply>(msg)) {
            on_reply(*reply);
          }
        });
  }

  void add_stage(Stage st, std::int64_t ns) {
    stages_.ns[st].fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
  }

  void capture(HostId from, HostId to, const net::MessagePtr& msg) {
    if (!recording_flag_.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lk(frame_mu_);
    if (frame_samples_.size() < kMaxFrameSamples) {
      frame_samples_.push_back(FrameSample{from, to, msg});
    }
  }

  /// Users, keys and slot pools. Every workload's ACL holds kResident
  /// granted users; check_hit cycles over them, while check_miss and
  /// revoke_churn cycle over users of their own that start with no right.
  /// The seed permutes which ids form each population and the order each
  /// slot cycles through its pool.
  void build_population(std::uint64_t seed) {
    Rng rng(seed);
    const bool churn = workload_ == Workload::kRevokeChurn;
    const int slots = churn ? kChains : kCheckDepth;
    const int per_slot = churn ? kUsersPerChain : kUsersPerSlot;
    const int first = workload_ == Workload::kCheckHit ? 0 : kResident;
    const int n = first + slots * per_slot;
    std::vector<std::uint32_t> ids(static_cast<std::size_t>(4 * n));
    std::iota(ids.begin(), ids.end(), kUserBase);
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[static_cast<std::size_t>(rng.next_below(i + 1))]);
    }
    users_.resize(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) {
      User& user = users_[static_cast<std::size_t>(u)];
      user.id = UserId(ids[static_cast<std::size_t>(u)]);
      user.keys = auth::generate_keypair(rng);
      keys_.register_user(user.id, user.keys.public_key);
    }
    slots_.resize(static_cast<std::size_t>(slots));
    for (int s = 0; s < slots; ++s) {
      Slot& slot = slots_[static_cast<std::size_t>(s)];
      slot.host = s % kHosts;
      slot.manager = s % kManagers;
      for (int k = 0; k < per_slot; ++k) slot.pool.push_back(first + s * per_slot + k);
    }
  }

  /// ACL seeding: grants the resident users, kSeedWindow updates in flight
  /// per manager so the burst never overruns the transport's send queue.
  /// Every grant must reach its update quorum.
  void seed_grants() {
    seed_left_ = kResident;
    for (int m = 0; m < kManagers; ++m) {
      seed_cursor_[static_cast<std::size_t>(m)] = static_cast<std::size_t>(m);
      manager_env(m).run_sync([this, m] {
        for (int i = 0; i < kSeedWindow; ++i) seed_next(m);
      });
    }
    std::unique_lock<std::mutex> lk(seed_mu_);
    if (!seed_cv_.wait_for(lk, std::chrono::seconds(60), [this] { return seed_left_ == 0; })) {
      die("seed grants did not reach quorum");
    }
  }

  /// Manager m's loop thread: submits m's next resident grant, if any.
  void seed_next(int m) {
    std::size_t& cursor = seed_cursor_[static_cast<std::size_t>(m)];
    if (cursor >= static_cast<std::size_t>(kResident)) return;
    const UserId user = users_[cursor].id;
    cursor += kManagers;
    managers_[static_cast<std::size_t>(m)]->submit_update(
        kApp, acl::Op::kAdd, user, acl::Right::kUse, [this, m](const proto::UpdateOutcome&) {
          {
            std::lock_guard<std::mutex> lk(seed_mu_);
            if (--seed_left_ == 0) seed_cv_.notify_one();
          }
          seed_next(m);
        });
  }

  // --- load generator (driver loop thread only) ----------------------------

  struct User {
    UserId id;
    auth::KeyPair keys;
    std::uint64_t nonce = 0;
    bool in_doubt = false;  ///< revoke_churn: a round of this user failed
  };

  /// revoke_churn users not left in doubt (read once the load is drained).
  std::vector<UserId> churn_users() const {
    std::vector<UserId> out;
    for (const Slot& slot : slots_) {
      for (const int u : slot.pool) {
        const User& user = users_[static_cast<std::size_t>(u)];
        if (!user.in_doubt) out.push_back(user.id);
      }
    }
    return out;
  }

  enum class Phase { kIdle, kCheck, kGrant, kChecks, kRevoke };

  struct Slot {
    int host = 0;
    int manager = 0;
    std::vector<int> pool;
    std::size_t cursor = 0;
    int user = 0;                 ///< index into users_
    Phase phase = Phase::kIdle;
    std::uint32_t gen = 0;        ///< bumps on every new request/update
    std::int64_t sent_ns = 0;     ///< check: request send time
    std::int64_t phase_ns = 0;    ///< update phases: submit time
    std::int64_t round_ns = 0;    ///< revoke_churn: round start
    Clock::time_point deadline{};
    int replies_left = 0;         ///< revoke_churn: post-grant checks pending
    std::array<std::uint32_t, kHosts> check_gen{};
    std::array<std::int64_t, kHosts> check_sent{};
    std::array<Clock::time_point, kHosts> check_deadline{};
    std::array<bool, kHosts> check_done{};
  };

  void start_load() {
    scan_timer_ = driver_env().make_periodic_timer();
    scan_timer_.start(sim::Duration::millis(kScanPeriod.count()), [this] { scan(); });
    for (std::size_t s = 0; s < slots_.size(); ++s) next_op(s);
  }

  void next_op(std::size_t s) {
    Slot& slot = slots_[s];
    if (stopping_) {
      slot.phase = Phase::kIdle;
      return;
    }
    slot.user = slot.pool[slot.cursor];
    slot.cursor = (slot.cursor + 1) % slot.pool.size();
    if (workload_ == Workload::kRevokeChurn) {
      slot.manager = (slot.manager + 1) % kManagers;  // every manager issues
      slot.round_ns = now_ns();
      submit(s, Phase::kGrant);
    } else {
      slot.phase = Phase::kCheck;
      slot.sent_ns = now_ns();
      slot.deadline = Clock::now() + kCheckTimeout;
      send_invoke(s, slot.host, ++slot.gen);
    }
  }

  /// request_id = slot | host | generation, so a reply finds its slot and a
  /// reply to a superseded (timed-out) request is recognised and ignored.
  static std::uint64_t request_id(std::size_t s, int host, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 16) |
           (static_cast<std::uint64_t>(host) << 8) | static_cast<std::uint64_t>(s);
  }

  void send_invoke(std::size_t s, int host, std::uint32_t gen) {
    User& user = users_[static_cast<std::size_t>(slots_[s].user)];
    const std::uint64_t nonce = ++user.nonce;
    const auth::Signature sig = auth::sign(
        user.id, auth::Authenticator::signed_bytes(kPayload, nonce), user.keys.secret);
    if (traced_ && recording_ && sign_samples_.size() < kMaxSignSamples) {
      sign_samples_.push_back(SignSample{user.id, nonce, user.keys.secret, sig});
    }
    auto msg = net::make_message<proto::InvokeRequest>(
        kApp, user.id, request_id(s, host, gen), nonce, sig, kPayload, 0);
    const HostId to = host_ids_[static_cast<std::size_t>(host)];
    if (traced_) {
      const std::int64_t t0 = now_ns();
      fabric_->send(HostId(kDriverId), to, std::move(msg));
      add_stage(kSend, now_ns() - t0);
    } else {
      fabric_->send(HostId(kDriverId), to, std::move(msg));
    }
  }

  void on_reply(const proto::InvokeReply& reply) {
    const std::size_t s = reply.request_id & 0xff;
    const int host = static_cast<int>((reply.request_id >> 8) & 0xff);
    const auto gen = static_cast<std::uint32_t>(reply.request_id >> 16);
    if (s >= slots_.size() || host >= kHosts) return;
    Slot& slot = slots_[s];
    const std::int64_t now = now_ns();
    if (workload_ != Workload::kRevokeChurn) {
      if (slot.phase != Phase::kCheck || gen != slot.gen) return;  // superseded
      replies_.fetch_add(1, std::memory_order_relaxed);
      const bool want_allow = workload_ == Workload::kCheckHit;
      if (!decision_ok(reply, want_allow)) {
        fail_op(true);
      } else {
        if (recording_) latency_.record(now - slot.sent_ns);
        complete_op();
      }
      next_op(s);
      return;
    }
    if (slot.phase != Phase::kChecks || gen != slot.check_gen[static_cast<std::size_t>(host)] ||
        slot.check_done[static_cast<std::size_t>(host)]) {
      return;
    }
    replies_.fetch_add(1, std::memory_order_relaxed);
    slot.check_done[static_cast<std::size_t>(host)] = true;
    if (!decision_ok(reply, true)) {
      fail_op(true);
      restart_chain(s);
      return;
    }
    if (recording_) {
      check_latency_.record(now - slot.check_sent[static_cast<std::size_t>(host)]);
    }
    if (--slot.replies_left == 0) submit(s, Phase::kRevoke);
  }

  static bool decision_ok(const proto::InvokeReply& reply, bool want_allow) {
    if (want_allow) return reply.accepted && reply.result == kPayload;
    return !reply.accepted && reply.reason == proto::DenyReason::kNotAuthorized;
  }

  /// revoke_churn: grant or revoke the slot's user at the chain's manager;
  /// the quorum completion hops back onto the driver loop.
  void submit(std::size_t s, Phase phase) {
    Slot& slot = slots_[s];
    slot.phase = phase;
    slot.phase_ns = now_ns();
    slot.deadline = Clock::now() + kUpdateTimeout;
    const std::uint32_t gen = ++slot.gen;
    const UserId user = users_[static_cast<std::size_t>(slot.user)].id;
    const acl::Op op = phase == Phase::kGrant ? acl::Op::kAdd : acl::Op::kRevoke;
    proto::ManagerModule* mod = managers_[static_cast<std::size_t>(slot.manager)].get();
    runtime::ThreadedEnv* driver = &driver_env();
    manager_env(slot.manager).post([this, mod, driver, s, gen, user, op] {
      auto done = [this, driver, s, gen](const proto::UpdateOutcome&) {
        driver->post([this, s, gen] { on_update(s, gen); });
      };
      if (!traced_) {
        mod->submit_update(kApp, op, user, acl::Right::kUse, std::move(done));
        return;
      }
      const std::int64_t t0 = now_ns();
      mod->submit_update(kApp, op, user, acl::Right::kUse, std::move(done));
      add_stage(kMgrUpdate, now_ns() - t0);
    });
  }

  void on_update(std::size_t s, std::uint32_t gen) {
    Slot& slot = slots_[s];
    if (gen != slot.gen) return;
    const std::int64_t now = now_ns();
    if (recording_) update_latency_.record(now - slot.phase_ns);
    if (slot.phase == Phase::kGrant) {
      slot.phase = Phase::kChecks;
      slot.replies_left = kHosts;
      for (int h = 0; h < kHosts; ++h) send_round_check(s, h);
    } else if (slot.phase == Phase::kRevoke) {
      users_[static_cast<std::size_t>(slot.user)].in_doubt = false;
      revokes_.fetch_add(1, std::memory_order_relaxed);
      if (recording_) latency_.record(now - slot.round_ns);
      complete_op();
      next_op(s);
    }
  }

  void send_round_check(std::size_t s, int h) {
    Slot& slot = slots_[s];
    const auto hi = static_cast<std::size_t>(h);
    slot.check_done[hi] = false;
    slot.check_gen[hi] = ++slot.gen;
    slot.check_sent[hi] = now_ns();
    slot.check_deadline[hi] = Clock::now() + kCheckTimeout;
    send_invoke(s, h, slot.check_gen[hi]);
  }

  /// A failed round leaves its user in an unknown state; the chain moves on
  /// to its next user. The late completion, if any, is ignored (gen bump).
  void restart_chain(std::size_t s) {
    users_[static_cast<std::size_t>(slots_[s].user)].in_doubt = true;
    ++slots_[s].gen;
    next_op(s);
  }

  void complete_op() { completed_.fetch_add(1, std::memory_order_relaxed); }
  void fail_op(bool mismatch) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (mismatch) mismatches_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Timeouts: an unanswered check counts as a failed op and is reissued as
  /// a new request, so one lost datagram cannot shrink the loop's depth; a
  /// non-quorate update fails its round.
  void scan() {
    const auto now = Clock::now();
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      switch (slot.phase) {
        case Phase::kCheck:
          if (now > slot.deadline) {
            fail_op(false);
            next_op(s);
          }
          break;
        case Phase::kGrant:
        case Phase::kRevoke:
          if (now > slot.deadline) {
            fail_op(false);
            restart_chain(s);
          }
          break;
        case Phase::kChecks:
          for (int h = 0; h < kHosts; ++h) {
            const auto hi = static_cast<std::size_t>(h);
            if (!slot.check_done[hi] && now > slot.check_deadline[hi]) {
              fail_op(false);
              send_round_check(s, h);
            }
          }
          break;
        case Phase::kIdle:
          break;
      }
    }
  }

  int outstanding_ops() const {
    int n = 0;
    for (const Slot& slot : slots_) n += slot.phase != Phase::kIdle;
    return n;
  }
  void abandon_outstanding() {
    for (Slot& slot : slots_) {
      if (slot.phase == Phase::kIdle) continue;
      fail_op(false);
      users_[static_cast<std::size_t>(slot.user)].in_doubt = true;
      slot.phase = Phase::kIdle;
      ++slot.gen;
    }
  }

  /// Posts a timestamped no-op onto the driver, one host and one manager.
  void fire_probes() {
    const std::int64_t t0 = now_ns();
    probe_round_ = (probe_round_ + 1) % (kHosts * kManagers);
    runtime::ThreadedEnv* targets[3] = {&driver_env(), &host_env(probe_round_ % kHosts),
                                        &manager_env(probe_round_ % kManagers)};
    for (int cls = 0; cls < 3; ++cls) {
      LagProbe* probe = &lag_[static_cast<std::size_t>(cls)];
      targets[cls]->post([probe, t0] {
        const std::int64_t lag = now_ns() - t0;
        std::lock_guard<std::mutex> lk(probe->mu);
        probe->histo.record(lag);
      });
      probe_posts_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // --- state ---------------------------------------------------------------

  const Workload workload_;
  const bool traced_;
  proto::ProtocolConfig config_;

  // Declaration order is teardown order in reverse: modules die before the
  // envs they run on, envs before the fabric they are attached to.
  std::unique_ptr<runtime::Fabric> fabric_;
  runtime::SocketTransport* socket_ = nullptr;
  ns::NameService names_;
  auth::KeyRegistry keys_;
  std::vector<HostId> manager_ids_;
  std::vector<HostId> host_ids_;
  std::vector<std::unique_ptr<runtime::ThreadedEnv>> envs_;
  std::vector<std::unique_ptr<proto::ManagerModule>> managers_;
  std::vector<std::unique_ptr<proto::AccessController>> controllers_;

  std::vector<User> users_;
  std::vector<Slot> slots_;
  std::array<std::size_t, kManagers> seed_cursor_{};  ///< per manager thread
  std::mutex seed_mu_;
  std::condition_variable seed_cv_;
  int seed_left_ = 0;  ///< guarded by seed_mu_
  runtime::PeriodicTimer scan_timer_;
  runtime::PeriodicTimer probe_timer_;
  int probe_round_ = 0;
  bool stopping_ = false;
  bool recording_ = false;  ///< driver thread; mirrored for capture()
  std::atomic<bool> recording_flag_{false};

  FineHisto latency_, check_latency_, update_latency_;
  FineHisto latency_snap_, check_latency_snap_, update_latency_snap_;
  std::array<LagProbe, 3> lag_;

  std::atomic<std::uint64_t> completed_{0}, failed_{0}, mismatches_{0},
      replies_{0}, revokes_{0}, probe_posts_{0};
  clockid_t driver_cpu_clock_{};
  StageClock stages_;

  std::mutex frame_mu_;
  std::vector<FrameSample> frame_samples_;  ///< guarded by frame_mu_
  std::vector<SignSample> sign_samples_;    ///< driver thread
};

// ---------------------------------------------------------------------------
// One run: set up kSetups deployments in turn (setup_s is the median of their
// set-up CPU times), warm up and measure the last for the requested seconds, print
// the result.

/// Per-layer readings at one quiescent point of a traced run.
struct LayerMarks {
  Counters c;
  std::array<std::uint64_t, kStageCount> stages{};
  std::uint64_t completed = 0, replies = 0, revokes = 0, probes = 0;

  static LayerMarks take(const Bench& b) {
    LayerMarks m;
    m.c = Counters::read();
    m.stages = b.stages().snapshot();
    m.completed = b.completed();
    m.replies = b.replies();
    m.revokes = b.revokes();
    m.probes = b.probe_posts();
    return m;
  }
};

struct Args {
  Workload workload = Workload::kCheckHit;
  std::string workload_name;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool traced = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) die("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload_name = value;
      have_workload = true;
      if (value == "check_hit") {
        a.workload = Workload::kCheckHit;
      } else if (value == "check_miss") {
        a.workload = Workload::kCheckMiss;
      } else if (value == "revoke_churn") {
        a.workload = Workload::kRevokeChurn;
      } else {
        die("unknown workload '" + value + "' (check_hit, check_miss, revoke_churn)");
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') die("--seed must be an integer");
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || s < 1 || s > 600) {
        die("--seconds must be an integer in [1, 600]");
      }
      a.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") die("--trace must be 0 or 1");
      a.traced = value == "1";
    } else {
      die("unknown flag " + flag);
    }
  }
  if (!have_workload) die("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Ordered name -> value list, printed as a JSON object.
struct JsonObject {
  std::vector<std::pair<std::string, std::string>> fields;
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    fields.emplace_back(k, buf);
  }
  void metric(const std::string& k, double v, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "{\"value\": %.9g, \"unit\": \"%s\"}", v, unit);
    fields.emplace_back(k, buf);
  }
  void raw(const std::string& k, std::string v) { fields.emplace_back(k, std::move(v)); }
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields[i].first + "\": " + fields[i].second;
    }
    return out + "}";
  }
};

/// The highest of these percentiles with at least 10 samples beyond it.
double tail_percentile(std::uint64_t n) {
  for (const double p : {99.99, 99.9, 99.0, 90.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

int run(const Args& args) {
  const bool churn = args.workload == Workload::kRevokeChurn;
  const std::uint64_t warm_ops =
      churn ? kChains * kUsersPerChain : 2 * kCheckDepth * kUsersPerSlot;

  // Each set-up is measured from the start of its construction until its ACL
  // is seeded; a deployment is torn down before the next is built. setup_s is
  // the median of their process CPU (all threads): their wall time follows
  // host steal, which is not charged to the process. rss_mb is the peak once
  // the first is set up, before any teardown, so it does not grow with kSetups.
  std::vector<double> setup_cpu, setup_wall;
  double rss = 0.0;
  std::unique_ptr<Bench> bench;
  for (int k = 0; k < kSetups; ++k) {
    bench.reset();
    const Clock::time_point t0 = Clock::now();
    const double c0 = process_cpu_s();
    bench = std::make_unique<Bench>(args.workload, args.seed, args.traced);
    setup_wall.push_back(seconds_since(t0));
    setup_cpu.push_back(process_cpu_s() - c0);
    if (k == 0) rss = peak_rss_mb();
  }
  bench->warm_up(warm_ops);

  // --- measurement window ---------------------------------------------------
  // cpu_us_per_op is the median over half-second sub-windows, so a burst of
  // host interference moves a few sub-windows, not the reported value.
  const int subwindows = std::clamp(2 * args.seconds, 1, 120);
  const auto sub = std::chrono::duration<double>(
      static_cast<double>(args.seconds) / subwindows);
  // A traced run takes its per-layer counts between two quiescent points (no
  // op in flight, every frame of the last op delivered), so a count per op
  // carries no edge effect from ops straddling the window.
  const auto quiesce = [&] {
    bench->drain();
    std::this_thread::sleep_for(kSettle);
    LayerMarks marks;
    bench->on_driver([&] { marks = LayerMarks::take(*bench); });
    return marks;
  };
  LayerMarks q0;
  if (args.traced) {
    bench->start_probes();
    q0 = quiesce();
    bench->resume();
  }
  const std::uint64_t base_failed = bench->failed();
  bench->begin_window();
  const CpuTicks stat0 = read_proc_stat();
  const double cpu0 = process_cpu_s();
  const double driver0 = bench->driver_cpu_s();
  const std::uint64_t done0 = bench->completed();
  const Clock::time_point w0 = Clock::now();

  std::vector<double> cpu_per_op;
  double cpu_prev = cpu0;
  std::uint64_t done_prev = done0;
  for (int i = 1; i <= subwindows; ++i) {
    std::this_thread::sleep_until(
        w0 + std::chrono::duration_cast<Clock::duration>(sub * i));
    const double cpu = process_cpu_s();
    const std::uint64_t done = bench->completed();
    if (done > done_prev) {
      cpu_per_op.push_back((cpu - cpu_prev) * 1e6 / static_cast<double>(done - done_prev));
    }
    cpu_prev = cpu;
    done_prev = done;
  }

  const double elapsed = seconds_since(w0);
  const double cpu1 = process_cpu_s();
  const double driver1 = bench->driver_cpu_s();
  const CpuTicks stat1 = read_proc_stat();
  const std::uint64_t done1 = bench->completed();
  bench->end_window();
  const std::uint64_t window_failed = bench->failed() - base_failed;
  LayerMarks q1;
  if (args.traced) {
    q1 = quiesce();
    bench->stop_probes();
  } else {
    bench->drain();
  }
  // A revoke's fan-out reaches the caching hosts shortly after its quorum;
  // the audit waits for it up to the update timeout.
  std::uint64_t stale = 0;
  if (churn) {
    const auto deadline = Clock::now() + kUpdateTimeout;
    while ((stale = bench->stale_grants()) > 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  const std::uint64_t failed = bench->failed();
  const std::uint64_t attempted = bench->completed() + failed;
  const std::uint64_t mismatches = bench->mismatches() + stale;

  const double ops = static_cast<double>(done1 - done0);
  if (ops <= 0.0) die("no op completed in the measurement window");
  const double setup_s = median(setup_cpu);
  const double cpu_us = median(cpu_per_op);
  const double driver_cpu_us = (driver1 - driver0) * 1e6 / ops;
  const FineHisto& lat = churn ? bench->check_latency() : bench->latency();

  // Host noise over the window: steal, and CPU used by everything else.
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double dtotal = stat1.total - stat0.total;
  const double steal_pct = dtotal > 0 ? 100.0 * (stat1.steal - stat0.steal) / dtotal : 0.0;
  const double other_pct =
      dtotal > 0 ? std::max(0.0, 100.0 * ((stat1.busy - stat0.busy) -
                                          (cpu1 - cpu0) * ticks) / dtotal)
                 : 0.0;

  JsonObject diag;
  diag.raw("workload", "\"" + args.workload_name + "\"");
  diag.num("seed", static_cast<double>(args.seed));
  diag.num("traced", args.traced ? 1 : 0);
  diag.num("window_s", elapsed);
  diag.num("ops", ops);
  diag.num("window_failed", static_cast<double>(window_failed));
  diag.num("ops_per_s", ops / elapsed);
  diag.num("latency_samples", static_cast<double>(lat.count()));
  diag.num("latency_p50_us", lat.quantile_ns(0.50) / 1e3);
  diag.num("latency_p99_us", lat.quantile_ns(0.99) / 1e3);
  const double tail = tail_percentile(lat.count());
  diag.num("latency_tail_pct", tail);
  diag.num("latency_tail_us", lat.quantile_ns(tail / 100.0) / 1e3);
  if (churn) {
    diag.num("round_p50_us", bench->latency().quantile_ns(0.50) / 1e3);
    diag.num("update_p50_us", bench->update_latency().quantile_ns(0.50) / 1e3);
    diag.num("update_samples", static_cast<double>(bench->update_latency().count()));
  }
  diag.num("cpu_us_per_op_mean", (cpu1 - cpu0) * 1e6 / ops);
  diag.num("cpu_subwindows", static_cast<double>(cpu_per_op.size()));
  diag.num("driver_cpu_us_per_op", driver_cpu_us);
  diag.num("host_steal_pct", steal_pct);
  diag.num("host_other_cpu_pct", other_pct);
  diag.num("rss_peak_mb", peak_rss_mb());
  if (churn) diag.num("stale_grants", static_cast<double>(stale));
  diag.num("setup_wall_s", median(setup_wall));
  std::printf("{\"diag\": %s}\n", diag.str().c_str());

  JsonObject metrics;
  if (!args.traced) {
    metrics.metric("cpu_us_per_op", cpu_us, "us");
    metrics.metric("latency_p50_us", lat.quantile_ns(0.50) / 1e3, "us");
    metrics.metric("setup_s", setup_s, "s");
    metrics.metric("rss_mb", rss, "MB");
  } else {
    const double qops = static_cast<double>(q1.completed - q0.completed);
    if (qops <= 0.0) die("no op completed between the traced run's quiescent points");
    const double checks = static_cast<double>(q1.replies - q0.replies);
    const double revokes = static_cast<double>(q1.revokes - q0.revokes);
    auto per_op = [&](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) / qops;
    };
    auto stage_us = [&](Stage st) {
      return static_cast<double>(q1.stages[st] - q0.stages[st]) / 1e3 / qops;
    };
    const auto [encode_ns, decode_ns] = bench->replay_codec();
    const auto [sign_ns, verify_ns] = bench->replay_auth();
    auto lag_us = [&](int cls) {
      LagProbe& p = bench->lag(cls);
      std::lock_guard<std::mutex> lk(p.mu);
      return p.histo.quantile_ns(0.50) / 1e3;
    };
    double staged = 0.0;
    for (int st = 0; st < kStageCount; ++st) staged += stage_us(static_cast<Stage>(st));
    const double rtt_us = bench->latency().mean_ns() / 1e3;

    metrics.metric("runtime.frames_per_op", per_op(q0.c.frames, q1.c.frames), "frames/op");
    metrics.metric("runtime.posts_per_op",
                   (static_cast<double>(q1.c.posts - q0.c.posts) -
                    static_cast<double>(q1.probes - q0.probes)) / qops,
                   "posts/op");
    metrics.metric("runtime.timer_arms_per_op", per_op(q0.c.timer_arms, q1.c.timer_arms),
                   "arms/op");
    metrics.metric("runtime.loop_lag_us.driver", lag_us(0), "us");
    metrics.metric("runtime.loop_lag_us.host", lag_us(1), "us");
    metrics.metric("runtime.loop_lag_us.manager", lag_us(2), "us");
    metrics.metric("runtime.send_us", stage_us(kSend), "us");
    metrics.metric("runtime.drops_per_op", per_op(q0.c.drops, q1.c.drops), "drops/op");
    metrics.metric("net.encode_ns", encode_ns, "ns");
    metrics.metric("net.decode_ns", decode_ns, "ns");
    metrics.metric("auth.sign_ns", sign_ns, "ns");
    metrics.metric("auth.verify_ns", verify_ns, "ns");
    metrics.metric("proto.host_invoke_us", stage_us(kHostInvoke), "us");
    metrics.metric("proto.host_response_us", stage_us(kHostResponse), "us");
    metrics.metric("proto.mgr_query_us", stage_us(kMgrQuery), "us");
    metrics.metric("proto.mgr_update_us", stage_us(kMgrUpdate), "us");
    metrics.metric("proto.host_revoke_us", stage_us(kHostRevoke), "us");
    metrics.metric("proto.revoke_frames_per_revoke",
                   revokes > 0 ? static_cast<double>(q1.c.fanout - q0.c.fanout) / revokes : 0.0,
                   "frames/revoke");
    metrics.metric("proto.queries_per_check",
                   checks > 0 ? static_cast<double>(q1.c.queries - q0.c.queries) / checks : 0.0,
                   "queries/check");
    metrics.metric("driver.cpu_us_per_op", driver_cpu_us, "us");
    metrics.metric("residual_us", rtt_us - staged, "us");
    metrics.metric("traced.cpu_us_per_op", cpu_us, "us");
  }

  const bool correct = mismatches == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
  bench.reset();
  return 0;
}

}  // namespace
}  // namespace wan::perfbench

int main(int argc, char** argv) {
  const wan::perfbench::Args args = wan::perfbench::parse_args(argc, argv);
  return wan::perfbench::run(args);
}
