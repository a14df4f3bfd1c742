// wan_node: runs the protocol on the threaded runtime, in real time.
//
// The simulator proves the protocol's logic; this tool proves the runtime
// seam — the same proto/ modules, byte for byte, driven by OS threads and a
// steady clock over real UDP sockets. Three modes:
//
//   wan_node --role manager|host|agent --id N --topology FILE
//            [--listen ADDR] [--te-ms N] [--verbose] [--metrics [FILE]]
//       ONE node of a multi-process deployment over real UDP sockets. Every
//       process loads the same topology file (HostId -> host:port); frames
//       travel through the versioned wire codec (docs/WIRE_FORMAT.md). Each
//       role follows a fixed timer script (below) so that 8 independent
//       processes re-enact the revocation worst case with no coordination
//       channel beyond the sockets themselves.
//
//   wan_node --udp-smoke [--te-ms N] [--loss P] [--verbose]
//       Orchestrator: spawns the 8 node processes (3 managers, 4 hosts,
//       1 agent) from this same binary, each binding port 0; scrapes the
//       kernel-assigned ports from their output, then writes the topology
//       file the children are waiting on (two-phase startup — no
//       bind-then-close port race). Collects their stdout and asserts the
//       Te bound across process boundaries. This is what CI runs.
//       --loss P makes each child drop fraction P of inbound frames (seeded,
//       deterministic per child); the protocol's own retransmits and check
//       retries recover it.
//
//   wan_node --proc-chaos [--chaos-seed N] [--te-ms N]
//       Process-level chaos orchestrator: the same 8-process deployment
//       (managers journaling to per-process state dirs), plus a seeded
//       kill/restart schedule — one non-revoking manager and one non-cut
//       host are SIGKILLed mid-traffic and re-exec'd on their original
//       ports a few hundred ms later. The restarted manager must replay its
//       journal (JOURNAL_REPLAYED), re-sync from peers (RESYNCED), and the
//       Te bound must hold across the crashes exactly as in the smoke. See
//       docs/CHAOS.md.
//
// The multi-process script (offsets from each process's start; spawn skew is
// tens of ms, the gaps are hundreds):
//
//   +500 ms   manager 0 grants the user             (prints GRANT_OK_US)
//   +1200 ms  agent starts invoking via the cut host, repeatedly
//   +3000 ms  the cut host blocks inbound from all managers — revocations
//             and query replies can no longer reach it, but its cache was
//             refreshed moments ago (the paper's worst case: a partition
//             landing right after a grant confirmation)
//   +3200 ms  manager 1 revokes                     (prints REVOKE_QUORUM_US)
//   ...       agent keeps invoking; allows come only from the cut host's
//             cache, which must expire within te. First deny after the
//             revoke instant ends the poll            (prints LAST_ALLOW_US);
//             an invocation that times out is neither and is retried
//
// Timestamps are system-clock microseconds — comparable across processes on
// one machine — so the orchestrator checks LAST_ALLOW_US - REVOKE_QUORUM_US
// <= Te without any cross-process clock protocol.
//
// --metrics exports the process's metrics registry in Prometheus text
// format: with FILE, a background thread rewrites the file twice a second
// while the process runs (tail -f it, or point a node_exporter textfile
// collector at it) and once more on exit; without FILE, the registry is
// printed to stdout on exit. A --role node's registry holds its protocol
// and socket counters; an orchestrator's holds little of its own.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "proto/host.hpp"
#include "proto/journal.hpp"
#include "proto/user_agent.hpp"
#include "proto/wire.hpp"
#include "util/rng.hpp"
#include "runtime/env_options.hpp"
#include "runtime/reactor_transport.hpp"
#include "runtime/threaded_env.hpp"

namespace wan {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  bool udp_smoke = false;
  bool proc_chaos = false;
  std::string role;      ///< manager|host|agent (multi-process mode)
  std::uint32_t id = 0;  ///< HostId in the topology (multi-process mode)
  bool id_set = false;
  std::string listen;    ///< bind override (default: the topology entry)
  std::string topology;  ///< topology file path
  int te_ms = 2000;      ///< revocation bound Te (small: this runs wall-clock)
  bool verbose = false;
  bool metrics = false;      ///< export the metrics registry
  std::string metrics_path;  ///< with --metrics: live file (empty = stdout)
  std::string state_dir;     ///< manager role: durable journal directory
  double loss = 0.0;         ///< seeded inbound loss fraction (test adversity)
  std::uint64_t fault_seed = 1;
  bool resume = false;   ///< restarted node: skip the scripted one-shot duties
  int lifetime_ms = 0;   ///< override node lifetime (0 = derive from te_ms)
  std::uint64_t chaos_seed = 1;  ///< --proc-chaos kill/restart schedule
  std::string trace_dir;  ///< per-process span capture directory (empty = off)
};

// The fixed 8-node deployment every mode runs.
constexpr std::uint32_t kManagerIds[] = {0, 1, 2};
constexpr std::uint32_t kHostIds[] = {100, 101, 102, 103};
constexpr std::uint32_t kAgentId = 9000;
constexpr std::uint32_t kCutHostId = 103;
constexpr int kManagers = 3;
constexpr int kHosts = 4;

// Multi-process script offsets (ms from each process's start).
constexpr int kGrantAtMs = 500;
constexpr int kAgentPollStartMs = 1200;
constexpr int kBlockAtMs = 3000;
constexpr int kRevokeAtMs = 3200;

/// How long a node process serves before exiting cleanly: the script plus
/// three Te periods for the cache to expire plus slack for slow CI machines.
int node_lifetime_ms(const Options& opt) {
  return kRevokeAtMs + 3 * opt.te_ms + 2000;
}

/// A node's actual lifetime: the --lifetime-ms override (restarted chaos
/// victims get the remaining schedule) or the standard derivation.
int lifetime_of(const Options& opt) {
  return opt.lifetime_ms > 0 ? opt.lifetime_ms : node_lifetime_ms(opt);
}

std::int64_t system_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void sleep_until_offset(Clock::time_point t0, int offset_ms) {
  std::this_thread::sleep_until(t0 + std::chrono::milliseconds(offset_ms));
}

/// The protocol knobs every node of a deployment must agree on. The
/// fabric is plain UDP, so these timers are what recovers a lost frame:
/// each costs one 50 ms timer. A check makes up to 8 attempts of 50 ms
/// (a 400 ms budget); updates, revocations and syncs retransmit every 50 ms
/// (docs/BENCHMARKS.md, "Why no reliability layer").
proto::ProtocolConfig make_config(const Options& opt) {
  proto::ProtocolConfig config;
  config.check_quorum = 2;
  config.Te = sim::Duration::millis(opt.te_ms);
  config.query_timeout = sim::Duration::millis(50);
  config.max_attempts = 8;
  config.cache_sweep_period = sim::Duration::millis(100);
  config.update_retransmit = sim::Duration::millis(50);
  config.revoke_retransmit = sim::Duration::millis(50);
  config.sync_retransmit = sim::Duration::millis(50);
  return config;
}

/// How long the agent waits for one InvokeReply before calling the
/// invocation timed out: two 50 ms timers, so a lost frame costs one retry.
constexpr sim::Duration kAgentReplyTimeout = sim::Duration::millis(100);

/// Every process derives the same user keypair from the same seed, so hosts
/// can verify what the agent signs without any key-distribution protocol.
auth::KeyPair shared_keypair() {
  Rng rng{12345};
  return auth::generate_keypair(rng);
}

/// Atomic rewrite: a scraper (tail -f, a textfile collector, a test) reading
/// mid-update must see either the old exposition or the new one, never a
/// truncated half. fopen(path, "w") would truncate the live file in place —
/// so write a sibling tmp and rename it over the target instead.
bool write_metrics_file(const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = obs::Registry::global().prometheus_text();
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

/// Background exporter: rewrites `path` every 500 ms until stopped, then
/// once more so the file reflects the final counter values.
class MetricsExporter {
 public:
  explicit MetricsExporter(std::string path) : path_(std::move(path)) {
    thread_ = std::thread([this] { loop(); });
  }
  ~MetricsExporter() { stop(); }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_one();
    thread_.join();
    write_metrics_file(path_);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
      lock.unlock();
      write_metrics_file(path_);
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(500),
                   [this] { return stopped_; });
    }
  }

  const std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// --role: one node of a multi-process UDP deployment.

int role_error(const std::string& what) {
  std::fprintf(stderr, "wan_node --role: %s\n", what.c_str());
  return 2;
}

/// Polls for the topology file until it exists and parses (the smoke
/// orchestrator writes it atomically only after every child has announced
/// its bound port), or until the deadline passes.
std::optional<runtime::Topology> wait_for_topology(const std::string& path,
                                                   int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    std::string error;
    std::optional<runtime::Topology> topo =
        runtime::Topology::load(path, &error);
    if (topo && topo->size() > 0) return topo;
    if (Clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::unique_ptr<runtime::SocketTransport> open_transport(const Options& opt) {
  std::string error;
  runtime::EnvOptions eopts;
  std::optional<runtime::Topology> topo;
  if (!opt.listen.empty()) {
    eopts.listen = opt.listen;
  } else {
    // No explicit bind address: this node's topology entry is it, so the
    // file must already exist.
    topo = runtime::Topology::load(opt.topology, &error);
    if (!topo) {
      role_error(error);
      return nullptr;
    }
    const runtime::NodeAddress* self = topo->find(HostId(opt.id));
    if (self == nullptr) {
      role_error("host id " + std::to_string(opt.id) +
                 " not in topology (and no --listen)");
      return nullptr;
    }
    eopts.listen = self->to_string();
  }
  std::unique_ptr<runtime::SocketTransport> transport =
      runtime::ReactorTransport::create(eopts, &error);
  if (!transport) {
    role_error(error);
    return nullptr;
  }
  if (opt.loss > 0.0) {
    runtime::FaultPlan plan;
    plan.seed = opt.fault_seed + opt.id;  // distinct stream per node
    plan.loss = opt.loss;
    transport->set_fault_plan(plan);
  }
  // Announce the kernel-assigned port before waiting on the topology: the
  // smoke orchestrator scrapes this line from every child, then writes the
  // topology file everyone is waiting for.
  std::printf("NODE_PORT %u\n", transport->local_port());
  std::fflush(stdout);
  if (!topo) {
    topo = wait_for_topology(opt.topology, /*timeout_ms=*/15000);
    if (!topo) {
      role_error("topology file '" + opt.topology + "' never appeared");
      return nullptr;
    }
  }
  for (const auto& [id, addr] : topo->entries()) {
    if (!transport->add_peer(HostId(id), addr)) {
      role_error("topology host " + std::to_string(id) +
                 ": cannot resolve '" + addr.host + "'");
      return nullptr;
    }
  }
  return transport;
}

int run_manager(const Options& opt, runtime::SocketTransport& transport) {
  const AppId app{1};
  const UserId alice{7};
  std::vector<HostId> manager_ids;
  for (const std::uint32_t id : kManagerIds) manager_ids.push_back(HostId(id));
  const proto::ProtocolConfig config = make_config(opt);

  runtime::ThreadedEnv env(transport);
  proto::ManagerHost mgr(HostId(opt.id), env, clk::LocalClock::perfect(),
                         config);
  env.run_sync([&] { mgr.manager().manage_app(app, manager_ids); });

  // Durable state: open the journal, replay whatever survived a previous
  // incarnation, and — only when there WAS a previous incarnation — re-sync
  // from peers to pick up updates issued while this manager was dead. A
  // fresh simultaneous boot must not sync: its peers are equally fresh and
  // would be asked to vouch for state nobody has yet.
  std::unique_ptr<proto::ManagerJournal> journal;
  if (!opt.state_dir.empty()) {
    std::string error;
    journal = proto::ManagerJournal::open(opt.state_dir, &error);
    if (!journal) return role_error(error);
    std::size_t replayed = 0;
    env.run_sync(
        [&] { replayed = mgr.manager().attach_journal(journal.get()); });
    if (journal->had_state()) {
      std::printf("JOURNAL_REPLAYED %zu\n", replayed);
      std::fflush(stdout);
      env.run_sync([&] { mgr.manager().resync(app); });
      // RESYNCED means the sync actually completed, not merely started.
      const auto sync_deadline = Clock::now() + std::chrono::seconds(10);
      bool synced = false;
      while (!synced && Clock::now() < sync_deadline) {
        env.run_sync([&] { synced = mgr.manager().synced(app); });
        if (!synced) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      if (synced) {
        std::printf("RESYNCED %lld\n", static_cast<long long>(system_us()));
        std::fflush(stdout);
      }
    }
  }

  const Clock::time_point t0 = Clock::now();
  std::printf("NODE_READY role=manager id=%u port=%u\n", opt.id,
              transport.local_port());
  std::fflush(stdout);

  if (!opt.resume && opt.id == kManagerIds[0]) {
    sleep_until_offset(t0, kGrantAtMs);
    env.run_sync([&] {
      mgr.manager().submit_update(app, acl::Op::kAdd, alice, acl::Right::kUse,
                                  [](const proto::UpdateOutcome&) {
                                    std::printf("GRANT_OK_US %lld\n",
                                                static_cast<long long>(
                                                    system_us()));
                                    std::fflush(stdout);
                                  });
    });
  }
  if (!opt.resume && opt.id == kManagerIds[1]) {
    sleep_until_offset(t0, kRevokeAtMs);
    env.run_sync([&] {
      mgr.manager().submit_update(app, acl::Op::kRevoke, alice,
                                  acl::Right::kUse,
                                  [](const proto::UpdateOutcome&) {
                                    // The instant the revoke reached its
                                    // write quorum — the Te clock starts now.
                                    std::printf("REVOKE_QUORUM_US %lld\n",
                                                static_cast<long long>(
                                                    system_us()));
                                    std::fflush(stdout);
                                  });
    });
  }

  sleep_until_offset(t0, lifetime_of(opt));
  transport.shutdown();
  return 0;
}

int run_host(const Options& opt, runtime::SocketTransport& transport) {
  const AppId app{1};
  std::vector<HostId> manager_ids;
  for (const std::uint32_t id : kManagerIds) manager_ids.push_back(HostId(id));
  const proto::ProtocolConfig config = make_config(opt);

  ns::NameService names;
  names.set_managers(app, manager_ids);
  auth::KeyRegistry keys;
  keys.register_user(UserId(7), shared_keypair().public_key);

  runtime::ThreadedEnv env(transport);
  proto::AppHost host(HostId(opt.id), env, clk::LocalClock::perfect(), names,
                      keys, config);
  env.run_sync([&] {
    host.controller().register_app(
        app, [](UserId, const std::string& p) { return "ok:" + p; });
  });
  const Clock::time_point t0 = Clock::now();
  std::printf("NODE_READY role=host id=%u port=%u\n", opt.id,
              transport.local_port());
  std::fflush(stdout);

  if (!opt.resume && opt.id == kCutHostId) {
    sleep_until_offset(t0, kBlockAtMs);
    // One-way partition: the agent can still invoke through this host, but
    // nothing the managers send (RevokeNotify, QueryResponse) gets in. Only
    // the cache's te expiry can end access — the bound under test.
    for (const HostId m : manager_ids) transport.block_inbound_from(m, true);
    std::printf("BLOCKED_MANAGERS_US %lld\n",
                static_cast<long long>(system_us()));
    std::fflush(stdout);
  }

  sleep_until_offset(t0, lifetime_of(opt));
  transport.shutdown();
  return 0;
}

/// What one agent invocation came back with.
enum class Outcome : std::uint8_t { kPending, kAllow, kDeny, kTimedOut };

int run_agent(const Options& opt, runtime::SocketTransport& transport) {
  const AppId app{1};
  const UserId alice{7};
  const auth::KeyPair kp = shared_keypair();

  runtime::ThreadedEnv env(transport);
  proto::UserAgent::Config agent_config;
  agent_config.reply_timeout = kAgentReplyTimeout;
  proto::UserAgent agent(HostId(kAgentId), alice, kp, env, agent_config);
  env.transport().register_endpoint(
      HostId(kAgentId), [&](HostId from, const net::MessagePtr& msg) {
        agent.on_message(from, msg);
      });
  const Clock::time_point t0 = Clock::now();
  std::printf("NODE_READY role=agent id=%u port=%u\n", kAgentId,
              transport.local_port());
  std::fflush(stdout);

  sleep_until_offset(t0, kAgentPollStartMs);

  // Poll invocations through the cut host only: its answers are the ones the
  // Te bound constrains once the managers are blocked away from it.
  bool ever_allowed = false;
  bool denied_after_revoke = false;
  std::int64_t last_allow_us = 0;
  int polls = 0;
  const int deadline_ms = lifetime_of(opt) - 500;
  while (ms_since(t0) < deadline_ms) {
    // Every few polls, also invoke via a CONNECTED host. Its outcome is
    // deliberately ignored — the Te oracle is the cut host's cache alone —
    // but the side effect matters: the connected host's re-queries keep it
    // registered at the *current* owner group, so the revoke's notify
    // fan-out (and the revocation's causal chain in a --trace capture)
    // reaches beyond the manager group. The cut host can never witness the
    // flush; a connected host can.
    if (polls++ % 8 == 0) {
      auto side_done = std::make_shared<std::atomic<bool>>(false);
      env.run_sync([&] {
        agent.invoke(app, {HostId(kHostIds[0])}, "ping",
                     [side_done](const proto::InvokeResult&) {
                       side_done->store(true);
                     });
      });
      const auto side_deadline = Clock::now() + std::chrono::seconds(2);
      while (!side_done->load() && Clock::now() < side_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // Shared-owned: a reply landing after the wait below gave up must not
    // touch a dead stack frame.
    auto outcome = std::make_shared<std::atomic<Outcome>>(Outcome::kPending);
    env.run_sync([&] {
      agent.invoke(app, {HostId(kCutHostId)}, "hello",
                   [outcome](const proto::InvokeResult& r) {
                     outcome->store(r.ok          ? Outcome::kAllow
                                    : r.timed_out ? Outcome::kTimedOut
                                                  : Outcome::kDeny);
                   });
    });
    const auto wait_deadline = Clock::now() + std::chrono::seconds(2);
    while (outcome->load() == Outcome::kPending &&
           Clock::now() < wait_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Outcome got = outcome->load();
    if (got == Outcome::kAllow) {
      ever_allowed = true;
      last_allow_us = system_us();
      if (opt.verbose) {
        std::printf("  allow at +%.0f ms\n", ms_since(t0));
        std::fflush(stdout);
      }
    } else if (got == Outcome::kDeny && ms_since(t0) > kRevokeAtMs) {
      // Transient denies before the revoke (e.g. a query attempt racing the
      // very first grant) are retried; a deny after it is the revocation
      // taking effect at the cut host. A timed-out invocation (the agent's
      // reply timer, or this wait) saw neither and is retried too.
      denied_after_revoke = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }

  int rc = 0;
  if (!ever_allowed) {
    std::printf("AGENT_NEVER_ALLOWED\n");
    rc = 1;
  } else if (!denied_after_revoke) {
    std::printf("AGENT_NEVER_DENIED\n");
    rc = 1;
  } else {
    std::printf("LAST_ALLOW_US %lld\n", static_cast<long long>(last_allow_us));
  }
  std::fflush(stdout);
  transport.shutdown();
  return rc;
}

/// --trace DIR: per-process span capture for the multi-process modes.
///
/// Installs BOTH observability hooks for the life of the role: an in-memory
/// Tracer (full fidelity, exported as DIR/<role>-<id>.trace on clean exit)
/// and a crash-surviving FlightRecorder ring at DIR/<role>-<id>.ring whose
/// final events an orchestrator harvests after a SIGKILL. The wall-clock
/// anchor — one instant sampled on the runtime clock (steady, since the
/// fabric epoch) and on system_clock — is what lets tools/trace_merge
/// interleave every process's events on one machine-shared timeline.
class RoleTrace {
 public:
  RoleTrace(const Options& opt, const runtime::SocketTransport& transport)
      : dir_(opt.trace_dir) {
    if (dir_.empty()) return;
    ::mkdir(dir_.c_str(), 0755);  // fine if it already exists
    label_ = opt.role + "-" + std::to_string(opt.id);
    node_ = opt.id;
    // Anchor sampling: one wall-clock read bracketed by two runtime-clock
    // reads. A preemption between the reads would skew every merged
    // timestamp of this process by the gap, so take the tightest of several
    // brackets and anchor at its midpoint — worst-case anchor error is half
    // the bracket width (microseconds, far below a cross-process hop).
    std::int64_t best_bracket_ns = std::numeric_limits<std::int64_t>::max();
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point before = Clock::now();
      const std::int64_t wall_us = system_us();
      const std::int64_t bracket_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               before)
              .count();
      if (bracket_ns < best_bracket_ns) {
        best_bracket_ns = bracket_ns;
        anchor_wall_us_ = wall_us;
        anchor_runtime_ns_ =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                before - transport.epoch())
                .count() +
            bracket_ns / 2;
      }
    }
    std::string error;
    ring_ = obs::FlightRecorder::create(dir_ + "/" + label_ + ".ring", node_,
                                        /*capacity=*/4096, &error);
    if (ring_) {
      ring_->set_identity(label_, anchor_runtime_ns_, anchor_wall_us_);
      obs::install_trace_sink(ring_.get());
    } else {
      std::fprintf(stderr, "wan_node --trace: %s\n", error.c_str());
    }
    tracer_ = std::make_unique<obs::Tracer>(1u << 20);
    obs::install_tracer(tracer_.get());
  }

  ~RoleTrace() { finish(); }
  RoleTrace(const RoleTrace&) = delete;
  RoleTrace& operator=(const RoleTrace&) = delete;

  /// Uninstalls the hooks and exports the full span stream. Called after the
  /// role's env (and its recording threads) are gone.
  void finish() {
    if (tracer_ == nullptr) return;
    obs::install_tracer(nullptr);
    obs::install_trace_sink(nullptr);
    const obs::ProcessTrace pt = obs::snapshot_process_trace(
        *tracer_, label_, node_, anchor_runtime_ns_, anchor_wall_us_);
    std::string error;
    if (!obs::write_process_trace(dir_ + "/" + label_ + ".trace", pt,
                                  &error)) {
      std::fprintf(stderr, "wan_node --trace: %s\n", error.c_str());
    }
    tracer_.reset();
    ring_.reset();
  }

 private:
  std::string dir_;
  std::string label_;
  std::uint32_t node_ = 0;
  std::int64_t anchor_runtime_ns_ = 0;
  std::int64_t anchor_wall_us_ = 0;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::FlightRecorder> ring_;
};

int run_role(const Options& opt) {
  // Socket transports move bytes, not pointers: the wire codecs must be
  // registered before the first frame is encoded or decoded.
  proto::register_wire_messages();
  auto transport = open_transport(opt);
  if (!transport) return 2;
  // Hooks go in before any protocol module exists, so the very first grant
  // or query span lands in the capture.
  RoleTrace trace(opt, *transport);
  int rc = 2;
  if (opt.role == "manager") {
    rc = run_manager(opt, *transport);
  } else if (opt.role == "host") {
    rc = run_host(opt, *transport);
  } else {
    rc = run_agent(opt, *transport);
  }
  trace.finish();
  return rc;
}

// ---------------------------------------------------------------------------
// --udp-smoke: orchestrates the 8 node processes and asserts the Te bound.

struct ChildProc {
  pid_t pid = -1;
  std::string name;
  std::string out_path;
  int exit_code = -1;
  bool exited = false;
  bool killed = false;  ///< chaos victim: nonzero exit is the point, not a bug
  Clock::time_point spawned_at;
};

/// Forks and execs this binary with `args`, stdout redirected to `out_path`
/// (the parent scrapes it). pid stays -1 when fork fails.
ChildProc spawn_child(const char* argv0, const std::string& name,
                      const std::string& out_path,
                      const std::vector<std::string>& args) {
  ChildProc child;
  child.name = name;
  child.out_path = out_path;
  child.spawned_at = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return child;
  if (pid == 0) {
    if (std::freopen(out_path.c_str(), "w", stdout) == nullptr) std::_Exit(3);
    std::vector<const char*> argv = {argv0};
    for (const std::string& a : args) argv.push_back(a.c_str());
    argv.push_back(nullptr);
    ::execv(argv0, const_cast<char* const*>(argv.data()));
    std::_Exit(3);  // execv only returns on failure
  }
  child.pid = pid;
  return child;
}

std::optional<std::int64_t> scrape_stamp(const std::string& path,
                                         const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0) {
      return std::strtoll(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return std::nullopt;
}

void dump_child_output(const ChildProc& child) {
  std::ifstream in(child.out_path);
  std::string line;
  while (std::getline(in, line)) {
    std::printf("  [%s] %s\n", child.name.c_str(), line.c_str());
  }
}

/// Phase 2 of the two-phase startup shared by the orchestrators: scrape each
/// child's NODE_PORT announcement, assemble the real topology, and publish
/// it atomically (rename, so no child ever parses a half-written file).
/// Fills `ports_out` indexed like `children`/`nodes`. On timeout kills the
/// deployment, dumps its output, and returns false.
bool publish_topology(
    const char* tag, std::vector<ChildProc>& children,
    const std::vector<std::pair<std::string, std::uint32_t>>& nodes,
    const std::string& topo_path, std::vector<std::int64_t>* ports_out) {
  std::vector<std::optional<std::int64_t>> ports(children.size());
  const auto port_deadline = Clock::now() + std::chrono::seconds(10);
  std::size_t found = 0;
  while (found < children.size()) {
    found = 0;
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (!ports[i]) {
        ports[i] = scrape_stamp(children[i].out_path, "NODE_PORT");
      }
      if (ports[i]) ++found;
    }
    if (found == children.size()) break;
    if (Clock::now() >= port_deadline) {
      std::fprintf(stderr,
                   "wan_node %s: FAILED — %zu/%zu children never announced "
                   "a port\n",
                   tag, children.size() - found, children.size());
      for (ChildProc& child : children) {
        ::kill(child.pid, SIGKILL);
        dump_child_output(child);
      }
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  runtime::Topology topo;
  ports_out->clear();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    topo.add(HostId(nodes[i].second),
             runtime::NodeAddress{"127.0.0.1",
                                  static_cast<std::uint16_t>(*ports[i])});
    ports_out->push_back(*ports[i]);
  }
  const std::string tmp_path = topo_path + ".tmp";
  {
    std::ofstream out(tmp_path);
    out << topo.serialize();
  }
  if (std::rename(tmp_path.c_str(), topo_path.c_str()) != 0) {
    std::fprintf(stderr, "wan_node %s: cannot publish topology\n", tag);
    for (const ChildProc& c : children) ::kill(c.pid, SIGKILL);
    return false;
  }
  return true;
}

int run_udp_smoke(const Options& opt, const char* argv0) {
  char dir_template[] = "/tmp/wan_udp_smoke.XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "wan_node --udp-smoke: mkdtemp failed\n");
    return 2;
  }
  const std::string topo_path = std::string(dir) + "/topology.txt";

  std::vector<std::pair<std::string, std::uint32_t>> nodes;
  for (const std::uint32_t id : kManagerIds) nodes.emplace_back("manager", id);
  for (const std::uint32_t id : kHostIds) nodes.emplace_back("host", id);
  nodes.emplace_back("agent", kAgentId);

  // Phase 1: spawn every child binding port 0. The topology file does not
  // exist yet; each child binds, prints NODE_PORT, and waits for the file.
  // Ports are owned by the sockets that will use them from the instant the
  // kernel assigns them — the old bind-then-close prober could lose its port
  // to another process between close() and the child's bind().
  std::vector<ChildProc> children;
  for (const auto& [role, id] : nodes) {
    const std::string name = role + "-" + std::to_string(id);
    std::vector<std::string> args = {
        "--role",     role,
        "--id",       std::to_string(id),
        "--topology", topo_path,
        "--te-ms",    std::to_string(opt.te_ms),
        "--listen",   "127.0.0.1:0"};
    if (opt.loss > 0.0) {
      args.push_back("--loss");
      args.push_back(std::to_string(opt.loss));
      args.push_back("--fault-seed");
      args.push_back(std::to_string(opt.fault_seed));
    }
    if (!opt.trace_dir.empty()) {
      args.push_back("--trace");
      args.push_back(opt.trace_dir);
    }
    if (opt.verbose) args.push_back("--verbose");
    ChildProc child =
        spawn_child(argv0, name, std::string(dir) + "/" + name + ".out", args);
    if (child.pid < 0) {
      std::fprintf(stderr, "wan_node --udp-smoke: fork failed\n");
      for (const ChildProc& c : children) ::kill(c.pid, SIGKILL);
      return 2;
    }
    children.push_back(std::move(child));
  }
  if (opt.verbose) {
    std::printf("  spawned %zu node processes (topology %s)\n",
                children.size(), topo_path.c_str());
  }

  // Phase 2: scrape each child's kernel-assigned port, then publish the
  // real topology.
  std::vector<std::int64_t> ports;
  if (!publish_topology("--udp-smoke", children, nodes, topo_path, &ports)) {
    return 1;
  }

  // Wait for every child, with a hard deadline: a wedged deployment must
  // fail the smoke, not hang CI.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(node_lifetime_ms(opt) + 10000);
  std::size_t remaining = children.size();
  while (remaining > 0 && Clock::now() < deadline) {
    for (ChildProc& child : children) {
      if (child.exited) continue;
      int status = 0;
      const pid_t r = ::waitpid(child.pid, &status, WNOHANG);
      if (r == child.pid) {
        child.exited = true;
        child.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        --remaining;
      }
    }
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (remaining > 0) {
    std::fprintf(stderr,
                 "wan_node --udp-smoke: FAILED — %zu process(es) still "
                 "running at deadline; killing\n",
                 remaining);
    for (ChildProc& child : children) {
      if (!child.exited) ::kill(child.pid, SIGKILL);
      dump_child_output(child);
    }
    return 1;
  }

  bool all_ok = true;
  for (const ChildProc& child : children) {
    if (child.exit_code != 0) {
      std::fprintf(stderr, "wan_node --udp-smoke: %s exited %d\n",
                   child.name.c_str(), child.exit_code);
      all_ok = false;
    }
  }
  const std::optional<std::int64_t> quorum_us = scrape_stamp(
      std::string(dir) + "/manager-" + std::to_string(kManagerIds[1]) + ".out",
      "REVOKE_QUORUM_US");
  const std::optional<std::int64_t> last_allow_us = scrape_stamp(
      std::string(dir) + "/agent-" + std::to_string(kAgentId) + ".out",
      "LAST_ALLOW_US");
  if (!quorum_us) {
    std::fprintf(stderr,
                 "wan_node --udp-smoke: revoke never reached quorum\n");
    all_ok = false;
  }
  if (!last_allow_us) {
    std::fprintf(stderr, "wan_node --udp-smoke: agent saw no allow/deny "
                         "transition\n");
    all_ok = false;
  }
  if (!all_ok || opt.verbose) {
    for (const ChildProc& child : children) dump_child_output(child);
  }
  if (!all_ok) {
    std::fprintf(stderr, "wan_node --udp-smoke: FAILED (outputs kept in %s)\n",
                 dir);
    return 1;
  }

  const double over_ms =
      static_cast<double>(*last_allow_us - *quorum_us) / 1000.0;
  const bool held = over_ms <= static_cast<double>(opt.te_ms);
  std::printf(
      "wan_node --udp-smoke: Te bound across %zu processes: last allow "
      "%.1f ms after revoke quorum (bound %d ms) — %s\n",
      children.size(), over_ms, opt.te_ms, held ? "HELD" : "VIOLATED");
  if (!held) {
    std::fprintf(stderr, "wan_node --udp-smoke: FAILED (outputs kept in %s)\n",
                 dir);
    return 1;
  }

  // Success: tidy up the scratch dir.
  for (const ChildProc& child : children) {
    std::remove(child.out_path.c_str());
  }
  std::remove(topo_path.c_str());
  ::rmdir(dir);
  std::printf("wan_node --udp-smoke: OK (%zu processes over localhost UDP)\n",
              children.size());
  return 0;
}

// ---------------------------------------------------------------------------
// --proc-chaos: the 8-process deployment plus a seeded kill/restart schedule.

/// Remaining lifetime for a restarted victim: the schedule it would have
/// served minus the time its first incarnation already consumed, plus slack
/// so it outlives the agent's poll (it must be up to answer resyncs and
/// acks, and to exit cleanly).
int remaining_lifetime_ms(const ChildProc& original, const Options& opt) {
  const int consumed = static_cast<int>(ms_since(original.spawned_at));
  return std::max(1500, node_lifetime_ms(opt) - consumed + 1000);
}

/// Recovers a SIGKILLed child's flight-recorder ring into a WANTRACE file
/// (DIR/<name>-killed.trace). Must run before the victim's restarted
/// incarnation re-creates (truncates) the ring at the same path — the
/// orchestrator calls it synchronously right after waitpid, hundreds of ms
/// ahead of the restart. Returns the recovered event count, -1 on failure.
long harvest_killed_ring(const std::string& trace_dir,
                         const std::string& name) {
  std::string error;
  const std::optional<obs::FlightRecorder::Harvested> h =
      obs::FlightRecorder::harvest(trace_dir + "/" + name + ".ring", &error);
  if (!h) {
    std::fprintf(stderr, "wan_node --proc-chaos: ring harvest of %s: %s\n",
                 name.c_str(), error.c_str());
    return -1;
  }
  const obs::ProcessTrace pt = obs::from_harvest(*h, name + "-killed");
  if (!obs::write_process_trace(trace_dir + "/" + name + "-killed.trace", pt,
                                &error)) {
    std::fprintf(stderr, "wan_node --proc-chaos: %s\n", error.c_str());
    return -1;
  }
  return static_cast<long>(pt.events.size());
}

int run_proc_chaos(const Options& opt, const char* argv0) {
  char dir_template[] = "/tmp/wan_proc_chaos.XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "wan_node --proc-chaos: mkdtemp failed\n");
    return 2;
  }
  const std::string topo_path = std::string(dir) + "/topology.txt";

  std::vector<std::pair<std::string, std::uint32_t>> nodes;
  for (const std::uint32_t id : kManagerIds) nodes.emplace_back("manager", id);
  for (const std::uint32_t id : kHostIds) nodes.emplace_back("host", id);
  nodes.emplace_back("agent", kAgentId);

  // The victims, drawn from the seed. Never the revoking manager — the
  // revoke must still happen so the oracle has an instant to measure from —
  // and never the cut host (103), whose cache expiry IS the property under
  // test. Everything else is fair game mid-traffic.
  Rng chaos(opt.chaos_seed);
  const std::uint32_t victim_mgr = chaos.next_bool(0.5) ? 0u : 2u;
  constexpr std::uint32_t kHostPool[] = {100, 101, 102};
  const std::uint32_t victim_host =
      kHostPool[chaos.next_below(std::size(kHostPool))];
  // Kill ~[1.6, 2.6] s after the grant lands — between the cache warm-up and
  // the revocation, so the crash overlaps the revocation storm. Restart a
  // few hundred ms later, well within the outage the retry budgets absorb.
  const int kill_mgr_after_grant_ms =
      1600 + static_cast<int>(chaos.next_below(1000));
  const int restart_mgr_delay_ms =
      300 + static_cast<int>(chaos.next_below(500));
  const int kill_host_after_grant_ms = 1600 + static_cast<int>(chaos.next_below(1000));
  const int restart_host_delay_ms = 300 + static_cast<int>(chaos.next_below(500));

  auto node_args = [&](const std::string& role, std::uint32_t id,
                       const std::string& listen) {
    std::vector<std::string> args = {
        "--role",     role,
        "--id",       std::to_string(id),
        "--topology", topo_path,
        "--te-ms",    std::to_string(opt.te_ms),
        "--listen",   listen};
    if (role == "manager") {
      args.push_back("--state-dir");
      args.push_back(std::string(dir) + "/state-" + std::to_string(id));
    }
    if (!opt.trace_dir.empty()) {
      args.push_back("--trace");
      args.push_back(opt.trace_dir);
    }
    if (opt.verbose) args.push_back("--verbose");
    return args;
  };

  std::vector<ChildProc> children;
  for (const auto& [role, id] : nodes) {
    const std::string name = role + "-" + std::to_string(id);
    ChildProc child =
        spawn_child(argv0, name, std::string(dir) + "/" + name + ".out",
                    node_args(role, id, "127.0.0.1:0"));
    if (child.pid < 0) {
      std::fprintf(stderr, "wan_node --proc-chaos: fork failed\n");
      for (const ChildProc& c : children) ::kill(c.pid, SIGKILL);
      return 2;
    }
    children.push_back(std::move(child));
  }
  std::printf(
      "wan_node --proc-chaos: seed %llu — will kill manager-%u (+%d ms "
      "after grant, back %d ms later) and host-%u (+%d ms, back %d ms "
      "later)\n",
      static_cast<unsigned long long>(opt.chaos_seed), victim_mgr,
      kill_mgr_after_grant_ms, restart_mgr_delay_ms, victim_host,
      kill_host_after_grant_ms, restart_host_delay_ms);

  std::vector<std::int64_t> ports;
  if (!publish_topology("--proc-chaos", children, nodes, topo_path, &ports)) {
    return 1;
  }

  // The schedule anchors on the grant actually landing, not on wall-clock
  // offsets: spawn skew varies, and killing a manager before the grant
  // completes would test a different (earlier, easier) interleaving.
  const std::string mgr0_out = std::string(dir) + "/manager-0.out";
  std::optional<std::int64_t> grant_us;
  const auto grant_deadline = Clock::now() + std::chrono::seconds(15);
  while (!(grant_us = scrape_stamp(mgr0_out, "GRANT_OK_US"))) {
    if (Clock::now() >= grant_deadline) {
      std::fprintf(stderr,
                   "wan_node --proc-chaos: FAILED — grant never completed\n");
      for (ChildProc& child : children) {
        ::kill(child.pid, SIGKILL);
        dump_child_output(child);
      }
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const Clock::time_point grant_at = Clock::now();

  auto index_of = [&](std::uint32_t id) -> std::size_t {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].second == id) return i;
    }
    return 0;  // unreachable: victims are drawn from the node list
  };

  struct ChaosEvent {
    Clock::time_point at;
    bool restart = false;
    std::size_t index = 0;  ///< into children/nodes/ports
  };
  std::vector<ChaosEvent> events = {
      {grant_at + std::chrono::milliseconds(kill_mgr_after_grant_ms), false,
       index_of(victim_mgr)},
      {grant_at + std::chrono::milliseconds(kill_mgr_after_grant_ms +
                                            restart_mgr_delay_ms),
       true, index_of(victim_mgr)},
      {grant_at + std::chrono::milliseconds(kill_host_after_grant_ms), false,
       index_of(victim_host)},
      {grant_at + std::chrono::milliseconds(kill_host_after_grant_ms +
                                            restart_host_delay_ms),
       true, index_of(victim_host)},
  };
  std::sort(events.begin(), events.end(),
            [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; });

  std::vector<ChildProc> restarts;
  long mgr_ring_events = -1;  ///< events harvested from the killed manager
  for (const ChaosEvent& ev : events) {
    std::this_thread::sleep_until(ev.at);
    ChildProc& victim = children[ev.index];
    const auto& [role, id] = nodes[ev.index];
    if (!ev.restart) {
      // SIGKILL: no atexit, no flush, no shutdown — the journal must already
      // be durable and the survivors must carry the protocol meanwhile.
      ::kill(victim.pid, SIGKILL);
      ::waitpid(victim.pid, nullptr, 0);
      victim.exited = true;
      victim.killed = true;
      victim.exit_code = 0;
      std::printf("  killed %s at +%.0f ms\n", victim.name.c_str(),
                  ms_since(grant_at));
      if (!opt.trace_dir.empty()) {
        // The victim's last spans survive only in its mmap ring; fold them
        // into the trace set before its restart truncates the ring file.
        const long recovered =
            harvest_killed_ring(opt.trace_dir, victim.name);
        if (role == "manager") mgr_ring_events = recovered;
        if (recovered >= 0) {
          std::printf(
              "  harvested %ld flight-recorder events from killed %s\n",
              recovered, victim.name.c_str());
        }
      }
    } else {
      // Re-exec on the original port (every peer still routes to it) with
      // --resume (its one-shot scripted duties are done or forfeited) and
      // the remaining schedule as its lifetime.
      std::vector<std::string> args = node_args(
          role, id, "127.0.0.1:" + std::to_string(ports[ev.index]));
      args.push_back("--resume");
      args.push_back("--lifetime-ms");
      args.push_back(std::to_string(remaining_lifetime_ms(victim, opt)));
      ChildProc restarted = spawn_child(
          argv0, victim.name + "-restart",
          std::string(dir) + "/" + victim.name + ".restart.out", args);
      if (restarted.pid < 0) {
        std::fprintf(stderr, "wan_node --proc-chaos: restart fork failed\n");
        for (const ChildProc& c : children) {
          if (!c.exited) ::kill(c.pid, SIGKILL);
        }
        return 2;
      }
      std::printf("  restarted %s at +%.0f ms\n", victim.name.c_str(),
                  ms_since(grant_at));
      restarts.push_back(std::move(restarted));
    }
    std::fflush(stdout);
  }
  for (ChildProc& r : restarts) children.push_back(std::move(r));

  // Wait for everything still alive, with a hard deadline.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(node_lifetime_ms(opt) + 15000);
  std::size_t remaining = 0;
  for (const ChildProc& c : children) {
    if (!c.exited) ++remaining;
  }
  while (remaining > 0 && Clock::now() < deadline) {
    for (ChildProc& child : children) {
      if (child.exited) continue;
      int status = 0;
      if (::waitpid(child.pid, &status, WNOHANG) == child.pid) {
        child.exited = true;
        child.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        --remaining;
      }
    }
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  bool all_ok = true;
  if (remaining > 0) {
    std::fprintf(stderr,
                 "wan_node --proc-chaos: FAILED — %zu process(es) still "
                 "running at deadline; killing\n",
                 remaining);
    for (ChildProc& child : children) {
      if (!child.exited) ::kill(child.pid, SIGKILL);
    }
    all_ok = false;
  }
  for (const ChildProc& child : children) {
    if (!child.killed && child.exited && child.exit_code != 0) {
      std::fprintf(stderr, "wan_node --proc-chaos: %s exited %d\n",
                   child.name.c_str(), child.exit_code);
      all_ok = false;
    }
  }

  // The recovery oracle: the restarted manager must have replayed durable
  // state and completed a resync. (The restarted host is stateless — its
  // check is simply the clean exit above.)
  const std::string mgr_restart_out = std::string(dir) + "/manager-" +
                                      std::to_string(victim_mgr) +
                                      ".restart.out";
  const std::optional<std::int64_t> replayed =
      scrape_stamp(mgr_restart_out, "JOURNAL_REPLAYED");
  if (!replayed || *replayed < 1) {
    std::fprintf(stderr,
                 "wan_node --proc-chaos: FAILED — restarted manager-%u "
                 "replayed no journal records\n",
                 victim_mgr);
    all_ok = false;
  }
  if (!scrape_stamp(mgr_restart_out, "RESYNCED")) {
    std::fprintf(stderr,
                 "wan_node --proc-chaos: FAILED — restarted manager-%u never "
                 "completed its resync\n",
                 victim_mgr);
    all_ok = false;
  }
  if (!opt.trace_dir.empty() && mgr_ring_events <= 0) {
    // The flight recorder exists precisely for this moment: a SIGKILL that
    // erased the in-memory tracer must still leave the victim's final spans
    // recoverable from its mmap ring.
    std::fprintf(stderr,
                 "wan_node --proc-chaos: FAILED — no flight-recorder events "
                 "recovered from SIGKILLed manager-%u\n",
                 victim_mgr);
    all_ok = false;
  }
  // The Te oracle, identical to the smoke: crashes may delay convergence but
  // must never extend the window in which a revoked right is honoured.
  const std::optional<std::int64_t> quorum_us = scrape_stamp(
      std::string(dir) + "/manager-" + std::to_string(kManagerIds[1]) + ".out",
      "REVOKE_QUORUM_US");
  const std::optional<std::int64_t> last_allow_us = scrape_stamp(
      std::string(dir) + "/agent-" + std::to_string(kAgentId) + ".out",
      "LAST_ALLOW_US");
  if (!quorum_us) {
    std::fprintf(stderr,
                 "wan_node --proc-chaos: revoke never reached quorum\n");
    all_ok = false;
  }
  if (!last_allow_us) {
    std::fprintf(stderr, "wan_node --proc-chaos: agent saw no allow/deny "
                         "transition\n");
    all_ok = false;
  }
  if (all_ok) {
    const double over_ms =
        static_cast<double>(*last_allow_us - *quorum_us) / 1000.0;
    const bool held = over_ms <= static_cast<double>(opt.te_ms);
    std::printf(
        "wan_node --proc-chaos: Te bound across crashes: last allow %.1f "
        "ms after revoke quorum (bound %d ms) — %s; manager-%u replayed "
        "%lld records\n",
        over_ms, opt.te_ms, held ? "HELD" : "VIOLATED", victim_mgr,
        static_cast<long long>(replayed.value_or(0)));
    all_ok = held;
  }

  if (!all_ok || opt.verbose) {
    for (const ChildProc& child : children) dump_child_output(child);
  }
  if (!all_ok) {
    std::fprintf(stderr, "wan_node --proc-chaos: FAILED (outputs kept in %s)\n",
                 dir);
    return 1;
  }

  // Success: tidy the scratch dir (out files, topology, journal state).
  for (const ChildProc& child : children) {
    std::remove(child.out_path.c_str());
  }
  for (const std::uint32_t id : kManagerIds) {
    const std::string state = std::string(dir) + "/state-" + std::to_string(id);
    std::remove((state + "/app-1.snap").c_str());
    std::remove((state + "/app-1.log").c_str());
    ::rmdir(state.c_str());
  }
  std::remove(topo_path.c_str());
  ::rmdir(dir);
  std::printf("wan_node --proc-chaos: OK (seed %llu)\n",
              static_cast<unsigned long long>(opt.chaos_seed));
  return 0;
}

}  // namespace
}  // namespace wan

int main(int argc, char** argv) {
  wan::Options opt;
  wan::cli::Parser cli(
      "wan_node",
      "Runs the access-control protocol on the real-time runtime: one node\n"
      "of a multi-process UDP deployment (--role), the 8-process localhost\n"
      "UDP smoke orchestrator (--udp-smoke), or its crash-restart variant\n"
      "(--proc-chaos). See docs/ARCHITECTURE.md and docs/WIRE_FORMAT.md.");
  cli.add_flag("--udp-smoke",
               "spawn 3 managers + 4 hosts + 1 agent as 8 OS processes over\n"
               "localhost UDP sockets and verify the Te bound across them",
               &opt.udp_smoke);
  cli.add_flag("--proc-chaos",
               "the 8-process deployment plus a seeded kill/restart\n"
               "schedule: SIGKILL one manager and one host mid-traffic,\n"
               "restart them, and verify journal replay, resync, and the\n"
               "Te bound across the crashes (see docs/CHAOS.md)",
               &opt.proc_chaos);
  cli.add_value("--role", "ROLE",
                "run one node: manager, host, or agent (needs --id and\n"
                "--topology)",
                [&](const std::string& v) {
                  opt.role = v;
                  return v == "manager" || v == "host" || v == "agent";
                });
  cli.add_value("--id", "N", "this node's host id in the topology",
                [&](const std::string& v) {
                  std::uint64_t id = 0;
                  if (!wan::cli::parse_u64(v, &id) || id > 0xFFFFFFFEull) {
                    return false;
                  }
                  opt.id = static_cast<std::uint32_t>(id);
                  opt.id_set = true;
                  return true;
                });
  cli.add_string("--listen", "ADDR",
                 "bind address host:port (default: this node's topology\n"
                 "entry; port 0 picks an ephemeral port)",
                 &opt.listen);
  cli.add_string("--topology", "FILE",
                 "topology file: one '<host-id> <host>:<port>' per line",
                 &opt.topology);
  cli.add_value("--te-ms", "N", "revocation bound Te in ms (default 2000)",
                [&](const std::string& v) {
                  return wan::cli::parse_int(v, &opt.te_ms) && opt.te_ms > 0;
                });
  cli.add_string("--state-dir", "DIR",
                 "manager role: journal ACL state under DIR (created if\n"
                 "missing); a restarted manager replays it and re-syncs",
                 &opt.state_dir);
  cli.add_value("--loss", "P",
                "drop fraction P (0..1) of inbound frames, deterministically\n"
                "seeded",
                [&](const std::string& v) {
                  char* end = nullptr;
                  opt.loss = std::strtod(v.c_str(), &end);
                  return end != v.c_str() && *end == '\0' && opt.loss >= 0.0 &&
                         opt.loss < 1.0;
                });
  cli.add_value("--fault-seed", "N", "seed for the --loss fault stream",
                [&](const std::string& v) {
                  return wan::cli::parse_u64(v, &opt.fault_seed);
                });
  cli.add_flag("--resume",
               "restarted node: skip the one-shot scripted duties (grant,\n"
               "revoke, partition) its first incarnation already performed",
               &opt.resume);
  cli.add_value("--lifetime-ms", "N",
                "serve for N ms before exiting (default: derived from\n"
                "--te-ms; restarted chaos victims get the remaining time)",
                [&](const std::string& v) {
                  return wan::cli::parse_int(v, &opt.lifetime_ms) &&
                         opt.lifetime_ms > 0;
                });
  cli.add_value("--chaos-seed", "N",
                "--proc-chaos: seed for the kill/restart schedule",
                [&](const std::string& v) {
                  return wan::cli::parse_u64(v, &opt.chaos_seed);
                });
  cli.add_string(
      "--trace", "DIR",
      "per-process span capture: each role process writes\n"
      "DIR/<role>-<id>.trace (WANTRACE v1, wall-clock anchored) on clean\n"
      "exit and keeps a crash-surviving flight-recorder ring at\n"
      "DIR/<role>-<id>.ring; orchestrators pass this through to children\n"
      "and --proc-chaos harvests the rings of SIGKILLed victims. Merge with\n"
      "tools/trace_merge",
      &opt.trace_dir);
  cli.add_flag("--verbose", "chatty per-step progress output", &opt.verbose);
  cli.add_optional_value(
      "--metrics", "[FILE]",
      "export the metrics registry (Prometheus text): with FILE, rewrite\n"
      "it twice a second while running and once on exit; without FILE,\n"
      "print to stdout on exit",
      [&] { opt.metrics = true; },
      [&](const std::string& v) {
        opt.metrics_path = v;
        return true;
      });
  if (!cli.parse(argc, argv)) return 2;

  const int modes = (opt.udp_smoke ? 1 : 0) + (opt.proc_chaos ? 1 : 0) +
                    (opt.role.empty() ? 0 : 1);
  if (modes != 1) {
    std::fprintf(stderr,
                 "wan_node: pick exactly one of --udp-smoke, --proc-chaos, "
                 "--role (try --help)\n");
    return 2;
  }
  if (!opt.role.empty() && (!opt.id_set || opt.topology.empty())) {
    std::fprintf(stderr, "wan_node: --role needs --id and --topology\n");
    return 2;
  }

  std::unique_ptr<wan::MetricsExporter> exporter;
  if (opt.metrics && !opt.metrics_path.empty()) {
    exporter = std::make_unique<wan::MetricsExporter>(opt.metrics_path);
  }
  int rc = 0;
  if (opt.udp_smoke) {
    rc = wan::run_udp_smoke(opt, argv[0]);
  } else if (opt.proc_chaos) {
    rc = wan::run_proc_chaos(opt, argv[0]);
  } else {
    rc = wan::run_role(opt);
  }
  if (exporter != nullptr) exporter->stop();
  if (opt.metrics && opt.metrics_path.empty()) {
    const std::string text = wan::obs::Registry::global().prometheus_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
  return rc;
}
