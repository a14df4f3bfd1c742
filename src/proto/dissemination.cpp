#include "proto/dissemination.hpp"

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "proto/messages.hpp"
#include "util/assert.hpp"

namespace wan::proto {
namespace {

// One in-flight right, keyed by (app, user, version counter) — the same key
// the old inline loop used, extended by the app so one strategy instance can
// serve every app a manager runs.
using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

/// Coalesced: a buffered window is flushed as soon as it holds this many
/// rights, even if the flush timer has not fired.
constexpr std::size_t kBatchMaxRights = 64;
/// Coalesced: how long a freshly revoked right may sit buffered waiting
/// for more rights to share its frame. Small by construction: it spends a
/// slice of the Te budget to save frames.
constexpr sim::Duration kFlushInterval = sim::Duration::millis(20);

Key key_of(AppId app, UserId user, const acl::Version& v) {
  return {static_cast<std::uint64_t>(app.value()),
          static_cast<std::uint64_t>(user.value()), v.counter};
}

obs::Counter& fanout_frames_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_revoke_fanout_frames_total");
  return c;
}

obs::Counter& coalesced_rights_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_revoke_coalesced_rights");
  return c;
}

obs::Counter& retransmits_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_revoke_retransmits_total");
  return c;
}

// --------------------------------------------------------------- unicast

/// The reference strategy: frame-for-frame identical to the inline loop this
/// interface replaced (one RevokeNotify per host per right, retransmitted on
/// the manager's revoke_retransmit period until acked or past the deadline).
/// The conformance sweeps pin unicast against the model on every backend, so
/// any drift from the old behavior surfaces there.
class UnicastDisseminator final : public Disseminator {
 public:
  UnicastDisseminator(HostId self, runtime::Env& env, sim::Duration te,
                      sim::Duration retransmit, Sink& sink)
      : self_(self), env_(env), te_(te), retransmit_(retransmit), sink_(sink) {}

  void revoke(AppId app, UserId user, acl::Version version,
              const std::set<HostId>& hosts, obs::TraceId trace) override {
    const Key key = key_of(app, user, version);
    auto fwd = std::make_unique<Fwd>(env_);
    fwd->app = app;
    fwd->user = user;
    fwd->version = version;
    fwd->pending = hosts;
    fwd->trace = trace;
    // "it can stop resending the message when the access right would have
    // expired based on the time mechanism" (§3.4): Te after now bounds every
    // outstanding cached copy.
    fwd->deadline = env_.now() + te_;

    static obs::Counter& notifies =
        obs::Registry::global().counter("wan_revoke_notifies_total");
    const auto msg = net::make_message<RevokeNotify>(app, user, version, trace);
    for (const HostId h : fwd->pending) {
      obs::record(trace, obs::SpanKind::kSend, self_, env_.now(),
                  "revoke.notify.send", h.value(),
                  static_cast<std::int64_t>(version.counter));
      notifies.inc();
      fanout_frames_counter().inc();
      sink_.send(h, msg);
    }
    Fwd& ref = *fwd;
    fwds_[key] = std::move(fwd);
    ref.retry.arm(retransmit_, [this, key] { retransmit(key); });
  }

  bool on_message(HostId from, const net::MessagePtr& msg) override {
    const auto* a = net::message_cast<RevokeNotifyAck>(msg);
    if (a == nullptr) return false;
    const auto it = fwds_.find(key_of(a->app, a->user, a->version));
    if (it == fwds_.end()) return true;
    obs::record(it->second->trace, obs::SpanKind::kRecv, self_, env_.now(),
                "revoke.ack.recv", from.value());
    it->second->pending.erase(from);
    sink_.delivered(a->app, from, a->user, a->version);
    if (it->second->pending.empty()) fwds_.erase(it);
    return true;
  }

  [[nodiscard]] std::size_t inflight() const override { return fwds_.size(); }

  void drop_app(AppId app) override {
    const std::uint64_t a = app.value();
    for (auto it = fwds_.begin(); it != fwds_.end();) {
      it = std::get<0>(it->first) == a ? fwds_.erase(it) : std::next(it);
    }
  }

  void shutdown() override { fwds_.clear(); }

 private:
  struct Fwd {
    AppId app{};
    UserId user{};
    acl::Version version{};
    std::set<HostId> pending;
    sim::TimePoint deadline{};
    obs::TraceId trace = 0;
    runtime::Timer retry;

    explicit Fwd(runtime::Env& env) : retry(env.make_timer()) {}
  };

  void retransmit(Key key) {
    const auto it = fwds_.find(key);
    if (it == fwds_.end()) return;
    Fwd& fwd = *it->second;
    if (env_.now() >= fwd.deadline || fwd.pending.empty()) {
      fwds_.erase(it);
      return;
    }
    obs::record(fwd.trace, obs::SpanKind::kTimer, self_, env_.now(),
                "revoke.retransmit",
                static_cast<std::int64_t>(fwd.pending.size()));
    retransmits_counter().inc();
    const auto msg =
        net::make_message<RevokeNotify>(fwd.app, fwd.user, fwd.version,
                                        fwd.trace);
    for (const HostId h : fwd.pending) {
      fanout_frames_counter().inc();
      sink_.send(h, msg);
    }
    fwd.retry.arm(retransmit_, [this, key] { retransmit(key); });
  }

  HostId self_;
  runtime::Env& env_;
  sim::Duration te_;
  sim::Duration retransmit_;
  Sink& sink_;
  std::map<Key, std::unique_ptr<Fwd>> fwds_;
};

// ------------------------------------------------------------- coalesced

/// One RevokeBatch per destination per flush window: a Right ledger (who
/// still needs which (user, version)), a short-lived flush buffer that
/// collects rights revoked within one flush window, and Batch records that
/// own the retransmit loop for the frames actually sent.
class CoalescedDisseminator final : public Disseminator {
 public:
  CoalescedDisseminator(HostId self, runtime::Env& env, sim::Duration te,
                        sim::Duration retransmit, Sink& sink)
      : self_(self), env_(env), te_(te), retransmit_(retransmit), sink_(sink) {}

  void revoke(AppId app, UserId user, acl::Version version,
              const std::set<HostId>& hosts, obs::TraceId trace) override {
    const Key key = key_of(app, user, version);
    Right& r = rights_[key];
    r.app = app;
    r.user = user;
    r.version = version;
    r.trace = trace;
    r.deadline = env_.now() + te_;
    r.pending = hosts;

    Buffer& buf = buffer_of(app);
    buf.keys.push_back(key);
    if (buf.keys.size() >= kBatchMaxRights) {
      flush_app(app);
      return;
    }
    if (!buf.armed) {
      buf.armed = true;
      buf.flush.arm(kFlushInterval, [this, app] { flush_app(app); });
    }
  }

  bool on_message(HostId from, const net::MessagePtr& msg) override {
    if (const auto* a = net::message_cast<RevokeBatchAck>(msg)) {
      confirm(from, a->batch_id);
      return true;
    }
    // Stray RevokeNotifyAck (e.g. from a host that acked a pre-reconfig
    // unicast notify) is dissemination traffic too; consume it.
    return net::message_cast<RevokeNotifyAck>(msg) != nullptr;
  }

  [[nodiscard]] std::size_t inflight() const override { return rights_.size(); }

  void drop_app(AppId app) override {
    const std::uint64_t a = app.value();
    for (auto it = rights_.begin(); it != rights_.end();) {
      it = std::get<0>(it->first) == a ? rights_.erase(it) : std::next(it);
    }
    for (auto it = batches_.begin(); it != batches_.end();) {
      it = it->second->app == app ? batches_.erase(it) : std::next(it);
    }
    buffers_.erase(app);
  }

  void shutdown() override {
    rights_.clear();
    batches_.clear();
    buffers_.clear();
  }

 private:
  struct Right {
    AppId app{};
    UserId user{};
    acl::Version version{};
    obs::TraceId trace = 0;
    sim::TimePoint deadline{};
    std::set<HostId> pending;
  };

  /// One frame's worth of retransmission state: the rights it carries and
  /// the one destination that has not confirmed them yet. Confirmation
  /// erases the batch.
  struct Batch {
    AppId app{};
    HostId dest{};
    std::vector<Key> items;  ///< rights carried by the LAST frame sent
    obs::TraceId trace = 0;
    runtime::Timer retry;

    explicit Batch(runtime::Env& env) : retry(env.make_timer()) {}
  };

  struct Buffer {
    std::vector<Key> keys;  ///< rights awaiting the flush window (may repeat)
    bool armed = false;
    runtime::Timer flush;

    explicit Buffer(runtime::Env& env) : flush(env.make_timer()) {}
  };

  Buffer& buffer_of(AppId app) {
    auto it = buffers_.find(app);
    if (it == buffers_.end()) {
      it = buffers_.emplace(app, std::make_unique<Buffer>(env_)).first;
    }
    return *it->second;
  }

  /// Filters `keys` down to live, unexpired rights (deduplicated, original
  /// order); expired rights are retired wholesale — their cached copies have
  /// expired on their own clocks, so retrying is pointless (§3.4).
  std::vector<Key> live_keys(const std::vector<Key>& keys) {
    std::vector<Key> live;
    std::set<Key> seen;
    for (const Key& k : keys) {
      if (!seen.insert(k).second) continue;
      const auto it = rights_.find(k);
      if (it == rights_.end()) continue;
      if (env_.now() >= it->second.deadline || it->second.pending.empty()) {
        rights_.erase(it);
        continue;
      }
      live.push_back(k);
    }
    return live;
  }

  std::vector<RevokeItem> wire_items(const std::vector<Key>& keys) const {
    std::vector<RevokeItem> items;
    items.reserve(keys.size());
    for (const Key& k : keys) {
      const auto it = rights_.find(k);
      if (it == rights_.end()) continue;
      items.push_back(RevokeItem{it->second.user, it->second.version});
    }
    return items;
  }

  /// Turns one flush window's rights into Batch records + first frames:
  /// each host gets exactly one frame carrying every right it still holds.
  void flush_app(AppId app) {
    const auto bit = buffers_.find(app);
    if (bit == buffers_.end()) return;
    std::vector<Key> keys;
    keys.swap(bit->second->keys);
    bit->second->armed = false;
    bit->second->flush.cancel();
    std::map<HostId, std::vector<Key>> by_dest;
    for (const Key& k : live_keys(keys)) {
      for (const HostId h : rights_[k].pending) by_dest[h].push_back(k);
    }
    for (auto& [dest, dest_keys] : by_dest) {
      open_batch(app, dest, std::move(dest_keys));
    }
  }

  void open_batch(AppId app, HostId dest, std::vector<Key> keys) {
    const std::uint64_t id = next_batch_id_++;
    auto batch = std::make_unique<Batch>(env_);
    batch->app = app;
    batch->dest = dest;
    batch->items = std::move(keys);
    batch->trace = rights_[batch->items.front()].trace;
    Batch& ref = *batch;
    batches_[id] = std::move(batch);
    send_frame(id, ref);
    ref.retry.arm(retransmit_, [this, id] { retransmit(id); });
  }

  void send_frame(std::uint64_t batch_id, const Batch& b) {
    obs::record(b.trace, obs::SpanKind::kSend, self_, env_.now(),
                "revoke_fanout", b.dest.value(),
                static_cast<std::int64_t>(b.items.size()));
    fanout_frames_counter().inc();
    coalesced_rights_counter().inc(b.items.size());
    sink_.send(b.dest, net::make_message<RevokeBatch>(b.app, batch_id,
                                                      wire_items(b.items),
                                                      b.trace));
  }

  void retransmit(std::uint64_t id) {
    const auto it = batches_.find(id);
    if (it == batches_.end()) return;
    Batch& b = *it->second;
    b.items = live_keys(b.items);
    if (b.items.empty()) {
      batches_.erase(it);
      return;
    }
    // a0 counts the unconfirmed destinations, as in the unicast span: a
    // live batch has exactly one.
    obs::record(b.trace, obs::SpanKind::kTimer, self_, env_.now(),
                "revoke.retransmit", 1);
    retransmits_counter().inc();
    send_frame(id, b);
    b.retry.arm(retransmit_, [this, id] { retransmit(id); });
  }

  /// Applies `from`'s confirmation of batch `id`: every right the LAST frame
  /// carried is delivered at `from`. Only the batch's destination may
  /// confirm it; anyone else claiming progress is ignored.
  void confirm(HostId from, std::uint64_t id) {
    const auto it = batches_.find(id);
    if (it == batches_.end() || it->second->dest != from) return;
    const Batch& b = *it->second;
    for (const Key& k : b.items) {
      const auto rit = rights_.find(k);
      if (rit == rights_.end()) continue;
      Right& r = rit->second;
      r.pending.erase(from);
      sink_.delivered(r.app, from, r.user, r.version);
      if (r.pending.empty()) rights_.erase(rit);
    }
    obs::record(b.trace, obs::SpanKind::kRecv, self_, env_.now(),
                "revoke.ack.recv", from.value(), 1);
    batches_.erase(it);
  }

  HostId self_;
  runtime::Env& env_;
  sim::Duration te_;
  sim::Duration retransmit_;
  Sink& sink_;
  std::map<Key, Right> rights_;
  std::map<std::uint64_t, std::unique_ptr<Batch>> batches_;
  std::map<AppId, std::unique_ptr<Buffer>> buffers_;
  std::uint64_t next_batch_id_ = 1;
};

}  // namespace

std::unique_ptr<Disseminator> make_disseminator(
    runtime::DisseminationKind kind, HostId self, runtime::Env& env,
    sim::Duration te, sim::Duration retransmit_period,
    Disseminator::Sink& sink) {
  switch (kind) {
    case runtime::DisseminationKind::kUnicast:
      return std::make_unique<UnicastDisseminator>(self, env, te,
                                                   retransmit_period, sink);
    case runtime::DisseminationKind::kCoalesced:
      return std::make_unique<CoalescedDisseminator>(self, env, te,
                                                     retransmit_period, sink);
  }
  WAN_REQUIRE(false);
  return nullptr;
}

}  // namespace wan::proto
