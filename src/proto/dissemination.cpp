#include "proto/dissemination.hpp"

#include <iterator>
#include <utility>

#include "obs/metrics.hpp"
#include "proto/messages.hpp"

namespace wan::proto {
namespace {

obs::Counter& fanout_frames_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("wan_revoke_fanout_frames_total");
  return c;
}

}  // namespace

void Disseminator::revoke(AppId app, UserId user, acl::Version version,
                          const std::set<HostId>& hosts, obs::TraceId trace) {
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

bool Disseminator::on_message(HostId from, const net::MessagePtr& msg) {
  const auto* a = net::message_cast<RevokeNotifyAck>(msg);
  if (a == nullptr) return false;
  const auto it = fwds_.find(key_of(a->app, a->user, a->version));
  // Only a host still pending may confirm: a late or duplicate ack from one
  // that already confirmed must not unlist it, since it may have re-cached a
  // newer grant since.
  if (it == fwds_.end() || it->second->pending.erase(from) == 0) return true;
  obs::record(it->second->trace, obs::SpanKind::kRecv, self_, env_.now(),
              "revoke.ack.recv", from.value());
  sink_.delivered(a->app, from, a->user, a->version);
  if (it->second->pending.empty()) fwds_.erase(it);
  return true;
}

void Disseminator::drop_app(AppId app) {
  const std::uint64_t a = app.value();
  for (auto it = fwds_.begin(); it != fwds_.end();) {
    it = std::get<0>(it->first) == a ? fwds_.erase(it) : std::next(it);
  }
}

void Disseminator::retransmit(Key key) {
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
  static obs::Counter& retransmits =
      obs::Registry::global().counter("wan_revoke_retransmits_total");
  retransmits.inc();
  const auto msg = net::make_message<RevokeNotify>(fwd.app, fwd.user,
                                                   fwd.version, fwd.trace);
  for (const HostId h : fwd.pending) {
    fanout_frames_counter().inc();
    sink_.send(h, msg);
  }
  fwd.retry.arm(retransmit_, [this, key] { retransmit(key); });
}

}  // namespace wan::proto
