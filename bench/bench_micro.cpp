// Microbenchmarks (google-benchmark) for the data-plane primitives: the
// per-message costs a real deployment of the protocol would pay. The paper's
// fast path is "check ACL_cache, allow" — these pin down what that costs.
#include <benchmark/benchmark.h>

#include "acl/cache.hpp"
#include "acl/store.hpp"
#include "analysis/availability.hpp"
#include "auth/authenticator.hpp"
#include "auth/credentials.hpp"
#include "metrics/histogram.hpp"
#include "net/codec.hpp"
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "quorum/quorum.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace wan {
namespace {

void BM_AclCacheHit(benchmark::State& state) {
  acl::AclCache cache;
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const clk::LocalTime t0 = clk::LocalTime::from_nanos(0);
  for (std::uint32_t i = 0; i < n; ++i) {
    cache.insert(UserId(i), acl::RightSet(acl::Right::kUse),
                 t0 + sim::Duration::hours(1), acl::Version{1, HostId(0)}, t0);
  }
  std::uint32_t u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(UserId(u), t0));
    u = (u + 1) % n;
  }
}
BENCHMARK(BM_AclCacheHit)->Arg(16)->Arg(1024)->Arg(65536);

void BM_AclCacheMiss(benchmark::State& state) {
  acl::AclCache cache;
  const clk::LocalTime t0 = clk::LocalTime::from_nanos(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(UserId(1), t0));
  }
}
BENCHMARK(BM_AclCacheMiss);

void BM_AclCacheInsert(benchmark::State& state) {
  acl::AclCache cache;
  const clk::LocalTime t0 = clk::LocalTime::from_nanos(0);
  std::uint32_t u = 0;
  for (auto _ : state) {
    cache.insert(UserId(u++ % 4096), acl::RightSet(acl::Right::kUse),
                 t0 + sim::Duration::hours(1), acl::Version{1, HostId(0)}, t0);
  }
}
BENCHMARK(BM_AclCacheInsert);

void BM_AclStoreApply(benchmark::State& state) {
  acl::AclStore store;
  std::uint64_t v = 0;
  for (auto _ : state) {
    store.apply(acl::AclUpdate{UserId(static_cast<std::uint32_t>(v % 1024)),
                               acl::Right::kUse, acl::Op::kAdd,
                               acl::Version{++v, HostId(0)}});
  }
}
BENCHMARK(BM_AclStoreApply);

void BM_AclStoreSnapshot(benchmark::State& state) {
  acl::AclStore store;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) {
    store.apply(acl::AclUpdate{UserId(static_cast<std::uint32_t>(i)),
                               acl::Right::kUse, acl::Op::kAdd,
                               acl::Version{i + 1, HostId(0)}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.snapshot());
  }
}
BENCHMARK(BM_AclStoreSnapshot)->Arg(128)->Arg(4096);

void BM_QuorumTracker(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    quorum::QuorumTracker tracker(m / 2 + 1);
    for (int i = 0; i < m; ++i) {
      benchmark::DoNotOptimize(tracker.record(HostId(static_cast<std::uint32_t>(i))));
    }
  }
}
BENCHMARK(BM_QuorumTracker)->Arg(5)->Arg(32);

void BM_SignAndVerify(benchmark::State& state) {
  Rng rng(1);
  const auth::KeyPair kp = auth::generate_keypair(rng);
  auth::KeyRegistry reg;
  reg.register_user(UserId(1), kp.public_key);
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    const auth::Signature sig = auth::sign(UserId(1), payload, kp.secret);
    benchmark::DoNotOptimize(reg.verify(UserId(1), payload, sig));
  }
}
BENCHMARK(BM_SignAndVerify)->Arg(64)->Arg(1024);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_after(sim::Duration::nanos(i), [] {});
    }
    benchmark::DoNotOptimize(sched.run_all());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerThroughput);

// The same workload through the handle-free post path: no shared_ptr<bool>
// cancellation flag per event, so this is the fire-and-forget cost that
// Network::deliver and the runtime seam's post() actually pay. The delta
// against BM_SchedulerThroughput is the per-event allocation saved.
void BM_SchedulerPostThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      sched.post_after(sim::Duration::nanos(i), [] {});
    }
    benchmark::DoNotOptimize(sched.run_all());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerPostThroughput);

void BM_HistogramRecord(benchmark::State& state) {
  metrics::Histogram hist;
  Rng rng(2);
  for (auto _ : state) {
    hist.record_seconds(rng.next_exponential(0.05));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_AnalyticPa(benchmark::State& state) {
  for (auto _ : state) {
    for (int c = 1; c <= 10; ++c) {
      benchmark::DoNotOptimize(analysis::availability_pa(10, c, 0.1));
    }
  }
}
BENCHMARK(BM_AnalyticPa);

void BM_RngNextDouble(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_double());
  }
}
BENCHMARK(BM_RngNextDouble);

// The wire codec on the three frames of a check (Fig. 3): the host's
// InvokeRequest, a manager's QueryRequest and its QueryResponse. Arg 0
// picks the message in that order.
net::MessagePtr check_frame(std::int64_t which) {
  proto::register_wire_messages();
  switch (which) {
    case 0:
      return net::make_message<proto::QueryRequest>(AppId(1), UserId(42), 7,
                                                    99);
    case 1:
      return net::make_message<proto::QueryResponse>(
          AppId(1), UserId(42), 7, acl::RightSet(acl::Right::kUse),
          acl::Version{12, HostId(2), 3}, sim::Duration::seconds(30), 99);
    default:
      return net::make_message<proto::InvokeRequest>(
          AppId(1), UserId(42), 7, 1234, auth::Signature{0xfeedULL}, "x", 99);
  }
}

// Arg 1 = 0: encode_into() a reused vector, the per-frame API. Arg 1 = 1:
// encode_append() into a datagram bundle, cleared whenever the next frame
// would take it past net::kBundleBytes, as the socket fabric's send path
// encodes.
void BM_EncodeFrame(benchmark::State& state) {
  const net::MessagePtr msg = check_frame(state.range(0));
  const net::CodecRegistry& codec = net::CodecRegistry::global();
  if (state.range(1) == 0) {
    std::vector<std::uint8_t> frame;
    for (auto _ : state) {
      codec.encode_into(HostId(1), HostId(2), *msg, &frame);
      benchmark::DoNotOptimize(frame.data());
    }
  } else {
    net::WireWriter bundle;
    const std::size_t frame_size =
        codec.encode(HostId(1), HostId(2), *msg).value().size();
    for (auto _ : state) {
      if (bundle.size() + frame_size > net::kBundleBytes) bundle.clear();
      codec.encode_append(HostId(1), HostId(2), *msg, &bundle);
      benchmark::DoNotOptimize(bundle.data());
    }
  }
}
BENCHMARK(BM_EncodeFrame)
    ->ArgNames({"msg", "append"})
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Repetitions(10)
    ->ReportAggregatesOnly(true);

void BM_DecodeFrame(benchmark::State& state) {
  const net::CodecRegistry& codec = net::CodecRegistry::global();
  const std::vector<std::uint8_t> frame =
      codec.encode(HostId(1), HostId(2), *check_frame(state.range(0))).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(frame.data(), frame.size()));
  }
}
BENCHMARK(BM_DecodeFrame)
    ->ArgName("msg")
    ->DenseRange(0, 2)
    ->Repetitions(10)
    ->ReportAggregatesOnly(true);

}  // namespace
}  // namespace wan

BENCHMARK_MAIN();
