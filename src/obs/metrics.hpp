// Uniform metric handles over a process-global registry.
//
// Handles are cheap and stable: `Registry::global().counter("name")` returns
// a reference that lives as long as the process, so call sites cache it in a
// function-local static and pay one registry lookup ever:
//
//   static obs::Counter& c =
//       obs::Registry::global().counter("wan_decisions_total{path=\"cache\"}");
//   c.inc();
//
// Counters/gauges are lock-free atomics; histograms wrap metrics::Histogram
// behind a mutex (record path is a handful of float ops, contention is nil).
// Exposition is Prometheus text format: the metric name string is used
// verbatim, so labels are embedded by the caller as `family{k="v"}` and
// families group naturally in the sorted dump.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "metrics/histogram.hpp"

namespace wan::obs {

/// Monotonic counter. inc() is a relaxed atomic add — safe from any thread.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time gauge (signed, settable).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Thread-safe wrapper over the log-linear metrics::Histogram.
class Histo {
 public:
  void observe_seconds(double s) {
    std::lock_guard<std::mutex> lk(mu_);
    hist_.record_seconds(s);
  }
  void observe(sim::Duration d) { observe_seconds(d.to_seconds()); }
  [[nodiscard]] metrics::Histogram snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return hist_;
  }
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    hist_.reset();
  }

 private:
  mutable std::mutex mu_;
  metrics::Histogram hist_;
};

/// Name-keyed registry. Handles returned by counter()/gauge()/histogram()
/// are owned by the registry and never move or die, so references may be
/// cached indefinitely (the function-local-static pattern above).
class Registry {
 public:
  [[nodiscard]] static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histo& histogram(const std::string& name);

  /// Prometheus text exposition, sorted by metric name. Histograms export
  /// _count/_sum/_max plus p50/p99 quantile samples.
  [[nodiscard]] std::string prometheus_text() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histo>> histos_;
};

}  // namespace wan::obs
