#include "obs/metrics.hpp"

#include <cstdio>

namespace wan::obs {
namespace {

// Family = name up to the label brace; HELP/TYPE lines are emitted once per
// family even when several labeled series share it.
std::string family_of(const std::string& name) {
  auto brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histo& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histos_[name];
  if (!slot) slot = std::make_unique<Histo>();
  return *slot;
}

std::string Registry::prometheus_text() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  out.reserve(4096);
  std::string last_family;
  auto header = [&](const std::string& name, const char* type) {
    std::string fam = family_of(name);
    if (fam == last_family) return;
    last_family = fam;
    out += "# HELP " + fam + " wan runtime metric\n";
    out += "# TYPE " + fam + " " + type + "\n";
  };
  for (const auto& [name, c] : counters_) {
    header(name, "counter");
    out += name + " ";
    append_number(out, static_cast<double>(c->value()));
    out.push_back('\n');
  }
  for (const auto& [name, g] : gauges_) {
    header(name, "gauge");
    out += name + " ";
    append_number(out, static_cast<double>(g->value()));
    out.push_back('\n');
  }
  for (const auto& [name, h] : histos_) {
    header(name, "summary");
    metrics::Histogram snap = h->snapshot();
    out += name + "_count ";
    append_number(out, static_cast<double>(snap.count()));
    out.push_back('\n');
    out += name + "_sum ";
    append_number(out, snap.mean_seconds() * static_cast<double>(snap.count()));
    out.push_back('\n');
    out += name + "_max ";
    append_number(out, snap.count() > 0 ? snap.max_seconds() : 0.0);
    out.push_back('\n');
    out += name + "{quantile=\"0.5\"} ";
    append_number(out, snap.count() > 0 ? snap.quantile_seconds(0.5) : 0.0);
    out.push_back('\n');
    out += name + "{quantile=\"0.99\"} ";
    append_number(out, snap.count() > 0 ? snap.quantile_seconds(0.99) : 0.0);
    out.push_back('\n');
  }
  return out;
}

}  // namespace wan::obs
