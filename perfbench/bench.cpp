#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

alge::core::MachineParams scaling_machine() {
  alge::core::MachineParams mp;
  mp.gamma_t = 1.0;
  mp.beta_t = 2.0;
  mp.alpha_t = 10.0;
  mp.gamma_e = 1.0;
  mp.beta_e = 4.0;
  mp.alpha_e = 20.0;
  mp.delta_e = 1e-4;
  mp.eps_e = 1e-2;
  mp.max_msg_words = 1e18;
  return mp;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finaliser over the pair: distinct (seed, salt) pairs give
  // unrelated streams.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double RoundTimes::total() const {
  double s = 0.0;
  for (const auto& ops : stage) {
    for (const double t : ops) s += t;
  }
  return s;
}

void Tracer::record(const std::string& name, Clock::time_point t0,
                    Clock::time_point t1) {
  log_.record(name, 0, t0, t1, false);
  durations_[name].push_back(std::chrono::duration<double>(t1 - t0).count());
}

double Tracer::total(const std::string& name) const {
  double s = 0.0;
  for (const double d : samples(name)) s += d;
  return s;
}

const std::vector<double>& Tracer::samples(const std::string& name) const {
  static const std::vector<double> kNone;
  const auto it = durations_.find(name);
  return it == durations_.end() ? kNone : it->second;
}

void Tracer::write_chrome(const std::string& path) const {
  log_.write_chrome_file(path);
}

void Outcome::check_failed(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
}

void Outcome::op_failed(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "[perfbench] OPERATION FAILED: %s\n", what.c_str());
}

}  // namespace perfbench
