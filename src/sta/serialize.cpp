#include "sta/serialize.hpp"

#include "core/binio.hpp"

namespace syndcim::sta {

using core::BinDecodeError;
using core::BinReader;
using core::BinWriter;
using core::deep_str_bytes;
using core::deep_vec_bytes;

namespace {

constexpr std::uint8_t kWireVersion = 1;
constexpr std::uint8_t kTimingVersion = 2;

}  // namespace

std::string encode_wire_model(const WireModel& wm) {
  BinWriter w;
  w.u8(kWireVersion);
  w.f64(wm.cap_per_fanout_ff);
  w.u32(static_cast<std::uint32_t>(wm.per_net_cap_ff.size()));
  for (const double c : wm.per_net_cap_ff) w.f64(c);
  return w.take();
}

WireModel decode_wire_model(std::string_view payload) {
  BinReader r(payload);
  if (r.u8() != kWireVersion) {
    throw BinDecodeError("unsupported codec version for wire model");
  }
  WireModel wm;
  wm.cap_per_fanout_ff = r.f64();
  const std::uint32_t n = r.len(8);
  wm.per_net_cap_ff.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) wm.per_net_cap_ff.push_back(r.f64());
  r.expect_end();
  return wm;
}

std::string encode_timing_report(const TimingReport& t) {
  BinWriter w;
  w.u8(kTimingVersion);
  w.f64(t.wns_ps);
  w.f64(t.tns_ps);
  w.f64(t.min_period_ps);
  w.f64(t.fmax_mhz);
  w.f64(t.min_write_period_ps);
  w.u32(static_cast<std::uint32_t>(t.groups.size()));
  for (const GroupSlack& g : t.groups) {
    w.str(g.group);
    w.f64(g.wns_ps);
    w.f64(g.worst_arrival_ps);
  }
  w.f64(t.critical.arrival_ps);
  w.f64(t.critical.required_ps);
  w.str(t.critical.endpoint);
  w.u32(static_cast<std::uint32_t>(t.critical.stages.size()));
  for (const PathStage& s : t.critical.stages) {
    w.str(s.master);
    w.str(s.group);
    w.f64(s.arrival_ps);
  }
  return w.take();
}

TimingReport decode_timing_report(std::string_view payload) {
  BinReader r(payload);
  if (r.u8() != kTimingVersion) {
    throw BinDecodeError("unsupported codec version for timing report");
  }
  TimingReport t;
  t.wns_ps = r.f64();
  t.tns_ps = r.f64();
  t.min_period_ps = r.f64();
  t.fmax_mhz = r.f64();
  t.min_write_period_ps = r.f64();
  const std::uint32_t n_groups = r.len(20);
  t.groups.reserve(n_groups);
  for (std::uint32_t i = 0; i < n_groups; ++i) {
    GroupSlack g;
    g.group = r.str();
    g.wns_ps = r.f64();
    g.worst_arrival_ps = r.f64();
    t.groups.push_back(std::move(g));
  }
  t.critical.arrival_ps = r.f64();
  t.critical.required_ps = r.f64();
  t.critical.endpoint = r.str();
  const std::uint32_t n_stages = r.len(16);
  t.critical.stages.reserve(n_stages);
  for (std::uint32_t i = 0; i < n_stages; ++i) {
    PathStage s;
    s.master = r.str();
    s.group = r.str();
    s.arrival_ps = r.f64();
    t.critical.stages.push_back(std::move(s));
  }
  r.expect_end();
  return t;
}

std::size_t deep_bytes(const WireModel& w) {
  return deep_vec_bytes(w.per_net_cap_ff);
}

std::size_t deep_bytes(const TimingReport& t) {
  std::size_t n = deep_vec_bytes(t.groups) +
                  deep_vec_bytes(t.critical.stages) +
                  deep_str_bytes(t.critical.endpoint);
  for (const GroupSlack& g : t.groups) n += deep_str_bytes(g.group);
  for (const PathStage& s : t.critical.stages) {
    n += deep_str_bytes(s.master) + deep_str_bytes(s.group);
  }
  return n;
}

}  // namespace syndcim::sta
