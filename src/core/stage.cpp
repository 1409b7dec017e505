#include "core/stage.hpp"

#include <sstream>

#include "core/artifact_codec.hpp"

namespace syndcim::core {

void replay_diags(const std::vector<Diagnostic>& diags, DiagEngine& sink) {
  for (const Diagnostic& d : diags) sink.report(d);
}

ArtifactStore::ArtifactStore() { install_deep_bytes(*this); }

void ArtifactStore::attach_blob_store(BlobStore* l2) {
  core::attach_blob_store(*this, l2);
}

template <typename Self, typename F>
void ArtifactStore::for_each_tier(Self& self, F&& f) {
  f(self.modules);
  f(self.flats);
  f(self.activity);
  f(self.lints);
  f(self.placed);
  f(self.routes);
  f(self.timings);
  f(self.powers);
  f(self.act_models);
}

std::size_t ArtifactStore::flush_l2() {
  std::size_t n = 0;
  for_each_tier(*this, [&](auto& tier) { n += tier.flush_l2(); });
  return n;
}

void ArtifactStore::set_enabled(bool on) {
  for_each_tier(*this, [&](auto& tier) { tier.set_enabled(on); });
}

void ArtifactStore::set_capacity(std::size_t max_entries,
                                 std::size_t max_bytes) {
  for_each_tier(*this,
                [&](auto& tier) { tier.set_capacity(max_entries, max_bytes); });
}

std::vector<ArtifactTierStats> ArtifactStore::stats() const {
  std::vector<ArtifactTierStats> out;
  for_each_tier(*this,
                [&](const auto& tier) { out.push_back(tier.stats()); });
  return out;
}

std::uint64_t ArtifactStore::total_hits() const {
  std::uint64_t n = 0;
  for (const ArtifactTierStats& t : stats()) n += t.hits;
  return n;
}

std::uint64_t ArtifactStore::total_misses() const {
  std::uint64_t n = 0;
  for (const ArtifactTierStats& t : stats()) n += t.misses;
  return n;
}

std::size_t ArtifactStore::total_entries() const {
  std::size_t n = 0;
  for (const ArtifactTierStats& t : stats()) n += t.entries;
  return n;
}

std::uint64_t ArtifactStore::total_evicted() const {
  std::uint64_t n = 0;
  for (const ArtifactTierStats& t : stats()) n += t.evicted;
  return n;
}

std::string ArtifactStore::stats_json() const {
  std::ostringstream os;
  os << "{\"format\": \"syndcim-artifact-store\", \"tiers\": [";
  bool first = true;
  for (const ArtifactTierStats& t : stats()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << json_escape_string(t.name)
       << "\", \"hits\": " << t.hits << ", \"misses\": " << t.misses
       << ", \"entries\": " << t.entries << ", \"evicted\": " << t.evicted
       << ", \"bytes\": " << t.bytes << ", \"l2_hits\": " << t.l2_hits
       << ", \"l2_misses\": " << t.l2_misses
       << ", \"l2_writes\": " << t.l2_writes
       << ", \"l2_write_fails\": " << t.l2_write_fails
       << ", \"l2_rejects\": " << t.l2_rejects << "}";
  }
  os << "]}";
  return os.str();
}

void ArtifactStore::publish_metrics(const std::string& prefix) const {
  if (!obs::enabled()) return;
  auto& reg = obs::metrics();
  for (const ArtifactTierStats& t : stats()) {
    const std::string base = prefix + "." + t.name;
    reg.gauge(base + ".hits").set(static_cast<double>(t.hits));
    reg.gauge(base + ".misses").set(static_cast<double>(t.misses));
    reg.gauge(base + ".entries").set(static_cast<double>(t.entries));
    reg.gauge(base + ".evicted").set(static_cast<double>(t.evicted));
    reg.gauge(base + ".l2_hits").set(static_cast<double>(t.l2_hits));
    reg.gauge(base + ".l2_writes").set(static_cast<double>(t.l2_writes));
  }
  reg.gauge(prefix + ".evicted").set(static_cast<double>(total_evicted()));
}

std::size_t StagePipeline::runs() const {
  std::size_t n = 0;
  for (const StageRecord& r : records_) n += r.skipped ? 0 : 1;
  return n;
}

std::size_t StagePipeline::skips() const {
  std::size_t n = 0;
  for (const StageRecord& r : records_) n += r.skipped ? 1 : 0;
  return n;
}

void StagePipeline::note(const std::string& stage, const std::string& key,
                         bool skipped, std::uint64_t t0) {
  const std::uint64_t now = obs::now_ns();
  StageRecord rec;
  rec.stage = stage;
  rec.key = key;
  rec.skipped = skipped;
  rec.wall_ms = static_cast<double>(now - t0) * 1e-6;
  if (obs::enabled()) {
    obs::metrics()
        .counter(skipped ? "pipeline.stage.skips" : "pipeline.stage.runs")
        .inc();
    if (skipped) {
      obs::tracer().record(name_ + "." + stage + ".skip", t0, now - t0);
    }
  }
  records_.push_back(std::move(rec));
}

}  // namespace syndcim::core
