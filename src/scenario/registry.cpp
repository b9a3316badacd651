#include "scenario/registry.hpp"

namespace proxcache {

namespace {

ExperimentConfig workload_base() {
  ExperimentConfig config;
  config.num_files = 500;
  config.cache_size = 10;
  return config;
}

Scenario make(std::string name, std::string summary, ExperimentConfig config) {
  Scenario scenario;
  scenario.name = std::move(name);
  scenario.summary = std::move(summary);
  scenario.config = std::move(config);
  return scenario;
}

}  // namespace

ScenarioRegistry::ScenarioRegistry() {
  {
    ExperimentConfig config = workload_base();
    items_.push_back(make(
        "baseline-uniform",
        "paper model: uniform origins, uniform catalog", config));
  }
  {
    ExperimentConfig config = workload_base();
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 0.8;
    items_.push_back(make(
        "baseline-zipf",
        "paper model with a Zipf(0.8) catalog (Remark 2)", config));
  }
  {
    ExperimentConfig config = workload_base();
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 0.8;
    config.origins.kind = OriginKind::Hotspot;
    config.origins.hotspot_fraction = 0.6;
    config.origins.hotspot_radius = 4;
    items_.push_back(make(
        "hotspot",
        "static hotspot: 60% of demand born in a radius-4 disc", config));
  }
  {
    ExperimentConfig config = workload_base();
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 0.8;
    config.trace.kind = TraceKind::FlashCrowd;
    config.trace.flash_peak = 0.9;
    config.trace.flash_start = 0.25;
    config.trace.flash_end = 0.75;
    config.trace.flash_radius = 4;
    items_.push_back(make(
        "flash-crowd",
        "demand pulse: in-disc fraction ramps 0 -> 0.9 -> 0 mid-trace",
        config));
  }
  {
    ExperimentConfig config = workload_base();
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 0.8;
    config.trace.kind = TraceKind::Diurnal;
    config.trace.diurnal_amplitude = 0.4;
    config.trace.diurnal_cycles = 2;
    items_.push_back(make(
        "diurnal",
        "Zipf exponent oscillates 0.8 +/- 0.4 over two cycles", config));
  }
  {
    ExperimentConfig config = workload_base();
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 0.8;
    config.trace.kind = TraceKind::Churn;
    config.trace.churn_offline_fraction = 0.25;
    config.trace.churn_epochs = 8;
    items_.push_back(make(
        "churn",
        "catalog churn: 25% of files offline, reshuffled over 8 epochs",
        config));
  }
  {
    ExperimentConfig config = workload_base();
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 0.8;
    config.trace.kind = TraceKind::TemporalLocality;
    config.trace.locality_prob = 0.4;
    config.trace.locality_depth = 64;
    items_.push_back(make(
        "temporal-locality",
        "40% of requests reuse one of the last 64 requested files", config));
  }
  {
    ExperimentConfig config = workload_base();
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 0.8;
    config.trace.kind = TraceKind::Adversarial;
    config.trace.attack_fraction = 0.5;
    config.trace.attack_top_k = 4;
    items_.push_back(make(
        "adversarial-topk",
        "adversary pins half the requests to the 4 hottest files", config));
  }
  for (const Scenario& scenario : items_) {
    scenario.config.validate();
  }
}

const ScenarioRegistry& ScenarioRegistry::built_ins() {
  static const ScenarioRegistry registry;
  return registry;
}

}  // namespace proxcache
