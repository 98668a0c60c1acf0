#include "serve/program_cache.hpp"

#include "model/fingerprint.hpp"
#include "support/error.hpp"

namespace sspred::serve {

namespace {

predict::AuthoredModel author(const ModelSpec& spec) {
  switch (spec.app) {
    case ModelSpec::App::kSor:
      return predict::author_sor(spec.platform, spec.config, spec.options);
    case ModelSpec::App::kBlockSor:
      return predict::author_block_sor(spec.platform, spec.config.n,
                                       spec.config.iterations, spec.pr,
                                       spec.pc, spec.options);
    case ModelSpec::App::kJacobi:
      return predict::author_jacobi(spec.platform, spec.config.n,
                                    spec.config.iterations, spec.options);
  }
  throw support::Error("unknown ModelSpec app");
}

}  // namespace

std::string ModelSpec::structure_key() const {
  // One canonical builder (model/fingerprint.hpp) serializes every
  // structural input; registration, the cache and the shard router all
  // consume this same key, so they can never disagree about structure.
  model::Fingerprint fp;
  switch (app) {
    case App::kSor: fp.tag("sor"); break;
    case App::kBlockSor: fp.tag("block"); break;
    case App::kJacobi: fp.tag("jacobi"); break;
  }
  fp.field("n", config.n).field("it", config.iterations);
  for (std::size_t r : config.rows_per_rank) fp.field("rows", r);
  if (app == App::kBlockSor) fp.field("pr", pr).field("pc", pc);
  fp.field("idep", options.iteration_dependence)
      .field("pdep", options.phase_dependence)
      .field("pol", options.max_policy)
      .field("form", options.compute_form)
      .field("ops", options.ops_per_element)
      .field("mem", options.account_memory);
  fp.field("fabric", platform.fabric);
  if (platform.fabric == cluster::FabricKind::kSharedSegment) {
    fp.field("bw", platform.ethernet.nominal_bandwidth)
        .field("lat", platform.ethernet.latency);
  } else {
    fp.field("bw", platform.switched.link_bandwidth)
        .field("lat", platform.switched.latency);
  }
  for (const auto& host : platform.hosts) {
    fp.field("h", host.machine.name)
        .field("bm", host.machine.bm_seconds_per_element)
        .field("ops", host.machine.ops_per_second)
        .field("memel", host.machine.memory_elements)
        .field("thrash", host.machine.thrash_slope);
  }
  return fp.str();
}

CompiledModel::CompiledModel(const ModelSpec& spec)
    : spec_(spec), model_(author(spec)) {}

ProgramCache::Lookup ProgramCache::get_or_compile(const ModelSpec& spec) {
  return get_or_compile(spec, spec.structure_key());
}

ProgramCache::Lookup ProgramCache::get_or_compile(const ModelSpec& spec,
                                                  const std::string& key) {
  std::shared_ptr<Slot> slot;
  bool compiler = false;
  {
    const std::lock_guard lock(mutex_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      slot = std::make_shared<Slot>();
      slots_.emplace(key, slot);
      compiler = true;
    } else {
      slot = it->second;
    }
  }

  if (compiler) {
    compiles_.fetch_add(1, std::memory_order_relaxed);
    CompiledModelPtr model;
    std::string error;
    try {
      model = std::make_shared<const CompiledModel>(spec);
    } catch (const std::exception& e) {
      error = e.what();
    }
    {
      const std::lock_guard lock(slot->m);
      slot->model = model;
      slot->error = error;
      slot->done = true;
    }
    slot->cv.notify_all();
    if (!error.empty()) throw support::Error("model compilation failed: " + error);
    return {model, false};
  }

  std::unique_lock lock(slot->m);
  slot->cv.wait(lock, [&] { return slot->done; });
  if (!slot->error.empty()) {
    throw support::Error("model compilation failed: " + slot->error);
  }
  return {slot->model, true};
}

std::size_t ProgramCache::size() const {
  const std::lock_guard lock(mutex_);
  return slots_.size();
}

void ProgramCache::clear() {
  const std::lock_guard lock(mutex_);
  slots_.clear();
}

}  // namespace sspred::serve
