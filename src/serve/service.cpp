#include "serve/service.hpp"

#include "model/fingerprint.hpp"
#include "support/error.hpp"

namespace sspred::serve {

PredictionService::PredictionService(ServiceOptions options)
    : options_(options),
      clock_(options.clock ? options.clock : support::real_clock()),
      router_(options.shards),
      epochs_published_(metrics_.counter("epochs_published")),
      observations_unmatched_(metrics_.counter("observations_unmatched")) {
  SSPRED_REQUIRE(options_.shards >= 1 && options_.shards <= kMaxShards,
                 "service needs 1.." + std::to_string(kMaxShards) +
                     " shards");
  if (options_.enable_learning) {
    // Node-local learn state: the bank is filled into OUR options copy
    // only, so a caller holding the original options (e.g. a dserve node
    // that will restart() us) keeps its null and a replacement service
    // starts from a blank bank, re-converging from fresh observations.
    if (!options_.bank) {
      options_.bank = std::make_shared<learn::PredictorBank>();
    }
    arbiter_ = std::make_unique<learn::Arbiter>();
    metrics_.add_child("learn", &learn_metrics_);
  }
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<PredictionShard>(
        s, options_, clock_, models_, arbiter_.get(), metrics_,
        learn_metrics_));
  }
  if (options_.shards > 1) {
    // With one shard the rolled-up registry IS the shard's story; the
    // per-shard breakdown only earns its render space beyond that.
    for (std::size_t s = 0; s < options_.shards; ++s) {
      metrics_.add_child("shard" + std::to_string(s),
                         &shards_[s]->metrics());
    }
  }
}

PredictionService::~PredictionService() {
  shards_.clear();  // joins every worker; shard registries die with them
  metrics_.clear_children();
}

void PredictionService::register_model(const std::string& id, ModelSpec spec) {
  models_.insert(id, std::move(spec));
}

std::vector<std::string> PredictionService::model_ids() const {
  return models_.ids();
}

std::size_t PredictionService::shard_of(const std::string& model_id) const {
  const ModelTable::EntryPtr entry = models_.find(model_id);
  return entry ? router_.route_hash(entry->key_hash)
               : router_.route(model_id);
}

std::size_t PredictionService::route(PredictionShard::Job& job) const {
  // Submit-time registration stamp: gives the router the structure key's
  // hash. Null (unknown id) routes by id text — deterministically, so the
  // shard that reports the structured error is stable too.
  job.model = models_.find(job.request.model_id);
  job.enqueue_time = clock_->now();
  return job.model ? router_.route_hash(job.model->key_hash)
                   : router_.route(job.request.model_id);
}

std::uint64_t PredictionService::next_id(std::size_t shard) noexcept {
  return (next_seq_.fetch_add(1, std::memory_order_relaxed) << kShardBits) |
         shard;
}

std::future<PredictResult> PredictionService::submit(PredictRequest request) {
  PredictionShard::Job job;
  job.request = std::move(request);
  const std::size_t shard = route(job);
  job.id = next_id(shard);
  auto future = job.promise.get_future();
  shards_[shard]->submit(std::move(job));
  return future;
}

PredictResult PredictionService::serve(PredictRequest request) {
  PredictionShard::Job job;
  job.request = std::move(request);
  const std::size_t shard = route(job);
  job.id = next_id(shard);
  return shards_[shard]->serve(std::move(job));
}

void PredictionService::publish_epoch(EpochPtr epoch) {
  // Fan out in shard order. A publish concurrent with submissions is
  // naturally racy per shard (a request admitted "around" the publish
  // pins either the old or the new epoch — never a mix: each job pins
  // exactly one immutable snapshot at its shard's admission).
  for (auto& shard : shards_) shard->publish_epoch(epoch);
  epochs_published_.increment();
}

EpochPtr PredictionService::current_epoch() const {
  return shards_.front()->current_epoch();
}

void PredictionService::pause() {
  for (auto& shard : shards_) shard->pause();
}

void PredictionService::resume() {
  for (auto& shard : shards_) shard->resume();
}

void PredictionService::drain() {
  for (auto& shard : shards_) shard->drain();
}

bool PredictionService::report_observation(std::uint64_t request_id,
                                           double observed_seconds) {
  const std::size_t shard = shard_of_id(request_id);
  if (shard >= shards_.size()) {
    observations_unmatched_.increment();
    return false;
  }
  return shards_[shard]->report_observation(request_id, observed_seconds);
}

ProgramCache& PredictionService::cache(std::size_t shard) {
  SSPRED_REQUIRE(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->cache();
}

MetricsRegistry& PredictionService::shard_metrics(std::size_t shard) {
  SSPRED_REQUIRE(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->metrics();
}

}  // namespace sspred::serve
