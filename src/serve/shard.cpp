#include "serve/shard.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "learn/feature.hpp"
#include "model/fingerprint.hpp"
#include "support/error.hpp"

namespace sspred::serve {

namespace {

/// Top of the latency histogram range, seconds.
constexpr double kLatencyRangeSeconds = 1.0;

/// Requests per evaluation: at dequeue, queued requests identical to the
/// dequeued one (same model, epoch, bindings and sampling parameters)
/// coalesce onto its evaluation, up to this many in all.
constexpr std::size_t kMaxBatch = 64;

}  // namespace

// --- ModelTable --------------------------------------------------------

void ModelTable::insert(const std::string& id, ModelSpec spec) {
  auto entry = std::make_shared<Entry>();
  entry->structure_key = spec.structure_key();  // outside the lock
  entry->key_hash = model::hash_bytes(entry->structure_key);
  entry->spec = std::move(spec);
  const std::unique_lock lock(mutex_);
  models_.insert_or_assign(id, std::move(entry));
}

ModelTable::EntryPtr ModelTable::find(const std::string& id) const {
  const std::shared_lock lock(mutex_);
  const auto it = models_.find(id);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string> ModelTable::ids() const {
  const std::shared_lock lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& [id, _] : models_) ids.push_back(id);
  return ids;
}

void ModelTable::throw_unknown(const std::string& id) const {
  std::ostringstream msg;
  msg << "unknown model id '" << id << "' (registered:";
  {
    const std::shared_lock lock(mutex_);
    for (const auto& [known, _] : models_) msg << ' ' << known;
  }
  msg << ')';
  throw support::Error(msg.str());
}

// --- PredictionShard ---------------------------------------------------

model::ir::SlotEnvironment& PredictionShard::WorkerState::env_for(
    const CompiledModelPtr& model) {
  auto it = envs.find(model.get());
  if (it == envs.end()) {
    it = envs
             .emplace(model.get(),
                      std::make_pair(model, model->program().make_environment()))
             .first;
  }
  return it->second.second;
}

PredictionShard::PredictionShard(std::size_t index,
                                 const ServiceOptions& options,
                                 std::shared_ptr<support::Clock> clock,
                                 const ModelTable& models,
                                 learn::Arbiter* arbiter,
                                 MetricsRegistry& global,
                                 MetricsRegistry& learn_global)
    : index_(index),
      options_(options),
      clock_(std::move(clock)),
      models_(models),
      arbiter_(arbiter),
      ring_(kQueueCapacity),
      requests_total_{global.counter("requests_total"),
                      local_.counter("requests_total")},
      requests_ok_{global.counter("requests_ok"),
                   local_.counter("requests_ok")},
      requests_error_{global.counter("requests_error"),
                      local_.counter("requests_error")},
      requests_rejected_{global.counter("requests_rejected"),
                         local_.counter("requests_rejected")},
      rejected_queue_full_{global.counter("rejected_queue_full"),
                           local_.counter("rejected_queue_full")},
      rejected_stopped_{global.counter("rejected_stopped"),
                        local_.counter("rejected_stopped")},
      coalesced_{global.counter("requests_coalesced"),
                 local_.counter("requests_coalesced")},
      mc_trials_saved_{global.counter("mc_trials_saved"),
                       local_.counter("mc_trials_saved")},
      epochs_published_(local_.counter("epochs_published")),
      cache_hits_{global.counter("cache_hits"), local_.counter("cache_hits")},
      cache_misses_{global.counter("cache_misses"),
                    local_.counter("cache_misses")},
      observations_recorded_{global.counter("observations_recorded"),
                             local_.counter("observations_recorded")},
      observations_unmatched_{global.counter("observations_unmatched"),
                              local_.counter("observations_unmatched")},
      predictions_served_structural_{
          learn_global.counter("predictions_served_structural"),
          local_.counter("predictions_served_structural")},
      predictions_served_learned_{
          learn_global.counter("predictions_served_learned"),
          local_.counter("predictions_served_learned")},
      predictions_served_blended_{
          learn_global.counter("predictions_served_blended"),
          local_.counter("predictions_served_blended")},
      learned_refused_{learn_global.counter("learned_refused"),
                       local_.counter("learned_refused")},
      observations_trained_{learn_global.counter("observations_trained"),
                            local_.counter("observations_trained")},
      arbiter_flips_{learn_global.counter("arbiter_flips"),
                     local_.counter("arbiter_flips")},
      queue_depth_{global.gauge("queue_depth"), local_.gauge("queue_depth")},
      workers_busy_{global.gauge("workers_busy"),
                    local_.gauge("workers_busy")},
      latency_{global.histogram("latency_seconds", kLatencyRangeSeconds, 512),
               local_.histogram("latency_seconds", kLatencyRangeSeconds, 512)},
      batch_sizes_{global.histogram("batch_size", kMaxBatch + 1.0, kMaxBatch),
                   local_.histogram("batch_size", kMaxBatch + 1.0, kMaxBatch)},
      mc_trials_{global.histogram("mc_trials_executed", 32769.0, 256),
                 local_.histogram("mc_trials_executed", 32769.0, 256)} {
  SSPRED_REQUIRE(options_.workers >= 1, "shard needs at least one worker");
  threads_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

PredictionShard::~PredictionShard() {
  ring_.close();  // subsequent submits shed as "service stopped"
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();

  // Resolve whatever was still queued so no future is left broken.
  stage_admitted();  // workers are gone; safe without the lock
  std::int64_t drained = 0;
  for (auto& job : staging_) {
    ++drained;
    reject(std::move(job), rejected_stopped_, "service stopped");
  }
  staging_.clear();
  queue_depth_.add(-drained);
  idle_cv_.notify_all();
}

void PredictionShard::reject(Job&& job, DualCounter& why, std::string reason) {
  requests_rejected_.increment();
  why.increment();
  PredictResult rejected;
  rejected.status = PredictResult::Status::kRejected;
  rejected.error = std::move(reason);
  rejected.request_id = job.id;
  job.promise.set_value(std::move(rejected));
}

void PredictionShard::pin_epoch(Job& job) {
  // The bindings epoch is pinned at shard admission: the job holds this
  // one immutable snapshot for its whole life, so no request can ever
  // observe two epochs however publishes interleave.
  const std::lock_guard lock(epoch_mutex_);
  job.epoch = epoch_;
}

void PredictionShard::submit(Job job) {
  requests_total_.increment();
  pin_epoch(job);
  switch (ring_.try_push(job)) {
    case AdmissionQueue<Job>::Push::kOk: {
      queue_depth_.add(1);
      // Mutex-free fast path: only when some worker advertised idleness
      // does the producer touch the shard lock (empty critical section —
      // it fences the sleeper's check-then-wait window, see admission.hpp)
      // and signal. Under load idle_ is zero and submission is a handful
      // of atomics end to end.
      if (idle_.load(std::memory_order_seq_cst) > 0) {
        { const std::lock_guard lock(mutex_); }
        cv_.notify_one();
      }
      return;
    }
    case AdmissionQueue<Job>::Push::kFull:
      reject(std::move(job), rejected_queue_full_,
             "queue full (capacity " + std::to_string(kQueueCapacity) + ")");
      return;
    case AdmissionQueue<Job>::Push::kClosed:
      reject(std::move(job), rejected_stopped_, "service stopped");
      return;
  }
}

PredictResult PredictionShard::serve(Job job) {
  requests_total_.increment();
  auto result = job.promise.get_future();
  if (ring_.closed()) {
    reject(std::move(job), rejected_stopped_, "service stopped");
    return result.get();
  }
  pin_epoch(job);
  std::unique_ptr<WorkerState> state;
  {
    const std::lock_guard lock(states_mutex_);
    if (!spare_states_.empty()) {
      state = std::move(spare_states_.back());
      spare_states_.pop_back();
    }
  }
  if (!state) state = std::make_unique<WorkerState>();
  execute_job(std::move(job), {}, *state);
  {
    const std::lock_guard lock(states_mutex_);
    spare_states_.push_back(std::move(state));
  }
  return result.get();  // execute_job resolved it
}

void PredictionShard::publish_epoch(EpochPtr epoch) {
  {
    const std::lock_guard lock(epoch_mutex_);
    epoch_ = std::move(epoch);
  }
  epochs_published_.increment();
}

EpochPtr PredictionShard::current_epoch() const {
  const std::lock_guard lock(epoch_mutex_);
  return epoch_;
}

void PredictionShard::pause() {
  const std::lock_guard lock(mutex_);
  paused_ = true;
}

void PredictionShard::resume() {
  {
    const std::lock_guard lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

bool PredictionShard::has_work() const {
  return !staging_.empty() || ring_.size() > 0;
}

void PredictionShard::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return stop_ || (!has_work() && busy_ == 0); });
}

void PredictionShard::stage_admitted() {
  Job job;
  while (ring_.try_pop(job)) staging_.push_back(std::move(job));
}

bool PredictionShard::coalescable(const Job& a, const Job& b) const {
  const auto& ra = a.request;
  const auto& rb = b.request;
  const std::uint64_t ea = a.epoch ? a.epoch->version() : 0;
  const std::uint64_t eb = b.epoch ? b.epoch->version() : 0;
  if (ra.model_id != rb.model_id || ra.mode != rb.mode || ea != eb) {
    return false;
  }
  if (ra.loads != rb.loads || ra.resources != rb.resources ||
      ra.bwavail != rb.bwavail || ra.bwavail_resource != rb.bwavail_resource) {
    return false;
  }
  if (ra.mode == Mode::kMonteCarlo &&
      (ra.trials != rb.trials || ra.seed != rb.seed ||
       ra.precision != rb.precision ||
       ra.precision_relative != rb.precision_relative ||
       ra.min_trials != rb.min_trials)) {
    return false;
  }
  return true;
}

void PredictionShard::worker_loop() {
  WorkerState state;
  std::unique_lock lock(mutex_);
  for (;;) {
    // Sleep protocol (the consumer half of the mutex-free submit path):
    // advertise idleness FIRST, re-check the ring AFTER — seq_cst on
    // idle_ and the ring's size counter gives a total order in which
    // either this re-check sees the producer's push, or the producer's
    // post-push idle_ read sees our advertisement and signals.
    for (;;) {
      if (stop_) return;
      if (!paused_) {
        if (!staging_.empty()) break;
        stage_admitted();
        if (!staging_.empty()) break;
      }
      idle_.fetch_add(1, std::memory_order_seq_cst);
      if (!paused_ && !stop_ && ring_.size() > 0) {
        idle_.fetch_sub(1, std::memory_order_seq_cst);
        continue;  // a push landed between the drain and the advert
      }
      cv_.wait(lock);
      idle_.fetch_sub(1, std::memory_order_seq_cst);
    }

    Job job = std::move(staging_.front());
    staging_.pop_front();
    // Dequeue-time coalescing: identical staged requests share this
    // evaluation, up to kMaxBatch requests in all.
    std::vector<Pending> extra;
    stage_admitted();  // scan late arrivals too, like the old queue
    for (auto it = staging_.begin();
         it != staging_.end() && extra.size() + 1 < kMaxBatch;) {
      if (coalescable(job, *it)) {
        extra.push_back(Pending{it->id, std::move(it->promise)});
        it = staging_.erase(it);
      } else {
        ++it;
      }
    }
    queue_depth_.add(-static_cast<std::int64_t>(1 + extra.size()));
    ++busy_;
    workers_busy_.add(1);
    lock.unlock();
    execute_job(std::move(job), std::move(extra), state);

    lock.lock();
    --busy_;
    workers_busy_.add(-1);
    if (busy_ == 0 && !has_work()) idle_cv_.notify_all();
  }
}

CompiledModelPtr PredictionShard::resolve_model(const PredictRequest& request,
                                                ModelTable::EntryPtr* entry_out) {
  // Execute-time resolution against the CURRENT registration — an id
  // re-registered between submit and dequeue serves the new structure,
  // and the Entry snapshot guarantees spec and key agree (the cache can
  // never be asked for a stale key's program).
  const ModelTable::EntryPtr entry = models_.find(request.model_id);
  if (!entry) models_.throw_unknown(request.model_id);
  if (entry_out != nullptr) *entry_out = entry;
  const auto lookup = cache_.get_or_compile(entry->spec, entry->structure_key);
  (lookup.hit ? cache_hits_ : cache_misses_).increment();
  return lookup.model;
}

void PredictionShard::resolve_bindings(
    const Job& job, const CompiledModel& model,
    std::vector<stoch::StochasticValue>& loads,
    stoch::StochasticValue& bwavail) const {
  const auto& request = job.request;
  SSPRED_REQUIRE(request.loads.empty() || request.resources.empty(),
                 "request binds loads both explicitly and by resource name");
  SSPRED_REQUIRE(!request.loads.empty() || !request.resources.empty(),
                 "request binds no loads (set loads or resources)");
  const std::size_t given =
      request.loads.empty() ? request.resources.size() : request.loads.size();
  SSPRED_REQUIRE(given == model.hosts(),
                 "model '" + request.model_id + "' needs " +
                     std::to_string(model.hosts()) + " load bindings, got " +
                     std::to_string(given));
  if (!request.loads.empty()) {
    loads = request.loads;
  } else {
    SSPRED_REQUIRE(job.epoch != nullptr,
                   "request binds loads by resource name but no bindings "
                   "epoch has been published");
    loads.reserve(request.resources.size());
    for (const auto& resource : request.resources) {
      loads.push_back(job.epoch->lookup(resource));
    }
  }
  if (!request.bwavail_resource.empty()) {
    SSPRED_REQUIRE(job.epoch != nullptr,
                   "request binds bandwidth by resource name but no bindings "
                   "epoch has been published");
    bwavail = job.epoch->lookup(request.bwavail_resource);
  } else {
    bwavail = request.bwavail;
  }
}

void PredictionShard::bind(model::ir::SlotEnvironment& env,
                           const CompiledModel& model,
                           std::span<const stoch::StochasticValue> loads,
                           const stoch::StochasticValue& bwavail) const {
  for (std::size_t p = 0; p < loads.size(); ++p) {
    env.bind(model.load_slot(p), loads[p]);
  }
  if (model.uses_bandwidth()) env.bind(model.bwavail_slot(), bwavail);
}

void PredictionShard::apply_learning(const std::string& structure_key,
                                     const std::string& model_id,
                                     PredictResult& base,
                                     LearnOverlay& overlay) {
  if (!learning_active()) return;
  overlay.active = true;
  overlay.structure_key = structure_key;
  overlay.structural = base.value;
  const std::optional<learn::LearnedPrediction> learned =
      options_.bank->predict(structure_key, overlay.features);
  learn::Source source = learn::Source::kStructural;
  if (learned.has_value()) {
    overlay.has_learned = true;
    overlay.learned = learned->value;
    source = arbiter_->source(model_id);
    if (source != learn::Source::kStructural) {
      const stoch::StochasticValue candidate =
          source == learn::Source::kLearned
              ? learned->value
              : learn::blend(overlay.structural, learned->value,
                             arbiter_->blend_weight(model_id));
      // An execution time is positive (paper §2.3): a candidate that
      // extrapolated to a mean <= 0 (or NaN/inf) is refused, not served.
      if (std::isfinite(candidate.mean()) && candidate.mean() > 0.0) {
        base.value = candidate;
      } else {
        source = learn::Source::kStructural;
        learned_refused_.increment();
      }
    }
    base.point = base.value.mean();
  }
  base.source = static_cast<std::uint8_t>(source);
}

void PredictionShard::finish_batch(std::vector<Pending>& promises,
                                   PredictResult base, double enqueue_time,
                                   const std::string& model_id,
                                   LearnOverlay overlay) {
  base.latency_seconds = now() - enqueue_time;
  latency_.observe(base.latency_seconds);
  const auto n = static_cast<std::uint64_t>(promises.size());
  const bool ok = base.status == PredictResult::Status::kOk;
  if (ok) {
    requests_ok_.increment(n);
  } else {
    requests_error_.increment(n);
  }
  if (ok && overlay.active) {
    switch (static_cast<learn::Source>(base.source)) {
      case learn::Source::kStructural:
        predictions_served_structural_.increment(n);
        break;
      case learn::Source::kLearned:
        predictions_served_learned_.increment(n);
        break;
      case learn::Source::kBlended:
        predictions_served_blended_.increment(n);
        break;
    }
  }
  for (auto& p : promises) {
    base.request_id = p.id;
    if (ok) remember_prediction(p.id, model_id, base.value, overlay);
    p.promise.set_value(base);
  }
  promises.clear();
}

void PredictionShard::remember_prediction(std::uint64_t request_id,
                                          const std::string& model_id,
                                          const stoch::StochasticValue& value,
                                          const LearnOverlay& overlay) {
  if (!options_.ledger && !learning_active()) return;
  const std::lock_guard lock(observations_mutex_);
  if (completed_
          .emplace(request_id, CompletedPrediction{model_id, value, overlay})
          .second) {
    completed_order_.push_back(request_id);
  }
  // Bounding the FIFO bounds the map too (ids reported meanwhile are
  // already gone from the map and just fall off the deque).
  while (completed_order_.size() > kObservationCapacity) {
    completed_.erase(completed_order_.front());
    completed_order_.pop_front();
  }
}

bool PredictionShard::report_observation(std::uint64_t request_id,
                                         double observed_seconds) {
  CompletedPrediction prediction;
  {
    const std::lock_guard lock(observations_mutex_);
    const auto it = completed_.find(request_id);
    if (it == completed_.end()) {
      observations_unmatched_.increment();
      return false;
    }
    prediction = std::move(it->second);
    completed_.erase(it);
    // completed_order_ keeps the stale id; eviction skips ids already
    // erased, so the FIFO stays bounded without a linear scan here.
  }
  // The ledger scores the SERVED value — the number a consumer actually
  // acted on, whichever candidate produced it.
  if (options_.ledger) {
    options_.ledger->record(prediction.model_id, prediction.value,
                            observed_seconds);
  }
  // The candidates are scored and the bank trained from the same
  // observation: arbitration first (scoring the prediction the bank made
  // BEFORE seeing this outcome), then the training step.
  if (learning_active() && prediction.overlay.active) {
    const bool flipped = arbiter_->record(
        prediction.model_id, prediction.overlay.structural,
        prediction.overlay.has_learned ? &prediction.overlay.learned : nullptr,
        observed_seconds);
    if (flipped) arbiter_flips_.increment();
    options_.bank->observe(prediction.overlay.structure_key,
                           prediction.overlay.features, observed_seconds);
    observations_trained_.increment();
  }
  observations_recorded_.increment();
  return true;
}

void PredictionShard::execute_job(Job&& job, std::vector<Pending>&& extra,
                                  WorkerState& state) {
  PredictResult base;
  base.batch_size = 1 + extra.size();
  base.epoch_version = job.epoch ? job.epoch->version() : 0;
  std::vector<Pending> promises;
  promises.reserve(base.batch_size);
  promises.push_back(Pending{job.id, std::move(job.promise)});
  for (auto& p : extra) promises.push_back(std::move(p));
  if (!extra.empty()) coalesced_.increment(extra.size());
  batch_sizes_.observe(static_cast<double>(base.batch_size));

  LearnOverlay overlay;
  try {
    ModelTable::EntryPtr entry;
    const CompiledModelPtr model = resolve_model(job.request, &entry);
    std::vector<stoch::StochasticValue> loads;
    stoch::StochasticValue bwavail;
    resolve_bindings(job, *model, loads, bwavail);

    const auto& request = job.request;
    model::ir::SlotEnvironment& env = state.env_for(model);
    bind(env, *model, loads, bwavail);

    switch (request.mode) {
      case Mode::kStochastic: {
        base.value = model->program().evaluate(env, state.ws);
        base.point = base.value.mean();
        break;
      }
      case Mode::kPoint: {
        base.point = model->program().evaluate_point(env, state.ws);
        base.value = stoch::StochasticValue(base.point);
        break;
      }
      case Mode::kMonteCarlo: {
        support::Rng rng(request.seed);
        if (request.precision > 0.0) {
          // Sequential stopping: run trial blocks until the CI target is
          // met, clamped to [min_trials, trials]. Hitting the clamp with
          // the target unmet is a partial-precision kOk, never an error.
          const model::ir::AdaptiveResult adaptive =
              model->program().sample_adaptive(
                  env, rng, stop_rule_for(request), state.ws);
          base.value = adaptive.value;
          base.mc_trials = adaptive.trials;
          base.mc_ci_halfwidth = adaptive.ci_halfwidth;
          base.precision_met = adaptive.converged;
        } else {
          base.value = model->program().sample_trials(env, rng,
                                                      request.trials,
                                                      state.ws);
          base.mc_trials = request.trials;
          base.mc_ci_halfwidth =
              base.value.halfwidth() /
              std::sqrt(static_cast<double>(request.trials));
        }
        record_mc(request, base.mc_trials);
        base.point = base.value.mean();
        break;
      }
    }
    base.status = PredictResult::Status::kOk;
    if (learning_active()) {
      learn::extract_features(loads, bwavail, model->uses_bandwidth(),
                              overlay.features);
      apply_learning(entry->structure_key, request.model_id, base, overlay);
    }
  } catch (const std::exception& e) {
    base.status = PredictResult::Status::kError;
    base.error = e.what();
  }
  finish_batch(promises, std::move(base), job.enqueue_time,
               job.request.model_id, std::move(overlay));
}

stats::StopRule PredictionShard::stop_rule_for(const PredictRequest& request) {
  stats::StopRule rule;
  rule.target = request.precision;
  rule.relative = request.precision_relative;
  rule.max_trials = request.trials;
  rule.min_trials = std::min(std::max<std::size_t>(request.min_trials, 2),
                             request.trials);
  return rule;
}

void PredictionShard::record_mc(const PredictRequest& request,
                                std::size_t executed) {
  mc_trials_.observe(static_cast<double>(executed));
  if (request.precision > 0.0 && executed < request.trials) {
    mc_trials_saved_.increment(request.trials - executed);
  }
}

}  // namespace sspred::serve
