// PredictionShard — one self-contained execution engine of the serving
// stack, plus the model table every shard reads.
//
// The layered decomposition (DESIGN.md §13): the facade
// (service.hpp) owns a ShardRouter and S PredictionShards; each shard
// owns the full per-request machinery the old monolith had — a
// lock-free bounded AdmissionQueue, a worker pool, a structure-keyed
// ProgramCache, dequeue-time coalescing, its own bindings-epoch pin and
// completed-prediction FIFO — over a *structure-affine* slice of the
// request stream: consistent-hash routing sends every request for one
// model structure to one shard, so its program cache holds exactly the
// structures it serves.
//
// One evaluation per request: a request (or a coalesced batch of
// identical ones) runs exactly one execute_job on its home shard, on
// whichever thread evaluates it — a worker for submit(), the caller for
// serve(). A fixed-trial Monte-Carlo request of any size is one
// Program::sample_trials(env, Rng(seed), trials) call, so its bits depend
// only on the model, the bindings, the seed and the trial count.
//
// Determinism: a shard processes its slice exactly as the unsharded
// service processed the whole stream (same scan, same kernels), and
// routing is a pure function of the structure key — so for a fixed
// request set, per-request results are bit-exact at any shard count.
//
// Metrics are dual-written: every instrument bumps both the service-wide
// registry (rolled-up totals, the names tests and dashboards already
// know) and the shard's own registry (attached to the global one as
// "shard<k>/..." when there is more than one shard).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "calib/ledger.hpp"
#include "learn/arbiter.hpp"
#include "learn/bank.hpp"
#include "serve/admission.hpp"
#include "serve/epoch.hpp"
#include "serve/metrics.hpp"
#include "serve/program_cache.hpp"
#include "serve/request.hpp"
#include "stats/sequential.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

namespace sspred::serve {

/// Queued external requests per shard; submit() sheds any beyond this
/// with kRejected ("queue full").
inline constexpr std::size_t kQueueCapacity = 1024;

/// Completed predictions kept per shard (FIFO) awaiting their
/// observation; a report arriving after eviction counts as unmatched.
/// The cluster frontend bounds its served-id map by the same number.
inline constexpr std::size_t kObservationCapacity = 4096;

/// Serving-stack configuration. Worker/queue sizes are PER SHARD: a
/// service with shards=4, workers=2 runs 8 workers and admits up to
/// 4 * kQueueCapacity requests. Defined here (the lowest layer that
/// consumes it); service.hpp re-exports it to API users.
struct ServiceOptions {
  std::size_t shards = 1;  ///< prediction shards (structure-affine slices)
  std::size_t workers = 4;  ///< worker threads per shard
  /// Time source for latency metrics; null selects support::real_clock().
  std::shared_ptr<support::Clock> clock;
  /// Accuracy ledger fed by report_observation(); null disables the
  /// predict→observe feedback loop (see calib/ledger.hpp).
  std::shared_ptr<calib::AccuracyLedger> ledger;
  /// Graybox learned predictors (learn/): when true, every successful
  /// prediction also consults the predictor bank and the service's
  /// arbiter may swap the served value to the learned or blended
  /// candidate; every reported observation trains the bank and scores
  /// the candidates. The service always builds its own node-local
  /// arbiter, and its own bank when `bank` is left null — deliberately
  /// NOT stored back into a caller's options, so a restarted node starts
  /// from a blank bank and re-converges from fresh observations.
  bool enable_learning = false;
  std::shared_ptr<learn::PredictorBank> bank;
};

/// Registered models, shared (read-mostly) by the facade and every
/// shard. Entries are immutable snapshots behind shared_ptr: a request
/// resolves its model to one Entry and can never observe a spec and a
/// structure key from two different registrations — the property the
/// program cache's stale-key guard rests on. The structure key and its
/// 64-bit routing hash are stamped once at registration, so neither the
/// submit path nor the cache ever re-serializes a spec.
class ModelTable {
 public:
  struct Entry {
    ModelSpec spec;
    std::string structure_key;
    std::uint64_t key_hash = 0;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// Registers (or replaces) an id. Ids are aliases: two ids with
  /// structurally identical specs share one cached program.
  void insert(const std::string& id, ModelSpec spec);

  /// Current registration of `id`; null when unknown.
  [[nodiscard]] EntryPtr find(const std::string& id) const;

  [[nodiscard]] std::vector<std::string> ids() const;

  /// Throws the structured unknown-model error for `id`.
  [[noreturn]] void throw_unknown(const std::string& id) const;

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, EntryPtr> models_;
};

class PredictionShard {
 public:
  /// One external request owned by the stack. The facade stamps id,
  /// enqueue_time and the submit-time model entry it routed by (null:
  /// unknown id; execution reports the structured error); the shard pins
  /// the bindings epoch at admission.
  struct Job {
    PredictRequest request;
    std::promise<PredictResult> promise;
    EpochPtr epoch;
    ModelTable::EntryPtr model;  ///< submit-time registration snapshot
    std::uint64_t id = 0;
    double enqueue_time = 0.0;
  };

  /// `global` is the service-wide registry every instrument dual-writes;
  /// `learn_global` is the service's learn/ subtree registry the learning
  /// instruments dual-write instead of `global`. `arbiter` is the
  /// service's (null when learning is off). `models`, `arbiter` and all
  /// three referenced registries must outlive the shard.
  PredictionShard(std::size_t index, const ServiceOptions& options,
                  std::shared_ptr<support::Clock> clock,
                  const ModelTable& models, learn::Arbiter* arbiter,
                  MetricsRegistry& global, MetricsRegistry& learn_global);
  ~PredictionShard();

  PredictionShard(const PredictionShard&) = delete;
  PredictionShard& operator=(const PredictionShard&) = delete;

  /// Admits `job` (pinning the shard's current epoch) or sheds it with a
  /// per-reason rejection count; the job's promise is always resolved.
  /// Lock-free on the admit path (see admission.hpp).
  void submit(Job job);

  /// Caller-runs admission: counts the job and pins the shard's current
  /// epoch exactly as submit() does, then evaluates it on the CALLING
  /// thread with a WorkerState borrowed from the shard's pool — no
  /// admission ring, no coalescing, no handoff to a worker, so it never
  /// waits on one (not even through a pause()). Sheds (rejected_stopped)
  /// only once the shard is stopping.
  [[nodiscard]] PredictResult serve(Job job);

  /// Installs `epoch` for subsequently admitted requests; requests
  /// already admitted keep the epoch they were pinned with.
  void publish_epoch(EpochPtr epoch);
  [[nodiscard]] EpochPtr current_epoch() const;

  void pause();
  void resume();
  /// Blocks until the shard's queues are empty and every worker is idle.
  void drain();

  /// Feeds the configured ledger with the observation for `request_id`
  /// (an id routed to this shard); see service.hpp.
  bool report_observation(std::uint64_t request_id, double observed_seconds);

  [[nodiscard]] ProgramCache& cache() noexcept { return cache_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return local_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  // Dual instruments: one bump updates the rolled-up service-wide
  // instrument and the shard-local one. Both sides are lock-free.
  struct DualCounter {
    Counter& global;
    Counter& local;
    void increment(std::uint64_t by = 1) noexcept {
      global.increment(by);
      local.increment(by);
    }
  };
  struct DualGauge {
    Gauge& global;
    Gauge& local;
    // Deltas, not set(): S shards share the global gauge.
    void add(std::int64_t by) noexcept {
      global.add(by);
      local.add(by);
    }
  };
  struct DualHistogram {
    LatencyHistogram& global;
    LatencyHistogram& local;
    void observe(double v) noexcept {
      global.observe(v);
      local.observe(v);
    }
  };

  /// A promise awaiting resolution, tagged with its request id.
  struct Pending {
    std::uint64_t id = 0;
    std::promise<PredictResult> promise;
  };

  /// Learning payload of one successful evaluation: the candidate values
  /// and feature vector carried from execute time to report_observation
  /// (where the bank trains and the arbiter scores). Inactive (and
  /// empty) when learning is disabled.
  struct LearnOverlay {
    bool active = false;
    std::string structure_key;
    std::vector<double> features;
    stoch::StochasticValue structural;  ///< candidate the model computed
    stoch::StochasticValue learned;     ///< bank candidate (has_learned)
    bool has_learned = false;
  };

  /// Per-worker reusable evaluation state (slot environments keyed by
  /// compiled model, one workspace) — keeps the hot path allocation-free.
  struct WorkerState {
    std::map<const CompiledModel*,
             std::pair<CompiledModelPtr, model::ir::SlotEnvironment>>
        envs;
    model::ir::EvalWorkspace ws;

    [[nodiscard]] model::ir::SlotEnvironment& env_for(
        const CompiledModelPtr& model);
  };

  void worker_loop();
  /// Pins the shard's current bindings epoch on `job` (admission time).
  void pin_epoch(Job& job);
  /// Evaluates `job` once and fulfills its promise and the `extra`
  /// promises of the identical requests coalesced onto it.
  void execute_job(Job&& job, std::vector<Pending>&& extra,
                   WorkerState& state);
  /// The request's sequential stop rule: precision target + relative flag,
  /// `min_trials` floor, `trials` as the max clamp (a fixed rule when no
  /// target is set).
  [[nodiscard]] static stats::StopRule stop_rule_for(
      const PredictRequest& request);
  /// Observes the executed-trials histogram and, for precision targets,
  /// the trials-saved counter (clamp minus executed). Once per evaluation.
  void record_mc(const PredictRequest& request, std::size_t executed);
  /// Resolves the request's model against the CURRENT registration
  /// through the program cache; submit-time stamps only route.
  /// `entry_out` (optional) receives the registration snapshot resolved
  /// against — the learning overlay reads its stamped structure key.
  [[nodiscard]] CompiledModelPtr resolve_model(
      const PredictRequest& request,
      ModelTable::EntryPtr* entry_out = nullptr);
  /// True when the learned-predictor overlay participates in serving.
  [[nodiscard]] bool learning_active() const noexcept {
    return arbiter_ != nullptr;
  }
  /// Consults the bank/arbiter for a successful evaluation whose
  /// structural result is already in `base.value`: fills the rest of
  /// `overlay` (whose `features` the caller extracted), may swap
  /// base.value/point to the learned or blended candidate, and stamps
  /// base.source. A candidate whose mean is not finite and positive is
  /// never served — an execution time is positive — so the structural
  /// value stays and learned_refused counts the refusal. No-op when
  /// learning is inactive.
  void apply_learning(const std::string& structure_key,
                      const std::string& model_id, PredictResult& base,
                      LearnOverlay& overlay);
  /// Resolves load/bandwidth bindings against the job's epoch; throws
  /// support::Error with a structured message on any mismatch.
  void resolve_bindings(const Job& job, const CompiledModel& model,
                        std::vector<stoch::StochasticValue>& loads,
                        stoch::StochasticValue& bwavail) const;
  void bind(model::ir::SlotEnvironment& env, const CompiledModel& model,
            std::span<const stoch::StochasticValue> loads,
            const stoch::StochasticValue& bwavail) const;
  /// Fulfills the batch's promises with `base` (per-promise request id);
  /// successful results are remembered for report_observation().
  void finish_batch(std::vector<Pending>& promises, PredictResult base,
                    double enqueue_time, const std::string& model_id,
                    LearnOverlay overlay);
  /// Remembers a completed prediction until its observation arrives
  /// (bounded FIFO; no-op without a ledger or learning).
  void remember_prediction(std::uint64_t request_id,
                           const std::string& model_id,
                           const stoch::StochasticValue& value,
                           const LearnOverlay& overlay);
  [[nodiscard]] bool coalescable(const Job& a, const Job& b) const;
  /// Rejects `job` with `reason` text, bumping `why` (and the rolled-up
  /// rejection counters).
  void reject(Job&& job, DualCounter& why, std::string reason);
  /// Drains the admission ring into staging_ (dequeue-time view refresh).
  void stage_admitted();
  [[nodiscard]] bool has_work() const;
  [[nodiscard]] double now() const noexcept { return clock_->now(); }

  std::size_t index_;
  ServiceOptions options_;
  std::shared_ptr<support::Clock> clock_;
  const ModelTable& models_;
  learn::Arbiter* arbiter_;  ///< the service's; null when learning is off
  MetricsRegistry local_;  ///< shard-scoped registry (metrics())
  ProgramCache cache_;

  // --- Admission layer -------------------------------------------------
  AdmissionQueue<Job> ring_;
  /// Workers that advertised idleness and (re)checked for work; a
  /// producer only touches mutex_/cv_ when this is nonzero, so the
  /// loaded admit path never serializes on the shard lock. seq_cst
  /// against the ring's size counter (see admission.hpp).
  std::atomic<std::int64_t> idle_{0};

  // --- Worker-side state (guarded by mutex_) ---------------------------
  mutable std::mutex mutex_;
  std::condition_variable cv_;       ///< work available / state change
  std::condition_variable idle_cv_;  ///< queues empty + workers idle
  /// Admitted jobs staged for the dequeue-time coalescing scan (the
  /// ring itself is not scannable; workers drain it here first).
  std::deque<Job> staging_;
  bool paused_ = false;
  bool stop_ = false;
  std::size_t busy_ = 0;

  mutable std::mutex epoch_mutex_;  ///< sharded: one per shard
  EpochPtr epoch_;

  /// Completed predictions awaiting report_observation(), FIFO-bounded
  /// by kObservationCapacity.
  struct CompletedPrediction {
    std::string model_id;
    stoch::StochasticValue value;  ///< SERVED value (what the ledger scores)
    LearnOverlay overlay;          ///< training payload (learning only)
  };
  std::mutex observations_mutex_;
  std::map<std::uint64_t, CompletedPrediction> completed_;
  std::deque<std::uint64_t> completed_order_;

  // Dual hot-path instruments (stable addresses inside both registries).
  DualCounter requests_total_;
  DualCounter requests_ok_;
  DualCounter requests_error_;
  DualCounter requests_rejected_;
  DualCounter rejected_queue_full_;
  DualCounter rejected_stopped_;
  DualCounter coalesced_;
  /// Trials a precision target let the engine skip (request clamp minus
  /// executed count, summed over adaptive evaluations).
  DualCounter mc_trials_saved_;
  /// Local only: the facade counts one service-wide publish, not one
  /// per shard it fanned out to.
  Counter& epochs_published_;
  DualCounter cache_hits_;
  DualCounter cache_misses_;
  DualCounter observations_recorded_;
  DualCounter observations_unmatched_;
  // Learning instruments: the "global" half lives in the service's
  // learn/ subtree registry rather than the rolled-up one.
  DualCounter predictions_served_structural_;
  DualCounter predictions_served_learned_;
  DualCounter predictions_served_blended_;
  /// Learned or blended candidates not served: mean not finite and > 0.
  DualCounter learned_refused_;
  DualCounter observations_trained_;
  DualCounter arbiter_flips_;
  DualGauge queue_depth_;
  DualGauge workers_busy_;
  DualHistogram latency_;
  DualHistogram batch_sizes_;
  /// Monte-Carlo trials actually executed per evaluation (adaptive stops
  /// show up as mass below the requested clamp).
  DualHistogram mc_trials_;

  /// WorkerStates idle between serve() calls: a caller takes one (or
  /// makes one) and puts it back, so the pool holds as many as there
  /// were concurrent callers at the peak.
  std::mutex states_mutex_;
  std::vector<std::unique_ptr<WorkerState>> spare_states_;

  std::vector<std::thread> threads_;  ///< last member: joins see all state
};

}  // namespace sspred::serve
