// sspred_cli — command-line front end for the library.
//
//   sspred_cli platforms
//   sspred_cli trace   --platform platform2 --host 0 --duration 2000
//                      [--interval 1] [--seed 7] [--out trace.csv]
//   sspred_cli predict --platform platform1 --n 1600 --iters 20
//                      --loads 0.48:0.05,0.92:0.03,0.92:0.03,0.92:0.03
//                      [--bwavail 0.525:0.06] [--breakdown]
//   sspred_cli series  --platform platform2 --n 1000 --iters 15
//                      [--trials 8] [--source nws|sample|mix] [--seed 1]
//   sspred_cli plan    --platform platform1 --n 1000 --iters 15
//                      --loads ... [--metric mean|p95|upper]
//   sspred_cli serve   --platform platform2 --n 1000 --iters 15
//                      [--requests R] [--workers W] [--shards S] [--mc-every M]
//                      [--precision F] [--max-trials T]
//                      [--seed N] [--metrics-json FILE]
//   sspred_cli calibrate --platform platform2 --n 1000 --iters 15
//                      [--trials T] [--seed N] [--source nws|sample|mix]
//                      [--window W] [--drift-lambda L]
//   sspred_cli cluster --platform platform2 --n 1000 --iters 15
//                      [--nodes 3] [--replicas 2] [--requests R]
//                      [--faults crash@100:1,restart@300:1] [--seed N]
//   sspred_cli learn   --platform platform2 --n 1000 --iters 15
//                      [--trials T] [--seed N] [--source nws|sample|mix]
//                      [--drift-at K] [--drift-scale S]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calib/drift.hpp"
#include "calib/ledger.hpp"
#include "calib/recalibrate.hpp"
#include "dserve/fault.hpp"
#include "dserve/frontend.hpp"
#include "learn/arbiter.hpp"
#include "learn/bank.hpp"
#include "machine/load_trace.hpp"
#include "nws/service.hpp"
#include "predict/experiment.hpp"
#include "predict/host_selection.hpp"
#include "serve/epoch.hpp"
#include "serve/service.hpp"
#include "stoch/metrics.hpp"
#include "support/clock.hpp"
#include "support/table.hpp"

namespace {

using namespace sspred;

[[noreturn]] void usage(const std::string& why = "") {
  if (!why.empty()) std::cerr << "error: " << why << "\n\n";
  std::cerr <<
      "usage: sspred_cli <command> [options]\n"
      "  platforms                         list the shipped platforms\n"
      "  trace    --platform P --host I --duration S [--interval S]\n"
      "           [--seed N] [--out FILE]  generate & save a load trace\n"
      "  predict  --platform P --n N --iters K --loads m:sd,...\n"
      "           [--bwavail m:sd] [--breakdown]\n"
      "  series   --platform P --n N --iters K [--trials T]\n"
      "           [--source nws|sample|mix] [--seed N]\n"
      "  plan     --platform P --n N --iters K --loads m:sd,...\n"
      "           [--metric mean|p95|upper]\n"
      "  serve    --platform P --n N --iters K [--requests R]\n"
      "           [--workers W] [--shards S] [--mc-every M] [--seed N]\n"
      "           [--precision F] [--max-trials T]  adaptive MC: stop at\n"
      "           CI half-width <= F * |mean|, clamped to T trials\n"
      "           [--metrics-json FILE]\n"
      "           run the prediction service over generated load traces\n"
      "  calibrate --platform P --n N --iters K [--trials T] [--seed N]\n"
      "           [--source nws|sample|mix] [--window W]\n"
      "           [--drift-lambda L]\n"
      "           replay a load trace through predict->simulate->report\n"
      "           and print a calibration report\n"
      "  cluster  --platform P --n N --iters K [--nodes N] [--replicas R]\n"
      "           [--requests R] [--faults PLAN] [--seed N]\n"
      "           run the multi-node serving tier with optional fault\n"
      "           injection (PLAN e.g. crash@100:1,restart@300:1)\n"
      "  learn    --platform P --n N --iters K [--trials T] [--seed N]\n"
      "           [--source nws|sample|mix] [--drift-at K]\n"
      "           [--drift-scale S]\n"
      "           closed predict->observe loop with the learned-predictor\n"
      "           bank; injects a runtime drift at trial K and prints the\n"
      "           per-model arbitration table\n";
  std::exit(2);
}

/// Simple --key value option map.
std::map<std::string, std::string> parse_options(int argc, char** argv,
                                                 int first) {
  std::map<std::string, std::string> opts;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument: " + key);
    key = key.substr(2);
    if (key == "breakdown") {
      opts[key] = "1";
      continue;
    }
    if (i + 1 >= argc) usage("missing value for --" + key);
    opts[key] = argv[++i];
  }
  return opts;
}

std::string get(const std::map<std::string, std::string>& opts,
                const std::string& key, const std::string& fallback = "") {
  const auto it = opts.find(key);
  if (it != opts.end()) return it->second;
  if (fallback.empty()) usage("missing required option --" + key);
  return fallback;
}

cluster::PlatformSpec platform_by_name(const std::string& name) {
  if (name == "platform1") return cluster::platform1();
  if (name == "platform2") return cluster::platform2();
  if (name.rfind("dedicated", 0) == 0) {
    std::size_t hosts = 4;
    if (name.size() > 9) hosts = std::strtoul(name.c_str() + 9, nullptr, 10);
    return cluster::dedicated_platform(hosts);
  }
  usage("unknown platform '" + name +
        "' (use platform1, platform2, dedicated<N>)");
}

/// Parses "0.48:0.05,0.92:0.03,..." into stochastic values.
std::vector<stoch::StochasticValue> parse_loads(const std::string& text) {
  std::vector<stoch::StochasticValue> loads;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    const double mean = std::stod(item.substr(0, colon));
    const double half =
        colon == std::string::npos ? 0.0 : std::stod(item.substr(colon + 1));
    loads.emplace_back(mean, half);
  }
  return loads;
}

stoch::StochasticValue parse_sv(const std::string& text) {
  const auto loads = parse_loads(text);
  if (loads.size() != 1) usage("expected one mean:halfwidth value");
  return loads.front();
}

int cmd_platforms() {
  for (const char* name : {"platform1", "platform2", "dedicated4"}) {
    const auto spec = platform_by_name(name);
    std::printf("%s (%zu hosts, %s fabric)\n", name, spec.hosts.size(),
                spec.fabric == cluster::FabricKind::kSharedSegment
                    ? "shared 10 Mbit"
                    : "switched");
    for (const auto& h : spec.hosts) {
      std::printf("  %-10s %.1e s/element, %.1fM elements of memory, "
                  "%zu load modes\n",
                  h.machine.name.c_str(), h.machine.bm_seconds_per_element,
                  h.machine.memory_elements / 1e6, h.load.modes.size());
    }
  }
  return 0;
}

int cmd_trace(const std::map<std::string, std::string>& opts) {
  const auto spec = platform_by_name(get(opts, "platform"));
  const auto host = std::strtoul(get(opts, "host", "0").c_str(), nullptr, 10);
  if (host >= spec.hosts.size()) usage("host index out of range");
  const double duration = std::stod(get(opts, "duration"));
  const double interval = std::stod(get(opts, "interval", "1"));
  const auto seed = std::strtoull(get(opts, "seed", "1").c_str(), nullptr, 10);
  const std::string out = get(opts, "out", "trace.csv");

  const auto count = static_cast<std::size_t>(duration / interval) + 1;
  const auto trace = machine::LoadTrace::generate(spec.hosts[host].load,
                                                  count, interval, seed);
  trace.save_csv(out);
  const auto sv = stoch::StochasticValue::from_sample(
      std::vector<double>(trace.samples().begin(), trace.samples().end()));
  std::printf("wrote %zu samples to %s (load %s)\n", count, out.c_str(),
              sv.to_string(3).c_str());
  return 0;
}

int cmd_predict(const std::map<std::string, std::string>& opts) {
  const auto spec = platform_by_name(get(opts, "platform"));
  sor::SorConfig cfg;
  cfg.n = std::strtoul(get(opts, "n").c_str(), nullptr, 10);
  cfg.iterations = std::strtoul(get(opts, "iters").c_str(), nullptr, 10);
  const auto loads = parse_loads(get(opts, "loads"));
  if (loads.size() != spec.hosts.size()) {
    usage("need one load per host (" + std::to_string(spec.hosts.size()) +
          ")");
  }
  const auto bwavail = parse_sv(get(opts, "bwavail", "1:0"));

  const predict::StructuralModel model(predict::author_sor(spec, cfg));
  // Bind by slot into the compiled program (model/ir.hpp) — prediction
  // and breakdown share one slot environment.
  const auto env = model.make_slot_env(loads, bwavail);
  const auto prediction = model.predict(env);
  std::printf("prediction: %s s  (point: %.2f s)\n",
              prediction.to_string(2).c_str(), model.predict_point(env));

  if (opts.contains("breakdown")) {
    const auto b = model.breakdown(env);
    support::Table t({"component", "per phase (s)"});
    for (std::size_t p = 0; p < b.comp_per_host.size(); ++p) {
      t.add_row({"compute " + spec.hosts[p].machine.name +
                     (p == b.dominant_host ? " (dominant)" : ""),
                 b.comp_per_host[p].to_string(3)});
    }
    t.add_row({"communication", b.comm_per_phase.to_string(3)});
    t.add_row({"one iteration", b.per_iteration.to_string(3)});
    std::cout << t.render();
  }
  return 0;
}

int cmd_series(const std::map<std::string, std::string>& opts) {
  predict::SeriesConfig cfg;
  cfg.platform = platform_by_name(get(opts, "platform"));
  cfg.sor.n = std::strtoul(get(opts, "n").c_str(), nullptr, 10);
  cfg.sor.iterations = std::strtoul(get(opts, "iters").c_str(), nullptr, 10);
  cfg.sor.real_numerics = false;
  cfg.trials = std::strtoul(get(opts, "trials", "8").c_str(), nullptr, 10);
  cfg.seed = std::strtoull(get(opts, "seed", "20260707").c_str(), nullptr, 10);
  cfg.bwavail = stoch::StochasticValue::from_mean_sd(0.525, 0.06);
  const std::string source = get(opts, "source", "nws");
  if (source == "nws") {
    cfg.load_source = predict::LoadParameterSource::kNwsForecast;
  } else if (source == "sample") {
    cfg.load_source = predict::LoadParameterSource::kRecentSample;
  } else if (source == "mix") {
    cfg.load_source = predict::LoadParameterSource::kModalMix;
  } else {
    usage("unknown --source (nws|sample|mix)");
  }

  const auto outcomes = predict::run_series(cfg);
  support::Table t({"t (s)", "prediction (s)", "actual (s)", "captured"});
  std::size_t captured = 0;
  for (const auto& o : outcomes) {
    const bool in = o.predicted.contains(o.actual);
    if (in) ++captured;
    t.add_row({support::fmt(o.start_time, 0), o.predicted.to_string(1),
               support::fmt(o.actual, 1), in ? "yes" : "no"});
  }
  std::cout << t.render();
  const auto s = predict::score(outcomes);
  const auto ci = stoch::wilson_interval(captured, outcomes.size());
  std::printf(
      "\ncapture %.0f%% (95%% CI %.0f..%.0f%%), max range err %.1f%%, "
      "max point err %.1f%%\n",
      s.capture_fraction * 100.0, ci.lower * 100.0, ci.upper * 100.0,
      s.max_range_error * 100.0, s.max_mean_error * 100.0);
  return 0;
}

int cmd_plan(const std::map<std::string, std::string>& opts) {
  const auto spec = platform_by_name(get(opts, "platform"));
  sor::SorConfig cfg;
  cfg.n = std::strtoul(get(opts, "n").c_str(), nullptr, 10);
  cfg.iterations = std::strtoul(get(opts, "iters").c_str(), nullptr, 10);
  const auto loads = parse_loads(get(opts, "loads"));
  if (loads.size() != spec.hosts.size()) usage("need one load per host");
  const std::string metric_name = get(opts, "metric", "mean");
  predict::PlanMetric metric = predict::PlanMetric::kExpectedTime;
  if (metric_name == "p95") {
    metric = predict::PlanMetric::kP95Time;
  } else if (metric_name == "upper") {
    metric = predict::PlanMetric::kUpperBound;
  } else if (metric_name != "mean") {
    usage("unknown --metric (mean|p95|upper)");
  }

  const auto plans = predict::rank_host_subsets(
      spec, cfg, loads, stoch::StochasticValue(0.525, 0.12), metric);
  support::Table t({"rank", "hosts", "rows", "prediction (s)"});
  for (std::size_t i = 0; i < std::min<std::size_t>(5, plans.size()); ++i) {
    std::string hosts;
    std::string rows;
    for (std::size_t k = 0; k < plans[i].hosts.size(); ++k) {
      if (k > 0) {
        hosts += "+";
        rows += "/";
      }
      hosts += spec.hosts[plans[i].hosts[k]].machine.name;
      rows += std::to_string(plans[i].rows[k]);
    }
    t.add_row({std::to_string(i + 1), hosts, rows,
               plans[i].predicted.to_string(1)});
  }
  std::cout << t.render();
  return 0;
}

// Serve driver: generate a load trace per host, feed it through the NWS
// service, and loop requests against the prediction service while a
// fresh bindings epoch is published each step.
int cmd_serve(const std::map<std::string, std::string>& opts) {
  const auto spec = platform_by_name(get(opts, "platform", "platform2"));
  serve::ModelSpec model_spec;
  model_spec.app = serve::ModelSpec::App::kSor;
  model_spec.platform = spec;
  model_spec.config.n = std::strtoul(get(opts, "n", "1000").c_str(), nullptr, 10);
  model_spec.config.iterations =
      std::strtoul(get(opts, "iters", "15").c_str(), nullptr, 10);
  const auto requests =
      std::strtoul(get(opts, "requests", "200").c_str(), nullptr, 10);
  const auto workers =
      std::strtoul(get(opts, "workers", "4").c_str(), nullptr, 10);
  const auto shards =
      std::strtoul(get(opts, "shards", "1").c_str(), nullptr, 10);
  const auto mc_every =
      std::strtoul(get(opts, "mc-every", "10").c_str(), nullptr, 10);
  const auto seed = std::strtoull(get(opts, "seed", "1").c_str(), nullptr, 10);
  const double precision =
      std::strtod(get(opts, "precision", "0").c_str(), nullptr);
  const auto max_trials =
      std::strtoul(get(opts, "max-trials", "2000").c_str(), nullptr, 10);

  // Per-host load traces stand in for live CPU sensors; the first
  // kWarmup samples only prime the forecasters.
  constexpr std::size_t kWarmup = 32;
  const std::size_t steps = requests + kWarmup;
  nws::Service nws_service;
  std::vector<std::string> resources;
  std::vector<machine::LoadTrace> traces;
  for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
    resources.push_back("cpu/" + std::to_string(h) + "/" +
                        spec.hosts[h].machine.name);
    traces.push_back(machine::LoadTrace::generate(spec.hosts[h].load, steps,
                                                  1.0, seed + h));
    for (std::size_t t = 0; t < kWarmup; ++t) {
      nws_service.observe(resources[h], traces[h].samples()[t]);
    }
  }

  serve::NwsBridge bridge(nws_service, resources);
  serve::ServiceOptions service_options;
  service_options.workers = workers;
  service_options.shards = shards;
  serve::PredictionService service(service_options);
  service.register_model("sor", model_spec);

  support::RealClock wall;
  const double t0 = wall.now();
  std::vector<std::future<serve::PredictResult>> futures;
  for (std::size_t i = 0; i < requests; ++i) {
    for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
      nws_service.observe(resources[h], traces[h].samples()[kWarmup + i]);
    }
    service.publish_epoch(bridge.publish());
    serve::PredictRequest request;
    request.model_id = "sor";
    request.resources = resources;
    if (mc_every > 0 && i % mc_every == 0) {
      request.mode = serve::Mode::kMonteCarlo;
      request.seed = seed * 1000 + i;
      request.trials = max_trials;
      if (precision > 0.0) {
        request.precision = precision;
        request.precision_relative = true;
      }
    }
    futures.push_back(service.submit(std::move(request)));
  }

  std::size_t ok = 0;
  std::size_t errors = 0;
  std::size_t rejected = 0;
  stoch::StochasticValue last(0.0);
  serve::PredictResult last_mc;
  bool saw_mc = false;
  for (auto& f : futures) {
    const auto result = f.get();
    switch (result.status) {
      case serve::PredictResult::Status::kOk:
        ++ok;
        last = result.value;
        if (result.mc_trials > 0) {
          last_mc = result;
          saw_mc = true;
        }
        break;
      case serve::PredictResult::Status::kError:
        if (errors++ == 0) std::printf("first error: %s\n",
                                       result.error.c_str());
        break;
      case serve::PredictResult::Status::kRejected:
        ++rejected;
        break;
    }
  }
  service.drain();  // workers idle before the snapshot: gauges read 0
  const double elapsed = wall.now() - t0;
  std::printf("served %zu requests in %.3f s (%.0f req/s): "
              "%zu ok, %zu error, %zu shed\n",
              requests, elapsed, double(requests) / elapsed, ok, errors,
              rejected);
  if (ok > 0) std::printf("last prediction: %s s\n", last.to_string(2).c_str());
  if (saw_mc) {
    std::printf("last mc: %zu trials, CI half-width %.4g%s\n",
                last_mc.mc_trials, last_mc.mc_ci_halfwidth,
                last_mc.precision_met ? "" : " (precision NOT met at clamp)");
  }
  std::printf("\n%s", service.metrics().render().c_str());
  if (const auto it = opts.find("metrics-json"); it != opts.end()) {
    const std::string json = service.metrics().render_json();
    if (it->second == "-") {
      std::printf("%s", json.c_str());
    } else {
      std::ofstream out(it->second);
      if (!out) {
        std::cerr << "error: cannot write " << it->second << "\n";
        return 1;
      }
      out << json;
      std::printf("wrote metrics snapshot to %s\n", it->second.c_str());
    }
  }
  // A request the model refuses (say, a bandwidth forecast whose range
  // spans zero) is a structured result, counted above, not a failure of
  // the command.
  return 0;
}

// Cluster driver: the multi-node serving tier (src/dserve/) over the
// same NWS-fed epoch stream as `serve`. Requests consistent-hash onto an
// R-way replica set of ServingNodes; an optional --faults plan (see
// dserve/fault.hpp for the grammar) crashes, slows, or partitions nodes
// mid-stream while the frontend fails over and, on heartbeat, pushes
// stale nodes back to the published epoch.
int cmd_cluster(const std::map<std::string, std::string>& opts) {
  const auto spec = platform_by_name(get(opts, "platform", "platform2"));
  serve::ModelSpec model_spec;
  model_spec.app = serve::ModelSpec::App::kSor;
  model_spec.platform = spec;
  model_spec.config.n = std::strtoul(get(opts, "n", "1000").c_str(), nullptr, 10);
  model_spec.config.iterations =
      std::strtoul(get(opts, "iters", "15").c_str(), nullptr, 10);
  const auto requests =
      std::strtoul(get(opts, "requests", "200").c_str(), nullptr, 10);
  const auto seed = std::strtoull(get(opts, "seed", "1").c_str(), nullptr, 10);

  dserve::ClusterOptions cluster_options;
  cluster_options.nodes =
      std::strtoul(get(opts, "nodes", "3").c_str(), nullptr, 10);
  cluster_options.replicas =
      std::strtoul(get(opts, "replicas", "2").c_str(), nullptr, 10);
  dserve::FaultPlan plan;
  if (const auto it = opts.find("faults"); it != opts.end()) {
    plan = dserve::FaultPlan::parse(it->second);
  }

  constexpr std::size_t kWarmup = 32;
  const std::size_t steps = requests + kWarmup;
  nws::Service nws_service;
  std::vector<std::string> resources;
  std::vector<machine::LoadTrace> traces;
  for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
    resources.push_back("cpu/" + std::to_string(h) + "/" +
                        spec.hosts[h].machine.name);
    traces.push_back(machine::LoadTrace::generate(spec.hosts[h].load, steps,
                                                  1.0, seed + h));
    for (std::size_t t = 0; t < kWarmup; ++t) {
      nws_service.observe(resources[h], traces[h].samples()[t]);
    }
  }
  serve::NwsBridge bridge(nws_service, resources);

  dserve::ClusterFrontend cluster(cluster_options, std::move(plan));
  cluster.register_model("sor", model_spec);
  cluster.publish_epoch(bridge.publish());
  std::printf("replica set for 'sor' (primary first):");
  for (const auto n : cluster.replica_set("sor")) std::printf(" %zu", n);
  std::printf("  — point --faults at the primary to see failover\n");

  support::RealClock wall;
  const double t0 = wall.now();
  std::size_t ok = 0;
  std::size_t errors = 0;
  std::size_t rejected = 0;
  std::size_t failed_over = 0;
  stoch::StochasticValue last(0.0);
  for (std::size_t i = 0; i < requests; ++i) {
    for (std::size_t h = 0; h < spec.hosts.size(); ++h) {
      nws_service.observe(resources[h], traces[h].samples()[kWarmup + i]);
    }
    cluster.publish_epoch(bridge.publish());
    // Heartbeats run on their own cadence in a real deployment; here a
    // tick every 32 requests keeps membership and epochs converging
    // while the stream is the only clock.
    if (i % 32 == 31) (void)cluster.heartbeat_tick();
    serve::PredictRequest request;
    request.model_id = "sor";
    request.resources = resources;
    const auto served = cluster.predict(std::move(request));
    if (served.attempts > 1) ++failed_over;
    switch (served.result.status) {
      case serve::PredictResult::Status::kOk:
        ++ok;
        last = served.result.value;
        break;
      case serve::PredictResult::Status::kError:
        if (errors++ == 0) std::printf("first error: %s\n",
                                       served.result.error.c_str());
        break;
      case serve::PredictResult::Status::kRejected:
        ++rejected;
        break;
    }
  }
  const std::size_t rebalanced = cluster.heartbeat_tick();
  const double elapsed = wall.now() - t0;

  std::printf("cluster served %zu requests in %.3f s (%.0f req/s): "
              "%zu ok, %zu error, %zu shed, %zu failed over\n",
              requests, elapsed, double(requests) / elapsed, ok, errors,
              rejected, failed_over);
  if (ok > 0) std::printf("last prediction: %s s\n", last.to_string(2).c_str());
  std::printf("final heartbeat rebalanced %zu node(s)\n", rebalanced);
  std::printf("\nnode  state  epoch  served\n");
  for (std::size_t n = 0; n < cluster.nodes(); ++n) {
    const auto health = cluster.membership().health(n);
    const char* state = health.state == dserve::NodeState::kUp ? "up" : "down";
    std::printf("%4zu  %-5s  %5llu  %6llu\n", n, state,
                (unsigned long long)cluster.node(n).epoch_version(),
                (unsigned long long)health.successes);
  }
  std::printf("\n%s", cluster.metrics().render().c_str());
  return 0;  // per-request errors and sheds are counted above, as in serve
}

// Calibration driver: predict->simulate->report. The experiment harness
// replays per-host load traces through the simulator (predict::run_series);
// each trial's prediction is re-served through a ledger-equipped
// PredictionService, the observed (simulated) runtime is fed back via
// report_observation, and drift detection plus conformal recalibration
// run online over the resulting residual stream.
int cmd_calibrate(const std::map<std::string, std::string>& opts) {
  predict::SeriesConfig cfg;
  cfg.platform = platform_by_name(get(opts, "platform", "platform2"));
  cfg.sor.n = std::strtoul(get(opts, "n", "1000").c_str(), nullptr, 10);
  cfg.sor.iterations =
      std::strtoul(get(opts, "iters", "15").c_str(), nullptr, 10);
  cfg.sor.real_numerics = false;
  cfg.trials = std::strtoul(get(opts, "trials", "16").c_str(), nullptr, 10);
  cfg.seed = std::strtoull(get(opts, "seed", "20260707").c_str(), nullptr, 10);
  cfg.bwavail = stoch::StochasticValue::from_mean_sd(0.525, 0.06);
  const std::string source = get(opts, "source", "nws");
  if (source == "nws") {
    cfg.load_source = predict::LoadParameterSource::kNwsForecast;
  } else if (source == "sample") {
    cfg.load_source = predict::LoadParameterSource::kRecentSample;
  } else if (source == "mix") {
    cfg.load_source = predict::LoadParameterSource::kModalMix;
  } else {
    usage("unknown --source (nws|sample|mix)");
  }
  const auto window =
      std::strtoul(get(opts, "window", "64").c_str(), nullptr, 10);
  const double drift_lambda = std::stod(get(opts, "drift-lambda", "12"));

  const auto outcomes = predict::run_series(cfg);

  calib::LedgerOptions ledger_options;
  ledger_options.coverage_window = window;
  auto ledger = std::make_shared<calib::AccuracyLedger>(ledger_options);

  serve::ServiceOptions service_options;
  service_options.workers = 2;
  service_options.ledger = ledger;
  serve::PredictionService service(service_options);
  serve::ModelSpec model_spec;
  model_spec.app = serve::ModelSpec::App::kSor;
  model_spec.platform = cfg.platform;
  model_spec.config = cfg.sor;
  service.register_model("sor", model_spec);

  // Drift alarms are stamped in the series' virtual time.
  auto virtual_clock = std::make_shared<support::FakeClock>();
  calib::DriftMonitorOptions drift_options;
  drift_options.page_hinkley.lambda = drift_lambda;
  drift_options.coverage.window = std::max<std::size_t>(window / 4, 8);
  calib::DriftMonitor drift(drift_options, virtual_clock);

  calib::RecalibratorOptions recal_options;
  recal_options.window = window;
  recal_options.min_samples = std::min<std::size_t>(window / 4 + 2, 20);
  calib::ConformalRecalibrator recal(recal_options);

  support::Table t({"t (s)", "predicted (s)", "recalibrated (s)",
                    "actual (s)", "raw", "cal", "scale"});
  std::size_t raw_inside = 0;
  std::size_t cal_inside = 0;
  for (const auto& o : outcomes) {
    serve::PredictRequest request;
    request.model_id = "sor";
    request.loads = o.load_params;
    request.bwavail = cfg.bwavail;
    const auto result = service.submit(std::move(request)).get();
    if (!result.ok()) {
      std::cerr << "error: " << result.error << "\n";
      return 1;
    }
    // Apply the scale learned from the trials seen so far (online loop),
    // then report the observation so the ledger and window move on.
    const auto scaled = recal.apply("sor", result.value);
    const bool in_raw = result.value.contains(o.actual);
    const bool in_cal = scaled.contains(o.actual);
    if (in_raw) ++raw_inside;
    if (in_cal) ++cal_inside;
    virtual_clock->set(o.start_time);
    if (!result.value.is_point()) {
      drift.update("sor", (o.actual - result.value.mean()) / result.value.sd(),
                   in_raw);
    }
    service.report_observation(result.request_id, o.actual);
    recal.record("sor", result.value, o.actual);
    t.add_row({support::fmt(o.start_time, 0), result.value.to_string(1),
               scaled.to_string(1), support::fmt(o.actual, 1),
               in_raw ? "yes" : "no", in_cal ? "yes" : "no",
               support::fmt(recal.scale("sor"), 2)});
  }
  std::cout << t.render();

  const auto s = ledger->snapshot("sor");
  std::printf("\ncalibration report (%zu observations, nominal %.0f%%)\n",
              std::size_t(s.count), s.nominal_coverage * 100.0);
  std::printf("  coverage          raw %.1f%% | recalibrated %.1f%% | "
              "rolling(%zu) %.1f%%\n",
              100.0 * double(raw_inside) / double(outcomes.size()),
              100.0 * double(cal_inside) / double(outcomes.size()),
              std::size_t(s.rolling_count), s.rolling_coverage * 100.0);
  std::printf("  sharpness         mean halfwidth %.3f s\n", s.sharpness);
  std::printf("  proper scores     CRPS %.4f | pinball %.4f\n", s.mean_crps,
              s.mean_pinball);
  std::printf("  residuals         z mean %+.3f sd %.3f | |z| q%.0f %.3f "
              "(2.0 when calibrated)\n",
              s.z_mean, s.z_sd, s.nominal_coverage * 100.0, s.abs_z_quantile);
  std::printf("  conformal scale   %.3f (window %zu)\n", recal.scale("sor"),
              std::size_t(recal.count("sor")));
  const auto alarms = drift.alarms();
  if (alarms.empty()) {
    std::printf("  drift             none detected\n");
  } else {
    for (const auto& a : alarms) {
      std::printf("  drift             %s alarm at trial %zu (t=%.0f s)\n",
                  a.detector.c_str(), std::size_t(a.observation), a.time);
    }
  }
  service.drain();  // workers idle before the snapshot: gauges read 0
  std::printf("\n%s", service.metrics().render().c_str());
  return 0;
}

// Learning driver: the calibrate loop with the learned-predictor bank
// enabled. An unmodeled runtime drift (observed runtimes scaled by
// --drift-scale from trial --drift-at on) makes the structural model go
// stale; the RLS bank tracks the drifted stream and the arbiter flips
// the serving source once the learned candidate's rolling CRPS wins
// with hysteresis. Prints the per-model arbitration table, the bank
// snapshot and the learn/ metrics subtree.
int cmd_learn(const std::map<std::string, std::string>& opts) {
  predict::SeriesConfig cfg;
  cfg.platform = platform_by_name(get(opts, "platform", "platform2"));
  cfg.sor.n = std::strtoul(get(opts, "n", "1000").c_str(), nullptr, 10);
  cfg.sor.iterations =
      std::strtoul(get(opts, "iters", "15").c_str(), nullptr, 10);
  cfg.sor.real_numerics = false;
  cfg.trials = std::strtoul(get(opts, "trials", "128").c_str(), nullptr, 10);
  cfg.seed = std::strtoull(get(opts, "seed", "20260808").c_str(), nullptr, 10);
  cfg.bwavail = stoch::StochasticValue::from_mean_sd(0.525, 0.06);
  const std::string source = get(opts, "source", "nws");
  if (source == "nws") {
    cfg.load_source = predict::LoadParameterSource::kNwsForecast;
  } else if (source == "sample") {
    cfg.load_source = predict::LoadParameterSource::kRecentSample;
  } else if (source == "mix") {
    cfg.load_source = predict::LoadParameterSource::kModalMix;
  } else {
    usage("unknown --source (nws|sample|mix)");
  }
  const auto drift_at = std::strtoul(
      get(opts, "drift-at", std::to_string(cfg.trials / 2)).c_str(), nullptr,
      10);
  const double drift_scale = std::stod(get(opts, "drift-scale", "1.4"));

  const auto outcomes = predict::run_series(cfg);

  auto ledger = std::make_shared<calib::AccuracyLedger>();

  serve::ServiceOptions service_options;
  service_options.workers = 2;
  service_options.ledger = ledger;
  service_options.enable_learning = true;
  serve::PredictionService service(service_options);
  serve::ModelSpec model_spec;
  model_spec.app = serve::ModelSpec::App::kSor;
  model_spec.platform = cfg.platform;
  model_spec.config = cfg.sor;
  service.register_model("sor", model_spec);

  // Sequential submit->get->report loop: learning state is read at
  // execute time and trained at report time, so the stream is
  // deterministic for a fixed seed.
  learn::Source serving = learn::Source::kStructural;
  std::vector<std::size_t> flip_trials;
  std::size_t trial = 0;
  for (const auto& o : outcomes) {
    serve::PredictRequest request;
    request.model_id = "sor";
    request.loads = o.load_params;
    request.bwavail = cfg.bwavail;
    const auto result = service.submit(std::move(request)).get();
    if (!result.ok()) {
      std::cerr << "error: " << result.error << "\n";
      return 1;
    }
    const double observed =
        trial >= drift_at ? o.actual * drift_scale : o.actual;
    service.report_observation(result.request_id, observed);
    const auto now = service.arbiter()->source("sor");
    if (now != serving) {
      flip_trials.push_back(trial);
      serving = now;
    }
    ++trial;
  }
  service.drain();

  std::printf("learned-predictor arbitration (%zu trials, drift x%.2f at "
              "trial %zu)\n\n",
              outcomes.size(), drift_scale, std::size_t(drift_at));
  support::Table t({"model", "serving", "obs", "flips", "blend_w",
                    "crps[S]", "crps[L]", "crps[B]", "cov[S]", "cov[L]",
                    "cov[B]"});
  for (const auto& row : service.arbiter()->table()) {
    t.add_row({row.model_id, learn::source_name(row.serving),
               std::to_string(row.observations), std::to_string(row.flips),
               support::fmt(row.blend_weight, 2),
               support::fmt(row.structural.rolling_crps, 4),
               support::fmt(row.learned.rolling_crps, 4),
               support::fmt(row.blended.rolling_crps, 4),
               support::fmt_pct(row.structural.rolling_coverage),
               support::fmt_pct(row.learned.rolling_coverage),
               support::fmt_pct(row.blended.rolling_coverage)});
  }
  std::cout << t.render();

  if (flip_trials.empty()) {
    std::printf("\nserving source never left structural\n");
  } else {
    std::printf("\nserving-source flips at trial(s):");
    for (const std::size_t f : flip_trials) std::printf(" %zu", f);
    std::printf("\n");
  }

  std::printf("\npredictor bank\n");
  support::Table b({"structure key", "obs", "innovation sd", "dim"});
  for (const auto& row : service.bank()->snapshot()) {
    const std::string key = row.structure_key.size() > 40
                                ? row.structure_key.substr(0, 37) + "..."
                                : row.structure_key;
    b.add_row({key, std::to_string(row.observations),
               support::fmt(row.innovation_sd, 4),
               std::to_string(row.coefficients.size())});
  }
  std::cout << b.render();

  const auto s = ledger->snapshot("sor");
  std::printf("\nserved stream: rolling coverage %.1f%% over %zu | "
              "rolling CRPS %.4f\n",
              s.rolling_coverage * 100.0, std::size_t(s.rolling_count),
              s.rolling_crps);
  std::printf("\n%s", service.metrics().render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const auto opts = parse_options(argc, argv, 2);
  try {
    if (command == "platforms") return cmd_platforms();
    if (command == "trace") return cmd_trace(opts);
    if (command == "predict") return cmd_predict(opts);
    if (command == "series") return cmd_series(opts);
    if (command == "plan") return cmd_plan(opts);
    if (command == "serve") return cmd_serve(opts);
    if (command == "calibrate") return cmd_calibrate(opts);
    if (command == "cluster") return cmd_cluster(opts);
    if (command == "learn") return cmd_learn(opts);
    usage("unknown command: " + command);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
