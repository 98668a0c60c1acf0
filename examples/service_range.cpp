// Service ranges instead of hard QoS guarantees (paper §1.2).
//
// A stochastic execution-time prediction is a distribution, so instead of
// promising one number you can promise a band with a confidence — and
// price deadlines by the probability of missing them.
//
// Run: ./build/examples/service_range
#include <cstdio>
#include <iostream>

#include "predict/sor_model.hpp"
#include "stoch/service_range.hpp"
#include "support/table.hpp"

int main() {
  using namespace sspred;

  // A production prediction for an SOR run on Platform 1.
  const auto spec = cluster::platform1();
  sor::SorConfig cfg;
  cfg.n = 1600;
  cfg.iterations = 20;
  const predict::StructuralModel model(predict::author_sor(spec, cfg));
  const std::vector<stoch::StochasticValue> loads{
      stoch::StochasticValue(0.48, 0.05), stoch::StochasticValue(0.92, 0.03),
      stoch::StochasticValue(0.92, 0.03), stoch::StochasticValue(0.92, 0.03)};
  const stoch::StochasticValue prediction =
      model.predict(model.make_env(loads, {0.525, 0.12}));

  std::cout << "prediction: " << prediction << " s\n\n";

  support::Table bands({"confidence", "service range (s)"});
  for (double c : {0.80, 0.90, 0.95, 0.99}) {
    const auto r = stoch::service_range(prediction, c);
    bands.add_row({support::fmt_pct(c, 0),
                   support::fmt(r.lower, 1) + " .. " + support::fmt(r.upper, 1)});
  }
  std::cout << bands.render() << "\n";

  support::Table deadlines({"deadline (s)", "P(miss)"});
  for (double mult : {1.0, 1.05, 1.10, 1.20}) {
    const double d = prediction.mean() * mult;
    deadlines.add_row(
        {support::fmt(d, 1),
         support::fmt_pct(stoch::probability_above(prediction, d), 1)});
  }
  std::cout << deadlines.render();

  const double safe = stoch::deadline_for(prediction, 0.95);
  std::cout << "\nTo be on time 95% of runs, budget "
            << support::fmt(safe, 1) << " s ("
            << support::fmt_pct(safe / prediction.mean() - 1.0, 1)
            << " above the mean). Poor performance is tolerated the small\n"
               "percentage of the time the paper's service-range idea "
               "anticipates.\n";
  return 0;
}
