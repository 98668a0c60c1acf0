// Tests for the flat slot-indexed IR (model/ir.hpp) and the tree->IR
// compiler (model/compile.hpp).
//
// The core of the file is a differential property test: random expression
// DAGs — nested sums/products/quotients/extremes/iterates with shared
// subtrees and repeated parameters — must evaluate identically (to 1e-12
// relative) through the tree walkers and the compiled program in the
// stochastic and point modes, and the compiled blocked Monte-Carlo engine
// must draw the same distribution as the tree sampler. The two samplers
// consume their RNG streams in different orders, so that comparison is
// statistical, on separate seeds (tests/sample_agreement.hpp). The blocked
// stream itself is pinned bit for bit by the hand replays in
// tests/mc_engine_test.cpp and by the goldens at the end of this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "model/compile.hpp"
#include "model/expr.hpp"
#include "model/ir.hpp"
#include "predict/sor_model.hpp"
#include "sample_agreement.hpp"
#include "stoch/stochastic_value.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sspred::model {
namespace {

using stoch::Dependence;
using stoch::ExtremePolicy;
using stoch::StochasticValue;

constexpr double kRelTol = 1e-12;

void expect_close(double a, double b, const std::string& what) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  EXPECT_LE(std::abs(a - b), kRelTol * scale) << what << ": " << a
                                              << " vs " << b;
}

void expect_sv_close(const StochasticValue& a, const StochasticValue& b,
                     const std::string& what) {
  expect_close(a.mean(), b.mean(), what + " mean");
  expect_close(a.halfwidth(), b.halfwidth(), what + " halfwidth");
}

// ---------------------------------------------------------------------------
// Compiler structure

TEST(Compile, FlattensToPostOrderWithRootLast) {
  const ExprPtr e =
      add(quotient(constant(StochasticValue(6.0, 0.6)), param("x"),
                   Dependence::kUnrelated),
          param("y"), Dependence::kRelated);
  const ir::Program prog = compile(*e);

  // Quotients emit the denominator's region first (sample-order parity
  // with DivExpr::sample): x, const, div, y, sum(root).
  ASSERT_EQ(prog.node_count(), 5u);
  EXPECT_EQ(prog.node(0).op, ir::OpCode::kParam);
  EXPECT_EQ(prog.node(1).op, ir::OpCode::kConst);
  EXPECT_EQ(prog.node(2).op, ir::OpCode::kDiv);
  EXPECT_EQ(prog.node(4).op, ir::OpCode::kSum);
  EXPECT_EQ(prog.slot_count(), 2u);
  EXPECT_TRUE(prog.has_slot("x"));
  EXPECT_TRUE(prog.has_slot("y"));
}

TEST(Compile, RepeatedParameterSharesOneSlot) {
  const ExprPtr x = param("x");
  const ExprPtr e = mul(add(x, x, Dependence::kRelated), param("x"),
                        Dependence::kUnrelated);
  const ir::Program prog = compile(*e);
  EXPECT_EQ(prog.slot_count(), 1u);
  // The shared ExprPtr `x` lowers once and its second occurrence becomes a
  // kRef; the separately authored param("x") emits its own kParam node.
  // Every kParam reads the single interned slot.
  std::size_t param_nodes = 0;
  std::size_t ref_nodes = 0;
  for (std::size_t i = 0; i < prog.node_count(); ++i) {
    if (prog.node(i).op == ir::OpCode::kParam) {
      ++param_nodes;
      EXPECT_EQ(prog.node(i).payload, prog.slot("x"));
    } else if (prog.node(i).op == ir::OpCode::kRef) {
      ++ref_nodes;
      EXPECT_EQ(prog.node(prog.node(i).payload).op, ir::OpCode::kParam);
    }
  }
  EXPECT_EQ(param_nodes, 2u);
  EXPECT_EQ(ref_nodes, 1u);
}

TEST(Compile, BaseProgramSeedsSharedSlotTable) {
  const ExprPtr whole = add(param("a"), param("b"));
  const ExprPtr part = param("b");
  const ir::Program prog = compile(*whole);
  const ir::Program comp = compile(*part, prog);
  // The component agrees with the base on slot ids, so one environment
  // shaped for the base drives both.
  EXPECT_EQ(comp.slot("b"), prog.slot("b"));
  EXPECT_EQ(comp.slot_count(), prog.slot_count());

  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("a"), StochasticValue(1.0));
  env.bind(prog.slot("b"), StochasticValue(2.0, 0.2));
  EXPECT_DOUBLE_EQ(comp.evaluate(env).mean(), 2.0);
  EXPECT_DOUBLE_EQ(prog.evaluate(env).mean(), 3.0);
}

TEST(Compile, UnknownSlotNameThrowsListingParameters) {
  const ir::Program prog = compile(*add(param("alpha"), param("beta")));
  try {
    (void)prog.slot("gamma");
    FAIL() << "expected Error";
  } catch (const support::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gamma"), std::string::npos);
    EXPECT_NE(what.find("alpha"), std::string::npos);
    EXPECT_NE(what.find("beta"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// SlotEnvironment / Environment diagnostics (satellite: lookup errors name
// what IS bound, not just what is missing)

TEST(SlotEnvironment, UnboundLookupListsBoundSlots) {
  const ir::Program prog = compile(*add(param("alpha"), param("beta")));
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("alpha"), StochasticValue(1.0));
  try {
    (void)prog.evaluate(env);
    FAIL() << "expected Error";
  } catch (const support::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("beta"), std::string::npos);   // the culprit
    EXPECT_NE(what.find("alpha"), std::string::npos);  // what is bound
  }
}

TEST(Environment, UnboundLookupListsBoundNames) {
  Environment env;
  env.bind("alpha", StochasticValue(1.0));
  env.bind("beta", StochasticValue(2.0));
  try {
    (void)env.lookup("gamma");
    FAIL() << "expected Error";
  } catch (const support::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gamma"), std::string::npos);
    EXPECT_NE(what.find("alpha"), std::string::npos);
    EXPECT_NE(what.find("beta"), std::string::npos);
  }
}

TEST(SlotEnvironment, EvaluateRejectsEnvironmentOfWrongShape) {
  const ir::Program two = compile(*add(param("a"), param("b")));
  const ir::Program one = compile(*param("a"));
  ir::SlotEnvironment env = one.make_environment();
  env.bind(one.slot("a"), StochasticValue(1.0));
  EXPECT_THROW((void)two.evaluate(env), support::Error);
}

TEST(SampleTrials, RequiresAtLeastTwoTrials) {
  const ir::Program prog = compile(*param("a"));
  ir::SlotEnvironment env = prog.make_environment();
  env.bind(prog.slot("a"), StochasticValue(1.0, 0.1));
  support::Rng rng(7);
  EXPECT_THROW((void)prog.sample_trials(env, rng, 1), support::Error);
}

// ---------------------------------------------------------------------------
// Hand-picked equivalences (exact, not just 1e-12: same operations in the
// same order must produce bit-identical doubles)

TEST(Compiled, MatchesTreeOnIterateBothRegimes) {
  for (const auto dep : {Dependence::kRelated, Dependence::kUnrelated}) {
    const ExprPtr body = add(quotient(constant(StochasticValue(3.0, 0.3)),
                                      param("load"), Dependence::kUnrelated),
                             param("load"), Dependence::kRelated);
    const ExprPtr e = iterate(body, 5, dep);
    Environment env;
    env.bind("load", StochasticValue(0.8, 0.1));

    const ir::Program prog = compile(*e);
    const ir::SlotEnvironment slots = bind_environment(prog, env);

    EXPECT_DOUBLE_EQ(prog.evaluate(slots).mean(), e->evaluate(env).mean());
    EXPECT_DOUBLE_EQ(prog.evaluate(slots).halfwidth(),
                     e->evaluate(env).halfwidth());
    EXPECT_DOUBLE_EQ(prog.evaluate_point(slots), e->evaluate_point(env));
  }
}

TEST(Compiled, MonteCarloEntryPointsAgree) {
  const ExprPtr e = iterate(
      add(quotient(constant(StochasticValue(2.0, 0.2)), param("load"),
                   Dependence::kUnrelated),
          constant(StochasticValue(0.5, 0.05)), Dependence::kUnrelated),
      6, Dependence::kRelated);
  Environment env;
  env.bind("load", StochasticValue(0.7, 0.1));

  const ir::Program prog = compile(*e);
  const ir::SlotEnvironment slots = bind_environment(prog, env);

  support::Rng r1(99);
  support::Rng r2(99);
  // The expr entry point compiles and runs the blocked engine, so it
  // reproduces the program's stream.
  const StochasticValue via_expr_api = monte_carlo(*e, env, r1, 500);
  const StochasticValue via_blocked = prog.sample_trials(slots, r2, 500);
  expect_sv_close(via_expr_api, via_blocked, "monte_carlo(expr) vs blocked");
}

TEST(Compiled, ConstantFoldingKeepsTheSignOfZeroInEveryMode) {
  // Each mode has its own zero here. prod(-3, 0) is +0 under the §2.3.2
  // zero rule but -0 in point and sampled arithmetic; sum(-0, -0) is -0
  // folded from its first operand (stochastic, sampled) but +0 from the
  // additive identity (point). The folder must leave both nodes alone,
  // so compile() serves every mode exactly what the unoptimized program
  // serves.
  const ExprPtr cases[] = {
      prod({constant(StochasticValue(-3.0)), constant(StochasticValue(0.0))}),
      sum({constant(StochasticValue(-0.0)), constant(StochasticValue(-0.0))})};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const ExprPtr& e : cases) {
    const ir::Program base = compile_unoptimized(*e);
    const ir::Program opt = compile(*e);
    const ir::SlotEnvironment env = base.make_environment();
    const std::string what = e->to_string();
    EXPECT_EQ(bits(opt.evaluate(env).mean()), bits(base.evaluate(env).mean()))
        << what << " stochastic mean";
    EXPECT_EQ(bits(opt.evaluate(env).halfwidth()),
              bits(base.evaluate(env).halfwidth()))
        << what << " stochastic halfwidth";
    EXPECT_EQ(bits(opt.evaluate_point(env)), bits(base.evaluate_point(env)))
        << what << " point";
    support::Rng ra(3), rb(3);
    const StochasticValue mc_opt = opt.sample_trials(env, ra, 64);
    const StochasticValue mc_base = base.sample_trials(env, rb, 64);
    EXPECT_EQ(bits(mc_opt.mean()), bits(mc_base.mean()))
        << what << " Monte-Carlo mean";
    EXPECT_EQ(bits(mc_opt.halfwidth()), bits(mc_base.halfwidth()))
        << what << " Monte-Carlo halfwidth";
  }
  // The served zeros themselves: +0 for the product's stochastic mean,
  // -0 for the sum's.
  const ir::Program prod_opt = compile(*cases[0]);
  const ir::Program sum_opt = compile(*cases[1]);
  EXPECT_EQ(bits(prod_opt.evaluate(prod_opt.make_environment()).mean()),
            bits(0.0));
  EXPECT_EQ(bits(sum_opt.evaluate(sum_opt.make_environment()).mean()),
            bits(-0.0));
}

TEST(Compiled, ConstantFoldingLeavesNodesWhoseStochasticRuleThrows) {
  // 1e308 + 1e308 overflows, and 1 / 1e-200 has an inverse whose
  // halfwidth |0 / (1e-200)^2| is 0 / 0: the stochastic walk throws on
  // both, while point and sampled arithmetic agree on a value. The
  // folder must not turn either into a literal the walk would serve.
  const ExprPtr cases[] = {
      sum({constant(StochasticValue(1e308)), constant(StochasticValue(1e308))}),
      quotient(constant(StochasticValue(1.0)),
               constant(StochasticValue(1e-200)))};
  for (const ExprPtr& e : cases) {
    const ir::Program base = compile_unoptimized(*e);
    const ir::Program opt = compile(*e);
    const ir::SlotEnvironment env = base.make_environment();
    EXPECT_THROW((void)base.evaluate(env), support::Error) << e->to_string();
    EXPECT_THROW((void)opt.evaluate(env), support::Error) << e->to_string();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(opt.evaluate_point(env)),
              std::bit_cast<std::uint64_t>(base.evaluate_point(env)))
        << e->to_string();
  }
}

TEST(Compiled, TreeChecksAGroupNodeOnceAsTheWalkDoes) {
  // 1e300 * 1e300 overflows part way through the fold, and the zero
  // factor then makes the product the zero point value (§2.3.2). The walk
  // and the folder check the folded node once, so the tree must too.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const auto dep : {Dependence::kRelated, Dependence::kUnrelated}) {
    const ExprPtr e = prod({constant(StochasticValue(1e300, 1.0)),
                            constant(StochasticValue(1e300, 1.0)),
                            constant(StochasticValue(0.0))},
                           dep);
    const StochasticValue tree = e->evaluate(Environment{});
    for (const ir::Program& prog : {compile(*e), compile_unoptimized(*e)}) {
      const StochasticValue walk = prog.evaluate(prog.make_environment());
      EXPECT_EQ(bits(tree.mean()), bits(walk.mean())) << e->to_string();
      EXPECT_EQ(bits(tree.halfwidth()), bits(walk.halfwidth()))
          << e->to_string();
    }
    EXPECT_EQ(bits(tree.mean()), bits(0.0));
    EXPECT_EQ(bits(tree.halfwidth()), bits(0.0));
  }
}

TEST(Compiled, SorModelServesIdenticalPredictions) {
  const auto spec = cluster::platform1();
  sor::SorConfig cfg;
  cfg.n = 400;
  cfg.iterations = 15;
  const predict::StructuralModel model(predict::author_sor(spec, cfg));
  std::vector<StochasticValue> loads = {
      {0.48, 0.05}, {0.92, 0.03}, {0.92, 0.03}, {0.92, 0.03}};
  const StochasticValue bw(0.525, 0.06);

  const Environment env = model.make_env(loads, bw);
  const ir::SlotEnvironment slots = model.make_slot_env(loads, bw);

  // Compiled prediction == tree evaluation of the authored expression.
  EXPECT_DOUBLE_EQ(model.predict(slots).mean(),
                   model.expr()->evaluate(env).mean());
  EXPECT_DOUBLE_EQ(model.predict(slots).halfwidth(),
                   model.expr()->evaluate(env).halfwidth());
  EXPECT_DOUBLE_EQ(model.predict_point(slots),
                   model.expr()->evaluate_point(env));
  // The two environment forms agree with each other.
  EXPECT_DOUBLE_EQ(model.predict(env).mean(), model.predict(slots).mean());
}

// ---------------------------------------------------------------------------
// Differential property test over random DAGs

struct Gen {
  explicit Gen(std::uint64_t seed) : rng(seed) {}

  support::Rng rng;
  std::vector<std::string> params = {"p0", "p1", "p2", "p3"};
  std::vector<ExprPtr> pool;  ///< candidates for shared-subtree reuse

  Dependence dep() {
    return rng.uniform() < 0.5 ? Dependence::kRelated
                               : Dependence::kUnrelated;
  }

  /// A leaf or a leaf-like safe denominator: a parameter (bound well away
  /// from zero) or a tight positive constant.
  ExprPtr leaf() {
    if (rng.uniform() < 0.5) {
      return param(params[rng.uniform_int(params.size())]);
    }
    const double mean = rng.uniform(0.5, 2.0);
    return constant(StochasticValue(mean, rng.uniform(0.0, 0.2 * mean)));
  }

  ExprPtr expr(int depth) {
    // Shared subtree: reuse an already-built node (DAG edge) sometimes.
    if (!pool.empty() && rng.uniform() < 0.2) {
      return pool[rng.uniform_int(pool.size())];
    }
    ExprPtr made;
    if (depth == 0 || rng.uniform() < 0.2) {
      made = leaf();
    } else {
      switch (rng.uniform_int(5)) {
        case 0: {
          std::vector<ExprPtr> terms;
          const std::size_t k = 2 + rng.uniform_int(3);
          for (std::size_t i = 0; i < k; ++i) {
            terms.push_back(expr(depth - 1));
          }
          made = sum(std::move(terms), dep());
          break;
        }
        case 1: {
          std::vector<ExprPtr> factors;
          const std::size_t k = 2 + rng.uniform_int(2);
          for (std::size_t i = 0; i < k; ++i) {
            factors.push_back(expr(depth - 1));
          }
          made = prod(std::move(factors), dep());
          break;
        }
        case 2:
          // Denominators stay leaves: parameters and constants are bound
          // well away from zero, which keeps the div/inverse
          // range-excludes-zero precondition satisfiable for arbitrary
          // nesting (a deep product's range may legally straddle zero).
          made = quotient(expr(depth - 1), leaf(), dep());
          break;
        case 3: {
          std::vector<ExprPtr> items;
          const std::size_t k = 2 + rng.uniform_int(3);
          for (std::size_t i = 0; i < k; ++i) {
            items.push_back(expr(depth - 1));
          }
          const auto policy = rng.uniform() < 0.5
                                  ? ExtremePolicy::kLargestMean
                                  : ExtremePolicy::kLargestUpper;
          made = rng.uniform() < 0.5 ? vmax(std::move(items), policy)
                                     : vmin(std::move(items), policy);
          break;
        }
        default:
          made = iterate(expr(depth - 1), 1 + rng.uniform_int(4), dep());
          break;
      }
    }
    pool.push_back(made);
    return made;
  }
};

/// Random DAG `c` of the property tests, with its four parameters bound
/// well away from zero.
struct RandomDag {
  ExprPtr expr;
  Environment env;
};

RandomDag random_dag(int c) {
  Gen gen(1000 + static_cast<std::uint64_t>(c));
  RandomDag dag;
  dag.expr = gen.expr(4);
  for (const auto& name : gen.params) {
    const double mean = gen.rng.uniform(0.5, 2.0);
    dag.env.bind(name,
                 StochasticValue(mean, gen.rng.uniform(0.0, 0.2 * mean)));
  }
  return dag;
}

constexpr int kDagCases = 40;

TEST(Differential, RandomDagsAgreeAcrossAllThreeModes) {
  // Monte-Carlo: n = 20000 trials per side, each sampler on its own seed.
  // Mean: |z| <= 4.5 standard errors of the mean difference, which at this
  // n is 4.5 · sqrt(2/n) = 3.2% of one sd. Sd: |ln(sd_blocked / sd_tree)|
  // <= 4.5 · sqrt((κ − 1)/(2n)), which is 3.2% for a normal (κ = 3) and
  // 5.0% at κ = 6. Over the 40 DAGs the chance that a correct engine
  // trips either bound is at most 40 · 6.8e-6 per bound (derivation in
  // tests/sample_agreement.hpp). At these seeds the engine's worst |z| is
  // 2.5 and its worst sd difference 2.1% (kurtosis 2.9 to 3.8). An engine
  // that copies every shared subtree's row instead of drawing it again
  // fails 13 of the 40 DAGs, with the sd off by up to 80% and the mean by
  // up to 107 standard errors.
  constexpr std::size_t kTrials = 20'000;
  std::vector<double> blocked(kTrials);
  ir::EvalWorkspace ws;
  for (int c = 0; c < kDagCases; ++c) {
    const auto [e, env] = random_dag(c);
    const std::string label = "case " + std::to_string(c);

    const ir::Program prog = compile(*e);
    const ir::SlotEnvironment slots = bind_environment(prog, env);

    expect_sv_close(prog.evaluate(slots), e->evaluate(env),
                    label + " evaluate");
    expect_close(prog.evaluate_point(slots), e->evaluate_point(env),
                 label + " evaluate_point");

    support::Rng tree_rng(7000 + static_cast<std::uint64_t>(c));
    support::Rng ir_rng(17000 + static_cast<std::uint64_t>(c));
    const std::vector<double> tree =
        testutil::tree_samples(*e, env, tree_rng, kTrials);
    prog.sample_into(slots, ir_rng, blocked, ws);
    const testutil::Agreement g = testutil::agreement(blocked, tree);
    EXPECT_LE(std::abs(g.z), testutil::kSigmas)
        << label << ": blocked mean " << g.a.mean << ", tree mean "
        << g.b.mean;
    EXPECT_LE(g.sd_log, g.sd_tol)
        << label << ": blocked sd " << g.a.sd << ", tree sd " << g.b.sd
        << ", kurtosis " << g.a.kurtosis << " / " << g.b.kurtosis;
  }
}

// ---------------------------------------------------------------------------
// Pinned goldens: the exact bits of evaluate(), evaluate_point() and
// blocked sample_trials() for the three structural models and the 40
// random DAGs above, at fixed seeds and trial counts. They pin the served
// outputs themselves, so a refactor of the evaluators can be checked
// against them without keeping a second implementation alive. A change to
// the calculus, the point walk, the optimizer, the blocked draw order, the
// ziggurat or the Monte-Carlo summary moves some of these bits.

/// One model's pinned outputs.
struct Pinned {
  double mean;          ///< evaluate()
  double halfwidth;     ///< evaluate()
  double point;         ///< evaluate_point()
  double mc_mean;       ///< sample_trials(seed, trials)
  double mc_halfwidth;  ///< sample_trials(seed, trials)
};

std::string hexfloat(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

void expect_pinned(const ir::Program& prog, const ir::SlotEnvironment& env,
                   std::uint64_t seed, std::size_t trials, const Pinned& want,
                   const std::string& model) {
  const StochasticValue sv = prog.evaluate(env);
  support::Rng rng(seed);
  const StochasticValue mc = prog.sample_trials(env, rng, trials);
  const Pinned got{sv.mean(), sv.halfwidth(), prog.evaluate_point(env),
                   mc.mean(), mc.halfwidth()};
  const auto expect_bits = [&](double g, double w, const char* mode) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g), std::bit_cast<std::uint64_t>(w))
        << model << ", " << mode << ", seed " << seed << ", " << trials
        << " trials: got " << hexfloat(g) << ", pinned " << hexfloat(w);
  };
  expect_bits(got.mean, want.mean, "evaluate mean");
  expect_bits(got.halfwidth, want.halfwidth, "evaluate halfwidth");
  expect_bits(got.point, want.point, "evaluate_point");
  expect_bits(got.mc_mean, want.mc_mean, "sample_trials mean");
  expect_bits(got.mc_halfwidth, want.mc_halfwidth, "sample_trials halfwidth");
}

/// Two full blocks and a partial one.
constexpr std::size_t kGoldenTrials = 2 * ir::kBlockTrials + 952;

/// Loads mean 0.40, 0.47, 0.54, ... (cycling), halfwidth 8% of the mean.
std::vector<StochasticValue> staggered_loads(std::size_t hosts) {
  std::vector<StochasticValue> loads;
  for (std::size_t h = 0; h < hosts; ++h) {
    const double mean = 0.40 + 0.07 * static_cast<double>(h % 8);
    loads.emplace_back(mean, 0.08 * mean);
  }
  return loads;
}

// Recorded with the blocked engine at kBlockTrials = 1024 and the block-
// moment summary (4 interleaved accumulators per pass, blocks merged in
// order by Chan's update; see ir::kBlockTrials).
constexpr Pinned kSorPlatform1{0x1.0980346dc5d64p+7, 0x1.4821eb99450c8p+3,
                               0x1.0980346dc5d63p+7, 0x1.09950ce4a7a91p+7,
                               0x1.50a6b65e03977p+3};
constexpr Pinned kSorPlatform2Unrelated{0x1.13f08d5eda063p+4,
                                        0x1.4443df92d6923p-2,
                                        0x1.13f08d5eda063p+4,
                                        0x1.1468bb6989679p+4,
                                        0x1.4289c7ce0c667p-2};
constexpr Pinned kBlock2x2{0x1.b5f9890c2793p+0, 0x1.c67bd96207d0fp-4,
                           0x1.b5f9890c2793p+0, 0x1.b6db8e60271f2p+0,
                           0x1.d09d97e696437p-4};
constexpr Pinned kJacobiPlatform1{0x1.13d52ae416b42p+2, 0x1.498dd49106818p-2,
                                  0x1.13d52ae416b41p+2, 0x1.1420f91cb30e1p+2,
                                  0x1.4c685b11ed102p-2};
constexpr Pinned kRandomDags[kDagCases] = {
    {0x1.02c7c8a7e199ap+2, 0x1.1200f0bd64ac4p-3, 0x1.02c7c8a7e199ap+2,
     0x1.02ea652cf1ffep+2, 0x1.5be93bf576401p-3},  // 0
    {0x1.1d766c503d674p+1, 0x1.83b925c2b8501p-2, 0x1.1d766c503d674p+1,
     0x1.1cf54d196ba54p+1, 0x1.72dbbd4dac43ap-2},  // 1
    {0x1.62d5e40bc16d3p+2, 0x1.2dee585afc293p-1, 0x1.62d5e40bc16d3p+2,
     0x1.633a89895f72bp+2, 0x1.85ffb724964f6p-2},  // 2
    {0x1.331b10431e72cp+2, 0x1.21e2197a8e07bp-1, 0x1.331b10431e72cp+2,
     0x1.32fc2f379523ap+2, 0x1.73cfdcc306ab2p-2},  // 3
    {0x1.2e93c7de96317p+4, 0x1.2583ee37016e3p+3, 0x1.2e93c7de96317p+4,
     0x1.2ea22973d22dcp+4, 0x1.612741a99b2a9p+2},  // 4
    {0x1.bacbde9e82869p+5, 0x1.6f434bcc8701cp+2, 0x1.bacbde9e82869p+5,
     0x1.bae01d01f65bdp+5, 0x1.b2540aab50e73p+2},  // 5
    {0x1.2419c80680446p+4, 0x1.57ca317617cb4p+2, 0x1.2419c80680446p+4,
     0x1.24936509cc918p+4, 0x1.2587038c9ed72p+1},  // 6
    {0x1.4022419cc23f1p+0, 0x1.56734618d4bfp-2, 0x1.4022419cc23f1p+0,
     0x1.425549cfed66p+0, 0x1.e2cc2271bd3d1p-3},  // 7
    {0x1.a41726d8fecaap+2, 0x1.faaa64c9314bap+0, 0x1.a41726d8fecaap+2,
     0x1.a73d26c404671p+2, 0x1.38517833ad14cp+0},  // 8
    {0x1.0d95ebf8f57ccp+0, 0x1.6deb5e07f4e0bp-3, 0x1.0d95ebf8f57ccp+0,
     0x1.0dbf3b20506f9p+0, 0x1.6fac8de5bdb5ap-3},  // 9
    {0x1.1714115aedc8ap+9, 0x1.cf941fe200031p+7, 0x1.1714115aedc8ap+9,
     0x1.19f4714dcdaafp+9, 0x1.4bf85eeaa62cp+7},  // 10
    {0x1.8c913a93b332cp-1, 0x1.9ea27adc5e5fcp-4, 0x1.8c913a93b332cp-1,
     0x1.8c6ae5cbe3323p-1, 0x1.a9f979d8b5978p-4},  // 11
    {0x1.9f131a255c731p+2, 0x1.54113d7b091c3p+0, 0x1.9f131a255c73p+2,
     0x1.a298ed2fd9a4ep+2, 0x1.8db164b8c8d24p-1},  // 12
    {0x1.d5cd3a87c5902p+5, 0x1.c320a180c0ae9p+2, 0x1.d5cd3a87c5902p+5,
     0x1.d536374d34134p+5, 0x1.c375a22a1e8ddp+2},  // 13
    {0x1.b1aa0c8cdd4b8p+6, 0x1.5734306b5fcc2p+5, 0x1.b1aa0c8cdd4b8p+6,
     0x1.b2b276b674ddcp+6, 0x1.6273f15121699p+5},  // 14
    {0x1.d753c7f1bb2a6p+0, 0x1.13ace91175d24p-2, 0x1.d753c7f1bb2a6p+0,
     0x1.d6e0a9389e61fp+0, 0x1.13a60442a93c4p-2},  // 15
    {0x1.0e8b371072f64p+2, 0x1.3ffd2367ddf49p-2, 0x1.0e8b371072f64p+2,
     0x1.0e8ff40fd519p+2, 0x1.3da4227656799p-2},  // 16
    {0x1.4a02cc9cae05ep-1, 0x1.1cd43ade6f7d1p-6, 0x1.4a02cc9cae05ep-1,
     0x1.4a0af96a1345bp-1, 0x1.1b859c099ae19p-6},  // 17
    {0x1.008c56729ff02p+3, 0x1.4020ac7d7a5e3p+1, 0x1.008c56729ff02p+3,
     0x1.00b087b031b16p+3, 0x1.7fbf3814d4c5p+0},  // 18
    {0x1.e54de2c6f9de7p+1, 0x1.bffe3a1cfcd71p-3, 0x1.e54de2c6f9de7p+1,
     0x1.f2ef7d46fa2a8p+1, 0x1.73e597f98fa02p-3},  // 19
    {0x1.63338b561e247p+8, 0x1.acf88291dc1d3p+7, 0x1.63338b561e246p+8,
     0x1.698190d726005p+8, 0x1.1878c3dd3900ep+6},  // 20
    {0x1.43f8c7de88c2bp+5, 0x1.7a21508155f1ep+4, 0x1.43f8c7de88c2bp+5,
     0x1.457b488291f6p+5, 0x1.2e7caa2ebbe93p+3},  // 21
    {0x1.8dfa90044fe7fp-1, 0x1.cc1bb3958de53p-4, 0x1.8dfa90044fe7fp-1,
     0x1.8de49cc23a638p-1, 0x1.cd59e7a5d8317p-4},  // 22
    {0x1.c3c04ff48d7bbp+3, 0x1.d16616bafdf85p-2, 0x1.c3c04ff48d7bbp+3,
     0x1.c3d39c523b575p+3, 0x1.755b3c29ffa94p-2},  // 23
    {0x1.0d4d656074b88p+9, 0x1.f85c005a7a99cp+7, 0x1.0d4d656074b8ap+9,
     0x1.114fee81b959dp+9, 0x1.4806f104a9611p+7},  // 24
    {0x1.1b602740783abp-1, 0x1.08a36951cb8ep-2, 0x1.1b602740783aap-1,
     0x1.1c472da0d294ep-1, 0x1.8e6b37aa1338ap-4},  // 25
    {0x1.5b6c70801214ep+6, 0x1.a3b6a39f483aap+4, 0x1.5b6c70801214ep+6,
     0x1.5b6f4c5ec32ep+6, 0x1.6056fedd696bp+1},  // 26
    {0x1.211c965a38e35p+5, 0x1.230003ef59e95p+1, 0x1.211c965a38e35p+5,
     0x1.21455792dfa8fp+5, 0x1.629ddba206854p+0},  // 27
    {0x1.042607c09024ap+2, 0x1.4bd98ded0bap+0, 0x1.042607c09024ap+2,
     0x1.05b7d43d0cc0fp+2, 0x1.ac73fe15cb174p-1},  // 28
    {0x1.4aafce2789308p-1, 0x1.7443dab4bef45p-4, 0x1.4aafce2789308p-1,
     0x1.4af4cea9aba8cp-1, 0x1.fde0b049c91a8p-5},  // 29
    {0x1.9835e7ee3d4c9p+0, 0x1.bbc0de995b409p-4, 0x1.9835e7ee3d4c9p+0,
     0x1.984e9a0c866bap+0, 0x1.bd019bedebcd6p-4},  // 30
    {0x1.960b1ae208679p-1, 0x1.274d2a12e703cp-3, 0x1.960b1ae208679p-1,
     0x1.96345f4d86259p-1, 0x1.851671c3720bcp-6},  // 31
    {0x1.4afec0b831539p+2, 0x1.9d8d5510c6d3fp-1, 0x1.4afec0b831539p+2,
     0x1.4b6692c8a1749p+2, 0x1.af1cc5c329a1dp-2},  // 32
    {0x1.0669e616bed8fp-1, 0x1.6dd0c15fa5081p-3, 0x1.0669e616bed8fp-1,
     0x1.060d920a5ec4dp-1, 0x1.b8fa9d518432ap-4},  // 33
    {0x1.d1ffa71f21ad5p+2, 0x1.5fa387b629b4fp+0, 0x1.d1ffa71f21ad5p+2,
     0x1.d2087626d9824p+2, 0x1.9e3d3dd12a27cp-1},  // 34
    {0x1.ebbea6ccea046p+0, 0x1.a697350059fd6p-3, 0x1.ebbea6ccea046p+0,
     0x1.eccafbee7fc56p+0, 0x1.22e4282d955fp-3},  // 35
    {0x1.91276ef2e0a8dp+6, 0x1.1f71e8687f4a1p+7, 0x1.91276ef2e0a8dp+6,
     0x1.93904db8429dcp+6, 0x1.478b9073f2932p+5},  // 36
    {0x1.6eb07400fbaap-1, 0x1.0ffd81afd9946p-3, 0x1.6eb07400fbaap-1,
     0x1.6ead6a2bc093cp-1, 0x1.0edf540b596c6p-3},  // 37
    {0x1.ff4a62e0e3775p+3, 0x1.b3d06a440c4a6p+1, 0x1.ff4a62e0e3773p+3,
     0x1.ffa11505f11f5p+3, 0x1.bb19cf495f97dp+0},  // 38
    {0x1.755d148f7ba2bp+2, 0x1.3258a4cc5d6c6p-3, 0x1.755d148f7ba2bp+2,
     0x1.75894f0a7d4cbp+2, 0x1.20d38e11dc45fp-3},  // 39
};

TEST(Golden, StructuralModelsKeepTheirBits) {
  const StochasticValue bw(0.525, 0.06);
  {
    sor::SorConfig cfg;
    cfg.n = 1600;
    cfg.iterations = 20;
    const predict::StructuralModel model(
        predict::author_sor(cluster::platform1(), cfg));
    const auto loads = staggered_loads(model.hosts());
    expect_pinned(model.program(), model.make_slot_env(loads, bw), 501,
                  kGoldenTrials, kSorPlatform1, "sor platform1");
  }
  {
    // Unrelated iterations and Clark's max: the other dependence regime
    // and policy of the same skeleton.
    sor::SorConfig cfg;
    cfg.n = 1000;
    cfg.iterations = 15;
    predict::SorModelOptions options;
    options.iteration_dependence = Dependence::kUnrelated;
    options.max_policy = ExtremePolicy::kClark;
    const predict::StructuralModel model(
        predict::author_sor(cluster::platform2(), cfg, options));
    const auto loads = staggered_loads(model.hosts());
    expect_pinned(model.program(), model.make_slot_env(loads, bw), 502,
                  kGoldenTrials, kSorPlatform2Unrelated,
                  "sor platform2 unrelated/clark");
  }
  {
    const predict::StructuralModel model(
        predict::author_block_sor(cluster::dedicated_platform(4), 400, 12, 2,
                                  2));
    expect_pinned(model.program(),
                  model.make_slot_env(staggered_loads(4), bw), 503,
                  kGoldenTrials, kBlock2x2, "block 2x2");
  }
  {
    const predict::StructuralModel model(
        predict::author_jacobi(cluster::platform1(), 400, 10));
    expect_pinned(model.program(),
                  model.make_slot_env(staggered_loads(4), bw), 504,
                  kGoldenTrials, kJacobiPlatform1, "jacobi platform1");
  }
}

TEST(Golden, RandomDagsKeepTheirBits) {
  for (int c = 0; c < kDagCases; ++c) {
    const auto [e, env] = random_dag(c);
    const ir::Program prog = compile(*e);
    expect_pinned(prog, bind_environment(prog, env),
                  7000 + static_cast<std::uint64_t>(c), kGoldenTrials,
                  kRandomDags[c], "random dag " + std::to_string(c));
  }
}

}  // namespace
}  // namespace sspred::model
