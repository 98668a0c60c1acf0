// Goldens for the simulated applications in sor/: the exact bits of each
// run's virtual time, every rank's per-iteration timings, the residual and
// solution error, the rebalance events and the gathered solution. Virtual
// time is deterministic and bytes on the fabric are virtual time, so a
// change to a ghost payload's size, to the order of sends and receives or
// to a sweep's arithmetic moves at least one of these fields. Small grids
// keep the sanitizer builds fast. A golden is never edited to follow a
// change to the substrate: a mismatch means the substrate moved.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <limits>
#include <sstream>
#include <string>

#include "sor/block.hpp"
#include "sor/cg.hpp"
#include "sor/distributed.hpp"
#include "sor/jacobi.hpp"

namespace sspred::sor {
namespace {

/// FNV-1a over the 64-bit patterns of the values folded in.
class BitHash {
 public:
  BitHash& add(std::uint64_t bits) {
    for (int k = 0; k < 8; ++k) {
      h_ ^= (bits >> (8 * k)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  BitHash& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string hexfloat(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

/// Bitwise field check; a mismatch names the field and prints both values.
void expect_bits(const char* field, double actual, double golden) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(golden))
      << field << " is " << hexfloat(actual) << ", golden "
      << hexfloat(golden);
}

void expect_hash(const char* field, std::uint64_t actual,
                 std::uint64_t golden) {
  EXPECT_EQ(actual, golden) << field << " hash is 0x" << std::hex << actual
                            << "ULL, golden 0x" << golden << "ULL";
}

std::uint64_t hash_values(const std::vector<double>& values) {
  BitHash h;
  h.add(std::uint64_t{values.size()});
  for (const double v : values) h.add(v);
  return h.value();
}

struct SorGolden {
  double total_time;
  double residual;
  double solution_error;
  std::uint64_t timings;     ///< every rank's PhaseTiming and iteration_end
  std::uint64_t rebalances;  ///< at, duration and rows of every event
  std::uint64_t solution;    ///< the gathered n x n interior
};

void check(const SorResult& r, const SorGolden& g) {
  expect_bits("total_time", r.total_time, g.total_time);
  expect_bits("residual", r.residual, g.residual);
  expect_bits("solution_error", r.solution_error, g.solution_error);

  BitHash timings;
  for (const RankStats& rank : r.ranks) {
    timings.add(std::uint64_t{rank.iterations.size()});
    for (std::size_t it = 0; it < rank.iterations.size(); ++it) {
      const PhaseTiming& t = rank.iterations[it];
      timings.add(t.red_comp).add(t.red_comm).add(t.black_comp);
      timings.add(t.black_comm).add(rank.iteration_end[it]);
    }
  }
  expect_hash("rank timings", timings.value(), g.timings);

  BitHash rebalances;
  rebalances.add(std::uint64_t{r.rebalances.size()});
  for (const RebalanceEvent& e : r.rebalances) {
    rebalances.add(e.at).add(e.duration);
    for (const std::size_t rows : e.rows) rebalances.add(std::uint64_t{rows});
  }
  expect_hash("rebalance events", rebalances.value(), g.rebalances);
  expect_hash("solution", hash_values(r.solution), g.solution);
}

/// The strip baseline: loaded Platform 2 on its shared segment.
SorConfig strip_config() {
  SorConfig cfg;
  cfg.n = 60;
  cfg.iterations = 10;
  cfg.gather_solution = true;
  return cfg;
}

SorResult run_strip(const SorConfig& cfg,
                    const cluster::PlatformSpec& spec = cluster::platform2(),
                    support::Seconds start_time = 40.0) {
  sim::Engine engine;
  cluster::Platform platform(engine, spec, 23);
  return run_distributed_sor(engine, platform, cfg, start_time);
}

TEST(SubstrateGolden, StripOnSharedSegment) {
  check(run_strip(strip_config()),
        {0x1.4a167994209p-3, 0x1.1a4b4d61c42cfp+7, 0x1.779f6071eae84p-1,
         0x2e9496b9a40d0854ULL, 0xa8c7f832281a39c5ULL, 0xb0884dea834b6a2aULL});
}

TEST(SubstrateGolden, StripOverlapped) {
  SorConfig cfg = strip_config();
  cfg.overlap_comm = true;
  check(run_strip(cfg),
        {0x1.4705e824034p-3, 0x1.1a4b4d61c42cfp+7, 0x1.779f6071eae84p-1,
         0xe7a7e4043cc0b1e3ULL, 0xa8c7f832281a39c5ULL, 0xb0884dea834b6a2aULL});
}

TEST(SubstrateGolden, StripRebalanced) {
  SorConfig cfg = strip_config();
  cfg.rebalance_interval = 3;
  const SorResult r = run_strip(cfg);
  EXPECT_FALSE(r.rebalances.empty());
  check(r,
        {0x1.03aee6aa7dfp-2, 0x1.1a4b4d61c42d1p+7, 0x1.779f6071eae84p-1,
         0x5817a217e43be883ULL, 0x234264f5e288ece9ULL, 0xb0884dea834b6a2aULL});
}

TEST(SubstrateGolden, StripRank0Delayed) {
  SorConfig cfg = strip_config();
  cfg.rank0_initial_delay = 0.75;
  check(run_strip(cfg),
        {0x1.4042fed983dap+0, 0x1.1a4b4d61c42cfp+7, 0x1.779f6071eae84p-1,
         0x8b1ec07a57901a0aULL, 0xa8c7f832281a39c5ULL, 0xb0884dea834b6a2aULL});
}

TEST(SubstrateGolden, StripCustomRows) {
  SorConfig cfg = strip_config();
  cfg.rows_per_rank = {6, 12, 18, 24};
  check(run_strip(cfg),
        {0x1.640d24f03bcp-3, 0x1.1a4b4d61c42dp+7, 0x1.779f6071eae84p-1,
         0xc31d8e43e890ba00ULL, 0xa8c7f832281a39c5ULL, 0xb0884dea834b6a2aULL});
}

TEST(SubstrateGolden, StripTimingOnly) {
  SorConfig cfg = strip_config();
  cfg.real_numerics = false;
  check(run_strip(cfg),
        {0x1.4a167994209p-3, 0x1.3bd3cc9be45ep+3, 0x1.ffa91aeb6afc5p-1,
         0x2e9496b9a40d0854ULL, 0xa8c7f832281a39c5ULL, 0xe398da2a859bc9dbULL});
}

TEST(SubstrateGolden, StripOnSwitchedFabric) {
  cluster::PlatformSpec spec = cluster::platform2();
  spec.fabric = cluster::FabricKind::kSwitched;
  check(run_strip(strip_config(), spec, 0.0),
        {0x1.29faffef9f125p-4, 0x1.1a4b4d61c42cfp+7, 0x1.779f6071eae84p-1,
         0x4a8024ea7f47bea9ULL, 0xa8c7f832281a39c5ULL, 0xb0884dea834b6a2aULL});
}

SorResult run_block(std::size_t pr, std::size_t pc) {
  // Platform 2's four hosts, repeated until there is one per block.
  cluster::PlatformSpec spec = cluster::platform2();
  const auto hosts = spec.hosts;
  while (spec.hosts.size() < pr * pc) {
    spec.hosts.push_back(hosts[spec.hosts.size() % hosts.size()]);
  }
  BlockConfig cfg;
  cfg.n = 46;
  cfg.iterations = 8;
  cfg.pr = pr;
  cfg.pc = pc;
  cfg.gather_solution = true;
  sim::Engine engine;
  cluster::Platform platform(engine, spec, 29);
  return run_distributed_block_sor(engine, platform, cfg, 12.5);
}

// Block runs compute no solution error; the golden keeps the NaN.
TEST(SubstrateGolden, Block2x2) {
  check(run_block(2, 2),
        {0x1.71f688d81118p-4, 0x1.b298b9e8f39f9p+6, kNaN,
         0xff5207b4900a8bd6ULL, 0xa8c7f832281a39c5ULL, 0x50b3e82ba9c8fbedULL});
}

TEST(SubstrateGolden, Block2x4) {
  check(run_block(2, 4),
        {0x1.28e392a503bcp-3, 0x1.b298b9e8f39f8p+6, kNaN,
         0xfe6eb4cf2477a4d1ULL, 0xa8c7f832281a39c5ULL, 0x50b3e82ba9c8fbedULL});
}

TEST(SubstrateGolden, JacobiOnFourHosts) {
  JacobiConfig cfg;
  cfg.n = 50;
  cfg.iterations = 12;
  cfg.gather_solution = true;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::platform2(), 31);
  const JacobiResult r = run_distributed_jacobi(engine, platform, cfg, 7.0);

  expect_bits("total_time", r.total_time, 0x1.8cd085ac12e8p-4);
  expect_bits("solution_error", r.solution_error, 0x1.f3fd48e1b48d7p-1);
  BitHash timings;
  for (const auto& rank : r.rank_timings) {
    timings.add(std::uint64_t{rank.size()});
    for (const auto& [comp, comm] : rank) timings.add(comp).add(comm);
  }
  expect_hash("rank timings", timings.value(), 0xf6c74c9af64b3025ULL);
  expect_hash("solution", hash_values(r.solution), 0xab6968e6dfd05dafULL);
}

TEST(SubstrateGolden, CgOnFourHosts) {
  CgConfig cfg;
  cfg.n = 40;
  cfg.max_iterations = 15;
  sim::Engine engine;
  cluster::Platform platform(engine, cluster::platform2(), 37);
  const CgResult r = run_distributed_cg(engine, platform, cfg, 3.0);

  EXPECT_EQ(r.iterations_run, cfg.max_iterations);
  expect_bits("total_time", r.total_time, 0x1.497c868f0429p-3);
  expect_bits("residual", r.residual, 0x1.2ee051f03fb2bp-50);
  expect_bits("solution_error", r.solution_error, 0x1.0037f390cc8p-11);
  BitHash totals;
  for (const auto& rank : r.rank_totals) {
    for (const double t : rank) totals.add(t);
  }
  expect_hash("rank totals", totals.value(), 0xe8426bd5d395928fULL);
}

}  // namespace
}  // namespace sspred::sor
