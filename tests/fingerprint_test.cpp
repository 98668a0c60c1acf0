// Tests for the canonical structural fingerprint builder
// (src/model/fingerprint.hpp) and its use as the program cache's
// structure key: injectivity of the encoding, hash determinism, and the
// ModelSpec::structure_key contract (structural inputs in, runtime
// bindings out).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "cluster/platform.hpp"
#include "model/fingerprint.hpp"
#include "serve/program_cache.hpp"

namespace sspred::model {
namespace {

TEST(Fingerprint, HashIsDeterministicAndSpreads) {
  EXPECT_EQ(hash_bytes("abc"), hash_bytes("abc"));
  EXPECT_NE(hash_bytes("abc"), hash_bytes("abd"));
  EXPECT_NE(hash_bytes(""), hash_bytes(std::string_view("\0", 1)));
  // The splitmix64 finalizer must spread nearby inputs across the whole
  // 64-bit ring (raw FNV-1a mixes high bits poorly): check the top byte
  // takes many values over a small family of similar keys.
  std::set<std::uint64_t> top_bytes;
  for (int i = 0; i < 64; ++i) {
    top_bytes.insert(hash_bytes("shard-" + std::to_string(i)) >> 56);
  }
  EXPECT_GT(top_bytes.size(), 24u);
}

TEST(Fingerprint, FieldOrderAndNamesAreSignificant) {
  Fingerprint ab;
  ab.field("a", std::uint64_t{1}).field("b", std::uint64_t{2});
  Fingerprint ba;
  ba.field("b", std::uint64_t{2}).field("a", std::uint64_t{1});
  EXPECT_NE(ab.str(), ba.str());

  Fingerprint renamed;
  renamed.field("a", std::uint64_t{1}).field("c", std::uint64_t{2});
  EXPECT_NE(ab.str(), renamed.str());
}

TEST(Fingerprint, TypesCannotCollide) {
  // The same textual value under different types yields distinct keys:
  // u64 1, i64 1, double 1.0, bool true, string "1".
  const auto key = [](auto v) {
    Fingerprint fp;
    fp.field("x", v);
    return fp.str();
  };
  std::set<std::string> keys{key(std::uint64_t{1}), key(std::int64_t{1}),
                             key(1.0), key(true),
                             key(std::string_view("1"))};
  EXPECT_EQ(keys.size(), 5u);
}

TEST(Fingerprint, StringsAreLengthPrefixed) {
  // A value containing the separator/equals characters cannot fake a
  // different field sequence.
  Fingerprint smuggled;
  smuggled.field("a", std::string_view("x|b=s1:y"));
  Fingerprint two;
  two.field("a", std::string_view("x")).field("b", std::string_view("y"));
  EXPECT_NE(smuggled.str(), two.str());

  // Shifting bytes between adjacent string fields changes the key.
  Fingerprint left;
  left.field("a", std::string_view("xy")).field("b", std::string_view("z"));
  Fingerprint right;
  right.field("a", std::string_view("x")).field("b", std::string_view("yz"));
  EXPECT_NE(left.str(), right.str());
}

TEST(Fingerprint, DoublesRoundTripSeventeenDigits) {
  Fingerprint a;
  a.field("v", 0.1);
  Fingerprint b;
  b.field("v", 0.1 + 1e-18);  // below half an ULP: same double
  EXPECT_EQ(a.str(), b.str());
  Fingerprint c;
  c.field("v", std::nextafter(0.1, 1.0));  // genuinely distinct double
  EXPECT_NE(a.str(), c.str());
}

TEST(Fingerprint, DoubleTextIsPinned) {
  // The rendered text is part of every structure key, hash and shard
  // route, so it must not move with how it is produced.
  const auto key = [](double v) {
    Fingerprint fp;
    fp.field("x", v);
    return fp.str();
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(key(0.1), "x=f0.10000000000000001");
  EXPECT_EQ(key(1.0 / 3.0), "x=f0.33333333333333331");
  EXPECT_EQ(key(1e21), "x=f1e+21");
  EXPECT_EQ(key(5e-324), "x=f4.9406564584124654e-324");
  EXPECT_EQ(key(-0.0), "x=f-0");
  EXPECT_EQ(key(kInf), "x=finf");
  EXPECT_EQ(key(-kInf), "x=f-inf");
  EXPECT_EQ(key(std::numeric_limits<double>::quiet_NaN()), "x=fnan");
}

TEST(Fingerprint, TagsAndIntegralConvenienceOverloads) {
  Fingerprint fp;
  fp.tag("sor").field("n", std::size_t{200}).field("neg", -3);
  EXPECT_EQ(fp.str(), "#sor|n=u200|neg=i-3");
  EXPECT_EQ(fp.hash(), hash_bytes(fp.str()));

  enum class Kind : int { kOne = 1, kTwo = 2 };
  Fingerprint e1;
  e1.field("k", Kind::kOne);
  Fingerprint e2;
  e2.field("k", Kind::kTwo);
  EXPECT_NE(e1.str(), e2.str());
}

serve::ModelSpec spec_with(std::size_t n) {
  serve::ModelSpec spec;
  spec.app = serve::ModelSpec::App::kSor;
  spec.platform = cluster::dedicated_platform(2);
  spec.config.n = n;
  spec.config.iterations = 5;
  return spec;
}

TEST(StructureKey, EqualSpecsShareOneKeyDistinctSpecsDoNot) {
  EXPECT_EQ(spec_with(200).structure_key(), spec_with(200).structure_key());
  EXPECT_NE(spec_with(200).structure_key(), spec_with(201).structure_key());

  auto block = spec_with(200);
  block.app = serve::ModelSpec::App::kBlockSor;
  block.pr = 2;
  block.pc = 1;
  EXPECT_NE(block.structure_key(), spec_with(200).structure_key());

  auto options_changed = spec_with(200);
  options_changed.options.account_memory =
      !options_changed.options.account_memory;
  EXPECT_NE(options_changed.structure_key(), spec_with(200).structure_key());

  auto machine_changed = spec_with(200);
  machine_changed.platform.hosts[0].machine.ops_per_second *= 2.0;
  EXPECT_NE(machine_changed.structure_key(), spec_with(200).structure_key());
}

TEST(StructureKey, RuntimeLoadBindingsAreExcluded) {
  // Loads are bindings, not structure: two specs that differ only in the
  // hosts' load processes compile to one shared program.
  auto loaded = spec_with(200);
  for (auto& host : loaded.platform.hosts) {
    host.load = cluster::platform1_load();
    host.load_interval = 0.25;
  }
  EXPECT_EQ(loaded.structure_key(), spec_with(200).structure_key());
}

}  // namespace
}  // namespace sspred::model
