#include "core/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/stacks.h"

namespace churnstore {
namespace {

TEST(ScenarioSpec, DefaultsMatchEmptyCli) {
  const ScenarioSpec parsed = ScenarioSpec::from_cli(Cli({}));
  const ScenarioSpec defaults;
  EXPECT_EQ(parsed.to_key_values(), defaults.to_key_values());
}

TEST(ScenarioSpec, ParsesBareKeyValueTokens) {
  const Cli cli({"n=256,512", "protocol=chord", "churn-mult=1.25",
                 "churn=block-sweep", "trials=7", "erasure=true",
                 "chord-stabilize=4"});
  const ScenarioSpec spec = ScenarioSpec::from_cli(cli);
  EXPECT_EQ(spec.ns, (std::vector<std::uint32_t>{256, 512}));
  EXPECT_EQ(spec.protocol, "chord");
  EXPECT_DOUBLE_EQ(spec.churn.multiplier, 1.25);
  EXPECT_EQ(spec.churn.kind, AdversaryKind::kBlockSweep);
  EXPECT_EQ(spec.trials, 7u);
  EXPECT_TRUE(spec.protocol_config.use_erasure_coding);
  // Unknown keys land in extras for stack-/scenario-specific knobs.
  EXPECT_EQ(spec.extra_int("chord-stabilize", 0), 4);
}

TEST(ScenarioSpec, DashDashFlagsAndBareTokensAreEquivalent) {
  const ScenarioSpec a =
      ScenarioSpec::from_cli(Cli({"--n=512", "--trials=3"}));
  const ScenarioSpec b = ScenarioSpec::from_cli(Cli({"n=512", "trials=3"}));
  EXPECT_EQ(a.to_key_values(), b.to_key_values());
}

TEST(ScenarioSpec, RoundTripsThroughKeyValues) {
  const Cli cli({"n=128,256", "degree=6", "seed=99", "trials=5",
                 "churn=oldest-first", "churn-mult=0.75", "churn-k=1.25",
                 "edge=regenerate", "walk-t=3.5", "h=1.5", "items=7",
                 "searches=9", "batches=3", "age-taus=4.5", "threads=2",
                 "parallel=false", "json=true", "walkers=8",
                 "protocol=k-walker"});
  const ScenarioSpec spec = ScenarioSpec::from_cli(cli);
  const ScenarioSpec reparsed =
      ScenarioSpec::from_cli(Cli(spec.to_key_values()));
  EXPECT_EQ(spec.to_key_values(), reparsed.to_key_values());
  EXPECT_EQ(reparsed.churn.kind, AdversaryKind::kOldestFirst);
  EXPECT_EQ(reparsed.edge_dynamics, EdgeDynamics::kRegenerate);
  EXPECT_FALSE(reparsed.parallel);
  EXPECT_EQ(reparsed.threads, 2u);
  EXPECT_EQ(reparsed.extra_int("walkers", 0), 8);
}

TEST(ScenarioSpec, UnknownKeysErrorOutWithAcceptedList) {
  // The classic typo: `shard=4` instead of `shards=4`. Silent acceptance
  // used to run the wrong experiment; now it throws and names the options.
  try {
    (void)ScenarioSpec::from_cli(Cli({"n=128", "shard=4"}));
    FAIL() << "unknown key must not parse";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shard"), std::string::npos);
    EXPECT_NE(msg.find("accepted keys"), std::string::npos);
    EXPECT_NE(msg.find("shards"), std::string::npos) << msg;
  }
  // A key from an old command line (soup_step no longer has scatter=) is
  // rejected like a typo, never silently ignored.
  EXPECT_THROW((void)ScenarioSpec::from_cli(Cli({"n=128", "scatter=direct"})),
               std::invalid_argument);
  // Registered extras still parse (stack and scenario knobs).
  EXPECT_NO_THROW((void)ScenarioSpec::from_cli(
      Cli({"walkers=8", "chord-stabilize=4", "shard-sweep=1,4"})));
}

TEST(ScenarioSpec, AcceptExtraKeyRegistersNewKnobs) {
  EXPECT_THROW((void)ScenarioSpec::from_cli(Cli({"my-plugin-knob=1"})),
               std::invalid_argument);
  ScenarioSpec::accept_extra_key("my-plugin-knob");
  const ScenarioSpec spec =
      ScenarioSpec::from_cli(Cli({"my-plugin-knob=42"}));
  EXPECT_EQ(spec.extra_int("my-plugin-knob", 0), 42);
  const auto keys = ScenarioSpec::accepted_keys();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "my-plugin-knob"),
            keys.end());
}

TEST(ScenarioSpec, SystemConfigReflectsSpec) {
  ScenarioSpec spec = ScenarioSpec::from_cli(
      Cli({"n=512", "degree=12", "seed=4", "churn-mult=0.25",
           "edge=static", "item-bits=2048"}));
  const SystemConfig cfg = spec.system_config();
  EXPECT_EQ(cfg.sim.n, 512u);
  EXPECT_EQ(cfg.sim.degree, 12u);
  EXPECT_EQ(cfg.sim.seed, 4u);
  EXPECT_DOUBLE_EQ(cfg.sim.churn.multiplier, 0.25);
  EXPECT_EQ(cfg.sim.edge_dynamics, EdgeDynamics::kStatic);
  EXPECT_EQ(cfg.protocol.item_bits, 2048u);
  EXPECT_EQ(spec.system_config(64).sim.n, 64u);
}

TEST(ScenarioSpec, WithHelpersProduceVariants) {
  const ScenarioSpec spec;
  EXPECT_EQ(spec.with_n(99).n(), 99u);
  const ScenarioSpec none = spec.with_churn_multiplier(0.0);
  EXPECT_EQ(none.churn.kind, AdversaryKind::kNone);
  const ScenarioSpec more = spec.with_churn_multiplier(2.0);
  EXPECT_EQ(more.churn.kind, AdversaryKind::kUniform);
  EXPECT_DOUBLE_EQ(more.churn.multiplier, 2.0);
  EXPECT_EQ(spec.with_seed(123).seed, 123u);
}

TEST(ScenarioSpec, EnumNamesRoundTrip) {
  for (const AdversaryKind k :
       {AdversaryKind::kNone, AdversaryKind::kUniform,
        AdversaryKind::kBlockSweep, AdversaryKind::kRegionRepeat,
        AdversaryKind::kOldestFirst, AdversaryKind::kYoungestFirst,
        AdversaryKind::kAdaptive}) {
    EXPECT_EQ(adversary_from_name(to_name(k)), k);
  }
  for (const EdgeDynamics d : {EdgeDynamics::kStatic, EdgeDynamics::kRewire,
                               EdgeDynamics::kRegenerate}) {
    EXPECT_EQ(edge_dynamics_from_name(to_name(d)), d);
  }
  EXPECT_THROW((void)adversary_from_name("martian"), std::invalid_argument);
  EXPECT_THROW((void)edge_dynamics_from_name("wormhole"),
               std::invalid_argument);
}

TEST(ScenarioRegistry, RegistersAndFinds) {
  ScenarioRegistry& reg = ScenarioRegistry::instance();
  int runs = 0;
  reg.add(ScenarioDef{"test-scenario", "registered from a test",
                      [&runs](const ScenarioSpec&, const Cli&) { ++runs; }});
  const ScenarioDef* def = reg.find("test-scenario");
  ASSERT_NE(def, nullptr);
  def->run(ScenarioSpec{}, Cli({}));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(reg.find("no-such-scenario"), nullptr);
  // all() is sorted by name.
  const auto all = reg.all();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name, all[i]->name);
  }
}

TEST(Stacks, CatalogContainsBuiltins) {
  const auto catalog = stack_catalog();
  auto has = [&catalog](const std::string& name) {
    for (const auto& [stack, summary] : catalog) {
      if (stack == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("churnstore"));
  EXPECT_TRUE(has("chord"));
  EXPECT_TRUE(has("flooding"));
  EXPECT_TRUE(has("k-walker"));
  EXPECT_TRUE(has("sqrt-replication"));
  EXPECT_THROW((void)build_stack("no-such-stack", SystemConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace churnstore
