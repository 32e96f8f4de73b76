// Model-zoo validation against the published torchvision reference numbers:
// parameter counts and per-image FLOPs (2x the reported multiply-accumulates)
// must match within tolerance, which pins the builders to the real
// architectures the paper measured.
#include "dnn/models.hpp"
#include "support/graph_counts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

namespace powerlens::dnn {
namespace {

struct ZooExpectation {
  const char* name;
  double params_m;   // torchvision parameter count, millions
  double gflops;     // per-image FLOPs (2 * GMACs)
  double tolerance;  // relative
};

// Reference values: torchvision 0.12 model documentation. GoogLeNet is
// listed without auxiliary classifiers (the inference graph). The elementwise
// FLOP accounting differs slightly from pure-MAC counting, hence the
// per-model tolerances.
constexpr ZooExpectation kZoo[] = {
    {"alexnet", 61.10, 1.43, 0.05},
    {"googlenet", 6.62, 3.01, 0.10},
    {"vgg19", 143.67, 39.26, 0.05},
    {"mobilenet_v3", 5.48, 0.43, 0.12},
    {"densenet201", 20.01, 8.58, 0.10},
    {"resnext101", 88.79, 32.83, 0.08},
    {"resnet34", 21.80, 7.34, 0.05},
    {"resnet152", 60.19, 23.03, 0.05},
    {"regnet_x_32gf", 107.81, 63.59, 0.12},
    {"regnet_y_128gf", 644.81, 255.05, 0.12},
    {"vit_base_16", 86.57, 35.12, 0.08},
    {"vit_base_32", 88.22, 8.83, 0.08},
};

// gtest names each case "<name> # GetParam() = <dump of the param's bytes>".
// The first eight bytes are the address of the name literal, which moves with
// ASLR, so the default dump renamed every case on every run. This printer
// keeps gtest's dump format but pins that address: the names are laid out
// back to back in table order from a fixed base, the layout of the build the
// case names were first recorded from, so the names are the same in every
// build and run.
constexpr std::uint64_t kPinnedNameBase = 0x563E855D7270;
static_assert(sizeof(ZooExpectation) == 32, "dump pins an 8-byte pointer");

void PrintTo(const ZooExpectation& e, std::ostream* os) {
  std::uint64_t name_addr = kPinnedNameBase;
  for (const ZooExpectation& z : kZoo) {
    if (std::strcmp(z.name, e.name) == 0) break;
    name_addr += std::strlen(z.name) + 1;
  }
  unsigned char bytes[sizeof(ZooExpectation)];
  std::memcpy(bytes, &e, sizeof bytes);
  std::memcpy(bytes, &name_addr, sizeof name_addr);
  *os << sizeof bytes << "-byte object <";
  for (std::size_t i = 0; i < sizeof bytes; ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    *os << hex;
  }
  *os << '>';
}

class ModelZooTest : public ::testing::TestWithParam<ZooExpectation> {};

TEST_P(ModelZooTest, ParameterCountMatchesReference) {
  const ZooExpectation& e = GetParam();
  const Graph g = make_model(e.name, /*batch=*/1);
  const double params_m = static_cast<double>(g.total_params()) / 1e6;
  EXPECT_NEAR(params_m, e.params_m, e.params_m * e.tolerance)
      << g.name() << " params " << params_m << "M vs reference "
      << e.params_m << "M";
}

TEST_P(ModelZooTest, FlopsMatchReference) {
  const ZooExpectation& e = GetParam();
  const Graph g = make_model(e.name, /*batch=*/1);
  const double gflops = static_cast<double>(g.total_flops()) / 1e9;
  EXPECT_NEAR(gflops, e.gflops, e.gflops * e.tolerance)
      << g.name() << " " << gflops << " GFLOPs vs reference " << e.gflops;
}

TEST_P(ModelZooTest, GraphValidates) {
  const Graph g = make_model(GetParam().name, /*batch=*/4);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.batch_size(), 4);
  EXPECT_GT(g.depth(), 5u);
}

TEST_P(ModelZooTest, BatchScalesFlopsLinearly) {
  const Graph g1 = make_model(GetParam().name, 1);
  const Graph g8 = make_model(GetParam().name, 8);
  // Activation-dependent costs scale with batch; parameters do not.
  EXPECT_EQ(g1.total_params(), g8.total_params());
  EXPECT_NEAR(static_cast<double>(g8.total_flops()),
              8.0 * static_cast<double>(g1.total_flops()),
              0.01 * static_cast<double>(g8.total_flops()));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelZooTest, ::testing::ValuesIn(kZoo),
    [](const ::testing::TestParamInfo<ZooExpectation>& info) {
      return std::string(info.param.name);
    });

TEST(ModelZoo, HasTwelveModels) { EXPECT_EQ(model_zoo().size(), 12u); }

TEST(ModelZoo, UnknownNameThrows) {
  EXPECT_THROW(make_model("resnet9000", 1), std::invalid_argument);
}

TEST(ModelZoo, VitTreatsTokensAsSequence) {
  const Graph g = make_model("vit_base_16", 1);
  bool saw_attention = false;
  for (const Layer& l : g.layers()) {
    if (l.type == OpType::kMultiHeadAttention) {
      saw_attention = true;
      EXPECT_EQ(l.attn.seq_len, 197);
      EXPECT_EQ(l.attn.heads, 12);
    }
  }
  EXPECT_TRUE(saw_attention);
  EXPECT_EQ(testing::count_of(g, OpType::kMultiHeadAttention), 12u);
}

TEST(ModelZoo, Vit32HasFewerTokens) {
  const Graph g = make_model("vit_base_32", 1);
  for (const Layer& l : g.layers()) {
    if (l.type == OpType::kMultiHeadAttention) {
      EXPECT_EQ(l.attn.seq_len, 50);  // 7*7 + class token
    }
  }
}

TEST(ModelZoo, DenseNetIsConcatHeavy) {
  const Graph g = make_model("densenet201", 1);
  // One concat per dense layer: 6 + 12 + 48 + 32 = 98.
  EXPECT_EQ(testing::concat_count(g), 98u);
}

TEST(ModelZoo, ResNetResidualCounts) {
  EXPECT_EQ(testing::residual_count(make_model("resnet34", 1)), 16u);
  EXPECT_EQ(testing::residual_count(make_model("resnet152", 1)), 50u);
}

TEST(ModelZoo, GoogLeNetHasNineInceptionModules) {
  const Graph g = make_model("googlenet", 1);
  EXPECT_EQ(testing::concat_count(g), 9u);
}

TEST(ModelZoo, MobileNetUsesDepthwiseConvs) {
  const Graph g = make_model("mobilenet_v3", 1);
  std::size_t depthwise = 0;
  for (const Layer& l : g.layers()) {
    if (l.type == OpType::kConv2d && l.conv.groups > 1) ++depthwise;
  }
  EXPECT_EQ(depthwise, 15u);  // one per inverted-residual block
}

TEST(ModelZoo, ResNextUsesGroupedConvs) {
  const Graph g = make_model("resnext101", 1);
  std::size_t grouped = 0;
  for (const Layer& l : g.layers()) {
    if (l.type == OpType::kConv2d && l.conv.groups == 32) ++grouped;
  }
  EXPECT_EQ(grouped, 33u);  // one 3x3 grouped conv per bottleneck block
}

}  // namespace
}  // namespace powerlens::dnn
