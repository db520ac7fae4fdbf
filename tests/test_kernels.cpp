//===- tests/test_kernels.cpp - Kernel suite tests ------------------------===//

#include "workloads/Kernels.h"

#include "sim/Interpreter.h"
#include "uarch/Pipeline.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

uint64_t runResult(const KernelProgram &K, BrrDecider &D) {
  Machine M;
  const DecodedProgram DP(K.Prog);
  Interpreter I(DP, M, D);
  I.run(1ULL << 28);
  return M.memory().readU64(K.Prog.symbol("result"));
}

std::vector<uint64_t> siteCounts(const KernelProgram &K, BrrDecider &D) {
  Machine M;
  const DecodedProgram DP(K.Prog);
  Interpreter I(DP, M, D);
  I.run(1ULL << 28);
  uint64_t Base = K.Prog.symbol("sites");
  std::vector<uint64_t> Counts;
  for (unsigned S = 0; S != K.NumStaticSites; ++S)
    Counts.push_back(M.memory().readU64(Base + 8 * S));
  return Counts;
}

} // namespace

class KernelCorrectness : public ::testing::TestWithParam<KernelKind> {};

TEST_P(KernelCorrectness, BaselineComputesExpectedResult) {
  KernelConfig C;
  C.Kind = GetParam();
  KernelProgram K = buildKernel(C);
  NeverTakenDecider D;
  EXPECT_EQ(runResult(K, D), K.ExpectedResult) << K.Name;
}

TEST_P(KernelCorrectness, ResultInvariantUnderEveryFramework) {
  KernelConfig C;
  C.Kind = GetParam();
  C.Instr.Interval = 64;
  for (SamplingFramework F :
       {SamplingFramework::Full, SamplingFramework::CounterBased,
        SamplingFramework::BrrBased}) {
    C.Instr.Framework = F;
    KernelProgram K = buildKernel(C);
    BrrUnitDecider D;
    EXPECT_EQ(runResult(K, D), K.ExpectedResult)
        << K.Name << " under " << frameworkName(F);
  }
}

TEST_P(KernelCorrectness, FullInstrumentationCountsEveryVisit) {
  KernelConfig C;
  C.Kind = GetParam();
  C.Instr.Framework = SamplingFramework::Full;
  KernelProgram K = buildKernel(C);
  NeverTakenDecider D;
  std::vector<uint64_t> Counts = siteCounts(K, D);
  uint64_t Total = 0;
  for (uint64_t V : Counts)
    Total += V;
  EXPECT_EQ(Total, K.DynamicSiteVisits) << K.Name;
}

TEST_P(KernelCorrectness, CounterSamplingIsExactlyPeriodic) {
  KernelConfig C;
  C.Kind = GetParam();
  C.Instr.Framework = SamplingFramework::CounterBased;
  C.Instr.Interval = 32;
  KernelProgram K = buildKernel(C);
  NeverTakenDecider D;
  std::vector<uint64_t> Counts = siteCounts(K, D);
  uint64_t Total = 0;
  for (uint64_t V : Counts)
    Total += V;
  EXPECT_EQ(Total, K.DynamicSiteVisits / 32) << K.Name;
}

TEST_P(KernelCorrectness, RunsOnTheTimingModel) {
  KernelConfig C;
  C.Kind = GetParam();
  C.Instr.Framework = SamplingFramework::BrrBased;
  C.Instr.Interval = 64;
  KernelProgram K = buildKernel(C);
  const DecodedProgram DP(K.Prog);
  Pipeline Pipe(DP, PipelineConfig());
  RunResult R = Pipe.run(1ULL << 40);
  EXPECT_GT(R.Stats.Cycles, 0u);
  ASSERT_EQ(R.Markers.size(), 2u) << K.Name;
  EXPECT_EQ(Pipe.machine().memory().readU64(K.Prog.symbol("result")),
            K.ExpectedResult)
      << K.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, KernelCorrectness,
    ::testing::Values(KernelKind::Crc32, KernelKind::Sort,
                      KernelKind::StrSearch, KernelKind::MatMul,
                      KernelKind::ListSum),
    [](const auto &Info) { return std::string(kernelName(Info.param)); });

TEST(KernelSuite, BuildsAllFive) {
  std::vector<KernelProgram> Suite =
      buildKernelSuite(InstrumentationConfig());
  ASSERT_EQ(Suite.size(), 5u);
  EXPECT_EQ(Suite[0].Name, "crc32");
  EXPECT_EQ(Suite[4].Name, "listsum");
  for (const KernelProgram &K : Suite)
    EXPECT_GT(K.DynamicSiteVisits, 0u) << K.Name;
}

TEST(KernelSuite, KernelsHaveDistinctPersonalities) {
  // Sanity that the suite actually spans behaviours: listsum is latency
  // bound (low IPC), matmul keeps the machine busier.
  auto Ipc = [](KernelKind Kind) {
    KernelConfig C;
    C.Kind = Kind;
    KernelProgram K = buildKernel(C);
    const DecodedProgram DP(K.Prog);
    Pipeline Pipe(DP, PipelineConfig());
    return Pipe.run(1ULL << 40).Stats.ipc();
  };
  double ListIpc = Ipc(KernelKind::ListSum);
  double MatIpc = Ipc(KernelKind::MatMul);
  EXPECT_LT(ListIpc, MatIpc);
  EXPECT_LT(ListIpc, 1.5);
}

TEST(KernelSuite, SeedsChangeInputsNotStructure) {
  KernelConfig A, B;
  A.Kind = B.Kind = KernelKind::Crc32;
  B.Seed = A.Seed + 1;
  KernelProgram KA = buildKernel(A);
  KernelProgram KB = buildKernel(B);
  EXPECT_EQ(KA.Prog.numInsts(), KB.Prog.numInsts());
  EXPECT_NE(KA.ExpectedResult, KB.ExpectedResult);
}
