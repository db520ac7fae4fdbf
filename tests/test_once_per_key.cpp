//===- tests/test_once_per_key.cpp - Build-once keyed map unit tests ------===//
//
// OncePerKey backs the checkpoint-library pool and the process-wide text
// memo, so its contract — one build per key however many threads ask,
// keys independent of each other, and a failed build retried — gets its
// own tests here. The sanitize label runs them under TSan as well.
//
//===----------------------------------------------------------------------===//

#include "support/OncePerKey.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace bor;

TEST(OncePerKey, BuildsOncePerKeyUnderContention) {
  OncePerKey<int, std::vector<int>> Map;
  constexpr int NumThreads = 8;
  std::atomic<int> Builds{0};
  std::latch Start(NumThreads);
  std::vector<const std::vector<int> *> Seen(NumThreads);
  std::vector<std::thread> Threads;
  for (int I = 0; I != NumThreads; ++I)
    Threads.emplace_back([&, I] {
      Start.arrive_and_wait();
      Seen[I] = &Map.getOrBuild(42, [&] {
        ++Builds;
        // Hold the build open so the other threads arrive while it runs.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::vector<int>{1, 2, 3};
      });
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Builds.load(), 1);
  for (int I = 0; I != NumThreads; ++I) {
    EXPECT_EQ(Seen[I], Seen[0]);
    EXPECT_EQ(*Seen[I], (std::vector<int>{1, 2, 3}));
  }
  EXPECT_EQ(Map.size(), 1u);
}

TEST(OncePerKey, DistinctKeysAreIndependent) {
  OncePerKey<int, int> Map;
  std::promise<void> Entered, Release;
  std::shared_future<void> Released = Release.get_future().share();
  std::thread Slow([&] {
    Map.getOrBuild(1, [&] {
      Entered.set_value();
      Released.wait();
      return 10;
    });
  });
  Entered.get_future().wait();
  // Key 1's build is still running; key 2 must not wait for it.
  std::future<int> Other = std::async(std::launch::async, [&] {
    return Map.getOrBuild(2, [] { return 20; });
  });
  const bool Finished = Other.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  Release.set_value();
  Slow.join();
  EXPECT_TRUE(Finished) << "key 2 waited for key 1's build";
  EXPECT_EQ(Other.get(), 20);
  EXPECT_EQ(Map.getOrBuild(1, [] { return -1; }), 10);
  EXPECT_EQ(Map.getOrBuild(2, [] { return -2; }), 20);
  EXPECT_EQ(Map.size(), 2u);
}

TEST(OncePerKey, ThrowingBuildLetsTheNextCallerBuild) {
  OncePerKey<int, std::string> Map;
  EXPECT_THROW(Map.getOrBuild(7,
                              []() -> std::string {
                                throw std::runtime_error("build failed");
                              }),
               std::runtime_error);
  int Builds = 0;
  EXPECT_EQ(Map.getOrBuild(7,
                           [&] {
                             ++Builds;
                             return std::string("built");
                           }),
            "built");
  EXPECT_EQ(Map.getOrBuild(7,
                           [&] {
                             ++Builds;
                             return std::string("rebuilt");
                           }),
            "built");
  EXPECT_EQ(Builds, 1);
}
