// Workspace pool semantics: zero-filled leases, buffer reuse after warmup
// (the allocation-free steady-state contract), and distinct buffers for
// nested leases.
#include "linalg/workspace.hpp"

#include <gtest/gtest.h>

#include <cstddef>

namespace powerlens::linalg {
namespace {

TEST(Workspace, LeaseIsShapedAndZeroFilled) {
  Workspace ws;
  Workspace::Lease a = ws.lease(3, 5);
  EXPECT_EQ(a->rows(), 3u);
  EXPECT_EQ(a->cols(), 5u);
  for (const double v : a->data()) EXPECT_EQ(v, 0.0);
}

TEST(Workspace, ReleasedBufferIsReusedNotReallocated) {
  Workspace ws;
  {
    Workspace::Lease a = ws.lease(8, 8);
    (*a)(0, 0) = 42.0;
  }
  EXPECT_EQ(ws.created(), 1u);
  EXPECT_EQ(ws.pooled(), 1u);
  {
    // Same footprint: must come back from the pool, zeroed.
    Workspace::Lease b = ws.lease(8, 8);
    EXPECT_EQ((*b)(0, 0), 0.0);
  }
  EXPECT_EQ(ws.created(), 1u);
  {
    // Smaller footprint reuses the same capacity too.
    Workspace::Lease c = ws.lease(2, 3);
    EXPECT_EQ(c->rows(), 2u);
  }
  EXPECT_EQ(ws.created(), 1u);
}

TEST(Workspace, NestedLeasesAreDistinctBuffers) {
  Workspace ws;
  Workspace::Lease a = ws.lease(4, 4);
  Workspace::Lease b = ws.lease(4, 4);
  EXPECT_NE(&a.get(), &b.get());
  (*a)(1, 1) = 7.0;
  EXPECT_EQ((*b)(1, 1), 0.0);
  EXPECT_EQ(ws.created(), 2u);
}

TEST(Workspace, SteadyStateCreatesNothingNewAcrossRepeatedPasses) {
  Workspace ws;
  const auto pass = [&ws] {
    Workspace::Lease big = ws.lease(32, 32);
    Workspace::Lease mid = ws.lease(16, 8);
    Workspace::Lease small = ws.lease(1, 12);
    (*big)(0, 0) = 1.0;
  };
  pass();  // warmup
  const std::size_t created_after_warmup = ws.created();
  const std::size_t capacity_after_warmup = ws.pooled_capacity();
  for (int i = 0; i < 50; ++i) pass();
  EXPECT_EQ(ws.created(), created_after_warmup);
  EXPECT_EQ(ws.pooled_capacity(), capacity_after_warmup);
}

TEST(Workspace, BestFitPicksSmallestSufficientBuffer) {
  Workspace ws;
  {
    Workspace::Lease big = ws.lease(100, 100);
    Workspace::Lease small = ws.lease(2, 2);
  }
  EXPECT_EQ(ws.pooled(), 2u);
  {
    // A small request must not burn the big buffer.
    Workspace::Lease s = ws.lease(2, 2);
    Workspace::Lease b = ws.lease(100, 100);
    EXPECT_EQ(ws.created(), 2u);  // both served from the pool
  }
}

TEST(Workspace, UninitLeaseRegrowingWithinCapacityKeepsContents) {
  // lease_uninit promises no element writes: shrinking a pooled buffer and
  // regrowing it within its capacity must not zero-fill the regrown tail.
  Workspace ws;
  {
    Workspace::Lease a = ws.lease_uninit(2, 2);
    for (std::size_t i = 0; i < 4; ++i) {
      a->data()[i] = 10.0 + static_cast<double>(i);
    }
  }
  { Workspace::Lease b = ws.lease_uninit(1, 1); }
  Workspace::Lease c = ws.lease_uninit(2, 2);
  EXPECT_EQ(ws.created(), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c->data()[i], 10.0 + static_cast<double>(i)) << "element " << i;
  }
}

TEST(Workspace, MovedFromLeaseDoesNotDoubleRelease) {
  Workspace ws;
  {
    Workspace::Lease a = ws.lease(3, 3);
    Workspace::Lease b = std::move(a);
    EXPECT_EQ(b->rows(), 3u);
  }
  EXPECT_EQ(ws.pooled(), 1u);
  EXPECT_EQ(ws.created(), 1u);
}

}  // namespace
}  // namespace powerlens::linalg
