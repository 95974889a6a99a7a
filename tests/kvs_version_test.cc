#include "kvs/version.h"

#include <gtest/gtest.h>

namespace pbs {
namespace kvs {
namespace {

TEST(VersionStampTest, TotalOrderByTimestampThenWriter) {
  const VersionStamp early{1.0, 5};
  const VersionStamp late{2.0, 1};
  const VersionStamp tie_low{2.0, 0};
  EXPECT_LT(early, late);
  EXPECT_LT(tie_low, late);
  EXPECT_FALSE(late < late);
  EXPECT_TRUE(late == late);
}

TEST(VersionedValueTest, NewerThanUsesStampOrder) {
  VersionedValue a;
  a.stamp = {1.0, 0};
  VersionedValue b;
  b.stamp = {2.0, 0};
  EXPECT_TRUE(b.NewerThan(a));
  EXPECT_FALSE(a.NewerThan(b));
  EXPECT_FALSE(a.NewerThan(a));
}

}  // namespace
}  // namespace kvs
}  // namespace pbs
