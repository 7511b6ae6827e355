// Generalization ladder tests: interval and tree hierarchies, nesting
// validation, labels, and the BucketizeAtNode integration.

#include "cksafe/hierarchy/hierarchy.h"

#include <gtest/gtest.h>

#include <limits>

#include "cksafe/anon/bucketization.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::kHospitalSensitiveColumn;
using testing::MakeHospitalTable;

TEST(IntervalHierarchyTest, GroupsAndLabels) {
  auto h = IntervalHierarchy::Create(AttributeDef::Numeric("Age", 17, 90),
                                     {1, 5, 10, 20, 40},
                                     /*add_suppressed_top=*/true);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_levels(), 6u);

  // Level 0: identity.
  EXPECT_EQ(h->GroupOf(17, 0), 0);
  EXPECT_EQ(h->GroupOf(90, 0), 73);
  EXPECT_EQ(h->GroupLabel(0, 0), "17");

  // Level 1: width 5 anchored at 17: [17-21], [22-26], ...
  EXPECT_EQ(h->GroupOf(17, 1), 0);
  EXPECT_EQ(h->GroupOf(21, 1), 0);
  EXPECT_EQ(h->GroupOf(22, 1), 1);
  EXPECT_EQ(h->GroupLabel(0, 1), "[17-21]");

  // Level 3: width 20.
  EXPECT_EQ(h->GroupOf(36, 3), 0);
  EXPECT_EQ(h->GroupOf(37, 3), 1);
  EXPECT_EQ(h->GroupLabel(1, 3), "[37-56]");

  // Top: suppressed.
  EXPECT_EQ(h->GroupOf(17, 5), 0);
  EXPECT_EQ(h->GroupOf(90, 5), 0);
  EXPECT_EQ(h->NumGroups(5), 1u);
  EXPECT_EQ(h->GroupLabel(0, 5), "*");

  // Last interval is clipped to the domain max.
  EXPECT_EQ(h->GroupLabel(static_cast<int32_t>(h->NumGroups(2)) - 1, 2),
            "[87-90]");

  // Group sizes: full width but the clipped last interval, the whole
  // domain at the top.
  EXPECT_EQ(h->GroupSize(0, 0), 1u);
  EXPECT_EQ(h->GroupSize(0, 2), 10u);
  EXPECT_EQ(h->GroupSize(static_cast<int64_t>(h->NumGroups(2)) - 1, 2), 4u);
  EXPECT_EQ(h->GroupSize(0, 5), 74u);
}

TEST(IntervalHierarchyTest, FullInt32RangeComputesIn64Bits) {
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  const AttributeDef wide = AttributeDef::Numeric("Wide", kMin, kMax);
  EXPECT_EQ(wide.domain_size(), size_t{1} << 32);
  auto h = IntervalHierarchy::Create(wide, {1, 1 << 30}, true);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->NumGroups(0), size_t{1} << 32);
  EXPECT_EQ(h->GroupOf(kMax, 0), (int64_t{1} << 32) - 1);
  EXPECT_EQ(h->GroupLabel(h->GroupOf(kMax, 0), 0), "2147483647");
  EXPECT_EQ(h->GroupOf(kMin, 1), 0);
  EXPECT_EQ(h->GroupOf(kMax, 1), 3);
  EXPECT_EQ(h->GroupLabel(3, 1), "[1073741824-2147483647]");
  EXPECT_EQ(h->GroupSize(3, 1), size_t{1} << 30);
  EXPECT_EQ(h->GroupSize(0, 2), size_t{1} << 32);
}

TEST(IntervalHierarchyTest, LevelsNest) {
  auto h = IntervalHierarchy::Create(AttributeDef::Numeric("Age", 17, 90),
                                     {1, 5, 10, 20, 40}, true);
  ASSERT_TRUE(h.ok());
  for (size_t level = 0; level + 1 < h->num_levels(); ++level) {
    for (int32_t a = 17; a <= 90; ++a) {
      for (int32_t b = 17; b <= 90; ++b) {
        if (h->GroupOf(a, level) == h->GroupOf(b, level)) {
          EXPECT_EQ(h->GroupOf(a, level + 1), h->GroupOf(b, level + 1))
              << "level " << level << " ages " << a << "," << b;
        }
      }
    }
  }
}

TEST(IntervalHierarchyTest, RejectsBadWidths) {
  const AttributeDef age = AttributeDef::Numeric("Age", 0, 99);
  EXPECT_FALSE(IntervalHierarchy::Create(age, {}, true).ok());
  EXPECT_FALSE(IntervalHierarchy::Create(age, {2, 4}, true).ok());   // no identity
  EXPECT_FALSE(IntervalHierarchy::Create(age, {1, 5, 7}, true).ok()); // 7 % 5
  EXPECT_FALSE(IntervalHierarchy::Create(age, {1, 5, 5}, true).ok()); // equal
  EXPECT_FALSE(
      IntervalHierarchy::Create(AttributeDef::Categorical("C", {"x"}), {1},
                                true)
          .ok());
}

TEST(TreeHierarchyTest, GroupsLabelsAndNesting) {
  const AttributeDef marital = AttributeDef::Categorical(
      "Marital", {"Married", "Divorced", "Widowed", "Single"});
  auto h = TreeHierarchy::Create(
      marital, {{{"Ever-married", {"Married", "Divorced", "Widowed"}},
                 {"Never-married", {"Single"}}},
                {{"*", {"Married", "Divorced", "Widowed", "Single"}}}});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_levels(), 3u);
  EXPECT_EQ(h->NumGroups(0), 4u);
  EXPECT_EQ(h->NumGroups(1), 2u);
  EXPECT_EQ(h->NumGroups(2), 1u);
  EXPECT_EQ(h->GroupOf(0, 1), h->GroupOf(1, 1));
  EXPECT_NE(h->GroupOf(0, 1), h->GroupOf(3, 1));
  EXPECT_EQ(h->GroupLabel(h->GroupOf(3, 1), 1), "Never-married");
  EXPECT_EQ(h->GroupLabel(0, 2), "*");
  EXPECT_EQ(h->GroupSize(h->GroupOf(0, 1), 1), 3u);
  EXPECT_EQ(h->GroupSize(h->GroupOf(3, 1), 1), 1u);
  EXPECT_EQ(h->GroupSize(0, 2), 4u);
}

TEST(TreeHierarchyTest, RejectsIncompleteOrOverlappingLevels) {
  const AttributeDef attr =
      AttributeDef::Categorical("X", {"a", "b", "c"});
  // Missing "c".
  EXPECT_FALSE(
      TreeHierarchy::Create(attr, {{{"g", {"a", "b"}}}}).ok());
  // "a" twice.
  EXPECT_FALSE(TreeHierarchy::Create(
                   attr, {{{"g1", {"a", "b"}}, {"g2", {"a", "c"}}}})
                   .ok());
  // Unknown label.
  EXPECT_FALSE(
      TreeHierarchy::Create(attr, {{{"g", {"a", "b", "zzz"}}}}).ok());
  // Level 2 splits a level-1 group.
  EXPECT_FALSE(TreeHierarchy::Create(
                   attr, {{{"ab", {"a", "b"}}, {"c", {"c"}}},
                          {{"ac", {"a", "c"}}, {"b", {"b"}}}})
                   .ok());
}

TEST(TreeHierarchyTest, SuppressionOnly) {
  const TreeHierarchy h = TreeHierarchy::SuppressionOnly(
      AttributeDef::Categorical("Sex", {"M", "F"}));
  EXPECT_EQ(h.num_levels(), 2u);
  EXPECT_EQ(h.GroupOf(0, 1), h.GroupOf(1, 1));
  EXPECT_EQ(h.GroupLabel(0, 1), "*");
}

TEST(BucketizeAtNodeTest, HospitalSexSuppressionRecoversFigure3) {
  // Generalizing Zip and Age away and keeping Sex yields exactly the
  // Figure 2/3 buckets.
  const Table table = MakeHospitalTable();
  std::vector<QuasiIdentifier> qis(3);
  qis[0] = {0, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(0)))};  // Zip
  auto age = IntervalHierarchy::Create(table.schema().attribute(1), {1}, true);
  ASSERT_TRUE(age.ok());
  qis[1] = {1, ShareHierarchy(*std::move(age))};
  qis[2] = {2, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(2)))};  // Sex

  auto b = BucketizeAtNode(table, qis, {1, 1, 0}, kHospitalSensitiveColumn);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b->num_buckets(), 2u);
  EXPECT_EQ(b->bucket(0).histogram, (std::vector<uint32_t>{2, 2, 1, 0, 0, 0}));
  EXPECT_EQ(b->bucket(1).histogram, (std::vector<uint32_t>{2, 0, 0, 1, 1, 1}));
  EXPECT_EQ(b->bucket(0).qi_label, "*, *, M");

  // Fully suppressed: one bucket.
  auto top = BucketizeAtNode(table, qis, {1, 1, 1}, kHospitalSensitiveColumn);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->num_buckets(), 1u);
}

TEST(BucketizeAtNodeTest, ValidatesArityAndLevels) {
  const Table table = MakeHospitalTable();
  std::vector<QuasiIdentifier> qis(1);
  qis[0] = {2, ShareHierarchy(TreeHierarchy::SuppressionOnly(
                   table.schema().attribute(2)))};
  EXPECT_FALSE(
      BucketizeAtNode(table, qis, {0, 1}, kHospitalSensitiveColumn).ok());
  EXPECT_FALSE(
      BucketizeAtNode(table, qis, {5}, kHospitalSensitiveColumn).ok());
}

}  // namespace
}  // namespace cksafe
