// The diff engine's significance primitives against independently
// computed references (python: math.erfc for the normal, Simpson
// integration of the t pdf for Student-t tails, the closed-form binomial
// identity for integer-parameter incomplete beta) and the degenerate-input
// contracts the header documents (zero variance, n = 1, all-success).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/stats.h"

namespace dnstime {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(NormalTwoSidedP, MatchesErfc) {
  EXPECT_NEAR(normal_two_sided_p(1.96), 2.0 * (1.0 - 0.97500210485178),
              1e-12);
  EXPECT_DOUBLE_EQ(normal_two_sided_p(0.0), 1.0);
  EXPECT_EQ(normal_two_sided_p(std::numeric_limits<double>::quiet_NaN()),
            1.0);
}

TEST(IncompleteBeta, IntegerParameterClosedForm) {
  // For integer a, b: I_x(a,b) equals a binomial tail sum (computed
  // independently in python via math.comb).
  EXPECT_NEAR(incomplete_beta(2.0, 5.0, 0.3), 0.579825, 1e-12);
  EXPECT_NEAR(incomplete_beta(4.0, 4.0, 0.5), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
  // Complement identity on the half-integer parameters the t CDF uses.
  EXPECT_NEAR(incomplete_beta(5.0, 0.5, 0.8) +
                  incomplete_beta(0.5, 5.0, 0.2),
              1.0, 1e-12);
}

TEST(StudentT, TwoSidedReferenceValues) {
  // References: full-tail numerical integration of the t pdf via a tan
  // substitution (independent of the incomplete-beta route the
  // implementation takes). df = 1, t = 1 is exactly 0.5 analytically.
  EXPECT_NEAR(student_t_two_sided_p(2.0, 10.0), 0.0733880347707364, 1e-11);
  EXPECT_NEAR(student_t_two_sided_p(1.0, 1.0), 0.5, 1e-11);
  EXPECT_NEAR(student_t_two_sided_p(5.5, 3.7), 0.00666820569301293, 1e-11);
  // Symmetry in t, edge cases.
  EXPECT_DOUBLE_EQ(student_t_two_sided_p(2.0, 10.0),
                   student_t_two_sided_p(-2.0, 10.0));
  EXPECT_DOUBLE_EQ(student_t_two_sided_p(0.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(student_t_two_sided_p(kInf, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(
      student_t_two_sided_p(std::numeric_limits<double>::quiet_NaN(), 5.0),
      1.0);
}

TEST(Variance, HandComputation) {
  EXPECT_DOUBLE_EQ(variance({1, 2, 3, 4, 5}), 2.5);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({7.0}), 0.0);  // n = 1: not estimable
}

TEST(WelchT, ReferenceValues) {
  // a = {1..5}, b = {2,4,...,10}: t = 1.8974, df = 5.882, p = 0.1075
  // (references via independent python computation).
  TestResult r = welch_t_test({1, 2, 3, 4, 5}, {2, 4, 6, 8, 10});
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.statistic, 1.8973665961, 1e-9);
  EXPECT_NEAR(r.df, 5.88235294118, 1e-9);
  EXPECT_NEAR(r.p, 0.107531194930633, 1e-11);

  // Unequal sample sizes.
  TestResult r2 = welch_t_test({10.1, 9.8, 10.3, 10.0, 9.9, 10.2, 10.4},
                               {10.9, 11.2, 10.7});
  ASSERT_TRUE(r2.valid);
  EXPECT_NEAR(r2.statistic, 5.0, 1e-9);
  EXPECT_NEAR(r2.df, 3.35120643432, 1e-9);
  EXPECT_NEAR(r2.p, 0.0117582632192009, 1e-11);

  // Order of the samples only flips the sign.
  TestResult r3 = welch_t_test({2, 4, 6, 8, 10}, {1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(r3.statistic, -r.statistic);
  EXPECT_DOUBLE_EQ(r3.p, r.p);
}

TEST(WelchT, DegenerateContracts) {
  // n = 1 on either side: variance is not estimable -> invalid, p = 1.
  EXPECT_FALSE(welch_t_test({1.0}, {2.0, 3.0}).valid);
  EXPECT_FALSE(welch_t_test({1.0, 2.0}, {3.0}).valid);
  EXPECT_FALSE(welch_t_test({}, {}).valid);
  EXPECT_DOUBLE_EQ(welch_t_test({1.0}, {2.0}).p, 1.0);

  // Zero variance on both sides, equal means: exact agreement.
  TestResult same = welch_t_test({5.0, 5.0, 5.0}, {5.0, 5.0});
  ASSERT_TRUE(same.valid);
  EXPECT_DOUBLE_EQ(same.statistic, 0.0);
  EXPECT_DOUBLE_EQ(same.p, 1.0);

  // Zero variance, different means: the difference is exact.
  TestResult diff = welch_t_test({5.0, 5.0}, {6.0, 6.0});
  ASSERT_TRUE(diff.valid);
  EXPECT_EQ(diff.statistic, kInf);
  EXPECT_DOUBLE_EQ(diff.p, 0.0);
  TestResult diff_down = welch_t_test({6.0, 6.0}, {5.0, 5.0});
  EXPECT_EQ(diff_down.statistic, -kInf);
  EXPECT_DOUBLE_EQ(diff_down.p, 0.0);
}

TEST(TwoProportionZ, ReferenceValues) {
  // 45/100 vs 30/100: z = -2.1909, p = 0.02846.
  TestResult r = two_proportion_z_test(45, 100, 30, 100);
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.statistic, -2.19089023002, 1e-9);
  EXPECT_NEAR(r.p, 0.0284597369163, 1e-12);

  // The CI doctored-baseline shape: 0/100 vs 3/4 is overwhelming.
  TestResult r2 = two_proportion_z_test(0, 100, 3, 4);
  ASSERT_TRUE(r2.valid);
  EXPECT_NEAR(r2.statistic, 8.78793051704, 1e-9);
  EXPECT_NEAR(r2.p, 1.5234013826e-18, 1e-27);
}

TEST(TwoProportionZ, DegenerateContracts) {
  // Empty samples: invalid, conservative p.
  EXPECT_FALSE(two_proportion_z_test(0, 0, 1, 2).valid);
  EXPECT_FALSE(two_proportion_z_test(1, 2, 0, 0).valid);
  EXPECT_DOUBLE_EQ(two_proportion_z_test(0, 0, 0, 0).p, 1.0);
  // successes > n is corrupt input, never a verdict.
  EXPECT_FALSE(two_proportion_z_test(5, 4, 1, 4).valid);

  // All-success on both sides (pooled proportion 1): exact agreement.
  TestResult all = two_proportion_z_test(4, 4, 100, 100);
  ASSERT_TRUE(all.valid);
  EXPECT_DOUBLE_EQ(all.statistic, 0.0);
  EXPECT_DOUBLE_EQ(all.p, 1.0);
  // All-failure likewise.
  TestResult none = two_proportion_z_test(0, 7, 0, 3);
  ASSERT_TRUE(none.valid);
  EXPECT_DOUBLE_EQ(none.p, 1.0);
}

TEST(KsTest, StatisticAndAsymptoticP) {
  // D computed by hand over the step functions; p from an independent
  // python evaluation of the Kolmogorov series + Stephens correction.
  TestResult r = ks_test({1, 2, 3, 4}, {3, 4, 5, 6});
  ASSERT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.statistic, 0.5);
  EXPECT_NEAR(r.p, 0.534415719217, 1e-9);

  TestResult r2 = ks_test({0.0, 0.1, 0.2, 0.9, 1.0, 1.4},
                          {0.8, 1.1, 1.2, 1.3, 1.9});
  ASSERT_TRUE(r2.valid);
  EXPECT_NEAR(r2.statistic, 0.633333333333, 1e-12);
  EXPECT_NEAR(r2.p, 0.132999657784, 1e-9);

  // Unsorted input is the caller's normal case.
  TestResult r3 = ks_test({4, 1, 3, 2}, {6, 3, 5, 4});
  EXPECT_DOUBLE_EQ(r3.statistic, 0.5);
}

TEST(KsTest, DegenerateContracts) {
  EXPECT_FALSE(ks_test({}, {1.0}).valid);
  EXPECT_FALSE(ks_test({1.0}, {}).valid);
  // Identical samples: D = 0, p = 1.
  TestResult same = ks_test({1, 2, 3}, {1, 2, 3});
  ASSERT_TRUE(same.valid);
  EXPECT_DOUBLE_EQ(same.statistic, 0.0);
  EXPECT_DOUBLE_EQ(same.p, 1.0);
  // Disjoint supports: D = 1, p near 0 for large n.
  TestResult disjoint = ks_test({1, 1, 1, 1, 1, 1, 1, 1},
                                {9, 9, 9, 9, 9, 9, 9, 9});
  EXPECT_DOUBLE_EQ(disjoint.statistic, 1.0);
  EXPECT_LT(disjoint.p, 1e-3);
}

TEST(WilsonInterval, ZeroTrialsIsTheVacuousInterval) {
  // "No information yet" must render as [0, 1], never as a confident
  // [0, 0]: a progress display polling before the first trial completes
  // would otherwise show "certainly 0% success". Both the explicit return
  // and the struct defaults pin this.
  const WilsonInterval vacuous = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(vacuous.low, 0.0);
  EXPECT_DOUBLE_EQ(vacuous.high, 1.0);
  const WilsonInterval defaults{};
  EXPECT_DOUBLE_EQ(defaults.low, 0.0);
  EXPECT_DOUBLE_EQ(defaults.high, 1.0);
  // Nonsense input (successes > trials) degrades to vacuous too.
  const WilsonInterval nonsense = wilson_interval(5, 2);
  EXPECT_DOUBLE_EQ(nonsense.low, 0.0);
  EXPECT_DOUBLE_EQ(nonsense.high, 1.0);
}

TEST(WilsonInterval, ZeroSuccessesIsNeverConfidentlyZero) {
  // 0/n is real information, but its upper bound must stay strictly
  // positive — the CI shrinks toward zero with n without ever touching it.
  double prev_high = 1.0;
  for (u64 n : {1ull, 4ull, 16ull, 256ull, 65536ull}) {
    const WilsonInterval w = wilson_interval(0, n);
    EXPECT_DOUBLE_EQ(w.low, 0.0);
    EXPECT_GT(w.high, 0.0) << "n=" << n;
    EXPECT_LT(w.high, prev_high) << "n=" << n;
    prev_high = w.high;
  }
}

}  // namespace
}  // namespace dnstime
