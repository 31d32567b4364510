#include "cost/cost_function.h"

#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "cost/affine.h"
#include "cost/exponential.h"
#include "cost/logistic.h"
#include "cost/piecewise.h"
#include "cost/power.h"

namespace dolbie::cost {
namespace {

// ---------------------------------------------------------------- affine --

TEST(AffineCost, ValueAndDescribe) {
  const affine_cost f(2.0, 0.5);
  EXPECT_DOUBLE_EQ(f.value(0.0), 0.5);
  EXPECT_DOUBLE_EQ(f.value(0.5), 1.5);
  EXPECT_DOUBLE_EQ(f.value(1.0), 2.5);
  EXPECT_NE(f.describe().find("affine"), std::string::npos);
}

TEST(AffineCost, AnalyticInverse) {
  const affine_cost f(2.0, 0.5);
  EXPECT_DOUBLE_EQ(f.inverse_max(0.4), 0.0);   // below the intercept
  EXPECT_DOUBLE_EQ(f.inverse_max(0.5), 0.0);   // exactly the intercept
  EXPECT_DOUBLE_EQ(f.inverse_max(1.5), 0.5);   // interior
  EXPECT_DOUBLE_EQ(f.inverse_max(2.5), 1.0);   // exactly f(1)
  EXPECT_DOUBLE_EQ(f.inverse_max(99.0), 1.0);  // beyond f(1)
}

TEST(AffineCost, ZeroSlopeIsConstant) {
  const affine_cost f(0.0, 0.7);
  EXPECT_DOUBLE_EQ(f.value(0.0), f.value(1.0));
  EXPECT_DOUBLE_EQ(f.inverse_max(0.7), 1.0);
  EXPECT_DOUBLE_EQ(f.inverse_max(0.6), 0.0);
}

TEST(AffineCost, RejectsNegativeParameters) {
  EXPECT_THROW(affine_cost(-1.0, 0.0), invariant_error);
  EXPECT_THROW(affine_cost(1.0, -0.1), invariant_error);
}

// ----------------------------------------------------------------- power --

TEST(PowerCost, QuadraticValues) {
  const power_cost f(4.0, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(f.value(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f.value(0.5), 2.0);
  EXPECT_DOUBLE_EQ(f.value(1.0), 5.0);
}

TEST(PowerCost, AnalyticInverse) {
  const power_cost f(4.0, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(f.inverse_max(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f.inverse_max(2.0), 0.5);
  EXPECT_DOUBLE_EQ(f.inverse_max(5.0), 1.0);
  EXPECT_DOUBLE_EQ(f.inverse_max(100.0), 1.0);
}

TEST(PowerCost, ConcaveExponent) {
  const power_cost f(1.0, 0.5, 0.0);  // sqrt
  EXPECT_DOUBLE_EQ(f.value(0.25), 0.5);
  EXPECT_DOUBLE_EQ(f.inverse_max(0.5), 0.25);
}

TEST(PowerCost, RejectsBadParameters) {
  EXPECT_THROW(power_cost(-1.0, 2.0, 0.0), invariant_error);
  EXPECT_THROW(power_cost(1.0, 0.0, 0.0), invariant_error);
  EXPECT_THROW(power_cost(1.0, 2.0, -1.0), invariant_error);
}

// ----------------------------------------------------------- exponential --

TEST(ExponentialCost, ValuesAndInverse) {
  const exponential_cost f(1.0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(f.value(0.0), 0.5);
  EXPECT_NEAR(f.value(1.0), 0.5 + std::expm1(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(f.inverse_max(0.4), 0.0);
  EXPECT_NEAR(f.inverse_max(0.5 + std::expm1(1.0)), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(f.inverse_max(1e9), 1.0);
}

TEST(ExponentialCost, RejectsBadParameters) {
  EXPECT_THROW(exponential_cost(-1.0, 1.0, 0.0), invariant_error);
  EXPECT_THROW(exponential_cost(1.0, 0.0, 0.0), invariant_error);
  EXPECT_THROW(exponential_cost(1.0, 1.0, -0.1), invariant_error);
}

// -------------------------------------------------------------- piecewise --

TEST(PiecewiseCost, InterpolatesBetweenKnots) {
  const piecewise_linear_cost f({{0.0, 1.0}, {0.5, 2.0}, {1.0, 10.0}});
  EXPECT_DOUBLE_EQ(f.value(0.0), 1.0);
  EXPECT_DOUBLE_EQ(f.value(0.25), 1.5);
  EXPECT_DOUBLE_EQ(f.value(0.5), 2.0);
  EXPECT_DOUBLE_EQ(f.value(0.75), 6.0);
  EXPECT_DOUBLE_EQ(f.value(1.0), 10.0);
}

TEST(PiecewiseCost, InverseOnEachSegment) {
  const piecewise_linear_cost f({{0.0, 1.0}, {0.5, 2.0}, {1.0, 10.0}});
  EXPECT_DOUBLE_EQ(f.inverse_max(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f.inverse_max(1.5), 0.25);
  EXPECT_DOUBLE_EQ(f.inverse_max(6.0), 0.75);
  EXPECT_DOUBLE_EQ(f.inverse_max(10.0), 1.0);
  EXPECT_DOUBLE_EQ(f.inverse_max(11.0), 1.0);
}

TEST(PiecewiseCost, FlatSegmentInverseTakesRightEdge) {
  // Flat on [0.3, 0.7]: everything on the plateau costs 2.
  const piecewise_linear_cost f(
      {{0.0, 0.0}, {0.3, 2.0}, {0.7, 2.0}, {1.0, 5.0}});
  // max{x : f(x) <= 2} should be the right edge of the plateau.
  EXPECT_DOUBLE_EQ(f.inverse_max(2.0), 0.7);
}

TEST(PiecewiseCost, RejectsBadKnots) {
  EXPECT_THROW(piecewise_linear_cost({{0.0, 1.0}}), invariant_error);
  EXPECT_THROW(piecewise_linear_cost({{0.1, 1.0}, {1.0, 2.0}}),
               invariant_error);  // must start at 0
  EXPECT_THROW(piecewise_linear_cost({{0.0, 1.0}, {0.9, 2.0}}),
               invariant_error);  // must end at 1
  EXPECT_THROW(piecewise_linear_cost({{0.0, 2.0}, {1.0, 1.0}}),
               invariant_error);  // decreasing
  EXPECT_THROW(
      piecewise_linear_cost({{0.0, 1.0}, {0.5, 2.0}, {0.5, 3.0}, {1.0, 4.0}}),
      invariant_error);  // duplicate x
}

// ------------------------------------------------------------- saturating --

TEST(SaturatingCost, ValuesAndInverse) {
  const saturating_cost f(2.0, 0.5, 0.1);
  EXPECT_DOUBLE_EQ(f.value(0.0), 0.1);
  EXPECT_DOUBLE_EQ(f.value(0.5), 0.1 + 2.0 * 0.5 / 1.0);
  EXPECT_DOUBLE_EQ(f.inverse_max(0.05), 0.0);
  EXPECT_NEAR(f.inverse_max(f.value(0.3)), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(f.inverse_max(10.0), 1.0);
}

TEST(SaturatingCost, NeverReachesSaturationLevel) {
  const saturating_cost f(1.0, 0.2, 0.0);
  // value(x) < 1 for all x in [0,1]; a level >= 1 means everything fits.
  EXPECT_DOUBLE_EQ(f.inverse_max(1.0), 1.0);
}

TEST(SaturatingCost, RejectsBadParameters) {
  EXPECT_THROW(saturating_cost(-1.0, 0.5, 0.0), invariant_error);
  EXPECT_THROW(saturating_cost(1.0, 0.0, 0.0), invariant_error);
  EXPECT_THROW(saturating_cost(1.0, 0.5, -0.1), invariant_error);
}

// ----------------------------------------------- default bisection inverse --

// A cost with no analytic override: exercises cost_function::inverse_max.
class opaque_cost final : public cost_function {
 public:
  explicit opaque_cost(std::function<double(double)> f) : f_(std::move(f)) {}
  double value(double x) const override { return f_(x); }
  std::string describe() const override { return "opaque"; }

 private:
  std::function<double(double)> f_;
};

TEST(DefaultInverse, MatchesAnalyticOnAffine) {
  const affine_cost analytic(3.0, 0.2);
  const opaque_cost opaque([](double x) { return 3.0 * x + 0.2; });
  for (double l : {0.1, 0.2, 0.5, 1.0, 2.0, 3.2, 5.0}) {
    EXPECT_NEAR(opaque.inverse_max(l), analytic.inverse_max(l), 1e-9)
        << "level " << l;
  }
}

TEST(DefaultInverse, BoundaryLevels) {
  const opaque_cost f([](double x) { return x * x + 1.0; });
  EXPECT_DOUBLE_EQ(f.inverse_max(0.5), 0.0);  // below f(0)
  EXPECT_DOUBLE_EQ(f.inverse_max(2.0), 1.0);  // exactly f(1)
  EXPECT_DOUBLE_EQ(f.inverse_max(3.0), 1.0);  // above f(1)
}

// ------------------------------------------------------------- properties --
// The inverse property every family must satisfy:
//   (a) x' = inverse_max(l) implies value(x') <= l (+eps),
//   (b) x' is maximal: value(x' + eps) > l whenever x' < 1,
//   (c) inverse_max is non-decreasing in l,
//   (d) round trip: inverse_max(value(x)) >= x.

// The parameter holds no pointer: gtest prints a parameter that has no
// operator<< as its raw bytes, and gtest_discover_tests puts that print into
// every ctest name, so a pointer member (a string literal, a std::function)
// made the names change with the load address of each run. The label is
// stored inline and make() builds the family it names.
struct family_case {
  char label[40];

  std::unique_ptr<const cost_function> make(rng& g) const {
    const std::string_view family(label);
    if (family == "affine") {
      return std::make_unique<affine_cost>(g.uniform(0.0, 10.0),
                                           g.uniform(0.0, 2.0));
    }
    if (family == "power") {
      return std::make_unique<power_cost>(
          g.uniform(0.1, 10.0), g.uniform(0.3, 3.0), g.uniform(0.0, 2.0));
    }
    if (family == "exponential") {
      return std::make_unique<exponential_cost>(
          g.uniform(0.1, 5.0), g.uniform(0.5, 4.0), g.uniform(0.0, 2.0));
    }
    if (family == "saturating") {
      return std::make_unique<saturating_cost>(
          g.uniform(0.1, 5.0), g.uniform(0.05, 1.0), g.uniform(0.0, 2.0));
    }
    if (family == "piecewise") {
      const double y0 = g.uniform(0.0, 1.0);
      const double y1 = y0 + g.uniform(0.0, 2.0);
      const double y2 = y1 + g.uniform(0.0, 2.0);
      const double y3 = y2 + g.uniform(0.0, 2.0);
      const double xm1 = g.uniform(0.1, 0.45);
      const double xm2 = g.uniform(0.55, 0.9);
      return std::make_unique<piecewise_linear_cost>(
          std::vector<knot>{{0.0, y0}, {xm1, y1}, {xm2, y2}, {1.0, y3}});
    }
    throw std::logic_error("unknown cost family: " + std::string(family));
  }
};

class CostInverseProperty : public ::testing::TestWithParam<family_case> {};

TEST_P(CostInverseProperty, InverseIsMaximalAffordablePoint) {
  rng gen(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const auto f = GetParam().make(gen);
    ASSERT_TRUE(appears_increasing(*f)) << f->describe();
    for (int k = 0; k <= 20; ++k) {
      const double l =
          f->value(0.0) +
          (f->value(1.0) - f->value(0.0)) * (k / 20.0) * 1.2;  // spans past f(1)
      const double xp = f->inverse_max(l);
      ASSERT_GE(xp, 0.0);
      ASSERT_LE(xp, 1.0);
      // (a) affordable
      EXPECT_LE(f->value(xp), l + 1e-7) << f->describe() << " level " << l;
      // (b) maximal
      if (xp < 1.0 - 1e-6) {
        EXPECT_GT(f->value(std::min(1.0, xp + 1e-4)), l - 1e-7)
            << f->describe() << " level " << l;
      }
    }
  }
}

TEST_P(CostInverseProperty, InverseMonotoneInLevel) {
  rng gen(77);
  for (int trial = 0; trial < 30; ++trial) {
    const auto f = GetParam().make(gen);
    double prev = f->inverse_max(f->value(0.0));
    for (int k = 1; k <= 20; ++k) {
      const double l = f->value(0.0) +
                       (f->value(1.0) - f->value(0.0)) * (k / 20.0);
      const double cur = f->inverse_max(l);
      EXPECT_GE(cur, prev - 1e-9) << f->describe();
      prev = cur;
    }
  }
}

TEST_P(CostInverseProperty, RoundTripNeverShrinks) {
  rng gen(99);
  for (int trial = 0; trial < 30; ++trial) {
    const auto f = GetParam().make(gen);
    for (int k = 0; k <= 10; ++k) {
      const double x = k / 10.0;
      EXPECT_GE(f->inverse_max(f->value(x)), x - 1e-7) << f->describe();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, CostInverseProperty,
    ::testing::Values(family_case{"affine"}, family_case{"power"},
                      family_case{"exponential"}, family_case{"saturating"},
                      family_case{"piecewise"}),
    [](const ::testing::TestParamInfo<family_case>& info) {
      return std::string(info.param.label);
    });

// -------------------------------------------------------------- utilities --

TEST(Evaluate, AppliesEachCostAtItsCoordinate) {
  cost_vector costs;
  costs.push_back(std::make_unique<affine_cost>(1.0, 0.0));
  costs.push_back(std::make_unique<affine_cost>(2.0, 1.0));
  const cost_view view = view_of(costs);
  const auto locals = evaluate(view, {0.5, 0.25});
  ASSERT_EQ(locals.size(), 2u);
  EXPECT_DOUBLE_EQ(locals[0], 0.5);
  EXPECT_DOUBLE_EQ(locals[1], 1.5);
}

TEST(Evaluate, ThrowsOnSizeMismatch) {
  cost_vector costs;
  costs.push_back(std::make_unique<affine_cost>(1.0, 0.0));
  const cost_view view = view_of(costs);
  EXPECT_THROW(evaluate(view, {0.5, 0.5}), invariant_error);
}

TEST(AppearsIncreasing, DetectsDecrease) {
  const opaque_cost bad([](double x) { return -x; });
  EXPECT_FALSE(appears_increasing(bad));
  const opaque_cost good([](double x) { return x; });
  EXPECT_TRUE(appears_increasing(good));
}

}  // namespace
}  // namespace dolbie::cost
