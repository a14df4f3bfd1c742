// Parameter advisor: "our algorithm allows each application to set the
// parameters that determine the level of security and availability, as well
// as the access control overhead" (§5). This component turns application
// requirements into concrete (M, C) choices using the §4.1 model:
//
//  * choose C for fixed M (availability-first, security-first, or balanced),
//  * find the smallest M that can meet joint PA/PS targets — Table 2's
//    "increase the cardinality of the manager set" recommendation.
#pragma once

#include <optional>

namespace wan::analysis {

/// Application requirements, in the model's terms.
struct Requirements {
  double min_availability = 0.99;  ///< target PA
  double min_security = 0.99;      ///< target PS
  double pi = 0.1;                 ///< assumed pairwise inaccessibility
};

/// One concrete recommendation.
struct Recommendation {
  int managers = 0;
  int check_quorum = 0;
  double pa = 0.0;
  double ps = 0.0;

  [[nodiscard]] bool meets(const Requirements& req) const noexcept {
    return pa >= req.min_availability && ps >= req.min_security;
  }
};

/// Best C for a fixed M: maximizes min(PA - availability deficit weighting).
/// `security_weight` in [0,1]: 0 = pure availability, 1 = pure security,
/// 0.5 = balanced (maximin on the weighted pair).
[[nodiscard]] Recommendation choose_check_quorum(int managers, double pi,
                                                 double security_weight = 0.5);

/// Smallest M (searched up to max_managers) with some C meeting both targets;
/// among feasible (M, C), the smallest M then the smallest C (cheapest
/// checks). nullopt if even max_managers cannot meet the targets.
[[nodiscard]] std::optional<Recommendation> smallest_feasible(
    const Requirements& req, int max_managers = 64);

}  // namespace wan::analysis
