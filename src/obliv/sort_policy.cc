#include "obliv/sort_policy.h"

#include "common/check.h"

namespace oblivdb::obliv {

const char* SortPolicyName(SortPolicy policy) {
  switch (policy) {
    case SortPolicy::kReference: return "reference";
    case SortPolicy::kBlocked: return "blocked";
    case SortPolicy::kTagSort: return "tag";
    case SortPolicy::kAuto: return "auto";
  }
  OBLIVDB_CHECK(false);
  return "?";
}

SortPolicy SortPolicyFromName(std::string_view name, SortPolicy fallback) {
  for (const SortPolicy policy :
       {SortPolicy::kReference, SortPolicy::kBlocked, SortPolicy::kTagSort,
        SortPolicy::kAuto}) {
    if (name == SortPolicyName(policy)) return policy;
  }
  return fallback;
}

}  // namespace oblivdb::obliv
