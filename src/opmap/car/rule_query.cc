#include "opmap/car/rule_query.h"

#include <algorithm>
#include <limits>

#include "opmap/common/string_util.h"

namespace opmap {

bool MatchesFilter(const ClassRule& rule, const RuleFilter& filter,
                   int64_t num_rows) {
  if (filter.class_value && rule.class_value != *filter.class_value) {
    return false;
  }
  if (filter.mentions_attribute) {
    bool found = false;
    for (const Condition& c : rule.conditions) {
      if (c.attribute == *filter.mentions_attribute) found = true;
    }
    if (!found) return false;
  }
  if (filter.contains_condition) {
    bool found = false;
    for (const Condition& c : rule.conditions) {
      if (c == *filter.contains_condition) found = true;
    }
    if (!found) return false;
  }
  const double support = rule.Support(num_rows);
  if (support < filter.min_support || support > filter.max_support) {
    return false;
  }
  const double confidence = rule.Confidence();
  if (confidence < filter.min_confidence ||
      confidence > filter.max_confidence) {
    return false;
  }
  const int len = static_cast<int>(rule.conditions.size());
  return len >= filter.min_conditions && len <= filter.max_conditions;
}

RuleSet SelectRules(const RuleSet& rules, const RuleFilter& filter) {
  RuleSet out(rules.num_rows());
  for (const ClassRule& r : rules.rules()) {
    if (MatchesFilter(r, filter, rules.num_rows())) out.Add(r);
  }
  return out;
}

std::map<std::vector<int>, std::vector<ClassRule>> GroupRulesByAttributes(
    const RuleSet& rules) {
  std::map<std::vector<int>, std::vector<ClassRule>> groups;
  for (const ClassRule& r : rules.rules()) {
    std::vector<int> key;
    key.reserve(r.conditions.size());
    for (const Condition& c : r.conditions) key.push_back(c.attribute);
    std::sort(key.begin(), key.end());
    groups[key].push_back(r);
  }
  return groups;
}

RuleSetSummary SummarizeRules(const RuleSet& rules) {
  RuleSetSummary s;
  s.total = static_cast<int64_t>(rules.size());
  if (rules.empty()) return s;
  s.min_support = std::numeric_limits<double>::infinity();
  s.min_confidence = std::numeric_limits<double>::infinity();
  for (const ClassRule& r : rules.rules()) {
    ++s.per_class[r.class_value];
    ++s.per_length[static_cast<int>(r.conditions.size())];
    const double support = r.Support(rules.num_rows());
    const double confidence = r.Confidence();
    s.min_support = std::min(s.min_support, support);
    s.max_support = std::max(s.max_support, support);
    s.min_confidence = std::min(s.min_confidence, confidence);
    s.max_confidence = std::max(s.max_confidence, confidence);
  }
  return s;
}

std::string RuleSetSummary::ToString(const Schema& schema) const {
  std::string out = std::to_string(total) + " rules";
  if (total == 0) return out;
  out += "; per class:";
  for (const auto& [cls, count] : per_class) {
    out += " " + schema.class_attribute().label(cls) + "=" +
           std::to_string(count);
  }
  out += "; per length:";
  for (const auto& [len, count] : per_length) {
    out.append(" ")
        .append(std::to_string(len))
        .append("-cond=")
        .append(std::to_string(count));
  }
  out += "; support " + FormatPercent(min_support, 3) + ".." +
         FormatPercent(max_support, 3);
  out += "; confidence " + FormatPercent(min_confidence, 2) + ".." +
         FormatPercent(max_confidence, 2);
  return out;
}

}  // namespace opmap
